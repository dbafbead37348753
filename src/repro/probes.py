"""Named fault-injection probe points threaded through the datapaths.

The SEU campaign engine (:mod:`repro.faults`) needs to flip individual
bits of *internal* datapath signals -- the PCS carry plane after Carry
Reduce, the window CS pair behind the 3:2 compressor, the Zero
Detector's block-class input, the LZA anticipation inputs, the batch
kernel's SWAR lanes.  Monkey-patching is too fragile for that (most of
those signals are locals inside one long function), so the datapath
modules call :func:`probe` at each architecturally named register/wire
and this module decides -- in O(1), with a single global ``None`` check
on the fast path -- whether a transient fault is armed there.

Disarmed (the default, and the only state outside a campaign) a probe
is ``return value`` behind one global load, so the faithful units and
the batch kernels keep their performance profile.  Armed, the
:class:`Arm` for the tag counts dynamic occurrences and applies its
transform exactly at the requested occurrence -- a *transient* upset of
one register on one clock edge, not a stuck-at fault.  Faults arm per
thread, through the :class:`ThreadSwitch` the residue guard also uses,
so one thread's fault never fires in another thread's kernels.

This module is deliberately dependency-free: it is imported by
``repro.cs``/``repro.fma``/``repro.batch`` and *used* by
``repro.faults``, and must never create an import cycle between them.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Iterator

__all__ = ["Arm", "ThreadSwitch", "armed", "probe"]


class _PerThread(threading.local):
    state: Any = None      # the calling thread's region state


class ThreadSwitch:
    """A module flag armed per thread.  ``flags[name]`` (a global of the
    owning module) is ``None`` while no thread holds a :meth:`region`,
    so a disarmed hook is one global load; else it is :attr:`local`,
    whose ``state`` is the calling thread's state, ``None`` in others.
    Regions in different threads overlap; within a thread none nest.
    """

    def __init__(self, flags: dict, name: str, what: str):
        self.local = _PerThread()
        self._flags, self._name, self._what = flags, name, what
        self._held = 0
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def region(self, state: Any) -> Iterator[Any]:
        local = self.local
        if local.state is not None:
            raise RuntimeError(f"{self._what} already armed in this thread")
        local.state = state
        with self._lock:
            self._held += 1
            self._flags[self._name] = local
        try:
            yield state
        finally:
            local.state = None
            with self._lock:
                self._held -= 1
                if not self._held:
                    self._flags[self._name] = None

    def reset(self) -> bool:
        """Disarm unconditionally; True if any region was held (the
        test suite's leak check)."""
        with self._lock:
            held = self._flags[self._name] is not None
            self._held = 0
            self.local.state = None
            self._flags[self._name] = None
        return held


#: ``None`` while no thread has faults armed (the one-load fast path),
#: else ``SWITCH.local``: its ``state`` is this thread's tag -> Arm dict
ARMED: "_PerThread | None" = None

SWITCH = ThreadSwitch(globals(), "ARMED", "fault probes")


class Arm:
    """One armed transient fault: a transform applied at one occurrence.

    ``at_call`` selects which dynamic occurrence of the probe tag is
    upset (0 = the first time the signal is latched during the armed
    region); every other occurrence passes through untouched.  ``hits``
    records whether the fault actually landed -- a campaign uses it to
    distinguish "masked by logic" from "the site was never exercised".
    """

    __slots__ = ("transform", "at_call", "calls", "hits")

    def __init__(self, transform: Callable[[Any], Any],
                 at_call: int = 0):
        self.transform = transform
        self.at_call = at_call
        self.calls = 0
        self.hits = 0

    def fire(self, value: Any) -> Any:
        i = self.calls
        self.calls = i + 1
        if i == self.at_call:
            self.hits += 1
            return self.transform(value)
        return value


def probe(tag: str, value: Any) -> Any:
    """Pass ``value`` through the probe point named ``tag``.

    Identity unless the calling thread armed a fault at this tag.
    """
    arms = ARMED
    if arms is None or (arms := arms.state) is None:
        return value
    arm = arms.get(tag)
    if arm is None:
        return value
    return arm.fire(value)


def armed(arms: "dict[str, Arm]") -> "contextlib.AbstractContextManager":
    """Arm ``arms`` in the calling thread for the duration of the context
    (a :meth:`ThreadSwitch.region`, like :func:`repro.guard.guarding`).
    Not reentrant: nesting would blur which fault caused an outcome."""
    return SWITCH.region(arms)
