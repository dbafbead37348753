"""Call-granularity span tracing from outside the program.

The benchmark never edits ``repro``: a :class:`Tracer` wraps public
functions and methods for the duration of a traced stage and restores
them afterwards.  Each wrapper records one span per *call* (never per
element), on a per-thread stack, so a span's self time is its duration
minus the time its child spans cover.  Self times of all spans under a
stage root therefore add up to the root's wall time exactly; whatever
the root itself spent outside any wrapped call is the stage's
unattributed share.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = ["Tracer"]


class _Frame:
    __slots__ = ("name", "t0", "child_ns")

    def __init__(self, name: str, t0: int):
        self.name = name
        self.t0 = t0
        self.child_ns = 0


class Tracer:
    """Per-name call count, total time and self time (nanoseconds), plus
    optional per-call samples for names that need percentiles."""

    def __init__(self, sampled: tuple = ()):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []
        self.sampled = tuple(sampled)
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls: dict[str, int] = {}
            self.total_ns: dict[str, int] = {}
            self.self_ns: dict[str, int] = {}
            self.samples: dict[str, list] = {}

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter_ns())
        self._stack().append(frame)
        return frame

    def _exit(self, frame: _Frame, sample=None) -> None:
        dur = time.perf_counter_ns() - frame.t0
        st = self._stack()
        st.pop()
        if st:
            st[-1].child_ns += dur
        name = frame.name
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + dur
            self.self_ns[name] = (self.self_ns.get(name, 0)
                                  + dur - frame.child_ns)
            if name.startswith(self.sampled):
                self.samples.setdefault(name, []).append(
                    (dur, sample))

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, sample=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper until :meth:`unwrap`.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``;
        ``sample`` (optional) maps ``(args, kwargs, result)`` to a value
        stored beside each sampled call's duration.
        """
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            frame = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame)
                raise
            tracer._exit(frame, None if sample is None
                         else sample(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- readout -----------------------------------------------------------

    def self_ms(self, name: str, per: float = 1.0) -> float:
        """Self time of ``name`` in ms, divided by ``per``."""
        return self.self_ns.get(name, 0) / 1e6 / per
