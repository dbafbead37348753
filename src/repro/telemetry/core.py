"""The collection layer: one global, O(1) disabled, armed process-wide.

Instrumented modules test one module global, as the fault probes do::

    from ..telemetry import core as _tm

    def hot_function(...):
        ...
        t = _tm.ACTIVE
        if t is not None:                 # one global load when disabled
            t.count("fma.scalar.norm.zd")

``ACTIVE`` is ``None`` except inside a :func:`collecting` region, so the
disabled fast path is a single module-global load and ``is not None``
test -- the same budget the fault-injection probes pay.  Instrumentation
of *batched* code goes at call boundaries (once per ``dot_batch``, never
per element), which is what keeps disabled-mode overhead under the 2%
gate in ``benchmarks/test_telemetry_overhead.py``.

Collection is process-wide, unlike the per-thread fault probes and
residue guard: the server's executor threads count into the collector
their caller armed, so a :class:`Telemetry` locks its own updates.
Nesting regions would make "which run produced this counter" ambiguous,
so they are non-reentrant.  Worker processes of the parallel runners
start with ``ACTIVE = None``; their snapshots, when taken explicitly,
merge deterministically via :func:`repro.telemetry.merge_snapshots`.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Iterator

from .snapshot import Snapshot, SpanStat

__all__ = ["Telemetry", "collecting", "count", "event", "gauge", "span",
           "telemetry_active", "ACTIVE"]

#: the collector while telemetry is armed; ``None`` always = fast path.
ACTIVE: "Telemetry | None" = None

#: default cap on stored trace events per collector; overflowing events
#: are dropped and tallied under this counter tag.
MAX_EVENTS = 4096
DROPPED_TAG = "telemetry.events.dropped"


class Telemetry:
    """Mutable collection state for one :func:`collecting` region."""

    __slots__ = ("counters", "spans", "gauges", "events", "max_events",
                 "_lock")

    def __init__(self, max_events: int = MAX_EVENTS):
        self.counters: dict[str, int] = {}
        self.spans: dict[str, SpanStat] = {}
        self.gauges: dict[str, int] = {}
        self.events: list[dict] = []
        self.max_events = max_events
        self._lock = threading.Lock()

    # -- instruments ---------------------------------------------------

    def count(self, tag: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``tag``."""
        with self._lock:
            c = self.counters
            c[tag] = c.get(tag, 0) + n

    def observe(self, tag: str, ns: int) -> None:
        """Record one span observation of ``ns`` nanoseconds."""
        with self._lock:
            s = self.spans.get(tag)
            if s is None:
                self.spans[tag] = SpanStat(1, ns, ns, ns)
            else:
                self.spans[tag] = SpanStat(
                    s.count + 1, s.total_ns + ns,
                    ns if ns < s.min_ns else s.min_ns,
                    ns if ns > s.max_ns else s.max_ns)

    def gauge(self, tag: str, value: int) -> None:
        """Raise the high-water gauge ``tag`` to at least ``value``."""
        with self._lock:
            g = self.gauges.get(tag)
            if g is None or value > g:
                self.gauges[tag] = value

    def event(self, tag: str, **fields) -> None:
        """Record one structured trace event (JSON-serializable fields).

        Events beyond ``max_events`` are dropped and tallied under
        :data:`DROPPED_TAG` so a truncated trace is always visible.
        """
        with self._lock:
            if len(self.events) < self.max_events:
                self.events.append({"tag": tag, **fields})
                return
        self.count(DROPPED_TAG)

    # -- snapshots ------------------------------------------------------

    def snapshot(self, label: str = "") -> Snapshot:
        """Freeze the current state into an immutable snapshot."""
        with self._lock:
            return Snapshot.build(self.counters, self.spans, self.gauges,
                                  self.events, label)


# ---------------------------------------------------------------------------
# module-level convenience instruments (safe to call any time)


def count(tag: str, n: int = 1) -> None:
    """Count ``n`` occurrences of ``tag``; no-op while disabled."""
    t = ACTIVE
    if t is not None:
        t.count(tag, n)


def gauge(tag: str, value: int) -> None:
    """Raise the gauge ``tag``; no-op while disabled."""
    t = ACTIVE
    if t is not None:
        t.gauge(tag, value)


def event(tag: str, **fields) -> None:
    """Record a trace event; no-op while disabled."""
    t = ACTIVE
    if t is not None:
        t.event(tag, **fields)


def telemetry_active() -> bool:
    """True inside a :func:`collecting` region (hot-path call guard)."""
    return ACTIVE is not None


class span:
    """Context manager timing one region under the span ``tag``.

    The enabled/disabled decision is taken at ``__enter__``: when
    telemetry is off the body runs untimed (no clock reads).  A region
    that starts timed but ends after the collector is gone (the
    collecting block exited inside it) is discarded rather than
    attributed to the wrong collector.
    """

    __slots__ = ("tag", "_t0", "_owner")

    def __init__(self, tag: str):
        self.tag = tag
        self._t0 = 0
        self._owner: "Telemetry | None" = None

    def __enter__(self) -> "span":
        owner = ACTIVE
        self._owner = owner
        if owner is not None:
            self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        owner = self._owner
        if owner is not None and ACTIVE is owner:
            owner.observe(self.tag, time.perf_counter_ns() - self._t0)


@contextlib.contextmanager
def collecting(telemetry: "Telemetry | None" = None,
               ) -> Iterator[Telemetry]:
    """Arm telemetry collection for the duration of the context.

    Process-wide, so work handed to other threads (the server's
    executor pool) counts here too, and non-reentrant; pass an existing
    :class:`Telemetry` to accumulate several regions into one collector.
    """
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("telemetry is already being collected")
    t = telemetry if telemetry is not None else Telemetry()
    ACTIVE = t
    try:
        yield t
    finally:
        ACTIVE = None
