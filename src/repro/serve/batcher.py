"""The adaptive micro-batcher: per-``(op, fmt)`` coalescing queues.

Requests for the same operation and operand format coalesce into one
kernel invocation.  A queue flushes when either knob trips:

* **max-batch-size** -- the queue reached ``max_batch`` entries; the
  batch leaves immediately (no timer fires for a full batch);
* **max-wait-deadline** -- the *oldest* entry has waited ``max_wait_s``.

The wait timer is adaptive in two ways.  It is armed only while a
partial batch exists (an idle queue costs nothing), and its duration is
clipped so the flush lands ``shed_margin_s`` *before* the earliest
client deadline in the queue -- a request on a tight budget drags its
batchmates out early rather than expiring while the batcher dawdles.

The batcher only *forms* batches; execution, admission accounting and
deadline shedding of already-formed batches belong to the server.  All
methods must be called from the event-loop thread.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .protocol import Request

__all__ = ["Entry", "MicroBatcher"]


@dataclass
class Entry:
    """One queued request with its completion future and timing."""

    req: Request
    fut: object                      # asyncio.Future[Response]
    t_enqueue: float = 0.0           # loop.time() at admission
    deadline: float | None = None    # absolute loop.time() budget
    meta: dict = field(default_factory=dict)


class MicroBatcher:
    def __init__(self, *, max_batch: int, max_wait_s: float,
                 shed_margin_s: float = 0.0005,
                 clock: Callable[[], float],
                 schedule: Callable[[float, Callable], object],
                 on_batch: Callable[[str, list], None]):
        """``clock`` is ``loop.time``; ``schedule(delay, cb)`` must
        return a cancellable timer handle (``loop.call_later``);
        ``on_batch(key, entries)`` receives each formed batch."""
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.shed_margin_s = shed_margin_s
        self._clock = clock
        self._schedule = schedule
        self._on_batch = on_batch
        self._queues: dict[str, deque[Entry]] = {}
        self._timers: dict[str, object] = {}

    # ------------------------------------------------------------------

    @staticmethod
    def key_for(req: Request) -> str:
        # verified requests must not coalesce with unverified ones (the
        # guard policy is batch-level), so the level is part of the key;
        # likewise a pinned backend is a batch-level execution property,
        # so backend-pinned requests coalesce only among themselves
        key = f"{req.op}.{req.fmt}"
        if req.verify is not None:
            key = f"{key}.{req.verify}"
        if req.backend is not None:
            key = f"{key}.b:{req.backend}"
        return key

    def depth(self, key: str) -> int:
        q = self._queues.get(key)
        return len(q) if q else 0

    def depths(self) -> dict[str, int]:
        return {k: len(q) for k, q in self._queues.items() if q}

    def put(self, entry: Entry) -> str:
        """Enqueue one admitted request; returns its queue key."""
        key = self.key_for(entry.req)
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = deque()
        q.append(entry)
        if len(q) >= self.max_batch:
            self._fire(key)
        else:
            self._arm(key)
        return key

    def flush_all(self) -> None:
        """Drain every queue now (shutdown / test hook)."""
        for key in list(self._queues):
            while self._queues.get(key):
                self._fire(key)

    # ------------------------------------------------------------------

    def _arm(self, key: str) -> None:
        if key in self._timers:
            return
        q = self._queues.get(key)
        if not q:
            return
        now = self._clock()
        oldest_wait = now - q[0].t_enqueue
        delay = max(0.0, self.max_wait_s - oldest_wait)
        deadlines = [e.deadline for e in q if e.deadline is not None]
        if deadlines:
            # flush early enough that the tightest budget still makes
            # it into an execution slot
            slack = min(deadlines) - now - self.shed_margin_s
            delay = max(0.0, min(delay, slack))
        self._timers[key] = self._schedule(delay, lambda: self._expire(key))

    def _expire(self, key: str) -> None:
        self._timers.pop(key, None)
        if self._queues.get(key):
            self._fire(key)

    def _fire(self, key: str) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            try:
                timer.cancel()
            except (KeyboardInterrupt, SystemExit):
                raise  # interruption must win over the flush
            except Exception:
                pass  # a dead timer handle must not block the flush
        q = self._queues.get(key)
        if not q:
            return
        batch = [q.popleft() for _ in range(min(len(q), self.max_batch))]
        if q:
            # leftovers (burst larger than max_batch): keep the pipeline
            # moving without waiting a fresh full max_wait
            if len(q) >= self.max_batch:
                self._schedule(0.0, lambda: self._expire(key))
            else:
                self._arm(key)
        self._on_batch(key, batch)

    # ------------------------------------------------------------------

    def cancel_timers(self) -> None:
        for timer in self._timers.values():
            try:
                timer.cancel()
            except (KeyboardInterrupt, SystemExit):
                raise  # interruption must win over shutdown cleanup
            except Exception:
                pass  # a dead timer handle must not block shutdown
        self._timers.clear()
