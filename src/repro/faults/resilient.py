"""Resilient execution, inline or pooled, for every sharded runner.

``ProcessPoolExecutor`` alone is brittle in exactly the ways a
long-running sweep meets in practice: a hung worker blocks
``future.result()`` forever, an OOM-killed worker poisons the whole
pool with :class:`BrokenProcessPool`, and a transient failure loses the
shard with no retry.  This module wraps the pool with the recovery
policy the conformance sweep (:mod:`repro.conformance.runner`), the
experiment driver (:mod:`repro.experiments.runner`) and the
fault-injection campaigns (:mod:`repro.faults.campaign`) all share;
each runs through it once per run, at every worker count:

* **per-item wall-clock timeouts** -- a deadline starts when the item
  is submitted into a bounded in-flight window (never more than
  ``workers`` items in flight, so queue wait does not eat the budget);
* **bounded retry** with exponential backoff plus deterministic
  jitter (seeded, so tests are reproducible);
* **broken-pool recovery** -- worker death is detected, the pool is
  respawned, and every lost in-flight item is re-dispatched (items
  that were merely collateral are not charged a retry attempt);
* **hung-worker reclaim** -- a timed-out worker cannot be cancelled
  through the executor API, so the pool is killed and respawned and
  the survivors re-dispatched;
* **graceful serial degradation** -- after two pool-level failures
  the remaining items run inline, one by one;
* **a per-item hook** -- ``on_result`` is called in the parent as each
  item settles, so a runner persists each result (a cache entry, a
  checkpoint line) as it finishes, not after the whole run;
* **structured failure records** -- an item that exhausts its attempts
  produces a :class:`WorkResult` with a machine-readable error record
  instead of an exception that kills the sweep.

The work function must be hashable, and in a pool a picklable
module-level callable.  If it accepts a second positional parameter it
receives the zero-based attempt number -- which the resilience tests
use to build deterministic "fail exactly once" workloads; that is
decided once per function.
"""

from __future__ import annotations

import functools
import inspect
import os
import random
import time
import traceback
from collections import Counter, deque
from concurrent.futures import (FIRST_COMPLETED, CancelledError,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

__all__ = ["RetryPolicy", "WorkResult", "ResilientRun", "run_resilient",
           "resilience_rows"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy with exponential backoff and jitter."""

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    jitter: float = 0.25

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        base = min(self.backoff_cap_s,
                   self.backoff_base_s * (2 ** max(attempt - 1, 0)))
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class WorkResult:
    """Outcome of one work item after all recovery attempts."""

    index: int
    ok: bool
    value: object = None
    #: structured error record: ``kind`` is ``timeout`` /
    #: ``worker-died`` / ``exception``; exceptions add type, message
    #: and a trimmed traceback.
    error: dict | None = None
    attempts: int = 0
    ran_serial: bool = False


@dataclass
class ResilientRun:
    """Full account of a resilient run: results plus recovery events."""

    results: list[WorkResult] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    pool_failures: int = 0
    serial_fallback: bool = False

    @property
    def ok(self) -> bool:
        return all(r is not None and r.ok for r in self.results)

    def summary(self) -> dict:
        """Compact, JSON-ready recovery summary for sweep reports."""
        kinds = Counter(e["kind"] for e in self.events)
        return {
            "items": len(self.results),
            "ok": sum(1 for r in self.results if r is not None and r.ok),
            "failed": sorted(r.index for r in self.results
                             if r is None or not r.ok),
            "retries": kinds.get("retry", 0),
            "timeouts": kinds.get("timeout", 0),
            "worker_deaths": kinds.get("worker-died", 0),
            "pool_respawns": self.pool_failures,
            "serial_fallback": self.serial_fallback,
        }


def resilience_rows(summary: dict | None) -> list[str]:
    """A text report's footer for a :meth:`ResilientRun.summary`: the
    pool's recovery events, or nothing for a run that used no pool."""
    if not summary:
        return []
    return ["", f"resilience: {summary['retries']} retries, "
                f"{summary['timeouts']} timeouts, "
                f"{summary['pool_respawns']} pool respawns"
                + (", serial fallback" if summary["serial_fallback"]
                   else "")]


# ---------------------------------------------------------------------------
# worker-side entry


def _pool_entry(fn, item, attempt: int, wants_attempt: bool):
    """Picklable pool trampoline (also used by the serial fallback)."""
    return fn(item, attempt) if wants_attempt else fn(item)


@functools.lru_cache(maxsize=64)
def _accepts_attempt(fn) -> bool:
    """Does ``fn`` take a second positional (attempt-number) argument?
    Memoized: the serving layer passes the same function with every
    payload."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    positional = 0
    for p in sig.parameters.values():
        if p.kind is inspect.Parameter.VAR_POSITIONAL:
            return True
        if p.kind in (inspect.Parameter.POSITIONAL_ONLY,
                      inspect.Parameter.POSITIONAL_OR_KEYWORD):
            positional += 1
    return positional >= 2


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly reclaim a pool whose workers may be hung.

    ``shutdown()`` alone would join the hung worker forever, so the
    worker processes are terminated first.  Reaching into
    ``_processes`` is unavoidable -- the executor API has no way to
    cancel a *running* future -- and is guarded so a future stdlib
    change degrades to a plain (non-blocking) shutdown.
    """
    procs = getattr(pool, "_processes", None)
    if procs:
        for proc in list(procs.values()):
            try:
                proc.terminate()
            except Exception:
                pass
    try:
        # The workers were just terminated, so the join is quick; waiting
        # reaps the management thread before the interpreter's atexit
        # hook can trip over its half-closed wakeup pipe.
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass


# ---------------------------------------------------------------------------
# the resilient loop

#: pool-level failures (worker deaths, hung-pool reclaims) after which
#: the remaining items run inline
_SERIAL_FALLBACK_AFTER = 2


def run_resilient(fn, items, *, workers: int | None = None,
                  timeout_s: float | None = None,
                  retry: RetryPolicy | None = None,
                  rng_seed: int = 0,
                  always_pool: bool = False,
                  on_result=None) -> ResilientRun:
    """Run ``fn`` over ``items`` with timeouts, retry, and pool recovery.

    ``workers=None`` uses ``os.cpu_count()``; ``workers<=1`` (or a
    single item) runs everything inline from the start, still with
    retry.  ``timeout_s`` bounds one attempt of one item (pool mode
    only -- the serial path cannot preempt a hung call).
    ``always_pool=True`` keeps even a single-item run in the process
    pool so it gets the full timeout/respawn treatment (the serving
    layer's per-batch isolation mode needs exactly that).
    ``on_result(result)`` is called in this process once per item, as
    it settles, with its final :class:`WorkResult` -- ok, or failed for
    good -- in the order items settle; an exception it raises
    propagates out of the run.  Results preserve item order; the run
    never raises for item failures.
    """
    policy = retry if retry is not None else RetryPolicy()
    if policy.max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    items = list(items)
    n = len(items)
    run = ResilientRun(results=[None] * n)
    if n == 0:
        return run
    if workers is None:
        workers = os.cpu_count() or 1
    rng: random.Random | None = None    # seeded at the first retry
    wants_attempt = _accepts_attempt(fn)
    attempts = [0] * n
    pending: deque[int] = deque(range(n))
    serial = workers <= 1 or (n <= 1 and not always_pool)
    pool: ProcessPoolExecutor | None = None
    in_flight: dict = {}  # future -> (index, deadline | None)

    def settle(result: WorkResult) -> None:
        run.results[result.index] = result
        if on_result is not None:
            on_result(result)

    def record_failure(idx: int, kind: str,
                       exc: BaseException | None = None) -> None:
        err: dict = {"kind": kind}
        if exc is not None:
            err["type"] = type(exc).__name__
            err["message"] = str(exc)
            err["traceback"] = "".join(
                traceback.format_exception(type(exc), exc,
                                           exc.__traceback__))[-2000:]
        run.events.append({"kind": "permanent-failure", "item": idx,
                           "after": kind})
        settle(WorkResult(idx, False, None, err, attempts[idx],
                          ran_serial=serial))

    def retry_or_fail(idx: int, kind: str,
                      exc: BaseException | None = None) -> None:
        nonlocal rng
        if attempts[idx] < policy.max_attempts:
            run.events.append({"kind": "retry", "item": idx,
                               "after": kind})
            if rng is None:
                rng = random.Random(rng_seed)
            time.sleep(policy.backoff_s(attempts[idx], rng))
            pending.append(idx)
        else:
            record_failure(idx, kind, exc)

    def abandon_pool(reason: str) -> None:
        nonlocal pool, serial
        run.pool_failures += 1
        run.events.append({"kind": reason})
        # Collateral in-flight items were not at fault: refund the
        # attempt charged at submit time and re-dispatch them first.
        for _fut, (idx, _dl) in list(in_flight.items()):
            attempts[idx] -= 1
            pending.appendleft(idx)
        in_flight.clear()
        if pool is not None:
            _kill_pool(pool)
            pool = None
        if run.pool_failures >= _SERIAL_FALLBACK_AFTER:
            serial = True
            run.serial_fallback = True
            run.events.append({"kind": "serial-fallback"})

    def run_inline(idx: int) -> None:
        attempts[idx] += 1
        try:
            value = _pool_entry(fn, items[idx], attempts[idx] - 1,
                                wants_attempt)
        except Exception as exc:
            retry_or_fail(idx, "exception", exc)
        else:
            settle(WorkResult(idx, True, value, None, attempts[idx],
                              ran_serial=True))

    try:
        while pending or in_flight:
            if serial:
                while pending:
                    run_inline(pending.popleft())
                break
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)
            # fill the in-flight window
            submit_failed = False
            while pending and len(in_flight) < workers:
                idx = pending.popleft()
                attempts[idx] += 1
                try:
                    fut = pool.submit(_pool_entry, fn, items[idx],
                                      attempts[idx] - 1, wants_attempt)
                except (BrokenProcessPool, RuntimeError):
                    attempts[idx] -= 1
                    pending.appendleft(idx)
                    submit_failed = True
                    break
                deadline = (None if timeout_s is None
                            else time.monotonic() + timeout_s)
                in_flight[fut] = (idx, deadline)
            if submit_failed:
                abandon_pool("broken-pool")
                continue
            if not in_flight:
                continue
            deadlines = [dl for (_i, dl) in in_flight.values()
                         if dl is not None]
            wait_s = (None if not deadlines
                      else max(0.0, min(deadlines) - time.monotonic())
                      + 0.01)
            done, _ = wait(list(in_flight), timeout=wait_s,
                           return_when=FIRST_COMPLETED)
            pool_broken = False
            for fut in done:
                idx, _dl = in_flight.pop(fut)
                try:
                    value = fut.result()
                except BrokenProcessPool as exc:
                    retry_or_fail(idx, "worker-died", exc)
                    pool_broken = True
                except CancelledError:
                    attempts[idx] -= 1
                    pending.append(idx)
                except Exception as exc:
                    retry_or_fail(idx, "exception", exc)
                else:
                    settle(WorkResult(idx, True, value, None,
                                      attempts[idx]))
            if pool_broken:
                abandon_pool("broken-pool")
                continue
            # a future that finished while a hook ran is not hung
            now = time.monotonic()
            expired = [fut for fut, (idx, dl) in in_flight.items()
                       if dl is not None and now >= dl and not fut.done()]
            if expired:
                for fut in expired:
                    idx, _dl = in_flight.pop(fut)
                    run.events.append({"kind": "timeout", "item": idx})
                    retry_or_fail(idx, "timeout")
                # The hung worker cannot be reclaimed individually:
                # recycle the whole pool and re-dispatch survivors.
                abandon_pool("pool-respawn")
    finally:
        if pool is not None:
            # All futures are resolved or cancelled here, so the join is
            # immediate -- and leaving the pool to wind down during
            # interpreter exit races the concurrent.futures atexit hook.
            pool.shutdown(wait=True, cancel_futures=True)

    for idx, result in enumerate(run.results):
        if result is None:  # defensive: never leave a hole
            record_failure(idx, "lost")
    return run
