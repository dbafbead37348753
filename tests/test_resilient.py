"""Resilient-executor tests: timeouts, worker death, serial fallback,
and the per-item hook.

Worker functions are module-level (picklable) and condition their
misbehaviour on the *attempt number* the executor passes, so each test
is deterministic -- a unit misbehaves on exactly the attempts it is
told to, recovers on the next one, and never sleeps long enough to slow
the suite (every deliberate hang is cut off by a sub-second timeout).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.conformance.cache import ResultCache
from repro.faults.resilient import (ResilientRun, RetryPolicy, WorkResult,
                                    run_resilient)

# pools / armed collectors are process-global: never run
# these concurrently with other tests (xdist, future runners)
pytestmark = pytest.mark.serial

FAST = RetryPolicy(max_attempts=3, backoff_base_s=0.01, backoff_cap_s=0.05,
                   jitter=0.0)


# -- picklable workloads ----------------------------------------------------

def square(x):
    return x * x


def fail_first_attempt(x, attempt):
    if attempt == 0:
        raise RuntimeError(f"transient #{x}")
    return x * 10


def always_fails(x):
    raise ValueError(f"permanent #{x}")


def hang_first_attempt(x, attempt):
    if x == "hang" and attempt == 0:
        time.sleep(30)
    return f"done-{x}"


def _in_pool_worker() -> bool:
    # guard so a logic regression can never os._exit the pytest process
    import multiprocessing

    return multiprocessing.current_process().name != "MainProcess"


def die_first_attempt(x, attempt):
    if x == "die" and attempt == 0 and _in_pool_worker():
        os._exit(13)
    return f"ok-{x}"


def die_below_attempt_2(x, attempt):
    # kills its *pool worker* on attempts 0 and 1; after the executor
    # degrades to serial (attempt 2) it must not be reached in a pool
    if attempt < 2 and _in_pool_worker():
        os._exit(13)
    return f"serial-{x}" if attempt >= 2 else f"pool-{x}"


# -- basics -----------------------------------------------------------------

def test_serial_happy_path():
    run = run_resilient(square, [1, 2, 3], workers=1, retry=FAST)
    assert run.ok
    assert [r.value for r in run.results] == [1, 4, 9]
    assert all(r.ran_serial for r in run.results)
    assert not run.serial_fallback  # inline by request, not degradation


def test_pool_happy_path():
    run = run_resilient(square, list(range(6)), workers=2, retry=FAST)
    assert run.ok
    assert [r.value for r in run.results] == [0, 1, 4, 9, 16, 25]
    assert run.pool_failures == 0


def test_empty_items():
    run = run_resilient(square, [], workers=2, retry=FAST)
    assert run.ok and run.results == []


def test_retry_recovers_transient_exception():
    run = run_resilient(fail_first_attempt, [1, 2], workers=2, retry=FAST)
    assert run.ok
    assert [r.value for r in run.results] == [10, 20]
    assert all(r.attempts == 2 for r in run.results)
    assert sum(1 for e in run.events if e["kind"] == "retry") == 2


def test_permanent_failure_is_structured_not_raised():
    run = run_resilient(always_fails, [7], workers=1, retry=FAST)
    assert not run.ok
    (r,) = run.results
    assert isinstance(r, WorkResult) and not r.ok
    assert r.attempts == FAST.max_attempts
    assert r.error["kind"] == "exception"
    assert r.error["type"] == "ValueError"
    assert "permanent #7" in r.error["message"]
    assert "traceback" in r.error
    assert run.summary()["failed"] == [0]


def test_backoff_schedule_is_bounded():
    policy = RetryPolicy(max_attempts=5, backoff_base_s=0.1,
                         backoff_cap_s=0.3, jitter=0.0)
    import random
    rng = random.Random(0)
    delays = [policy.backoff_s(a, rng) for a in range(1, 6)]
    assert delays == [0.1, 0.2, 0.3, 0.3, 0.3]
    jittered = RetryPolicy(jitter=0.5).backoff_s(1, random.Random(1))
    assert 0.05 <= jittered <= 0.075


# -- the three failure drills ----------------------------------------------

def test_hanging_worker_times_out_and_is_retried():
    t0 = time.perf_counter()
    run = run_resilient(hang_first_attempt, ["a", "hang", "b"],
                        workers=2, timeout_s=0.5, retry=FAST)
    elapsed = time.perf_counter() - t0
    assert elapsed < 15  # nowhere near the 30s hang
    assert run.ok
    assert sorted(r.value for r in run.results) == [
        "done-a", "done-b", "done-hang"]
    assert any(e["kind"] == "timeout" for e in run.events)
    assert run.pool_failures >= 1  # the hung pool was recycled
    s = run.summary()
    assert s["timeouts"] >= 1 and s["pool_respawns"] >= 1


def test_killed_worker_respawns_pool_and_redispatches():
    run = run_resilient(die_first_attempt, ["a", "die", "b"],
                        workers=2, retry=FAST)
    assert run.ok
    assert sorted(r.value for r in run.results) == [
        "ok-a", "ok-b", "ok-die"]
    assert run.pool_failures >= 1
    assert any(e["kind"] == "broken-pool" for e in run.events)
    # collateral items were re-dispatched without losing their result
    assert run.summary()["failed"] == []


def test_repeated_pool_failures_degrade_to_serial():
    run = run_resilient(die_below_attempt_2, ["x", "y"], workers=2,
                        timeout_s=5.0,
                        retry=RetryPolicy(max_attempts=4,
                                          backoff_base_s=0.01,
                                          backoff_cap_s=0.02, jitter=0.0))
    assert run.serial_fallback
    assert run.pool_failures >= 2
    assert any(e["kind"] == "serial-fallback" for e in run.events)
    assert run.ok
    assert sorted(r.value for r in run.results) == ["serial-x", "serial-y"]
    assert all(r.ran_serial for r in run.results)


def test_max_attempts_validation():
    with pytest.raises(ValueError):
        run_resilient(square, [1], retry=RetryPolicy(max_attempts=0))


def test_summary_shape():
    s = ResilientRun().summary()
    assert set(s) == {"items", "ok", "failed", "retries", "timeouts",
                      "worker_deaths", "pool_respawns",
                      "serial_fallback"}


# -- the per-item hook -----------------------------------------------------

def fails_on_two(x):
    if x == 2:
        raise ValueError("permanent #2")
    return x * x


@pytest.mark.parametrize("workers", [1, 2])
def test_hook_sees_each_final_result_once_before_return(workers):
    seen = []
    run = run_resilient(fails_on_two, [1, 2, 3], workers=workers,
                        retry=FAST, on_result=seen.append)
    # one call per item, each with the result the run returns
    assert sorted(r.index for r in seen) == [0, 1, 2]
    assert all(r is run.results[r.index] for r in seen)
    # the permanently failed item too, after its last attempt
    (failed,) = [r for r in seen if not r.ok]
    assert failed.index == 1 and failed.attempts == FAST.max_attempts
    assert failed.error["type"] == "ValueError"
    assert [r.value for r in run.results if r.ok] == [1, 9]


def sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def test_item_finished_during_a_slow_hook_is_not_a_timeout():
    # the hook holds the parent past the second item's deadline while
    # that item finishes in its worker: it must settle, not time out
    calls = []

    def slow_first(result):
        calls.append(result.index)
        if len(calls) == 1:
            time.sleep(2.5)

    run = run_resilient(sleep_for, [0.0, 0.3], workers=2, timeout_s=2.0,
                        retry=FAST, on_result=slow_first)
    assert run.ok and [r.attempts for r in run.results] == [1, 1]
    assert run.pool_failures == 0
    assert not any(e["kind"] == "timeout" for e in run.events)


def raise_in_hook(result):
    raise OSError("disk full")


def test_hook_exception_propagates():
    with pytest.raises(OSError, match="disk full"):
        run_resilient(square, [1, 2], workers=1, retry=FAST,
                      on_result=raise_in_hook)


# -- cache integrity (the quarantine drill) ---------------------------------

def test_truncated_cache_entry_is_quarantined(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("deadbeef", {"mismatches": [], "cases": 5})
    path = cache._path("deadbeef")
    path.write_text(path.read_text()[:25])  # torn write
    assert cache.get("deadbeef") is None
    assert (cache.quarantine_dir / "deadbeef.json").exists()
    assert cache.get("deadbeef") is None  # miss stays a miss


def test_checksum_mismatch_is_quarantined(tmp_path):
    import json

    cache = ResultCache(tmp_path)
    cache.put("cafe", {"mismatch_count": 0})
    entry = json.loads(cache._path("cafe").read_text())
    entry["payload"]["mismatch_count"] = 9  # bit rot / tamper
    cache._path("cafe").write_text(json.dumps(entry))
    assert cache.get("cafe") is None
    assert (cache.quarantine_dir / "cafe.json").exists()


def test_legacy_unwrapped_entry_is_quarantined(tmp_path):
    import json

    cache = ResultCache(tmp_path)
    # a pre-checksum-era entry: raw payload, no envelope
    cache._path("old").write_text(json.dumps({"cases": 3}))
    assert cache.get("old") is None
    assert (cache.quarantine_dir / "old.json").exists()


def test_good_entry_roundtrips(tmp_path):
    cache = ResultCache(tmp_path)
    payload = {"shard_id": 1, "mismatches": [], "cases": 64}
    cache.put("k", payload)
    assert cache.get("k") == payload
    assert len(cache) == 1
