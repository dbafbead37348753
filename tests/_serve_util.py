"""Shared helpers for the serving-layer tests.

Work functions used as ``ServeConfig.work_fn`` substitutes live here at
module level so they stay picklable for the process-isolation mode.
"""

from __future__ import annotations

import asyncio
import hashlib
import time

from repro.serve.executor import execute_payload


def run(coro):
    """Run one async test body on a fresh event loop."""
    return asyncio.run(coro)


#: each ``FmaServer.stats`` key and the telemetry tag that counts the
#: same event (all counters but the ``serve.batch.max_size`` gauge)
STAT_TAGS = {
    "admitted": "serve.requests.admitted",
    "ok": "serve.responses.ok",
    "error": "serve.responses.error",
    "batches": "serve.batches",
    "shed_deadline": "serve.shed.deadline",
    "exec_failures": "serve.exec.failures",
    "retries": "serve.exec.retries",
    "max_batch_size": "serve.batch.max_size",
    "rejected.queue-full": "serve.requests.rejected.queue-full",
    "rejected.slow-start": "serve.requests.rejected.slow-start",
    "rejected.deadline": "serve.requests.rejected.deadline",
    "rejected.draining": "serve.requests.rejected.draining",
    "guard.clean": "serve.guard.clean",
    "guard.corrected": "serve.guard.corrected",
    "guard.uncorrectable": "serve.guard.uncorrectable",
}


def assert_stats_counted(stats: dict, telemetry) -> None:
    """Each ``stats`` value equals the armed collector's count of the
    same event, so the server counts every event once for both."""
    seen = {**telemetry.counters, **telemetry.gauges}
    assert set(stats) == set(STAT_TAGS)
    for key, value in stats.items():
        assert value == seen.get(STAT_TAGS[key], 0), key


def payload_digest(payload: dict) -> int:
    """Stable digest of a payload (drives deterministic chaos delays)."""
    text = repr((payload["op"], payload["fmt"], payload["items"]))
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def chaos_execute(payload: dict) -> list:
    """Execute with a seeded, payload-dependent delay so batches finish
    out of submission order (workers > 1 required to observe it)."""
    time.sleep((payload_digest(payload) % 5) * 0.004)
    return execute_payload(payload)


def flaky_execute(payload: dict, attempt: int) -> list:
    """Fail the first attempt of every payload, succeed after."""
    if attempt == 0:
        raise RuntimeError("injected transient failure")
    return execute_payload(payload)


def always_fail_execute(payload: dict) -> list:
    raise RuntimeError("injected permanent failure")


def slow_execute(payload: dict) -> list:
    time.sleep(0.05)
    return execute_payload(payload)


def hang_execute(payload: dict) -> list:  # pragma: no cover - hangs
    time.sleep(3600)
    return execute_payload(payload)
