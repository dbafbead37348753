"""Overload policy: bounded queues, slow start, shedding, drain, and
the resilient execution path of the serving layer.

Every rejected request receives a *structured* rejection (never a lost
response, never an exception), and the admission window reacts to both
success (ramp) and failure (halving).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.faults.resilient import RetryPolicy
from repro.serve import (AdmissionController, FmaServer, Request,
                         ServeConfig)
from repro.telemetry import collecting

from _serve_util import (always_fail_execute, assert_stats_counted,
                         flaky_execute, hang_execute, run, slow_execute)

pytestmark = pytest.mark.serial


def fma_req(i, **kw) -> Request:
    return Request(req_id=i, op="fma", fmt="pcs",
                   a=0x3FF8000000000000, b=0x4008000000000000,
                   c=0x3FF4000000000000, **kw)


class TestAdmissionController:
    def test_hard_bound(self):
        ac = AdmissionController(max_pending=4, slow_start=False)
        assert [ac.try_admit() for _ in range(4)] == [None] * 4
        assert ac.try_admit() == "queue-full"
        ac.release()
        assert ac.try_admit() is None

    def test_slow_start_ramp_and_halving(self):
        ac = AdmissionController(max_pending=100, initial_window=4,
                                 min_window=2)
        for _ in range(4):
            assert ac.try_admit() is None
        assert ac.try_admit() == "slow-start"
        ac.on_batch_ok(4)              # window 4 -> 8
        for _ in range(4):
            assert ac.try_admit() is None
        ac.on_failure()                # window 8 -> 4
        assert ac.try_admit() == "slow-start"
        for _ in range(10):
            ac.on_failure()            # clamps at min_window
        assert ac.window == 2

    def test_window_never_exceeds_max_pending(self):
        ac = AdmissionController(max_pending=10, initial_window=8,
                                 min_window=1)
        for _ in range(50):
            ac.on_batch_ok(64)
        assert ac.window == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_pending=0)
        with pytest.raises(ValueError):
            AdmissionController(max_pending=4, min_window=0)
        # a floor above the hard bound is clamped, not an error
        ac = AdmissionController(max_pending=4, min_window=9)
        assert ac.min_window == 4


class TestQueueBound:
    def test_burst_past_bound_sheds_with_structured_rejections(self):
        """50 concurrent requests against max_pending=8: every request
        is answered, the overflow as ``rejected``/``queue-full``."""
        cfg = ServeConfig(max_pending=8, slow_start=False, workers=1,
                          max_batch=8, max_wait_s=0.02,
                          work_fn=slow_execute)

        async def body():
            async with FmaServer(cfg) as s:
                resps = await asyncio.gather(
                    *(s.submit(fma_req(i)) for i in range(50)))
                return resps, dict(s.stats)

        with collecting() as t:
            resps, stats = run(body())
        assert_stats_counted(stats, t)
        assert len(resps) == 50
        ok = [r for r in resps if r.ok]
        rejected = [r for r in resps if r.status == "rejected"]
        assert len(ok) == 8                      # exactly the bound
        assert len(rejected) == 42
        assert {r.reason for r in rejected} == {"queue-full"}
        assert stats["rejected.queue-full"] == 42
        assert stats["admitted"] == 8

    def test_slow_start_backpressure_then_ramp(self):
        """A cold server admits only the initial window; once batches
        complete the window opens and the same burst is admitted."""
        cfg = ServeConfig(max_pending=256, slow_start=True,
                          initial_window=4, min_window=2, workers=2,
                          max_batch=4, max_wait_s=0.001)

        async def body():
            async with FmaServer(cfg) as s:
                waves = []
                for wave in range(4):
                    resps = await asyncio.gather(
                        *(s.submit(fma_req(100 * wave + i))
                          for i in range(16)))
                    waves.append(resps)
                return waves, s.admission.window, dict(s.stats)

        with collecting() as t:
            waves, window, stats = run(body())
        assert_stats_counted(stats, t)
        assert stats["rejected.slow-start"] > 0
        shed = [r for r in waves[0] if r.status == "rejected"]
        assert len([r for r in waves[0] if r.ok]) == 4   # cold window
        assert shed and {r.reason for r in shed} == {"slow-start"}
        admitted = [sum(1 for r in w if r.ok) for w in waves]
        assert admitted == sorted(admitted)              # monotone ramp
        assert all(r.ok for r in waves[-1])              # fully open
        assert window > 4


class TestDeadlines:
    def test_expired_budget_rejected_at_admission(self):
        async def body():
            async with FmaServer(ServeConfig()) as s:
                return await s.submit(fma_req(0, timeout_s=0))

        # timeout_s=0 fails Request.validate -> bad-request, while a
        # negative remaining budget at admission is a deadline shed
        resp = run(body())
        assert resp.status == "error"
        assert resp.kind == "bad-request"

    def test_queued_past_deadline_is_shed(self):
        """With a single busy worker, queued requests whose budget
        expires before execution are shed with reason ``deadline``."""
        cfg = ServeConfig(workers=1, max_batch=1, max_wait_s=0.0,
                          slow_start=False, work_fn=slow_execute)

        async def body():
            async with FmaServer(cfg) as s:
                blocker = asyncio.ensure_future(s.submit(fma_req("block")))
                await asyncio.sleep(0.01)       # blocker occupies worker
                tight = await asyncio.gather(
                    *(s.submit(fma_req(i, timeout_s=0.01))
                      for i in range(3)))
                return await blocker, tight, dict(s.stats)

        with collecting() as t:
            blocker, tight, stats = run(body())
        assert_stats_counted(stats, t)
        assert blocker.ok
        assert all(r.status == "rejected" and r.reason == "deadline"
                   for r in tight)
        assert stats["shed_deadline"] == 3

    def test_coalesced_batch_past_deadline_is_shed_at_once(self):
        """Requests that coalesce into one batch and expire behind a busy
        worker are shed by one call; ``stats`` and the collector both
        count every shed request, not the call."""
        cfg = ServeConfig(workers=1, max_batch=4, max_wait_s=0.002,
                          slow_start=False, work_fn=slow_execute)

        async def body():
            async with FmaServer(cfg) as s:
                blocker = asyncio.ensure_future(s.submit(fma_req("block")))
                await asyncio.sleep(0.01)       # blocker occupies worker
                tight = await asyncio.gather(
                    *(s.submit(fma_req(i, timeout_s=0.01))
                      for i in range(3)))
                return await blocker, tight, dict(s.stats)

        with collecting() as t:
            blocker, tight, stats = run(body())
        assert_stats_counted(stats, t)
        assert blocker.ok
        assert all(r.reason == "deadline" for r in tight)
        assert stats["shed_deadline"] == 3
        assert stats["batches"] == 1            # only the blocker ran

    def test_deadline_shed_halves_window(self):
        cfg = ServeConfig(workers=1, max_batch=1, max_wait_s=0.0,
                          slow_start=True, initial_window=64,
                          min_window=2, work_fn=slow_execute)

        async def body():
            async with FmaServer(cfg) as s:
                blocker = asyncio.ensure_future(s.submit(fma_req("block")))
                await asyncio.sleep(0.01)
                await asyncio.gather(
                    *(s.submit(fma_req(i, timeout_s=0.005))
                      for i in range(2)))
                w = s.admission.window
                await blocker
                return w

        assert run(body()) < 64


class TestDrain:
    def test_drain_completes_admitted_rejects_new(self):
        cfg = ServeConfig(workers=1, max_batch=4, max_wait_s=0.005,
                          slow_start=False, work_fn=slow_execute)

        async def body():
            s = FmaServer(cfg)
            await s.start()
            inflight = [asyncio.ensure_future(s.submit(fma_req(i)))
                        for i in range(4)]
            await asyncio.sleep(0.01)
            drainer = asyncio.ensure_future(s.drain())
            await asyncio.sleep(0.01)
            late = await s.submit(fma_req("late"))
            await drainer
            done = await asyncio.gather(*inflight)
            return done, late, s._started, dict(s.stats)

        with collecting() as t:
            done, late, started, stats = run(body())
        assert_stats_counted(stats, t)
        assert stats["rejected.draining"] == 1
        assert all(r.ok for r in done)           # admitted work finished
        assert late.status == "rejected"
        assert late.reason == "draining"
        assert not started

    def test_submit_after_drain_raises(self):
        async def body():
            s = FmaServer(ServeConfig())
            await s.start()
            await s.drain()
            with pytest.raises(RuntimeError):
                await s.submit(fma_req(0))

        run(body())


class TestResilientExecution:
    def test_transient_failure_is_retried_transparently(self):
        """A payload that fails its first attempt succeeds on retry;
        the client sees one ok response with attempts=2."""
        cfg = ServeConfig(workers=1, max_batch=4, max_wait_s=0.001,
                          slow_start=False, work_fn=flaky_execute,
                          retry=RetryPolicy(max_attempts=2,
                                            backoff_base_s=0.001,
                                            backoff_cap_s=0.002))

        async def body():
            async with FmaServer(cfg) as s:
                resps = await asyncio.gather(
                    *(s.submit(fma_req(i)) for i in range(4)))
                return resps, dict(s.stats)

        with collecting() as t:
            resps, stats = run(body())
        assert_stats_counted(stats, t)
        assert all(r.ok for r in resps)
        assert all(r.attempts == 2 for r in resps)
        assert stats["retries"] >= 1
        assert stats["exec_failures"] == 0

    def test_permanent_failure_yields_structured_errors(self):
        """After the last attempt every batch member gets an ``error``
        response carrying the resilient record's kind -- nothing is
        lost, nothing raises into the event loop."""
        cfg = ServeConfig(workers=1, max_batch=8, max_wait_s=0.001,
                          slow_start=True, initial_window=64,
                          min_window=2, work_fn=always_fail_execute,
                          retry=RetryPolicy(max_attempts=2,
                                            backoff_base_s=0.001,
                                            backoff_cap_s=0.002))

        async def body():
            async with FmaServer(cfg) as s:
                resps = await asyncio.gather(
                    *(s.submit(fma_req(i)) for i in range(6)))
                return resps, dict(s.stats), s.admission.window

        with collecting() as t:
            resps, stats, window = run(body())
        assert_stats_counted(stats, t)
        assert all(r.status == "error" for r in resps)
        assert all(r.kind == "exception" for r in resps)
        assert all("injected permanent failure" in r.message
                   for r in resps)
        assert stats["exec_failures"] >= 1
        assert window < 64                       # failures shrink it

    def test_per_request_error_does_not_poison_the_batch(self):
        """An accumulator overflow inside a batch fails only its own
        request; batchmates still get ok results."""
        good = Request(req_id="good", op="acc",
                       a=(0x3FF0000000000000,) * 3,
                       b=(0x4000000000000000,) * 3)
        bad = Request(req_id="bad", op="acc",
                      a=(0x4630000000000000,),   # 2^100 ...
                      b=(0x4630000000000000,))   # ... squared > window

        async def body():
            cfg = ServeConfig(max_batch=2, max_wait_s=0.005,
                              slow_start=False)
            async with FmaServer(cfg) as s:
                return await asyncio.gather(s.submit(good),
                                            s.submit(bad))

        good_resp, bad_resp = run(body())
        assert good_resp.ok
        assert bad_resp.status == "error"
        assert bad_resp.kind == "exception"
        assert "AccumulatorOverflow" in bad_resp.message

    @pytest.mark.slow
    def test_process_isolation_hang_times_out(self):
        """Process isolation routes batches through the full resilient
        timeout/respawn machinery: a hung worker produces a structured
        timeout error, not a stuck server."""
        cfg = ServeConfig(workers=1, max_batch=2, max_wait_s=0.001,
                          slow_start=False, isolation="process",
                          exec_timeout_s=0.5, work_fn=hang_execute,
                          retry=RetryPolicy(max_attempts=1))

        async def body():
            async with FmaServer(cfg) as s:
                return await s.submit(fma_req(0))

        resp = run(body())
        assert resp.status == "error"
        assert resp.kind == "timeout"

    @pytest.mark.slow
    def test_process_isolation_computes_correctly(self):
        """Sanity: the default payload executor works across the
        process boundary and still matches the direct engines."""
        from repro.serve.executor import reference_result

        cfg = ServeConfig(workers=1, max_batch=4, max_wait_s=0.001,
                          slow_start=False, isolation="process",
                          exec_timeout_s=30.0)

        async def body():
            async with FmaServer(cfg) as s:
                return await asyncio.gather(
                    *(s.submit(fma_req(i)) for i in range(3)))

        resps = run(body())
        ref = reference_result(fma_req(0))[1]
        assert all(r.ok and r.result == ref for r in resps)
