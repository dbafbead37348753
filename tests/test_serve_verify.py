"""Per-request verification through the serving layer.

A request carrying ``verify`` routes its micro-batch through the
:class:`repro.guard.voting.GuardedExecutor`: the residue checkers run
armed, a flagged execution is redone and voted on, and the response
reports the guard classification.  These tests drive all three
outcomes end-to-end through ``FmaServer.submit``:

* ``clean`` -- no fault, one guarded execution, result bit-identical
  to the unguarded reference;
* ``corrected`` -- a transient fault armed on the first execution is
  flagged by the window residue check, the re-execution recomputes the
  uncorrupted value, and the served word equals the oracle exactly;
* ``uncorrectable`` -- every execution flags, the budget runs out, and
  the server answers a structured ``error`` (kind ``uncorrectable``)
  -- corrupted data is never returned as a result.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import probes
from repro.guard.residue import GuardMismatch
from repro.serve import FmaServer, Request, ServeConfig
from repro.serve.executor import execute_payload, reference_result
from repro.telemetry import collecting

from _serve_util import assert_stats_counted, run

pytestmark = pytest.mark.serial

ONE = 0x3FF0000000000000
PI = 0x400921FB54442D18
HALF = 0x3FE0000000000000


def fma_req(req_id, fmt="pcs", verify=None) -> Request:
    return Request(req_id=req_id, op="fma", fmt=fmt, a=PI, b=ONE,
                   c=HALF, verify=verify)


def submit_one(req: Request, config: ServeConfig | None = None):
    """Serve ``req`` under an armed collector; returns the response, the
    server's ``stats`` and the collector's counters."""
    async def body():
        cfg = config if config is not None else ServeConfig(
            slow_start=False, max_wait_s=0.001)
        async with FmaServer(cfg) as srv:
            return await srv.submit(req), dict(srv.stats)

    with collecting() as t:
        resp, stats = run(body())
    assert_stats_counted(stats, t)
    return resp, stats, t.counters


def raise_mismatch(payload):
    """Injectable work function: every execution flags."""
    raise GuardMismatch("test", "forced")


class TestVerifiedSubmit:
    @pytest.mark.parametrize("fmt", ["classic", "pcs", "fcs"])
    def test_clean_path_is_bit_identical(self, fmt):
        resp, stats, _ = submit_one(fma_req(1, fmt=fmt, verify="residue"))
        assert resp.ok
        assert resp.meta == {"guard": "clean"}
        assert resp.result == reference_result(fma_req(1, fmt=fmt))[1]
        assert stats["guard.clean"] == 1

    @pytest.mark.parametrize("mode", ["residue", "dmr", "tmr"])
    def test_all_verify_levels_serve(self, mode):
        resp, stats, _ = submit_one(fma_req(2, verify=mode))
        assert resp.ok and resp.meta == {"guard": "clean"}
        assert stats["guard.clean"] == 1

    def test_unverified_requests_carry_no_guard_meta(self):
        resp, stats, _ = submit_one(fma_req(3))
        assert resp.ok and resp.meta == {}
        assert stats["guard.clean"] == 0

    def test_transient_fault_is_corrected_bit_identically(self):
        # upset one window-sum bit on the first guarded execution only;
        # the mod-2^W window congruence flags it, and the re-execution
        # (the fault is transient: Arm fires at one occurrence) must
        # recompute the exact oracle word.  Probes arm per thread, so the
        # work function arms the one Arm in the executor thread around
        # every execution
        arm = probes.Arm(lambda v: (v[0] ^ (1 << 100), v[1]), at_call=0)

        def upset_window(payload):
            with probes.armed({"batch.window": arm}):
                return execute_payload(payload)

        cfg = ServeConfig(slow_start=False, max_wait_s=0.001,
                          work_fn=upset_window)
        resp, stats, _ = submit_one(fma_req(4, verify="residue"), cfg)
        assert arm.hits == 1
        assert resp.ok
        assert resp.meta == {"guard": "corrected"}
        assert resp.result == reference_result(fma_req(4))[1]
        assert stats["guard.corrected"] == 1

    def test_uncorrectable_is_rejected_never_returned_as_data(self):
        cfg = ServeConfig(slow_start=False, max_wait_s=0.001,
                          work_fn=raise_mismatch)
        resp, stats, _ = submit_one(fma_req(5, verify="residue"), cfg)
        assert not resp.ok
        assert resp.status == "error"
        assert resp.kind == "uncorrectable"
        assert resp.result is None
        assert resp.meta == {"guard": "uncorrectable"}
        assert stats["guard.uncorrectable"] == 1

    def test_guard_telemetry_flows_through_serve(self):
        resp, _stats, counters = submit_one(fma_req(6, verify="residue"))
        assert resp.ok
        assert counters["serve.guard.clean"] == 1
        assert counters["guard.exec.clean"] == 1
        assert counters["guard.checks.product"] >= 1
        assert counters["guard.checks.window"] >= 1

    def test_mixed_batch_keeps_levels_apart(self):
        async def body():
            cfg = ServeConfig(slow_start=False, max_batch=8,
                              max_wait_s=0.002)
            async with FmaServer(cfg) as srv:
                reqs = [fma_req(i) for i in range(3)]
                reqs += [fma_req(10 + i, verify="residue")
                         for i in range(3)]
                resps = await asyncio.gather(
                    *(srv.submit(r) for r in reqs))
                return resps, dict(srv.stats)

        with collecting() as t:
            resps, stats = run(body())
        assert_stats_counted(stats, t)
        assert all(r.ok for r in resps)
        plain = [r for r in resps if r.req_id < 10]
        checked = [r for r in resps if r.req_id >= 10]
        assert all(r.meta == {} for r in plain)
        assert all(r.meta == {"guard": "clean"} for r in checked)
        # one word, bit-identical, regardless of the path taken
        want = reference_result(fma_req(0))[1]
        assert {r.result for r in resps} == {want}
        assert stats["guard.clean"] == 1         # one verified batch
