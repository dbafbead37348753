"""Differential gate: serving layer == direct engine calls, bit for bit.

Every response produced through ``FmaServer`` -- for any micro-batch
split, any arrival order, and any completion order -- must carry
exactly the word the faithful scalar models produce for that request.
The serving layer may group work; it must never change a single bit of
any result, lose a response, or answer a request twice.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.fma.accumulator import PcsAccumulator
from repro.serve import (FmaServer, LoadSpec, Request, ServeConfig,
                         make_requests, run_open_loop)
from repro.serve.executor import execute_payload, reference_result

from _serve_util import chaos_execute, run

pytestmark = pytest.mark.serial


def open_config(**kw) -> ServeConfig:
    """A config that admits everything (differential runs must compare
    every request, so overload rejections are disabled)."""
    base = dict(max_pending=4096, slow_start=False, workers=2,
                max_wait_s=0.001)
    base.update(kw)
    return ServeConfig(**base)


def assert_bit_identical(report, stream) -> None:
    assert len(report.responses) == len(stream), "lost responses"
    assert not report.duplicates, "duplicated responses"
    for _off, req in stream:
        resp = report.responses[req.req_id]
        ref = reference_result(req)
        assert resp.status == ref[0] == "ok", (req, resp)
        assert resp.result == ref[1], (
            f"served result differs from direct engine call for "
            f"{req.op}/{req.fmt} id={req.req_id}: "
            f"{resp.result:#018x} != {ref[1]:#018x}")


class TestBitIdentity:
    @pytest.mark.parametrize("max_batch", [1, 5, 64])
    def test_any_batch_split_matches_direct(self, max_batch):
        """The same workload through three very different batch splits
        produces identical (and reference-identical) words."""
        spec = LoadSpec(n_requests=160, seed=11, rate_hz=0.0)
        stream = make_requests(spec)

        async def body():
            async with FmaServer(open_config(max_batch=max_batch)) as s:
                return await run_open_loop(s, spec)

        assert_bit_identical(run(body()), stream)

    def test_arrival_order_is_irrelevant(self):
        """Submitting the same requests in reverse order yields the
        same per-id words (batches form differently, results don't)."""
        spec = LoadSpec(n_requests=96, seed=23, rate_hz=0.0)
        stream = make_requests(spec)

        async def serve_in(order):
            async with FmaServer(open_config(max_batch=7)) as s:
                resps = await asyncio.gather(
                    *(s.submit(req) for _off, req in order))
                return {r.req_id: r for r in resps}

        fwd = run(serve_in(stream))
        rev = run(serve_in(list(reversed(stream))))
        assert fwd.keys() == rev.keys()
        for rid in fwd:
            assert fwd[rid].status == rev[rid].status == "ok"
            assert fwd[rid].result == rev[rid].result

    def test_kernels_and_faithful_path_serve_identically(self):
        """The kernels and ``backend="faithful"`` serve identical
        results for fma, dot and acc (extends the repro.batch
        differential gate to the serving boundary)."""
        spec = LoadSpec(n_requests=80, seed=5, rate_hz=0.0)
        assert {req.op for _off, req in make_requests(spec)} == \
            {"fma", "dot", "acc"}

        async def serve_with(backend):
            cfg = open_config(max_batch=16, backend=backend)
            async with FmaServer(cfg) as s:
                report = await run_open_loop(s, spec)
                return {rid: r.result
                        for rid, r in report.responses.items()}

        assert run(serve_with(None)) == run(serve_with("faithful"))

    def test_faithful_backend_accumulates_on_the_faithful_model(
            self, monkeypatch):
        calls = []
        accumulate = PcsAccumulator.accumulate
        monkeypatch.setattr(
            PcsAccumulator, "accumulate",
            lambda acc, a, b: calls.append(1) or accumulate(acc, a, b))
        one = 0x3FF0000000000000
        payload = {"op": "acc", "fmt": "pcs", "backend": "faithful",
                   "items": [([one, one], [one, one], None)]}
        assert execute_payload(payload) == [("ok", 0x4000000000000000)]
        assert len(calls) == 2


class TestConcurrencyFuzz:
    def test_out_of_order_completions_route_correctly(self):
        """Seeded chaos delays make batches complete out of submission
        order; every response must still land on its own request."""
        spec = LoadSpec(n_requests=120, seed=31, rate_hz=40000.0)
        stream = make_requests(spec)

        async def body():
            cfg = open_config(max_batch=8, workers=4,
                              work_fn=chaos_execute)
            async with FmaServer(cfg) as s:
                return await run_open_loop(s, spec)

        report = run(body())
        assert_bit_identical(report, stream)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_interleavings(self, seed):
        """Different arrival jitter seeds exercise different batch
        formations; the differential property is seed-invariant."""
        spec = LoadSpec(n_requests=60, seed=seed, rate_hz=30000.0,
                        jitter=0.9)
        stream = make_requests(spec)

        async def body():
            cfg = open_config(max_batch=6, workers=3,
                              work_fn=chaos_execute)
            async with FmaServer(cfg) as s:
                return await run_open_loop(s, spec)

        assert_bit_identical(run(body()), stream)


class TestSustainedLoad:
    def test_1000_requests_zero_lost_zero_duplicated(self):
        """The acceptance criterion: >= 1000 seeded open-loop requests,
        every one answered exactly once, bit-identical to the direct
        engine, no errors, no rejections."""
        spec = LoadSpec(n_requests=1000, seed=7, rate_hz=25000.0)
        stream = make_requests(spec)

        async def body():
            async with FmaServer(open_config(workers=4)) as s:
                report = await run_open_loop(s, spec)
                stats = dict(s.stats)
                return report, stats

        report, stats = run(body())
        assert_bit_identical(report, stream)
        assert report.n_ok == 1000
        assert stats["admitted"] == 1000
        assert stats["ok"] == 1000
        assert stats["error"] == 0
        assert stats["batches"] >= 1
        # coalescing actually happened (not 1000 singleton batches)
        assert stats["max_batch_size"] > 1

    def test_single_scalar_request(self):
        """Smallest possible workload: one request, one response."""
        req = Request(req_id="only", op="fma", fmt="fcs",
                      a=0x3FF0000000000000, b=0x4000000000000000,
                      c=0x3FE0000000000000)

        async def body():
            async with FmaServer(open_config()) as s:
                return await s.submit(req)

        resp = run(body())
        assert resp.ok
        assert resp.result == reference_result(req)[1]
