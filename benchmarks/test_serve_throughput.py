"""Serving-layer acceptance gates: coalescing speedup, open-loop
latency, and end-to-end correctness under load.

Three claims are asserted (and the numbers archived to
``BENCH_serve.json`` for the CI artifact):

* **coalescing**: serving a burst through the micro-batcher at
  ``max_batch=64`` is at least :data:`MIN_SPEEDUP` times faster than
  the same server configured with ``max_batch=1`` (sequential
  kernel invocations through the identical admission/executor path);
* **open loop**: a seeded 1000-request open-loop workload loses no
  request, duplicates no response, and keeps p99 latency under
  :data:`P99_BUDGET_S`;
* **bit identity**: every ``ok`` response in that workload equals the
  word the faithful scalar models produce for the same request.

The gates time with ``perf_counter`` directly, so they run even under
``--benchmark-disable`` (CI smoke mode).
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import pytest

from repro.serve import (FmaServer, LoadSpec, Request, ServeConfig,
                         make_requests, percentile, run_open_loop)
from repro.serve.executor import reference_result

from _timing import best_timed

MIN_SPEEDUP = 3.0
MIN_DOT_UPLIFT = 1.2
P99_BUDGET_S = 0.25
N_BURST = 256
N_OPEN_LOOP = 1000

#: results archived by the module-teardown writer.
RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Collect every gate's numbers and write ``BENCH_serve.json``."""
    yield
    out = os.environ.get("BENCH_SERVE_OUT", "BENCH_serve.json")
    payload = {"schema": "repro.serve.bench/1",
               "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                             time.gmtime()),
               "gates": {"min_speedup": MIN_SPEEDUP,
                         "min_dot_uplift": MIN_DOT_UPLIFT,
                         "p99_budget_s": P99_BUDGET_S},
               "results": RESULTS}
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def burst_requests(n: int) -> list[Request]:
    spec = LoadSpec(n_requests=n, seed=11,
                    mix=(("fma", "pcs", 1),), timeout_s=None)
    return [req for _off, req in make_requests(spec)]


async def _serve_burst(cfg: ServeConfig, reqs: list[Request]):
    async with FmaServer(cfg) as s:
        t0 = time.perf_counter()
        resps = await asyncio.gather(*(s.submit(r) for r in reqs))
        return time.perf_counter() - t0, resps, dict(s.stats)


def serve_burst(cfg: ServeConfig, reqs: list[Request]):
    return asyncio.run(_serve_burst(cfg, reqs))


class TestCoalescingSpeedup:
    def test_speedup_gate_batch64(self):
        """>= 3x coalesced vs sequential on the same serving path."""
        reqs = burst_requests(N_BURST)
        # one worker on both sides: the gate isolates what coalescing
        # buys (amortized dispatch), not worker-pool parallelism
        base = dict(slow_start=False, max_pending=4096, workers=1,
                    max_wait_s=0.002)
        seq_cfg = ServeConfig(max_batch=1, **base)
        coal_cfg = ServeConfig(max_batch=64, **base)

        # warm the kernels/units outside timing
        serve_burst(ServeConfig(max_batch=64, **base), reqs[:64])

        t_seq, seq_resps, seq_stats = serve_burst(seq_cfg, reqs)
        t_coal, (coal_resps, coal_stats) = best_timed(
            lambda: serve_burst(coal_cfg, reqs))

        assert all(r.ok for r in seq_resps)
        assert all(r.ok for r in coal_resps)
        # identical responses regardless of batching strategy
        assert ([r.result for r in seq_resps]
                == [r.result for r in coal_resps])
        assert seq_stats["max_batch_size"] == 1
        assert coal_stats["max_batch_size"] == 64

        speedup = t_seq / t_coal
        RESULTS["coalescing"] = {
            "n_requests": N_BURST,
            "sequential_s": round(t_seq, 6),
            "coalesced_s": round(t_coal, 6),
            "speedup": round(speedup, 2),
            "sequential_rps": round(N_BURST / t_seq, 1),
            "coalesced_rps": round(N_BURST / t_coal, 1)}
        print(f"\ncoalescing: sequential {t_seq * 1e3:.1f} ms, "
              f"batched {t_coal * 1e3:.1f} ms, speedup {speedup:.2f}x")
        assert speedup >= MIN_SPEEDUP, (
            f"coalesced serving speedup {speedup:.2f}x below the "
            f"{MIN_SPEEDUP}x gate")


class TestDotBackendUplift:
    def test_vector_backend_dot_burst(self):
        """Coalesced dot bursts through the vector backend vs the same
        server pinned to the tuple kernels: identical responses, and the
        measured uplift is archived to ``BENCH_serve.json``."""
        spec = LoadSpec(n_requests=N_BURST, seed=23,
                        mix=(("dot", "pcs", 1),), vec_len=(64, 128),
                        timeout_s=None)
        reqs = [req for _off, req in make_requests(spec)]
        base = dict(max_batch=64, slow_start=False, max_pending=4096,
                    workers=1, max_wait_s=0.002)
        tuple_cfg = ServeConfig(backend="tuple", **base)
        vector_cfg = ServeConfig(backend="vector", **base)

        serve_burst(vector_cfg, reqs[:64])      # warm outside timing
        t_tuple, (tup_resps, _s1) = best_timed(
            lambda: serve_burst(tuple_cfg, reqs), repeats=2)
        t_vector, (vec_resps, _s2) = best_timed(
            lambda: serve_burst(vector_cfg, reqs), repeats=2)

        assert all(r.ok for r in tup_resps)
        assert all(r.ok for r in vec_resps)
        # backend choice never changes a single served bit
        assert ([r.result for r in tup_resps]
                == [r.result for r in vec_resps])

        uplift = t_tuple / t_vector
        RESULTS["dot_backend"] = {
            "n_requests": N_BURST,
            "vec_len": list(spec.vec_len),
            "tuple_s": round(t_tuple, 6),
            "vector_s": round(t_vector, 6),
            "uplift": round(uplift, 2)}
        print(f"\ndot backend: tuple {t_tuple * 1e3:.1f} ms, "
              f"vector {t_vector * 1e3:.1f} ms, uplift {uplift:.2f}x")
        assert uplift >= MIN_DOT_UPLIFT, (
            f"vector dot serving uplift {uplift:.2f}x below the "
            f"{MIN_DOT_UPLIFT}x gate")


class TestOpenLoopLatency:
    def test_thousand_requests_p99_and_bit_identity(self):
        """1000 seeded open-loop requests: nothing lost or duplicated,
        p99 under budget, every result bit-identical to the direct
        engines."""
        spec = LoadSpec(n_requests=N_OPEN_LOOP, rate_hz=15000.0, seed=3)
        cfg = ServeConfig(max_batch=64, max_wait_s=0.002, workers=4,
                          max_pending=4096, slow_start=False)

        async def body():
            async with FmaServer(cfg) as s:
                report = await run_open_loop(s, spec)
                return report, dict(s.stats)

        report, stats = asyncio.run(body())

        assert len(report.responses) == N_OPEN_LOOP     # nothing lost
        assert report.duplicates == []                  # nothing doubled
        assert report.n_rejected == 0
        assert report.n_error == 0
        assert report.n_ok == N_OPEN_LOOP

        for _off, req in make_requests(spec):
            ref = reference_result(req)
            resp = report.responses[req.req_id]
            assert resp.status == ref[0] == "ok"
            assert resp.result == ref[1], (
                f"request {req.req_id} served "
                f"{resp.result:#018x} != direct {ref[1]:#018x}")

        p50 = percentile(report.latencies_s, 50)
        p99 = percentile(report.latencies_s, 99)
        RESULTS["open_loop"] = {
            "n_requests": N_OPEN_LOOP,
            "rate_hz": spec.rate_hz,
            "seed": spec.seed,
            "wall_s": round(report.wall_s, 4),
            "throughput_rps": round(report.throughput(), 1),
            "p50_ms": round(p50 * 1e3, 3),
            "p99_ms": round(p99 * 1e3, 3),
            "max_batch_size": stats["max_batch_size"],
            "batches": stats["batches"]}
        print(f"\nopen loop: {report.throughput():,.0f} rps, "
              f"p50 {p50 * 1e3:.2f} ms, p99 {p99 * 1e3:.2f} ms, "
              f"largest batch {stats['max_batch_size']}")
        assert stats["max_batch_size"] > 1              # coalescing real
        assert p99 <= P99_BUDGET_S, (
            f"p99 {p99 * 1e3:.1f} ms over the "
            f"{P99_BUDGET_S * 1e3:.0f} ms budget")
