"""The repository benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 30 --trace 0

Every run executes three stages on inputs generated from ``--seed``:

* ``kernels_wide`` -- the batch API in-process (:mod:`kernels`);
* ``paper_figs``   -- the Fig. 14 / Fig. 15 drivers (:mod:`figs`);
* ``serve_mixed``  -- a ``repro.serve`` child over TCP (:mod:`serving`).

The workload (:data:`inputs.WORKLOADS`) fixes the operand regime all
stages draw from.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs each stage untraced and then
traced (half the budget each) and reports the per-layer metrics.  A
human-readable table goes to stderr; the last stdout line is the JSON
result.  ``--self-test`` shows that a corrupted word counts as a
failure.  See ``perfbench/README.md`` for the metric/layer table.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import inspect
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from clock import Clock  # noqa: E402

#: share of ``--seconds`` each stage measures for
SPLIT = {"kernels": 0.30, "figs": 0.25, "serve_a": 0.30, "serve_b": 0.12}
SETUP_TRIALS = 3


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _setup_probe() -> int:
    """Body of one in-process set-up trial (timed by the parent)."""
    import kernels
    kernels.warm()
    return 0


def inproc_setup_s(clock) -> float:
    """Median scaled wall time of fresh processes importing ``repro``
    and building/warming the PCS and FCS kernels."""
    times = []
    for _ in range(SETUP_TRIALS):
        _r, dt, _raw = clock.time(
            subprocess.run, [sys.executable, os.path.abspath(__file__),
                             "--setup-probe"], cwd=ROOT, check=True)
        times.append(dt)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# one measured pass


def interleave(queues: list) -> list:
    """Merge task lists so each list's tasks spread evenly over the
    pass: slow drifts of the host's speed then hit every metric alike."""
    keyed = [((i + 0.5) / len(q), qi, task)
             for qi, q in enumerate(queues) for i, task in enumerate(q)]
    keyed.sort(key=lambda item: item[:2])
    return [task for _pos, _qi, task in keyed]


async def measure(wl, seed: int, seconds: float, traced: bool,
                  trials: int, clock) -> dict:
    """One pass over all three stages, their tasks interleaved."""
    import figs
    import kernels
    import serving
    from repro.telemetry import collecting
    from spans import Tracer

    kernels.warm()
    tracer = Tracer(sampled=("hls.fma_pass",)) if traced else None
    stages = {
        "kernels": kernels.Stage(wl, seed, SPLIT["kernels"] * seconds,
                                 clock, tracer, check=not traced),
        "figs": figs.Stage(wl, seed, SPLIT["figs"] * seconds, clock,
                           tracer, check=not traced),
    }
    serve = serving.Stage(ROOT, wl, seed, SPLIT["serve_a"] * seconds,
                          SPLIT["serve_b"] * seconds, clock, traced, trials)
    counters = {}
    try:
        await serve.setup()
        schedule = interleave([serve.tasks()] + [s.tasks() for s in
                                                 stages.values()])
        # the inputs are built: keep the collector from re-walking them,
        # which would stall the open-loop client at random moments
        gc.collect()
        gc.freeze()
        if traced:
            kernels.install(tracer)
            figs.install(tracer)
        try:
            with collecting() if traced else nullcontext() as tel:
                for task in schedule:
                    result = task()
                    if inspect.isawaitable(result):
                        await result
            if traced:
                counters = dict(tel.counters)
        finally:
            if traced:
                tracer.unwrap()
            gc.unfreeze()
        out = {"serve": await serve.finish()}
    finally:
        await serve.close()
    out.update({name: s.finish() for name, s in stages.items()})
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["tracer"], out["counters"] = tracer, counters
    return out


# ---------------------------------------------------------------------------
# end-to-end run


def run_untraced(wl, seed: int, seconds: float):
    import serving

    clock = Clock()
    setup = inproc_setup_s(clock)
    res = asyncio.run(measure(wl, seed, seconds, traced=False,
                              trials=SETUP_TRIALS, clock=clock))
    k, f, s = res["kernels"], res["figs"], res["serve"]
    lat = s["latency_s"]
    beyond = sum(1 for x in lat if x > s["p99_s"])
    serve_failed = serving.check_pairs(s["pairs"]) + s["duplicates"]
    metrics = dict(k["metrics"])
    metrics.update(f["metrics"])
    metrics.update({
        "setup_s": setup + s["setup_s"],
        "serve_p50_ms": s["p50_s"] * 1e3,
        "serve_capacity_rps": s["capacity_rps"],
        "peak_rss_mb": res["rss_mb"],
        "serve_rss_mb": s["rss_mb"],
    })
    attempted = k["attempted"] + f["attempted"] + len(s["pairs"])
    failed = k["failed"] + f["failed"] + serve_failed
    late = s["late_s"]
    notes = [
        f"serve_p99_ms (reported, not gated: this host's tail swings "
        f"by 2x between runs) {s['p99_s'] * 1e3:.3f}: pooled over "
        f"{s['open_segments']} segments of {len(lat) // s['open_segments']}"
        f" requests, {beyond} beyond; pooled p50 "
        f"{serving.percentile(lat, 50) * 1e3:.3f} ms; client sent late "
        f"by p50 "
        f"{serving.percentile(late, 50) * 1e3:.3f} ms, "
        f"p99 {serving.percentile(late, 99) * 1e3:.3f} ms",
        "unscaled medians " + json.dumps({**k["raw"], **f["raw"]}),
        f"clock scale (reference-speed s per raw s): median "
        f"{clock.median_factor():.3f}, range {min(clock.factors):.3f}-"
        f"{max(clock.factors):.3f} over {len(clock.factors)} brackets",
        f"failed_frac {failed / attempted:.6g} ({failed} of {attempted}: "
        f"kernels {k['failed']}/{k['attempted']}, figs "
        f"{f['failed']}/{f['attempted']}, serve {serve_failed}/"
        f"{len(s['pairs'])}, duplicates {s['duplicates']})",
    ]
    return metrics, attempted, failed, notes


# ---------------------------------------------------------------------------
# traced run


def _per_call(tracer, name: str, calls: int) -> float:
    return tracer.self_ms(name, per=max(calls, 1))


def kernels_layers(res: dict, overhead: float) -> dict:
    tr, counters = res["tracer"], res["counters"]
    calls = res["kernels"]["calls"]
    lanes = counters.get("batch.vector.lanes", 0)
    deferred = counters.get("batch.vector.deferred", 0)
    special = counters.get("batch.vector.deferred.special", 0)
    n_tuple = tr.calls.get("batch.cskernel.dot_tuple", 0)
    root = "kernels_wide"
    return {
        "batch.api.fma.vector.busy_ms": _per_call(
            tr, "batch.api.fma.vector", calls["fma"]),
        "batch.api.fma.tuple.busy_ms": _per_call(
            tr, "batch.api.fma.tuple", calls["fma"]),
        "batch.api.dot.tuple.busy_ms": _per_call(
            tr, "batch.api.dot.tuple", calls["dot_tuple"]),
        "batch.vector.lift_ms": _per_call(tr, "batch.vector.lift",
                                          calls["fma"]),
        "batch.vector.lanes_ms": _per_call(tr, "batch.vector.lanes",
                                           calls["fma"]),
        "batch.vector.lower_ms": _per_call(tr, "batch.vector.lower",
                                           calls["fma"]),
        "batch.vector.dot_ms": _per_call(tr, "batch.vector.dot",
                                         calls["dot_vector"]),
        "batch.vector.accepted_frac": lanes / max(lanes + deferred, 1),
        "batch.vector.deferred.special": special / max(lanes + deferred,
                                                       1),
        "batch.cskernel.busy_ms": _per_call(
            tr, "batch.cskernel.dot_tuple", n_tuple),
        "batch.cskernel.calls": n_tuple,
        "fma.convert.cs_to_ieee_ms": _per_call(
            tr, "fma.convert.cs_to_ieee", calls["convert"]),
        "kernels_wide.unattributed_frac":
            tr.self_ns[root] / tr.total_ns[root],
        "kernels_wide.trace_overhead_frac": overhead,
    }


def figs_layers(res: dict, overhead: float) -> dict:
    tr = res["tracer"]
    n14, n15 = res["figs"]["calls"]["fig14"], res["figs"]["calls"]["fig15"]
    prefix = "batch.engines.recurrence."
    m = {f"batch.engines.recurrence_ms.{name[len(prefix):]}":
         _per_call(tr, name, n14)
         for name in sorted(tr.calls) if name.startswith(prefix)}
    root = "paper_figs"
    m.update({
        "experiments.fig14.self_ms": _per_call(tr, "experiments.fig14",
                                               n14),
        "solvers.problem_ms": _per_call(tr, "solvers.problem", n15),
        "solvers.codegen_ms": _per_call(tr, "solvers.codegen", n15),
        "hls.frontend.parse_ms": _per_call(tr, "hls.frontend.parse", n15),
        "hls.fma_pass_ms": _per_call(tr, "hls.fma_pass", n15),
        "hls.fma_pass.inserted": sum(
            s for _d, s in tr.samples.get("hls.fma_pass", [])) / n15,
        "hls.schedule_ms": _per_call(tr, "hls.schedule", n15),
        "experiments.fig15.self_ms": _per_call(tr, "experiments.fig15",
                                               n15),
        "paper_figs.unattributed_frac":
            tr.self_ns[root] / tr.total_ns[root],
        "paper_figs.trace_overhead_frac": overhead,
    })
    return m


#: serve-side counters that stay 0 on correct code at this load: shown on
#: stderr, kept out of the per-layer metrics (a zero median has no spread)
SERVE_COUNTERS = (
    "serve.requests.rejected.queue-full", "serve.requests.rejected.deadline",
    "serve.requests.rejected.slow-start", "serve.shed.deadline",
    "serve.exec.retries", "serve.exec.failures", "serve.guard.corrected",
    "serve.guard.uncorrectable", "guard.reexecutions", "guard.escalations")


def serve_layers(res: dict, plain: dict) -> tuple[dict, dict]:
    """Per-layer split of the traced serve pass: phase (a) spans and
    counters per request/payload, phase (b) for executor busy share."""
    import serving

    s = res["serve"]
    A, B = s["trace_a"], s["trace_b"]
    c = A["counters"]
    n_req = c.get("serve.requests.admitted", 0)
    execs = [tuple(x) for key in ("serve.executor.plain",
                                  "serve.executor.verified")
             for x in A["samples"].get(key, [])]
    verified = [d for d, _n in A["samples"].get("serve.executor.verified",
                                                 [])]
    busy_b = sum(B["total_ns"].get(k, 0) for k in
                 ("serve.executor.plain", "serve.executor.verified"))
    closed_s = len(s["capacity"]) * serving.SEGMENT_S
    sizes = [n for _d, n in execs]
    busy_ms = [d / 1e6 for d, _n in execs]

    def self_ms(name, per):
        return A["self_ns"].get(name, 0) / 1e6 / max(per, 1)

    def calls(name):
        return A["calls"].get(name, 0)

    decode_us = 1e3 * (self_ms("serve.protocol.json_loads", n_req)
                       + self_ms("serve.protocol.decode", n_req))
    encode_us = 1e3 * (self_ms("serve.protocol.encode", n_req)
                       + self_ms("serve.protocol.json_dumps", n_req))
    queue_ms = [ns / 1e6 for ns in A["queue_ns"]]
    exec_share_ms = sum(d * n for d, n in execs) / 1e6 / max(sum(sizes), 1)
    lat_ms = [x * 1e3 for x in s["latency_s"]]
    late_ms = [x * 1e3 for x in s["late_s"]]
    explained = (statistics.fmean(late_ms) + decode_us / 1e3
                 + statistics.fmean(queue_ms) + exec_share_ms
                 + encode_us / 1e3)
    m = {
        "serve.protocol.decode_us": decode_us,
        "serve.protocol.encode_us": encode_us,
        "serve.admission.admitted": n_req,
        "serve.batcher.queue_wait_ms.p50": serving.percentile(queue_ms, 50),
        "serve.batcher.queue_wait_ms.p99": serving.percentile(queue_ms, 99),
        "serve.batcher.batch_size.mean": statistics.fmean(sizes),
        "serve.batcher.fill": statistics.fmean(sizes) / serving.MAX_BATCH,
        "serve.executor.busy_ms.p50": serving.percentile(busy_ms, 50),
        "serve.executor.busy_ms.p99": serving.percentile(busy_ms, 99),
        "serve.executor.busy_frac": busy_b / 1e9 / (closed_s
                                                    * serving.WORKERS),
        "guard.busy_ms": statistics.fmean(verified) / 1e6,
        "guard.clean": c.get("serve.guard.clean", 0),
        "batch.api.fma.auto.busy_ms": self_ms(
            "batch.api.fma.auto", calls("batch.api.fma.auto")),
        "batch.api.fma.auto.calls": calls("batch.api.fma.auto"),
        "batch.api.dot.auto.busy_ms": self_ms(
            "batch.api.dot.auto", calls("batch.api.dot.auto")),
        "batch.api.dot.auto.calls": calls("batch.api.dot.auto"),
        "batch.api.fallback.small-batch":
            c.get("batch.vector.fallback.small-batch", 0),
        "batch.api.fallback.armed-guard":
            c.get("batch.vector.fallback.armed-guard", 0),
        "fma.classic.busy_ms": A["total_ns"].get(
            "serve.payload.fma.classic", 0) / 1e6
            / max(calls("serve.payload.fma.classic"), 1),
        "loadgen.late_ms.p99": serving.percentile(late_ms, 99),
        "serve_mixed.latency_p99_ms": plain["serve"]["p99_s"] * 1e3,
        "serve_mixed.unattributed_frac":
            1.0 - explained / statistics.fmean(lat_ms),
        "serve_mixed.trace_overhead_frac":
            plain["serve"]["capacity_rps"] / s["capacity_rps"] - 1.0,
    }
    other = {k: c.get(k, 0) for k in SERVE_COUNTERS}
    return m, other


def run_traced(wl, seed: int, seconds: float, time_names: set):
    """Untraced pass, then traced pass, half the budget each.  Layer
    times (``time_names``) are scaled by the traced pass's median clock
    factor, like the end-to-end times."""
    import serving

    half = seconds / 2.0
    plain = asyncio.run(measure(wl, seed, half, traced=False, trials=1,
                                clock=Clock()))
    clock = Clock()
    res = asyncio.run(measure(wl, seed, half, traced=True, trials=1,
                              clock=clock))

    def overhead(stage):
        return res[stage]["timed_s"] / plain[stage]["timed_s"] - 1.0

    serve_m, serve_counters = serve_layers(res, plain)
    metrics = {**kernels_layers(res, overhead("kernels")),
               **figs_layers(res, overhead("figs")), **serve_m}
    factor = clock.median_factor()
    for name in time_names & metrics.keys():
        metrics[name] *= factor
    pairs = plain["serve"]["pairs"] + res["serve"]["pairs"]
    attempted = (plain["kernels"]["attempted"] + plain["figs"]["attempted"]
                 + len(pairs))
    failed = (plain["kernels"]["failed"] + plain["figs"]["failed"]
              + serving.check_pairs(pairs) + plain["serve"]["duplicates"]
              + res["serve"]["duplicates"])
    notes = ["serve-side counters of phase (a): "
             + json.dumps(serve_counters, sort_keys=True)]
    return metrics, attempted, failed, notes


# ---------------------------------------------------------------------------
# self-test


def self_test() -> int:
    """A deliberately corrupted served word, a lost reply and a
    corrupted kernel lane must each be counted as failures."""
    import random

    import kernels
    import serving
    from inputs import WORKLOADS, fma_lanes, serve_requests
    from repro.serve.executor import reference_result
    from repro.serve.protocol import decode_request, word_to_fp

    wl = WORKLOADS["mixed"]
    reqs = serve_requests(wl, 0, "self-test", 0, 24)
    pairs = []
    for req in reqs:
        word = reference_result(decode_request(req))[1]
        rep = {"id": req["id"], "status": "ok", "result": "0x%016x" % word}
        if req.get("verify"):
            rep["guard"] = "clean"
        pairs.append((req, rep))
    clean = serving._check_chunk(pairs)
    victim = random.Random(0).randrange(len(pairs))
    rep = dict(pairs[victim][1])
    rep["result"] = "0x%016x" % (int(rep["result"], 16) ^ 1)
    pairs[victim] = (pairs[victim][0], rep)
    served = serving._check_chunk(pairs)
    lost = serving._check_chunk([(reqs[0], None)])

    unit = kernels.units()["pcs"]
    cols = [[word_to_fp(w) for w in col]
            for col in fma_lanes(wl, 0, "pcs", 64)]
    words = kernels._words(kernels.batch.fma_batch(*cols, unit,
                                                   backend="vector"))
    lane_clean = kernels._check_fma(unit, *cols, words, list(words))
    corrupted = list(words)
    corrupted[0] ^= 1 << 20
    lane_bad = kernels._check_fma(unit, *cols, corrupted, list(words))
    report = {"clean_serve": clean, "corrupted_serve": served,
              "lost_serve": lost, "clean_lanes": lane_clean,
              "corrupted_lane": lane_bad}
    print(json.dumps(report, sort_keys=True))
    ok = (clean == 0 and served == 1 and lost == 1 and lane_clean == 0
          and lane_bad >= 1)
    print("self-test: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="python3 perfbench/run.py",
                                 description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="mixed")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
            raise ImportError("no src/repro beside perfbench/")
        import repro  # noqa: F401
        from inputs import WORKLOADS
        spec = _spec()
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot load the program or BENCHMARK.json "
              f"({exc}); run from the repository root", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe()
    if args.self_test:
        return self_test()
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    # a SIGTERM unwinds like an exception, so every child is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    import serving
    try:
        if args.trace:
            wanted = spec["per_layer"]
            values, attempted, failed, notes = run_traced(
                wl, args.seed, args.seconds,
                {m["name"] for m in wanted if m["unit"] in ("ms", "us")})
        else:
            values, attempted, failed, notes = run_untraced(
                wl, args.seed, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        serving.stop_all()
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values[m["name"]]),
                              "unit": m["unit"]}
    width = max(len(name) for name in metrics)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
    for name, mv in metrics.items():
        print(f"  {name:<{width}}  {mv['value']:>14.6g} {mv['unit']}",
              file=sys.stderr)
    for note in notes:
        print("  " + note, file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
