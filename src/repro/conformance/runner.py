"""Sharded parallel conformance runner.

Orchestrates a sweep: builds :class:`ShardSpec` work units, consults the
content-hash :class:`ResultCache`, fans the remaining shards across a
``ProcessPoolExecutor``, shrinks any counterexample, and aggregates
per-shard structured metrics (cases/s, cache hit rate, mismatch count)
into one JSON-serializable report.

Three entry points:

* :func:`run_shard` -- one shard, inline, in this process (also what
  ``--repro`` uses to replay a failing shard from its ``(seed, id)``);
* :func:`run_sweep` -- the full cached/parallel sweep;
* :func:`run_mutation_check` -- the smoke-check that injects each
  registered fault and asserts the sweep reports mismatches.

``python -m repro.conformance`` exposes all three on the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from ..batch.engines import BACKEND_ENV
from ..faults.resilient import RetryPolicy, run_resilient
from ..telemetry import core as _tm
from . import mutation as mutation_mod
from .cache import ResultCache, code_fingerprint, default_cache_dir, shard_key
from .checks import CRASHED, check_case
from .shrink import shrink_stream, shrink_triple
from .workunits import (BACKENDS, FAMILIES, UNITS, Case, ShardSpec,
                        case_digest, generate_cases)

__all__ = ["run_shard", "run_sweep", "run_mutation_check",
           "format_summary", "main"]

_SHRINK_BUDGET = 200      # predicate evaluations per counterexample
_SHRINK_CAP = 5           # counterexamples shrunk per shard


# ---------------------------------------------------------------------------
# one shard


def _shrink_mismatch(mismatch: dict, case: Case, backend: str) -> None:
    def still_fails(operands) -> bool:
        trial = Case(case.family, case.stratum, tuple(operands),
                     case_id=case.case_id)
        return any(m["unit"] == mismatch["unit"] for m in
                   check_case(trial, (mismatch["unit"],), backend))

    ops = tuple(int(w, 16) for w in mismatch["operands"])
    if case.family in ("stratified", "golden"):
        report = shrink_triple(
            ops[0], ops[1], ops[2],
            lambda a, b, c: still_fails((a, b, c)),
            max_evals=_SHRINK_BUDGET)
    elif case.family == "chain":
        report = shrink_stream(ops, still_fails, head=3, group=1,
                               max_evals=_SHRINK_BUDGET)
    else:  # dot: operands are (a_i, b_i) pairs
        report = shrink_stream(ops, still_fails, head=0, group=2,
                               max_evals=_SHRINK_BUDGET)
    mismatch["shrink"] = report


def run_shard(spec: ShardSpec) -> dict:
    """Execute one shard inline and return its structured result."""
    t0 = time.perf_counter()
    with _tm.span("conformance.shard"):
        cases = generate_cases(spec)
        mismatches: list[dict] = []
        checks = 0
        for case in cases:
            units = spec.units
            if case.family == "dot":  # classic has no fused dot datapath
                units = tuple(u for u in units if u != "classic")
            checks += len(units)
            mismatches.extend(check_case(case, units, spec.backend))
        if spec.shrink:
            for m in mismatches[:_SHRINK_CAP]:
                matching = [c for c in cases if c.case_id == m["case_id"]
                            and c.family == m["family"]]
                if matching:
                    _shrink_mismatch(m, matching[0], spec.backend)
    elapsed = time.perf_counter() - t0
    tm = _tm.ACTIVE
    if tm is not None:
        tm.count("conformance.shards")
        tm.count("conformance.cases", len(cases))
        tm.count("conformance.checks", checks)
        tm.count("conformance.mismatches", len(mismatches))
    return {
        "shard_id": spec.shard_id,
        "seed": spec.seed,
        "spec": spec.to_dict(),
        "case_digest": case_digest(cases),
        "cases": len(cases),
        "checks": checks,
        "mismatches": mismatches,
        "mismatch_count": len(mismatches),
        "elapsed_s": round(elapsed, 6),
        "cases_per_s": round(len(cases) / elapsed, 2) if elapsed else 0.0,
        "cached": False,
    }


def _shard_entry(spec_dict: dict) -> dict:
    """Picklable pool entry point.

    Pool processes are reused across shards, so a mutation is applied
    strictly within the context manager and always unwound.
    """
    spec = ShardSpec.from_dict(spec_dict)
    if spec.mutation is None:
        return run_shard(spec)
    with mutation_mod.injected(spec.mutation):
        return run_shard(spec)


# ---------------------------------------------------------------------------
# the sweep


def _failed_shard_record(spec: ShardSpec, wr) -> dict:
    """Structured stand-in for a shard whose worker died / hung / raised
    past all recovery attempts -- the sweep degrades instead of hanging
    on ``future.result()`` or losing the shard silently."""
    return {
        "shard_id": spec.shard_id,
        "seed": spec.seed,
        "spec": spec.to_dict(),
        "failed": True,
        "error": wr.error if wr is not None else {"kind": "lost"},
        "attempts": wr.attempts if wr is not None else 0,
        "case_digest": None,
        "cases": 0,
        "checks": 0,
        "mismatches": [],
        "mismatch_count": 0,
        "elapsed_s": 0.0,
        "cases_per_s": 0.0,
        "cached": False,
    }


def run_sweep(shards: int = 8, workers: int | None = None, seed: int = 0, *,
              cases: int = 64, families: tuple[str, ...] = FAMILIES,
              units: tuple[str, ...] = UNITS, mutation: str | None = None,
              shrink: bool = True, use_cache: bool = True,
              cache_dir: "str | os.PathLike | None" = None,
              fingerprint_extra: str = "", cache_salt: str = "",
              shard_timeout_s: float | None = 300.0,
              retries: int = 3, backend: str = "auto") -> dict:
    """Run the sharded conformance sweep and return the full report.

    ``workers=None`` uses ``os.cpu_count()``; ``workers<=1`` runs inline
    (no pool), which is also the mode every shard re-runs in under
    ``--repro``.  Shard results are served from the content-hash cache
    whenever code, vectors, and spec (``backend`` included) are
    unchanged; mutation sweeps bypass the cache entirely.

    Parallel shards run under the resilient executor
    (:func:`repro.faults.resilient.run_resilient`): each shard gets a
    ``shard_timeout_s`` wall-clock budget and up to ``retries``
    attempts; a worker death respawns the pool and re-dispatches the
    survivors.  A shard that fails every attempt becomes a structured
    ``failed`` record (counted in ``totals.failed_shards``, never
    cached) rather than a hung or crashed sweep.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    if workers is None:
        workers = os.cpu_count() or 1
    if mutation is not None:
        use_cache = False
        if units == UNITS:
            units = mutation_mod.mutation_units(mutation)
    t0 = time.perf_counter()
    specs = [ShardSpec(shard_id=i, num_shards=shards, seed=seed,
                       cases=cases, families=tuple(families),
                       units=tuple(units), mutation=mutation,
                       shrink=shrink, backend=backend)
             for i in range(shards)]

    cache = None
    keys: dict[int, str] = {}
    results: dict[int, dict] = {}
    pending: list[ShardSpec] = []
    if use_cache:
        cache = ResultCache(cache_dir if cache_dir is not None
                            else default_cache_dir())
        fp = code_fingerprint(fingerprint_extra)
        for spec in specs:
            key = shard_key(spec, fp, salt=cache_salt)
            keys[spec.shard_id] = key
            hit = cache.get(key)
            if hit is not None:
                hit = dict(hit)
                hit["cached"] = True
                results[spec.shard_id] = hit
            else:
                pending.append(spec)
    else:
        pending = list(specs)

    resilience = None
    if workers > 1 and len(pending) > 1:
        run = run_resilient(
            _shard_entry, [s.to_dict() for s in pending],
            workers=min(workers, len(pending)),
            timeout_s=shard_timeout_s,
            retry=RetryPolicy(max_attempts=max(retries, 1)),
            rng_seed=seed)
        resilience = run.summary()
        for spec, wr in zip(pending, run.results):
            if wr is not None and wr.ok:
                results[spec.shard_id] = wr.value
            else:
                results[spec.shard_id] = _failed_shard_record(spec, wr)
    else:
        for spec in pending:
            results[spec.shard_id] = _shard_entry(spec.to_dict())

    if cache is not None:
        for spec in pending:
            res = results[spec.shard_id]
            if res.get("failed"):
                continue  # a failed shard must never poison the cache
            res["cache_key"] = keys[spec.shard_id]
            cache.put(keys[spec.shard_id], res)

    wall = time.perf_counter() - t0
    ordered = [results[i] for i in range(shards)]
    total_cases = sum(r["cases"] for r in ordered)
    hits = sum(1 for r in ordered if r["cached"])
    all_mismatches = [m for r in ordered for m in r["mismatches"]]
    failed = [r["shard_id"] for r in ordered if r.get("failed")]
    report = {
        "config": {
            "shards": shards, "workers": workers, "seed": seed,
            "cases": cases, "families": list(families),
            "units": list(units), "mutation": mutation,
            "cache": use_cache, "shrink": shrink, "backend": backend,
        },
        "shards": ordered,
        "mismatches": all_mismatches,
        "totals": {
            "cases": total_cases,
            "checks": sum(r["checks"] for r in ordered),
            "mismatches": len(all_mismatches),
            "failed_shards": failed,
            "cache_hits": hits,
            "cache_hit_rate": round(hits / shards, 4),
            "wall_s": round(wall, 6),
            "cases_per_s": round(total_cases / wall, 2) if wall else 0.0,
        },
    }
    if resilience is not None:
        report["resilience"] = resilience
    tm = _tm.ACTIVE
    if tm is not None:
        tm.count("conformance.sweeps")
        tm.count("conformance.cache.hit", hits)
        tm.count("conformance.cache.miss", shards - hits)
        tm.count("conformance.shard.failed", len(failed))
        tm.observe("conformance.sweep", int(wall * 1e9))
        if resilience is not None:
            tm.count("conformance.retries", resilience["retries"])
            tm.count("conformance.timeouts", resilience["timeouts"])
            tm.count("conformance.pool_respawns",
                     resilience["pool_respawns"])
    return report


# ---------------------------------------------------------------------------
# mutation smoke-check


def run_mutation_check(mutations: "list[str] | None" = None, *,
                       shards: int = 2, workers: int = 1, seed: int = 0,
                       cases: int = 48, backend: str = "auto") -> dict:
    """Inject each fault and assert the sweep catches it.

    Runs one clean baseline (must be mismatch-free) plus one mutated
    sweep per fault.  A fault counts as detected only when at least one
    mismatch is a wrong result: a check that crashed (``got`` is
    :data:`~repro.conformance.checks.CRASHED`) cannot tell a caught
    fault from a patch that no longer fits the code.  Returns a report
    whose ``ok`` field is the smoke-check verdict.
    """
    names = list(mutations) if mutations else sorted(mutation_mod.MUTATIONS)
    clean = run_sweep(shards=shards, workers=workers, seed=seed,
                      cases=cases, use_cache=False, shrink=False,
                      backend=backend)
    report: dict = {
        "clean_mismatches": clean["totals"]["mismatches"],
        "mutants": {},
    }
    ok = clean["totals"]["mismatches"] == 0
    for name in names:
        swept = run_sweep(shards=shards, workers=workers, seed=seed,
                          cases=cases, mutation=name, shrink=False,
                          backend=backend)
        wrong = sum(m["got"] != CRASHED for m in swept["mismatches"])
        report["mutants"][name] = {
            "units": list(mutation_mod.mutation_units(name)),
            "mismatches": swept["totals"]["mismatches"],
            "wrong_results": wrong,
            "detected": wrong > 0,
        }
        if _tm.ACTIVE is not None:
            _tm.ACTIVE.count("conformance.mutants.detected" if wrong
                             else "conformance.mutants.missed")
        ok = ok and wrong > 0
    report["ok"] = ok
    return report


# ---------------------------------------------------------------------------
# reporting / CLI


def format_summary(report: dict) -> str:
    rows = ["shard  cases  checks  mismatch  cached  cases/s",
            "-----  -----  ------  --------  ------  -------"]
    for r in report["shards"]:
        rows.append(f"{r['shard_id']:>5}  {r['cases']:>5}  "
                    f"{r['checks']:>6}  {r['mismatch_count']:>8}  "
                    f"{'yes' if r['cached'] else 'no':>6}  "
                    f"{r['cases_per_s']:>7.1f}")
    t = report["totals"]
    rows.append("")
    rows.append(
        f"total: {t['cases']} cases / {t['checks']} checks, "
        f"{t['mismatches']} mismatches, "
        f"cache hits {t['cache_hits']}/{len(report['shards'])} "
        f"({100 * t['cache_hit_rate']:.0f}%), "
        f"{t['wall_s']:.2f}s wall, {t['cases_per_s']:.1f} cases/s")
    for r in report["shards"]:
        if r.get("failed"):
            err = r.get("error") or {}
            rows.append(f"FAILED shard {r['shard_id']}: "
                        f"{err.get('kind', '?')} after "
                        f"{r.get('attempts', 0)} attempts "
                        f"({err.get('message', '')})".rstrip(" ()"))
    res = report.get("resilience")
    if res and (res["retries"] or res["timeouts"] or res["pool_respawns"]
                or res["serial_fallback"]):
        rows.append(f"resilience: {res['retries']} retries, "
                    f"{res['timeouts']} timeouts, "
                    f"{res['pool_respawns']} pool respawns"
                    + (", serial fallback" if res["serial_fallback"]
                       else ""))
    for m in report["mismatches"][:10]:
        rows.append("")
        rows.append(f"MISMATCH [{m['unit']}] {m['family']}/{m['stratum']} "
                    f"{m['case_id']}: {m['detail']}")
        rows.append(f"  operands: {' '.join(m['operands'])}")
        rows.append(f"  got:  {m['got']}")
        rows.append(f"  want: {m['want']}")
        if "shrink" in m:
            rows.append(f"  shrunk to: {' '.join(m['shrink']['shrunk'])} "
                        f"({m['shrink']['evals']} evals)")
    return "\n".join(rows)


def _format_mutation_report(report: dict) -> str:
    rows = [f"clean baseline: {report['clean_mismatches']} mismatches"]
    for name, r in report["mutants"].items():
        verdict = "DETECTED" if r["detected"] else "MISSED"
        rows.append(f"mutant {name:<22} [{','.join(r['units'])}] "
                    f"{r['mismatches']:>4} mismatches, "
                    f"{r['wrong_results']:>4} wrong results  -> {verdict}")
    rows.append("smoke-check: " + ("OK" if report["ok"] else "FAILED"))
    return "\n".join(rows)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description="Sharded differential conformance sweep of the FMA "
                    "datapaths against their faithful oracles.",
        epilog="exit status: 0 = sweep clean (or a listing was "
               "printed); 1 = mismatches, failed shards, or a failed "
               "mutation check; 2 = bad arguments.")
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size (default: cpu count; 1 = inline)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=64,
                        help="random cases per shard per family")
    parser.add_argument("--families", nargs="+", choices=FAMILIES,
                        default=list(FAMILIES))
    parser.add_argument("--units", nargs="+", choices=UNITS,
                        default=list(UNITS))
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--shard-timeout", type=float, default=300.0,
                        help="wall-clock seconds one shard attempt may "
                             "take in parallel mode (default 300)")
    parser.add_argument("--retries", type=int, default=3,
                        help="max attempts per shard in parallel mode "
                             "(default 3)")
    parser.add_argument("--no-shrink", action="store_true")
    parser.add_argument("--json-out", default=None,
                        help="write the full structured report here")
    parser.add_argument("--repro", type=int, default=None, metavar="SHARD",
                        help="replay one shard inline (no cache, no pool)")
    parser.add_argument("--mutation", default=None,
                        choices=sorted(mutation_mod.MUTATIONS),
                        help="run the sweep with this fault injected")
    parser.add_argument("--mutation-check", action="store_true",
                        help="inject every fault and assert detection")
    parser.add_argument("--list-mutations", action="store_true")
    parser.add_argument("--backend", default=None, choices=BACKENDS,
                        help="the repro.batch backend the sweep checks "
                             f"(default: ${BACKEND_ENV}, else auto)")
    args = parser.parse_args(argv)
    backend = args.backend or os.environ.get(BACKEND_ENV) or "auto"

    # semantic argument validation fails with the argparse convention
    # (exit 2 + usage on stderr), distinct from runtime failures (1)
    if backend not in BACKENDS:
        parser.error(f"{BACKEND_ENV}={backend}: a sweep runs on one of "
                     f"{', '.join(BACKENDS)}")
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.cases < 1:
        parser.error("--cases must be >= 1")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.shard_timeout <= 0:
        parser.error("--shard-timeout must be positive")
    if args.retries < 1:
        parser.error("--retries must be >= 1")
    if args.repro is not None and not 0 <= args.repro < args.shards:
        parser.error(f"--repro shard must be in [0, {args.shards})")

    if args.list_mutations:
        for name in sorted(mutation_mod.MUTATIONS):
            units = ",".join(mutation_mod.mutation_units(name))
            print(f"{name}  (observable on: {units})")
        return 0

    if args.mutation_check:
        report = run_mutation_check(
            [args.mutation] if args.mutation else None,
            shards=min(args.shards, 2), workers=args.workers or 1,
            seed=args.seed, cases=args.cases, backend=backend)
        print(_format_mutation_report(report))
        if args.json_out:
            _write_json(args.json_out, report)
        return 0 if report["ok"] else 1

    if args.repro is not None:
        spec = ShardSpec(shard_id=args.repro, num_shards=args.shards,
                         seed=args.seed, cases=args.cases,
                         families=tuple(args.families),
                         units=tuple(args.units), mutation=args.mutation,
                         shrink=not args.no_shrink, backend=backend)
        result = _shard_entry(spec.to_dict())
        report = {"config": spec.to_dict(), "shards": [result],
                  "mismatches": result["mismatches"],
                  "totals": {"cases": result["cases"],
                             "checks": result["checks"],
                             "mismatches": result["mismatch_count"],
                             "cache_hits": 0, "cache_hit_rate": 0.0,
                             "wall_s": result["elapsed_s"],
                             "cases_per_s": result["cases_per_s"]}}
    else:
        report = run_sweep(
            shards=args.shards, workers=args.workers, seed=args.seed,
            cases=args.cases, families=tuple(args.families),
            units=tuple(args.units), mutation=args.mutation,
            shrink=not args.no_shrink, use_cache=not args.no_cache,
            cache_dir=args.cache_dir, shard_timeout_s=args.shard_timeout,
            retries=args.retries, backend=backend)
    print(format_summary(report))
    if args.json_out:
        _write_json(args.json_out, report)
    if report["totals"].get("failed_shards"):
        return 1
    return 1 if report["totals"]["mismatches"] else 0


def _write_json(path: str, report: dict) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
