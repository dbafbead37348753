"""Command-line driver: regenerate every table and figure of the paper.

Usage::

    repro-experiments                      # run everything, sequentially
    repro-experiments table1 fig14
    repro-experiments --workers 4          # experiments in parallel
    repro-experiments --cache-dir .cache   # reuse unchanged results
    python -m repro.experiments.runner fig15

The driver shares the conformance subsystem's machinery
(:mod:`repro.conformance`): experiments run through the same resilient
executor (:mod:`repro.faults.resilient`) as the conformance sweep,
inline or, with ``--workers > 1``, in a process pool, and with
``--cache-dir`` each experiment's output is stored as it finishes in the
same content-hash :class:`~repro.conformance.cache.ResultCache` -- keyed
by a fingerprint of the whole ``repro`` source tree, so any code change
invalidates every cached table.  The ``conformance`` pseudo-experiment
runs a differential sweep alongside the figures.

A failing experiment does not take the whole run down: it is retried
(``--retries``; in a pool, a worker that dies or hangs past
``--timeout`` is retried on a respawned pool), and if it never succeeds
its traceback goes to stderr, the driver prints a structured
``error-record:`` line for it, the remaining experiments still run, and
the driver exits non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

from ..faults.resilient import RetryPolicy, run_resilient
from ..telemetry import core as _tm
from . import ablation, fig13, fig14, fig15, table1, table2

__all__ = ["main", "EXPERIMENTS", "run_experiment"]


def _run_ablation(args) -> str:
    parts = [
        ablation.format_carry_density(ablation.carry_density_sweep()),
        "",
        ablation.format_selector_study(
            ablation.selector_accuracy_study(samples=args.runs * 20)),
        "",
        ablation.booth_tree_study(),
        "",
        ablation.format_device_sweep(ablation.device_sweep()),
        "",
        ablation.format_dot_study(
            ablation.dot_product_study(trials=args.runs)),
    ]
    return "\n".join(parts)


def _run_conformance(args) -> str:
    from repro.conformance import format_summary, run_sweep

    report = run_sweep(
        shards=args.shards, workers=args.workers, seed=args.seed,
        cases=args.runs * 4, use_cache=args.cache_dir is not None,
        cache_dir=args.cache_dir)
    text = format_summary(report)
    if report["totals"]["mismatches"]:
        raise RuntimeError(
            f"conformance sweep found {report['totals']['mismatches']} "
            f"mismatches:\n{text}")
    return text


EXPERIMENTS = {
    "table1": lambda args: table1.format_table(table1.run()),
    "fig13": lambda args: fig13.format_table(fig13.run()),
    "fig14": lambda args: fig14.format_table(
        fig14.run(runs=args.runs)),
    "table2": lambda args: table2.format_table(table2.run()),
    "fig15": lambda args: fig15.format_table(fig15.run()),
    "ablation": _run_ablation,
    "conformance": _run_conformance,
}


def run_experiment(name: str, runs: int = 20, shards: int = 4,
                   workers: int = 1, seed: int = 0,
                   cache_dir: str | None = None) -> str:
    """Execute one experiment by name (picklable pool entry point)."""
    args = argparse.Namespace(runs=runs, shards=shards, workers=workers,
                              seed=seed, cache_dir=cache_dir)
    with _tm.span(f"experiments.{name}"):
        out = EXPERIMENTS[name](args)
    if _tm.ACTIVE is not None:
        _tm.ACTIVE.count(f"experiments.run.{name}")
    return out


def _experiment_entry(payload: dict) -> tuple[str, float]:
    """Picklable resilient-executor work unit: one experiment's output
    and its own run time, taken where it runs (in a pool, a result
    arrives later than its work finished)."""
    t0 = time.perf_counter()
    text = run_experiment(**payload)
    return text, time.perf_counter() - t0


def _cache_key(fingerprint: str, name: str, args) -> str:
    h = hashlib.sha256()
    h.update(fingerprint.encode())
    h.update(f"experiment:{name}:runs={args.runs}:shards={args.shards}"
             f":seed={args.seed}".encode())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures from the "
                    "reproduction models.")
    parser.add_argument("experiments", nargs="*",
                        choices=[*EXPERIMENTS, []],
                        help="which experiments to run (default: all)")
    parser.add_argument("--runs", type=int, default=20,
                        help="number of random runs for fig14")
    parser.add_argument("--workers", type=int, default=1,
                        help="run experiments in parallel processes")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count for the conformance sweep")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the conformance sweep")
    parser.add_argument("--cache-dir", default=None,
                        help="reuse unchanged experiment results from "
                             "this content-hash cache directory")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="wall-clock seconds one experiment attempt "
                             "may take in parallel mode (default 600)")
    parser.add_argument("--retries", type=int, default=2,
                        help="max attempts per experiment (default 2)")
    args = parser.parse_args(argv)
    names = args.experiments or list(EXPERIMENTS)

    cache = None
    fingerprint = ""
    if args.cache_dir is not None:
        from repro.conformance.cache import ResultCache, code_fingerprint

        cache = ResultCache(args.cache_dir)
        fingerprint = code_fingerprint()

    outputs: dict[str, str] = {}
    took: dict[str, float] = {}  # name -> seconds this run spent on it
    failures: dict[str, dict] = {}  # name -> structured error record

    pending = []
    for name in names:
        if cache is not None:
            t0 = time.perf_counter()
            hit = cache.get(_cache_key(fingerprint, name, args))
            if hit is not None:
                outputs[name] = hit["text"] + "\n[cached]"
                took[name] = time.perf_counter() - t0
                if _tm.ACTIVE is not None:
                    _tm.ACTIVE.count("experiments.cache.hit")
                continue
            if _tm.ACTIVE is not None:
                _tm.ACTIVE.count("experiments.cache.miss")
        pending.append(name)

    def settle(wr) -> None:
        name = pending[wr.index]
        if wr.ok:
            outputs[name], took[name] = wr.value
            if cache is not None:
                cache.put(_cache_key(fingerprint, name, args),
                          {"experiment": name, "text": outputs[name]})
            return
        failures[name] = dict(wr.error, attempts=wr.attempts)
        if _tm.ACTIVE is not None:
            _tm.ACTIVE.count("experiments.failed")

    # the conformance sweep fans its shards out only when it is the one
    # experiment to run; beside others it takes one slot, shards inline
    inner_workers = args.workers if len(pending) == 1 else 1
    payloads = [{"name": n, "runs": args.runs, "shards": args.shards,
                 "workers": inner_workers, "seed": args.seed,
                 "cache_dir": args.cache_dir} for n in pending]
    run_resilient(_experiment_entry, payloads,
                  workers=min(args.workers, len(pending)),
                  timeout_s=args.timeout,
                  retry=RetryPolicy(max_attempts=max(args.retries, 1)),
                  rng_seed=args.seed, on_result=settle)

    for name in names:
        print(f"=== {name} " + "=" * (60 - len(name)))
        if name in failures:
            err = failures[name]
            print(f"[{name} FAILED]")
            print(f"[{err['kind']}] "
                  + err.get("message", "worker never returned")
                  + ("\n" + err["traceback"] if "traceback" in err else ""),
                  file=sys.stderr)
        else:
            print(outputs[name])
            print(f"[{name} took {took[name]:.1f}s]")
        print()

    if failures:
        for name in sorted(failures):
            rec = failures[name]
            print("error-record: "
                  f"{{'experiment': {name!r}, "
                  f"'kind': {rec['kind']!r}, "
                  f"'attempts': {rec['attempts']}}}",
                  file=sys.stderr)
        print(f"{len(failures)} experiment(s) failed: "
              f"{', '.join(sorted(failures))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
