"""CLI for the detection-coverage campaign: ``python -m repro.guard``.

Re-runs the seeded SEU injection plan with the CED layer armed and
reports baseline SDC vs guarded SDC-to-user, per site and per class.
Typical uses::

    python -m repro.guard --seed 20260806 --injections 500 \\
        --json-out BENCH_guard.json
    python -m repro.guard --mode tmr --classes pcs,fcs
    python -m repro.guard --min-reduction 10 --workers 4

Exit status is 0 when the campaign completed and every enabled gate
passed, 1 when the campaign could not complete or a gate failed
(coverage floor, reduction floor, or a corrected result that was not
bit-identical to the oracle), and 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import sys

from ..faults.__main__ import add_campaign_args, campaign_config, write_json
from .campaign import render_guarded_text, run_guarded_campaign
from .voting import MIN_EXECUTIONS, MODES, GuardPolicy


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.guard",
        description="Detection-coverage campaign: the seeded SEU "
                    "injection plan re-run with the residue guard and "
                    "redundant-execution voting armed.",
        epilog="exit status: 0 = campaign complete, gates passed; "
               "1 = incomplete or a gate failed; 2 = bad arguments.")
    add_campaign_args(ap)
    ap.add_argument("--mode", choices=MODES, default="residue",
                    help="guard policy: residue (re-execute on "
                         "mismatch), dmr, or tmr (default residue)")
    ap.add_argument("--max-executions", type=int, default=4,
                    help="execution budget per work unit (default 4)")
    ap.add_argument("--min-reduction", type=float, default=None,
                    help="fail (exit 1) unless baseline SDC >= this "
                         "factor times guarded SDC-to-user")
    ap.add_argument("--min-coverage", type=float, default=None,
                    help="fail (exit 1) unless the guard flagged or "
                         "masked at least this fraction of baseline "
                         "SDC injections")
    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = campaign_config(parser, args)
    if args.max_executions < 1:
        parser.error("--max-executions must be >= 1")
    if args.min_reduction is not None and args.min_reduction <= 0:
        parser.error("--min-reduction must be positive")
    if args.min_coverage is not None \
            and not 0.0 <= args.min_coverage <= 1.0:
        parser.error("--min-coverage must be in [0, 1]")
    policy = GuardPolicy(
        mode=args.mode,
        max_executions=max(args.max_executions, MIN_EXECUTIONS[args.mode]))
    report = run_guarded_campaign(config, policy, workers=args.workers,
                                  timeout_s=args.timeout,
                                  max_attempts=args.retries)
    if args.json_out:
        write_json(args.json_out, report)
    if not args.quiet:
        print(render_guarded_text(report))

    totals = report["totals"]
    failures = []
    if totals["injections"] < config.injections:
        failures.append("campaign incomplete")
    if totals["corrected"] != totals["corrected_exact"]:
        failures.append(
            f"{totals['corrected'] - totals['corrected_exact']} corrected "
            f"result(s) not bit-identical to the uninjected oracle")
    cov = report["coverage"]
    if args.min_reduction is not None and cov["guarded_sdc"] > 0 \
            and cov["baseline_sdc"] < args.min_reduction * cov["guarded_sdc"]:
        failures.append(
            f"SDC reduction {cov['baseline_sdc']}/{cov['guarded_sdc']} "
            f"below the {args.min_reduction}x floor")
    if args.min_coverage is not None and cov["baseline_sdc"] > 0:
        caught = cov["baseline_sdc"] - cov["guarded_sdc"]
        if caught / cov["baseline_sdc"] < args.min_coverage:
            failures.append(
                f"detection coverage {caught}/{cov['baseline_sdc']} "
                f"below the {args.min_coverage} floor")
    for msg in failures:
        print(f"guard gate: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
