"""Telemetry snapshot CLI: capture, coverage gate, export.

Usage::

    python -m repro.telemetry capture [-o BENCH_telemetry.json] [--quick]
    python -m repro.telemetry coverage FILE
    python -m repro.telemetry export FILE [--format prometheus|json]

``capture`` runs the standard workload (:mod:`repro.telemetry.capture`)
and writes the envelope; CI keeps the file as the build's telemetry
artifact.  ``coverage`` exits 1 when any
:data:`~repro.telemetry.gates.REQUIRED_COVERAGE` branch was never
exercised.
"""

from __future__ import annotations

import argparse
import json
import sys

from .export import snapshot_from_dict, to_prometheus
from .gates import REQUIRED_COVERAGE, missing_coverage

__all__ = ["main"]


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(env: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_capture(args) -> int:
    from .capture import capture_envelope

    env = capture_envelope(label=args.label, quick=args.quick,
                           seed=args.seed)
    _dump(env, args.output)
    n = len(env["snapshot"]["counters"])
    print(f"captured {n} counters -> {args.output}")
    return 0


def _cmd_coverage(args) -> int:
    env = _load(args.file)
    snap = snapshot_from_dict(env["snapshot"])
    missing = missing_coverage(snap)
    if missing:
        print(f"COVERAGE GATE FAILED: {len(missing)} of "
              f"{len(REQUIRED_COVERAGE)} required datapath branches "
              "never exercised:")
        for tag in missing:
            print(f"  {tag}")
        return 1
    print(f"ok: all {len(REQUIRED_COVERAGE)} required datapath "
          "branches exercised")
    return 0


def _cmd_export(args) -> int:
    env = _load(args.file)
    snap = snapshot_from_dict(env["snapshot"])
    if args.format == "prometheus":
        sys.stdout.write(to_prometheus(snap))
    else:
        json.dump(env["snapshot"], sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Capture, coverage-gate and export telemetry "
                    "snapshots of the repro datapaths.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capture", help="run the standard workload and "
                                       "write a snapshot envelope")
    p.add_argument("-o", "--output", default="BENCH_telemetry.json")
    p.add_argument("--label", default="repro-telemetry")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true",
                   help="skip the conformance mini-sweep")
    p.set_defaults(fn=_cmd_capture)

    p = sub.add_parser("coverage",
                       help="check the required-datapath coverage gate")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_coverage)

    p = sub.add_parser("export", help="print a stored snapshot")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "prometheus"),
                   default="json")
    p.set_defaults(fn=_cmd_export)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
