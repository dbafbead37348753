"""CLI for the SEU fault-injection campaign: ``python -m repro.faults``.

The default invocation runs the standard seeded campaign (500
injections across every registered site) serially and prints the
coverage report with the per-class SDC-rate table.  Typical uses::

    python -m repro.faults --list-sites
    python -m repro.faults --injections 500 --seed 7 --json-out rep.json
    python -m repro.faults --classes pcs,batch --workers 4
    python -m repro.faults --checkpoint camp.jsonl --resume

The same plan re-run with the guard armed is ``python -m repro.guard``,
which shares this CLI's campaign flags (:func:`add_campaign_args`).

Exit status is 0 when the campaign completed every planned injection
(and on ``--help``/``--list-sites``), 1 when the campaign could not
complete, and 2 on bad arguments (the argparse convention: usage goes
to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from .campaign import CampaignConfig, render_text, run_campaign
from .sites import SITES, select_sites


def _csv(text: str) -> tuple[str, ...]:
    return tuple(t for t in (s.strip() for s in text.split(",")) if t)


def add_campaign_args(ap: argparse.ArgumentParser) -> None:
    """The flags of both campaign CLIs (this one and ``repro.guard``)."""
    ap.add_argument("--seed", type=int, default=0,
                    help="campaign seed (default 0); same seed, same "
                         "report, byte for byte")
    ap.add_argument("--injections", type=int, default=500,
                    help="number of injections to plan (default 500)")
    ap.add_argument("--operands", type=int, default=24,
                    help="operand-pool size per unit flavor (default 24)")
    ap.add_argument("--multi-bit", type=float, default=0.15,
                    help="fraction of injections upsetting two bits "
                         "(default 0.15)")
    ap.add_argument("--sites", type=_csv, default=(),
                    help="comma-separated site names to restrict to")
    ap.add_argument("--classes", type=_csv, default=(),
                    help="comma-separated site classes "
                         "(pcs,fcs,batch,structural)")
    ap.add_argument("--workers", type=int, default=1,
                    help="parallel workers (default 1 = serial)")
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="per-chunk wall-clock timeout in seconds for "
                         "parallel runs (default 120)")
    ap.add_argument("--retries", type=int, default=3,
                    help="max attempts per chunk in parallel runs "
                         "(default 3)")
    ap.add_argument("--json-out", default=None,
                    help="write the full report as JSON to this path")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the text report")


def campaign_config(parser: argparse.ArgumentParser,
                    args: argparse.Namespace) -> CampaignConfig:
    """Range-check the :func:`add_campaign_args` flags and build the
    config, its site filters validated.  A bad value exits 2 through
    ``parser.error`` (argparse convention), distinct from a campaign that
    ran but could not complete (1)."""
    if args.injections < 1:
        parser.error("--injections must be >= 1")
    if args.operands < 1:
        parser.error("--operands must be >= 1")
    if not 0.0 <= args.multi_bit <= 1.0:
        parser.error("--multi-bit must be in [0, 1]")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.retries < 1:
        parser.error("--retries must be >= 1")
    try:
        config = CampaignConfig(
            seed=args.seed, injections=args.injections,
            operands=args.operands, multi_bit=args.multi_bit,
            sites=args.sites, classes=args.classes)
        select_sites(config.sites, config.classes)  # validate filters
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))
    return config


def write_json(path: str, report: dict) -> None:
    """Write ``report`` as sorted, indented JSON (the ``--json-out``
    format of both campaign CLIs)."""
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Transient-fault (SEU) injection campaign over the "
                    "carry-save FMA datapaths and their structural "
                    "artifacts.",
        epilog="exit status: 0 = campaign complete (or listing "
               "printed); 1 = campaign incomplete; 2 = bad arguments.")
    add_campaign_args(ap)
    ap.add_argument("--list-sites", action="store_true",
                    help="print the fault-site registry and exit")
    ap.add_argument("--checkpoint", default=None,
                    help="JSONL file to append each record to")
    ap.add_argument("--resume", action="store_true",
                    help="skip injection ids already in --checkpoint")
    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_sites:
        for name in sorted(SITES):
            s = SITES[name]
            print(f"{name:<26} [{s.site_class}/{s.stage}] "
                  f"{s.description or s.kind}")
        return 0
    config = campaign_config(parser, args)
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    report = run_campaign(config, workers=args.workers,
                          checkpoint=args.checkpoint, resume=args.resume,
                          timeout_s=args.timeout,
                          max_attempts=args.retries)
    if args.json_out:
        write_json(args.json_out, report)
    if not args.quiet:
        print(render_text(report))
    done = report["totals"]["injections"]
    return 0 if done >= config.injections else 1


if __name__ == "__main__":
    sys.exit(main())
