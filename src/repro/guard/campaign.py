"""Closed-loop validation: the SEU campaigns re-run with the guard armed.

The PR 4 campaign engine measures how often a transient upset reaches
the user as silent data corruption.  This module re-runs the *same*
seeded injection plan with the CED layer active and measures what is
left: every injection is evaluated once unguarded (the baseline record,
bit-identical to ``python -m repro.faults``) and once through a
:class:`~repro.guard.voting.GuardedExecutor`, producing a per-site /
per-class detection-coverage report -- baseline SDC rate vs guarded
SDC-to-user rate.

Fault-model mapping (docs/GUARD.md spells out each rung):

* **data / batch sites** -- the probe-armed transient fires during the
  first guarded execution only (the :class:`~repro.probes.Arm`
  occurrence counter advances past ``at_call``), so a re-execution
  recomputes cleanly: exactly the transient-upset contract the
  escalation ladder assumes.
* **operand sites** -- a flipped *packed operand word* is consistent
  arithmetic on wrong inputs; unit-level residue checks cannot see it.
  The executor covers the bus instead: operand fetches run at least
  DMR, with re-executions re-fetching the operand from its source
  (transient bus upsets do not persist), so disagreement exposes the
  flip and the vote recovers the clean value.
* **structural sites** -- netlists/pipelines/schedules are pure
  functions of their specs; the guard re-derives the artifact and
  compares (duplicate-and-compare), so a corrupted artifact is either
  caught by analysis rules (rejected and rebuilt) or by the compare.

The plan, the loop that runs it (serial or over a process pool), the
per-injection setup and the report tables are the baseline campaign's
(:mod:`repro.faults.campaign`); this module adds only the guarded
verdict per injection and its report.  Determinism therefore matches
the baseline campaign: records are pure functions of ``(config,
policy, injection)``, aggregation is sorted, and parallel runs merge by
injection id -- serial and parallel reports are byte-identical.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import partial

from ..faults.campaign import (CampaignConfig, _compare, _data_injection,
                               _operand_injection, collect_records,
                               run_injection, tabulate)
from ..faults.resilient import resilience_rows
from ..faults.sites import FaultSite, select_sites
from ..probes import armed
from ..telemetry import core as _tm
from .voting import GuardedExecutor, GuardPolicy

__all__ = ["run_guarded_injection", "run_guarded_campaign",
           "aggregate_guarded", "render_guarded_text", "GUARD_STATUSES"]

GUARD_STATUSES = ("clean", "corrected", "uncorrectable")


def _policy_for(site: FaultSite, policy: GuardPolicy) -> GuardPolicy:
    """Operand (bus) sites always run at least DMR: consistent-but-wrong
    inputs pass every unit-level residue check, so redundancy with
    re-fetch is the only detector with reach there."""
    if site.kind == "operand" and policy.mode == "residue":
        return GuardPolicy(mode="dmr",
                           max_executions=max(policy.max_executions, 4),
                           quorum=policy.quorum, workers=policy.workers,
                           timeout_s=policy.timeout_s)
    return policy


def _guard_record(outcome, site: FaultSite, golden) -> dict:
    """Fold a :class:`GuardedOutcome` into the campaign's guard record.

    ``corrected_exact``: the released value is bit-identical to the
    uninjected oracle.  ``sdc_to_user``: the IEEE value the caller would
    consume differs; a representation-absorbed difference is not
    user-visible corruption, matching the baseline's ``masked``, and a
    tuple that violates the operand format is rejected downstream by the
    format boundary: detected, not silent.
    """
    flagged = outcome.flagged > 0 or any(
        "error" in r for r in outcome.records)
    if outcome.status == "uncorrectable":
        return {"status": "uncorrectable", "flagged": flagged,
                "executions": outcome.executions,
                "corrected_exact": False, "sdc_to_user": False}
    verdict = _compare(site, golden, outcome.value)
    return {"status": outcome.status, "flagged": flagged,
            "executions": outcome.executions,
            "corrected_exact": (outcome.status == "corrected"
                                and verdict == "identical"),
            "sdc_to_user": verdict == "value-changed"}


def _guard_data(config: CampaignConfig, site: FaultSite, inj: dict,
                policy: GuardPolicy) -> dict:
    arm, golden, work = _data_injection(config, site, inj)
    # the probes stay armed across every execution: the Arm fires at its
    # occurrence exactly once, so re-executions see the clean datapath
    # (the transient-upset contract)
    with armed({site.tag: arm}):
        outcome = GuardedExecutor(policy).run(lambda execution: work())
    return _guard_record(outcome, site, golden)


def _guard_operand(config: CampaignConfig, site: FaultSite, inj: dict,
                   policy: GuardPolicy) -> dict:
    fma, golden, clean, faulted = _operand_injection(config, site, inj)
    if isinstance(faulted, Exception):
        # invalid operand word: the format's validity check rejects it
        # before execution -- detected at the bus boundary
        return {"status": "uncorrectable", "flagged": True,
                "executions": 0, "corrected_exact": False,
                "sdc_to_user": False}

    def work(execution: int):
        # a transient bus upset corrupts one fetch; re-executions
        # re-read the operand from its source register
        return fma(*(faulted if execution == 0 else clean))

    outcome = GuardedExecutor(_policy_for(site, policy)).run(work)
    return _guard_record(outcome, site, golden)


def _guard_structural(base: dict) -> dict:
    """Structural artifacts are pure functions of their specs, so the
    guard's duplicate-and-compare re-derivation catches every baseline
    outcome that changed the artifact (``bit_diff``) and rebuilds it."""
    if base["outcome"] == "masked" and not base["bit_diff"]:
        return {"status": "clean", "flagged": False, "executions": 1,
                "corrected_exact": False, "sdc_to_user": False}
    return {"status": "corrected",
            "flagged": True, "executions": 2,
            "corrected_exact": True, "sdc_to_user": False}


def run_guarded_injection(config: CampaignConfig, site: FaultSite,
                          inj: dict, policy: GuardPolicy) -> dict:
    """Baseline record plus the guarded verdict for one injection."""
    base = run_injection(config, site, inj)
    if site.kind == "data":
        guard = _guard_data(config, site, inj, policy)
    elif site.kind == "operand":
        guard = _guard_operand(config, site, inj, policy)
    else:
        guard = _guard_structural(base)
    rec = dict(base)
    rec["guard"] = guard
    return rec


def run_guarded_campaign(config: CampaignConfig,
                         policy: GuardPolicy | None = None, *,
                         workers: int = 1, chunk: int = 50,
                         timeout_s: float | None = 120.0,
                         max_attempts: int = 3) -> dict:
    """Run the detection-coverage campaign and aggregate the report.

    The plan runs through the baseline campaign's loop
    (:func:`~repro.faults.campaign.collect_records`), serial by default
    or in ``chunk``-sized slices over ``workers`` processes; the report
    is byte-identical either way, apart from the parallel run's
    ``resilience`` summary.
    """
    policy = policy if policy is not None else GuardPolicy()
    records, resilience = collect_records(
        config, partial(run_guarded_injection, policy=policy),
        workers=workers, chunk=chunk, timeout_s=timeout_s,
        max_attempts=max_attempts)
    report = aggregate_guarded(config, policy, records,
                               select_sites(config.sites, config.classes))
    if resilience is not None:
        report["resilience"] = resilience
    t = _tm.ACTIVE
    if t is not None:
        t.count("guard.campaigns")
        for rec in records:
            t.count(f"guard.campaign.{rec['guard']['status']}")
    return report


# ---------------------------------------------------------------------------
# aggregation


def _bucket() -> dict:
    return {"injections": 0, "baseline_sdc": 0, "clean": 0, "corrected": 0,
            "corrected_exact": 0, "uncorrectable": 0, "flagged": 0,
            "sdc_to_user": 0, "executions": 0}


def _feed(bucket: dict, rec: dict) -> None:
    g = rec["guard"]
    bucket["injections"] += 1
    bucket["baseline_sdc"] += 1 if rec["outcome"] == "sdc" else 0
    bucket[g["status"]] += 1
    bucket["corrected_exact"] += 1 if g["corrected_exact"] else 0
    bucket["flagged"] += 1 if g["flagged"] else 0
    bucket["sdc_to_user"] += 1 if g["sdc_to_user"] else 0
    bucket["executions"] += g["executions"]


def _rates(bucket: dict) -> dict:
    n = bucket["injections"]
    bucket["baseline_sdc_rate"] = (round(bucket["baseline_sdc"] / n, 4)
                                   if n else 0.0)
    bucket["guarded_sdc_rate"] = (round(bucket["sdc_to_user"] / n, 4)
                                  if n else 0.0)
    return bucket


def aggregate_guarded(config: CampaignConfig, policy: GuardPolicy,
                      records: list[dict],
                      sites: list[FaultSite]) -> dict:
    """Deterministic detection-coverage report (sorted, no timestamps)."""
    tables = tabulate(records, sites, _bucket, _feed, _rates)
    b = tables["totals"]["baseline_sdc"]
    g = tables["totals"]["sdc_to_user"]
    return {
        "config": config.to_dict(),
        "policy": asdict(policy),
        **tables,
        "coverage": {
            "baseline_sdc": b,
            "guarded_sdc": g,
            # None = no SDC survived the guard (unbounded reduction)
            "reduction_factor": (round(b / g, 2) if g else None),
        },
    }


def render_guarded_text(report: dict) -> str:
    """Human-readable detection-coverage summary."""
    t = report["totals"]
    cov = report["coverage"]
    red = cov["reduction_factor"]
    rows = [
        f"guarded SEU campaign: {t['injections']} injections "
        f"(seed {report['config']['seed']}, "
        f"mode {report['policy']['mode']})",
        f"  clean          {t['clean']:>6}",
        f"  corrected      {t['corrected']:>6}   "
        f"(bit-identical to oracle: {t['corrected_exact']})",
        f"  uncorrectable  {t['uncorrectable']:>6}   (rejected, never "
        f"returned as data)",
        f"  SDC to user    {t['sdc_to_user']:>6}   vs baseline "
        f"{t['baseline_sdc']}  "
        + (f"({red}x reduction)" if red is not None
           else "(no surviving SDC)"),
        f"  executions     {t['executions']:>6}",
        "",
        "site class    inject  base-sdc  corrected  rejected  user-sdc",
        "----------    ------  --------  ---------  --------  --------",
    ]
    for cls, b in report["classes"].items():
        rows.append(f"{cls:<12}  {b['injections']:>6}  "
                    f"{b['baseline_sdc']:>8}  {b['corrected']:>9}  "
                    f"{b['uncorrectable']:>8}  {b['sdc_to_user']:>8}")
    rows.append("")
    rows.append("per-site coverage (baseline sdc -> guarded user-sdc):")
    for name, b in report["sites"].items():
        rows.append(f"  {name:<26} {b['injections']:>5} inj  "
                    f"{b['baseline_sdc']:>4} -> {b['sdc_to_user']:>4}  "
                    f"corrected {b['corrected']:>4}")
    return "\n".join(rows + resilience_rows(report.get("resilience")))
