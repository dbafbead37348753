"""The SEU campaign engine: inject, run differentially, classify.

One *injection* arms a single transient fault (one or two bit flips at
one :class:`~repro.faults.sites.FaultSite`), evaluates the affected
artifact, and classifies the outcome against the golden (fault-free)
result:

``masked``
    The IEEE-converted value of the faulted result equals the golden
    value.  Two sub-cases are tracked: the flip never changed any raw
    bit of the result (absorbed by downstream logic or by the carry-save
    representation's redundancy -- ``bit_diff`` counts the latter), or
    the site was never exercised on this operand (``landed`` is False).
``detected``
    Something *locally deployable* caught the fault: the evaluation
    raised (an operand-format validity check, a datapath assertion), or
    -- for structural sites -- an analysis rule (``NL0xx`` /
    ``SCH0xx``) or :meth:`Pipeline.validate` fired.  The rule ids are
    recorded so the report can cross-reference which analyzers earn
    their keep.
``sdc``
    Silent data corruption: the value (or structural metric) changed
    and nothing local noticed.

Separately, ``differential_catch`` records whether the repo's bit-exact
differential harness *would* flag the outcome (any raw-field
difference) -- the campaign's measure of how much extra coverage the
conformance sweep buys over always-on checks.

Determinism is absolute: the injection plan, operand pools and
classifications are pure functions of the seed, the report contains no
timestamps or timings, and aggregation is fully sorted -- two runs with
the same seed produce byte-identical JSON, including runs resumed from
a JSONL checkpoint and parallel runs merged by injection id.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from ..conformance.checks import same_cs, same_ieee
from ..conformance.workunits import STRATA, draw_triple
from ..fma.convert import cs_to_ieee, ieee_to_cs
from ..fma.formats import CSFloat
from ..fp import word_to_fp
from ..probes import Arm, armed
from ..telemetry import core as _tm
from .resilient import RetryPolicy, resilience_rows, run_resilient
from .sites import (SITE_CLASSES, SITES, FaultSite, flip_word,
                    make_transform, params_for_unit, select_sites)

__all__ = ["CampaignConfig", "plan_injections", "run_injection",
           "collect_records", "run_campaign", "aggregate", "render_text",
           "load_checkpoint", "OUTCOMES"]

OUTCOMES = ("masked", "detected", "sdc")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign, and nothing else."""

    seed: int = 0
    injections: int = 500
    operands: int = 24        # operand-pool size per unit flavor
    multi_bit: float = 0.15   # fraction of injections flipping two bits
    sites: tuple[str, ...] = ()
    classes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["sites"] = list(self.sites)
        d["classes"] = list(self.classes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignConfig":
        d = dict(d)
        d["sites"] = tuple(d.get("sites", ()))
        d["classes"] = tuple(d.get("classes", ()))
        return cls(**d)


def plan_injections(config: CampaignConfig) -> list[dict]:
    """The campaign's full injection plan -- pure in the config.

    Sites are covered round-robin (every site class appears in any
    campaign larger than the site list); bit positions and operand
    indices come from one seeded stream.
    """
    sites = select_sites(config.sites, config.classes)
    if not sites:
        raise ValueError("site/class filters selected no fault sites")
    rng = random.Random(f"{config.seed}:plan")
    plan = []
    for i in range(config.injections):
        site = sites[i % len(sites)]
        nbits = 2 if rng.random() < config.multi_bit else 1
        fracs = tuple(rng.random() for _ in range(nbits))
        plan.append({"id": i, "site": site.name, "fracs": fracs,
                     "operand": rng.randrange(config.operands)})
    return plan


# ---------------------------------------------------------------------------
# operand pools and golden results (memoized per process)

#: strata for campaign operands: the conformance sweep's, minus the
#: IEEE specials (which short-circuit before any probe fires and would
#: only dilute the landed count)
_CAMPAIGN_STRATA = tuple(s for s in STRATA if s != "specials")

_POOLS: dict = {}
_GOLDEN: dict = {}
_SCALAR_UNITS: dict = {}
_STRUCT_MEMO: dict = {}


def _pool(seed: int, unit: str, n: int) -> list[tuple[int, int, int]]:
    key = (seed, unit, n)
    pool = _POOLS.get(key)
    if pool is None:
        rng = random.Random(f"{seed}:operands:{unit}")
        pool = [draw_triple(rng, _CAMPAIGN_STRATA[k % len(_CAMPAIGN_STRATA)])
                for k in range(n)]
        _POOLS[key] = pool
    return pool


def _scalar_unit(unit: str):
    u = _SCALAR_UNITS.get(unit)
    if u is None:
        from ..fma.csfma import FcsFmaUnit, PcsFmaUnit

        u = PcsFmaUnit() if unit == "pcs" else FcsFmaUnit()
        _SCALAR_UNITS[unit] = u
    return u


def _fault_free(config: CampaignConfig, unit: str, idx: int,
                batch: bool) -> tuple:
    """``(fma, operands, golden)`` for operand ``idx`` of ``unit``'s pool.

    ``fma`` is the batch tuple kernel's when ``batch``, else the scalar
    unit's; ``operands`` is the triple lifted into its format, and
    ``golden`` their fault-free result (memoized per process).
    """
    triple = _pool(config.seed, unit, config.operands)[idx]
    a, b, c = (word_to_fp(w) for w in triple)
    if batch:
        from ..batch.cskernel import kernel_for

        kernel = kernel_for(_scalar_unit(unit))
        fma = kernel.fma
        operands = (kernel.lift_ieee(a), kernel.lift_b(b),
                    kernel.lift_ieee(c))
    else:
        params = params_for_unit(unit)
        fma = _scalar_unit(unit).fma
        operands = (ieee_to_cs(a, params), b, ieee_to_cs(c, params))
    key = (batch, config.seed, config.operands, unit, idx)
    golden = _GOLDEN.get(key)
    if golden is None:
        golden = _GOLDEN[key] = fma(*operands)
    return fma, operands, golden


def _data_injection(config: CampaignConfig, site: FaultSite,
                    inj: dict) -> tuple:
    """``(arm, golden, work)`` for one data injection: the probe arm for
    ``site.tag``, the fault-free result, and the zero-argument FMA the
    arm faults (the batch tuple kernel for ``batch`` sites, the scalar
    unit otherwise)."""
    fma, operands, golden = _fault_free(config, site.unit, inj["operand"],
                                        site.site_class == "batch")
    arm = Arm(make_transform(site, tuple(inj["fracs"]),
                             params_for_unit(site.unit)))
    return arm, golden, lambda: fma(*operands)


def _operand_injection(config: CampaignConfig, site: FaultSite,
                       inj: dict) -> tuple:
    """``(fma, golden, clean, faulted)`` for one operand (bus) injection.

    ``faulted`` is the scalar operand triple with the flipped packed word
    in A (even operand index) or C -- or, when the flip makes an invalid
    operand word, the exception the format's unpack raised.
    """
    fma, clean, golden = _fault_free(config, site.unit, inj["operand"],
                                     False)
    params = params_for_unit(site.unit)
    a, b, c = clean
    w = flip_word((1 << (params.operand_bits + 2)) - 1,
                  tuple(inj["fracs"]))
    corrupt_a = inj["operand"] % 2 == 0
    try:
        word = CSFloat.unpack((a if corrupt_a else c).pack() ^ w, params)
    except Exception as exc:
        return fma, golden, clean, exc
    return fma, golden, clean, (word, b, c) if corrupt_a else (a, b, word)


# ---------------------------------------------------------------------------
# outcome classification


def _compare(site: FaultSite, golden, got) -> str:
    """How a data result differs from the golden one.

    ``identical``; ``representation`` when raw CS fields differ but the
    IEEE value is intact (the flip was absorbed by the representation's
    redundancy); ``value-changed``; or ``format:<error>`` when a batch
    tuple violates the operand format, so lowering it raises.
    """
    if got == golden:
        return "identical"
    if site.site_class == "batch":
        from ..batch.cskernel import kernel_for

        lower = kernel_for(_scalar_unit(site.unit)).lower
        try:
            golden, got = lower(golden), lower(got)
        except Exception as exc:
            return f"format:{type(exc).__name__}"
    if same_cs(golden, got):
        return "identical"
    if same_ieee(cs_to_ieee(golden), cs_to_ieee(got)):
        return "representation"
    return "value-changed"


#: the outcome record of each undetected :func:`_compare` verdict
_VERDICT_OUTCOMES = {
    "identical": {"outcome": "masked", "detail": "identical",
                  "bit_diff": False, "differential_catch": False},
    "representation": {"outcome": "masked", "detail": "representation",
                       "bit_diff": True, "differential_catch": True},
    "value-changed": {"outcome": "sdc", "detail": "value-changed",
                      "bit_diff": True, "differential_catch": True},
}


def _classify(site: FaultSite, golden, got, landed: bool) -> dict:
    verdict = _compare(site, golden, got)
    if verdict.startswith("format:"):
        # the faulted tuple violates the operand format; the format
        # boundary (CSNumber validation) is the detector
        return _detected(verdict, landed)
    return dict(_VERDICT_OUTCOMES[verdict], landed=landed)


def _detected(kind: str, landed: bool, rules: list[str] | None = None,
              caught: bool = True) -> dict:
    return {"outcome": "detected", "detail": kind, "landed": landed,
            "bit_diff": True, "differential_catch": caught,
            "rules": rules or []}


# ---------------------------------------------------------------------------
# per-kind evaluation


def _eval_data(config: CampaignConfig, site: FaultSite,
               inj: dict) -> dict:
    arm, golden, work = _data_injection(config, site, inj)
    try:
        with armed({site.tag: arm}):
            got = work()
    except Exception as exc:
        return _detected(f"exception:{type(exc).__name__}", arm.hits > 0)
    return _classify(site, golden, got, arm.hits > 0)


def _eval_operand(config: CampaignConfig, site: FaultSite,
                  inj: dict) -> dict:
    fma, golden, _clean, faulted = _operand_injection(config, site, inj)
    if isinstance(faulted, Exception):
        # the flip produced an invalid operand word; the format's
        # validity check on the receiving unit is the detector
        return _detected(f"format:{type(faulted).__name__}", True)
    try:
        got = fma(*faulted)
    except Exception as exc:
        return _detected(f"exception:{type(exc).__name__}", True)
    return _classify(site, golden, got, True)


def _rnd(site: FaultSite, inj: dict) -> random.Random:
    """Derived RNG for structural choices (component, field, mode)."""
    return random.Random(f"{site.name}:{inj['fracs']!r}:{inj['operand']}")


_NETLIST_FIELDS = ("luts", "reg_bits", "toggle_bits", "dsps",
                   "window_wires")


def _eval_netlist(site: FaultSite, inj: dict) -> dict:
    import dataclasses

    from ..analysis.netlist_lint import lint_design
    from ..hw.netlist import UnitDesign, design_by_name
    from ..hw.technology import VIRTEX6

    rnd = _rnd(site, inj)
    design = design_by_name(site.unit, VIRTEX6)
    base_key = ("netlist-baseline", site.unit)
    baseline = _STRUCT_MEMO.get(base_key)
    if baseline is None:
        baseline = frozenset(lint_design(design, VIRTEX6).rule_ids())
        _STRUCT_MEMO[base_key] = baseline
    field = _NETLIST_FIELDS[rnd.randrange(len(_NETLIST_FIELDS))]
    bit = rnd.randrange(12)
    if field == "window_wires":
        perturbed = UnitDesign(design.name, list(design.path),
                               list(design.offpath), design.fixed_cycles,
                               list(design.subunits),
                               design.window_wires ^ (1 << bit))
    else:
        comps = design.all_components()
        idx = rnd.randrange(len(comps))
        comp = dataclasses.replace(
            comps[idx], **{field: getattr(comps[idx], field) ^ (1 << bit)})
        path, offpath = list(design.path), list(design.offpath)
        if idx < len(path):
            path[idx] = comp
        else:
            offpath[idx - len(path)] = comp
        perturbed = UnitDesign(design.name, path, offpath,
                               design.fixed_cycles, list(design.subunits),
                               design.window_wires)
    report = lint_design(perturbed, VIRTEX6)
    fired = sorted(set(report.rule_ids()) - baseline)
    if fired:
        return _detected("rules:" + ",".join(fired), True, fired)
    if (perturbed.luts, perturbed.dsps) != (design.luts, design.dsps):
        detail = f"silent-structural:{field}"
    else:
        # only the activity model sees the field (e.g. toggle_bits):
        # still a silent corruption of a downstream metric
        detail = f"silent-metric:{field}"
    return {"outcome": "sdc", "detail": detail, "landed": True,
            "bit_diff": True, "differential_catch": False}


def _eval_pipeline(site: FaultSite, inj: dict) -> dict:
    from ..hw.netlist import design_by_name
    from ..hw.pipeline import Pipeline, cut_pipeline
    from ..hw.technology import VIRTEX6

    target = 200.0
    rnd = _rnd(site, inj)
    key = ("pipeline-golden", site.unit)
    memo = _STRUCT_MEMO.get(key)
    if memo is None:
        design = design_by_name(site.unit, VIRTEX6)
        memo = (design, cut_pipeline(design.path, VIRTEX6, target))
        _STRUCT_MEMO[key] = memo
    design, golden = memo
    stages = [list(s) for s in golden.stages]
    mode = rnd.randrange(4)
    if mode == 0 and len(stages) > 1:        # move a cut point
        b = rnd.randrange(1, len(stages))
        if rnd.random() < 0.5 and len(stages[b - 1]) > 0:
            stages[b].insert(0, stages[b - 1].pop())
        elif stages[b]:
            stages[b - 1].append(stages[b].pop(0))
    elif mode == 1:                          # drop a latched component
        s = rnd.randrange(len(stages))
        if stages[s]:
            stages[s].pop(rnd.randrange(len(stages[s])))
    elif mode == 2:                          # duplicate a register
        s = rnd.randrange(len(stages))
        if stages[s]:
            stages[s].append(stages[s][rnd.randrange(len(stages[s]))])
    else:                                    # cross-stage swap
        flat = [(i, j) for i, st in enumerate(stages)
                for j in range(len(st))]
        if len(flat) > 1:
            (i1, j1) = flat[rnd.randrange(len(flat))]
            (i2, j2) = flat[rnd.randrange(len(flat))]
            stages[i1][j1], stages[i2][j2] = \
                stages[i2][j2], stages[i1][j1]
    corrupted = Pipeline(stages=stages, device=golden.device)
    problems = corrupted.validate(design.path, target_mhz=target)
    if problems:
        return _detected("validate:" + problems[0], True,
                         ["PIPE-VALIDATE"])
    same = (corrupted.cycles == golden.cycles
            and corrupted.stage_delays == golden.stage_delays)
    if same:
        return dict(_VERDICT_OUTCOMES["identical"], landed=True)
    return {"outcome": "sdc", "detail": "silent-repartition",
            "landed": True, "bit_diff": True,
            "differential_catch": False}


def _eval_schedule(site: FaultSite, inj: dict) -> dict:
    from ..analysis.schedule_check import check_schedule
    from ..hls.schedule import Schedule

    rnd = _rnd(site, inj)
    key = ("schedule-golden", site.unit)
    golden = _STRUCT_MEMO.get(key)
    if golden is None:
        from ..analysis.targets import graph_targets
        from ..hls.fma_pass import run_fma_insertion
        from ..hls.operators import FMA_UNIT_LIMIT, default_library
        from ..hls.schedule import list_schedule
        from ..hw.technology import VIRTEX6

        graph = graph_targets()[site.unit]()
        library = default_library(VIRTEX6, fma_flavor="pcs",
                                  fma_limit=FMA_UNIT_LIMIT)
        run_fma_insertion(graph, library)
        golden = list_schedule(graph, library)
        _STRUCT_MEMO[key] = golden
    nodes = sorted(golden.start)
    nid = nodes[rnd.randrange(len(nodes))]
    start = dict(golden.start)
    start[nid] ^= 1 << rnd.randrange(4)
    corrupted = Schedule(start, golden.graph, golden.library)
    report = check_schedule(corrupted, target=f"faulted:{site.unit}")
    fired = sorted(report.rule_ids())
    if fired:
        return _detected("rules:" + ",".join(fired), True, fired)
    return {"outcome": "sdc",
            "detail": ("silent-slack" if corrupted.length == golden.length
                       else "silent-length"),
            "landed": True, "bit_diff": True,
            "differential_catch": False}


# ---------------------------------------------------------------------------
# one injection, the campaign loop, checkpointing


def run_injection(config: CampaignConfig, site: FaultSite,
                  inj: dict) -> dict:
    """Evaluate one planned injection and return its outcome record."""
    if site.kind == "data":
        out = _eval_data(config, site, inj)
    elif site.kind == "operand":
        out = _eval_operand(config, site, inj)
    elif site.kind == "netlist":
        out = _eval_netlist(site, inj)
    elif site.kind == "pipeline":
        out = _eval_pipeline(site, inj)
    elif site.kind == "schedule":
        out = _eval_schedule(site, inj)
    else:  # pragma: no cover - registry invariant
        raise ValueError(f"unknown site kind {site.kind!r}")
    record = {
        "id": inj["id"],
        "site": site.name,
        "class": site.site_class,
        "stage": site.stage,
        "bits": len(inj["fracs"]),
        "rules": out.pop("rules", []),
    }
    record.update(out)
    return record


def _campaign_entry(payload: dict) -> list[dict]:
    """Picklable work unit: evaluate one slice of the plan."""
    config, evaluate = payload["config"], payload["evaluate"]
    return [evaluate(config, SITES[inj["site"]], inj)
            for inj in payload["plan"]]


def load_checkpoint(path: "str | Path") -> dict[int, dict]:
    """Read a JSONL checkpoint; torn trailing lines are ignored (the
    process may have died mid-write)."""
    records: dict[int, dict] = {}
    p = Path(path)
    if not p.exists():
        return records
    with p.open() as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                records[rec["id"]] = rec
            except (json.JSONDecodeError, KeyError, TypeError):
                continue
    return records


def collect_records(config: CampaignConfig, evaluate=run_injection, *,
                    workers: int = 1,
                    checkpoint: "str | Path | None" = None,
                    resume: bool = False, chunk: int = 50,
                    timeout_s: float | None = 120.0,
                    max_attempts: int = 3) -> tuple[list[dict], dict | None]:
    """Evaluate the plan; return its records sorted by id, and the pool's
    recovery summary (``None`` for a serial run).

    ``evaluate(config, site, injection)`` returns one record; it must be
    picklable (module level, or a ``functools.partial`` of one) because
    ``workers > 1`` sends ``chunk``-sized slices of the pending plan
    through a process pool and merges the records by id, so the result
    equals the serial run's.  Either way the plan runs through
    :func:`repro.faults.resilient.run_resilient`, one injection per item
    when serial.  With ``checkpoint`` the records are appended to a
    JSONL file as each item finishes; ``resume=True`` skips the ids
    already there.
    """
    plan = plan_injections(config)
    done: dict[int, dict] = {}
    ckpt_file = None
    if checkpoint is not None:
        if resume:
            done = {i: r for i, r in load_checkpoint(checkpoint).items()
                    if i < len(plan)}
        ckpt_file = open(checkpoint, "a" if resume else "w")

    todo = [inj for inj in plan if inj["id"] not in done]
    pooled = workers > 1 and len(todo) > chunk
    size = chunk if pooled else 1
    payloads = [{"config": config, "evaluate": evaluate,
                 "plan": todo[lo:lo + size]}
                for lo in range(0, len(todo), size)]

    def keep(res) -> None:
        # a slice that failed every attempt is finished inline: the
        # campaign never loses injections to pool failures
        records = (res.value if res.ok
                   else _campaign_entry(payloads[res.index]))
        for rec in records:
            done[rec["id"]] = rec
            if ckpt_file is not None:
                _append_checkpoint(ckpt_file, rec)

    try:
        run = run_resilient(
            _campaign_entry, payloads, workers=workers if pooled else 1,
            timeout_s=timeout_s,
            retry=RetryPolicy(max_attempts=max_attempts),
            rng_seed=config.seed, on_result=keep)
    finally:
        if ckpt_file is not None:
            ckpt_file.close()
    return ([done[i] for i in sorted(done)],
            run.summary() if pooled else None)


def run_campaign(config: CampaignConfig, *, workers: int = 1,
                 checkpoint: "str | Path | None" = None,
                 resume: bool = False, chunk: int = 50,
                 timeout_s: float | None = 120.0,
                 max_attempts: int = 3) -> dict:
    """Run the campaign and return the aggregated report.

    Serial by default; ``workers``, ``chunk``, ``timeout_s`` and
    ``max_attempts`` shape the parallel run and ``checkpoint``/``resume``
    the JSONL checkpoint (:func:`collect_records`).  Parallel and
    resumed reports are byte-identical to the uninterrupted serial one,
    apart from the parallel run's ``resilience`` summary.
    """
    records, resilience = collect_records(
        config, run_injection, workers=workers, checkpoint=checkpoint,
        resume=resume, chunk=chunk, timeout_s=timeout_s,
        max_attempts=max_attempts)
    report = aggregate(config, records,
                       select_sites(config.sites, config.classes))
    if resilience is not None:
        report["resilience"] = resilience
    tm = _tm.ACTIVE
    if tm is not None:
        tm.count("faults.campaigns")
        tm.count("faults.injections", len(records))
        for rec in records:
            tm.count(f"faults.outcome.{rec['outcome']}")
            if rec.get("landed"):
                tm.count("faults.landed")
        if resilience is not None:
            tm.count("faults.retries", resilience["retries"])
            tm.count("faults.timeouts", resilience["timeouts"])
    return report


def _append_checkpoint(f, record: dict) -> None:
    f.write(json.dumps(record, sort_keys=True) + "\n")
    f.flush()


# ---------------------------------------------------------------------------
# aggregation and rendering


def _bucket() -> dict:
    return {"injections": 0, "masked": 0, "detected": 0, "sdc": 0,
            "landed": 0, "bit_diff": 0, "differential_catch": 0}


def _feed(bucket: dict, rec: dict) -> None:
    bucket["injections"] += 1
    bucket[rec["outcome"]] += 1
    bucket["landed"] += 1 if rec["landed"] else 0
    bucket["bit_diff"] += 1 if rec["bit_diff"] else 0
    bucket["differential_catch"] += 1 if rec["differential_catch"] else 0


def _rates(bucket: dict) -> dict:
    n = bucket["injections"]
    landed = bucket["landed"]
    bucket["sdc_rate"] = round(bucket["sdc"] / n, 4) if n else 0.0
    bucket["sdc_rate_landed"] = (round(bucket["sdc"] / landed, 4)
                                 if landed else 0.0)
    return bucket


def tabulate(records: list[dict], sites: list[FaultSite], bucket, feed,
             rates) -> dict:
    """The ``totals``, ``classes`` and ``sites`` tables of a report.

    ``bucket()`` makes an empty tally, ``feed(tally, record)`` adds one
    record and ``rates(tally)`` finishes it; each campaign supplies its
    own three.  Classes come in :data:`SITE_CLASSES` order, sites sorted
    by name, each with its class and stage.
    """
    totals = bucket()
    by_class: dict[str, dict] = {}
    by_site: dict[str, dict] = {}
    for rec in records:
        feed(totals, rec)
        feed(by_class.setdefault(rec["class"], bucket()), rec)
        feed(by_site.setdefault(rec["site"], bucket()), rec)
    site_meta = {s.name: s for s in sites}
    site_table = {}
    for name in sorted(by_site):
        entry = rates(by_site[name])
        meta = site_meta.get(name)
        if meta is not None:
            entry["class"] = meta.site_class
            entry["stage"] = meta.stage
        site_table[name] = entry
    return {"totals": rates(totals),
            "classes": {c: rates(by_class[c]) for c in SITE_CLASSES
                        if c in by_class},
            "sites": site_table}


def aggregate(config: CampaignConfig, records: list[dict],
              sites: list[FaultSite]) -> dict:
    """Deterministic campaign report (no timestamps, sorted keys)."""
    by_stage: dict[str, dict] = {}
    rules: dict[str, int] = {}
    for rec in records:
        _feed(by_stage.setdefault(rec["stage"], _bucket()), rec)
        for rule in rec.get("rules", []):
            rules[rule] = rules.get(rule, 0) + 1
    return {
        "config": config.to_dict(),
        **tabulate(records, sites, _bucket, _feed, _rates),
        "stages": {s: _rates(by_stage[s]) for s in sorted(by_stage)},
        "rules": dict(sorted(rules.items())),
    }


def render_text(report: dict) -> str:
    """Human-readable campaign summary with the SDC-rate table."""
    t = report["totals"]
    rows = [
        f"SEU campaign: {t['injections']} injections "
        f"(seed {report['config']['seed']})",
        f"  masked   {t['masked']:>6}   "
        f"(of which representation-absorbed: {t['bit_diff'] - t['sdc']})",
        f"  detected {t['detected']:>6}",
        f"  SDC      {t['sdc']:>6}   rate {t['sdc_rate']:.4f} "
        f"({t['sdc_rate_landed']:.4f} of landed)",
        f"  differential harness would catch "
        f"{t['differential_catch']}/{t['injections']}",
        "",
        "site class    inject  masked  detect     sdc  sdc-rate  landed",
        "----------    ------  ------  ------  ------  --------  ------",
    ]
    for cls, b in report["classes"].items():
        rows.append(f"{cls:<12}  {b['injections']:>6}  {b['masked']:>6}  "
                    f"{b['detected']:>6}  {b['sdc']:>6}  "
                    f"{b['sdc_rate']:>8.4f}  {b['landed']:>6}")
    rows.append("")
    rows.append("per-site coverage:")
    for name, b in report["sites"].items():
        rows.append(f"  {name:<26} {b['injections']:>5} inj  "
                    f"m/d/s {b['masked']:>4}/{b['detected']:>4}/"
                    f"{b['sdc']:>4}  sdc-rate {b['sdc_rate']:.4f}")
    if report["rules"]:
        fired = ", ".join(f"{r}x{n}" for r, n in report["rules"].items())
        rows.append("")
        rows.append(f"analysis rules fired: {fired}")
    return "\n".join(rows + resilience_rows(report.get("resilience")))
