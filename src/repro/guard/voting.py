"""Redundant execution with voting: the correction half of the guard.

The residue checkers (:mod:`repro.guard.residue`) *detect* a transient
upset; this module *recovers* from it.  A :class:`GuardedExecutor` runs
a work unit under an armed guard and, on a residue mismatch -- or
unconditionally in DMR/TMR mode -- re-executes it (optionally on a
different worker process via :func:`repro.faults.resilient.run_resilient`)
and majority-votes over the results.  Every run is classified:

``clean``
    The first execution(s) passed every check (and, for DMR/TMR,
    agreed bit-for-bit).  The value is trusted as-is.
``corrected``
    A check flagged an execution (or replicas disagreed), and
    re-execution produced a quorum of check-clean, agreeing values.
    Because the upsets this layer defends against are *transient*
    (one register, one clock edge -- the :class:`repro.probes.Arm`
    contract), a check-clean re-execution recomputes the uncorrupted
    value, so corrected results are bit-identical to the uninjected
    oracle; the SEU campaign asserts exactly that.
``uncorrectable``
    No quorum of clean executions within the execution budget.  The
    result carries no value -- callers must reject it, never return it
    as data (the serving layer maps it to an ``error`` response).

The escalation ladder (docs/GUARD.md): residue flag -> re-execute ->
vote -> reject.  Telemetry lands under ``guard.exec.*`` /
``guard.escalations`` / ``guard.reexecutions``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..telemetry import core as _tm
from . import residue as _gd
from .residue import GuardMismatch

__all__ = ["GuardPolicy", "GuardedOutcome", "GuardedExecutor"]

MIN_EXECUTIONS = {"residue": 1, "dmr": 2, "tmr": 3}
MODES = tuple(MIN_EXECUTIONS)


@dataclass(frozen=True)
class GuardPolicy:
    """How a :class:`GuardedExecutor` detects and corrects.

    ``mode``
        ``residue`` -- one guarded execution; re-execute only on a
        check flag (cheapest, relies on check coverage).  ``dmr`` --
        two executions compared bit-for-bit; disagreement or a flag
        escalates.  ``tmr`` -- three executions, majority vote.
    ``max_executions``
        Hard budget on executions of one work unit, including the
        initial one(s); exhausting it yields ``uncorrectable``.
    ``quorum``
        Check-clean, bit-identical values required to accept a
        *corrected* result (``residue`` mode accepts a single clean
        re-execution: the checks themselves are the certificate).
    ``workers``
        ``> 1`` dispatches re-executions through
        :func:`~repro.faults.resilient.run_resilient` onto a fresh
        worker process, isolating the retry from a corrupted worker.
        The work function must then be picklable and module-level.
    """

    mode: str = "residue"
    max_executions: int = 4
    quorum: int = 2
    workers: int = 1
    timeout_s: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.max_executions < self.min_executions:
            raise ValueError("max_executions below the mode's minimum")
        if self.quorum < 1:
            raise ValueError("quorum must be >= 1")

    @property
    def min_executions(self) -> int:
        return MIN_EXECUTIONS[self.mode]


@dataclass
class GuardedOutcome:
    """Classification of one guarded work unit."""

    status: str                       # clean / corrected / uncorrectable
    value: object = None              # None when uncorrectable
    executions: int = 0
    flagged: int = 0                  # executions a check flagged
    #: per-execution structured records: mismatch tallies and errors
    records: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status != "uncorrectable"

    def to_record(self) -> dict:
        """JSON-ready record (deterministic key order via sort_keys)."""
        return {"status": self.status, "executions": self.executions,
                "flagged": self.flagged, "records": self.records}


def _pool_attempt(args):
    """Picklable trampoline: one guarded execution in a worker process.

    Returns the value; a raising check propagates as an ordinary
    exception record through ``run_resilient``.
    """
    fn, execution = args
    with _gd.guarding():
        return fn(execution)


class GuardedExecutor:
    """Run work units under the guard; re-execute and vote on trouble.

    The work function receives the zero-based execution number (so
    fault-model callers can make the first execution the faulted one)
    and returns a value with a meaningful ``==`` -- votes compare
    values bit-for-bit via equality.
    """

    def __init__(self, policy: GuardPolicy | None = None, *,
                 rng_seed: int = 0):
        self.policy = policy if policy is not None else GuardPolicy()
        self.rng_seed = rng_seed
        self._calls = 0

    # -- one guarded execution -----------------------------------------

    def _execute(self, fn, execution: int) -> tuple:
        """Returns ``(ok, value, record)``; never raises for work-unit
        failures (a failed execution is simply not a vote)."""
        pol = self.policy
        if pol.workers > 1:
            from ..faults.resilient import RetryPolicy, run_resilient

            run = run_resilient(
                _pool_attempt, [(fn, execution)], workers=pol.workers,
                timeout_s=pol.timeout_s,
                retry=RetryPolicy(max_attempts=1), always_pool=True,
                rng_seed=self.rng_seed + self._calls)
            res = run.results[0]
            if res is not None and res.ok:
                return True, res.value, {"execution": execution,
                                         "flagged": False}
            err = res.error if res is not None else {"kind": "lost"}
            if err and err.get("type") == "GuardMismatch":
                return False, None, {"execution": execution,
                                     "flagged": True,
                                     "mismatches": {"remote": 1}}
            return False, None, {"execution": execution, "flagged": False,
                                 "error": err}
        try:
            with _gd.guarding():
                value = fn(execution)
        except GuardMismatch as exc:
            return False, None, {"execution": execution, "flagged": True,
                                 "mismatches": {exc.stage: 1}}
        except Exception as exc:
            return False, None, {
                "execution": execution, "flagged": False,
                "error": {"kind": "exception",
                          "type": type(exc).__name__, "message": str(exc)}}
        return True, value, {"execution": execution, "flagged": False}

    # -- the vote -------------------------------------------------------

    def run(self, fn) -> GuardedOutcome:
        """Execute ``fn`` under the policy and classify the outcome."""
        pol = self.policy
        self._calls += 1
        t = _tm.ACTIVE
        records: list[dict] = []
        values: list = []          # check-clean values, in order
        flagged = 0
        executions = 0

        def vote() -> object | None:
            """First value with ``quorum`` bit-identical clean copies."""
            for v in values:
                if sum(1 for w in values if w == v) >= pol.quorum:
                    return v
            return None

        # initial replicas required by the mode
        for i in range(pol.min_executions):
            ok, value, rec = self._execute(fn, executions)
            executions += 1
            records.append(rec)
            if ok:
                values.append(value)
            elif rec.get("flagged"):
                flagged += 1

        clean = False
        if flagged == 0 and len(values) == pol.min_executions:
            if pol.mode == "residue":
                clean = True
            else:
                clean = all(v == values[0] for v in values[1:])
        if clean:
            if t is not None:
                t.count("guard.exec.clean")
            return GuardedOutcome("clean", values[0], executions,
                                  flagged, records)

        # escalation: re-execute (optionally on another worker) until a
        # quorum of check-clean values agrees, or the budget runs out
        if t is not None:
            t.count("guard.escalations")
        needed = 1 if pol.mode == "residue" else pol.quorum
        while executions < pol.max_executions:
            if len(values) >= needed and (
                    pol.mode == "residue" or vote() is not None):
                break
            ok, value, rec = self._execute(fn, executions)
            executions += 1
            records.append(rec)
            if t is not None:
                t.count("guard.reexecutions")
            if ok:
                values.append(value)
            elif rec.get("flagged"):
                flagged += 1

        if pol.mode == "residue":
            winner = values[0] if values else None
        else:
            winner = vote()
        if winner is not None or (pol.mode == "residue" and values):
            if t is not None:
                t.count("guard.exec.corrected")
            return GuardedOutcome("corrected", winner, executions,
                                  flagged, records)
        if t is not None:
            t.count("guard.exec.uncorrectable")
        return GuardedOutcome("uncorrectable", None, executions,
                              flagged, records)
