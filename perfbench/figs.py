"""Stage ``paper_figs``: the Fig. 14 and Fig. 15 drivers.

``fig14.run`` (``FIG14_RUNS`` recurrences per call, seeds taken from the
benchmark seed) and ``fig15.run`` on the small and medium solvers.

Checks: a subset of Fig. 14 runs equals ``use_batch=False`` row for
row; Fig. 15 schedules are self-consistent (positive, no longer than
the baseline, within the FMA unit limit, identical across repeats).
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext

import repro.batch as batch
from repro.experiments import fig14, fig15
from repro.solvers import BENCHMARK_SIZES

FIG14_RUNS = 20
FIG14_CHECK_RUNS = 2
FIG15_SIZES = tuple(BENCHMARK_SIZES[:2])     # small, medium
ROOT_SPAN = "paper_figs"


def install(tracer) -> None:
    tracer.wrap(fig14, "run", "experiments.fig14")
    tracer.wrap(fig14, "run_recurrence",
                lambda args, kwargs: "batch.engines.recurrence."
                + args[0].name)
    tracer.wrap(batch, "accelerate_engine", "batch.engines.accelerate")
    tracer.wrap(fig15, "run", "experiments.fig15")
    tracer.wrap(fig15, "trajectory_problem", "solvers.problem")
    tracer.wrap(fig15, "generate_kernel", "solvers.codegen")
    tracer.wrap(fig15, "parse_program", "hls.frontend.parse")
    tracer.wrap(fig15, "run_fma_insertion", "hls.fma_pass",
                sample=lambda args, kwargs, report: report.fma_inserted)
    tracer.wrap(fig15, "list_schedule", "hls.schedule")
    tracer.wrap(fig15, "default_library", "hls.library")


def hls_cycles(rows) -> int:
    return sum(r.pcs_cycles + r.fcs_cycles for r in rows)


class Stage:
    """Fig. 14 / Fig. 15 calls as interleavable tasks."""

    def __init__(self, wl, seed: int, seconds: float, clock, tracer=None,
                 check: bool = True):
        self.clock = clock
        self.seed = seed
        self.tracer = tracer
        self.check = check
        # fig15 on small+medium takes ~3 s, one fig14 call ~0.3 s
        self.n14 = max(2, round(seconds * 0.75))
        self.n15 = max(1, round(seconds / 2.5))
        self.t14, self.t15, self.tables = [], [], []
        self.r14, self.r15 = [], []

    def tasks(self) -> list:
        return ([lambda r=r: self._fig14(r) for r in range(self.n14)]
                + [self._fig15] * self.n15)

    def _in_root(self, fn, **kwargs):
        with self.tracer.span(ROOT_SPAN) if self.tracer else nullcontext():
            return fn(**kwargs)

    def _fig14(self, rep: int) -> None:
        seed0 = self.seed * 1000 + rep * FIG14_RUNS
        _rows, dt, raw = self.clock.time(self._in_root, fig14.run,
                                         runs=FIG14_RUNS, seed0=seed0)
        self.t14.append(dt)
        self.r14.append(raw)

    def _fig15(self) -> None:
        rows, dt, raw = self.clock.time(self._in_root, fig15.run,
                                        sizes=FIG15_SIZES)
        self.tables.append(rows)
        self.t15.append(dt)
        self.r15.append(raw)

    def finish(self) -> dict:
        attempted = failed = 0
        if self.check:
            seed0 = self.seed * 1000
            want = fig14.run(runs=FIG14_CHECK_RUNS, seed0=seed0,
                             use_batch=False)
            got = fig14.run(runs=FIG14_CHECK_RUNS, seed0=seed0)
            attempted += self.n14 * FIG14_RUNS
            failed += (sum(g != w for g, w in zip(got, want))
                       + abs(len(got) - len(want)))
            attempted += sum(len(rows) for rows in self.tables)
            failed += _check_fig15(self.tables)
        return {"metrics": {"fig14_s": statistics.median(self.t14),
                            "fig15_s": statistics.median(self.t15),
                            "hls_cycles": hls_cycles(self.tables[0])},
                "raw": {"fig14_s": statistics.median(self.r14),
                        "fig15_s": statistics.median(self.r15)},
                "calls": {"fig14": self.n14, "fig15": self.n15},
                "attempted": attempted, "failed": failed,
                "timed_s": sum(self.t14) + sum(self.t15)}


def _check_fig15(tables) -> int:
    bad = 0
    for rows in tables:
        for row, ref in zip(rows, tables[0]):
            ok = (row == ref
                  and 0 < row.pcs_cycles <= row.baseline_cycles
                  and 0 < row.fcs_cycles <= row.baseline_cycles
                  and row.pcs_fma_units <= fig15.FMA_UNIT_LIMIT
                  and row.fcs_fma_units <= fig15.FMA_UNIT_LIMIT)
            bad += not ok
        bad += abs(len(rows) - len(FIG15_SIZES))
    return bad
