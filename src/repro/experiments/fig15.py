"""Fig. 15 -- `ldlsolve()` schedule length for the three convex solvers.

The full application-level flow: trajectory-planning QP -> KKT system ->
symbolic LDL^T -> generated `ldlsolve()` kernel -> HLS frontend ->
scheduled CDFG -> Fig. 12 FMA-insertion pass -> rescheduled length,
with up to 39 time-multiplexed P/FCS-FMA units (Sec. IV-D).  The paper
reports schedule-length reductions between 26.0% and 50.1%, larger for
the FCS units.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.schedule_check import require_clean
from ..hls import (FMA_UNIT_LIMIT, OpKind, default_library, list_schedule,
                   parse_program, run_fma_insertion)
from ..solvers import BENCHMARK_SIZES, generate_kernel, trajectory_problem

__all__ = ["Fig15Row", "run", "format_table", "FMA_UNIT_LIMIT"]


@dataclass(frozen=True)
class Fig15Row:
    solver: str
    kkt_dim: int
    statements: int
    baseline_cycles: int
    pcs_cycles: int
    fcs_cycles: int
    pcs_fma_units: int
    fcs_fma_units: int

    @property
    def pcs_reduction_percent(self) -> float:
        return 100.0 * (self.baseline_cycles - self.pcs_cycles) \
            / self.baseline_cycles

    @property
    def fcs_reduction_percent(self) -> float:
        return 100.0 * (self.baseline_cycles - self.fcs_cycles) \
            / self.baseline_cycles


def run(sizes=None, fma_limit: int = FMA_UNIT_LIMIT) -> list[Fig15Row]:
    sizes = sizes if sizes is not None else BENCHMARK_SIZES
    rows = []
    for name, horizon, obstacles in sizes:
        problem = trajectory_problem(horizon, obstacles)
        kernel = generate_kernel(problem)
        g0 = parse_program(kernel.source, outputs=kernel.output_names)
        # every reported length comes from a schedule re-proved valid
        baseline = require_clean(list_schedule(g0, default_library()),
                                 f"fig15:{name}:baseline").length
        cycles = {}
        units = {}
        for flavor in ("pcs", "fcs"):
            # the pass rewrites in place; a copy behaves like a re-parse
            g = g0.copy()
            lib = default_library(fma_flavor=flavor, fma_limit=fma_limit)
            run_fma_insertion(g, lib)
            sched = require_clean(list_schedule(g, lib),
                                  f"fig15:{name}:{flavor}")
            cycles[flavor] = sched.length
            units[flavor] = min(
                g.op_count(OpKind.FMA),
                sched.resource_usage().get(f"fma-{flavor}", 0)
                or g.op_count(OpKind.FMA))
        rows.append(Fig15Row(
            solver=name,
            kkt_dim=kernel.symbolic.n,
            statements=kernel.statement_count,
            baseline_cycles=baseline,
            pcs_cycles=cycles["pcs"],
            fcs_cycles=cycles["fcs"],
            pcs_fma_units=units["pcs"],
            fcs_fma_units=units["fcs"],
        ))
    return rows


def format_table(rows: list[Fig15Row]) -> str:
    out = ["Fig. 15: ldlsolve() schedule length (cycles) for solvers of "
           "increasing complexity",
           f"{'Solver':<8} {'KKT':>4} {'stmts':>6} {'base':>6} "
           f"{'PCS':>6} {'red%':>6} {'FCS':>6} {'red%':>6}"]
    for r in rows:
        out.append(
            f"{r.solver:<8} {r.kkt_dim:>4} {r.statements:>6} "
            f"{r.baseline_cycles:>6} {r.pcs_cycles:>6} "
            f"{r.pcs_reduction_percent:>5.1f}% {r.fcs_cycles:>6} "
            f"{r.fcs_reduction_percent:>5.1f}%")
    out.append("(paper: 26.0%-50.1% reduction, FCS > PCS, <= 39 "
               "time-multiplexed FMA units)")
    from .figures import grouped_bar_chart

    out.append("")
    out.append(grouped_bar_chart(
        [(r.solver, [("baseline", float(r.baseline_cycles)),
                     ("pcs", float(r.pcs_cycles)),
                     ("fcs", float(r.fcs_cycles))]) for r in rows],
        unit=" cyc"))
    return "\n".join(out)
