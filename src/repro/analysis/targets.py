"""Analysis targets: every graph, netlist and schedule the repo ships.

The CI gate (``python -m repro.analysis --all``) must hold two
properties at once: every *shipped* artifact verifies clean, and every
*seeded violation* is detected (see :mod:`repro.analysis.violations`).
This module enumerates the shipped side:

* the example kernels (the paper's Listing 1, the FIR tap loop of
  ``examples/fir_filter.py``, Horner evaluation, a fused dot product,
  a mixed-operator expression), each analyzed as parsed *and* after
  the Fig. 12 FMA-insertion pass for both carry-save flavors, with
  their ASAP and resource-constrained list schedules validated;
* the experiment-built graphs: the generated ``ldlsolve()`` solver
  kernels that Fig. 15 schedules;
* every hardware netlist the synthesis front-end knows, plus the
  operator libraries derived from them.
"""

from __future__ import annotations

from typing import Callable

from ..hls.fma_pass import FmaPassVerificationError, run_fma_insertion
from ..hls.frontend import parse_program
from ..hls.ir import CDFG
from ..hls.operators import FMA_UNIT_LIMIT, default_library
from ..hls.schedule import asap_schedule, list_schedule
from ..hw.netlist import _FACTORIES, design_by_name
from ..hw.technology import VIRTEX6, FpgaDevice
from .diagnostics import Report
from .format_flow import verify_format_flow
from .netlist_lint import lint_design, lint_library
from .schedule_check import check_schedule

__all__ = ["graph_targets", "netlist_targets", "analyze_graph_target",
           "analyze_netlist_target", "analyze_library_target",
           "analyze_all", "target_names"]

_LISTING1 = """
x[1] = a*b + c*d;
x[2] = e*f + g*x[1];
x[3] = h*i + k*x[2];
"""

_FIR16 = """
acc[0] = 0;
for (i = 0; i < 16; i++) {
    acc[i+1] = acc[i] + h[i]*x[i];
}
y = acc[16];
"""

_HORNER8 = """
p[0] = c[8];
for (i = 0; i < 8; i++) {
    p[i+1] = p[i]*x + c[7-i];
}
y = p[8];
"""

_DOT8 = """
s[0] = 0;
for (i = 0; i < 8; i++) {
    s[i+1] = s[i] + a[i]*b[i];
}
y = s[8];
"""

_MIXED = """
t = (a - b*c) / d;
u = -t + e*f;
v = u*u - g;
y = v + t*h;
"""


def _parse(src: str, outputs: list[str] | None = None
           ) -> Callable[[], CDFG]:
    return lambda: parse_program(src, outputs=outputs)


def _solver_kernel(horizon: int, obstacles: int) -> Callable[[], CDFG]:
    def build() -> CDFG:
        from ..solvers import generate_kernel, trajectory_problem

        kernel = generate_kernel(trajectory_problem(horizon, obstacles))
        return parse_program(kernel.source,
                             outputs=kernel.output_names)
    return build


def graph_targets() -> dict[str, Callable[[], CDFG]]:
    """Named CDFG builders (each call returns a fresh graph)."""
    return {
        "listing1": _parse(_LISTING1),
        "fir16": _parse(_FIR16, outputs=["y"]),
        "horner8": _parse(_HORNER8, outputs=["y"]),
        "dot8": _parse(_DOT8, outputs=["y"]),
        "mixed-ops": _parse(_MIXED, outputs=["y"]),
        "ldlsolve-small": _solver_kernel(2, 1),
        "ldlsolve-medium": _solver_kernel(4, 1),
    }


def netlist_targets() -> list[str]:
    """Every named unit design of the synthesis front-end."""
    return sorted(_FACTORIES)


def target_names() -> list[str]:
    """All analyzable target names (graphs, netlists, libraries)."""
    return (sorted(graph_targets())
            + [f"netlist:{n}" for n in netlist_targets()]
            + ["library:pcs", "library:fcs"])


def analyze_graph_target(name: str, build: Callable[[], CDFG],
                         device: FpgaDevice = VIRTEX6) -> list[Report]:
    """Full analysis of one kernel: format-flow on the graph as
    parsed, then -- per carry-save flavor -- after the FMA-insertion
    pass, plus schedule validation of its ASAP and bounded list
    schedules."""
    reports: list[Report] = []
    baseline = build()
    reports.append(verify_format_flow(baseline, target=f"{name}"))
    for flavor in ("pcs", "fcs"):
        tag = f"{name}/{flavor}"
        graph = build()
        library = default_library(device, fma_flavor=flavor,
                                  fma_limit=FMA_UNIT_LIMIT)
        try:
            run_fma_insertion(graph, library)
        except FmaPassVerificationError as exc:
            reports.append(exc.report)
            continue
        reports.append(verify_format_flow(graph, target=tag))
        reports.append(check_schedule(
            asap_schedule(graph, library), target=f"{tag}/asap"))
        reports.append(check_schedule(
            list_schedule(graph, library), target=f"{tag}/list"))
    return reports


def analyze_netlist_target(name: str,
                           device: FpgaDevice = VIRTEX6) -> Report:
    return lint_design(design_by_name(name, device), device)


def analyze_library_target(flavor: str,
                           device: FpgaDevice = VIRTEX6) -> Report:
    report = lint_library(default_library(device, fma_flavor=flavor),
                          device)
    report.target = f"library:{flavor}"
    return report


def analyze_all(device: FpgaDevice = VIRTEX6,
                names: list[str] | None = None) -> list[Report]:
    """Analyze every shipped target (or the named subset)."""
    graphs = graph_targets()
    selected = set(names) if names is not None else None

    def wanted(name: str) -> bool:
        return selected is None or name in selected

    reports: list[Report] = []
    for name, build in sorted(graphs.items()):
        if wanted(name):
            reports.extend(analyze_graph_target(name, build, device))
    for name in netlist_targets():
        if wanted(f"netlist:{name}"):
            reports.append(analyze_netlist_target(name, device))
    for flavor in ("pcs", "fcs"):
        if wanted(f"library:{flavor}"):
            reports.append(analyze_library_target(flavor, device))
    if selected is not None:
        known = set(target_names())
        for name in sorted(selected - known):
            raise KeyError(f"unknown target {name!r}; known: "
                           f"{', '.join(target_names())}")
    return reports
