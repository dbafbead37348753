"""Seeded violations: proof that the verifier has teeth.

A static analyzer that never fires is indistinguishable from one that
cannot fire (the same argument as the conformance mutation checks,
``docs/TESTING.md``).  Each seeded violation here constructs a
*minimally corrupted* artifact -- a graph with a deleted converter, an
FMA with swapped ports, a netlist with a narrowed window stage, a
schedule with an advanced start time -- and asserts that the analyzer
reports **exactly** the expected rule ids: no miss, and no collateral
noise.

The corruptions bypass the constructive checks on purpose (direct
operand mutation instead of :meth:`CDFG.add_op`), because the analyzer
exists precisely to catch graphs that were mutated behind the type
checker's back -- which is what a buggy compiler pass would produce.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from ..hls.frontend import parse_program
from ..hls.ir import CDFG, OpKind
from ..hls.operators import default_library
from ..hls.schedule import asap_schedule
from ..hw.components import make_csa_level, make_zero_detect
from ..hw.netlist import pcs_fma_design
from ..hw.technology import VIRTEX6, FpgaDevice
from .diagnostics import Report
from .format_flow import verify_format_flow
from .netlist_lint import lint_design, lint_library
from .schedule_check import check_schedule

__all__ = ["SeededViolation", "ViolationResult", "all_violations",
           "run_detection_suite"]


@dataclass(frozen=True)
class SeededViolation:
    """One corrupted artifact and the exact rule ids it must trigger."""

    name: str
    description: str
    expected: frozenset[str]
    run: Callable[[FpgaDevice], Report]


@dataclass(frozen=True)
class ViolationResult:
    name: str
    expected: frozenset[str]
    found: frozenset[str]
    report: Report

    @property
    def detected(self) -> bool:
        return self.found == self.expected


# ---------------------------------------------------------------------------
# graph corruption helpers
# ---------------------------------------------------------------------------

def _fused_chain() -> tuple[CDFG, dict[str, int]]:
    """A hand-built, well-formed fused datapath:
    ``y = (a + b*c  [as FMA]) + d`` with explicit converters."""
    g = CDFG()
    a = g.add_input("a")
    b = g.add_input("b")
    c = g.add_input("c")
    d = g.add_input("d")
    a_cs = g.add_op(OpKind.I2C, a)
    c_cs = g.add_op(OpKind.I2C, c)
    fma = g.add_op(OpKind.FMA, a_cs, b, c_cs, name="fma0")
    back = g.add_op(OpKind.C2I, fma)
    s = g.add_op(OpKind.ADD, back, d)
    out = g.add_output(s, "y")
    ids = {"a": a, "b": b, "c": c, "d": d, "a_cs": a_cs, "c_cs": c_cs,
           "fma": fma, "c2i": back, "add": s, "out": out}
    return g, ids


def _missing_converter(device: FpgaDevice) -> Report:
    """Delete the C2I between the FMA and the consuming adder."""
    g, ids = _fused_chain()
    g.rewire(ids["c2i"], ids["fma"])
    g.remove(ids["c2i"])
    return verify_format_flow(g, target="seed:missing-converter")


def _redundant_pair(device: FpgaDevice) -> Report:
    """Chain two FMAs through a C2I -> I2C round-trip the Fig. 12c
    cleanup should have collapsed."""
    g = CDFG()
    a = g.add_input("a")
    b = g.add_input("b")
    c = g.add_input("c")
    e = g.add_input("e")
    f = g.add_input("f")
    fma1 = g.add_op(OpKind.FMA, g.add_op(OpKind.I2C, a), b,
                    g.add_op(OpKind.I2C, c))
    back = g.add_op(OpKind.C2I, fma1)
    again = g.add_op(OpKind.I2C, back)          # the redundant pair
    fma2 = g.add_op(OpKind.FMA, again, e, g.add_op(OpKind.I2C, f))
    g.add_output(g.add_op(OpKind.C2I, fma2), "y")
    return verify_format_flow(g, target="seed:redundant-pair")


def _cs_to_output(device: FpgaDevice) -> Report:
    """Route the raw FMA result straight to an OUTPUT node."""
    g, ids = _fused_chain()
    # bypass every IEEE consumer: the output reads the CS word itself
    g.set_operands(ids["out"], [ids["fma"]])
    g.prune_dead()
    return verify_format_flow(g, target="seed:cs-to-output")


def _swapped_fma_ports(device: FpgaDevice) -> Report:
    """Swap the FMA's A (CS) and B (IEEE) operand ports."""
    g, ids = _fused_chain()
    a_cs, b, c_cs = g.nodes[ids["fma"]].operands
    g.set_operands(ids["fma"], [b, a_cs, c_cs])
    return verify_format_flow(g, target="seed:swapped-fma-ports")


def _dangling_operand(device: FpgaDevice) -> Report:
    """Point an operand at a node id that does not exist.

    ``a`` keeps its second consumer so the corruption orphans nothing
    -- the report must contain CS001 and only CS001."""
    g = CDFG()
    a = g.add_input("a")
    b = g.add_input("b")
    m = g.add_op(OpKind.MUL, a, b)
    s = g.add_op(OpKind.ADD, m, a)
    g.add_output(s, "y")
    g.set_operands(s, [m, 9999])
    return verify_format_flow(g, target="seed:dangling-operand")


def _graph_cycle(device: FpgaDevice) -> Report:
    """Close a dependence cycle between a multiplier and its adder
    (``a`` stays live through the adder, so only CS002 may fire)."""
    g = CDFG()
    a = g.add_input("a")
    b = g.add_input("b")
    m = g.add_op(OpKind.MUL, a, b)
    s = g.add_op(OpKind.ADD, m, a)
    g.add_output(s, "y")
    g.set_operands(m, [s, b])
    return verify_format_flow(g, target="seed:graph-cycle")


def _unreachable_node(device: FpgaDevice) -> Report:
    """Leave a dead multiplier behind (a pass that forgot prune_dead)."""
    g, ids = _fused_chain()
    g.add_op(OpKind.MUL, ids["a"], ids["b"], name="dead")
    return verify_format_flow(g, target="seed:unreachable-node")


# ---------------------------------------------------------------------------
# netlist / library corruptions
# ---------------------------------------------------------------------------

def _netlist_width(device: FpgaDevice) -> Report:
    """Narrow the PCS window 3:2 stage by one carry chunk."""
    design = pcs_fma_design(device)
    path = [make_csa_level(374, device, "window-3to2")
            if c.name == "window-3to2" else c for c in design.path]
    return lint_design(dataclasses.replace(design, path=path), device)


def _netlist_zd_blocks(device: FpgaDevice) -> Report:
    """Shrink the Zero Detector by one window block."""
    design = pcs_fma_design(device)
    path = [make_zero_detect(6, 55, device)
            if c.name.startswith("zd") else c for c in design.path]
    return lint_design(dataclasses.replace(design, path=path), device)


def _library_latency_drift(device: FpgaDevice) -> Report:
    """Hand-edit the scheduler's FMA latency away from the hardware."""
    library = default_library(device, fma_flavor="pcs")
    spec = library.specs["fma-pcs"]
    library.specs["fma-pcs"] = dataclasses.replace(
        spec, latency=spec.latency + 2)
    return lint_library(library, device)


# ---------------------------------------------------------------------------
# schedule corruptions
# ---------------------------------------------------------------------------

_TWO_MACS = """
y1 = a*b + c;
y2 = d*e + f;
"""


def _schedule_ready_time(device: FpgaDevice) -> Report:
    """Advance one operation to start before its operand finishes."""
    graph = parse_program(_TWO_MACS)
    library = default_library(device)
    sched = asap_schedule(graph, library)
    victim = max((nid for nid in graph.nodes
                  if graph.nodes[nid].operands),
                 key=lambda nid: sched.start[nid])
    sched.start[victim] -= 1
    return check_schedule(sched, target="seed:schedule-ready-time")


def _schedule_negative_start(device: FpgaDevice) -> Report:
    """Push a source node before cycle 0."""
    graph = parse_program(_TWO_MACS)
    library = default_library(device)
    sched = asap_schedule(graph, library)
    sched.start[graph.inputs()[0]] = -3
    return check_schedule(sched, target="seed:schedule-negative-start")


def _schedule_oversubscribed(device: FpgaDevice) -> Report:
    """Issue two FMAs in one cycle against a one-unit pool."""
    from ..hls.fma_pass import run_fma_insertion

    graph = parse_program(_TWO_MACS)
    library = default_library(device, fma_flavor="pcs")
    run_fma_insertion(graph, library)
    library.fma_limit = 1
    sched = asap_schedule(graph, library)   # ASAP ignores the pool
    return check_schedule(sched, target="seed:schedule-oversubscribed")


def all_violations() -> list[SeededViolation]:
    return [
        SeededViolation(
            "missing-converter",
            "C2I deleted between an FMA and an IEEE adder",
            frozenset({"CS004"}), _missing_converter),
        SeededViolation(
            "redundant-converter-pair",
            "C2I -> I2C round-trip left between chained FMAs",
            frozenset({"CS006"}), _redundant_pair),
        SeededViolation(
            "cs-to-output",
            "raw CS FMA result wired to an OUTPUT node",
            frozenset({"CS005"}), _cs_to_output),
        SeededViolation(
            "swapped-fma-ports",
            "FMA A (CS) and B (IEEE) operand ports exchanged",
            frozenset({"CS003", "CS004"}), _swapped_fma_ports),
        SeededViolation(
            "dangling-operand",
            "operand id points at a node that does not exist",
            frozenset({"CS001"}), _dangling_operand),
        SeededViolation(
            "graph-cycle",
            "dependence cycle between a multiplier and its adder",
            frozenset({"CS002"}), _graph_cycle),
        SeededViolation(
            "unreachable-node",
            "dead multiplier with no path to an output",
            frozenset({"CS008"}), _unreachable_node),
        SeededViolation(
            "netlist-stage-width",
            "PCS window 3:2 stage narrowed below the 385b window",
            frozenset({"NL001"}), _netlist_width),
        SeededViolation(
            "netlist-zd-blocks",
            "PCS Zero Detector covers 6 blocks instead of 7",
            frozenset({"NL002"}), _netlist_zd_blocks),
        SeededViolation(
            "library-latency-drift",
            "operator library schedules the PCS-FMA 2 cycles slow",
            frozenset({"NL008"}), _library_latency_drift),
        SeededViolation(
            "schedule-ready-time",
            "operation starts before its operand finishes",
            frozenset({"SCH001"}), _schedule_ready_time),
        SeededViolation(
            "schedule-negative-start",
            "input scheduled before cycle 0",
            frozenset({"SCH003"}), _schedule_negative_start),
        SeededViolation(
            "schedule-oversubscribed",
            "two FMA issues in one cycle against a one-unit pool",
            frozenset({"SCH004"}), _schedule_oversubscribed),
    ]


def run_detection_suite(device: FpgaDevice = VIRTEX6
                        ) -> list[ViolationResult]:
    """Run every seeded violation; each must yield exactly its
    expected rule ids."""
    results = []
    for v in all_violations():
        report = v.run(device)
        results.append(ViolationResult(
            v.name, v.expected, frozenset(report.rule_ids()), report))
    return results
