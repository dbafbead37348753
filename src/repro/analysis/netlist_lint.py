"""Netlist consistency lint over hardware unit designs (``NL001+``).

The :mod:`repro.hw.netlist` factories assemble each FMA unit's
component chain by hand; nothing forces the stage geometry to agree
with the operand-format constants of :mod:`repro.fma.formats` (the
110-bit / 11-bit-chunk PCS mantissa, the 87-digit / 29-digit-block FCS
mantissa, the 7x55b and 13x29c adder windows).  This lint re-derives
the expected geometry of every named stage from the
:class:`~repro.fma.formats.CSFmaParams` and reports any drift, plus
generic cost-sanity checks, plus a cross-check of the HLS operator
library's latencies against the pipeline depths the hardware model
actually synthesizes.
"""

from __future__ import annotations

import math

from ..fma.formats import CSFmaParams, FCS_PARAMS, PCS_PARAMS
from ..hls.operators import POOL_DESIGNS, OperatorLibrary, synthesize_pool
from ..hw.components import Component, lut_levels_for_mux
from ..hw.netlist import UnitDesign
from ..hw.technology import VIRTEX6, FpgaDevice
from .diagnostics import Report

__all__ = ["lint_design", "lint_library", "params_for_design"]


def params_for_design(design: UnitDesign) -> CSFmaParams | None:
    """The operand format a carry-save unit implements, by name."""
    return {"pcs-fma": PCS_PARAMS, "fcs-fma": FCS_PARAMS}.get(design.name)


def _find(components: list[Component], name: str) -> Component | None:
    for c in components:
        if c.name == name:
            return c
    return None


def _find_prefix(components: list[Component],
                 prefix: str) -> Component | None:
    for c in components:
        if c.name.startswith(prefix):
            return c
    return None


def _check_sanity(report: Report, design: UnitDesign) -> None:
    """NL007: component costs must be physically plausible."""
    if not design.path:
        report.emit("NL007", "design has an empty critical path")
    for c in design.all_components():
        problems = []
        if not math.isfinite(c.delay_ns) or c.delay_ns < 0:
            problems.append(f"delay {c.delay_ns!r} ns")
        if c.luts < 0:
            problems.append(f"{c.luts} LUTs")
        if c.dsps < 0:
            problems.append(f"{c.dsps} DSPs")
        if c.reg_bits < 0:
            problems.append(f"{c.reg_bits} register bits")
        if c.toggle_bits < 0:
            problems.append(f"{c.toggle_bits} toggle bits")
        if problems:
            report.emit("NL007",
                        "implausible cost: " + ", ".join(problems),
                        f"component {c.name!r}")


def _check_cs_geometry(report: Report, design: UnitDesign,
                       params: CSFmaParams) -> None:
    """NL001-NL006: stage geometry against the format constants."""
    W = params.window_width
    full_cs = params.carry_spacing == 1
    result_w = params.mant_width + params.block
    if full_cs:
        result_w *= 2          # FCS results travel as sum + carry words

    # NL001 -- window 3:2 compressor spans the whole adder window
    win = _find(design.path, "window-3to2")
    if win is None:
        report.emit("NL001", "no window-3to2 stage on the critical path")
    elif win.luts != W:
        report.emit("NL001",
                    f"window 3:2 stage is {win.luts} bits wide, format "
                    f"window is {W} ({params.window_blocks} x "
                    f"{params.block})", "component 'window-3to2'")

    # NL002 -- zero-detection geometry per flavor
    zd = _find_prefix(design.path, "zd")
    if full_cs:
        if zd is not None:
            report.emit("NL002",
                        "full-carry-save unit carries a block Zero "
                        "Detector on its critical path; the FCS unit "
                        "uses an early off-path block LZA (Sec. III-H)",
                        f"component {zd.name!r}")
        lza = _find_prefix(design.offpath, "lza")
        want_lza = f"lza{W}"
        if lza is None:
            report.emit("NL002",
                        f"no early block LZA ({want_lza!r}) in the "
                        "off-path blocks")
        elif lza.name != want_lza:
            report.emit("NL002",
                        f"early block LZA is {lza.name!r}, format "
                        f"window needs {want_lza!r}",
                        f"component {lza.name!r}")
    else:
        want_zd = f"zd{params.window_blocks}x{params.block}"
        if zd is None:
            report.emit("NL002",
                        f"no block Zero Detector ({want_zd!r}) on the "
                        "critical path (Fig. 10: the ZD determines the "
                        "total FMA latency)")
        elif zd.name != want_zd:
            report.emit("NL002",
                        f"Zero Detector is {zd.name!r}, format window "
                        f"is {params.window_blocks} blocks of "
                        f"{params.block} digits ({want_zd!r})",
                        f"component {zd.name!r}")

    # NL003 -- Carry Reduce: spacing-wide for PCS, absent for FCS
    cr = _find(design.path, "carry-reduce")
    if full_cs:
        if cr is not None:
            report.emit("NL003",
                        "full-carry-save unit has a Carry Reduce "
                        "stage; FCS keeps explicit carries everywhere "
                        "(Sec. III-H)", "component 'carry-reduce'")
    else:
        if cr is None:
            report.emit("NL003",
                        "no Carry Reduce stage on the critical path")
        elif cr.luts != params.carry_spacing:
            report.emit("NL003",
                        f"Carry Reduce adder is {cr.luts} bits wide, "
                        f"carry spacing is {params.carry_spacing}",
                        "component 'carry-reduce'")

    # NL004 -- final block multiplexer geometry
    mux = _find(design.path, "result-mux")
    want_luts = result_w * max(1, (params.mux_positions - 1) // 2)
    if mux is None:
        report.emit("NL004", "no result-mux stage on the critical path")
    else:
        if mux.reg_bits != result_w:
            report.emit("NL004",
                        f"result mux is {mux.reg_bits} bits wide, "
                        f"format result is {result_w}",
                        "component 'result-mux'")
        if mux.luts != want_luts:
            report.emit("NL004",
                        f"result mux area ({mux.luts} LUTs) does not "
                        f"match a {params.mux_positions}:1 select over "
                        f"{result_w} bits ({want_luts} LUTs)",
                        "component 'result-mux'")

    # NL005 -- addend pre-shifter spans the alignment window
    positions = params.addend_max_pos + 1
    want_shift = result_w * lut_levels_for_mux(positions)
    pre = _find(design.offpath, "a-preshift")
    if pre is None:
        report.emit("NL005",
                    "no addend pre-shifter in the off-path blocks")
    elif pre.luts != want_shift:
        report.emit("NL005",
                    f"pre-shifter area ({pre.luts} LUTs) does not "
                    f"match the {positions}-position alignment window "
                    f"over {result_w} bits ({want_shift} LUTs)",
                    "component 'a-preshift'")

    # NL006 -- window fabric wire count (the routing-energy term)
    want_wires = 2 * W if full_cs else W + W // params.carry_spacing
    if design.window_wires != want_wires:
        report.emit("NL006",
                    f"window fabric has {design.window_wires} wires, "
                    f"format implies {want_wires}")


def lint_design(design: UnitDesign, device: FpgaDevice = VIRTEX6,
                params: CSFmaParams | None = None) -> Report:
    """Lint one unit design.

    Carry-save units (``pcs-fma`` / ``fcs-fma``, or any design with an
    explicit ``params``) get the full NL001-NL006 geometry check
    against their operand format; every design gets the NL007 cost
    sanity check.
    """
    report = Report(target=f"netlist:{design.name}")
    _check_sanity(report, design)
    if params is None:
        params = params_for_design(design)
    if params is not None:
        _check_cs_geometry(report, design, params)
    for sub in design.subunits:
        report.extend(lint_design(sub, device))
    return report


def lint_library(library: OperatorLibrary, device: FpgaDevice = VIRTEX6,
                 target_mhz: float = 200.0) -> Report:
    """NL008: the latencies the scheduler plans with must equal the
    pipeline depths the hardware model synthesizes for the same units
    at the same clock target, each pool's unit taken from
    :data:`~repro.hls.operators.POOL_DESIGNS` (as
    :func:`~repro.hls.operators.default_library` does; hand-edited
    specs drift)."""
    report = Report(target="operator-library")
    for key, spec in library.specs.items():
        if key not in POOL_DESIGNS:
            continue
        synth = synthesize_pool(key, library.fma_flavor, device,
                                target_mhz)
        if spec.latency != synth.cycles:
            report.emit("NL008",
                        f"library schedules {key!r} at {spec.latency} "
                        f"cycle(s); the hardware model pipelines "
                        f"{synth.name!r} to {synth.cycles} cycle(s) at "
                        f"{target_mhz:g} MHz", f"operator {key!r}")
    return report
