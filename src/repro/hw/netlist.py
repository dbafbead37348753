"""Architecture netlists: the component chains of every evaluated unit.

Each function returns a :class:`UnitDesign`: the ordered critical-path
component chain (input of the pipeline cutter) plus the off-path blocks
that the paper explicitly runs in parallel with the critical path (the
addend pre-shifter, A's rounding unit, the early LZA, exponent logic).
Off-path blocks contribute area and energy but not latency.

Latency policy
--------------
* The paper's own units are "manually pipelined to 200 MHz" -- their
  cycle counts are *derived* by the pipeline cutter.
* The CoreGen IPs are fixed-latency vendor configurations; the paper
  names the ones it picked ("low latency" 5-cycle multiplier, 4-cycle
  adder), so those designs carry ``fixed_cycles`` and the model derives
  the fmax a balanced register placement achieves.
* FloPoCo's FPPipeline produced an 11-stage pipeline at the 200 MHz
  target (Table I); its un-retimed add/complement section is the stage
  that misses the target (190 MHz), which the model reproduces with an
  atomic add section.

DSP policy (see :mod:`repro.hw.components`): CoreGen/PCS use the full
24x17 tiling plus one accumulation DSP; FloPoCo uses a Karatsuba
decomposition; the FCS multiplier keeps its product in carry-save form
and truncates the lowest tile column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fma.formats import CSFmaParams, FCS_PARAMS, PCS_PARAMS
from .components import (Component, dsp_tiles, karatsuba_dsps, make_adder,
                         make_csa_level, make_csa_tree, make_dsp_cascade,
                         make_dsp_mult_stage, make_dsp_preadd,
                         make_exponent_logic, make_logic, make_lza,
                         make_mux, make_pack, make_rounder, make_shifter,
                         make_unpack, make_zero_detect, truncated_dsp_tiles)
from .technology import FpgaDevice

__all__ = [
    "UnitDesign",
    "coregen_multiplier",
    "coregen_adder",
    "coregen_mul_add",
    "flopoco_fppipeline",
    "classic_fma_design",
    "pcs_fma_design",
    "fcs_fma_design",
    "divider_design",
    "ieee_to_cs_converter",
    "cs_to_ieee_converter",
    "design_by_name",
    "make_block_zero_detect",
]


@dataclass
class UnitDesign:
    """A unit's critical path + parallel blocks, ready for synthesis.

    ``fixed_cycles`` pins the latency of vendor IP configurations;
    ``subunits`` marks composites (discrete mul followed by add) whose
    parts are pipelined independently.
    """

    name: str
    path: list[Component]
    offpath: list[Component] = field(default_factory=list)
    fixed_cycles: int | None = None
    subunits: list["UnitDesign"] = field(default_factory=list)
    #: wires of the wide adder-window fabric routed across the unit
    #: (drives the long-net routing energy term; 0 for narrow datapaths)
    window_wires: int = 0

    @property
    def luts(self) -> int:
        return sum(c.luts for c in self.path) + \
            sum(c.luts for c in self.offpath)

    @property
    def dsps(self) -> int:
        return sum(c.dsps for c in self.path) + \
            sum(c.dsps for c in self.offpath)

    def all_components(self) -> list[Component]:
        return list(self.path) + list(self.offpath)


def make_block_zero_detect(blocks: int, block_size: int,
                           device: FpgaDevice) -> Component:
    """The PCS Zero Detector modeled as per-block digit-pattern LUT
    reduction plus a block-granular lookahead on the slice carry chain
    (Fig. 10 rules; "the latter is now critical and determines the total
    FMA latency", Sec. III-F)."""
    import math

    per_block_levels = math.ceil(math.log(max(2 * block_size, 2), 8))
    zd = make_zero_detect(blocks, block_size, device)
    delay = per_block_levels * device.lut_level_ns + \
        device.adder_comb_ns(blocks)
    return Component(zd.name, delay, zd.luts, 0, zd.reg_bits,
                     zd.toggle_bits)


# ---------------------------------------------------------------------------
# Xilinx CoreGen-like discrete IP (Table I row 1)
# ---------------------------------------------------------------------------

def coregen_multiplier(device: FpgaDevice) -> UnitDesign:
    """53x53 'low latency' 5-cycle double multiplier (full DSP usage)."""
    tiles = dsp_tiles(53, 53, device)
    path = [
        make_unpack(64, device),
        make_dsp_mult_stage(tiles, device),
        make_dsp_cascade(1, device, "dsp-cascade-a"),
        make_dsp_cascade(1, device, "dsp-cascade-b"),
        make_csa_level(106, device, "pp-merge"),
        make_adder(58, device, "mant-add"),
        make_logic("normalize1", 1.0, 60, device, reg_bits=54),
        make_rounder(53, device),
        make_pack(64, device),
    ]
    offpath = [make_csa_tree(5, 106, device, "pp-tree", on_path_levels=0),
               make_exponent_logic(device)]
    return UnitDesign("coregen-mul", path, offpath, fixed_cycles=5)


def coregen_adder(device: FpgaDevice) -> UnitDesign:
    """'Low latency' 4-cycle double adder."""
    path = [
        make_unpack(64, device),
        make_logic("swap-expdiff", 1.0, 90, device, reg_bits=120),
        make_shifter(56, 56, device, "align"),
        make_adder(57, device, "mant-add"),
        make_shifter(56, 56, device, "normalize"),
        make_rounder(53, device),
        make_pack(64, device),
    ]
    offpath = [make_lza(57, device), make_exponent_logic(device)]
    return UnitDesign("coregen-add", path, offpath, fixed_cycles=4)


def coregen_mul_add(device: FpgaDevice) -> UnitDesign:
    """The discrete multiply-then-add datapath Table I reports: the two
    IPs back to back (cycles add; fmax is the slower of the two)."""
    mul = coregen_multiplier(device)
    add = coregen_adder(device)
    return UnitDesign("coregen", mul.path + add.path,
                      mul.offpath + add.offpath,
                      subunits=[mul, add])


# ---------------------------------------------------------------------------
# FloPoCo FPPipeline (Table I row 2)
# ---------------------------------------------------------------------------

def flopoco_fppipeline(device: FpgaDevice) -> UnitDesign:
    """FloPoCo's fused mul+add pipeline (FPPipeline command, [24]).

    Karatsuba multiplier (fewest DSPs in the field), conservative
    per-operator registering (11 stages at the 200 MHz target), and an
    add/complement section that ISE could not retime apart -- the stage
    that limits the unit to 190 MHz in Table I.
    """
    dsps = karatsuba_dsps(53, device)
    add_section = Component(
        "add-complement-section",
        delay_ns=device.adder_comb_ns(110) + 1.8 * device.lut_level_ns,
        luts=110 + 130,
        reg_bits=112,
        toggle_bits=240,
    )
    path = [
        make_unpack(64, device, "unpack-bc"),
        make_dsp_mult_stage(dsps, device),
        make_dsp_cascade(1, device),
        make_csa_level(106, device, "karatsuba-recombine"),
        make_csa_level(106, device, "pp-merge"),
        make_adder(106, device, "prod-add"),
        make_logic("swap-expdiff", 1.0, 90, device, reg_bits=130),
        make_shifter(57, 108, device, "align"),
        add_section,
        make_shifter(108, 110, device, "normalize"),
        make_rounder(53, device),
        make_pack(64, device),
    ]
    offpath = [make_logic("lzc", 2.0, 120, device),
               make_exponent_logic(device),
               make_csa_tree(4, 106, device, "karatsuba-adders",
                             on_path_levels=0)]
    return UnitDesign("flopoco", path, offpath, fixed_cycles=11)


# ---------------------------------------------------------------------------
# Classic FMA baseline (Fig. 4; used by the HLS operator library)
# ---------------------------------------------------------------------------

def classic_fma_design(device: FpgaDevice) -> UnitDesign:
    """Classic 1990 FMA: CS product, 161b adder, LZA + full shifter."""
    tiles = dsp_tiles(53, 53, device)
    path = [
        make_unpack(64, device),
        make_dsp_mult_stage(tiles, device),
        make_dsp_cascade(1, device),
        make_csa_level(161, device, "addend-inject"),
        make_adder(161, device, "main-add"),
        make_logic("complement", 1.0, 161, device, reg_bits=161),
        make_shifter(161, 161, device, "normalize"),
        make_rounder(53, device),
        make_pack(64, device),
    ]
    offpath = [make_shifter(55, 161, device, "pre-align"),
               make_lza(161, device), make_exponent_logic(device),
               make_csa_tree(6, 161, device, "pp-tree", on_path_levels=0)]
    return UnitDesign("classic-fma", path, offpath)


# ---------------------------------------------------------------------------
# PCS-FMA (Fig. 9, Table I row 3)
# ---------------------------------------------------------------------------

def pcs_fma_design(device: FpgaDevice,
                   params: CSFmaParams = PCS_PARAMS) -> UnitDesign:
    """The PCS-FMA unit: 53 x 110 DSP multiplier with the integrated
    rounding row, 385b window 3:2 + Carry Reduce, ZD, 6:1 mux.

    The DSP cascades leave ~8 rows (tile column sums, PCS carry rows,
    the Fig. 6 correction row, the injected addend) for the LUT-side
    compressor tree; two of its levels land on the critical path.
    """
    W = params.window_width
    pw = params.product_width
    tiles = dsp_tiles(params.mant_width, 53, device)
    result_w = params.mant_width + params.block
    path = [
        make_dsp_mult_stage(tiles, device),
        make_dsp_cascade(1, device, "dsp-cascade-a"),
        make_dsp_cascade(1, device, "dsp-cascade-b"),
        make_csa_tree(8, pw, device, "pp-lut-tree", on_path_levels=2),
        make_csa_level(W, device, "window-3to2"),
        make_adder(params.carry_spacing, device, "carry-reduce"),
        make_block_zero_detect(params.window_blocks, params.block, device),
        make_mux(params.mux_positions, result_w, device, "result-mux"),
        make_logic("round-data-slice", 1.0, 140, device,
                   reg_bits=params.operand_bits),
    ]
    # Carry Reduce is physically 35 parallel 11b adders across the window
    cr_lanes = make_logic("carry-reduce-lanes", 0.0, W - params.carry_spacing,
                          device, toggle_bits=W)
    offpath = [
        make_shifter(result_w, params.addend_max_pos + 1, device,
                     "a-preshift"),
        make_rounder(params.mant_width, device),        # A's rounding unit
        make_logic("c-round-decide", 2.0, 110, device),  # Fig. 6 decision
        make_logic("operand-decode", 1.0, 2 * params.operand_bits // 4,
                   device),
        make_logic("deferred-round-datapath", 1.0, 300, device),
        cr_lanes,
        make_csa_tree(6, W, device, "window-carry-rows", on_path_levels=0),
        make_exponent_logic(device),
    ]
    # PCS window fabric: 385 sum wires + 35 explicit carries (cleaned by
    # Carry Reduce, so they toggle at the low post-reduce rate).
    return UnitDesign("pcs-fma", path, offpath,
                      window_wires=W + W // params.carry_spacing)


# ---------------------------------------------------------------------------
# FCS-FMA (Fig. 11, Table I row 4)
# ---------------------------------------------------------------------------

def fcs_fma_design(device: FpgaDevice,
                   params: CSFmaParams = FCS_PARAMS) -> UnitDesign:
    """The FCS-FMA unit: DSP pre-adders convert the FCS operand blocks,
    a truncated 53 x 87 carry-save-output multiplier, no Carry Reduce,
    early block LZA (off the critical path), 11:1 result mux over the
    13-block window -- the wide, high-fanout mux is what limits fmax
    (the paper's "routing difficulties")."""
    W = params.window_width
    tiles = truncated_dsp_tiles(params.mant_width, 53, device)
    result_w = 2 * (params.mant_width + params.block)  # FCS: sum + carry
    path = [
        make_dsp_preadd(device),
        make_dsp_mult_stage(tiles, device),
        make_dsp_cascade(1, device),
        make_csa_tree(6, params.product_width, device, "pp-lut-tree",
                      on_path_levels=1),
        make_csa_level(W, device, "window-3to2"),
        make_mux(params.mux_positions, result_w, device, "result-mux"),
        make_logic("round-data-slice", 1.0, 140, device,
                   reg_bits=result_w + 12),
    ]
    offpath = [
        make_shifter(result_w, params.addend_max_pos + 1, device,
                     "a-preshift"),
        make_rounder(params.mant_width, device),
        make_logic("c-round-decide", 2.0, 80, device),
        make_logic("operand-decode", 1.0, result_w // 3, device),
        make_lza(W, device),                   # early block LZA
        make_csa_tree(4, W, device, "window-carry-rows", on_path_levels=0),
        make_exponent_logic(device),
    ]
    # FCS window fabric: every digit is two physical wires (sum + carry)
    # and there is no Carry Reduce to clean them -- 754 high-activity
    # long nets, the dominant routing-energy term of Table II.
    return UnitDesign("fcs-fma", path, offpath, window_wires=2 * W)


# ---------------------------------------------------------------------------
# IEEE divider (used by the solver factorization phase, not by the
# multiply-add-shaped ldlsolve() the paper accelerates)
# ---------------------------------------------------------------------------

def divider_design(device: FpgaDevice) -> UnitDesign:
    """Binary64 divider: a radix-4 SRT pipeline.

    27 quotient-digit stages (two bits each) plus unpack, quotient
    conversion, rounding and pack.  Deep but narrow -- the reason solver
    generators like CVXGEN keep divisions out of the per-iteration
    `ldlsolve()` hot path.
    """
    path: list[Component] = [make_unpack(64, device)]
    for i in range(27):
        path.append(make_logic(f"srt-stage-{i}", 2.0, 70, device,
                               reg_bits=120))
    path.extend([
        make_logic("quotient-convert", 1.0, 60, device, reg_bits=56),
        make_rounder(53, device),
        make_pack(64, device),
    ])
    offpath = [make_exponent_logic(device)]
    return UnitDesign("divider", path, offpath)


# ---------------------------------------------------------------------------
# HLS format converters (Sec. III-I)
# ---------------------------------------------------------------------------

def ieee_to_cs_converter(device: FpgaDevice,
                         params: CSFmaParams = PCS_PARAMS) -> UnitDesign:
    """IEEE -> CS: conditional complement + fixed rewiring (cheap)."""
    path = [
        make_unpack(64, device),
        make_adder(params.mant_width, device, "complement"),
    ]
    return UnitDesign(f"ieee2{params.name}", path)


def cs_to_ieee_converter(device: FpgaDevice,
                         params: CSFmaParams = PCS_PARAMS) -> UnitDesign:
    """CS -> IEEE: carry collapse, sign, full normalization, rounding --
    the expensive direction the HLS pass tries to eliminate."""
    path = [
        make_adder(params.mant_width, device, "carry-collapse"),
        make_logic("complement", 1.0, params.mant_width, device,
                   reg_bits=params.mant_width),
        make_shifter(params.mant_width, params.mant_width, device,
                     "normalize"),
        make_rounder(53, device),
        make_pack(64, device),
    ]
    offpath = [make_exponent_logic(device)]
    return UnitDesign(f"{params.name}2ieee", path, offpath)


_FACTORIES = {
    "coregen-mul": coregen_multiplier,
    "coregen-add": coregen_adder,
    "coregen": coregen_mul_add,
    "flopoco": flopoco_fppipeline,
    "classic-fma": classic_fma_design,
    "divider": divider_design,
    "pcs-fma": pcs_fma_design,
    "fcs-fma": fcs_fma_design,
}


def design_by_name(name: str, device: FpgaDevice) -> UnitDesign:
    """Instantiate one of the evaluated architectures on a device."""
    try:
        return _FACTORIES[name](device)
    except KeyError:
        raise KeyError(f"unknown design {name!r}; known: "
                       f"{sorted(_FACTORIES)}") from None
