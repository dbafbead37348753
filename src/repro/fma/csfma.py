"""The carry-save FMA datapath: PCS-FMA (Fig. 9) and FCS-FMA (Fig. 11).

Both units compute ``R = A + B * C`` with the time-critical operands
``A``/``C`` in carry-save format and ``B`` in IEEE 754 binary64.  The
datapath stages model the paper's architecture faithfully at digit level:

1. **Deferred rounding of C** (Fig. 6): the multiplier uses the
   *unrounded* ``C_M``; when the bounded inspection of C's rounding-data
   block says "round up", one extra ``B_M`` row enters the CSA tree
   (``B*(C+1) = B*C + B``).
2. **Dedicated rounding + pre-shift of A** (Fig. 5/9): A's rounding adder
   collapses its CS pair to plain two's complement in parallel with the
   multiplication; the alignment shifter then places it in the adder
   window (truncating bits shifted past either end).
3. **Wide carry-save addition**: product-sum, product-carry and the
   aligned addend reduce through a 3:2 level into the window's CS pair.
4. **Carry Reduce** (PCS only, Sec. III-E): independent 11-bit chunk
   adders leave one explicit carry per chunk.
5. **Block normalization**: the Zero Detector (PCS, Fig. 10 rules) or the
   early block-granular LZA (FCS, Sec. III-G) picks the most significant
   non-skippable block; a 6-to-1 / 11-to-1 multiplexer emits the
   ``mant_blocks``-block result plus the next block as rounding data.
   There is no variable-distance shifter anywhere (Sec. III-D).

Modeling liberties (documented in DESIGN.md):

* When the addend is so much larger than the product that the product
  falls below the window, the product is floor-shifted as a collapsed
  value (hardware would truncate the two CS words separately; the
  difference is at most one window-LSB ULP, below the rounding block).
* The FCS unit's per-input block LZA is modeled by one Schmookler-style
  anticipator over the aligned addend and the collapsed product, which
  has a *tighter* (<= 1 bit) error than the <= 3-bit budget the paper
  sizes its blocks for -- a legal instance of the architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cs.adders import carry_reduce
from ..cs.csa import csa_tree_depth, reduce_rows
from ..cs.csnumber import CSNumber
from ..cs.lza import lza_estimate
from ..cs.multiplier import multiply_mantissa
from ..cs.zero_detect import count_skippable_blocks
from ..fp.value import FpClass, FPValue
from ..guard import residue as _gd
from ..probes import probe
from ..telemetry import core as _tm
from .formats import (CSFloat, CSFmaParams, FCS_PARAMS, PCS_PARAMS,
                      round_decision)

__all__ = ["CSFmaUnit", "PcsFmaUnit", "FcsFmaUnit", "FmaTrace"]


@dataclass
class FmaTrace:
    """Internal datapath signals of one FMA evaluation.

    Consumed by the switching-activity energy model and by tests that
    assert architectural invariants (e.g. that the ZD never skips a
    value-changing block).
    """

    dec_a: int = 0
    dec_c: int = 0
    product_rows: int = 0
    tree_depth: int = 0
    a_pos: int = 0
    p_pos: int = 0
    window_sum: int = 0
    window_carry: int = 0
    skipped_blocks: int = 0
    lza_estimate: int | None = None
    result_exp: int | None = None
    toggled_words: list[int] = field(default_factory=list)


class CSFmaUnit:
    """A fused multiply-add unit over a carry-save operand format.

    Parameters
    ----------
    params:
        Architecture parameters (:data:`~repro.fma.formats.PCS_PARAMS` or
        :data:`~repro.fma.formats.FCS_PARAMS` for the paper's units).
    selector:
        ``"zd"`` -- exact block Zero Detector with the Fig. 10 rules
        (PCS-FMA); ``"lza"`` -- early leading-zero anticipation at block
        granularity (FCS-FMA, Sec. III-G).
    use_carry_reduce:
        Run the Carry Reduce stage after the adder (PCS); the FCS unit
        eliminates it via the DSP48E1 pre-adders (Sec. III-H).
    """

    def __init__(self, params: CSFmaParams, *, selector: str = "zd",
                 use_carry_reduce: bool = True):
        if selector not in ("zd", "lza"):
            raise ValueError("selector must be 'zd' or 'lza'")
        self.params = params
        self.selector = selector
        self.use_carry_reduce = use_carry_reduce

    # ------------------------------------------------------------------

    def fma(self, a: CSFloat, b: FPValue, c: CSFloat,
            trace: FmaTrace | None = None) -> CSFloat:
        """Compute ``a + b * c`` in the unit's operand format."""
        p = self.params
        if a.params is not p or c.params is not p:
            raise ValueError("operand format does not match this unit")

        tm = _tm.ACTIVE
        g = _gd.ACTIVE
        if g is not None:
            g = g.state  # None unless this thread is guarding
        if tm is not None:
            tm.count(f"fma.scalar.call.{p.name}")

        special = self._special_case(a, b, c)
        if special is not None:
            if tm is not None:
                tm.count("fma.scalar.special.nan" if special.is_nan
                         else "fma.scalar.special.inf")
            return special

        t = trace if trace is not None else FmaTrace()

        # --- stage 1: deferred rounding decisions -----------------------
        dec_c = (round_decision(c.round_data, p.block)
                 if c.is_normal else 0)
        dec_a = (round_decision(a.round_data, p.block)
                 if a.is_normal else 0)
        t.dec_a, t.dec_c = dec_a, dec_c

        c_used = c.mant_signed() + dec_c if c.is_normal else 0
        a_used = a.mant_signed() + dec_a if a.is_normal else 0
        p_nonzero = b.is_normal and c.is_normal and c_used != 0
        a_nonzero = a.is_normal and a_used != 0

        if not p_nonzero and not a_nonzero:
            if tm is not None:
                tm.count("fma.scalar.trivial_zero")
            sign = a.sign if a.is_zero else 0
            return CSFloat.zero(p, sign)

        W = p.window_width
        wmask = (1 << W) - 1

        # --- stage 2: window anchoring ----------------------------------
        # w0 = unbiased weight exponent of window bit 0.
        if p_nonzero:
            e_f = b.unbiased_exponent + c.exp
            w0 = e_f - (p.b_sig_bits - 1) - p.frac_bits - p.product_lsb
            if a_nonzero:
                w0 = max(w0, a.exp - p.frac_bits - p.addend_max_pos)
        else:
            e_f = 0
            w0 = a.exp - p.frac_bits - p.addend_max_pos

        # --- stage 3: the multiplier (Fig. 6) ----------------------------
        rows: list[int] = []
        product_row_words: list[int] = []
        a_row_word = 0
        if p_nonzero:
            p_pos = (e_f - (p.b_sig_bits - 1) - p.frac_bits) - w0
            t.p_pos = p_pos
            c_tc = c.mant.sum  # raw words; wrap-encoded two's complement
            c_tc = (c_tc + c.mant.carry) & ((1 << p.mant_width) - 1)
            if p_pos >= 0:
                # Multiply directly into the (window - shift) modulus so
                # the left shift commutes with the two's-complement wrap.
                mres = multiply_mantissa(
                    b.significand, p.b_sig_bits, c_tc, p.mant_width,
                    negate=bool(b.sign), round_up_c=bool(dec_c),
                    out_width=W - p_pos)
                rows.append((mres.product.sum << p_pos) & wmask)
                rows.append((mres.product.carry << p_pos) & wmask)
            else:
                # Product below the window (huge addend): floor-shift the
                # collapsed product (documented modeling liberty).
                if tm is not None:
                    tm.count("fma.scalar.product_below_window")
                mres = multiply_mantissa(
                    b.significand, p.b_sig_bits, c_tc, p.mant_width,
                    negate=bool(b.sign), round_up_c=bool(dec_c),
                    out_width=p.product_width)
                pv = mres.product.signed_value() >> (-p_pos)
                rows.append(pv & wmask)
            product_row_words = list(rows)
            t.product_rows = mres.rows
            t.tree_depth = csa_tree_depth(mres.rows)

        # --- stage 4: addend rounding + pre-shift ------------------------
        if a_nonzero:
            a_pos = (a.exp - p.frac_bits) - w0
            t.a_pos = a_pos
            if a_pos >= 0:
                if a_pos > p.addend_max_pos:
                    raise AssertionError("window anchoring failed")
                a_row_word = (a_used << a_pos) & wmask
            else:
                a_row_word = (a_used >> (-a_pos)) & wmask
            rows.append(a_row_word)

        # --- stage 5: wide carry-save addition ---------------------------
        red = reduce_rows(rows, width=W)
        window = CSNumber(red.sum, red.carry & wmask, W)
        # fault-injection probe: the window digit sum/carry planes
        window = probe("fma.window", window)

        # --- stage 6: carry reduce (PCS) ---------------------------------
        if self.use_carry_reduce:
            window = carry_reduce(window, p.carry_spacing)
            window = CSNumber(window.sum, window.carry & wmask, W)

        value = (window.sum + window.carry) & wmask
        t.window_sum, t.window_carry = window.sum, window.carry
        if g is not None:
            # residue shadow: the 3:2 compressor and the Carry Reduce
            # stage both conserve the row sum under the window wrap
            g.check_window(window.sum, window.carry, sum(rows), W)
        if value == 0:
            if tm is not None:
                tm.count("fma.scalar.cancel_to_zero")
            return CSFloat.zero(p)

        # --- stage 7: block normalization --------------------------------
        max_skip = p.window_blocks - p.mant_blocks
        if self.selector == "zd":
            skipped = count_skippable_blocks(window, p.block,
                                             max_skip=max_skip)
        else:
            prod_word = sum(product_row_words) & wmask
            est = lza_estimate(a_row_word, prod_word, W)
            t.lza_estimate = est
            # Keep at least one redundant sign bit in the selected window:
            # skipping exactly `est` bits could place the value's MSB at
            # the slice's sign position and flip the result's sign.
            skipped = min(max(est - 1, 0) // p.block, max_skip)
        t.skipped_blocks = skipped
        if g is not None:
            # normalization shadow: an independent skip-count recompute
            # (closed-form sign-bit count for the ZD, a probe-free second
            # anticipator pass for the LZA)
            if self.selector == "zd":
                shadow = _gd.zd_shadow(value, W, p.block, max_skip)
            else:
                est_ref = _gd.lza_shadow(a_row_word, prod_word, W)
                shadow = min(max(est_ref - 1, 0) // p.block, max_skip)
            g.check_norm(skipped, shadow, self.selector)
        if tm is not None:
            # which normalization path produced the block-skip decision
            tm.count("fma.scalar.norm.zd" if self.selector == "zd"
                     else "fma.scalar.norm.lza")
            if skipped == max_skip:
                tm.count("fma.scalar.norm.max_skip")

        j_top = p.window_blocks - 1 - skipped
        lo = p.block * (j_top - (p.mant_blocks - 1))

        # --- stage 8: result and rounding-data slice ---------------------
        mant_mask = (1 << p.mant_width) - 1
        m_sum = (window.sum >> lo) & mant_mask
        m_carry = (window.carry >> lo) & mant_mask & p.mant_carry_mask
        dropped_carry = ((window.carry >> lo) & mant_mask) & ~p.mant_carry_mask
        if dropped_carry:
            # Cannot happen for a carry-reduced window sliced at a block
            # boundary; full-CS windows allow carries everywhere.
            raise AssertionError("carry bit outside the operand format")
        # fault-injection probe: the result mantissa slice registers
        m_sum, m_carry = probe("fma.mant_slice", (m_sum, m_carry))
        if g is not None:
            g.check_slice(m_sum, m_carry, window.sum, window.carry, lo,
                          mant_mask, p.mant_carry_mask)
        mant = CSNumber(m_sum, m_carry, p.mant_width, p.mant_carry_mask)

        rlo = lo - p.block
        bmask = (1 << p.block) - 1
        if rlo >= 0:
            r_sum = (window.sum >> rlo) & bmask
            r_carry = (window.carry >> rlo) & bmask & p.round_carry_mask
        else:
            r_sum = r_carry = 0
        rnd = CSNumber(r_sum, r_carry, p.block, p.round_carry_mask)

        # --- stage 9: exponent update and range check --------------------
        e_r = w0 + lo + p.frac_bits
        t.result_exp = e_r
        sign = 1 if (value >> (W - 1)) else 0
        if e_r > p.exp_max:
            if tm is not None:
                tm.count("fma.scalar.overflow")
            return CSFloat.inf(p, sign)
        if e_r < p.exp_min:
            if tm is not None:
                tm.count("fma.scalar.flush_to_zero")
            return CSFloat.zero(p, sign)  # flush-to-zero

        return CSFloat(p, FpClass.NORMAL, e_r, mant, rnd)

    # ------------------------------------------------------------------

    def _special_case(self, a: CSFloat, b: FPValue,
                      c: CSFloat) -> CSFloat | None:
        """IEEE special-value logic on the FloPoCo-style flag wires."""
        p = self.params
        if a.is_nan or b.is_nan or c.is_nan:
            return CSFloat.nan(p)
        psign = b.sign ^ c.sign
        if b.is_inf or c.is_inf:
            if b.is_zero or c.is_zero:
                return CSFloat.nan(p)          # 0 * inf
            if a.is_inf and a.sign != psign:
                return CSFloat.nan(p)          # inf - inf
            return CSFloat.inf(p, psign)
        if a.is_inf:
            return CSFloat.inf(p, a.sign)
        return None

    # -- convenience ----------------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.params.name}-fma"

    def __repr__(self) -> str:  # pragma: no cover
        return (f"CSFmaUnit({self.params.name}, selector={self.selector}, "
                f"carry_reduce={self.use_carry_reduce})")


class PcsFmaUnit(CSFmaUnit):
    """The PCS-FMA of Sec. III-F: ZD selection, Carry Reduce stage,
    55b blocks with carries every 11th bit.  Portable to older FPGAs
    (no DSP pre-adder required)."""

    def __init__(self, params: CSFmaParams = PCS_PARAMS, **kw):
        kw.setdefault("selector", "zd")
        kw.setdefault("use_carry_reduce", True)
        super().__init__(params, **kw)


class FcsFmaUnit(CSFmaUnit):
    """The FCS-FMA of Sec. III-H: early block-granular LZA, no Carry
    Reduce (DSP48E1 pre-adders), 29-digit blocks in full carry save.
    Requires Virtex-6 or newer fabric."""

    def __init__(self, params: CSFmaParams = FCS_PARAMS, **kw):
        kw.setdefault("selector", "lza")
        kw.setdefault("use_carry_reduce", False)
        super().__init__(params, **kw)
