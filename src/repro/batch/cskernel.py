"""Fast bit-exact kernel for the PCS/FCS carry-save FMA datapath.

This is the batched engine's core: a re-implementation of
:meth:`repro.fma.csfma.CSFmaUnit.fma` that produces *bit-identical*
results (every mantissa sum/carry digit, rounding-data digit, exponent
and flag) while avoiding the per-digit modelling machinery of the
faithful path:

* values travel as plain tuples instead of ``CSFloat``/``CSNumber``
  dataclasses (no constructor validation per step);
* the multiplier uses compiled straight-line Wallace trees
  (:mod:`repro.batch.trees`) keyed by the popcount of the ``B``
  significand;
* the window stages -- the 3:2 level, the SWAR Carry Reduce, the
  closed-form Zero Detector and the block LZA -- are the shared
  :mod:`repro.batch.stages`, run on :class:`~repro.batch.stages.IntLanes`
  (one Python int per window); the lane engine runs the same functions
  on digit planes;
* results leave as binary64 through :meth:`FastCSKernel.to_ieee`, an
  integer twin of :func:`repro.fma.convert.cs_to_ieee` (no ``CSFloat``,
  no ``Fraction``).

The equivalence arguments (and the differential tests backing them) live
in ``tests/test_batch_differential.py``; the faithful scalar unit remains
the reference model for everything, including traces, which this kernel
intentionally does not reproduce.

Internal value convention
-------------------------
A carry-save value is the tuple
``(cls, exp, m_sum, m_carry, r_sum, r_carry, sign_hint)`` with ``cls``
the integer :class:`~repro.fp.value.FpClass` value; an IEEE ``B``
operand is ``(cls, sign, unbiased_exp, significand)``.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Sequence

from .. import probes
from ..cs.csnumber import CSNumber, cs_word_error
from ..fma.csfma import CSFmaUnit
from ..fma.formats import CSFloat, CSFmaParams, exponent_error
from ..fp.formats import BINARY64
from ..fp.rounding import RoundingMode
from ..fp.value import FpClass, FPValue
from ..guard import residue as _gd
from ..telemetry import core as _tm
from .ieee_fast import round_to_format
from .stages import IntLanes, carry_reduce, csa, lza_skip, zd_skip
from .trees import tree_depth, tree_fn

__all__ = ["FastCSKernel", "kernel_for", "bit_positions",
           "CS_ZERO", "CS_NORMAL", "CS_INF", "CS_NAN"]

CS_ZERO, CS_NORMAL, CS_INF, CS_NAN = 0, 1, 2, 3

_NEAREST = RoundingMode.NEAREST_EVEN

#: kernel class code -> :class:`FpClass`; a dict, so an invalid code
#: such as -1 misses instead of indexing from the end
_FP_CLASS = {c.value: c for c in FpClass}
_new = object.__new__
_set = object.__setattr__

_KERNELS: dict[tuple[int, str, bool], "FastCSKernel"] = {}


def kernel_for(unit: CSFmaUnit) -> "FastCSKernel":
    """Fast kernel matching ``unit`` (one per unit configuration)."""
    key = (id(unit.params), unit.selector, unit.use_carry_reduce)
    k = _KERNELS.get(key)
    if _tm.ACTIVE is not None:
        _tm.ACTIVE.count("batch.kernel.cache.hit" if k is not None
                         else "batch.kernel.cache.miss")
    if k is None:
        k = FastCSKernel(unit.params, unit.selector, unit.use_carry_reduce)
        _KERNELS[key] = k
    return k


def _byte_row(k: int) -> tuple:
    return tuple(tuple(8 * k + i for i in range(8) if v >> i & 1)
                 for v in range(256))


#: ``_BYTE_ROWS[k][v]``: the set-bit positions of byte value ``v`` at
#: byte ``k`` of a word (bits ``8k .. 8k+7``).  Built for 64-bit words
#: (every binary64 significand) so concurrent first calls never race to
#: build it; a wider word grows it by swapping in a whole new tuple, so
#: a concurrent reader never sees a partial table.
_BYTE_ROWS: tuple = tuple(_byte_row(k) for k in range(8))


def _grow_byte_rows(nbytes: int) -> tuple:
    global _BYTE_ROWS
    rows = _BYTE_ROWS
    rows += tuple(_byte_row(k) for k in range(len(rows), nbytes))
    _BYTE_ROWS = rows
    return rows


def bit_positions(word: int) -> tuple[int, ...]:
    """Ascending set-bit positions (the multiplier's row shifts) of the
    non-negative ``word``: one table lookup per byte."""
    nbytes = (word.bit_length() + 7) >> 3
    rows = _BYTE_ROWS
    if nbytes > len(rows):
        rows = _grow_byte_rows(nbytes)
    out = ()
    for row, byte in zip(rows, word.to_bytes(nbytes, "little")):
        out += row[byte]
    return out


class FastCSKernel:
    """Bit-exact fast twin of one :class:`CSFmaUnit` configuration."""

    def __init__(self, params: CSFmaParams, selector: str,
                 use_carry_reduce: bool):
        p = self.params = params
        self.selector = selector
        self.use_carry_reduce = use_carry_reduce
        self.W = W = p.window_width
        #: the window's lane type for the shared stages
        self.lanes = IntLanes(W, p.carry_spacing)
        self.wmask = self.lanes.mask
        self.block = p.block
        self.bmask = (1 << p.block) - 1
        self.mw = p.mant_width
        self.mmask = (1 << p.mant_width) - 1
        self.msign = 1 << (p.mant_width - 1)
        self.frac = p.frac_bits
        self.bsig = p.b_sig_bits
        self.plsb = p.product_lsb
        self.pw = p.product_width
        self.pmask = (1 << p.product_width) - 1
        self.psign = 1 << (p.product_width - 1)
        self.amax = p.addend_max_pos
        self.max_skip = p.window_blocks - p.mant_blocks
        self.mcmask = p.mant_carry_mask
        self.rcmask = p.round_carry_mask
        self.emin, self.emax = p.exp_min, p.exp_max
        # weight of the rounding block's LSB: 2**(exp - lsb_shift)
        self.lsb_shift = self.frac + self.block
        # the CS pairs of every non-NORMAL CSFloat that lower_batch
        # builds (immutable, so one checked pair is shared)
        self.zero_mant = CSNumber.zero(p.mant_width, self.mcmask)
        self.zero_round = CSNumber.zero(p.block, self.rcmask)

    # -- conversions ---------------------------------------------------

    def lift_cs(self, x: CSFloat) -> tuple:
        """CSFloat -> internal tuple (exact field copy)."""
        return (x.cls.value, x.exp, x.mant.sum, x.mant.carry,
                x.round_data.sum, x.round_data.carry, x.sign_hint)

    def lift_ieee(self, x: FPValue) -> tuple:
        """IEEE -> internal tuple; bit-identical to
        ``lift_cs(ieee_to_cs(x, params))``, refusal included."""
        if x.cls is not FpClass.NORMAL:
            return (x.cls.value, 0, 0, 0, 0, 0, x.sign)
        fmt = x.fmt
        shift = self.frac - fmt.fraction_bits
        if shift < 0:
            # a significand wider than the fraction: the faithful lift
            # raises its ValueError
            return self.lift_cs(CSFloat.from_ieee(x, self.params))
        m = (x.fraction | (1 << fmt.fraction_bits)) << shift
        if x.sign:
            m = -m
        return (CS_NORMAL, x.biased_exponent - fmt.bias,
                m & self.mmask, 0, 0, 0, 0)

    def lift_b(self, x: FPValue) -> tuple:
        """IEEE ``B`` operand -> ``(cls, sign, unbiased_exp, sig)``."""
        if x.cls is FpClass.NORMAL:
            return (CS_NORMAL, x.sign, x.biased_exponent - x.fmt.bias,
                    x.fraction | (1 << x.fmt.fraction_bits))
        return (x.cls.value, x.sign, 0, 0)

    def lower(self, t: tuple) -> CSFloat:
        """Internal tuple -> CSFloat: the one-lane :meth:`lower_batch`."""
        return self.lower_batch((t,))[0]

    def lower_batch(self, ts: Sequence[tuple]) -> list[CSFloat]:
        """Internal tuples -> CSFloats in one pass: the format boundary
        of both engines' :func:`~repro.batch.fma_batch` results.

        Each result ``==`` the ``CSFloat`` (and its two ``CSNumber``
        pairs) constructed from the tuple's fields, and a batch raises
        the ``ValueError`` that construction raises for its first lane
        that breaks one of the constructors' conditions:
        :func:`~repro.cs.csnumber.cs_word_error` on both CS pairs and
        :func:`~repro.fma.formats.exponent_error` on the exponent of a
        NORMAL lane, a valid :class:`FpClass` code on every lane.  The
        conditions run once on the whole batch -- on the OR of its words
        and the extremes of its exponents, which pass exactly when every
        lane does -- and only a batch that fails is checked lane by
        lane, to find the lane.  The objects are then assembled without
        re-running the constructors' checks.  As in the constructors, a
        non-NORMAL lane keeps only its class and sign hint, and a NORMAL
        one drops its sign hint.
        """
        if not ts:
            return []
        p = self.params
        mw, mcm, bw, rcm = self.mw, self.mcmask, self.block, self.rcmask
        cls, exp, ms, mc, rs, rc, _sh = zip(*ts)
        if (cs_word_error(reduce(or_, ms), reduce(or_, mc), mw, mcm)
                or cs_word_error(reduce(or_, rs), reduce(or_, rc), bw, rcm)
                or exponent_error(p, min(exp))
                or exponent_error(p, max(exp))
                or not _FP_CLASS.keys() >= set(cls)):
            for t in ts:
                self._check_lane(t)
        # what the generated frozen __init__ does, minus __post_init__
        # (its checks ran above); object.__setattr__ keeps the fields in
        # the instance's inline slots, so reads stay as fast as on a
        # constructed CSFloat (a materialized __dict__ halves read speed)
        normal = FpClass.NORMAL
        zm, zr = self.zero_mant, self.zero_round
        out = []
        append = out.append
        for c, e, s, sc, r, rcy, sh in ts:
            f = _new(CSFloat)
            _set(f, "params", p)
            if c == CS_NORMAL:
                m = _new(CSNumber)
                _set(m, "sum", s)
                _set(m, "carry", sc)
                _set(m, "width", mw)
                _set(m, "carry_mask", mcm)
                q = _new(CSNumber)
                _set(q, "sum", r)
                _set(q, "carry", rcy)
                _set(q, "width", bw)
                _set(q, "carry_mask", rcm)
                _set(f, "cls", normal)
                _set(f, "exp", e)
                _set(f, "mant", m)
                _set(f, "round_data", q)
                _set(f, "sign_hint", 0)
            else:
                _set(f, "cls", _FP_CLASS[c])
                _set(f, "exp", 0)
                _set(f, "mant", zm)
                _set(f, "round_data", zr)
                _set(f, "sign_hint", sh)
            append(f)
        return out

    def _check_lane(self, t: tuple) -> None:
        """Raise what constructing ``t``'s CSFloat raises, if anything."""
        if t[0] != CS_NORMAL:
            FpClass(t[0])       # the enum's ValueError for an invalid code
            return
        err = (cs_word_error(t[2], t[3], self.mw, self.mcmask)
               or cs_word_error(t[4], t[5], self.block, self.rcmask)
               or exponent_error(self.params, t[1]))
        if err is not None:
            raise ValueError(err)

    def to_ieee(self, t: tuple) -> FPValue:
        """Internal tuple -> binary64 with integers only; bit-identical
        to ``cs_to_ieee(self.lower(t))``.

        The mantissa pair collapses modulo ``2**mant_width`` (two's
        complement), the rounding-data block collapses modulo
        ``2**block`` and is appended below it as extra fraction bits,
        and :func:`~repro.batch.ieee_fast.round_to_format` rounds the
        exact value to nearest-even.  Like the faithful converter, a
        NORMAL tuple that collapses to 0 lowers to +0.
        """
        cls = t[0]
        if cls == CS_NORMAL:
            m = (t[2] + t[3]) & self.mmask
            if m & self.msign:
                m -= 1 << self.mw
            n = (m << self.block) | ((t[4] + t[5]) & self.bmask)
            if n > 0:
                return round_to_format(0, n, t[1] - self.lsb_shift,
                                       BINARY64, _NEAREST)
            if n < 0:
                return round_to_format(1, -n, t[1] - self.lsb_shift,
                                       BINARY64, _NEAREST)
            return FPValue.zero(BINARY64)
        if cls == CS_ZERO:
            return FPValue.zero(BINARY64, t[6])
        if cls == CS_INF:
            return FPValue.inf(BINARY64, t[6])
        return FPValue.nan(BINARY64)

    # -- the multiplier -------------------------------------------------

    def product(self, cv: int, pos: tuple, width: int, mask: int,
                sig: int | None = None) -> tuple[int, int]:
        """CS product of the signed multiplicand ``cv`` with the
        significand whose set bits are ``pos``, modulo ``2**width``
        (``mask``): what ``multiply_mantissa(..., out_width=width)``
        returns.  The one tree of ``len(pos)`` rows runs unmasked on
        ``cv & mask`` and its outputs are masked once (``& mask``
        commutes upward through the tree; see :mod:`repro.batch.trees`).
        ``sig`` is the significand value itself, when the caller already
        has it -- the residue shadow checker folds its residues instead
        of rebuilding it from ``pos``.
        """
        s, c = tree_fn(len(pos))(cv & mask, pos)
        s &= mask
        c &= mask
        if probes.ARMED is not None:
            # fault-injection probe, armed per thread: the tree's rows
            s, c = probes.probe("batch.product", (s, c))
        g = _gd.ACTIVE
        if g is not None and (g := g.state) is not None:
            # residue shadow for the SWAR lanes: when no row can reach
            # the modulus the pair is an exact integer identity (pure
            # mod-3/mod-255 residue arithmetic); otherwise it is checked
            # under the modulus
            if sig is None:
                sig = sum(1 << i for i in pos)
            exact = (cv >= 0 and cv.bit_length() + pos[-1]
                     + tree_depth(len(pos)) <= width)
            g.check_product(s, c, cv, sig, width, exact=exact)
        return s, c

    # -- the datapath ----------------------------------------------------

    def fma(self, a: tuple, b: tuple, c: tuple,
            pos: tuple | None = None,
            prod: "tuple[int, int] | None" = None) -> tuple:
        """``a + b * c``; bit-identical to the scalar unit.

        ``pos`` optionally carries the precomputed set-bit positions of
        ``b``'s significand (batch callers hoist it out of inner loops).
        ``prod`` optionally injects the precomputed *full-window-width*
        CS product pair ``(S, C)`` of the signed multiplicand (``c``'s
        mantissa, rounding decision included) with ``b``'s significand
        (the lane engine's per-lane dot chain, which runs the trees for
        every step as one ndarray pass).  An injected pair and a computed
        one are placed by the same code: masking commutes upward through
        a CSA tree, so the full-width pair masked down reproduces the
        pair computed at the modulus each placement needs bit for bit.
        Callers must only pass ``prod`` when probes and the guard are
        disarmed, since it bypasses their product-plane hooks.
        """
        acls = a[0]
        bcls = b[0]
        ccls = c[0]
        # special values (flag wires), mirroring CSFmaUnit._special_case
        if acls == CS_NAN or bcls == CS_NAN or ccls == CS_NAN:
            return (CS_NAN, 0, 0, 0, 0, 0, 0)
        if bcls == CS_INF or ccls == CS_INF or acls == CS_INF:
            mmask = self.mmask
            if ccls == CS_NORMAL:
                v = (c[2] + c[3]) & mmask
                csign = 1 if v & self.msign else 0
            else:
                csign = c[6]
            psign = b[1] ^ csign
            if bcls == CS_INF or ccls == CS_INF:
                if bcls == CS_ZERO or ccls == CS_ZERO:
                    return (CS_NAN, 0, 0, 0, 0, 0, 0)
                if acls == CS_INF and a[6] != psign:
                    return (CS_NAN, 0, 0, 0, 0, 0, 0)
                return (CS_INF, 0, 0, 0, 0, 0, psign)
            return (CS_INF, 0, 0, 0, 0, 0, a[6])

        block = self.block
        bmask = self.bmask
        mmask = self.mmask
        msign = self.msign
        mw = self.mw
        gd = _gd.ACTIVE
        if gd is not None:
            gd = gd.state  # None unless this thread is guarding

        # stage 1: deferred rounding decisions
        if ccls == CS_NORMAL:
            dec_c = ((c[4] + c[5]) & bmask) >> (block - 1)
            v = (c[2] + c[3]) & mmask
            c_used = (v - (1 << mw) if v & msign else v) + dec_c
        else:
            c_used = 0
        if acls == CS_NORMAL:
            dec_a = ((a[4] + a[5]) & bmask) >> (block - 1)
            v = (a[2] + a[3]) & mmask
            a_used = (v - (1 << mw) if v & msign else v) + dec_a
        else:
            a_used = 0
        p_nonzero = bcls == CS_NORMAL and ccls == CS_NORMAL and c_used != 0
        a_nonzero = acls == CS_NORMAL and a_used != 0
        if not p_nonzero and not a_nonzero:
            return (CS_ZERO, 0, 0, 0, 0, 0, a[6] if acls == CS_ZERO else 0)

        W = self.W
        wmask = self.wmask
        frac = self.frac

        # stage 2: window anchoring
        if p_nonzero:
            e_f = b[2] + c[1]
            w0 = e_f - (self.bsig - 1) - frac - self.plsb
            if a_nonzero:
                aw = a[1] - frac - self.amax
                if aw > w0:
                    w0 = aw
        else:
            w0 = a[1] - frac - self.amax

        # stage 3: multiplier (a computed pair comes from the tree at
        # the modulus its placement keeps: W - p_pos inside the window,
        # product_width below it)
        r1 = None
        a_row = 0
        if p_nonzero:
            p_pos = (e_f - (self.bsig - 1) - frac) - w0
            if prod is None:
                if pos is None:
                    pos = bit_positions(b[3])
                ow = W - p_pos if p_pos >= 0 else self.pw
                prod = self.product(-c_used if b[1] else c_used, pos, ow,
                                    (1 << ow) - 1, b[3])
            S, C = prod
            if p_pos >= 0:
                r0 = (S << p_pos) & wmask
                r1 = (C << p_pos) & wmask
            else:
                # product entirely below the window: collapse and
                # floor-shift the signed value (the scalar unit's
                # documented modelling liberty)
                pv = (S + C) & self.pmask
                if pv & self.psign:
                    pv -= self.psign << 1
                r0 = (pv >> (-p_pos)) & wmask

        # stage 4: addend pre-shift
        if a_nonzero:
            a_pos = (a[1] - frac) - w0
            a_row = ((a_used << a_pos) if a_pos >= 0
                     else (a_used >> (-a_pos))) & wmask

        # stage 5: wide CSA (at most 3 rows -> at most one 3:2 level)
        if p_nonzero:
            if r1 is not None:
                if a_nonzero:
                    w_sum, w_carry = csa(self.lanes, r0, r1, a_row)
                else:
                    w_sum = r0
                    w_carry = r1
            elif a_nonzero:
                w_sum = r0
                w_carry = a_row
            else:
                w_sum = r0
                w_carry = 0
        else:
            w_sum = a_row
            w_carry = 0

        # stage 6: Carry Reduce (PCS)
        if self.use_carry_reduce:
            w_sum, w_carry = carry_reduce(self.lanes, w_sum, w_carry)

        if probes.ARMED is not None:
            # fault-injection probe, armed per thread: the window planes
            # (post-SWAR Carry Reduce for PCS, raw 3:2 output for FCS)
            w_sum, w_carry = probes.probe("batch.window",
                                          (w_sum, w_carry))

        if gd is not None:
            rows_sum = a_row + ((r0 + (r1 or 0)) if p_nonzero else 0)
            gd.check_window(w_sum, w_carry, rows_sum, W)

        value = (w_sum + w_carry) & wmask
        if value == 0:
            return (CS_ZERO, 0, 0, 0, 0, 0, 0)

        # stage 7: block normalization
        if self.selector == "zd":
            skipped = zd_skip(self.lanes, value, block, self.max_skip)
        else:
            prod_word = (((r0 + r1) & wmask) if r1 is not None else r0) \
                if p_nonzero else 0
            skipped = lza_skip(self.lanes, a_row, prod_word, block,
                               self.max_skip)

        if gd is not None:
            # normalization shadow (same recompute the scalar unit runs;
            # here it doubles as a cross-implementation consistency check)
            if self.selector == "zd":
                shadow = _gd.zd_shadow(value, W, block, self.max_skip)
            else:
                est_ref = _gd.lza_shadow(a_row, prod_word, W)
                shadow = min(max(est_ref - 1, 0) // block, self.max_skip)
            gd.check_norm(skipped, shadow, self.selector)

        # stage 8: result and rounding-data slice
        lo = block * (self.params.window_blocks - 1 - skipped
                      - (self.params.mant_blocks - 1))
        m_sum = (w_sum >> lo) & mmask
        mc_full = (w_carry >> lo) & mmask
        m_carry = mc_full & self.mcmask
        if mc_full & ~self.mcmask:
            raise AssertionError("carry bit outside the operand format")
        rlo = lo - block
        if rlo >= 0:
            r_sum = (w_sum >> rlo) & bmask
            r_carry = (w_carry >> rlo) & bmask & self.rcmask
        else:
            r_sum = r_carry = 0
        if gd is not None:
            gd.check_slice(m_sum, m_carry, w_sum, w_carry, lo, mmask,
                          self.mcmask)

        # stage 9: exponent update and range check
        e_r = w0 + lo + frac
        if e_r > self.emax:
            return (CS_INF, 0, 0, 0, 0, 0, 1 if value >> (W - 1) else 0)
        if e_r < self.emin:
            return (CS_ZERO, 0, 0, 0, 0, 0, 1 if value >> (W - 1) else 0)
        return (CS_NORMAL, e_r, m_sum, m_carry, r_sum, r_carry, 0)

    # -- batch entry points ----------------------------------------------

    def dot_tuple(self, a, b) -> tuple:
        """Fused dot product, accumulator kept as an internal tuple.

        Bit-identical to the
        :meth:`repro.fma.dotprod.FusedDotProductUnit.dot` accumulator
        chain ``acc = fma(acc, a_i, lift(b_i))``.
        """
        fma = self.fma
        lift_ieee = self.lift_ieee
        lift_b = self.lift_b
        acc = (CS_ZERO, 0, 0, 0, 0, 0, 0)
        for ai, bi in zip(a, b):
            acc = fma(acc, lift_b(ai), lift_ieee(bi))
        return acc
