"""Mantissa multiplier with the integrated rounding unit of Fig. 6.

The paper's key multiplier trick (Sec. III-C): the product is formed with
the *unrounded* multiplicator ``C_M``; if rounding would have incremented
``C_M`` by one ULP, the multiplicand ``B_M`` is added as an extra row of
the CSA tree, because ``B*(C+1) = B*C + B``.  The rounding decision for
``C`` thus runs in parallel with the partial-product reduction and adds
at most one level to the tree.

The multiplicand ``B`` is the operand kept in IEEE format ("the *number
of inputs* to the multiplier CSA tree depends on the width of the smaller
operand", Sec. III-D), so the tree has ``significand(B)`` rows plus the
correction row; the widened carry-save ``C`` only widens the rows.

The functional result is exact; the returned statistics (rows, depth,
compressors) drive the timing/area/energy models.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..guard import residue as _gd
from ..probes import probe
from .csa import CSAReduction, reduce_rows
from .csnumber import CSNumber

__all__ = ["MultiplierResult", "multiply_mantissa"]


@dataclass(frozen=True)
class MultiplierResult:
    """Carry-save product plus CSA-tree statistics."""

    product: CSNumber
    rows: int
    depth: int
    compressors: int

    def signed_value(self) -> int:
        return self.product.signed_value()


def multiply_mantissa(b_mant: int, b_width: int, c_tc: int, c_width: int,
                      *, negate: bool = False, round_up_c: bool = False,
                      out_width: int | None = None) -> MultiplierResult:
    """Multiply an unsigned ``b_mant`` by a two's-complement ``c_tc``.

    Parameters
    ----------
    b_mant:
        Unsigned multiplicand (IEEE significand with explicit leading 1),
        ``0 <= b_mant < 2^b_width``.
    b_width:
        Width of ``b_mant``; determines the number of partial-product
        rows (one per bit).
    c_tc:
        Multiplicator as a two's-complement encoded non-negative word of
        ``c_width`` bits (i.e. already wrapped; its signed value is
        recovered modulo ``2^c_width``).
    negate:
        Apply the sign of ``B``: the multiplicand's two's-complement
        negation is folded into the rows (the conditional-complement
        trick -- sign handling never touches the tree depth).
    round_up_c:
        The Fig. 6 correction: inject one extra ``b_mant`` row so the
        product corresponds to ``B * (C + 1)``.
    out_width:
        Two's-complement width of the product window; defaults to
        ``b_width + c_width``.

    Returns the product in carry-save form over ``out_width`` bits (wrap
    semantics) with tree statistics.
    """
    if not (0 <= b_mant < (1 << b_width)):
        raise ValueError("b_mant out of range for b_width")
    if not (0 <= c_tc < (1 << c_width)):
        raise ValueError("c_tc must be a wrapped two's-complement word")
    w = out_width if out_width is not None else b_width + c_width
    mask = (1 << w) - 1

    # Sign-extend C to the output window, optionally negate (conditional
    # complement of the multiplicand side), then form one row per B bit.
    c_signed = c_tc - (1 << c_width) if (c_tc >> (c_width - 1)) else c_tc
    if round_up_c:
        c_signed += 1
    c_eff = (-c_signed if negate else c_signed) & mask

    rows: list[int] = []
    for i in range(b_width):
        if (b_mant >> i) & 1:
            rows.append((c_eff << i) & mask)
    if not rows:
        rows.append(0)
    n_rows = b_width + (1 if round_up_c else 0)

    red: CSAReduction = reduce_rows(rows, width=w)
    product = CSNumber(red.sum & mask, red.carry & mask, w)
    # fault-injection probe: the product sum/carry row registers
    product = probe("cs.mult_product", product)
    g = _gd.ACTIVE
    if g is not None and (g := g.state) is not None:
        # residue shadow: the CS pair must still encode c_eff * b_mant
        # under the tree's wrap modulus
        g.check_product(product.sum, product.carry, c_eff, b_mant, w)
    return MultiplierResult(product, n_rows, red.depth, red.compressors)
