"""The carry-save window stages both fast engines share, written once.

A CS-FMA unit of the paper builds each window stage once: the 3:2 level
that merges the product pair with the aligned addend, the Carry Reduce
of Sec. III-E (PCS), and the block normalization that picks the result
slice -- the Zero Detector of Sec. III-F (PCS) or the leading-zero
anticipator of Sec. III-G (FCS).  Each is one function here, of a *lane
type* ``L``: how an engine holds its windows, with the window constants
``width`` (``W``), ``mask`` (all ones), ``low`` (all but the top bit),
``one``, ``H`` (the Carry Reduce chunk tops) and ``notH`` (the other
bits), and the operations that differ between representations --
``shl1``/``shr1`` (one-bit shifts that drop what leaves the window),
``bitlen`` (0 for a zero window), ``fill`` (each window's sign bit,
filled across it) and ``clip`` (of per-window counts).  Past those, the
stages use only the operators both representations share: ``& | ^ ~ +``
on windows, ``- //`` on counts.  Two lane types satisfy it:

* :class:`IntLanes` -- one Python int per window, ``0 <= x < 2**W``:
  :meth:`FastCSKernel.fma <repro.batch.cskernel.FastCSKernel.fma>` and
  :func:`~repro.batch.accumulate_batch`;
* the lane engine, :class:`~repro.batch.vector.VectorCSKernel` -- one
  ``(n, window_blocks)`` ``uint64`` plane per ``n`` windows, a row of
  little-endian ``block``-bit digits per window, with the constants of
  its tuple kernel's :class:`IntLanes` split the same way.

The faithful models (:mod:`repro.cs`, :mod:`repro.fma`) stay the oracle,
and the residue guard's ``zd_shadow``/``lza_shadow`` recompute the skip
counts independently of these functions.
"""

from __future__ import annotations

__all__ = ["IntLanes", "csa", "carry_reduce", "zd_skip", "lza_skip"]


def csa(L, x, y, z):
    """One 3:2 level: ``(sum, carry)`` with ``x + y + z == sum + carry``
    modulo ``2**W``."""
    t = x ^ y
    return t ^ z, L.shl1((x & y) | (t & z))


def carry_reduce(L, s, c):
    """The Carry Reduce of Sec. III-E as one SWAR pass over the window:
    each carry-spacing chunk adds its sum and carry bits, and the chunk's
    carry-out is re-emitted as an explicit carry at the next chunk's LSB.

    With the chunk tops masked off, a chunk's sum cannot carry out of its
    top bit, so ``+`` never crosses a chunk -- nor, as every digit ends on
    a chunk top, a digit."""
    H, notH = L.H, L.notH
    z = (s & notH) + (c & notH)
    x = s ^ c
    return (z & notH) | ((z ^ x) & H), L.shl1(((s & c) | (x & z)) & H)


def zd_skip(L, value, block: int, max_skip: int):
    """Blocks the Zero Detector skips, in closed form: the redundant
    leading sign bits of the collapsed window ``value``, rounded down to
    whole blocks and clamped to ``[0, max_skip]`` -- the quantity
    :func:`repro.cs.zero_detect.count_skippable_blocks` searches for block
    by block."""
    rsb = L.width - L.bitlen(value ^ L.fill(value))
    return L.clip((rsb - 1) // block, 0, max_skip)


def lza_skip(L, a, p, block: int, max_skip: int):
    """Blocks the leading-zero anticipator skips for the addend row ``a``
    and the collapsed product row ``p``: the Schmookler-style indicator of
    :func:`repro.cs.lza.lza_estimate`, block granular."""
    t = a ^ p
    g = a & p
    z = (a | p) ^ L.mask
    t_up = L.shr1(t)
    z_dn = L.shl1(z) | L.one
    g_dn = L.shl1(g)
    f = (t_up & ((g & ~z_dn) | (z & ~g_dn))
         | (t_up ^ L.mask) & ((z & ~z_dn) | (g & ~g_dn))) & L.low
    # ``| one``: an all-zero indicator estimates W - 1 leading digits
    est = L.width - L.bitlen(f | L.one)
    return L.clip((est - 1) // block, 0, max_skip)


class IntLanes:
    """One Python int per ``width``-bit window, with the Carry Reduce
    chunks ``spacing`` bits wide."""

    one = 1
    bitlen = staticmethod(int.bit_length)

    def __init__(self, width: int, spacing: int):
        self.width = width
        self.mask = (1 << width) - 1
        self.low = self.mask >> 1
        #: the top bit of every ``spacing``-bit chunk, where the Carry
        #: Reduce keeps its explicit carries
        self.H = sum(1 << i for i in range(spacing - 1, width, spacing))
        self.notH = self.H ^ self.mask

    def shl1(self, x: int) -> int:
        return (x << 1) & self.mask

    @staticmethod
    def shr1(x: int) -> int:
        return x >> 1

    def fill(self, x: int) -> int:
        return self.mask if x > self.low else 0

    @staticmethod
    def clip(k: int, lo: int, hi: int) -> int:
        return lo if k < lo else hi if k > hi else k
