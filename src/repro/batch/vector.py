"""NumPy lane backend for the carry-save FMA fast path.

This module evaluates whole *batches* of CS-FMA datapaths as ``uint64``
ndarray arithmetic, bit-identical to :class:`repro.batch.cskernel.
FastCSKernel` (and therefore to the faithful scalar unit).  The paper's
window datapath is a wide, regular integer pipeline, so every stage maps
onto array ops over a **digit representation**: a window value is stored
as ``window_blocks`` little-endian digits of ``block`` bits each, one
``np.uint64`` per digit (PCS: 7 x 55 bits; FCS: 13 x 29 bits -- in both
architectures ``block * window_blocks == window_width`` exactly, and the
PCS carry-spacing chunks divide the digit width, so the SWAR Carry
Reduce never rips across digits).  The window stages -- the 3:2 level,
the Carry Reduce, the Zero Detector and the LZA -- are the functions of
:mod:`repro.batch.stages` the tuple kernel runs on Python ints: the
engine is their digit-plane lane type.

Why full-width trees are sound (mask elision, lane-parallel form)
-----------------------------------------------------------------
The scalar kernel compiles one Wallace tree per ``(rows, width)`` and
evaluates it at the exact modulus each operation needs (``W - p_pos``,
or ``product_width`` below the window).  Every CSA output bit ``j``
depends only on input bits ``<= j``, so masking commutes upward through
the tree: the tree evaluated at full window width ``W`` and masked down
equals the tree evaluated at the narrower modulus.  The vector engine
therefore compiles *one* stacked tree per row count (the popcount of the
``B`` significand), evaluates it at width ``W`` for every lane in the
group simultaneously, and lets the callers mask -- ``(S << p_pos) &
wmask`` and ``(S & pmask)`` recover exactly what the scalar kernel's
per-modulus trees produce.

The lane boundary
-----------------
Lanes enter as binary64 bit-word planes and leave as internal kernel
tuples, each edge a whole-column pass rather than a per-lane loop:
:func:`repro.batch.fma_batch` gathers each operand's word plane with one
comprehension through :func:`repro.fp.fp_to_word`, and
:meth:`lower_lanes` packs the mantissa digits into 64-bit limbs with
array ops and turns every column into Python ints with one ``tolist``.
Both engines' fma results then become ``CSFloat`` objects in
:meth:`FastCSKernel.lower_batch`, the one builder, which checks every
lane against the ``CSNumber``/``CSFloat`` invariants.

Divergence policy
-----------------
The lane engine reads binary64 operands only: :meth:`lift_words`,
:meth:`b_words` and :meth:`dot_many_words` take binary64 bit words, and
:meth:`dot_hybrid` hands a dot holding any other format to the tuple
kernel.  Keeping other inputs off the word lift is the caller's job:
:func:`repro.batch.fma_batch` re-runs CS-operand and non-binary64
lanes on the tuple kernel.
Inside the engine, lanes with NaN/Inf operands and dot lanes whose
accumulator overflows mid-chain are masked out and re-run on the tuple
kernel, so the result stream is bit-identical lane for lane.  Armed
probes / guard residue checkers are handled one level up
(:func:`repro.batch.api.select_engine` sends the whole call to the tuple
kernel, keeping every fault-injection site live); this module assumes it
runs disarmed and installs no hooks.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import numpy as np

from ..fp.formats import BINARY64
from ..fp.value import FpClass, fp_to_word, word_to_fp
from ..telemetry import core as _tm
from .cskernel import (CS_INF, CS_NAN, CS_NORMAL, CS_ZERO, FastCSKernel,
                       kernel_for)
from .stages import carry_reduce, csa, lza_skip, zd_skip

__all__ = ["VectorCSKernel", "vector_kernel_for", "clear_vector_cache"]

_VECTORS: dict[int, "VectorCSKernel"] = {}


def vector_kernel_for(unit) -> "VectorCSKernel | None":
    """Vector kernel matching ``unit`` or ``None`` (strict units)."""
    kernel = kernel_for(unit)
    if kernel is None:
        return None
    key = id(kernel)
    vk = _VECTORS.get(key)
    if vk is None:
        vk = VectorCSKernel(kernel)
        _VECTORS[key] = vk
    return vk


def clear_vector_cache() -> None:
    """Drop cached vector kernels (mainly for tests)."""
    _VECTORS.clear()


def count_lanes(n: int, deferred: dict) -> None:
    """Telemetry for one lane-engine call over ``n`` lanes, of which
    ``deferred[reason]`` re-ran on the tuple kernel."""
    tm = _tm.ACTIVE
    if tm is None:
        return
    n_def = sum(deferred.values())
    tm.count("batch.vector.lanes", n - n_def)
    if n_def:
        tm.count("batch.vector.deferred", n_def)
        for reason, k in deferred.items():
            if k:
                tm.count(f"batch.vector.deferred.{reason}", k)


_U64 = np.uint64
_ONE = np.uint64(1)
_U63 = np.uint64(63)
_M28 = np.uint64((1 << 28) - 1)

if hasattr(np, "bitwise_count"):
    def _popcount(a):
        return np.bitwise_count(a).astype(np.int64)
else:  # pragma: no cover - numpy < 2.0
    def _popcount(a):
        a = a.astype(np.uint64)
        m1 = np.uint64(0x5555555555555555)
        m2 = np.uint64(0x3333333333333333)
        m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
        h = np.uint64(0x0101010101010101)
        a = a - ((a >> _ONE) & m1)
        a = (a & m2) + ((a >> np.uint64(2)) & m2)
        a = (a + (a >> np.uint64(4))) & m4
        return ((a * h) >> np.uint64(56)).astype(np.int64)


class VectorCSKernel:
    """Lane-parallel twin of one :class:`FastCSKernel` configuration.

    Lane batches travel as plain dicts of aligned arrays ("cols"): a CS
    operand batch is ``{cls, exp, m, mc, rs, rc, sh}`` (``m``/``mc`` are
    ``(n, mant_blocks)`` digit arrays, the rest ``(n,)``), an IEEE ``B``
    batch is ``{cls, sign, exp, sig}``.  All integers are ``uint64``
    digits / fields except exponents and classes, which are ``int64``.
    As in :class:`~repro.fp.value.FPValue`, ``exp`` and the digit fields
    are meaningful for NORMAL lanes only.  The engine is also the
    digit-plane lane type of :mod:`repro.batch.stages`, holding its
    tuple kernel's window constants as digit planes.
    """

    def __init__(self, kernel: FastCSKernel):
        self.kernel = kernel
        p = kernel.params
        self.BB = BB = kernel.block
        self.D = D = p.window_blocks
        self.MD = MD = p.mant_blocks
        self.width = kernel.W
        if BB * D != kernel.W:
            raise ValueError("window width is not digit-aligned")
        if kernel.use_carry_reduce and BB % p.carry_spacing != 0:
            raise ValueError("carry-spacing chunks straddle digits")
        self.BBu = _U64(BB)
        self.BB1u = _U64(BB - 1)
        self.mask = _U64((1 << BB) - 1)
        self.frac = kernel.frac
        self.bsig = kernel.bsig
        self.plsb = kernel.plsb
        self.amax = kernel.amax
        self.max_skip = kernel.max_skip
        self.emin, self.emax = kernel.emin, kernel.emax
        self.ieee_shift = kernel.ieee_shift
        self.use_carry_reduce = kernel.use_carry_reduce
        self.selector = kernel.selector
        # per-digit constant planes (the first four: the lane type's)
        ints = kernel.lanes
        self.low, self.one, self.H, self.notH = (
            self._const_digits(v, D)
            for v in (ints.low, 1, ints.H, ints.notH))
        self.pmaskd = self._const_digits(kernel.pmask, D)
        self.pextd = self._const_digits(~kernel.pmask & kernel.wmask, D)
        self.mcmaskd = self._const_digits(kernel.mcmask, MD)
        self.nmcmaskd = self._const_digits(~kernel.mcmask & kernel.mmask, MD)
        self.rcmask1 = _U64(kernel.rcmask & kernel.bmask)
        pd, pb = divmod(p.product_width - 1, BB)
        self.psign_digit, self.psign_bit = pd, _U64(pb)
        self.fmask = _U64((1 << 52) - 1)
        # scratch workspaces live per thread so the serve executor's
        # worker pool can share one kernel object
        self._tls = threading.local()
        self._jK = (np.arange(D) + D).astype(np.int64)
        self._mdr = np.arange(MD, dtype=np.int64)
        # the stacked trees run on 64-bit *limbs* rather than block-width
        # digits: fewer words per row (FCS: 6 vs 13) and no shl1 masking
        self.LB = (self.width + 63) // 64

    # -- small digit-array primitives (all little-endian, last axis) ----

    def _const_digits(self, x: int, k: int):
        m = (1 << self.BB) - 1
        return np.array([(x >> (self.BB * i)) & m for i in range(k)],
                        dtype=np.uint64)

    def _shift(self, x, s):
        """``floor(x * 2^s) mod 2^(K*BB)`` of the two's-complement digit
        planes ``x`` with per-lane shift ``s`` of either sign (right
        shifts are arithmetic)."""
        n, K = x.shape
        q = s // self.BB                       # floor division (int64)
        r = (s - q * self.BB).astype(np.uint64)[:, None]
        cat = np.concatenate([np.zeros((n, K), np.uint64), x,
                              np.broadcast_to(self.fill(x), (n, K))],
                             axis=1)
        j = np.arange(K, dtype=np.int64)
        idx = np.clip(j[None, :] - q[:, None] + K, 0, 3 * K - 1)
        idx = idx.astype(np.intp)
        lo = np.take_along_axis(cat, idx, axis=1)
        hm = np.take_along_axis(cat, np.maximum(idx - 1, 0), axis=1)
        return ((lo & (self.mask >> r)) << r) | (hm >> (self.BBu - r))

    def _carry_fix(self, out, c=None, c2=None):
        """Fold digit overflow upward in place until every digit fits
        (the carry out of the top digit is dropped, i.e. works mod
        ``2^(K*BB)``).  ``c``/``c2`` are optional work arrays shaped like
        ``out``; random digit sums almost never produce second-order
        carries, so this beats a K-long ripple."""
        if c is None:
            c, c2 = np.empty_like(out), np.empty_like(out)
        np.right_shift(out, self.BBu, out=c)
        np.bitwise_and(out, self.mask, out=out)
        while c.any():
            c2[:, 0] = 0
            c2[:, 1:] = c[:, :-1]
            np.add(out, c2, out=out)
            np.right_shift(out, self.BBu, out=c)
            np.bitwise_and(out, self.mask, out=out)
        return out

    def _addf(self, x, y, out=None, c=None, c2=None):
        """Digit add (into ``out`` when given), carry out of the top
        digit dropped."""
        return self._carry_fix(np.add(x, y, out=out), c, c2)

    def _neg(self, x):
        out = x ^ self.mask
        out[:, 0] += _ONE
        return self._carry_fix(out)

    # -- the lane type of the shared window stages ----------------------

    clip = staticmethod(np.clip)

    def shl1(self, c):
        out = (c << _ONE) & self.mask
        out[..., 1:] |= c[..., :-1] >> self.BB1u
        return out

    def shr1(self, x):
        out = x >> _ONE
        out[..., :-1] |= (x[..., 1:] & _ONE) << self.BB1u
        return out

    def fill(self, x):
        neg = (x[:, -1:] >> self.BB1u).astype(bool)
        return np.where(neg, self.mask, _U64(0))

    def bitlen(self, x):
        """Bit length of each lane's multi-digit value; 0 for zero.

        ``x`` must be a C-contiguous ``(n, K)`` array.  The top nonzero
        digit (``< 2^56``) is split at bit 28, so its float64 conversion
        in ``frexp`` never rounds."""
        n, K = x.shape
        nz = x != 0
        top = (K - 1) - np.argmax(nz[:, ::-1], axis=-1)
        d = np.take(x.reshape(-1), top + np.arange(n, dtype=np.int64) * K)
        hi = d >> np.uint64(28)
        _, e_hi = np.frexp(hi.astype(np.float64))
        _, e_lo = np.frexp((d & _M28).astype(np.float64))
        bits = np.where(hi > 0, e_hi.astype(np.int64) + 28,
                        e_lo.astype(np.int64))
        return np.where(nz.any(axis=-1), top * self.BB + bits, 0)

    # -- the stacked Wallace trees --------------------------------------

    #: lanes per tree tile -- sized so one tile's row stack stays
    #: cache-resident through all 3:2 levels while amortising ufunc
    #: dispatch (measured optimum on the dev box: 1024 beats 512/2048)
    TILE = 1024

    def _tree_bufs(self):
        """Preallocated flat scratch for one tile (views are carved out
        per level so every array stays C-contiguous -- non-contiguous
        inner axes cost ~4x on the carry pass)."""
        bufs = getattr(self._tls, "tbufs", None)
        if bufs is None:
            LB = self.LB
            big = 53 * self.TILE * LB
            sml = 18 * self.TILE * LB
            bufs = self._tls.tbufs = SimpleNamespace(
                Af=np.empty(big, np.uint64),
                Bf=np.empty(big, np.uint64),
                hmf=np.empty(big, np.uint64),
                scrf=np.empty(sml, np.uint64),
                csf=np.empty(sml, np.uint64),
                c2f=np.empty(sml, np.uint64),
                ruf=np.empty(53 * self.TILE, np.uint64),
                m2f=np.empty(53 * self.TILE, np.uint64),
            )
            # all-ones except at row boundaries (flat index % LB == 0):
            # ANDing the flat cross-limb carry with this kills the
            # garbage carried over from the previous row's top limb in
            # one contiguous SIMD pass (a strided fill walks the whole
            # array scalar-wise)
            bm = np.full(sml, ~np.uint64(0))
            bm[::LB] = 0
            bufs.bmf = bm
        return bufs

    def _digits_to_limbs(self, x):
        """Repack ``(n, K)`` block-width digits into ``(n, ceil(K * BB /
        64))`` 64-bit limbs (little-endian in both forms; ``LB`` limbs
        for a window)."""
        n, K = x.shape
        LB = (K * self.BB + 63) // 64
        out = np.zeros((n, LB), np.uint64)
        for k in range(K):
            j, r = divmod(self.BB * k, 64)
            out[:, j] |= x[:, k] << _U64(r)
            if r and r + self.BB > 64 and j + 1 < LB:
                out[:, j + 1] |= x[:, k] >> _U64(64 - r)
        return out

    def _limbs_to_digits(self, x, out):
        """Repack ``(n, LB)`` limbs into ``(n, D)`` digits (bits at or
        above ``W`` are dropped, matching the mod-``2^W`` convention)."""
        for k in range(self.D):
            j, r = divmod(self.BB * k, 64)
            v = x[:, j] >> _U64(r)
            if r and r + self.BB > 64 and j + 1 < self.LB:
                v = v | (x[:, j + 1] << _U64(64 - r))
            out[:, k] = v & self.mask
        return out

    # -- per-batch-size scratch workspace -------------------------------

    def _ws(self, n):
        """Reusable buffers for one batch width ``n``.

        The window recurrence is dispatch-bound, not compute-bound: at
        chain widths every ndarray op costs microseconds of fixed
        overhead, so the hot path writes into preallocated scratch via
        ``out=`` instead of allocating ~150 temporaries per step."""
        wsmap = getattr(self._tls, "wsmap", None)
        if wsmap is None:
            wsmap = self._tls.wsmap = {}
        ws = wsmap.get(n)
        if ws is None:
            D = self.D
            m = 3 * n
            u64, i64 = np.uint64, np.int64
            ws = SimpleNamespace(
                cat=np.zeros((m, 3 * D), u64),
                s3=np.empty(m, i64),
                q=np.empty(m, i64),
                r3=np.empty(m, i64),
                ru=np.empty((m, 1), u64),
                m1=np.empty((m, 1), u64),
                m2=np.empty((m, 1), u64),
                idx=np.empty((m, D), i64),
                fidx=np.empty((m, D), i64),
                fidx2=np.empty((m, D), i64),
                rowoff3=(np.arange(m, dtype=i64) * (3 * D))[:, None],
                lo=np.empty((m, D), u64),
                hm=np.empty((m, D), u64),
                val=np.empty((n, D), u64),
                pw=np.empty((n, D), u64),
                c1=np.empty((n, D), u64),
                c2=np.empty((n, D), u64),
                gi=np.empty((n, self.MD + 1), i64),
                rowoffD=(np.arange(n, dtype=i64) * D)[:, None],
            )
            ws.catf = ws.cat.reshape(-1)
            wsmap[n] = ws
        return ws

    def _shift3(self, ws, s3):
        """Fused per-lane digit shift of the three rows staged in
        ``ws.cat`` (``[zeros | x | fill]`` per row); same semantics as
        :meth:`_shift` but allocation-free."""
        D = self.D
        np.floor_divide(s3, self.BB, out=ws.q)
        np.multiply(ws.q, self.BB, out=ws.r3)
        np.subtract(s3, ws.r3, out=ws.r3)
        ws.ru[:, 0] = ws.r3
        np.subtract(self._jK[None, :], ws.q[:, None], out=ws.idx)
        np.minimum(ws.idx, 3 * D - 1, out=ws.idx)
        np.maximum(ws.idx, 0, out=ws.idx)
        np.add(ws.idx, ws.rowoff3, out=ws.fidx)
        np.take(ws.catf, ws.fidx, out=ws.lo)
        np.subtract(ws.fidx, 1, out=ws.fidx2)
        np.maximum(ws.fidx2, ws.rowoff3, out=ws.fidx2)
        np.take(ws.catf, ws.fidx2, out=ws.hm)
        np.right_shift(self.mask, ws.ru, out=ws.m1)
        np.subtract(self.BBu, ws.ru, out=ws.m2)
        np.bitwise_and(ws.lo, ws.m1, out=ws.lo)
        np.left_shift(ws.lo, ws.ru, out=ws.lo)
        np.right_shift(ws.hm, ws.m2, out=ws.hm)
        np.bitwise_or(ws.lo, ws.hm, out=ws.lo)
        return ws.lo

    def products(self, cv, sig):
        """Full-width CS products ``(S, C)`` for every lane at once.

        ``cv`` is the wrapped multiplicand (``(n, D)`` digits of
        ``cv mod 2^W``), ``sig`` the ``B`` significands.  Lanes are
        grouped by popcount so each group shares one tree shape; every
        3:2 level runs as a handful of in-place array ops over the
        stacked ``(rows, tile, D)`` block, replicating the exact
        combination order of :func:`repro.cs.csa.reduce_rows` (triples
        in row order, sum/carry interleaved, remainders appended).
        Lanes are processed in cache-sized tiles through preallocated
        ping-pong buffers -- the tree is bandwidth-bound, not
        compute-bound."""
        n = cv.shape[0]
        S = np.zeros((n, self.D), np.uint64)
        C = np.zeros((n, self.D), np.uint64)
        if n == 0:
            return S, C
        tb = self._tree_bufs()
        LB = self.LB
        pop = _popcount(sig)
        if not pop.any():
            return S, C
        cvl_all = self._digits_to_limbs(cv)
        SL = np.zeros((n, LB), np.uint64)
        CL = np.zeros((n, LB), np.uint64)
        for R in np.unique(pop):
            if R == 0:
                continue
            idx = np.flatnonzero(pop == R)
            g = idx.size
            R = int(R)
            # ascending set-bit positions via iterative count-trailing-
            # zeros (same row order as the scalar ``bit_positions``)
            s = sig[idx].copy()
            pos = np.empty((R, g), np.int64)
            for l in range(R):
                low = s & (np.bitwise_not(s) + _ONE)
                pos[l] = _popcount(low - _ONE)
                s ^= low
            cvl = cvl_all[idx]                          # (g, LB)
            # bit positions are < 53 <= 64, so every row is a *sub-limb*
            # shift of cvl: row = (cvl << r) | (cvh >> (63 - r)), where
            # cvh is cvl moved down one limb pre-shifted right by 1 (the
            # extra >>1 keeps the r == 0 case inside uint64 shift range).
            # Bits at or above W stay garbage in the top limb; CSA carry
            # only flows upward, so they never reach bits < W and the
            # final repack drops them.
            cvh = np.zeros((g, LB), np.uint64)
            cvh[:, 1:] = cvl[:, :-1] >> _ONE
            if R == 1:
                ru1 = pos[0].astype(np.uint64)[:, None]
                SL[idx] = (cvl << ru1) | (cvh >> (_U63 - ru1))
                continue
            for a in range(0, g, self.TILE):
                b = min(a + self.TILE, g)
                gt = b - a
                k = gt * LB
                ru = tb.ruf[:R * gt].reshape(R, gt, 1)
                ru[:, :, 0] = pos[:, a:b]
                m2 = tb.m2f[:R * gt].reshape(R, gt, 1)
                np.subtract(_U63, ru, out=m2)
                lo = tb.Af[:R * k].reshape(R, gt, LB)
                hm = tb.hmf[:R * k].reshape(R, gt, LB)
                np.left_shift(cvl[a:b][None], ru, out=lo)
                np.right_shift(cvh[a:b][None], m2, out=hm)
                np.bitwise_or(lo, hm, out=lo)
                src_f, dst_f = tb.Af, tb.Bf
                L = R
                while L > 2:
                    T = L // 3
                    w = T * k
                    work = src_f[:L * k].reshape(L, gt, LB)
                    nxt = dst_f[:(L - T) * k].reshape(L - T, gt, LB)
                    x = work[0:3 * T:3]
                    y = work[1:3 * T:3]
                    z = work[2:3 * T:3]
                    t = tb.scrf[:w].reshape(T, gt, LB)
                    np.bitwise_xor(x, y, out=t)
                    np.bitwise_xor(t, z, out=nxt[0:2 * T:2])
                    cs = tb.csf[:w].reshape(T, gt, LB)
                    np.bitwise_and(x, y, out=cs)
                    np.bitwise_and(t, z, out=t)
                    np.bitwise_or(cs, t, out=t)         # majority
                    # shl1 straight into the interleaved carry slot
                    # (outer-axis stride only, inner axes contiguous);
                    # the cross-limb carry runs as one flat pass over
                    # the contiguous majority scratch, lane-boundary
                    # slots zeroed before the OR
                    nc = nxt[1:2 * T:2]
                    np.left_shift(t, _ONE, out=nc)
                    tf = t.reshape(-1)
                    cf = tb.c2f[:w]
                    np.right_shift(tf[:w - 1], _U63, out=cf[1:])
                    cf[0] = 0
                    np.bitwise_and(cf, tb.bmf[:w], out=cf)
                    np.bitwise_or(nc, cf.reshape(T, gt, LB), out=nc)
                    if L - 3 * T:
                        np.copyto(nxt[2 * T:], work[3 * T:L])
                    src_f, dst_f = dst_f, src_f
                    L = L - T
                res = src_f[:L * k].reshape(L, gt, LB)
                SL[idx[a:b]] = res[0]
                CL[idx[a:b]] = res[1]
        # limb->digit repack, chunked so the strided column reads stay
        # cache-resident
        for a in range(0, n, 8 * self.TILE):
            b = a + 8 * self.TILE
            self._limbs_to_digits(SL[a:b], S[a:b])
            self._limbs_to_digits(CL[a:b], C[a:b])
        return S, C

    # -- operand collapse ------------------------------------------------

    def _collapse(self, cols):
        """``(used, nonzero)``: each lane's ``a_used``/``c_used`` (the
        mantissa sum plus the deferred rounding decision) as a
        sign-extended two's-complement window-digit array; zero for
        lanes that are not normal."""
        n, MD = cols["m"].shape
        v = self._addf(cols["m"], cols["mc"])
        used = np.empty((n, self.D), np.uint64)
        used[:, :MD] = v
        used[:, MD:] = self.fill(v)
        used[:, 0] += ((cols["rs"] + cols["rc"]) & self.mask) >> self.BB1u
        self._carry_fix(used)
        normal = cols["cls"] == CS_NORMAL
        used &= np.where(normal, self.mask, _U64(0))[:, None]
        return used, normal & (used != 0).any(axis=1)

    # -- stages 2-8 of the datapath (shared by fma_lanes / dot chain) ---

    def _window(self, S, C, u, p_nz, au, a_nz, aexp):
        """Window anchoring through the result slice for all lanes.

        ``S``/``C`` are the full-width products (zero where ``~p_nz``),
        ``u = e_f - (b_sig_bits - 1) - frac_bits`` the product anchor,
        ``au`` the collapsed addend (two's complement digits), ``aexp``
        its exponent.  Returns a dict of per-lane column arrays; callers
        classify (trivial / zero / overflow / underflow) on top.
        """
        n = u.shape[0]
        D, BB, MD = self.D, self.BB, self.MD
        ws = self._ws(n)
        aw = aexp - self.frac - self.amax
        w0 = np.where(p_nz,
                      np.where(a_nz, np.maximum(u - self.plsb, aw),
                               u - self.plsb),
                      aw)
        p_pos = u - w0
        # one fused digit shift: product sum, product carry, addend row
        ws.cat[:n, D:2 * D] = S
        ws.cat[n:2 * n, D:2 * D] = C
        ws.cat[2 * n:, D:2 * D] = au
        ws.cat[2 * n:, 2 * D:] = self.fill(au)
        sp = np.maximum(p_pos, 0)
        ws.s3[:n] = sp
        ws.s3[n:2 * n] = sp
        ws.s3[2 * n:] = aexp - self.frac - w0
        lo = self._shift3(ws, ws.s3)
        r0, r1, a_row = lo[:n], lo[n:2 * n], lo[2 * n:]
        has_r1 = p_nz & (p_pos >= 0)
        below = p_nz & (p_pos < 0)
        if below.any():
            bi = np.flatnonzero(below)
            pv = self._addf(S[bi] & self.pmaskd, C[bi] & self.pmaskd)
            pv &= self.pmaskd
            negb = ((pv[:, self.psign_digit] >> self.psign_bit)
                    & _ONE).astype(bool)
            pv |= np.where(negb[:, None], self.pextd, _U64(0))
            r0[bi] = self._shift(pv, p_pos[bi])
            r1[bi] = 0
        a_row &= np.where(a_nz, self.mask, _U64(0))[:, None]
        # 3:2 over at most three rows, then row-count-dependent wiring
        s3, c3 = csa(self, r0, r1, a_row)
        need3 = (has_r1 & a_nz)[:, None]
        w_sum = np.where(need3, s3, np.where(p_nz[:, None], r0, a_row))
        w_carry = np.where(
            need3, c3,
            np.where(has_r1[:, None], r1,
                     np.where((p_nz & a_nz)[:, None], a_row, _U64(0))))
        if self.use_carry_reduce:
            w_sum, w_carry = carry_reduce(self, w_sum, w_carry)
        value = self._addf(w_sum, w_carry, ws.val, ws.c1, ws.c2)
        value_any = (value != 0).any(axis=1)
        vneg = (value[:, D - 1] >> self.BB1u).astype(bool)
        if self.selector == "zd":
            skipped = zd_skip(self, value, BB, self.max_skip)
        else:
            pw = self._addf(r0, r1, ws.pw, ws.c1, ws.c2)
            prod_word = np.where(has_r1[:, None], pw, r0)
            skipped = lza_skip(self, a_row, prod_word, BB, self.max_skip)
        j_lo = (D - 1 - skipped) - (MD - 1)
        gi = ws.gi
        gi[:, 0] = np.maximum(j_lo - 1, 0)
        gi[:, 1:] = j_lo[:, None] + self._mdr
        np.add(gi, ws.rowoffD, out=gi)
        g1 = np.take(w_sum.reshape(-1), gi)
        g2 = np.take(w_carry.reshape(-1), gi)
        m_sum = g1[:, 1:]
        mc_full = g2[:, 1:]
        m_carry = mc_full & self.mcmaskd
        in_w = j_lo >= 1
        r_sum = np.where(in_w, g1[:, 0], _U64(0))
        r_carry = np.where(in_w, g2[:, 0] & self.rcmask1, _U64(0))
        e_r = w0 + BB * j_lo + self.frac
        return {"value_any": value_any, "vneg": vneg, "stray": mc_full
                & self.nmcmaskd, "m": m_sum, "mc": m_carry, "rs": r_sum,
                "rc": r_carry, "e_r": e_r}

    def _result(self, w, trivial, a):
        """Classify :meth:`_window` output into result CS cols (the tail
        shared by :meth:`fma_lanes` and the dot chain).  Active lanes are
        normal, or overflow to INF / underflow to ZERO with the window
        sign as hint; ``trivial`` lanes (no product, zero addend) are
        ZERO and keep the hint of a ZERO addend ``a``."""
        active = ~trivial & w["value_any"]
        # the scalar kernel's carry-plane assertion, batch granular
        if (w["stray"] & np.where(active, ~_U64(0), _U64(0))[:, None]).any():
            raise AssertionError("carry bit outside the operand format")
        e_r = w["e_r"]
        overflow = active & (e_r > self.emax)
        underflow = active & (e_r < self.emin)
        normal = active & ~overflow & ~underflow
        sh = np.where(overflow | underflow, w["vneg"].astype(np.int64), 0)
        sh = np.where(trivial & (a["cls"] == CS_ZERO), a["sh"], sh)
        return {"cls": np.where(normal, CS_NORMAL,
                                np.where(overflow, CS_INF, CS_ZERO)),
                "exp": e_r, "m": w["m"], "mc": w["mc"], "rs": w["rs"],
                "rc": w["rc"], "sh": sh}

    # -- independent lanes (fma_batch) ----------------------------------

    def fma_lanes(self, a, b, c):
        """``a + b * c`` per lane; no NaN/Inf lanes (caller routes those
        to the scalar kernel).  Returns CS cols."""
        n = b["cls"].shape[0]
        cu, c_nz = self._collapse(c)
        au, a_nz = self._collapse(a)
        p_nz = (b["cls"] == CS_NORMAL) & c_nz
        S = np.zeros((n, self.D), np.uint64)
        C = np.zeros((n, self.D), np.uint64)
        pidx = np.flatnonzero(p_nz)
        if pidx.size:
            cv = cu[pidx]
            neg = b["sign"][pidx].astype(bool)
            if neg.any():
                cv = np.where(neg[:, None], self._neg(cv), cv)
            S[pidx], C[pidx] = self.products(cv, b["sig"][pidx])
        u = b["exp"] + c["exp"] - (self.bsig - 1) - self.frac
        w = self._window(S, C, u, p_nz, au, a_nz, a["exp"])
        return self._result(w, ~p_nz & ~a_nz, a)

    # -- lifts / lowers --------------------------------------------------

    def lower_lanes(self, cols):
        """CS cols -> list of internal kernel tuples, built a whole column
        at a time: the mantissa digits are packed into 64-bit limbs with
        array ops, every column becomes Python ints with one ``tolist``,
        and only the limbs of each lane are joined in Python.  As in
        :meth:`FastCSKernel.fma`, a non-NORMAL lane carries only its
        class and sign hint (a NORMAL lane's hint is already 0)."""
        cls = cols["cls"]
        normal = cls == CS_NORMAL
        keep = np.where(normal, ~_U64(0), _U64(0))
        return list(zip(cls.tolist(),
                        np.where(normal, cols["exp"], 0).tolist(),
                        self._digits_to_ints(cols["m"] & keep[:, None]),
                        self._digits_to_ints(cols["mc"] & keep[:, None]),
                        (cols["rs"] & keep).tolist(),
                        (cols["rc"] & keep).tolist(),
                        cols["sh"].tolist()))

    def _digits_to_ints(self, x) -> list:
        """``(n, K)`` block-width digits -> one Python int per lane."""
        limbs = self._digits_to_limbs(x).T.tolist()
        out = limbs.pop()
        while limbs:
            out = [hi << 64 | lo for hi, lo in zip(out, limbs.pop())]
        return out

    # -- fused dot products ---------------------------------------------

    def _dot_products(self, asig, asign, bsig, bsign):
        """Precompute every step's full-width product planes.

        In the dot chain the multiplicand is the exact lift of ``b_i``
        (its rounding block is zero, so the deferred decision is zero)
        and the multiplier significand is ``a_i`` -- both independent of
        the accumulator, which is what makes the products batchable.
        Every normal ``b_i`` is lifted, as the faithful dot lifts it,
        and a zero ``a_i`` gives a zero product."""
        T, N = asig.shape
        S = np.zeros((T * N, self.D), np.uint64)
        C = np.zeros((T * N, self.D), np.uint64)
        idx = np.flatnonzero(bsig)
        # chunked so each slice's staging + tree working set stays
        # L3-resident (at millions of products the gathers/scatters
        # otherwise stream from DRAM)
        CH = 128 * self.TILE
        for a0 in range(0, idx.size, CH):
            sl = idx[a0:a0 + CH]
            neg = (asign.ravel()[sl] ^ bsign.ravel()[sl]).astype(bool)
            cv = self._lift_sig(bsig.ravel()[sl], neg, self.D)
            S[sl], C[sl] = self.products(cv, asig.ravel()[sl])
        return (S.reshape(T, N, self.D), C.reshape(T, N, self.D),
                (asig != 0) & (bsig != 0))

    def _lift_sig(self, sig, neg, K):
        """``(n, K)`` digits of ``+-(sig << ieee_shift)`` modulo
        ``2**(K * block)``, negative where ``neg``: the exact lift of
        binary64 significands (:meth:`FastCSKernel.lift_ieee`'s mantissa
        at ``K = mant_blocks``, the dot multiplicand at ``K =
        window_blocks``).  Like :meth:`CSFloat.from_ieee
        <repro.fma.formats.CSFloat.from_ieee>`, it refuses a nonzero
        significand wider than the geometry's fraction."""
        if self.ieee_shift < 0 and sig.any():
            raise ValueError("binary64 significand too wide for "
                             f"{self.kernel.params.name} operand")
        # a *constant* shift: each digit is a fixed slice of the 53-bit
        # significand
        mag = np.zeros((sig.shape[0], K), np.uint64)
        for j in range(K):
            sh = self.BB * j - self.ieee_shift
            if -self.BB < sh < 53:
                v = sig >> _U64(sh) if sh >= 0 else sig << _U64(-sh)
                mag[:, j] = v & self.mask
        return np.where(neg[:, None], self._neg(mag), mag)

    def _word_planes(self, w, live):
        """Classify a plane of binary64 words: ``(sig, sign, exp,
        special)``, with ``sig``/``exp`` zero off the normal ``live``
        words -- subnormals flush to signed zero, the loader semantics
        of :func:`repro.fp.word_to_fp` -- and ``sign`` the raw sign
        bit."""
        be = (w >> _U64(52)) & _U64(0x7FF)
        nrm = (be != 0) & (be != _U64(0x7FF)) & live
        spec = (be == _U64(0x7FF)) & live
        sig = np.where(nrm, (w & self.fmask) | _U64(1 << 52), _U64(0))
        exp = np.where(nrm, be.astype(np.int64) - 1023, 0)
        return sig, w >> _U64(63), exp, spec

    def dot_many_words(self, a_words, b_words, lens=None):
        """Independent fused dot products over padded ``(T, N)`` binary64
        bit-word planes (step-major -- the serve wire format, fully
        vectorized staging).  Lane ``i`` consumes the first ``lens[i]``
        steps.  Returns one internal accumulator tuple per lane,
        bit-identical to :meth:`FastCSKernel.dot_tuple` over
        ``word_to_fp`` of each element (subnormal encodings flush to
        signed zero); lanes holding Inf/NaN and lanes whose accumulator
        overflows re-run on ``dot_tuple``."""
        a_words = np.ascontiguousarray(a_words, np.uint64)
        b_words = np.ascontiguousarray(b_words, np.uint64)
        if a_words.shape != b_words.shape or a_words.ndim != 2:
            raise ValueError("word planes must share one (T, N) shape")
        T, N = a_words.shape
        if N == 0:
            return []
        lens = (np.full(N, T, np.int64) if lens is None
                else np.asarray(lens, np.int64))
        step_live = np.arange(T, dtype=np.int64)[:, None] < lens[None, :]
        asig, asign, aexp, spec_a = self._word_planes(a_words, step_live)
        bsig, bsign, bexp, spec_b = self._word_planes(b_words, step_live)
        redo = (spec_a | spec_b).any(axis=0)
        n_spec = int(redo.sum())
        live = np.flatnonzero(~redo)
        if n_spec:
            asig, asign, aexp, bsig, bsign, bexp = (
                p[:, live] for p in (asig, asign, aexp, bsig, bsign, bexp))
        S_all, C_all, p_all = self._dot_products(asig, asign, bsig, bsign)
        u_all = aexp + bexp - (self.bsig - 1) - self.frac
        cols, overflow = self._dot_chain(lens[live], S_all, C_all, p_all,
                                         u_all)
        redo[live] = overflow
        out = [None] * N
        for i, t in zip(live.tolist(), self.lower_lanes(cols)):
            out[i] = t
        count_lanes(N, {"special": n_spec,
                        "window-overflow": int(redo.sum()) - n_spec})
        if redo.any():
            for i in np.flatnonzero(redo):
                L = int(lens[i])
                out[i] = self.kernel.dot_tuple(
                    [word_to_fp(int(w)) for w in a_words[:L, i]],
                    [word_to_fp(int(w)) for w in b_words[:L, i]])
        return out

    def _dot_chain(self, lens, S_all, C_all, p_all, u_all):
        """The sequential accumulator chain ``acc = fma(acc, a_t, b_t)``
        over vectorized lanes, the accumulator kept as CS cols.  Returns
        each lane's final cols and the lanes that overflowed (the caller
        re-runs those on the tuple kernel)."""
        T, n = p_all.shape
        acc = {"cls": np.zeros(n, np.int64), "exp": np.zeros(n, np.int64),
               "m": np.zeros((n, self.MD), np.uint64),
               "mc": np.zeros((n, self.MD), np.uint64),
               "rs": np.zeros(n, np.uint64), "rc": np.zeros(n, np.uint64),
               "sh": np.zeros(n, np.int64)}
        final = {k: v.copy() for k, v in acc.items()}  # empty lanes: ZERO
        overflow = np.zeros(n, bool)
        for t in range(T):
            # finished and overflowed lanes run as trivial (ZERO) steps
            upd = (t < lens) & ~overflow
            if not upd.any():
                break
            au, a_nz = self._collapse(acc)
            a_nz &= upd
            p_nz = p_all[t] & upd
            w = self._window(S_all[t], C_all[t], u_all[t], p_nz, au, a_nz,
                             acc["exp"])
            acc = self._result(w, ~p_nz & ~a_nz, acc)
            overflow |= acc["cls"] == CS_INF
            fin = upd & (lens == t + 1)
            if fin.any():
                for k, v in acc.items():
                    final[k][fin] = v[fin]
        return final, overflow

    # -- single-dot hybrid ----------------------------------------------

    def dot_hybrid(self, a, b):
        """One fused dot product: the products (the dominant cost of the
        tuple chain) run vectorized across all steps, and
        :meth:`FastCSKernel.dot_tuple` runs the ~35-op window recurrence
        with each step's product pair injected.  Bit-identical to
        ``dot_tuple`` alone, which runs dots holding NaN/Inf or
        non-binary64 elements instead."""
        kernel = self.kernel
        ok = (FpClass.NORMAL, FpClass.ZERO)
        if not a or any(x.fmt is not BINARY64 or x.cls not in ok
                        for x in (*a, *b)):
            return kernel.dot_tuple(a, b)
        words = (np.array([fp_to_word(x) for x in xs], np.uint64)[:, None]
                 for xs in (a, b))
        (asig, asign, _, _), (bsig, bsign, _, _) = (
            self._word_planes(w, True) for w in words)
        S, C, _p = self._dot_products(asig, asign, bsig, bsign)
        return kernel.dot_tuple(a, b, zip(self._digits_to_ints(S[:, 0]),
                                          self._digits_to_ints(C[:, 0])))

    # -- vectorized IEEE word codecs ------------------------------------

    def lift_words(self, words):
        """binary64 bit patterns -> (a/c cols, b cols, special mask).

        Bit-identical to ``word_to_fp`` + ``lift_ieee``/``lift_b``:
        subnormal encodings flush to signed zero, the CS lift of a
        normal is exact.  On a geometry narrower than binary64, a
        normal word raises :meth:`_lift_sig`'s ``ValueError``."""
        words = np.asarray(words, np.uint64)
        n = words.shape[0]
        bcols, special = self.b_words(words)
        zlane = np.zeros(n, np.uint64)
        cs = {"cls": bcols["cls"], "exp": bcols["exp"],
              "m": self._lift_sig(bcols["sig"], bcols["sign"] == 1, self.MD),
              "mc": np.zeros((n, self.MD), np.uint64), "rs": zlane,
              "rc": zlane.copy(), "sh": bcols["sign"].astype(np.int64)}
        return cs, bcols, special

    def b_words(self, words):
        """binary64 bit patterns -> (b cols, special mask): the IEEE B
        port's columns, bit-identical to ``word_to_fp`` + ``lift_b``.
        The B port keeps the binary64 significand as it is, so there is
        no CS digit lift and no geometry too narrow for it."""
        words = np.asarray(words, np.uint64)
        sig, sign, exp, special = self._word_planes(words, True)
        nan = special & ((words & self.fmask) != 0)
        cls = np.where(sig != 0, CS_NORMAL,
                       np.where(special, np.where(nan, CS_NAN, CS_INF),
                                CS_ZERO))
        return {"cls": cls, "sign": sign, "exp": exp, "sig": sig}, special
