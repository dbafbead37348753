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
Reduce never rips across digits).

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

Divergence policy
-----------------
Lanes the vector pipeline does not model -- NaN/Inf operands, non-
binary64 inputs, mid-chain overflow to infinity -- are masked out and
routed to the scalar kernel, element by element, so the result stream is
bit-identical lane for lane.  Armed probes / guard residue checkers are
handled one level up (:mod:`repro.batch.api` falls back to the tuple
kernel for the whole call, keeping every fault-injection site live);
this module assumes it runs disarmed and installs no hooks.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import numpy as np

from ..fp.formats import BINARY64
from ..fp.value import FpClass, FPValue
from ..telemetry import core as _tm
from .cskernel import (CS_INF, CS_NAN, CS_NORMAL, CS_ZERO, FastCSKernel,
                       bit_positions, kernel_for)

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
    """

    def __init__(self, kernel: FastCSKernel):
        self.kernel = kernel
        p = kernel.params
        self.BB = BB = kernel.block
        self.D = D = p.window_blocks
        self.MD = MD = p.mant_blocks
        self.W = kernel.W
        if BB * D != kernel.W:
            raise ValueError("window width is not digit-aligned")
        if kernel.use_carry_reduce and BB % p.carry_spacing != 0:
            raise ValueError("carry-spacing chunks straddle digits")
        self.BBu = _U64(BB)
        self.BB1u = _U64(BB - 1)
        self.DMASK = _U64((1 << BB) - 1)
        self.frac = kernel.frac
        self.bsig = kernel.bsig
        self.plsb = kernel.plsb
        self.amax = kernel.amax
        self.max_skip = kernel.max_skip
        self.emin, self.emax = kernel.emin, kernel.emax
        self.ieee_shift = kernel.ieee_shift
        self.use_carry_reduce = kernel.use_carry_reduce
        self.selector = kernel.selector
        # per-digit constant planes
        self.Hd = self._const_digits(kernel.H, D)
        self.notHd = self._const_digits(kernel.notH, D)
        self.pmaskd = self._const_digits(kernel.pmask, D)
        self.pextd = self._const_digits(~kernel.pmask & kernel.wmask, D)
        self.mcmaskd = self._const_digits(kernel.mcmask, MD)
        self.nmcmaskd = self._const_digits(~kernel.mcmask & kernel.mmask, MD)
        self.rcmask1 = _U64(kernel.rcmask & kernel.bmask)
        self.topd = self._const_digits((1 << (self.W - 1)) - 1, D)
        pd, pb = divmod(p.product_width - 1, BB)
        self.psign_digit, self.psign_bit = pd, _U64(pb)
        # IEEE pack geometry: V = (mant_signed << block) + round_frac is
        # a (mant_width + block + 1)-bit signed value -> MD + 2 digits
        self.VD = MD + 2
        self.fbits = BINARY64.fraction_bits
        self.fmask = _U64((1 << 52) - 1)
        # scratch workspaces live per thread so the serve executor's
        # worker pool can share one kernel object
        self._tls = threading.local()
        self._jK = (np.arange(D) + D).astype(np.int64)
        self._mdr = np.arange(MD, dtype=np.int64)
        # the stacked trees run on 64-bit *limbs* rather than block-width
        # digits: fewer words per row (FCS: 6 vs 13) and no shl1 masking
        self.LB = (self.W + 63) // 64

    # -- small digit-array primitives (all little-endian, last axis) ----

    def _const_digits(self, x: int, k: int):
        m = (1 << self.BB) - 1
        return np.array([(x >> (self.BB * i)) & m for i in range(k)],
                        dtype=np.uint64)

    def _shift(self, x, s, fill=None):
        """``floor(x_ext * 2^s) mod 2^(K*BB)`` with per-lane shift ``s``
        of either sign; ``fill`` (``(n,)`` of 0/DMASK) extends above the
        top digit (two's-complement arithmetic right shifts)."""
        n, K = x.shape
        q = s // self.BB                       # floor division (int64)
        r = (s - q * self.BB).astype(np.uint64)[:, None]
        z = np.zeros((n, K), np.uint64)
        hi = z if fill is None else np.broadcast_to(fill[:, None], (n, K))
        cat = np.concatenate([z, x, hi], axis=1)
        j = np.arange(K, dtype=np.int64)
        idx = np.clip(j[None, :] - q[:, None] + K, 0, 3 * K - 1)
        idx = idx.astype(np.intp)
        lo = np.take_along_axis(cat, idx, axis=1)
        hm = np.take_along_axis(cat, np.maximum(idx - 1, 0), axis=1)
        return ((lo & (self.DMASK >> r)) << r) | (hm >> (self.BBu - r))

    def _shl1(self, c):
        out = (c << _ONE) & self.DMASK
        out[..., 1:] |= c[..., :-1] >> self.BB1u
        return out

    def _shr1(self, x):
        out = x >> _ONE
        out[..., :-1] |= (x[..., 1:] & _ONE) << self.BB1u
        return out

    def _csa(self, x, y, z):
        t = x ^ y
        return t ^ z, self._shl1((x & y) | (t & z))

    def _add(self, x, y):
        """Digit-wise ripple add, carry out of the top digit dropped."""
        out = np.empty_like(x)
        c = np.zeros(x.shape[:-1], np.uint64)
        for j in range(x.shape[-1]):
            s = x[..., j] + y[..., j] + c
            out[..., j] = s & self.DMASK
            c = s >> self.BBu
        return out

    def _add0(self, x, y0):
        """Add the sub-digit value ``y0`` (``(n,)`` uint64) at digit 0."""
        out = np.empty_like(x)
        c = y0
        for j in range(x.shape[-1]):
            s = x[..., j] + c
            out[..., j] = s & self.DMASK
            c = s >> self.BBu
        return out

    def _neg(self, x):
        return self._add0(x ^ self.DMASK, _ONE)

    @staticmethod
    def _bitlen_digit(d):
        """Exact bit length of digits ``< 2^56`` (split so the float64
        conversion in ``frexp`` never rounds)."""
        hi = d >> np.uint64(28)
        _, e_hi = np.frexp(hi.astype(np.float64))
        _, e_lo = np.frexp((d & _M28).astype(np.float64))
        return np.where(hi > 0, e_hi.astype(np.int64) + 28,
                        e_lo.astype(np.int64))

    def _bitlen(self, x):
        """Bit length of each lane's multi-digit value; 0 for zero.

        ``x`` must be a C-contiguous ``(n, K)`` array."""
        n, K = x.shape
        nz = x != 0
        top = (K - 1) - np.argmax(nz[:, ::-1], axis=-1)
        d = np.take(x.reshape(-1), top + np.arange(n, dtype=np.int64) * K)
        return np.where(nz.any(axis=-1),
                        top * self.BB + self._bitlen_digit(d), 0)

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
        """Repack ``(n, D)`` block-width digits into ``(n, LB)`` 64-bit
        limbs (little-endian in both forms)."""
        n = x.shape[0]
        out = np.zeros((n, self.LB), np.uint64)
        for k in range(self.D):
            j, r = divmod(self.BB * k, 64)
            out[:, j] |= x[:, k] << _U64(r)
            if r and r + self.BB > 64 and j + 1 < self.LB:
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
            out[:, k] = v & self.DMASK
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
                t1=np.empty((n, D), u64),
                t2=np.empty((n, D), u64),
                t3=np.empty((n, D), u64),
                t4=np.empty((n, D), u64),
                val=np.empty((n, D), u64),
                pw=np.empty((n, D), u64),
                c1=np.empty((n, D), u64),
                c2=np.empty((n, D), u64),
                ext=np.empty((n, D), u64),
                aun=np.empty((n, D), u64),
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
        np.right_shift(self.DMASK, ws.ru, out=ws.m1)
        np.subtract(self.BBu, ws.ru, out=ws.m2)
        np.bitwise_and(ws.lo, ws.m1, out=ws.lo)
        np.left_shift(ws.lo, ws.ru, out=ws.lo)
        np.right_shift(ws.hm, ws.m2, out=ws.hm)
        np.bitwise_or(ws.lo, ws.hm, out=ws.lo)
        return ws.lo

    def _carry_fix(self, out, c, c2):
        """Fold per-digit carries upward until none remain (drops the
        carry out of the top digit, i.e. works mod ``2^W``)."""
        while c.any():
            c2[:, 0] = 0
            c2[:, 1:] = c[:, :-1]
            np.add(out, c2, out=out)
            np.right_shift(out, self.BBu, out=c)
            np.bitwise_and(out, self.DMASK, out=out)

    def _addf(self, x, y, out, c, c2):
        """Digit add into ``out`` -- same result as :meth:`_add` but
        carry-iteration instead of a D-long ripple (random digit sums
        almost never produce second-order carries)."""
        np.add(x, y, out=out)
        np.right_shift(out, self.BBu, out=c)
        np.bitwise_and(out, self.DMASK, out=out)
        self._carry_fix(out, c, c2)
        return out

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
        """``(used, nonzero)``: each lane's ``a_used``/``c_used`` as a
        sign-extended two's-complement window-digit array."""
        n = cols["cls"].shape[0]
        dec = ((cols["rs"] + cols["rc"]) & self.DMASK) >> self.BB1u
        v = self._add(cols["m"], cols["mc"])
        neg = (v[:, self.MD - 1] >> self.BB1u) & _ONE
        ext = np.zeros((n, self.D), np.uint64)
        ext[:, :self.MD] = v
        ext[:, self.MD:] = np.where(neg.astype(bool), self.DMASK,
                                    _U64(0))[:, None]
        used = self._add0(ext, dec)
        normal = cols["cls"] == CS_NORMAL
        used &= np.where(normal, self.DMASK, _U64(0))[:, None]
        nonzero = normal & (used != 0).any(axis=1)
        return used, nonzero

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
        a_neg = (au[:, D - 1] >> self.BB1u).astype(bool)
        afill = np.where(a_neg, self.DMASK, _U64(0))
        ws.cat[:n, D:2 * D] = S
        ws.cat[n:2 * n, D:2 * D] = C
        ws.cat[2 * n:, D:2 * D] = au
        ws.cat[2 * n:, 2 * D:] = afill[:, None]
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
            pv = self._add(S[bi] & self.pmaskd, C[bi] & self.pmaskd)
            pv &= self.pmaskd
            negb = ((pv[:, self.psign_digit] >> self.psign_bit)
                    & _ONE).astype(bool)
            pv |= np.where(negb[:, None], self.pextd, _U64(0))
            fill = np.where(negb, self.DMASK, _U64(0))
            r0[bi] = self._shift(pv, p_pos[bi], fill)
            r1[bi] = 0
        a_row &= np.where(a_nz, self.DMASK, _U64(0))[:, None]
        # 3:2 over at most three rows, then row-count-dependent wiring
        s3, c3 = self._csa(r0, r1, a_row)
        need3 = (has_r1 & a_nz)[:, None]
        w_sum = np.where(need3, s3, np.where(p_nz[:, None], r0, a_row))
        w_carry = np.where(
            need3, c3,
            np.where(has_r1[:, None], r1,
                     np.where((p_nz & a_nz)[:, None], a_row, _U64(0))))
        if self.use_carry_reduce:
            A, B = w_sum, w_carry
            np.bitwise_and(A, self.notHd, out=ws.t1)
            np.bitwise_and(B, self.notHd, out=ws.t2)
            z = np.add(ws.t1, ws.t2, out=ws.t1)
            axb = np.bitwise_xor(A, B, out=ws.t2)
            g = np.bitwise_and(A, B, out=ws.t3)
            np.bitwise_and(axb, z, out=ws.t4)
            np.bitwise_or(g, ws.t4, out=ws.t4)
            np.bitwise_and(ws.t4, self.Hd, out=ws.t4)
            np.left_shift(ws.t4, _ONE, out=ws.t3)
            np.bitwise_and(ws.t3, self.DMASK, out=ws.t3)
            ws.t3[:, 1:] |= ws.t4[:, :-1] >> self.BB1u
            w_carry = ws.t3
            np.bitwise_xor(z, axb, out=ws.t2)
            np.bitwise_and(ws.t2, self.Hd, out=ws.t2)
            np.bitwise_and(z, self.notHd, out=ws.t1)
            w_sum = np.bitwise_or(ws.t1, ws.t2, out=ws.t1)
        value = self._addf(w_sum, w_carry, ws.val, ws.c1, ws.c2)
        value_any = (value != 0).any(axis=1)
        vneg = (value[:, D - 1] >> self.BB1u).astype(bool)
        if self.selector == "zd":
            x = np.where(vneg[:, None], value ^ self.DMASK, value)
            rsb = self.W - self._bitlen(x)
            skipped = np.clip((rsb - 1) // BB, 0, self.max_skip)
        else:
            pw = self._addf(r0, r1, ws.pw, ws.c1, ws.c2)
            prod_word = np.where(has_r1[:, None], pw, r0)
            aa = a_row
            t = aa ^ prod_word
            g = aa & prod_word
            zz = (aa | prod_word) ^ self.DMASK
            t_up = self._shr1(t)
            z_dn = self._shl1(zz)
            z_dn[:, 0] |= _ONE
            g_dn = self._shl1(g)
            f = (t_up & ((g & ~z_dn) | (zz & ~g_dn))
                 | (t_up ^ self.DMASK) & ((zz & ~z_dn) | (g & ~g_dn)))
            f &= self.topd
            bl = self._bitlen(f)
            est = np.where(bl == 0, self.W - 1, self.W - bl)
            skipped = np.where(est > 1, (est - 1) // BB, 0)
            skipped = np.minimum(skipped, self.max_skip)
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

    @staticmethod
    def _check_stray(stray, active):
        # the scalar kernel's carry-plane assertion, batch granular
        if (stray & np.where(active, ~_U64(0), _U64(0))[:, None]).any():
            raise AssertionError("carry bit outside the operand format")

    # -- independent lanes (fma_batch) ----------------------------------

    def fma_lanes(self, a, b, c):
        """``a + b * c`` per lane; no NaN/Inf lanes (caller routes those
        to the scalar kernel).  Returns CS cols."""
        n = b["cls"].shape[0]
        cu, c_nz = self._collapse(c)
        au, a_nz = self._collapse(a)
        p_nz = (b["cls"] == CS_NORMAL) & c_nz
        trivial = ~p_nz & ~a_nz
        S = np.zeros((n, self.D), np.uint64)
        C = np.zeros((n, self.D), np.uint64)
        pidx = np.flatnonzero(p_nz)
        if pidx.size:
            cv = cu[pidx]
            neg = b["sign"][pidx].astype(bool)
            if neg.any():
                cv = np.where(neg[:, None], self._neg(cv), cv)
            S[pidx], C[pidx] = self.products(cv, b["sig"][pidx])
        e_f = b["exp"] + c["exp"]
        u = e_f - (self.bsig - 1) - self.frac
        w = self._window(S, C, u, p_nz, au, a_nz, a["exp"])
        active = ~trivial & w["value_any"]
        self._check_stray(w["stray"], active)
        e_r = w["e_r"]
        overflow = active & (e_r > self.emax)
        underflow = active & (e_r < self.emin)
        normal = active & ~overflow & ~underflow
        cls = np.where(normal, CS_NORMAL,
                       np.where(overflow, CS_INF, CS_ZERO))
        vsign = w["vneg"].astype(np.int64)
        sh = np.where(overflow | underflow, vsign, 0)
        sh = np.where(trivial & (a["cls"] == CS_ZERO), a["sh"], sh)
        nm = np.where(normal, self.DMASK, _U64(0))[:, None]
        return {"cls": cls, "exp": np.where(normal, e_r, 0),
                "m": w["m"] & nm, "mc": w["mc"] & nm,
                "rs": np.where(normal, w["rs"], _U64(0)),
                "rc": np.where(normal, w["rc"], _U64(0)), "sh": sh}

    # -- lifts / lowers --------------------------------------------------

    def lift_cs_lanes(self, values, unit):
        """CSFloat/FPValue sequence -> (cols, special mask)."""
        from ..fma.formats import CSFloat

        n = len(values)
        cls = np.zeros(n, np.int64)
        exp = np.zeros(n, np.int64)
        sh = np.zeros(n, np.int64)
        m = np.zeros((n, self.MD), np.uint64)
        mc = np.zeros((n, self.MD), np.uint64)
        rs = np.zeros(n, np.uint64)
        rc = np.zeros(n, np.uint64)
        special = np.zeros(n, bool)
        BB = self.BB
        dm = (1 << BB) - 1
        kernel = self.kernel
        for i, v in enumerate(values):
            if isinstance(v, CSFloat):
                t = kernel.lift_cs(v)
            else:
                t = kernel.lift_ieee(v)
            cls[i] = t[0]
            if t[0] == CS_NORMAL:
                exp[i] = t[1]
                ms, mcs = t[2], t[3]
                for j in range(self.MD):
                    m[i, j] = (ms >> (BB * j)) & dm
                    mc[i, j] = (mcs >> (BB * j)) & dm
                rs[i] = t[4]
                rc[i] = t[5]
            else:
                sh[i] = t[6]
                special[i] = t[0] in (CS_INF, CS_NAN)
        return ({"cls": cls, "exp": exp, "m": m, "mc": mc, "rs": rs,
                 "rc": rc, "sh": sh}, special)

    def lift_b_lanes(self, values):
        """IEEE ``B`` sequence -> (cols, special mask)."""
        n = len(values)
        cls = np.zeros(n, np.int64)
        sign = np.zeros(n, np.uint64)
        exp = np.zeros(n, np.int64)
        sig = np.zeros(n, np.uint64)
        special = np.zeros(n, bool)
        for i, v in enumerate(values):
            t = self.kernel.lift_b(v)
            cls[i] = t[0]
            sign[i] = t[1]
            exp[i] = t[2]
            sig[i] = t[3]
            special[i] = t[0] in (CS_INF, CS_NAN)
        return ({"cls": cls, "sign": sign, "exp": exp, "sig": sig},
                special)

    def lower_lanes(self, cols):
        """CS cols -> list of internal kernel tuples."""
        out = []
        BB = self.BB
        cls = cols["cls"]
        exp = cols["exp"]
        m, mc = cols["m"], cols["mc"]
        rs, rc = cols["rs"], cols["rc"]
        sh = cols["sh"]
        for i in range(cls.shape[0]):
            ci = int(cls[i])
            if ci != CS_NORMAL:
                out.append((ci, 0, 0, 0, 0, 0, int(sh[i])))
                continue
            ms = mcs = 0
            for j in range(self.MD):
                ms |= int(m[i, j]) << (BB * j)
                mcs |= int(mc[i, j]) << (BB * j)
            out.append((CS_NORMAL, int(exp[i]), ms, mcs, int(rs[i]),
                        int(rc[i]), 0))
        return out

    # -- fused dot products, lanes in parallel --------------------------

    def _dot_inputs(self, a_lanes, b_lanes):
        """Stage the per-(step, lane) element planes for :meth:`dot_many`.

        Returns ``None`` for lanes the chain does not model (non-finite
        or non-binary64 elements) via the ``defer`` mask, plus padded
        ``(T, N)`` element arrays and the precomputed full-width product
        planes."""
        N = len(a_lanes)
        lens = np.array([len(a) for a in a_lanes], np.int64)
        T = int(lens.max()) if N else 0
        defer = np.zeros(N, bool)
        asig = np.zeros((T, N), np.uint64)
        asign = np.zeros((T, N), np.uint64)
        aexp = np.zeros((T, N), np.int64)
        bsig = np.zeros((T, N), np.uint64)
        bsign = np.zeros((T, N), np.uint64)
        bexp = np.zeros((T, N), np.int64)
        one = 1 << 52
        for i, (av, bv) in enumerate(zip(a_lanes, b_lanes)):
            for t, (ai, bi) in enumerate(zip(av, bv)):
                if (ai.fmt is not BINARY64 or bi.fmt is not BINARY64
                        or ai.cls not in (FpClass.NORMAL, FpClass.ZERO)
                        or bi.cls not in (FpClass.NORMAL, FpClass.ZERO)):
                    defer[i] = True
                    break
                if ai.cls is FpClass.NORMAL:
                    asig[t, i] = ai.fraction | one
                    asign[t, i] = ai.sign
                    aexp[t, i] = ai.biased_exponent - 1023
                if bi.cls is FpClass.NORMAL:
                    bsig[t, i] = bi.fraction | one
                    bsign[t, i] = bi.sign
                    bexp[t, i] = bi.biased_exponent - 1023
        return lens, T, defer, asig, asign, aexp, bsig, bsign, bexp

    def _dot_products(self, asig, asign, bsig, bsign):
        """Precompute every step's full-width product planes.

        In the dot chain the multiplicand is the exact lift of ``b_i``
        (its rounding block is zero, so the deferred decision is zero)
        and the multiplier significand is ``a_i`` -- both independent of
        the accumulator, which is what makes the products batchable."""
        T, N = asig.shape
        flat_p = ((asig != 0) & (bsig != 0)).ravel()
        S = np.zeros((T * N, self.D), np.uint64)
        C = np.zeros((T * N, self.D), np.uint64)
        idx = np.flatnonzero(flat_p)
        # chunked so each slice's staging + tree working set stays
        # L3-resident (at millions of products the gathers/scatters
        # otherwise stream from DRAM)
        CH = 128 * self.TILE
        for a0 in range(0, idx.size, CH):
            sl = idx[a0:a0 + CH]
            bs = bsig.ravel()[sl]
            # mag = bs << ieee_shift with a *constant* shift: each digit
            # is a fixed-shift slice of the 53-bit significand
            mag = np.zeros((sl.size, self.D), np.uint64)
            for j in range(self.D):
                sh = self.BB * j - self.ieee_shift
                if -self.BB < sh < 53:
                    v = bs >> _U64(sh) if sh >= 0 else bs << _U64(-sh)
                    mag[:, j] = v & self.DMASK
            neg = ((asign.ravel()[sl] ^ bsign.ravel()[sl])
                   .astype(bool))
            cv = np.where(neg[:, None], self._neg(mag), mag)
            S[sl], C[sl] = self.products(cv, asig.ravel()[sl])
        return (S.reshape(T, N, self.D), C.reshape(T, N, self.D),
                flat_p.reshape(T, N))

    def _dot_run(self, lens, defer, planes, scalar_cb):
        """Shared chain driver for :meth:`dot_many` / :meth:`dot_many_words`:
        products, the sequential window chain, and scalar redo of
        deferred/overflowed lanes via ``scalar_cb(i)``."""
        asig, asign, aexp, bsig, bsign, bexp = planes
        N = lens.shape[0]
        T = asig.shape[0]
        if T == 0:
            defer = np.ones(N, bool)    # all-empty dots: trivial scalar
        n_spec = int(defer.sum())
        out = [None] * N
        live = np.flatnonzero(~defer)
        if live.size and T:
            if defer.any():
                sub = (asig[:, live], asign[:, live], aexp[:, live],
                       bsig[:, live], bsign[:, live], bexp[:, live])
                asig, asign, aexp, bsig, bsign, bexp = sub
            S_all, C_all, p_all = self._dot_products(asig, asign, bsig,
                                                     bsign)
            u_all = (aexp + bexp - (self.bsig - 1) - self.frac)
            res = self._dot_chain(lens[live], S_all, C_all, p_all, u_all)
            tuples, dead = res
            for k, i in enumerate(live):
                if dead[k]:
                    defer[i] = True
                else:
                    out[i] = tuples[k]
        tm = _tm.ACTIVE
        if tm is not None:
            n_def = int(defer.sum())
            tm.count("batch.vector.lanes", N - n_def)
            if n_def:
                tm.count("batch.vector.deferred", n_def)
                if n_spec:
                    tm.count("batch.vector.deferred.special", n_spec)
                if n_def - n_spec:
                    tm.count("batch.vector.deferred.window-overflow",
                             n_def - n_spec)
        for i in np.flatnonzero(defer):
            out[i] = scalar_cb(int(i))
        return out

    def dot_many(self, a_lanes, b_lanes):
        """Independent fused dot products, one lane per row; returns a
        list of internal accumulator tuples, each bit-identical to
        :meth:`FastCSKernel.dot_tuple` on the same lane."""
        N = len(a_lanes)
        if N == 0:
            return []
        (lens, T, defer, asig, asign, aexp, bsig, bsign,
         bexp) = self._dot_inputs(a_lanes, b_lanes)
        return self._dot_run(
            lens, defer, (asig, asign, aexp, bsig, bsign, bexp),
            lambda i: self.kernel.dot_tuple(a_lanes[i], b_lanes[i]))

    def _word_planes(self, w, live):
        """Classify one ``(T, N)`` word plane: ``(sig, sign, exp,
        special)`` with subnormals flushed to signed zero (the loader
        semantics of ``repro.serve.protocol.word_to_fp``)."""
        be = (w >> _U64(52)) & _U64(0x7FF)
        nrm = (be != 0) & (be != _U64(0x7FF)) & live
        spec = (be == _U64(0x7FF)) & live
        z = _U64(0)
        sig = np.where(nrm, (w & self.fmask) | _U64(1 << 52), z)
        sign = np.where(nrm, w >> _U64(63), z)
        exp = np.where(nrm, be.astype(np.int64) - 1023, 0)
        return sig, sign, exp, spec

    def dot_many_words(self, a_words, b_words, lens=None):
        """:meth:`dot_many` over padded ``(T, N)`` binary64 bit-word
        planes (step-major -- the serve wire format, fully vectorized
        staging).  Lane ``i`` consumes the first ``lens[i]`` steps; the
        result is bit-identical to ``dot_tuple`` over ``word_to_fp`` of
        each element (subnormal encodings flush to signed zero, lanes
        containing Inf/NaN defer to the scalar kernel)."""
        a_words = np.ascontiguousarray(a_words, np.uint64)
        b_words = np.ascontiguousarray(b_words, np.uint64)
        if a_words.shape != b_words.shape or a_words.ndim != 2:
            raise ValueError("word planes must share one (T, N) shape")
        T, N = a_words.shape
        if N == 0:
            return []
        if lens is None:
            lens = np.full(N, T, np.int64)
        else:
            lens = np.asarray(lens, np.int64)
        step_live = np.arange(T, dtype=np.int64)[:, None] < lens[None, :]
        asig, asign, aexp, spec_a = self._word_planes(a_words, step_live)
        bsig, bsign, bexp, spec_b = self._word_planes(b_words, step_live)
        defer = (spec_a | spec_b).any(axis=0)

        def scalar_cb(i):
            from ..serve.protocol import word_to_fp
            L = int(lens[i])
            av = [word_to_fp(int(a_words[t, i])) for t in range(L)]
            bv = [word_to_fp(int(b_words[t, i])) for t in range(L)]
            return self.kernel.dot_tuple(av, bv)

        return self._dot_run(
            lens, defer, (asig, asign, aexp, bsig, bsign, bexp),
            scalar_cb)

    def _dot_chain(self, lens, S_all, C_all, p_all, u_all):
        """The sequential accumulator chain over vectorized lanes."""
        T, n = p_all.shape
        D, MD = self.D, self.MD
        au = np.zeros((n, D), np.uint64)
        a_nz = np.zeros(n, bool)
        a_zero_cls = np.ones(n, bool)       # accumulator class is ZERO
        a_sh = np.zeros(n, np.int64)
        a_exp = np.zeros(n, np.int64)
        dead = np.zeros(n, bool)            # overflowed -> scalar redo
        fin_cls = np.zeros(n, np.int64)
        fin_exp = np.zeros(n, np.int64)
        fin_sh = np.zeros(n, np.int64)
        fin_m = np.zeros((n, MD), np.uint64)
        fin_mc = np.zeros((n, MD), np.uint64)
        fin_rs = np.zeros(n, np.uint64)
        fin_rc = np.zeros(n, np.uint64)
        for t in range(T):
            upd = (t < lens) & ~dead
            if not upd.any():
                break
            p_nz = p_all[t] & upd
            w = self._window(S_all[t], C_all[t], u_all[t], p_nz, au,
                             a_nz, a_exp)
            trivial = ~p_nz & ~a_nz
            active = ~trivial & w["value_any"]
            self._check_stray(w["stray"], active & upd)
            e_r = w["e_r"]
            overflow = active & (e_r > self.emax)
            underflow = active & (e_r < self.emin)
            normal = active & ~overflow & ~underflow
            vsign = w["vneg"].astype(np.int64)
            dead |= overflow & upd
            # next accumulator state (a_used = signed mant sum + dec)
            vm = self._add(w["m"], w["mc"])
            dec = ((w["rs"] + w["rc"]) & self.DMASK) >> self.BB1u
            neg = (vm[:, MD - 1] >> self.BB1u).astype(bool)
            ws = self._ws(n)
            au_new = ws.aun
            au_new[:, :MD] = vm
            au_new[:, MD:] = np.where(neg, self.DMASK, _U64(0))[:, None]
            au_new[:, 0] += dec
            np.right_shift(au_new, self.BBu, out=ws.c1)
            np.bitwise_and(au_new, self.DMASK, out=au_new)
            self._carry_fix(au_new, ws.c1, ws.c2)
            sel = (upd & normal)[:, None]
            au = np.where(sel, au_new, au)
            au &= np.where(upd & ~normal, _U64(0), self.DMASK)[:, None]
            a_exp = np.where(upd & normal, e_r, np.where(upd, 0, a_exp))
            new_sh = np.where(trivial & a_zero_cls, a_sh,
                              np.where(underflow, vsign, 0))
            a_sh = np.where(upd, new_sh, a_sh)
            a_zero_cls = np.where(upd, ~normal, a_zero_cls)
            a_nz = np.where(upd, normal & (au_new != 0).any(axis=1),
                            a_nz)
            fin = upd & (t == lens - 1)
            if fin.any():
                fcls = np.where(normal, CS_NORMAL,
                                np.where(overflow, CS_INF, CS_ZERO))
                fin_cls = np.where(fin, fcls, fin_cls)
                fin_exp = np.where(fin & normal, e_r, fin_exp)
                fin_sh = np.where(fin, new_sh, fin_sh)
                fsel = (fin & normal)[:, None]
                fin_m = np.where(fsel, w["m"], fin_m)
                fin_mc = np.where(fsel, w["mc"], fin_mc)
                fin_rs = np.where(fin & normal, w["rs"], fin_rs)
                fin_rc = np.where(fin & normal, w["rc"], fin_rc)
        cols = {"cls": fin_cls, "exp": fin_exp, "m": fin_m,
                "mc": fin_mc, "rs": fin_rs, "rc": fin_rc, "sh": fin_sh}
        zero_len = lens == 0
        if zero_len.any():
            cols["cls"] = np.where(zero_len, CS_ZERO, cols["cls"])
        return self.lower_lanes(cols), dead

    # -- single-dot hybrid ----------------------------------------------

    def dot_hybrid(self, a, b):
        """One fused dot product: the products (the dominant cost of the
        tuple chain) run vectorized across all steps; the ~35-op window
        recurrence stays scalar via product injection into
        :meth:`FastCSKernel.fma`.  Bit-identical to ``dot_tuple``."""
        kernel = self.kernel
        res = self._dot_inputs([a], [b])
        lens, T, defer, asig, asign, aexp, bsig, bsign, bexp = res
        if defer[0] or T == 0:
            return kernel.dot_tuple(a, b)
        S_all, C_all, p_all = self._dot_products(asig, asign, bsig,
                                                 bsign)
        BB = self.BB
        D = self.D
        fma = kernel.fma
        acc = (CS_ZERO, 0, 0, 0, 0, 0, 0)
        mmask = kernel.mmask
        shift = kernel.ieee_shift
        one = 1 << 52
        # one wholesale ndarray -> Python-int conversion (tolist) beats
        # T*D np-scalar ``int()`` calls by a wide margin
        S_rows = S_all[:, 0, :].tolist()
        C_rows = C_all[:, 0, :].tolist()
        p_rows = p_all[:, 0].tolist()
        for t in range(T):
            ai, bi = a[t], b[t]
            if not p_rows[t]:
                # zero product: no tree to inject, the scalar branch is
                # already product-free
                acc = fma(acc, kernel.lift_b(ai), kernel.lift_ieee(bi))
                continue
            m = (bi.fraction | one) << shift
            if bi.sign:
                m = -m
            ct = (CS_NORMAL, bi.biased_exponent - 1023, m & mmask,
                  0, 0, 0, 0)
            bt = (CS_NORMAL, ai.sign, ai.biased_exponent - 1023,
                  ai.fraction | one)
            Sv = 0
            Cv = 0
            sr = S_rows[t]
            cr = C_rows[t]
            for j in range(D - 1, -1, -1):
                Sv = (Sv << BB) | sr[j]
                Cv = (Cv << BB) | cr[j]
            acc = fma(acc, bt, ct, None, (Sv, Cv))
        return acc

    # -- vectorized IEEE word codecs ------------------------------------

    def lift_words(self, words):
        """binary64 bit patterns -> (a/c cols, b cols, special mask).

        Bit-identical to ``word_to_fp`` + ``lift_ieee``/``lift_b``:
        subnormal encodings flush to signed zero, the CS lift of a
        normal is exact."""
        words = np.asarray(words, np.uint64)
        n = words.shape[0]
        sign = (words >> np.uint64(63)) & _ONE
        be = ((words >> np.uint64(52)) & _U64(0x7FF)).astype(np.int64)
        frac = words & self.fmask
        is_nan = (be == 0x7FF) & (frac != 0)
        is_inf = (be == 0x7FF) & (frac == 0)
        is_zero = be == 0                     # incl. flushed subnormals
        normal = ~is_nan & ~is_inf & ~is_zero
        sig = np.where(normal, frac | (_ONE << np.uint64(52)), _U64(0))
        exp = np.where(normal, be - 1023, 0)
        cls = np.where(normal, CS_NORMAL,
                       np.where(is_nan, CS_NAN,
                                np.where(is_inf, CS_INF, CS_ZERO)))
        # exact CS lift: m = +-(sig << ieee_shift) mod 2^mant_width
        mag = np.zeros((n, self.MD), np.uint64)
        for j in range(self.MD):
            sh = self.BB * j
            if sh < 64:
                mag[:, j] = (sig >> _U64(sh)) & self.DMASK
        mag = self._shift(mag, np.full(n, self.ieee_shift, np.int64))
        m = np.where((sign == 1)[:, None], self._neg(mag), mag)
        m &= np.where(normal, self.DMASK, _U64(0))[:, None]
        zdig = np.zeros((n, self.MD), np.uint64)
        zlane = np.zeros(n, np.uint64)
        cs = {"cls": cls, "exp": exp, "m": m, "mc": zdig, "rs": zlane,
              "rc": zlane.copy(), "sh": sign.astype(np.int64)}
        bcols = {"cls": cls, "sign": sign, "exp": exp, "sig": sig}
        return cs, bcols, (is_nan | is_inf)

    def pack_words(self, cols):
        """CS cols -> binary64 bit patterns; bit-identical to
        ``fp_to_word(cs_to_ieee(lower(t)))`` per lane.

        The integer pack/round twin of the Fraction-based converter:
        ``V = (mant_signed << block) + round_frac`` rounded to 53
        significand bits (nearest-even), overflow to infinity, flush to
        zero below the normal range."""
        n = cols["cls"].shape[0]
        VD, MD, BB = self.VD, self.MD, self.BB
        vm = self._add(cols["m"], cols["mc"])
        rfrac = (cols["rs"] + cols["rc"]) & self.DMASK
        neg = (vm[:, MD - 1] >> self.BB1u).astype(bool)
        V = np.zeros((n, VD), np.uint64)
        V[:, 0] = rfrac
        V[:, 1:MD + 1] = vm
        V[:, MD + 1] = np.where(neg, self.DMASK, _U64(0))
        mag = np.where(neg[:, None], self._neg(V), V)
        vzero = ~(mag != 0).any(axis=1)
        bl = self._bitlen(mag)
        e2 = cols["exp"] - self.frac - BB
        e = bl - 1 + e2
        drop = bl - 1 - self.fbits
        # sig = bits [drop, drop+53) of mag; drop <= 0 only when the
        # whole value fits below 53 bits (then shift left, exact)
        sig_digits = self._shift(mag, -np.maximum(drop, 0))
        sig = sig_digits[:, 0]
        for j in range(1, VD):
            sh = BB * j
            if sh >= 64:
                break
            sig |= sig_digits[:, j] << _U64(sh)
        sig = np.where(drop <= 0,
                       (sig << np.maximum(-drop, 0).astype(np.uint64))
                       & _U64((1 << 54) - 1), sig)
        # nearest-even increment from the round bit + sticky tail
        dm1 = drop - 1
        qd = np.clip(dm1 // BB, 0, VD - 1)
        rb = np.clip(dm1 - qd * BB, 0, BB - 1).astype(np.uint64)
        rbit = (np.take_along_axis(mag, qd[:, None].astype(np.intp),
                                   1)[:, 0] >> rb) & _ONE
        tail = np.clip(dm1[:, None] - np.arange(VD) * BB, 0,
                       BB).astype(np.uint64)
        sticky = ((mag & ((_ONE << tail) - _ONE)) != 0).any(axis=1)
        inc = (drop > 0) & (rbit == 1) & (sticky | ((sig & _ONE) == 1))
        sig = sig + inc.astype(np.uint64)
        wide = (sig >> np.uint64(53)) == 1
        sig = np.where(wide, sig >> _ONE, sig)
        e = np.where(wide, e + 1, e)
        be = e + 1023
        sign = neg.astype(np.uint64)
        word = ((sign << np.uint64(63))
                | (np.where(be > 0, be, 0).astype(np.uint64)
                   << np.uint64(52))
                | (sig & self.fmask))
        word = np.where(be > 0x7FE, (sign << np.uint64(63))
                        | _U64(0x7FF0000000000000), word)
        word = np.where(be < 1, sign << np.uint64(63), word)
        word = np.where(vzero, _U64(0), word)
        # non-normal classes
        cls = cols["cls"]
        shs = cols["sh"].astype(np.uint64) << np.uint64(63)
        word = np.where(cls == CS_ZERO, shs, word)
        word = np.where(cls == CS_INF, shs | _U64(0x7FF0000000000000),
                        word)
        word = np.where(cls == CS_NAN, _U64(0x7FF8000000000000), word)
        return word
