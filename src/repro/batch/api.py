"""Public batched entry points: ``fma_batch``, ``dot_batch``,
``accumulate_batch``, and :func:`select_engine`, which picks the engine
each call runs on.

Each function evaluates many operations through the fast kernels of
:mod:`repro.batch` while remaining bit-identical to the corresponding
scalar loop over the faithful models (``use_batch=False`` literally runs
that loop, which is what the differential tests compare against).
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from .. import probes
from ..fma.accumulator import AccumulatorOverflow, PcsAccumulator
from ..fma.convert import cs_to_ieee, ieee_to_cs
from ..fma.csfma import CSFmaUnit, FcsFmaUnit
from ..fma.formats import CSFloat
from ..fp.formats import BINARY64
from ..fp.value import FpClass, FPValue
from ..guard import residue as _gd
from ..telemetry import core as _tm
from .cskernel import CS_ZERO, bit_positions, kernel_for
from .engines import BACKEND_ENV, BACKENDS
from .ieee_fast import fp_mul_fast
from .vector import count_lanes, vector_kernel_for

__all__ = ["fma_batch", "dot_batch", "accumulate_batch", "select_engine"]


def select_engine(op: str, unit: CSFmaUnit, size: int,
                  backend: str | None = None,
                  use_batch: bool = True) -> str:
    """The engine one batch call runs on: ``faithful``, ``tuple`` or
    ``vector``.

    ``op`` names the call and ``size`` its width: ``"fma"`` (lanes of
    :func:`fma_batch`), ``"dot"`` (elements of one :func:`dot_batch`)
    or ``"dot-lanes"`` (dots in one coalesced serve payload).  In order:
    ``use_batch=False`` runs the faithful models; the request is
    ``backend``, else :data:`~repro.batch.engines.BACKEND_ENV`, else
    ``auto``; strict units have no fast kernel and run faithful.  A
    ``vector``/``auto`` request then goes to the tuple kernel while
    probes or the residue guard are armed (they observe the scalar
    datapath), and an ``auto`` one also when ``size`` is below the
    measured crossover under which the lane engine's fixed ndarray cost
    loses (docs/PERFORMANCE.md); a ``vector`` pin skips only that size
    test.  The one fallback reason is counted as
    ``batch.vector.fallback`` and ``batch.vector.fallback.<reason>``.
    """
    if not use_batch:
        return "faithful"
    if backend is None:
        backend = os.environ.get(BACKEND_ENV) or "auto"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if unit.strict:
        return "faithful"
    if backend in ("tuple", "faithful"):
        return backend
    if probes.ARMED is not None:
        reason = "armed-probes"
    elif _gd.ACTIVE is not None:
        reason = "armed-guard"
    elif backend == "auto" and size < {"fma": 768, "dot": 1280,
                                       "dot-lanes": 72}[op]:
        reason = "small-batch"
    else:
        return "vector"
    tm = _tm.ACTIVE
    if tm is not None:
        tm.count("batch.vector.fallback")
        tm.count(f"batch.vector.fallback.{reason}")
    return "tuple"


def _fp_word(x: FPValue) -> int:
    """Canonical binary64 bit pattern of a binary64 value (specials
    defer, so only the normal/zero encodings must round-trip exactly)."""
    if x.is_nan:
        return 0x7FF8000000000000
    if x.is_inf:
        return (x.sign << 63) | 0x7FF0000000000000
    if x.is_zero:
        return x.sign << 63
    return (x.sign << 63) | (x.biased_exponent << 52) | x.fraction


def _fma_tuple(kernel, a, b, c) -> list[CSFloat]:
    """:func:`fma_batch` on the tuple kernel."""
    lift = kernel.lift_cs
    lift_ieee = kernel.lift_ieee
    out = []
    for ai, bi, ci in zip(a, b, c):
        at = lift_ieee(ai) if isinstance(ai, FPValue) else lift(ai)
        ct = lift_ieee(ci) if isinstance(ci, FPValue) else lift(ci)
        bt = kernel.lift_b(bi)
        pos = bit_positions(bt[3]) if bt[0] == 1 else None
        out.append(kernel.lower(kernel.fma(at, bt, ct, pos)))
    return out


def _fma_vector(vk, a, b, c) -> list[CSFloat]:
    """:func:`fma_batch` on the lane engine ``vk``.  Lanes with no
    binary64 word encoding (CS operands, other IEEE formats) and lanes
    with NaN/Inf operands re-run through :func:`_fma_tuple`."""
    n = len(a)
    cs_lane = np.zeros(n, bool)
    fmt_lane = np.zeros(n, bool)
    aw = np.zeros(n, np.uint64)
    bw = np.zeros(n, np.uint64)
    cw = np.zeros(n, np.uint64)
    for i, (ai, bi, ci) in enumerate(zip(a, b, c)):
        if not (isinstance(ai, FPValue) and isinstance(ci, FPValue)):
            cs_lane[i] = True
        elif ai.fmt is bi.fmt is ci.fmt is BINARY64:
            aw[i] = _fp_word(ai)
            bw[i] = _fp_word(bi)
            cw[i] = _fp_word(ci)
        else:
            fmt_lane[i] = True
    acs, _ab, spec_a = vk.lift_words(aw)
    _cb, bcs, spec_b = vk.lift_words(bw)
    ccs, _xb, spec_c = vk.lift_words(cw)
    special = spec_a | spec_b | spec_c
    defer = cs_lane | fmt_lane | special
    # deferred lanes re-run below; make their vector lanes trivial
    # (class ZERO) so the lane engine never sees a special class
    for cols in (acs, bcs, ccs):
        cols["cls"] = np.where(defer, CS_ZERO, cols["cls"])
    tuples = vk.lower_lanes(vk.fma_lanes(acs, bcs, ccs))
    count_lanes(n, {"cs-operand": int(cs_lane.sum()),
                    "non-binary64": int(fmt_lane.sum()),
                    "special": int(special.sum())})
    out = [vk.kernel.lower(t) for t in tuples]
    idx = np.flatnonzero(defer).tolist()
    redo = _fma_tuple(vk.kernel, [a[i] for i in idx], [b[i] for i in idx],
                      [c[i] for i in idx])
    for i, r in zip(idx, redo):
        out[i] = r
    return out


def _as_cs(x: "CSFloat | FPValue", unit: CSFmaUnit) -> CSFloat:
    if isinstance(x, FPValue):
        return ieee_to_cs(x, unit.params)
    return x


def fma_batch(a: Sequence["CSFloat | FPValue"], b: Sequence[FPValue],
              c: Sequence["CSFloat | FPValue"],
              unit: CSFmaUnit | None = None, *,
              use_batch: bool = True,
              backend: str | None = None) -> list[CSFloat]:
    """Evaluate independent ``a[i] + b[i] * c[i]`` through one CS unit.

    ``a``/``c`` accept CS operands or IEEE values (lifted exactly);
    ``b`` stays IEEE as in the hardware.  Bit-identical to calling
    ``unit.fma`` element by element.  ``backend`` requests an engine
    (:data:`repro.batch.engines.BACKENDS`; ``None`` honours
    ``REPRO_BATCH_BACKEND``); :func:`select_engine` decides.
    """
    if not (len(a) == len(b) == len(c)):
        raise ValueError("operand vector length mismatch")
    unit = unit if unit is not None else FcsFmaUnit()
    engine = select_engine("fma", unit, len(a), backend, use_batch)
    tm = _tm.ACTIVE
    if tm is not None:
        # call-boundary instrumentation only: per-kernel lane counts,
        # never per-element work (keeps the disabled-overhead gate free)
        tm.count("batch.fma.calls")
        tm.count(f"batch.fma.elements.{unit.params.name}", len(a))
        if engine == "faithful":
            tm.count("batch.fma.fallback_scalar")
    if engine == "faithful":
        return [unit.fma(_as_cs(ai, unit), bi, _as_cs(ci, unit))
                for ai, bi, ci in zip(a, b, c)]
    if engine == "vector":
        return _fma_vector(vector_kernel_for(unit), a, b, c)
    return _fma_tuple(kernel_for(unit), a, b, c)


def dot_batch(a: Sequence[FPValue], b: Sequence[FPValue],
              unit: CSFmaUnit | None = None, *,
              use_batch: bool = True,
              backend: str | None = None) -> FPValue:
    """Fused inner product ``sum_i a[i] * b[i]``.

    Bit-identical to
    :meth:`repro.fma.dotprod.FusedDotProductUnit.dot` on the same unit:
    the accumulator stays in the unit's carry-save operand format and is
    normalized back to IEEE once at the end (by the kernel's integer
    :meth:`~repro.batch.cskernel.FastCSKernel.to_ieee` on the fast
    engines, by :func:`~repro.fma.convert.cs_to_ieee` on the faithful
    one).  ``backend`` as in
    :func:`fma_batch`; the vector engine runs the product trees for all
    steps as one ndarray pass (:meth:`VectorCSKernel.dot_hybrid`).
    """
    if len(a) != len(b):
        raise ValueError("vector length mismatch")
    unit = unit if unit is not None else FcsFmaUnit()
    engine = select_engine("dot", unit, len(a), backend, use_batch)
    tm = _tm.ACTIVE
    if tm is not None:
        tm.count("batch.dot.calls")
        tm.count(f"batch.dot.elements.{unit.params.name}", len(a))
        if engine == "faithful":
            tm.count("batch.dot.fallback_scalar")
    if engine == "faithful":
        acc = ieee_to_cs(FPValue.zero(BINARY64), unit.params)
        for ai, bi in zip(a, b):
            acc = unit.fma(acc, ai, ieee_to_cs(bi, unit.params))
        return cs_to_ieee(acc)
    kernel = kernel_for(unit)
    with _tm.span("batch.dot.kernel"):
        if engine == "vector":
            if tm is not None:
                tm.count("batch.vector.lanes")
            acc = vector_kernel_for(unit).dot_hybrid(a, b)
        else:
            acc = kernel.dot_tuple(a, b)
    return kernel.to_ieee(acc)


def accumulate_batch(a: Sequence[FPValue], b: Sequence[FPValue],
                     acc: PcsAccumulator | None = None, *,
                     use_batch: bool = True) -> PcsAccumulator:
    """Accumulate all products ``a[i] * b[i]`` into a [12]-style MAC.

    Bit-identical to calling :meth:`PcsAccumulator.accumulate` per pair
    (one singly-rounded binary64 multiply feeding the carry-free window
    add); returns the accumulator for chaining.
    """
    if len(a) != len(b):
        raise ValueError("vector length mismatch")
    if acc is None:
        acc = PcsAccumulator()
    if _tm.ACTIVE is not None:
        _tm.ACTIVE.count("batch.acc.calls")
        _tm.ACTIVE.count("batch.acc.elements", len(a))
    if not use_batch:
        for ai, bi in zip(a, b):
            acc.accumulate(ai, bi)
        return acc

    from ..cs.csnumber import CSNumber

    width = acc.width
    mask = (1 << width) - 1
    sp = acc.carry_spacing
    H = 0
    pos = sp - 1
    while pos < width:
        H |= 1 << pos
        pos += sp
    notH = ~H & mask
    lsb = acc.lsb_exp
    state = acc._state
    S, C = state.sum, state.carry
    ops = 0
    try:
        for ai, bi in zip(a, b):
            x = fp_mul_fast(ai, bi, fmt=BINARY64)
            cls = x.cls
            if cls is not FpClass.NORMAL:
                if cls is FpClass.ZERO:
                    ops += 1
                    continue
                raise AccumulatorOverflow("non-finite addend")
            shift = x.biased_exponent - 1023 - 52 - lsb
            mant = x.fraction | (1 << 52)
            if x.sign:
                mant = -mant
            addend = (mant << shift) if shift >= 0 else (mant >> (-shift))
            if addend.bit_length() >= width:
                raise AccumulatorOverflow(
                    f"|x| = 2^{x.biased_exponent - 1023} exceeds the "
                    f"window (max_exp={acc.max_exp})")
            w = addend & mask
            # one 3:2 level, then the chunked Carry Reduce as a single
            # SWAR pass (same identity as the FMA window datapath)
            t = S ^ C
            s3 = (t ^ w) & mask
            c3 = (((S & C) | (t & w)) << 1) & mask
            z = (s3 & notH) + (c3 & notH)
            axb = s3 ^ c3
            S = (z & notH) | ((z ^ axb) & H)
            C = ((((s3 & c3) | (axb & z)) & H) << 1) & mask
            ops += 1
    finally:
        acc._state = CSNumber(S, C, width)
        acc._ops += ops
    return acc
