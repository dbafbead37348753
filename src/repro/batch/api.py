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
from ..fp.value import FpClass, FPValue, fp_to_word
from ..guard import residue as _gd
from ..telemetry import core as _tm
from .cskernel import CS_ZERO, bit_positions, kernel_for
from .engines import BACKEND_ENV, BACKENDS
from .ieee_fast import fp_mul_fast
from .stages import IntLanes, carry_reduce, csa
from .vector import count_lanes, vector_kernel_for

__all__ = ["fma_batch", "dot_batch", "accumulate_batch", "select_engine",
           "requested_backend"]


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
    ``vector``/``auto`` request then goes to the tuple kernel while the
    calling thread has probes or the residue guard armed (they observe
    the scalar datapath), and an ``auto`` one also when ``size`` is below the
    measured crossover under which the lane engine's fixed ndarray cost
    loses (docs/PERFORMANCE.md); a ``vector`` pin skips only that size
    test.  The one fallback reason is counted as
    ``batch.vector.fallback`` and ``batch.vector.fallback.<reason>``.
    """
    if not use_batch:
        return "faithful"
    backend = requested_backend(backend)
    if unit.strict:
        return "faithful"
    if backend in ("tuple", "faithful"):
        return backend
    arms, guard = probes.ARMED, _gd.ACTIVE
    if arms is not None and arms.state is not None:
        reason = "armed-probes"
    elif guard is not None and guard.state is not None:
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


def requested_backend(backend: str | None) -> str:
    """The backend a batch call asks for: ``backend``, else
    :data:`~repro.batch.engines.BACKEND_ENV`, else ``auto``; an unknown
    name raises ``ValueError``, which names the variable when the name
    came from it."""
    from_env = backend is None
    if from_env:
        backend = os.environ.get(BACKEND_ENV) or "auto"
    if backend not in BACKENDS:
        named = f"{BACKEND_ENV}={backend}" if from_env else repr(backend)
        raise ValueError(
            f"unknown backend {named}; expected one of {BACKENDS}")
    return backend


#: the word :func:`_fma_vector` gathers for an operand with no binary64
#: encoding (a CS operand, another IEEE format): a signalling-NaN pattern,
#: which ``fp_to_word`` never emits (it canonicalizes NaN to the quiet
#: one), so the lane defers with the NaN/Inf lanes
_NO_WORD = 0x7FF0000000000001


def _tuple_lanes(kernel, a, b, c) -> list[tuple]:
    """``a[i] + b[i] * c[i]`` per lane on the tuple kernel, as kernel
    tuples."""
    lift = kernel.lift_cs
    lift_ieee = kernel.lift_ieee
    out = []
    for ai, bi, ci in zip(a, b, c):
        at = lift_ieee(ai) if isinstance(ai, FPValue) else lift(ai)
        ct = lift_ieee(ci) if isinstance(ci, FPValue) else lift(ci)
        bt = kernel.lift_b(bi)
        pos = bit_positions(bt[3]) if bt[0] == 1 else None
        out.append(kernel.fma(at, bt, ct, pos))
    return out


def _word_plane(xs) -> np.ndarray:
    """One operand's binary64 words, :data:`_NO_WORD` where it has none."""
    return np.array([fp_to_word(x) if isinstance(x, FPValue)
                     and x.fmt is BINARY64 else _NO_WORD for x in xs],
                    np.uint64)


def _fma_vector(vk, a, b, c) -> list[tuple]:
    """:func:`fma_batch` on the lane engine ``vk``, as kernel tuples.
    Lanes with no binary64 word encoding (CS operands, other IEEE
    formats) and lanes with NaN/Inf operands re-run through
    :func:`_tuple_lanes`."""
    aw, bw, cw = _word_plane(a), _word_plane(b), _word_plane(c)
    acs, _ab, spec_a = vk.lift_words(aw)
    bcs, spec_b = vk.b_words(bw)
    ccs, _xb, spec_c = vk.lift_words(cw)
    defer = spec_a | spec_b | spec_c
    # deferred lanes re-run below; make their vector lanes trivial
    # (class ZERO) so the lane engine never sees a special class
    for cols in (acs, bcs, ccs):
        cols["cls"] = np.where(defer, CS_ZERO, cols["cls"])
    out = vk.lower_lanes(vk.fma_lanes(acs, bcs, ccs))
    idx = np.flatnonzero(defer).tolist()
    no_word = np.flatnonzero((aw == _NO_WORD) | (bw == _NO_WORD)
                             | (cw == _NO_WORD)).tolist()
    n_cs = sum(not (isinstance(a[i], FPValue) and isinstance(c[i], FPValue))
               for i in no_word)
    count_lanes(len(a), {"cs-operand": n_cs,
                         "non-binary64": len(no_word) - n_cs,
                         "special": len(idx) - len(no_word)})
    redo = _tuple_lanes(vk.kernel, [a[i] for i in idx], [b[i] for i in idx],
                        [c[i] for i in idx])
    for i, t in zip(idx, redo):
        out[i] = t
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
    # both engines lower through the kernel's one checked builder
    if engine == "vector":
        vk = vector_kernel_for(unit)
        return vk.kernel.lower_batch(_fma_vector(vk, a, b, c))
    kernel = kernel_for(unit)
    return kernel.lower_batch(_tuple_lanes(kernel, a, b, c))


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
                     use_batch: bool = True,
                     backend: str | None = None) -> PcsAccumulator:
    """Accumulate all products ``a[i] * b[i]`` into a [12]-style MAC.

    Bit-identical to calling :meth:`PcsAccumulator.accumulate` per pair
    (one singly-rounded binary64 multiply feeding the carry-free window
    add); returns the accumulator for chaining.  ``backend`` is resolved
    as in :func:`fma_batch`; the MAC has no lane engine, so every backend
    but ``faithful`` (or ``use_batch=False``) runs the integer path.
    """
    if len(a) != len(b):
        raise ValueError("vector length mismatch")
    if acc is None:
        acc = PcsAccumulator()
    if _tm.ACTIVE is not None:
        _tm.ACTIVE.count("batch.acc.calls")
        _tm.ACTIVE.count("batch.acc.elements", len(a))
    if not use_batch or requested_backend(backend) == "faithful":
        for ai, bi in zip(a, b):
            acc.accumulate(ai, bi)
        return acc

    from ..cs.csnumber import CSNumber

    width = acc.width
    lanes = IntLanes(width, acc.carry_spacing)
    mask = lanes.mask
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
            # one 3:2 level, then the Carry Reduce: the FMA window's
            # stages on the accumulator's window
            s3, c3 = csa(lanes, S, C, addend & mask)
            S, C = carry_reduce(lanes, s3, c3)
            ops += 1
    finally:
        acc._state = CSNumber(S, C, width)
        acc._ops += ops
    return acc
