"""Drop-in accelerated :class:`~repro.fma.chain.FmaEngine` twins.

Every engine here reports the *same* ``name`` and produces *bit-identical*
results to its faithful counterpart in :mod:`repro.fma.chain`; only the
evaluation machinery changes (tuple-based CS kernel, integer IEEE
kernels).  :func:`accelerate_engine` maps a stock engine to its fast twin
and is what the ``use_batch=`` switches in the HLS simulator/executor
and the Fig. 14 sweep call; engines it does not recognize (subclasses
with overridden behaviour, already-fast engines) pass through untouched.
"""

from __future__ import annotations

from typing import Any

from ..fma.chain import (CSFmaEngine, DiscreteMulAddEngine, FmaEngine,
                         FusedIeeeEngine)
from ..fma.csfma import CSFmaUnit
from ..fp.formats import BINARY64, FloatFormat
from ..fp.rounding import RoundingMode
from ..fp.value import FPValue
from ..telemetry import core as _tm
from .cskernel import FastCSKernel, kernel_for
from .ieee_fast import as_format_fast, fp_add_fast, fp_fma_fast, fp_mul_fast

__all__ = ["FastCSFmaEngine", "FastDiscreteMulAddEngine",
           "FastFusedIeeeEngine", "accelerate_engine",
           "BACKENDS", "BACKEND_ENV"]

# ---------------------------------------------------------------------------
# Backend names
#
# Three evaluation machineries produce bit-identical results:
#
# ``faithful``   the digit-level reference models (``use_batch=False``);
# ``tuple``      the scalar fast kernels (:class:`FastCSKernel` tuples,
#                integer IEEE kernels) -- always available;
# ``vector``     the NumPy lane engine (:mod:`repro.batch.vector`) --
#                whole batches as ``uint64`` column arrays; defers
#                special lanes to ``tuple``.
#
# ``auto`` lets :func:`repro.batch.api.select_engine` pick per call.

#: recognised backend names, in resolution-priority order.
BACKENDS = ("auto", "vector", "tuple", "faithful")

#: environment override consulted when no explicit backend is passed.
BACKEND_ENV = "REPRO_BATCH_BACKEND"


class FastCSFmaEngine(FmaEngine):
    """Fast twin of :class:`CSFmaEngine`: chain values travel as plain
    tuples through :class:`FastCSKernel`."""

    def __init__(self, unit: CSFmaUnit, kernel: FastCSKernel | None = None):
        self.unit = unit
        self.kernel = kernel if kernel is not None else kernel_for(unit)
        if self.kernel is None:
            raise ValueError("unit configuration has no fast kernel; "
                             "use the faithful CSFmaEngine")
        self.name = unit.name

    def lift(self, x: FPValue) -> Any:
        return self.kernel.lift_ieee(x)

    def fma(self, a: Any, b: FPValue, c: Any) -> Any:
        if _tm.ACTIVE is not None:
            _tm.ACTIVE.count(f"batch.engine.fma.{self.name}")
        k = self.kernel
        return k.fma(a, k.lift_b(b), c)

    def lower(self, r: Any) -> FPValue:
        return self.kernel.to_ieee(r)


class FastFusedIeeeEngine(FmaEngine):
    """Fast twin of :class:`FusedIeeeEngine` (classic FMA baseline)."""

    def __init__(self, fmt: FloatFormat = BINARY64,
                 mode: RoundingMode = RoundingMode.NEAREST_EVEN):
        self.fmt = fmt
        self.mode = mode
        self.name = f"classic-fma-{fmt.name}"

    def lift(self, x: FPValue) -> FPValue:
        return as_format_fast(x, self.fmt)

    def fma(self, a: FPValue, b: FPValue, c: FPValue) -> FPValue:
        return fp_fma_fast(a, as_format_fast(b, self.fmt), c,
                           fmt=self.fmt, mode=self.mode)

    def lower(self, r: FPValue) -> FPValue:
        return as_format_fast(r, BINARY64)


class FastDiscreteMulAddEngine(FmaEngine):
    """Fast twin of :class:`DiscreteMulAddEngine` (two roundings per
    multiply-add, optionally widened format)."""

    def __init__(self, fmt: FloatFormat = BINARY64,
                 mode: RoundingMode = RoundingMode.NEAREST_EVEN):
        self.fmt = fmt
        self.mode = mode
        self.name = f"discrete-{fmt.name}"

    def lift(self, x: FPValue) -> FPValue:
        return as_format_fast(x, self.fmt, self.mode)

    def fma(self, a: FPValue, b: FPValue, c: FPValue) -> FPValue:
        prod = fp_mul_fast(as_format_fast(b, self.fmt, self.mode), c,
                           fmt=self.fmt, mode=self.mode)
        return fp_add_fast(a, prod, fmt=self.fmt, mode=self.mode)

    def lower(self, r: FPValue) -> FPValue:
        return as_format_fast(r, BINARY64, self.mode)


def accelerate_engine(engine: FmaEngine | None) -> FmaEngine | None:
    """Fast twin of a stock engine (same name, bit-identical results).

    Exact-type matching keeps behaviour-overriding subclasses on the
    faithful path; strict-mode CS units (which raise on architectural
    invariant violations the kernel does not model) also pass through.
    ``None`` (graphs without carry-save nodes) stays ``None``.
    """
    if engine is None:
        return None
    t = type(engine)
    tm = _tm.ACTIVE
    if t is CSFmaEngine:
        if kernel_for(engine.unit) is None:
            return engine
        if tm is not None:
            tm.count(f"batch.engine.accelerated.{engine.name}")
        return FastCSFmaEngine(engine.unit)
    if t is FusedIeeeEngine:
        if tm is not None:
            tm.count(f"batch.engine.accelerated.{engine.name}")
        return FastFusedIeeeEngine(engine.fmt, engine.unit.mode)
    if t is DiscreteMulAddEngine:
        if tm is not None:
            tm.count(f"batch.engine.accelerated.{engine.name}")
        return FastDiscreteMulAddEngine(engine.fmt, engine.mode)
    return engine
