"""The standard capture workload behind ``python -m repro.telemetry``.

:func:`capture_envelope` runs a fixed, seeded workload under one
:func:`~repro.telemetry.core.collecting` session and packages the result
as a JSON-serializable *envelope*::

    {"schema": 1, "label": ..., "config": {...},
     "snapshot": {...}}           # repro.telemetry.export format

The workload has three parts:

* a **coverage kit** of hand-picked scalar operands that drives every
  branch in :data:`repro.telemetry.gates.REQUIRED_COVERAGE` -- all three
  Fig. 10 ZD block classes, both normalization selectors, the
  product-below-window / cancellation / overflow / flush window edges,
  and the IEEE special cases;
* one untimed ``dot_batch`` over 4096 pairs and one ``fma_batch`` over
  1024 lanes, so the ``batch.*`` counters and the ``batch.dot.kernel``
  span appear in the snapshot (speed is measured by ``perfbench/``,
  not here);
* a **miniature conformance sweep** plus a memo-stat publish, so the
  runner/cache counters appear in the snapshot too.
"""

from __future__ import annotations

import platform
import random

from ..fp import BINARY64, FPValue, double
from .core import Telemetry, collecting
from .export import SCHEMA_VERSION, snapshot_to_dict

__all__ = ["capture_envelope", "run_coverage_kit"]


def run_coverage_kit() -> None:
    """Exercise every gated scalar-datapath branch at least once."""
    from ..fma import FcsFmaUnit, PcsFmaUnit, cs_to_ieee, ieee_to_cs

    nan = FPValue.nan(BINARY64)
    inf = FPValue.inf(BINARY64)
    for unit in (PcsFmaUnit(), FcsFmaUnit()):
        p = unit.params

        def lift(x, p=p):
            return ieee_to_cs(double(x), p)

        # mixed-sign normals: ZD classes + both selectors + conversions
        for a, b, c in [(2.0, 0.25, -3.5), (-1.5, 3.0, 7.0),
                        (1e9, -2.0, 1e-9), (0.75, 0.5, -0.25)]:
            cs_to_ieee(unit.fma(lift(a), double(b), lift(c)))
        # product far below the addend window (Fig. 5 pre-shift limit)
        unit.fma(lift(1e300), double(1e-30), lift(1e-30))
        # exact cancellation: a + b*c == 0
        unit.fma(lift(-6.0), double(2.0), lift(3.0))
        # massive cancellation short of zero (max block skip)
        unit.fma(lift(-1.0), double(1.0), lift(1.0 + 2.0 ** -50))
        # exponent-range edges: the CS exponent field spans twice the
        # binary64 range, so chain two FMAs -- the first result's wide
        # exponent feeds the second multiply past exp_max / exp_min
        big, tiny = 1.7976931348623157e308, 2.2250738585072014e-308
        huge = unit.fma(lift(0.0), double(big), lift(big))
        unit.fma(lift(0.0), double(2.0), huge)      # overflow -> inf
        small = unit.fma(lift(0.0), double(tiny), lift(tiny))
        unit.fma(lift(0.0), double(tiny), small)    # flush to zero
        unit.fma(lift(0.0), double(0.0), lift(0.0))
        # IEEE specials through the FloPoCo-style flag wires
        unit.fma(lift(1.0), nan, lift(1.0))
        unit.fma(lift(1.0), inf, lift(2.0))


def _run_batch_calls() -> None:
    """Drive both batch entry points once, on wide-exponent normals."""
    from ..batch import dot_batch, fma_batch
    from ..fma import FcsFmaUnit

    rng = random.Random(0)
    xs = [double(rng.uniform(-2.0, 2.0) * 2.0 ** rng.randint(-40, 40))
          for _ in range(2 * 4096)]
    unit = FcsFmaUnit()
    dot_batch(xs[:4096], xs[4096:], unit=unit)
    fma_batch([double(0.0)] * 1024, xs[:1024], xs[1024:2048], unit=unit)


def capture_envelope(label: str = "", *, quick: bool = False,
                     seed: int = 0) -> dict:
    """Run the capture workload; return the envelope dict.

    ``quick`` skips the conformance mini-sweep (the slowest part) --
    used by tests that only need the coverage and batch counters.
    """
    from ..batch.memo import publish_cache_stats

    with collecting(Telemetry()) as t:
        run_coverage_kit()
        _run_batch_calls()
        if not quick:
            from ..conformance import run_sweep
            run_sweep(shards=2, workers=1, seed=seed, cases=8,
                      use_cache=False)
        publish_cache_stats()
        snap = t.snapshot(label=label)

    return {
        "schema": SCHEMA_VERSION,
        "label": label,
        "config": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "argv_seed": seed,
            "quick": quick,
        },
        "snapshot": snapshot_to_dict(snap),
    }
