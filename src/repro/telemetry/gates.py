"""The coverage gate over telemetry snapshots.

The CLI (``python -m repro.telemetry coverage``) and the test suite
share this module so they enforce exactly the same policy:
:data:`REQUIRED_COVERAGE` lists every datapath branch the Fig. 10 Zero
Detector taxonomy and the scalar FMA's fast/slow normalization split
can take.  A workload whose snapshot leaves any of these counters at
zero has a dead path: either the vectors stopped exercising it or an
edit made the branch unreachable.
"""

from __future__ import annotations

from .snapshot import Snapshot

__all__ = ["REQUIRED_COVERAGE", "missing_coverage", "check_coverage"]

#: Counter tags that any full capture workload must drive at least once.
#: One entry per architectural branch of the scalar CS-FMA datapath:
#: the three Fig. 10 block classes, both normalization selectors, every
#: window-edge branch, the IEEE special cases, and both conversion
#: directions (``cs_to_ieee`` is the full/slow normalization path).
REQUIRED_COVERAGE: tuple[str, ...] = (
    "cs.zd.class.zero-value",
    "cs.zd.class.all-ones",
    "cs.zd.class.significant",
    "fma.scalar.norm.zd",
    "fma.scalar.norm.lza",
    "fma.scalar.product_below_window",
    "fma.scalar.cancel_to_zero",
    "fma.scalar.flush_to_zero",
    "fma.scalar.overflow",
    "fma.scalar.special.nan",
    "fma.scalar.special.inf",
    "fma.convert.ieee_to_cs",
    "fma.convert.cs_to_ieee",
)


def missing_coverage(snap: Snapshot,
                     required: tuple[str, ...] = REQUIRED_COVERAGE,
                     ) -> list[str]:
    """Required counters the snapshot never incremented."""
    return [tag for tag in required if snap.counter(tag) <= 0]


def check_coverage(snap: Snapshot,
                   required: tuple[str, ...] = REQUIRED_COVERAGE) -> None:
    """Raise ``AssertionError`` naming every dead datapath branch."""
    missing = missing_coverage(snap, required)
    if missing:
        raise AssertionError(
            "datapath coverage gate failed; never exercised: "
            + ", ".join(missing))

