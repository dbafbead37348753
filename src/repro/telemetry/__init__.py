"""Datapath telemetry: zero-overhead counters, spans, and trace events.

The paper's whole contribution is an architecture-exploration loop, and
exploration without measurement is guesswork: this subsystem makes the
datapath *observable* -- which Fig. 10 Zero-Detector block classes fire,
whether the scalar units normalize through the ZD or the LZA, how often
a product falls below the window, how shards and campaigns spend their
time.  Speed itself is measured by the repository benchmark
(``perfbench/``), not here.

Like :mod:`repro.probes` (the SEU fault-injection arm layer),
instrumented code performs a single module-global ``None`` check
(``core.ACTIVE``) on the fast path, so with telemetry disabled -- the
default, and the only state outside an explicit
:func:`~repro.telemetry.core.collecting` region -- the datapaths keep
their performance profile.  Unlike fault arming, which is per thread,
collection is process-wide (see :mod:`repro.telemetry.core`).

Four instrument kinds, all chosen for *deterministic merging* (parallel
shard snapshots must aggregate to the same report bytes in any order):

* **counters** -- monotonically increasing integers (integer addition is
  associative and commutative);
* **spans** -- wall-time observations held as integer nanoseconds
  ``(count, total_ns, min_ns, max_ns)`` (again all associative ops --
  float summation would be order-dependent);
* **gauges** -- high-water integer marks merged by ``max`` (used for
  absolute process-local readings such as ``lru_cache`` statistics);
* **events** -- capped structured trace records, canonically sorted at
  serialization time.

Public surface::

    from repro.telemetry import Telemetry, collecting, count, span

    with collecting() as t:
        run_workload()
    snap = t.snapshot(label="run-1")
    print(to_prometheus(snap))

``python -m repro.telemetry`` captures a snapshot of a fixed workload
(``BENCH_telemetry.json``), checks its datapath coverage, and exports
Prometheus text.  See
``docs/OBSERVABILITY.md`` for the tag catalogue and how to add a new
instrument.
"""

from .core import (Telemetry, collecting, count, event, gauge, span,
                   telemetry_active)
from .export import (canonical_bytes, snapshot_from_dict,
                     snapshot_to_dict, to_prometheus)
from .snapshot import Snapshot, SpanStat, merge_snapshots

__all__ = [
    "Telemetry", "collecting", "count", "event", "gauge", "span",
    "telemetry_active",
    "Snapshot", "SpanStat", "merge_snapshots",
    "snapshot_to_dict", "snapshot_from_dict", "canonical_bytes",
    "to_prometheus",
]
