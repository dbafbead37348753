"""Unit tests of the telemetry collection layer and its exporters."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.telemetry import (Snapshot, SpanStat, Telemetry, canonical_bytes,
                             collecting, count, event, gauge,
                             merge_snapshots, snapshot_from_dict,
                             snapshot_to_dict, span, telemetry_active,
                             to_prometheus)
from repro.telemetry import core

# pools / armed collectors are process-global: never run
# these concurrently with other tests (xdist, future runners)
pytestmark = pytest.mark.serial


class TestDisabledMode:
    def test_module_instruments_are_noops(self):
        assert core.ACTIVE is None
        assert not telemetry_active()
        count("x")
        gauge("y", 7)
        event("z", a=1)
        with span("w"):
            pass
        assert core.ACTIVE is None

    def test_span_reads_no_clock_when_disabled(self):
        s = span("idle")
        with s:
            pass
        assert s._t0 == 0


class TestCollecting:
    def test_counters_and_snapshot(self):
        with collecting() as t:
            assert telemetry_active()
            count("a")
            count("a", 2)
            count("b", 5)
            snap = t.snapshot(label="run")
        assert not telemetry_active()
        assert snap.counter("a") == 3
        assert snap.counter("b") == 5
        assert snap.counter("missing") == 0
        assert snap.label == "run"

    def test_non_reentrant(self):
        with collecting():
            with pytest.raises(RuntimeError):
                with collecting():
                    pass  # pragma: no cover
        assert core.ACTIVE is None

    def test_explicit_collector_accumulates_regions(self):
        t = Telemetry()
        with collecting(t):
            count("x")
        with collecting(t):
            count("x")
        assert t.snapshot().counter("x") == 2

    def test_disarms_on_exception(self):
        with pytest.raises(ValueError):
            with collecting():
                raise ValueError("boom")
        assert core.ACTIVE is None

    def test_span_observes_nonnegative_duration(self):
        with collecting() as t:
            with span("work"):
                pass
            stat = t.snapshot().span("work")
        assert stat.count == 1
        assert stat.total_ns >= 0
        assert stat.min_ns <= stat.max_ns

    def test_span_discarded_if_collector_changes_mid_region(self):
        t = Telemetry()
        s = span("orphan")
        with collecting(t):
            s.__enter__()
        s.__exit__(None, None, None)  # collector gone: must not record
        assert t.snapshot().span("orphan").count == 0

    def test_gauge_is_high_water(self):
        with collecting() as t:
            gauge("g", 5)
            gauge("g", 3)
            gauge("g", 9)
        assert t.snapshot().gauge("g") == 9

    def test_event_overflow_counted_not_stored(self):
        with collecting(Telemetry(max_events=2)) as t:
            for i in range(5):
                event("e", i=i)
            snap = t.snapshot()
        assert len(snap.events) == 2
        assert snap.counter(core.DROPPED_TAG) == 3

    def test_threads_sharing_a_collector_lose_no_counts(self):
        # the server's executor threads count into the collector their
        # caller armed; a tiny switch interval forces thread switches
        # inside the counter's read-modify-write
        n = 100_000
        t = Telemetry()

        def bump():
            for _ in range(n):
                t.count("x")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bump) for _ in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert t.snapshot().counter("x") == 2 * n


class TestSnapshotMerge:
    def test_empty_is_identity(self):
        with collecting() as t:
            count("a", 3)
            with span("s"):
                pass
            gauge("g", 4)
            event("e", k="v")
        snap = t.snapshot(label="x")
        for merged in (snap.merged(Snapshot.empty()),
                       Snapshot.empty().merged(snap)):
            assert canonical_bytes(merged) == canonical_bytes(snap)

    def test_merge_sums_counters_and_spans(self):
        a = Snapshot.build({"c": 1}, {"s": SpanStat(1, 10, 10, 10)},
                           {"g": 2}, [{"tag": "e", "n": 1}])
        b = Snapshot.build({"c": 4}, {"s": SpanStat(2, 30, 5, 25)},
                           {"g": 7}, [{"tag": "e", "n": 0}])
        m = a.merged(b)
        assert m.counter("c") == 5
        assert m.span("s") == SpanStat(3, 40, 5, 25)
        assert m.gauge("g") == 7
        assert len(m.events) == 2

    def test_merge_label_union_is_order_independent(self):
        a, b = Snapshot.empty("alpha"), Snapshot.empty("beta")
        assert a.merged(b).label == b.merged(a).label == "alpha | beta"

    def test_merge_snapshots_explicit_label(self):
        out = merge_snapshots([Snapshot.empty("a"), Snapshot.empty("b")],
                              label="total")
        assert out.label == "total"


class TestExport:
    def _sample(self) -> Snapshot:
        with collecting() as t:
            count("hits", 3)
            t.observe("lat", 1500)
            t.observe("lat", 500)
            gauge("depth", 11)
            event("trace", step=1)
        return t.snapshot(label="sample")

    def test_dict_roundtrip_is_exact(self):
        snap = self._sample()
        d = snapshot_to_dict(snap)
        json.dumps(d)  # must be JSON-serializable as-is
        back = snapshot_from_dict(d)
        assert canonical_bytes(back) == canonical_bytes(snap)

    def test_schema_version_checked(self):
        with pytest.raises(ValueError, match="schema"):
            snapshot_from_dict({"schema": 999})

    def test_prometheus_format(self):
        text = to_prometheus(self._sample())
        assert '# TYPE repro_counter_total counter' in text
        assert 'repro_counter_total{tag="hits"} 3' in text
        assert 'repro_span_seconds_count{tag="lat"} 2' in text
        assert 'repro_span_seconds_sum{tag="lat"} 0.000002000' in text
        assert 'repro_gauge{tag="depth"} 11' in text
        assert 'repro_event_total{tag="trace"} 1' in text
        assert text.endswith("\n")

    def test_prometheus_escapes_labels(self):
        snap = Snapshot.build({'we"ird\\tag\n': 1}, {}, {}, [])
        text = to_prometheus(snap)
        assert r'tag="we\"ird\\tag\n"' in text

    def test_empty_snapshot_exports_empty(self):
        assert to_prometheus(Snapshot.empty()) == ""
