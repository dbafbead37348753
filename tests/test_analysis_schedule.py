"""Tests for the schedule validator (repro.analysis.schedule_check)."""

import pytest

from repro.analysis import ScheduleCheckError, check_schedule, require_clean
from repro.hls import (Schedule, asap_schedule, default_library,
                       list_schedule, parse_program, run_fma_insertion)

SRC = """
x1 = a*b + c*d;
x2 = e*f + g*x1;
y = x2*x2 + a;
"""


@pytest.fixture(scope="module")
def library():
    return default_library()


@pytest.fixture()
def graph():
    return parse_program(SRC)


class TestCleanSchedules:
    def test_asap_is_valid(self, graph, library):
        assert check_schedule(asap_schedule(graph, library)).clean

    def test_list_is_valid(self, graph, library):
        assert check_schedule(list_schedule(graph, library)).clean

    def test_bounded_list_schedule_is_valid(self, graph):
        lib = default_library(fma_flavor="fcs", fma_limit=1)
        run_fma_insertion(graph, lib)
        sched = list_schedule(graph, lib)
        report = check_schedule(sched)
        assert report.clean, [d.format() for d in report.diagnostics]


class TestViolations:
    def test_sch001_operand_not_ready(self, graph, library):
        sched = asap_schedule(graph, library)
        victim = max((n for n in graph.nodes
                      if graph.nodes[n].operands),
                     key=lambda n: sched.start[n])
        sched.start[victim] -= 1
        assert check_schedule(sched).rule_ids() == {"SCH001"}

    def test_sch002_missing_node(self, graph, library):
        sched = asap_schedule(graph, library)
        del sched.start[graph.outputs()[0]]
        assert check_schedule(sched).rule_ids() == {"SCH002"}

    def test_sch002_phantom_node(self, graph, library):
        sched = asap_schedule(graph, library)
        sched.start[987654] = 3
        assert check_schedule(sched).rule_ids() == {"SCH002"}

    def test_sch003_negative_start(self, graph, library):
        sched = asap_schedule(graph, library)
        sched.start[graph.inputs()[0]] = -1
        assert check_schedule(sched).rule_ids() == {"SCH003"}

    def test_sch004_pool_oversubscribed(self):
        # two independent MACs fuse to two FMAs that ASAP issues in
        # the same cycle; a one-unit pool cannot do that
        g = parse_program("y1 = a*b + c;\ny2 = d*e + f;")
        lib = default_library(fma_flavor="pcs")
        run_fma_insertion(g, lib)
        lib.fma_limit = 1
        sched = asap_schedule(g, lib)       # ASAP ignores the pool
        assert "SCH004" in check_schedule(sched).rule_ids()

    def test_sch005_detached_schedule(self):
        assert check_schedule(Schedule()).rule_ids() == {"SCH005"}


class TestGate:
    def test_clean_schedule_passes_through(self, graph, library):
        sched = list_schedule(graph, library)
        assert require_clean(sched) is sched

    def test_any_diagnostic_raises_with_report(self, graph, library):
        sched = asap_schedule(graph, library)
        sched.start[graph.inputs()[0]] = -1
        with pytest.raises(ScheduleCheckError) as exc:
            require_clean(sched, target="t")
        assert exc.value.report.rule_ids() == {"SCH003"}
        assert "SCH003" in str(exc.value)
