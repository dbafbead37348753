"""Tests for the cycle-accurate schedule executor (repro.hls.execute)."""

import random

import pytest

from repro.analysis import ScheduleCheckError
from repro.fma import fcs_engine, pcs_engine
from repro.hls import (FMA_UNIT_LIMIT, asap_schedule, default_library,
                       execute_schedule, format_issue_trace,
                       list_schedule, parse_program, run_fma_insertion,
                       simulate)
from repro.solvers import (BENCHMARK_SIZES, generate_kernel,
                           trajectory_problem)

SRC = """
t = a*b + c*d;
y = e*t + f;
"""
INPUTS = {n: float(i + 2) for i, n in enumerate("abcdef")}


@pytest.fixture(scope="module")
def lib():
    return default_library()


class TestLegalSchedules:
    def test_asap_schedule_executes(self, lib):
        g = parse_program(SRC)
        sched = asap_schedule(g, lib)
        res = execute_schedule(g, sched, lib, INPUTS)
        assert res.outputs == simulate(g, INPUTS)
        assert res.cycles == sched.length

    def test_list_schedule_executes_with_limits(self):
        lib = default_library()
        lib.limits["mul"] = 1
        g = parse_program(SRC)
        sched = list_schedule(g, lib)
        res = execute_schedule(g, sched, lib, INPUTS)
        assert res.peak_usage.get("mul", 0) <= 1
        assert res.outputs == simulate(g, INPUTS)

    def test_fma_schedule_executes_with_engine(self):
        lib = default_library(fma_flavor="fcs", fma_limit=2)
        g = parse_program(SRC)
        run_fma_insertion(g, lib)
        sched = list_schedule(g, lib)
        res = execute_schedule(g, sched, lib, INPUTS,
                               engine=fcs_engine())
        ref = simulate(parse_program(SRC), INPUTS)
        assert res.outputs["y"] == pytest.approx(ref["y"], rel=1e-12)
        assert res.peak_usage.get("fma-fcs", 0) <= 2

    def test_issue_trace_formatting(self, lib):
        g = parse_program(SRC)
        sched = asap_schedule(g, lib)
        res = execute_schedule(g, sched, lib, INPUTS)
        text = format_issue_trace(res, g)
        assert "cycle" in text and "mul" in text


def refused_rules(g, sched, lib) -> set[str]:
    """The SCH rule ids ``execute_schedule`` refuses ``sched`` with."""
    with pytest.raises(ScheduleCheckError) as exc:
        execute_schedule(g, sched, lib, INPUTS)
    return exc.value.report.rule_ids()


class TestViolationDetection:
    def test_dependence_violation_detected(self, lib):
        g = parse_program(SRC)
        sched = asap_schedule(g, lib)
        # sabotage: pull the output's producer to cycle 0
        victim = g.predecessors(g.outputs()[0])[0]
        sched.start[victim] = 0
        assert refused_rules(g, sched, lib) == {"SCH001"}

    def test_resource_violation_detected(self):
        lib = default_library()
        lib.limits["mul"] = 1
        g = parse_program("p = a*b;\nq = c*d;\n", outputs=["p", "q"])
        sched = asap_schedule(g, lib)  # issues both muls at cycle 0
        assert refused_rules(g, sched, lib) == {"SCH004"}

    def test_unscheduled_node_detected(self, lib):
        g = parse_program(SRC)
        sched = asap_schedule(g, lib)
        sched.start.pop(g.outputs()[0])
        assert refused_rules(g, sched, lib) == {"SCH002"}

    def test_negative_start_detected(self, lib):
        g = parse_program(SRC)
        sched = asap_schedule(g, lib)
        sched.start[g.inputs()[0]] = -2     # still ready before its reader
        assert refused_rules(g, sched, lib) == {"SCH003"}

    def test_foreign_schedule_rejected(self, lib):
        g = parse_program(SRC)
        other = parse_program(SRC)
        sched = asap_schedule(other, lib)
        with pytest.raises(ValueError):
            execute_schedule(g, sched, lib, INPUTS)

    def test_foreign_library_rejected(self, lib):
        g = parse_program(SRC)
        sched = asap_schedule(g, lib)
        with pytest.raises(ValueError, match="library"):
            execute_schedule(g, sched, default_library(), INPUTS)


class TestListSchedulerLegality:
    """Regression for the max-operand-finish bug the executor caught."""

    @pytest.mark.parametrize("flavor", ["pcs", "fcs"])
    def test_solver_kernel_schedules_are_legal(self, flavor):
        from repro.solvers import generate_kernel, trajectory_problem
        kernel = generate_kernel(trajectory_problem(4, 1))
        g = parse_program(kernel.source, outputs=kernel.output_names)
        lib = default_library(fma_flavor=flavor, fma_limit=39)
        run_fma_insertion(g, lib)
        sched = list_schedule(g, lib)
        for n in g.nodes.values():
            for op in n.operands:
                assert sched.start[n.id] >= \
                    sched.start[op] + lib.latency(g.nodes[op])

    def test_mixed_latency_operands(self, lib):
        # an op whose operands are a free INPUT and a 5-cycle MUL must
        # wait for the mul even though the input "completes" first
        g = parse_program("y = a*b + c;")
        sched = list_schedule(g, lib)
        res = execute_schedule(g, sched, lib, dict(a=2.0, b=3.0, c=1.0))
        assert res.outputs["y"] == 7.0


class TestFig15Schedules:
    """Every length Fig. 15 reports is the cycle count of a schedule
    that runs: the six post-pass list schedules, executed on the fast
    engines, compute what ``simulate`` computes."""

    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments import fig15

        return {r.solver: r for r in fig15.run()}

    @pytest.mark.parametrize("flavor,engine", [("pcs", pcs_engine),
                                               ("fcs", fcs_engine)])
    @pytest.mark.parametrize("size", BENCHMARK_SIZES, ids=lambda s: s[0])
    def test_executes_in_the_reported_cycles(self, rows, size, flavor,
                                             engine):
        name, horizon, obstacles = size
        kernel = generate_kernel(trajectory_problem(horizon, obstacles))
        g = parse_program(kernel.source, outputs=kernel.output_names)
        lib = default_library(fma_flavor=flavor, fma_limit=FMA_UNIT_LIMIT)
        run_fma_insertion(g, lib)
        sched = list_schedule(g, lib)
        rng = random.Random(name)
        inputs = {g.nodes[nid].name: rng.uniform(0.5, 2.0)
                  for nid in g.inputs()}
        res = execute_schedule(g, sched, lib, inputs, engine=engine())
        assert res.cycles == getattr(rows[name], f"{flavor}_cycles")
        assert res.outputs == simulate(g, inputs, engine=engine())
