"""Tests for the CS format-flow verifier (repro.analysis.format_flow).

Two halves: clean shipped graphs must yield zero diagnostics, and
every seeded corruption must be detected with exactly its expected
rule ids (no miss, no collateral noise).
"""

import pytest

from repro.analysis import (RULES, Severity, all_violations,
                            graph_targets, run_detection_suite,
                            verify_format_flow)
from repro.hls import CDFG, OpKind, default_library, run_fma_insertion

LISTING1 = """
x1 = a*b + c*d;
x2 = e*f + g*x1;
x3 = h*i + k*x2;
"""


def fused_listing1(flavor="pcs"):
    from repro.hls import parse_program

    g = parse_program(LISTING1)
    run_fma_insertion(g, default_library(fma_flavor=flavor))
    return g


class TestCleanGraphs:
    @pytest.mark.parametrize("name", sorted(graph_targets()))
    def test_shipped_graphs_verify_clean(self, name):
        graph = graph_targets()[name]()
        assert verify_format_flow(graph).clean

    @pytest.mark.parametrize("flavor", ["pcs", "fcs"])
    def test_post_pass_graphs_verify_clean(self, flavor):
        report = verify_format_flow(fused_listing1(flavor))
        assert report.clean, [d.format() for d in report.diagnostics]

    def test_empty_graph_is_clean(self):
        assert verify_format_flow(CDFG()).clean


class TestSeededViolations:
    """Acceptance criterion: each corruption yields exactly its rule."""

    @pytest.mark.parametrize(
        "violation", all_violations(),
        ids=[v.name for v in all_violations()])
    def test_detected_with_exact_rule_ids(self, violation):
        from repro.hw.technology import VIRTEX6

        report = violation.run(VIRTEX6)
        assert report.rule_ids() == set(violation.expected), \
            [d.format() for d in report.diagnostics]

    def test_suite_runner_reports_all_detected(self):
        results = run_detection_suite()
        assert len(results) >= 6
        assert all(r.detected for r in results)

    def test_suite_covers_all_required_corruptions(self):
        names = {v.name for v in all_violations()}
        required = {"missing-converter", "redundant-converter-pair",
                    "cs-to-output", "swapped-fma-ports",
                    "netlist-stage-width", "schedule-ready-time"}
        assert required <= names


class TestIndividualRules:
    def test_cs007_c2i_of_i2c(self):
        g = CDFG()
        a = g.add_input("a")
        rt = g.add_op(OpKind.C2I, g.add_op(OpKind.I2C, a))
        g.add_output(rt, "y")
        assert verify_format_flow(g).rule_ids() == {"CS007"}

    def test_cs009_wrong_operand_count(self):
        g = CDFG()
        a = g.add_input("a")
        b = g.add_input("b")
        s = g.add_op(OpKind.ADD, a, b)
        g.add_output(s, "y")
        g.set_operands(s, [a, b, b])        # third operand on an ADD
        assert "CS009" in verify_format_flow(g).rule_ids()

    def test_cs010_no_outputs(self):
        g = CDFG()
        a = g.add_input("a")
        g.add_op(OpKind.NEG, a)
        ids = verify_format_flow(g).rule_ids()
        assert "CS010" in ids

    def test_cs011_source_with_operands(self):
        g = CDFG()
        a = g.add_input("a")
        b = g.add_input("b")
        g.add_output(g.add_op(OpKind.ADD, a, b), "y")
        g.set_operands(b, [a])
        assert "CS011" in verify_format_flow(g).rule_ids()

    def test_cs012_negate_b_outside_fma(self):
        g = CDFG()
        a = g.add_input("a")
        b = g.add_input("b")
        s = g.add_op(OpKind.ADD, a, b)
        g.add_output(s, "y")
        g.nodes[s].negate_b = True
        assert verify_format_flow(g).rule_ids() == {"CS012"}

    def test_multiple_violations_all_reported(self):
        g = CDFG()
        a = g.add_input("a")
        b = g.add_input("b")
        s = g.add_op(OpKind.ADD, a, b)
        out = g.add_output(s, "y")
        g.set_operands(s, [a, 4242])        # dangling (a keeps s? no--)
        g.set_operands(out, [4343])         # dangling output too
        ids = verify_format_flow(g).rule_ids()
        assert "CS001" in ids

    def test_severities_come_from_registry(self):
        g = CDFG()
        a = g.add_input("a")
        rt = g.add_op(OpKind.C2I, g.add_op(OpKind.I2C, a))
        g.add_output(rt, "y")
        report = verify_format_flow(g)
        (diag,) = report.diagnostics
        assert diag.severity is RULES[diag.rule].severity
        assert diag.severity is Severity.WARNING
        assert report.ok and not report.clean

    def test_diagnostic_format_names_rule_and_location(self):
        g = CDFG()
        a = g.add_input("a")
        rt = g.add_op(OpKind.C2I, g.add_op(OpKind.I2C, a))
        g.add_output(rt, "y")
        (diag,) = verify_format_flow(g, target="t").diagnostics
        text = diag.format()
        assert "CS007" in text and "[t]" in text and "node" in text
