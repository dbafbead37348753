"""Tests for the Fig. 12 FMA-insertion pass."""

import hashlib
import random
from functools import lru_cache

import pytest

from repro.analysis import verify_format_flow
from repro.fma import fcs_engine, pcs_engine
from repro.hls import (OpKind, asap_schedule, default_library,
                       list_schedule, parse_program, run_fma_insertion,
                       simulate)

LISTING1 = """
x1 = a*b + c*d;
x2 = e*f + g*x1;
x3 = h*i + k*x2;
"""

LISTING1_INPUTS = list("abcdefghik")


def fresh(src=LISTING1, outputs=None):
    return parse_program(src, outputs=outputs)


class TestBasicRewrite:
    def test_all_critical_adds_become_fmas(self):
        g = fresh()
        lib = default_library(fma_flavor="pcs")
        rep = run_fma_insertion(g, lib)
        assert g.op_count(OpKind.ADD) == 0
        assert g.op_count(OpKind.FMA) == 3
        assert rep.fma_inserted == 3

    def test_chained_fmas_have_no_intermediate_conversions(self):
        # Fig. 12c: after cleanup, CS values flow directly between FMAs
        g = fresh()
        lib = default_library(fma_flavor="fcs")
        rep = run_fma_insertion(g, lib)
        assert rep.converters_removed > 0
        for n in g.nodes.values():
            if n.kind is OpKind.I2C:
                src = g.nodes[n.operands[0]]
                assert src.kind is not OpKind.C2I

    def test_schedule_length_reduced_fcs(self):
        g = fresh()
        lib = default_library(fma_flavor="fcs")
        rep = run_fma_insertion(g, lib)
        assert rep.final_length < rep.baseline_length
        assert rep.reduction_percent > 20

    def test_pcs_reduction_on_listing1(self):
        g = fresh()
        lib = default_library(fma_flavor="pcs")
        rep = run_fma_insertion(g, lib)
        assert rep.final_length < rep.baseline_length

    def test_pass_is_idempotent(self):
        g = fresh()
        lib = default_library(fma_flavor="fcs")
        run_fma_insertion(g, lib)
        length = asap_schedule(g, lib).length
        rep2 = run_fma_insertion(g, lib)
        assert rep2.fma_inserted == 0
        assert asap_schedule(g, lib).length == length


class TestCopies:
    @pytest.mark.parametrize("flavor", ["pcs", "fcs"])
    def test_pass_on_a_copy_matches_a_fresh_parse(self, flavor):
        # fig15 parses each kernel once and runs the pass on copies
        src = LISTING1 + "t1 = a - b*x3; y = b*c - t1;"
        g0 = fresh(src)
        lib = default_library(fma_flavor=flavor)
        got, want = g0.copy(), fresh(src)
        assert run_fma_insertion(got, lib) == run_fma_insertion(want, lib)
        assert [(n.id, n.kind, n.operands, n.negate_b)
                for n in got.nodes.values()] == \
            [(n.id, n.kind, n.operands, n.negate_b)
             for n in want.nodes.values()]
        assert g0.op_count(OpKind.FMA) == 0
        assert len(g0) == len(fresh(src))


class TestSemanticsPreserved:
    @pytest.mark.parametrize("flavor,engine", [
        ("pcs", pcs_engine), ("fcs", fcs_engine)])
    def test_listing1_values_unchanged(self, flavor, engine):
        rng = random.Random(0)
        eng = engine()
        for _ in range(10):
            ins = {n: rng.uniform(-10, 10) for n in LISTING1_INPUTS}
            g = fresh()
            before = simulate(g, ins)
            run_fma_insertion(g, default_library(fma_flavor=flavor))
            after = simulate(g, ins, engine=eng)
            for k in before:
                assert after[k] == pytest.approx(before[k], rel=1e-13)

    @pytest.mark.parametrize("flavor,engine", [
        ("pcs", pcs_engine), ("fcs", fcs_engine)])
    def test_subtractions_fold_correctly(self, flavor, engine):
        src = """
        t1 = a - b*c;
        t2 = b*c - a;
        y = t1*d - e*t2;
        """
        rng = random.Random(1)
        eng = engine()
        for _ in range(10):
            ins = {n: rng.uniform(-5, 5) for n in "abcde"}
            g = fresh(src, outputs=["y"])
            before = simulate(g, ins)
            run_fma_insertion(g, default_library(fma_flavor=flavor))
            after = simulate(g, ins, engine=eng)
            assert after["y"] == pytest.approx(before["y"], rel=1e-12,
                                               abs=1e-12)

    def test_shared_product_not_fused(self):
        # a product with two consumers must stay a discrete multiply
        src = """
        p = a*b;
        y1 = p + c;
        y2 = p + d;
        """
        g = fresh(src, outputs=["y1", "y2"])
        lib = default_library(fma_flavor="fcs")
        run_fma_insertion(g, lib)
        assert g.op_count(OpKind.MUL) >= 1
        # and the graph still computes the right thing
        ins = dict(a=2.0, b=3.0, c=1.0, d=-1.0)
        out = simulate(g, ins, engine=fcs_engine())
        assert out["y1"] == 7.0 and out["y2"] == 5.0

    @pytest.mark.parametrize("flavor", ["pcs", "fcs"])
    def test_product_read_on_both_ports_not_fused(self, flavor):
        # x feeds two ports of one add: the use index counts ports, not
        # consumers, so the product is not exclusive to the add
        g = fresh("x = a*b; y = x + x;", outputs=["y"])
        mul = [n.id for n in g.nodes.values() if n.kind is OpKind.MUL]
        assert len(g.consumers(mul[0])) == 2
        rep = run_fma_insertion(g, default_library(fma_flavor=flavor))
        assert rep.fma_inserted == 0
        assert g.op_count(OpKind.MUL) == 1 and g.op_count(OpKind.ADD) == 1


class TestGraphHygiene:
    def test_no_dead_nodes_left(self):
        g = fresh()
        lib = default_library(fma_flavor="pcs")
        run_fma_insertion(g, lib)
        pruned = g.prune_dead()
        assert pruned == 0

    def test_graph_validates_after_pass(self):
        g = fresh()
        run_fma_insertion(g, default_library(fma_flavor="fcs"))
        assert verify_format_flow(g).clean

    def test_report_fields(self):
        g = fresh()
        rep = run_fma_insertion(g, default_library(fma_flavor="fcs"))
        assert rep.iterations >= 1
        assert sum(rep.fma_per_round) == rep.fma_inserted
        assert 0 <= rep.reduction_percent <= 100

    def test_self_check_catches_corrupted_output(self, monkeypatch):
        # sabotage the cleanup step so the pass emits a CS value
        # straight into an OUTPUT; the mandatory post-pass verifier
        # must refuse to hand the graph back
        from repro.analysis import Report
        from repro.hls import FmaPassVerificationError
        from repro.hls import fma_pass as fp

        real_cleanup = fp._remove_redundant_converters

        def sabotage(graph, touched):
            removed = real_cleanup(graph, touched)
            for out in graph.outputs():
                node = graph.nodes[out]
                src = graph.nodes[node.operands[0]]
                if src.kind is OpKind.C2I:
                    graph.set_operands(out, src.operands)
            return removed

        monkeypatch.setattr(fp, "_remove_redundant_converters",
                            sabotage)
        g = fresh()
        with pytest.raises(FmaPassVerificationError) as exc:
            run_fma_insertion(g, default_library(fma_flavor="fcs"))
        assert isinstance(exc.value.report, Report)
        assert "CS005" in exc.value.report.rule_ids()
        assert "CS005" in str(exc.value)


class TestLdlsolveShape:
    """Integration with the solver codegen (a mini Fig. 15)."""

    def test_small_kernel_reductions(self):
        from repro.solvers import generate_kernel, trajectory_problem
        kernel = generate_kernel(trajectory_problem(4, 1))
        lengths = {}
        for flavor in ("pcs", "fcs"):
            g = parse_program(kernel.source, outputs=kernel.output_names)
            lib = default_library(fma_flavor=flavor)
            rep = run_fma_insertion(g, lib)
            lengths[flavor] = (rep.baseline_length, rep.final_length)
        for flavor, (base, final) in lengths.items():
            assert final < base
        # FCS gains exceed PCS gains (Fig. 15: "note the higher
        # performance gains achievable using the FCS approach")
        pcs_red = 1 - lengths["pcs"][1] / lengths["pcs"][0]
        fcs_red = 1 - lengths["fcs"][1] / lengths["fcs"][0]
        assert fcs_red > pcs_red

    # (kernel, flavor) -> (baseline, final, rounds, FMAs per round,
    # converters removed, nodes after the pass, list-schedule length,
    # sha256 over every node's (id, kind, operands, negate_b))
    PINNED = {
        ("small", "pcs"): (
            321, 233, 9, [71, 15, 9, 6, 3, 3, 3, 2, 6], 222, 730, 233,
            "d4c922839661f8a13276111b959e6359"
            "52cb14950f14cb8675dbfa17d08a2d08"),
        ("small", "fcs"): (
            321, 145, 11, [71, 19, 7, 7, 5, 8, 3, 2, 2, 4, 1], 244, 730,
            145,
            "a0bcabb33c67e68315ee01a040f84df9"
            "6188bb08397bf4c1e3ee1458dcee0fff"),
        ("medium", "pcs"): (
            703, 578, 10, [133, 12, 18, 9, 13, 8, 9, 6, 3, 3], 481, 1861,
            578,
            "90843c4f64c40afaec0c577bf0828bdb"
            "7debdd63c94f5c205896e7301b98c2c4"),
        ("medium", "fcs"): (
            703, 352, 12, [133, 23, 14, 9, 25, 12, 5, 5, 12, 4, 1, 9], 555,
            1863, 352,
            "d096b9470d2f7723e43463ee1905f0a7"
            "56d1ee0b9d04307fe1d7cd9296dd614f"),
        ("large", "pcs"): (
            1099, 923, 12, [202, 18, 25, 13, 21, 13, 10, 10, 10, 4, 1, 1],
            773, 3052, 923,
            "0a6b93479fd5db45b4a78f40b75d378f"
            "208499437491e6f596e330147f5fc406"),
        ("large", "fcs"): (
            1099, 559, 10, [202, 30, 20, 13, 35, 19, 10, 6, 8, 2], 813,
            3046, 559,
            "ae5446ea5e014facd43d5e834a6ce3af"
            "4e1a15f11783f0f8b4ef78eb91c165da"),
    }

    @staticmethod
    @lru_cache(maxsize=None)
    def _kernel(name):
        from repro.solvers import (BENCHMARK_SIZES, generate_kernel,
                                   trajectory_problem)
        (horizon, obstacles), = [(h, o) for n, h, o in BENCHMARK_SIZES
                                 if n == name]
        return generate_kernel(trajectory_problem(horizon, obstacles))

    @pytest.mark.parametrize("name,flavor", sorted(PINNED))
    def test_fig15_kernels_pinned(self, name, flavor):
        # the exact graph the Fig. 15 driver schedules: any change to
        # pair selection order, converter cleanup or node numbering
        # shows up here, not just in the schedule length
        kernel = self._kernel(name)
        g = parse_program(kernel.source, outputs=kernel.output_names)
        lib = default_library(fma_flavor=flavor, fma_limit=39)
        rep = run_fma_insertion(g, lib, slack_threshold=0)
        digest = hashlib.sha256()
        for n in g.nodes.values():
            ops = ",".join(map(str, n.operands))
            digest.update(
                f"{n.id}:{n.kind.value}:{ops}:{int(n.negate_b)};".encode())
        (base, final, rounds, per_round, removed, nodes, sched,
         sha) = self.PINNED[name, flavor]
        assert (rep.baseline_length, rep.final_length) == (base, final)
        assert rep.iterations == rounds
        assert rep.fma_per_round == per_round
        assert rep.fma_inserted == sum(per_round)
        assert rep.converters_removed == removed
        assert len(g) == nodes
        assert list_schedule(g, lib).length == sched
        assert digest.hexdigest() == sha
