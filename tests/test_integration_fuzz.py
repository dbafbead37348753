"""End-to-end fuzzing: random straight-line programs through the whole
frontend -> pass -> simulate pipeline, checked against plain IEEE
evaluation.

This is the strongest correctness statement the reproduction makes: for
*arbitrary* multiply-add datapaths, the Fig. 12 rewrite plus the
bit-accurate carry-save execution agrees with double precision to
rounding noise.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import verify_format_flow
from repro.fma import fcs_engine, pcs_engine
from repro.hls import (OpKind, default_library, parse_program,
                       run_fma_insertion, simulate)


def random_program(rng: random.Random, statements: int) -> tuple[str,
                                                                 list[str]]:
    """Generate a straight-line program over a growing set of names."""
    names = [f"in{i}" for i in range(4)]
    lines = []
    for s in range(statements):
        def operand():
            return rng.choice(names)

        shape = rng.randrange(5)
        if shape == 0:
            expr = f"{operand()}*{operand()} + {operand()}*{operand()}"
        elif shape == 1:
            expr = f"{operand()} - {operand()}*{operand()}"
        elif shape == 2:
            expr = f"{operand()}*{operand()} - {operand()}"
        elif shape == 3:
            expr = (f"{operand()}*{operand()} + {operand()}*{operand()}"
                    f" + {operand()}")
        else:
            expr = f"({operand()} + {operand()})*{operand()}"
        name = f"t{s}"
        lines.append(f"{name} = {expr};")
        names.append(name)
    return "\n".join(lines), [f"t{statements - 1}"]


class TestFuzzedPrograms:
    @pytest.mark.parametrize("flavor,engine_factory", [
        ("pcs", pcs_engine), ("fcs", fcs_engine)])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_program_semantics(self, flavor, engine_factory, seed):
        rng = random.Random(seed)
        src, outputs = random_program(rng, statements=rng.randint(3, 12))
        inputs = {f"in{i}": rng.uniform(-8, 8) for i in range(4)}
        g = parse_program(src, outputs=outputs)
        before = simulate(g, inputs)
        lib = default_library(fma_flavor=flavor)
        rep = run_fma_insertion(g, lib)
        assert verify_format_flow(g).clean
        after = simulate(g, inputs, engine=engine_factory())
        for k, ref in before.items():
            assert after[k] == pytest.approx(ref, rel=1e-11, abs=1e-11), \
                f"seed={seed} output {k}: {after[k]} vs {ref}\n{src}"
        # the pass must never *lengthen* the unconstrained schedule
        assert rep.final_length <= rep.baseline_length + \
            2 * lib.specs["c2i"].latency

    @pytest.mark.parametrize("seed", range(4))
    def test_pass_reaches_fixpoint(self, seed):
        rng = random.Random(100 + seed)
        src, outputs = random_program(rng, statements=8)
        g = parse_program(src, outputs=outputs)
        lib = default_library(fma_flavor="fcs")
        run_fma_insertion(g, lib)
        again = run_fma_insertion(g, lib)
        assert again.fma_inserted == 0


class TestHypothesisExpressions:
    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=6,
                    max_size=6),
           st.sampled_from(["pcs", "fcs"]))
    @settings(max_examples=25, deadline=None)
    def test_two_level_chain(self, vals, flavor):
        src = """
        t = a*b + c;
        y = d*t + e*f;
        """
        names = list("abcdef")
        inputs = dict(zip(names, vals))
        g = parse_program(src, outputs=["y"])
        ref = simulate(g, inputs)["y"]
        run_fma_insertion(g, default_library(fma_flavor=flavor))
        engine = pcs_engine() if flavor == "pcs" else fcs_engine()
        got = simulate(g, inputs, engine=engine)["y"]
        assert got == pytest.approx(ref, rel=1e-11, abs=1e-11)


class TestConverterBalance:
    def test_every_cs_value_produced_and_consumed_consistently(self):
        # after the pass, every FMA A/C input is CS-typed and every
        # OUTPUT is IEEE-typed (the converters balance out)
        rng = random.Random(7)
        src, outputs = random_program(rng, statements=10)
        g = parse_program(src, outputs=outputs)
        run_fma_insertion(g, default_library(fma_flavor="pcs"))
        for n in g.nodes.values():
            if n.kind is OpKind.FMA:
                a, b, c = n.operands
                assert g.nodes[a].result_type.value == "cs"
                assert g.nodes[b].result_type.value == "ieee"
                assert g.nodes[c].result_type.value == "cs"
            if n.kind is OpKind.OUTPUT:
                assert g.nodes[n.operands[0]].result_type.value == "ieee"
