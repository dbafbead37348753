"""Failure injection: corrupt states, broken invariants, hostile inputs.

Every layer of the stack must *detect* violated preconditions rather
than silently compute garbage -- the property that makes the functional
models trustworthy as a hardware reference.
"""

import numpy as np
import pytest

from repro.analysis import ScheduleCheckError, verify_format_flow
from repro.cs import CSNumber
from repro.fma import (CSFloat, FCS_PARAMS, PCS_PARAMS, PcsFmaUnit,
                       cs_to_ieee, ieee_to_cs)
from repro.fp import BINARY64, FpClass, FPValue, double
from repro.hls import (OpKind, asap_schedule, default_library,
                       execute_schedule, parse_program)
from repro.solvers import InteriorPointSolver, QPProblem


class TestCorruptedCsNumbers:
    def test_carry_outside_mask_rejected(self):
        p = PCS_PARAMS
        with pytest.raises(ValueError):
            CSNumber(0, 1 << 5, p.mant_width, p.mant_carry_mask)

    def test_oversized_sum_rejected(self):
        with pytest.raises(ValueError):
            CSNumber(1 << 110, 0, 110)

    def test_corrupted_mantissa_width_rejected(self):
        p = PCS_PARAMS
        bad = CSNumber(1, 0, 55)  # half the required width
        with pytest.raises(ValueError):
            CSFloat(p, FpClass.NORMAL, exp=0, mant=bad)

    def test_corrupted_round_block_width_rejected(self):
        p = PCS_PARAMS
        mant = CSNumber(1 << 107, 0, p.mant_width, p.mant_carry_mask)
        bad_round = CSNumber(0, 0, 11)
        with pytest.raises(ValueError):
            CSFloat(p, FpClass.NORMAL, exp=0, mant=mant,
                    round_data=bad_round)

    def test_exponent_overflow_rejected(self):
        p = PCS_PARAMS
        mant = CSNumber(1 << 107, 0, p.mant_width, p.mant_carry_mask)
        for bad_exp in (p.exp_max + 1, p.exp_min - 1):
            with pytest.raises(ValueError):
                CSFloat(p, FpClass.NORMAL, exp=bad_exp, mant=mant)


class TestHostileFmaOperands:
    def test_mixed_format_operands_rejected(self):
        unit = PcsFmaUnit()
        a_fcs = ieee_to_cs(double(1.0), FCS_PARAMS)
        c_pcs = ieee_to_cs(double(1.0), PCS_PARAMS)
        with pytest.raises(ValueError):
            unit.fma(a_fcs, double(1.0), c_pcs)

    def test_denormalized_operand_still_sound(self):
        # an operand whose mantissa is NOT block-normalized (all value
        # in the low block) must still produce a value-correct result
        p = PCS_PARAMS
        unit = PcsFmaUnit()
        low_mant = CSNumber(1 << 20, 0, p.mant_width, p.mant_carry_mask)
        weird = CSFloat(p, FpClass.NORMAL, exp=0, mant=low_mant)
        r = unit.fma(weird, double(1.0), ieee_to_cs(double(1.0), p))
        out = cs_to_ieee(r)
        expect = float(weird.to_fraction()) + 1.0
        assert out.to_float() == pytest.approx(expect, rel=1e-12)

    def test_all_carries_set_operand(self):
        # a legal-but-extreme operand: every permitted carry bit set
        p = PCS_PARAMS
        unit = PcsFmaUnit()
        mant = CSNumber((1 << 108) - 1, p.mant_carry_mask, p.mant_width,
                        p.mant_carry_mask)
        x = CSFloat(p, FpClass.NORMAL, exp=0, mant=mant)
        r = unit.fma(x, double(0.5), ieee_to_cs(double(1.0), p))
        out = cs_to_ieee(r)
        expect = x.to_fraction() + (double(0.5).to_fraction() * 1)
        assert out.is_normal
        rel = abs(out.to_fraction() - expect) / abs(expect)
        assert rel < 1e-15


class TestHlsRobustness:
    def test_type_confusion_rejected_by_validate(self):
        g = parse_program("y = a + b;")
        # surgically mis-wire: feed a CS value into the ADD
        a = g.inputs()[0]
        cs = g.add_op(OpKind.I2C, a)
        add = [n for n in g.nodes.values() if n.kind is OpKind.ADD][0]
        g.set_operands(add.id, [cs, add.operands[1]])
        assert verify_format_flow(g).rule_ids() == {"CS004"}

    def test_cyclic_graph_rejected(self):
        g = parse_program("y = a + b;")
        add = [n for n in g.nodes.values() if n.kind is OpKind.ADD][0]
        out = g.outputs()[0]
        g.set_operands(add.id, [add.operands[0], out])
        assert "CS002" in verify_format_flow(g).rule_ids()

    def test_sabotaged_schedule_detected(self):
        lib = default_library()
        g = parse_program("y = a*b + c;")
        sched = asap_schedule(g, lib)
        mul = [n.id for n in g.nodes.values()
               if n.kind is OpKind.MUL][0]
        add = [n.id for n in g.nodes.values()
               if n.kind is OpKind.ADD][0]
        sched.start[add] = sched.start[mul]  # issue before operand done
        with pytest.raises(ScheduleCheckError) as exc:
            execute_schedule(g, sched, lib, dict(a=1.0, b=1.0, c=1.0))
        assert exc.value.report.rule_ids() == {"SCH001"}


class TestSolverRobustness:
    def test_infeasible_problem_reports_non_convergence(self):
        # x <= -1 and -x <= -1 simultaneously: empty feasible set
        P = np.eye(1)
        q = np.zeros(1)
        G = np.array([[1.0], [-1.0]])
        h = np.array([-1.0, -1.0])
        p = QPProblem(P, q, np.zeros((0, 1)), np.zeros(0), G, h)
        res = InteriorPointSolver(p, max_iterations=15).solve()
        assert not res.converged

    def test_unbounded_below_does_not_crash(self):
        # linear objective, no constraints: diverges but must terminate
        P = np.zeros((1, 1))
        q = np.array([1.0])
        p = QPProblem(P, q, np.zeros((0, 1)), np.zeros(0),
                      np.zeros((0, 1)), np.zeros(0))
        res = InteriorPointSolver(p, max_iterations=5).solve()
        assert res.iterations <= 5

    def test_singular_kkt_detected(self):
        from repro.solvers import numeric_ldl, symbolic_ldl
        K = np.zeros((3, 3))
        K[0, 1] = K[1, 0] = 1.0
        sym = symbolic_ldl(np.ones((3, 3), dtype=bool),
                           order=np.arange(3))
        with pytest.raises(ZeroDivisionError):
            numeric_ldl(K, sym)


class TestPackingCorruption:
    def test_unpack_garbage_class_bits(self):
        # any 2-bit class decodes to a valid FpClass; garbage payloads
        # of non-normal classes are ignored rather than trusted
        word = (FpClass.NAN.value << (PCS_PARAMS.operand_bits)) | 12345
        x = CSFloat.unpack(word, PCS_PARAMS)
        assert x.is_nan

    def test_ieee_unpack_of_corrupt_exponent(self):
        # a NORMAL-class word whose exponent field is all ones violates
        # the format invariant and must be rejected
        v = FPValue.from_float(1.0)
        word = v.pack()
        word |= (BINARY64.exponent_mask << BINARY64.fraction_bits)
        with pytest.raises(ValueError):
            FPValue.unpack(word, BINARY64)
