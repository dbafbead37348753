"""Tests for the CDFG IR (repro.hls.ir)."""

import pytest

from repro.analysis import verify_format_flow
from repro.hls import CDFG, OpKind, PortTypeError, ValueType


def small_graph():
    g = CDFG()
    a = g.add_input("a")
    b = g.add_input("b")
    c = g.add_input("c")
    m = g.add_op(OpKind.MUL, a, b)
    s = g.add_op(OpKind.ADD, m, c)
    g.add_output(s, "y")
    return g, (a, b, c, m, s)


class TestConstruction:
    def test_basic_graph(self):
        g, (a, b, c, m, s) = small_graph()
        assert len(g) == 6
        assert g.nodes[m].kind is OpKind.MUL
        assert g.predecessors(s) == [m, c]
        assert g.successors(m) == [s]

    def test_operand_must_exist(self):
        g = CDFG()
        with pytest.raises(KeyError):
            g.add_op(OpKind.NEG, 42)

    def test_arity_checked(self):
        g = CDFG()
        a = g.add_input("a")
        with pytest.raises(ValueError):
            g.add_op(OpKind.ADD, a)

    def test_const(self):
        g = CDFG()
        c = g.add_const(2.5)
        assert g.nodes[c].value == 2.5
        assert g.nodes[c].result_type is ValueType.IEEE


class TestTypeChecking:
    def test_fma_ports(self):
        g = CDFG()
        a = g.add_input("a")
        b = g.add_input("b")
        c = g.add_input("c")
        a_cs = g.add_op(OpKind.I2C, a)
        c_cs = g.add_op(OpKind.I2C, c)
        fma = g.add_op(OpKind.FMA, a_cs, b, c_cs)
        assert g.nodes[fma].result_type is ValueType.CS

    def test_fma_rejects_ieee_on_cs_port(self):
        g = CDFG()
        a = g.add_input("a")
        b = g.add_input("b")
        c = g.add_input("c")
        with pytest.raises(TypeError):
            g.add_op(OpKind.FMA, a, b, c)

    def test_add_rejects_cs_operand(self):
        g = CDFG()
        a = g.add_input("a")
        cs = g.add_op(OpKind.I2C, a)
        with pytest.raises(TypeError):
            g.add_op(OpKind.ADD, cs, a)

    def test_c2i_roundtrip_types(self):
        g = CDFG()
        a = g.add_input("a")
        cs = g.add_op(OpKind.I2C, a)
        back = g.add_op(OpKind.C2I, cs)
        assert g.nodes[back].result_type is ValueType.IEEE

    def test_port_mismatch_raises_typed_error(self):
        # the typed error is a TypeError subclass, so old handlers
        # keep working while new code can catch it precisely
        g = CDFG()
        a = g.add_input("a")
        with pytest.raises(PortTypeError):
            g.add_op(OpKind.C2I, a)
        assert issubclass(PortTypeError, TypeError)

    def test_construction_choke_point_validates(self):
        # even bypassing add_op, _new itself rejects ill-typed ports
        g = CDFG()
        a = g.add_input("a")
        cs = g.add_op(OpKind.I2C, a)
        with pytest.raises(PortTypeError):
            g._new(OpKind.OUTPUT, [cs], "y")
        with pytest.raises(ValueError):
            g._new(OpKind.FMA, [cs])        # arity checked too
        with pytest.raises(KeyError):
            g._new(OpKind.NEG, [12345])


class TestStructure:
    def test_topological_order(self):
        g, nodes = small_graph()
        order = g.topological_order()
        pos = {nid: i for i, nid in enumerate(order)}
        for n in g.nodes.values():
            for op in n.operands:
                assert pos[op] < pos[n.id]

    def test_cycle_detection(self):
        g, (a, b, c, m, s) = small_graph()
        # manually create a cycle
        g.set_operands(m, [s, b])
        with pytest.raises(ValueError):
            g.topological_order()

    def test_dangling_operand_raises_key_error(self):
        g, (a, b, c, m, s) = small_graph()
        g.set_operands(m, [a, 4242])
        with pytest.raises(KeyError):
            g.topological_order()

    def test_operands_change_only_through_the_graph(self):
        g, (a, b, c, m, s) = small_graph()
        g.topological_order()           # caches the order
        with pytest.raises(AttributeError):
            g.nodes[m].operands = (s, b)
        with pytest.raises(TypeError):
            g.nodes[m].operands[0] = s
        assert g.nodes[m].operands == (a, b)
        assert m not in g.successors(s)
        assert verify_format_flow(g).clean

    def test_consumers_with_ports(self):
        g, (a, b, c, m, s) = small_graph()
        assert g.consumers(m) == [(s, 0)]
        assert g.consumers(c) == [(s, 1)]

    def test_rewire(self):
        g, (a, b, c, m, s) = small_graph()
        d = g.add_input("d")
        g.rewire(c, d)
        assert g.predecessors(s) == [m, d]

    def test_remove_requires_no_consumers(self):
        g, (a, b, c, m, s) = small_graph()
        with pytest.raises(ValueError):
            g.remove(m)

    def test_prune_dead(self):
        g, (a, b, c, m, s) = small_graph()
        dead = g.add_op(OpKind.MUL, a, b)  # never consumed
        dead2 = g.add_op(OpKind.NEG, dead)
        n_before = len(g)
        removed = g.prune_dead()
        assert removed == 2
        assert len(g) == n_before - 2
        assert dead not in g.nodes and dead2 not in g.nodes

    def test_op_count(self):
        g, _ = small_graph()
        assert g.op_count(OpKind.MUL) == 1
        assert g.op_count(OpKind.FMA) == 0

    def test_dot_export(self):
        g, _ = small_graph()
        dot = g.to_dot()
        assert dot.startswith("digraph")
        assert "mul" in dot and "ieee" in dot


def _state(g):
    """A snapshot of everything a copy must carry over."""
    return ([(n.id, n.kind, n.operands, n.name, n.value, n.negate_b)
             for n in g.nodes.values()],
            g._next_id, {nid: list(u) for nid, u in g._uses.items()},
            None if g._order is None else list(g._order))


class TestCopy:
    def test_copy_keeps_ids_use_index_and_order(self):
        g, (a, b, c, m, s) = small_graph()
        neg = g.add_op(OpKind.NEG, a)
        g.set_operands(m, [a, b])       # re-lists m after neg under a
        assert g._uses[a] == [neg, m]
        g.topological_order()           # caches the order
        dup = g.copy()
        assert _state(dup) == _state(g)
        assert dup._order is not None
        assert dup.add_input("e") == g.add_input("e")

    def test_copy_is_independent(self):
        g, (a, b, c, m, s) = small_graph()
        g.topological_order()
        before = _state(g)
        dup = g.copy()
        dup.set_operands(s, [c, m])
        dup.nodes[s].name = "renamed"
        dup.add_op(OpKind.NEG, a)       # a new reader of a
        assert _state(g) == before
        dup.prune_dead()
        assert _state(g) == before
        assert g.nodes[s].name == ""
        with pytest.raises(AttributeError):
            dup.nodes[m].operands = (b, a)
