"""CDFG intermediate representation of the Nymble-like HLS core.

The paper's compiler pass operates on a scheduled control-data-flow
graph (CDFG, Fig. 1): operation nodes connected by data edges.  We model
the datapath part (the solver kernels are straight-line code after
CVXGEN's unrolling, so control constructs are not needed -- exactly the
situation of the paper's `ldlsolve()` kernels).

Two value types flow along edges: ``ieee`` (binary64 words) and ``cs``
(the P/FCS operand format).  Ordinary operators produce/consume ``ieee``;
the FMA nodes introduced by the Fig. 12 pass consume ``cs`` on their
``A``/``C`` ports and ``ieee`` on ``B``, which is why the pass must
insert :data:`OpKind.I2C` / :data:`OpKind.C2I` converters and why
removing redundant converter pairs matters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["OpKind", "ValueType", "Node", "CDFG", "PortTypeError"]


class PortTypeError(TypeError):
    """An operand edge carries the wrong value format.

    Raised at node-construction time: wiring an IEEE value into a
    carry-save port (or vice versa) is the exact malformation the
    Fig. 12 invariant forbids, so it fails fast instead of producing a
    graph that silently computes garbage.
    """


class ValueType(enum.Enum):
    IEEE = "ieee"
    CS = "cs"


class OpKind(enum.Enum):
    """Operation kinds of the datapath IR."""

    INPUT = "input"
    CONST = "const"
    OUTPUT = "output"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    NEG = "neg"
    FMA = "fma"     # a + b*c  (a, c in CS format; b in IEEE)
    I2C = "i2c"     # IEEE -> CS converter
    C2I = "c2i"     # CS -> IEEE converter

    # members are singletons, so identity hashing is exact, and it runs
    # in C: Enum's own ``hash(self._name_)`` is a Python call on every
    # lookup of the per-kind tables the schedulers and the pass consult
    __hash__ = object.__hash__


#: operand-port value types per kind (None = same as the node's output)
_PORT_TYPES: dict[OpKind, tuple[ValueType, ...]] = {
    OpKind.ADD: (ValueType.IEEE, ValueType.IEEE),
    OpKind.SUB: (ValueType.IEEE, ValueType.IEEE),
    OpKind.MUL: (ValueType.IEEE, ValueType.IEEE),
    OpKind.DIV: (ValueType.IEEE, ValueType.IEEE),
    OpKind.NEG: (ValueType.IEEE,),
    OpKind.FMA: (ValueType.CS, ValueType.IEEE, ValueType.CS),
    OpKind.I2C: (ValueType.IEEE,),
    OpKind.C2I: (ValueType.CS,),
    OpKind.OUTPUT: (ValueType.IEEE,),
}

_RESULT_TYPES: dict[OpKind, ValueType] = {
    OpKind.INPUT: ValueType.IEEE,
    OpKind.CONST: ValueType.IEEE,
    OpKind.OUTPUT: ValueType.IEEE,
    OpKind.ADD: ValueType.IEEE,
    OpKind.SUB: ValueType.IEEE,
    OpKind.MUL: ValueType.IEEE,
    OpKind.DIV: ValueType.IEEE,
    OpKind.NEG: ValueType.IEEE,
    OpKind.FMA: ValueType.CS,
    OpKind.I2C: ValueType.CS,
    OpKind.C2I: ValueType.IEEE,
}


@dataclass
class Node:
    """One CDFG operation.

    ``operands`` are node ids in port order.  The owning :class:`CDFG`
    indexes every edge, so edges change only through CDFG methods
    (``rewire``, ``set_operands``, ...): ``operands`` is a tuple, and
    assigning the attribute once the node exists raises
    ``AttributeError``.  ``negate_b`` on FMA nodes flips the sign of the
    ``B`` port (how the pass absorbs a ``SUB``: ``a - b*c == a +
    (-b)*c``; the sign flip is free in IEEE format).
    """

    id: int
    kind: OpKind
    operands: tuple[int, ...] = ()
    name: str = ""
    value: float | None = None      # for CONST nodes
    negate_b: bool = False          # for FMA nodes

    def __setattr__(self, name: str, value) -> None:
        if name == "operands" and "operands" in self.__dict__:
            raise AttributeError(
                "Node.operands is owned by the graph's use index; "
                "change edges with CDFG.set_operands or CDFG.rewire")
        object.__setattr__(self, name, value)

    @property
    def result_type(self) -> ValueType:
        return _RESULT_TYPES[self.kind]


class CDFG:
    """A datapath graph: nodes, data edges, and structural queries.

    The graph owns two derived structures, kept current by every
    mutating method: a use index (producer id -> the consumer id of
    every port reading it, so ``y = x + x`` lists ``y`` twice under
    ``x``) that makes edge queries cost O(degree), and the topological
    order, cached until the next mutation.  Node ids are allocated in
    increasing order, so ascending id is the order of ``nodes``.
    """

    def __init__(self) -> None:
        self.nodes: dict[int, Node] = {}
        self._next_id = 0
        self._uses: dict[int, list[int]] = {}
        self._order: list[int] | None = None

    # -- construction ----------------------------------------------------

    def _new(self, kind: OpKind, operands: list[int], name: str = "",
             value: float | None = None, negate_b: bool = False) -> int:
        """Create a node, validating operands against ``_PORT_TYPES``.

        Construction is the single choke point for well-typed graphs:
        even callers that bypass :meth:`add_op` cannot create a node
        whose ports read the wrong value format.  (Post-construction
        mutation -- ``rewire`` and friends -- is deliberately
        unchecked; the static verifier in :mod:`repro.analysis` covers
        that.)
        """
        for op in operands:
            if op not in self.nodes:
                raise KeyError(f"operand {op} not in graph")
        ports = _PORT_TYPES.get(kind, ())
        if kind not in (OpKind.INPUT, OpKind.CONST) and \
                len(operands) != len(ports):
            raise ValueError(
                f"{kind.value} takes {len(ports)} operands, "
                f"got {len(operands)}")
        for op, want in zip(operands, ports):
            got = self.nodes[op].result_type
            if got is not want:
                raise PortTypeError(
                    f"{kind.value} port expects {want.value}, operand "
                    f"{op} ({self.nodes[op].kind.value}) produces "
                    f"{got.value}")
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = Node(nid, kind, (), name, value, negate_b)
        self._uses.setdefault(nid, [])
        self.set_operands(nid, operands)
        return nid

    def add_input(self, name: str) -> int:
        return self._new(OpKind.INPUT, [], name)

    def add_const(self, value: float, name: str = "") -> int:
        return self._new(OpKind.CONST, [], name or repr(value), value)

    def add_op(self, kind: OpKind, *operands: int, name: str = "",
               negate_b: bool = False) -> int:
        if kind in (OpKind.INPUT, OpKind.CONST):
            raise ValueError("use add_input/add_const")
        return self._new(kind, list(operands), name, negate_b=negate_b)

    def add_output(self, operand: int, name: str) -> int:
        return self.add_op(OpKind.OUTPUT, operand, name=name)

    def copy(self) -> CDFG:
        """An independent copy that behaves exactly like this graph.

        Node ids, the next id, the use-index order and the cached
        topological order carry over, so a pass run on a copy of a
        parsed graph emits what it emits on a fresh parse of the same
        source.  Each node is copied through its instance dict: the
        operands tuple is shared, and ``Node``'s guard against
        reassigning ``operands`` does not apply to a copy being built.
        """
        new = CDFG()
        for nid, node in self.nodes.items():
            dup = object.__new__(Node)
            dup.__dict__.update(node.__dict__)
            new.nodes[nid] = dup
        new._next_id = self._next_id
        new._uses = {nid: list(uses) for nid, uses in self._uses.items()}
        new._order = None if self._order is None else list(self._order)
        return new

    # -- structure ---------------------------------------------------------

    def predecessors(self, nid: int) -> list[int]:
        return list(self.nodes[nid].operands)

    def successors(self, nid: int) -> list[int]:
        """Distinct consumers of ``nid``, in ascending id order."""
        return sorted(set(self._uses.get(nid, ())))

    def consumers(self, nid: int) -> list[tuple[int, int]]:
        """(consumer id, port index) pairs reading ``nid``."""
        return [(cid, port) for cid in self.successors(nid)
                for port, op in enumerate(self.nodes[cid].operands)
                if op == nid]

    def inputs(self) -> list[int]:
        return [n.id for n in self.nodes.values()
                if n.kind is OpKind.INPUT]

    def outputs(self) -> list[int]:
        return [n.id for n in self.nodes.values()
                if n.kind is OpKind.OUTPUT]

    def topological_order(self) -> list[int]:
        """Topologically sorted node ids; raises on cycles.

        Kahn's algorithm seeded with the sources in ascending id order,
        first-in first-out, each node's readers in ascending id order.
        The order is cached until the next mutation (the pass and both
        schedulers ask for it each round).  A dangling operand raises
        ``KeyError``.
        """
        if self._order is None:
            uses = self._uses
            indeg = {nid: len(n.operands) for nid, n in self.nodes.items()}
            # ``order`` is also the queue: the loop visits what it appends
            order = sorted(nid for nid, d in indeg.items() if d == 0)
            for nid in order:
                # one entry per reading port; sorted, the readers come in
                # the order a scan of the nodes in id order meets them
                for s in sorted(uses[nid]):
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        order.append(s)
            if len(order) != len(self.nodes):
                for n in self.nodes.values():
                    for op in n.operands:
                        if op not in self.nodes:
                            raise KeyError(op)
                raise ValueError("CDFG contains a cycle")
            self._order = order
        return list(self._order)

    def op_count(self, kind: OpKind) -> int:
        return sum(1 for n in self.nodes.values() if n.kind is kind)

    def set_operands(self, nid: int, operands) -> None:
        """Replace the operands of ``nid`` (unchecked, like ``rewire``:
        dangling ids, cycles and port-type mismatches are accepted and
        left to :func:`repro.analysis.verify_format_flow`)."""
        node = self.nodes[nid]
        for op in node.operands:
            self._drop_use(op, nid)
        object.__setattr__(node, "operands", tuple(operands))
        for op in node.operands:
            self._uses.setdefault(op, []).append(nid)
        self._order = None

    def rewire(self, old: int, new: int) -> None:
        """Redirect consumers of ``old`` to read ``new`` instead."""
        for cid in dict.fromkeys(self._uses.get(old, ())):
            self.set_operands(cid, [new if op == old else op
                                    for op in self.nodes[cid].operands])

    def remove(self, nid: int) -> None:
        """Remove a node (must have no consumers)."""
        if self._uses.get(nid):
            raise ValueError(f"node {nid} still has consumers")
        for op in self.nodes.pop(nid).operands:
            self._drop_use(op, nid)
        del self._uses[nid]
        self._order = None

    def prune_dead(self) -> int:
        """Remove nodes with no path to an output; returns count."""
        live: set[int] = set()
        work = list(self.outputs())
        while work:
            nid = work.pop()
            if nid in live:
                continue
            live.add(nid)
            work.extend(self.nodes[nid].operands)
        dead = [nid for nid in self.nodes if nid not in live]
        for nid in dead:
            for op in self.nodes.pop(nid).operands:
                self._drop_use(op, nid)
        for nid in dead:
            self._uses.pop(nid, None)
        if dead:
            self._order = None
        return len(dead)

    def _drop_use(self, producer: int, consumer: int) -> None:
        uses = self._uses[producer]
        uses.remove(consumer)
        if not uses and producer not in self.nodes:
            del self._uses[producer]      # a dangling id nobody reads

    # -- debugging ---------------------------------------------------------

    def to_dot(self) -> str:
        """GraphViz dot rendering (operation kinds + value types)."""
        lines = ["digraph cdfg {", "  rankdir=TB;"]
        for n in self.nodes.values():
            label = n.name or n.kind.value
            shape = {"input": "ellipse", "output": "ellipse",
                     "const": "plaintext"}.get(n.kind.value, "box")
            style = ', style=filled, fillcolor="#cde"' \
                if n.kind is OpKind.FMA else ""
            lines.append(
                f'  n{n.id} [label="{label}\\n{n.kind.value}", '
                f'shape={shape}{style}];')
        for n in self.nodes.values():
            for op in n.operands:
                t = self.nodes[op].result_type.value
                lines.append(f'  n{op} -> n{n.id} [label="{t}"];')
        lines.append("}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.nodes)
