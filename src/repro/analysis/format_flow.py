"""CS format-flow verification over the HLS CDFG (rules ``CS001+``).

The Fig. 12 pass may deviate from IEEE 754 *only between fused
operators on the critical path*: every carry-save value must be
produced by an FMA or I2C node and reconverted by a C2I before it
reaches an ordinary operator or an output.  This pass proves that
invariant by abstract interpretation: it propagates the
:class:`~repro.hls.ir.ValueType` abstract domain (``IEEE`` / ``CS`` /
unknown) along every edge in topological order and checks each
consumer port against the kind's port signature.

This is the one statement of graph legality: ``CDFG`` construction
checks each new node's operands and port types, but edits after that
(``set_operands``, ``rewire``) are unchecked.  Unlike a check that
raises on the first problem, the verifier is total: it never throws on
a malformed graph, it keeps going and reports *every* violation as a
:class:`Diagnostic`, which is what a post-pass gate and a CI lint
need.
"""

from __future__ import annotations

from ..hls.ir import _PORT_TYPES, _RESULT_TYPES, CDFG, OpKind, ValueType
from .diagnostics import Report

__all__ = ["verify_format_flow"]

#: kinds whose results are carry-save words travelling between fused
#: operators (the only legal CS producers, Fig. 12)
_CS_PRODUCERS = (OpKind.FMA, OpKind.I2C)


def _describe(graph: CDFG, nid: int) -> str:
    node = graph.nodes.get(nid)
    if node is None:
        return f"node {nid}"
    label = f" {node.name!r}" if node.name else ""
    return f"node {nid} ({node.kind.value}{label})"


def _cycle_members(graph: CDFG) -> set[int]:
    """Node ids on (or downstream of) a dependence cycle: the residue
    of Kahn's algorithm once all acyclic nodes are peeled off."""
    indeg = {nid: 0 for nid in graph.nodes}
    succs: dict[int, list[int]] = {nid: [] for nid in graph.nodes}
    for n in graph.nodes.values():
        for op in n.operands:
            if op in graph.nodes:
                succs[op].append(n.id)
                indeg[n.id] += 1
    ready = [nid for nid, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        nid = ready.pop()
        seen += 1
        for s in succs[nid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if seen == len(graph.nodes):
        return set()
    return {nid for nid, d in indeg.items() if d > 0}


def verify_format_flow(graph: CDFG, target: str = "cdfg") -> Report:
    """Run every CS format-flow rule over ``graph``.

    Returns a :class:`Report`; a graph that satisfies the Fig. 12
    invariant (and carries no dead or redundant structure) yields an
    empty one.
    """
    report = Report(target=target)
    nodes = graph.nodes

    # CS001 -- dangling operand references; the offending edges carry
    # the abstract value "unknown" and are excluded from type checks
    dangling: set[tuple[int, int]] = set()
    for n in nodes.values():
        for port, op in enumerate(n.operands):
            if op not in nodes:
                dangling.add((n.id, port))
                report.emit(
                    "CS001",
                    f"operand port {port} references missing node {op}",
                    _describe(graph, n.id))

    # CS002 -- dependence cycles
    cyclic = _cycle_members(graph)
    if cyclic:
        members = ", ".join(_describe(graph, nid)
                            for nid in sorted(cyclic)[:6])
        more = "" if len(cyclic) <= 6 else f" (+{len(cyclic) - 6} more)"
        report.emit("CS002",
                    f"dependence cycle through {members}{more}",
                    f"{len(cyclic)} nodes")

    # abstract interpretation of ValueType along every edge: a node's
    # abstract output is its kind's result type; dangling edges are
    # unknown (None) and skipped by the port checks below
    abstract: dict[int, ValueType] = {
        nid: _RESULT_TYPES[n.kind] for nid, n in nodes.items()}

    for n in nodes.values():
        # CS011 -- sources must be nullary
        if n.kind in (OpKind.INPUT, OpKind.CONST):
            if n.operands:
                report.emit("CS011",
                            f"{n.kind.value} node lists "
                            f"{len(n.operands)} operand(s)",
                            _describe(graph, n.id))
            continue

        ports = _PORT_TYPES[n.kind]
        # CS009 -- arity
        if len(n.operands) != len(ports):
            report.emit("CS009",
                        f"{n.kind.value} takes {len(ports)} operand(s), "
                        f"node has {len(n.operands)}",
                        _describe(graph, n.id))

        # CS003/CS004/CS005 -- per-edge format check
        for port, (op, want) in enumerate(zip(n.operands, ports)):
            if (n.id, port) in dangling:
                continue
            got = abstract[op]
            if got is want:
                continue
            edge = (f"{_describe(graph, op)} -> port {port} of "
                    f"{_describe(graph, n.id)}")
            if n.kind is OpKind.OUTPUT:
                report.emit("CS005",
                            "carry-save value leaves the datapath "
                            "unconverted", edge)
            elif want is ValueType.IEEE:
                report.emit("CS004",
                            "carry-save value feeds an IEEE port "
                            "without a C2I converter", edge)
            else:
                report.emit("CS003",
                            "IEEE value feeds a carry-save port "
                            "without an I2C converter", edge)

        # CS006/CS007 -- redundant converter round-trips
        if n.operands and (n.id, 0) not in dangling:
            src = nodes[n.operands[0]]
            if n.kind is OpKind.I2C and src.kind is OpKind.C2I:
                report.emit("CS006",
                            "I2C fed by C2I: CS value round-trips "
                            "through IEEE (Fig. 12c cleanup missed it)",
                            _describe(graph, n.id))
            elif n.kind is OpKind.C2I and src.kind is OpKind.I2C:
                report.emit("CS007",
                            "C2I fed by I2C: IEEE value round-trips "
                            "through CS for no reason",
                            _describe(graph, n.id))

        # CS012 -- stray negate_b flags
        if n.negate_b and n.kind is not OpKind.FMA:
            report.emit("CS012",
                        f"negate_b set on a {n.kind.value} node",
                        _describe(graph, n.id))

    # CS008/CS010 -- reachability
    outputs = graph.outputs()
    if not outputs:
        if nodes:
            report.emit("CS010", "graph declares no OUTPUT node")
    else:
        live: set[int] = set()
        work = list(outputs)
        while work:
            nid = work.pop()
            if nid in live:
                continue
            live.add(nid)
            work.extend(op for op in nodes[nid].operands if op in nodes)
        for nid in sorted(set(nodes) - live):
            report.emit("CS008", "no path to any output",
                        _describe(graph, nid))

    return report
