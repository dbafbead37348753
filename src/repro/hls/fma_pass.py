"""The automatic FMA-insertion compiler pass (Sec. III-I, Fig. 12).

The datapath is first assembled from IEEE 754 operators and scheduled
(Fig. 12a).  Then, repeatedly:

1. the graph is searched for multiply -> add/sub pairs on the critical
   path (zero slack);
2. every such pair is greedily replaced by an FMA node surrounded by the
   required IEEE <-> CS converters (Fig. 12b);
3. redundant conversion pairs between chained FMA units are removed
   (``i2c(c2i(x)) -> x``, Fig. 12c);
4. the datapath is rescheduled, and the procedure repeats until no
   further insertion can be performed.

Subtractions fold into the FMA for free: ``a - b*c = a + (-b)*c`` sets
the FMA's ``negate_b`` flag, and ``b*c - a`` negates the addend (sign
manipulation costs nothing in either operand format).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import CDFG, OpKind
from .operators import OperatorLibrary
from .schedule import asap_times, slack_times

__all__ = ["FmaPassReport", "FmaPassVerificationError",
           "run_fma_insertion"]


class FmaPassVerificationError(RuntimeError):
    """The pass emitted a graph that fails the CS format-flow check.

    The Fig. 12 invariant -- carry-save values only between fused
    operators, reconverted before any ordinary operator or output --
    is re-proved after every run by the static verifier
    (:mod:`repro.analysis.format_flow`).  A failure here means the
    pass itself is buggy; the offending diagnostics ride along in
    :attr:`report`.
    """

    def __init__(self, report) -> None:
        lines = [d.format() for d in report.diagnostics]
        super().__init__(
            "FMA-insertion pass produced a malformed graph:\n  "
            + "\n  ".join(lines))
        self.report = report


@dataclass
class FmaPassReport:
    """What the pass did, and what it bought (the Fig. 15 metric)."""

    baseline_length: int
    final_length: int
    iterations: int = 0
    fma_inserted: int = 0
    converters_removed: int = 0
    fma_per_round: list[int] = field(default_factory=list)

    @property
    def reduction_percent(self) -> float:
        if self.baseline_length == 0:
            return 0.0
        return 100.0 * (self.baseline_length - self.final_length) \
            / self.baseline_length


def _find_critical_pairs(graph: CDFG, slack: dict[int, int],
                         slack_threshold: int = 0,
                         ) -> list[tuple[int, int, int]]:
    """(add_id, mul_id, mul_port) for critical multiply->add/sub pairs.

    The add/sub must lie on the critical path (slack at most
    ``slack_threshold``; the paper's Fig. 12 criterion is 0); the
    multiplier only needs to feed the add exclusively -- fusing helps
    even when the product itself has timing slack, because the fused
    unit removes the adder (and its conversions) from the chain.  When
    both operands are single-use multiplies, the one with less slack is
    fused (the other product stays discrete and feeds the A port).
    """
    nodes = graph.nodes
    adds = (OpKind.ADD, OpKind.SUB)
    pairs: list[tuple[int, int, int]] = []
    for nid in graph.topological_order():
        if slack[nid] > slack_threshold:
            continue
        node = nodes[nid]
        if node.kind not in adds:
            continue
        candidates = []
        for port, op in enumerate(node.operands):
            pred = nodes[op]
            if pred.kind is not OpKind.MUL:
                continue
            if len(graph.consumers(op)) != 1:
                continue
            candidates.append((slack[op], port, op))
        if candidates:
            candidates.sort()
            _s, port, op = candidates[0]
            pairs.append((nid, op, port))
    return pairs


def _replace_pair(graph: CDFG, add_id: int, mul_id: int, mul_port: int,
                  ready_at: dict[int, int]) -> list[int]:
    """Rewrite one add/sub + mul pair into FMA + converters.

    ``ready_at`` holds the round-start ASAP finish times; nodes created
    during the round (converted-back FMA results) are treated as
    latest-ready so chains fuse through them.  Returns the ids of the
    nodes it created, in ascending order.
    """
    add_node = graph.nodes[add_id]
    mul_node = graph.nodes[mul_id]
    other_port = 1 - mul_port
    addend = add_node.operands[other_port]
    created = []

    negate_b = False
    if add_node.kind is OpKind.SUB:
        if mul_port == 1:
            # a - b*c  ->  a + (-b)*c
            negate_b = True
        else:
            # b*c - a  ->  (-a) + b*c
            addend = graph.add_op(OpKind.NEG, addend)
            created.append(addend)

    # pick the C (carry-save) input of the multiplier: the operand that
    # becomes ready later is the chain-critical one; ties prefer a
    # converted-back FMA result so the cleanup can fuse the chain
    late = 1 << 30
    m_ops = mul_node.operands
    readiness = []
    for op in m_ops:
        r = ready_at.get(op, late)
        if graph.nodes[op].kind is OpKind.C2I:
            r = max(r + 1, late)  # prefer chaining via FMA results
        readiness.append(r)
    c_idx = 0 if readiness[0] >= readiness[1] else 1
    c_op = m_ops[c_idx]
    b_op = m_ops[1 - c_idx]

    a_cs = graph.add_op(OpKind.I2C, addend)
    c_cs = graph.add_op(OpKind.I2C, c_op)
    fma = graph.add_op(OpKind.FMA, a_cs, b_op, c_cs,
                       name=add_node.name or "fma", negate_b=negate_b)
    out = graph.add_op(OpKind.C2I, fma)
    created += (a_cs, c_cs, fma, out)

    graph.rewire(add_id, out)
    graph.remove(add_id)
    graph.remove(mul_id)
    return created


def _remove_redundant_converters(graph: CDFG, touched) -> int:
    """Fig. 12c: collapse ``i2c(c2i(x))`` chains so CS values flow
    directly between FMA units; drop C2Is nobody reads any more.

    Visits the converters among ``touched`` (node ids) and the I2Cs
    reading a touched C2I.  A round makes new pairs and unread C2Is
    only through the converters it creates and the readers it rewires
    onto a new C2I, so the ids it created cover all a full scan would
    find; the first round passes every node.  A collapse only
    re-points carry-save ports and makes no new pair, so one pass in
    ascending I2C id order, a full scan's order, is enough.
    """
    nodes = graph.nodes
    i2cs: set[int] = set()
    c2is: set[int] = set()
    for nid in touched:
        node = nodes.get(nid)
        if node is None:
            continue
        if node.kind is OpKind.I2C:
            i2cs.add(nid)
        elif node.kind is OpKind.C2I:
            c2is.add(nid)
            i2cs.update(cid for cid in graph.successors(nid)
                        if nodes[cid].kind is OpKind.I2C)
    removed = 0
    for nid in sorted(i2cs):
        src = nodes[nid].operands[0]
        if nodes[src].kind is OpKind.C2I:
            graph.rewire(nid, nodes[src].operands[0])
            graph.remove(nid)
            removed += 1
            c2is.add(src)
    for nid in sorted(c2is):
        if not graph.successors(nid):
            graph.remove(nid)
            removed += 1
    return removed


def run_fma_insertion(graph: CDFG, library: OperatorLibrary,
                      max_rounds: int = 64,
                      slack_threshold: int = 0) -> FmaPassReport:
    """Run the Fig. 12 pass to fixpoint on ``graph`` (in place).

    ``slack_threshold`` widens the fusion criterion: pairs whose
    add/sub has at most that much timing slack are fused (0 = the
    paper's strictly-critical-path rule).  After the fixpoint the
    emitted graph is re-proved against the CS format-flow invariant;
    a violation raises :class:`FmaPassVerificationError` -- the pass
    never hands a malformed datapath to the scheduler or simulator.
    """
    # one latency table for the whole call (nothing edits the library
    # during it), extended by the nodes each round creates; ids are
    # never reused, so entries of removed nodes are never read again
    lat = library.latencies(graph)
    # each round: one forward sweep (start, finish, length) and one
    # backward sweep (slack) over one topological order
    start, finish = asap_times(graph, lat)
    report = FmaPassReport(baseline_length=max(finish.values(), default=0),
                           final_length=0)
    for _ in range(max_rounds):
        slack = slack_times(graph, lat, start, finish)
        pairs = _find_critical_pairs(graph, slack, slack_threshold)
        if not pairs:
            break
        report.iterations += 1
        inserted = 0
        created: list[int] = []
        for add_id, mul_id, mul_port in pairs:
            # earlier replacements in this round may have consumed nodes
            if add_id not in graph.nodes or mul_id not in graph.nodes:
                continue
            if graph.nodes[mul_id].kind is not OpKind.MUL:
                continue
            if mul_id not in graph.nodes[add_id].operands:
                continue
            # the round-start finish times order each product's operands
            created += _replace_pair(graph, add_id, mul_id, mul_port,
                                     finish)
            inserted += 1
        for nid in created:
            lat[nid] = library.latency(graph.nodes[nid])
        report.fma_inserted += inserted
        report.fma_per_round.append(inserted)
        # the first round also clears what the graph arrived with:
        # stray converter pairs and nodes with no path to an output.
        # Later rounds start live and stay live (a fused add's readers
        # move to its FMA's result, a collapsed I2C's to the FMA behind
        # it), so they revisit only what they created and prune nothing
        first = report.iterations == 1
        report.converters_removed += _remove_redundant_converters(
            graph, list(graph.nodes) if first else created)
        if first:
            graph.prune_dead()
        start, finish = asap_times(graph, lat)
        if inserted == 0:  # pragma: no cover - defensive
            break
    # mandatory post-pass self-check: prove the Fig. 12 invariant on
    # the graph we are about to hand to the scheduler (imported lazily;
    # repro.analysis depends on this package)
    from ..analysis.format_flow import verify_format_flow

    verification = verify_format_flow(graph, target="fma-pass")
    if not verification.ok:
        raise FmaPassVerificationError(verification)
    report.final_length = max(finish.values(), default=0)
    return report
