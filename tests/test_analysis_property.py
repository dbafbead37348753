"""Property tests: the FMA-insertion pass always emits verifiable
graphs, it emits what a full rescan every round emits, and the CDFG's
use index and cached order track every edit.

Hypothesis builds random straight-line CDFGs (the shape of unrolled
CVXGEN/Nymble kernels: a pool of inputs and constants, a random DAG of
ADD/SUB/MUL over them) and runs the Fig. 12 pass at varying slack
thresholds and unit flavors.  Whatever the pass does -- fuse, insert
converters, collapse converter pairs, prune -- the result must satisfy
the CS format-flow invariant with zero diagnostics, and its schedules
must validate.  The pass times the graph once per round and revisits
only what a round changed; :func:`_full_rescan_pass` keeps the round
that reschedules, rescans every converter and prunes every time, and
both must emit the same graph and report, node for node.

The second property drives random edit sequences (``add_op``,
``rewire``, ``remove``, ``prune_dead``, ``set_operands``) and compares
the graph's O(degree) edge queries and its cached topological order
against brute-force scans after every step.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import check_schedule, verify_format_flow
from repro.hls import (CDFG, FmaPassReport, OpKind, asap_schedule,
                       default_library, list_schedule, node_slack,
                       parse_program, run_fma_insertion)
from repro.hls.fma_pass import _find_critical_pairs, _replace_pair

_LIBS = {flavor: default_library(fma_flavor=flavor)
         for flavor in ("pcs", "fcs")}


@st.composite
def straight_line_cdfg(draw, pruned=True):
    """A random straight-line datapath over IEEE operators.

    ``pruned=False`` skips the final ``prune_dead`` and may add what a
    parse would have pruned: inputs nobody reads and an overwritten
    multiply-add chain (``t = ...; t = ...;``), which can be the
    longest path, so the pass fuses dead adds.  It may also add a
    product read on both ports of one live add.
    """
    n_inputs = draw(st.integers(min_value=2, max_value=5))
    n_ops = draw(st.integers(min_value=1, max_value=24))
    g = CDFG()
    pool = [g.add_input(f"v{i}") for i in range(n_inputs)]
    if draw(st.booleans()):
        pool.append(g.add_const(draw(st.sampled_from(
            [0.5, 1.0, 2.0, -3.25]))))
    # bias toward MUL so mul->add/sub pairs (the pass's substrate)
    # are common
    kinds = [OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.MUL]
    for _ in range(n_ops):
        kind = draw(st.sampled_from(kinds))
        a = draw(st.sampled_from(pool))
        b = draw(st.sampled_from(pool))
        pool.append(g.add_op(kind, a, b))
    if not pruned and draw(st.booleans()):
        prod = g.add_op(OpKind.MUL, draw(st.sampled_from(pool)),
                        draw(st.sampled_from(pool)))
        pool.append(g.add_op(OpKind.ADD, prod, prod))
    for nid in pool:
        if not g.successors(nid) and \
                g.nodes[nid].kind not in (OpKind.INPUT, OpKind.CONST):
            g.add_output(nid, f"out{nid}")
    if not g.outputs():
        g.add_output(pool[-1], "out")
    if pruned:
        g.prune_dead()
    elif draw(st.booleans()):
        dead = draw(st.sampled_from(pool))
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            prod = g.add_op(OpKind.MUL, draw(st.sampled_from(pool)),
                            draw(st.sampled_from(pool)))
            kind = draw(st.sampled_from([OpKind.ADD, OpKind.SUB]))
            ops = (dead, prod) if draw(st.booleans()) else (prod, dead)
            dead = g.add_op(kind, *ops)
    return g


@st.composite
def substitution_kernel(draw):
    """An unrolled triangular solve, the shape of the Fig. 15
    ``ldlsolve()`` kernels: ``x_i = b_i +- l_ij*x_j ...`` over a random
    lower-triangular pattern, so multiply-add chains feed one another
    and a pair fused in one round often reads an add fused in a later
    one."""
    n = draw(st.integers(min_value=2, max_value=7))
    lines = []
    for i in range(n):
        expr = f"b{i}"
        for j in range(i):
            if draw(st.booleans()):
                sign = draw(st.sampled_from("+-"))
                prod = draw(st.sampled_from([f"l{i}_{j}*x{j}",
                                             f"x{j}*l{i}_{j}"]))
                expr += f" {sign} {prod}"
        lines.append(f"x{i} = {expr};")
    return parse_program("\n".join(lines),
                         outputs=[f"x{i}" for i in range(n)])


@given(graph=straight_line_cdfg(),
       flavor=st.sampled_from(["pcs", "fcs"]),
       slack_threshold=st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_pass_output_always_verifies_clean(graph, flavor,
                                           slack_threshold):
    library = _LIBS[flavor]
    run_fma_insertion(graph, library,
                      slack_threshold=slack_threshold)
    report = verify_format_flow(graph)
    assert report.clean, [d.format() for d in report.diagnostics]
    assert check_schedule(asap_schedule(graph, library)).clean
    assert check_schedule(list_schedule(graph, library)).clean


@given(graph=straight_line_cdfg(),
       slack_threshold=st.integers(min_value=0, max_value=3))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_wider_slack_never_fuses_less(graph, slack_threshold):
    """Relaxing the criterion can only expose *more* fusable pairs."""
    import copy

    library = _LIBS["pcs"]
    strict = copy.deepcopy(graph)
    run_fma_insertion(strict, library, slack_threshold=0)
    run_fma_insertion(graph, library,
                      slack_threshold=slack_threshold)
    assert graph.op_count(OpKind.FMA) >= strict.op_count(OpKind.FMA)
    assert verify_format_flow(graph).clean
    assert verify_format_flow(strict).clean


def _full_converter_scan(graph):
    """Fig. 12c as a fixpoint over every node: collapse each
    ``i2c(c2i(x))``, drop each C2I nobody reads, until nothing changes."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for nid in list(graph.nodes):
            node = graph.nodes.get(nid)
            if node is None or node.kind is not OpKind.I2C:
                continue
            src = graph.nodes[node.operands[0]]
            if src.kind is OpKind.C2I:
                graph.rewire(nid, src.operands[0])
                graph.remove(nid)
                removed += 1
                changed = True
        for nid in list(graph.nodes):
            node = graph.nodes.get(nid)
            if node is not None and node.kind is OpKind.C2I and \
                    not graph.successors(nid):
                graph.remove(nid)
                removed += 1
                changed = True
    return removed


def _full_rescan_pass(graph, library, slack_threshold):
    """The Fig. 12 pass with a full rescan every round: a new ASAP and
    ALAP, the fixpoint converter scan over every node and
    ``prune_dead``.  The reference for :func:`run_fma_insertion`, which
    must emit the same graph and report."""
    asap = asap_schedule(graph, library)
    report = FmaPassReport(baseline_length=asap.length, final_length=0)
    for _ in range(64):
        slack = node_slack(graph, library, asap)
        pairs = _find_critical_pairs(graph, slack, slack_threshold)
        if not pairs:
            break
        report.iterations += 1
        inserted = 0
        ready_at = asap.finish_times()
        for add_id, mul_id, mul_port in pairs:
            if add_id not in graph.nodes or mul_id not in graph.nodes:
                continue
            if graph.nodes[mul_id].kind is not OpKind.MUL:
                continue
            if mul_id not in graph.nodes[add_id].operands:
                continue
            _replace_pair(graph, add_id, mul_id, mul_port, ready_at)
            inserted += 1
        report.fma_inserted += inserted
        report.fma_per_round.append(inserted)
        report.converters_removed += _full_converter_scan(graph)
        graph.prune_dead()
        asap = asap_schedule(graph, library)
    report.final_length = asap.length
    return report


def _nodes(graph):
    return [(n.id, n.kind, n.operands, n.negate_b)
            for n in graph.nodes.values()]


@given(graph=st.one_of(straight_line_cdfg(),
                       straight_line_cdfg(pruned=False),
                       substitution_kernel()),
       flavor=st.sampled_from(["pcs", "fcs"]),
       slack_threshold=st.integers(min_value=0, max_value=3))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_pass_matches_full_rescan(graph, flavor, slack_threshold):
    import copy

    library = _LIBS[flavor]
    ref = copy.deepcopy(graph)
    want = _full_rescan_pass(ref, library, slack_threshold)
    got = run_fma_insertion(graph, library,
                            slack_threshold=slack_threshold)
    assert got == want
    assert _nodes(graph) == _nodes(ref)
    assert list_schedule(graph, library).start == \
        list_schedule(ref, library).start


def test_threshold_zero_matches_legacy_behavior():
    """slack_threshold=0 is the paper's rule: identical result to the
    pre-parameter pass on Listing 1."""
    from repro.hls import parse_program

    src = "x1 = a*b + c*d;\nx2 = e*f + g*x1;\nx3 = h*i + k*x2;"
    g0 = parse_program(src)
    g1 = parse_program(src)
    lib = default_library()
    rep0 = run_fma_insertion(g0, lib)
    rep1 = run_fma_insertion(g1, lib, slack_threshold=0)
    assert rep0.fma_inserted == rep1.fma_inserted == 3
    assert rep0.final_length == rep1.final_length


@pytest.mark.parametrize("flavor", ["pcs", "fcs"])
def test_nonzero_threshold_fuses_offpath_pairs(flavor):
    """A MAC hanging off the critical path (positive slack) is left
    discrete at threshold 0 but fused once the threshold covers it."""
    from repro.hls import parse_program

    # long critical chain + one shallow independent MAC
    src = ("c1 = a*b + c;\n"
           "c2 = c1*d + e;\n"
           "c3 = c2*f + g;\n"
           "side = p*q + r;\n")
    strict = parse_program(src)
    lib = default_library(fma_flavor=flavor)
    run_fma_insertion(strict, lib, slack_threshold=0)
    relaxed = parse_program(src)
    run_fma_insertion(relaxed, lib, slack_threshold=64)
    assert relaxed.op_count(OpKind.FMA) >= \
        strict.op_count(OpKind.FMA)
    assert relaxed.op_count(OpKind.FMA) == 4


def _scan_consumers(g, nid):
    """Reference for ``consumers``: every port of every node."""
    return [(n.id, port) for n in g.nodes.values()
            for port, op in enumerate(n.operands) if op == nid]


def _scan_kahn(g):
    """Reference topological order (sources ascending, first-in
    first-out); None when the graph has a cycle."""
    indeg = {nid: 0 for nid in g.nodes}
    succs = {nid: [] for nid in g.nodes}
    for n in g.nodes.values():
        for op in n.operands:
            succs[op].append(n.id)
            indeg[n.id] += 1
    ready = sorted(nid for nid, d in indeg.items() if d == 0)
    order = []
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        for s in succs[nid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    return order if len(order) == len(g.nodes) else None


def _assert_index_matches_scan(g):
    for nid in g.nodes:
        want = _scan_consumers(g, nid)
        assert g.consumers(nid) == want
        assert g.successors(nid) == list(dict.fromkeys(c for c, _ in want))
    want = _scan_kahn(g)
    if want is None:
        with pytest.raises(ValueError):
            g.topological_order()
    else:
        assert g.topological_order() == want


_EDITS = ["add_op", "rewire", "remove", "prune_dead", "set_operands"]


@given(graph=straight_line_cdfg(), data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_use_index_and_order_track_every_edit(graph, data):
    g = graph
    _assert_index_matches_scan(g)       # also primes the order cache
    for _ in range(data.draw(st.integers(min_value=1, max_value=20))):
        ids = sorted(g.nodes)
        pick = st.sampled_from(ids)
        edit = data.draw(st.sampled_from(_EDITS))
        if edit == "add_op":
            kind = data.draw(st.sampled_from(
                [OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.NEG]))
            arity = 1 if kind is OpKind.NEG else 2
            g.add_op(kind, *data.draw(st.lists(pick, min_size=arity,
                                               max_size=arity)))
        elif edit == "rewire":
            old, new = data.draw(pick), data.draw(pick)
            want = {n.id: tuple(new if op == old else op
                                for op in n.operands)
                    for n in g.nodes.values()}
            g.rewire(old, new)
            assert {n.id: n.operands for n in g.nodes.values()} == want
        elif edit == "remove":
            nid = data.draw(pick)
            if _scan_consumers(g, nid):
                with pytest.raises(ValueError):
                    g.remove(nid)
            else:
                g.remove(nid)
        elif edit == "prune_dead":
            g.prune_dead()
        else:
            # may close a cycle: the cached order must not survive it
            g.set_operands(data.draw(pick),
                           data.draw(st.lists(pick, max_size=3)))
        _assert_index_matches_scan(g)
        if not g.nodes:
            break
