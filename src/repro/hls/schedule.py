"""Operation scheduling: ASAP / ALAP and resource-constrained list
scheduling.

The pass of Fig. 12 works on *scheduled* datapaths: it needs start
times to identify the critical path, and it reschedules after every
rewrite.  ``Schedule.length`` is the quantity Fig. 15 reports
("resulting schedule length ... could be reduced by 26.0% to 50.1%").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import CDFG
from .operators import OperatorLibrary

__all__ = ["Schedule", "asap_schedule", "alap_schedule", "list_schedule"]


@dataclass
class Schedule:
    """Start times (in cycles) for every node of a CDFG."""

    start: dict[int, int] = field(default_factory=dict)
    graph: CDFG | None = None
    library: OperatorLibrary | None = None

    def finish(self, nid: int) -> int:
        assert self.graph is not None and self.library is not None
        return self.start[nid] + self.library.latency(self.graph.nodes[nid])

    def finish_times(self) -> dict[int, int]:
        """:meth:`finish` of every scheduled node."""
        assert self.graph is not None and self.library is not None
        lat = self.library.latencies(self.graph)
        return {nid: t + lat[nid] for nid, t in self.start.items()}

    @property
    def length(self) -> int:
        """Schedule length: cycle at which the last result is ready."""
        if not self.start or self.graph is None:
            return 0
        return max(self.finish_times().values())

    def issue_counts(self) -> dict[tuple[str, int], int]:
        """Issues per (operator pool, cycle).

        The units are pipelined, so each accepts one new operation per
        cycle: the count in a cycle is the number of units the pool
        needs then, the quantity the Fig. 15 FMA pool bounds (SCH004).
        Start times of nodes outside the graph are skipped (SCH002)."""
        assert self.graph is not None and self.library is not None
        nodes = self.graph.nodes
        counts: dict[tuple[str, int], int] = {}
        for nid, t in self.start.items():
            node = nodes.get(nid)
            if node is None:
                continue
            res = self.library.resource_class(node)
            if res is not None:
                counts[(res, t)] = counts.get((res, t), 0) + 1
        return counts

    def resource_usage(self) -> dict[str, int]:
        """Peak :meth:`issue_counts` per operator pool."""
        peak: dict[str, int] = {}
        for (res, _t), n in self.issue_counts().items():
            peak[res] = max(peak.get(res, 0), n)
        return peak


def asap_schedule(graph: CDFG, library: OperatorLibrary) -> Schedule:
    """As-soon-as-possible start times (unconstrained resources)."""
    start, _finish = asap_times(graph, library.latencies(graph))
    return Schedule(start, graph, library)


def alap_schedule(graph: CDFG, library: OperatorLibrary,
                  horizon: int | None = None) -> Schedule:
    """As-late-as-possible start times against a horizon (defaults to
    the ASAP length, giving zero slack on the critical path)."""
    lat = library.latencies(graph)
    if horizon is None:
        horizon = max(asap_times(graph, lat)[1].values(), default=0)
    return Schedule(alap_times(graph, lat, horizon), graph, library)


def asap_times(graph: CDFG, lat: dict[int, int],
               ) -> tuple[dict[int, int], dict[int, int]]:
    """The forward sweep: ASAP start and finish cycle of every node,
    under the per-node latency table ``lat``."""
    nodes = graph.nodes
    start: dict[int, int] = {}
    finish: dict[int, int] = {}
    for nid in graph.topological_order():
        t = 0
        for op in nodes[nid].operands:
            f = finish[op]
            if f > t:
                t = f
        start[nid] = t
        finish[nid] = t + lat[nid]
    return start, finish


def alap_times(graph: CDFG, lat: dict[int, int],
               horizon: int) -> dict[int, int]:
    """The backward sweep: ALAP start of every node against
    ``horizon``, under the per-node latency table ``lat``."""
    nodes = graph.nodes
    # walking consumers before producers, each node's start caps the
    # finish of its operands; a node nobody reads finishes at the horizon
    deadline: dict[int, int] = {}
    start: dict[int, int] = {}
    for nid in reversed(graph.topological_order()):
        t = deadline.get(nid, horizon) - lat[nid]
        start[nid] = t
        for op in nodes[nid].operands:
            # an operand with no entry yet is capped by the horizon
            if t < deadline.get(op, horizon):
                deadline[op] = t
    return start


def slack_times(graph: CDFG, lat: dict[int, int], start: dict[int, int],
                finish: dict[int, int]) -> dict[int, int]:
    """ALAP minus ASAP start of every node, the ALAP taken against the
    ASAP length: 0 on a critical path.  ``start``/``finish`` are
    :func:`asap_times` of the unchanged graph, so this costs one
    backward sweep."""
    late = alap_times(graph, lat, max(finish.values(), default=0))
    return {nid: late[nid] - start[nid] for nid in graph.nodes}


def list_schedule(graph: CDFG, library: OperatorLibrary) -> Schedule:
    """Resource-constrained list scheduling.

    Ready operations are issued in slack order (most critical first);
    an operation class with a unit limit (e.g. ``fma_limit`` modeling
    the paper's up-to-39 time-multiplexed FMA units) admits at most that
    many *issues per cycle* -- the pipelined units accept one new
    operation per cycle each.
    """
    import heapq

    lat = library.latencies(graph)
    slack = slack_times(graph, lat, *asap_times(graph, lat))

    remaining = {n.id: len(n.operands) for n in graph.nodes.values()}

    # event-driven readiness: a min-heap keyed by (slack, id) holds the
    # currently issueable nodes; completion events feed it
    ready: list[tuple[int, int]] = [
        (slack[nid], nid) for nid, cnt in remaining.items() if cnt == 0]
    heapq.heapify(ready)
    becomes_ready: dict[int, list[int]] = {}
    earliest: dict[int, int] = {}
    start: dict[int, int] = {}
    scheduled = 0
    cycle = 0
    while scheduled < len(graph.nodes):
        for nid in becomes_ready.pop(cycle, ()):
            heapq.heappush(ready, (slack[nid], nid))
        deferred: list[tuple[int, int]] = []
        used: dict[str, int] = {}
        while ready:
            s, nid = heapq.heappop(ready)
            node = graph.nodes[nid]
            res = library.resource_class(node)
            if res is not None:
                limit = library.limit_for(res)
                if limit is not None and used.get(res, 0) >= limit:
                    deferred.append((s, nid))
                    continue
                used[res] = used.get(res, 0) + 1
            start[nid] = cycle
            scheduled += 1
            done = cycle + lat[nid]
            for succ, _ in graph.consumers(nid):
                remaining[succ] -= 1
                # a successor is ready at the max finish over *all* its
                # operands, not at the finish of the last-counted one
                earliest[succ] = max(earliest.get(succ, 0), done)
                if remaining[succ] == 0:
                    when = earliest[succ]
                    if when <= cycle:
                        heapq.heappush(ready, (slack[succ], succ))
                    else:
                        becomes_ready.setdefault(when, []).append(succ)
        for item in deferred:
            heapq.heappush(ready, item)
        if not ready and not becomes_ready and scheduled < len(graph.nodes):
            raise RuntimeError(
                "list scheduler stalled (cyclic graph?)")  # pragma: no cover
        if becomes_ready and not ready:
            cycle = min(becomes_ready)      # jump over idle cycles
        else:
            cycle += 1
    return Schedule(start, graph, library)
