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

    def resource_usage(self) -> dict[str, int]:
        """Peak concurrent occupancy per operator class.

        An operator occupies its unit for its full latency (the units
        are pipelined in hardware, but the paper's Fig. 15 experiment
        *time-multiplexes* a bounded pool of FMA units, so we account
        occupancy conservatively at issue granularity: one issue per
        unit per cycle)."""
        assert self.graph is not None and self.library is not None
        per_cycle: dict[tuple[str, int], int] = {}
        for nid, t in self.start.items():
            res = self.library.resource_class(self.graph.nodes[nid])
            if res is None:
                continue
            per_cycle[(res, t)] = per_cycle.get((res, t), 0) + 1
        peak: dict[str, int] = {}
        for (res, _t), n in per_cycle.items():
            peak[res] = max(peak.get(res, 0), n)
        return peak


def asap_schedule(graph: CDFG, library: OperatorLibrary) -> Schedule:
    """As-soon-as-possible start times (unconstrained resources)."""
    lat = library.latencies(graph)
    start: dict[int, int] = {}
    for nid in graph.topological_order():
        t = 0
        for op in graph.nodes[nid].operands:
            t = max(t, start[op] + lat[op])
        start[nid] = t
    return Schedule(start, graph, library)


def alap_schedule(graph: CDFG, library: OperatorLibrary,
                  horizon: int | None = None) -> Schedule:
    """As-late-as-possible start times against a horizon (defaults to
    the ASAP length, giving zero slack on the critical path)."""
    if horizon is None:
        horizon = asap_schedule(graph, library).length
    lat = library.latencies(graph)
    # walking consumers before producers, each node's start caps the
    # finish of its operands; a node nobody reads finishes at the horizon
    deadline: dict[int, int] = {}
    start: dict[int, int] = {}
    for nid in reversed(graph.topological_order()):
        t = deadline.get(nid, horizon) - lat[nid]
        start[nid] = t
        for op in graph.nodes[nid].operands:
            if op not in deadline or t < deadline[op]:
                deadline[op] = t
    return Schedule(start, graph, library)


def list_schedule(graph: CDFG, library: OperatorLibrary) -> Schedule:
    """Resource-constrained list scheduling.

    Ready operations are issued in slack order (most critical first);
    an operation class with a unit limit (e.g. ``fma_limit`` modeling
    the paper's up-to-39 time-multiplexed FMA units) admits at most that
    many *issues per cycle* -- the pipelined units accept one new
    operation per cycle each.
    """
    import heapq

    asap = asap_schedule(graph, library)
    alap = alap_schedule(graph, library, asap.length)
    slack = {nid: alap.start[nid] - asap.start[nid] for nid in graph.nodes}
    lat = library.latencies(graph)

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
