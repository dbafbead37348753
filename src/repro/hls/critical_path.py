"""Critical-path analysis of scheduled CDFGs (Fig. 1).

The Fig. 12 pass replaces multiply/add pairs *on the critical path*; a
node is critical when its slack -- the difference between its ALAP and
ASAP start times -- is zero.
"""

from __future__ import annotations

from .ir import CDFG
from .operators import OperatorLibrary
from .schedule import Schedule, asap_schedule, asap_times, slack_times

__all__ = ["critical_path_length", "node_slack", "critical_nodes",
           "longest_path_nodes"]


def critical_path_length(graph: CDFG, library: OperatorLibrary) -> int:
    """Latency (cycles) of the longest dependence chain."""
    return asap_schedule(graph, library).length


def node_slack(graph: CDFG, library: OperatorLibrary,
               asap: Schedule | None = None) -> dict[int, int]:
    """Slack per node: 0 means the node is on a critical path.

    ``asap`` reuses an ASAP schedule already computed on the unchanged
    graph."""
    lat = library.latencies(graph)
    if asap is None:
        return slack_times(graph, lat, *asap_times(graph, lat))
    return slack_times(graph, lat, asap.start, asap.finish_times())


def critical_nodes(graph: CDFG, library: OperatorLibrary) -> set[int]:
    """All nodes with zero slack (the bold red path of Fig. 1)."""
    return {nid for nid, s in node_slack(graph, library).items() if s == 0}


def longest_path_nodes(graph: CDFG, library: OperatorLibrary) -> list[int]:
    """One concrete longest dependence chain, in execution order."""
    asap = asap_schedule(graph, library)
    # walk back from the sink with the latest finish time
    end = max(asap.start, key=lambda nid: asap.finish(nid))
    path = [end]
    cur = end
    while graph.nodes[cur].operands:
        ops = graph.nodes[cur].operands
        pred = max(ops, key=lambda op: asap.finish(op))
        if asap.finish(pred) != asap.start[cur]:
            break  # remaining predecessors are not on the chain
        path.append(pred)
        cur = pred
    return list(reversed(path))
