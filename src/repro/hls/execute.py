"""Cycle-accurate execution of a scheduled datapath.

A :class:`~repro.hls.schedule.Schedule` claims that the datapath
finishes in ``length`` cycles under the operator latencies and resource
limits; this module *runs* it, cycle by cycle.  Before anything issues,
the schedule must pass :func:`repro.analysis.require_clean`, the one
statement of schedule legality (rules ``SCH001``-``SCH004``):

* every node has a start time, and none starts before cycle 0,
* its operands' producing operations have finished by then
  (dependence legality),
* no cycle issues more operations of a class than the unit pool allows
  (resource legality -- the "up to 39 time-multiplexed FMA units" of
  Sec. IV-D).

Each operation then issues at its start cycle and computes real values
through the same bit-accurate evaluators as
:func:`repro.hls.simulate.simulate`.  The result carries the outputs,
the cycle count, and a per-cycle issue trace (useful for visualizing
the Fig. 15 schedules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..fma.chain import FmaEngine
from .ir import CDFG, OpKind
from .operators import OperatorLibrary
from .schedule import Schedule
from .simulate import eval_node

__all__ = ["ExecutionResult", "execute_schedule", "format_issue_trace"]


@dataclass
class ExecutionResult:
    """Outcome of executing a schedule."""

    outputs: dict[str, float]
    cycles: int
    issues_per_cycle: dict[int, list[int]]
    peak_usage: dict[str, int]


def execute_schedule(graph: CDFG, schedule: Schedule,
                     library: OperatorLibrary,
                     inputs: Mapping[str, float],
                     engine: FmaEngine | None = None, *,
                     use_batch: bool = True) -> ExecutionResult:
    """Run a scheduled datapath cycle by cycle.

    ``graph`` and ``library`` must be the objects the schedule was
    built for (``ValueError`` otherwise).  Raises
    :class:`~repro.analysis.ScheduleCheckError`, with the diagnostics
    in ``.report``, if the schedule breaks any ``SCH`` rule.

    ``use_batch`` swaps recognized engines for their bit-identical fast
    twins from :mod:`repro.batch`, as in :func:`repro.hls.simulate`.
    """
    from ..analysis.schedule_check import require_clean

    if use_batch and engine is not None:
        from ..batch import accelerate_engine
        engine = accelerate_engine(engine)
    if schedule.graph is not graph:
        raise ValueError("schedule does not belong to this graph")
    if schedule.library is not library:
        raise ValueError("schedule was built with another library")
    require_clean(schedule)

    by_cycle: dict[int, list[int]] = {}
    for nid, t in schedule.start.items():
        by_cycle.setdefault(t, []).append(nid)
    values: dict[int, Any] = {}
    for cycle in sorted(by_cycle):
        for nid in sorted(by_cycle[cycle]):
            values[nid] = eval_node(graph, graph.nodes[nid], values,
                                    inputs, engine)

    outputs = {graph.nodes[nid].name: values[nid].to_float()
               for nid in graph.outputs()}
    return ExecutionResult(outputs, schedule.length, by_cycle,
                           schedule.resource_usage())


def format_issue_trace(result: ExecutionResult, graph: CDFG,
                       max_cycles: int = 40) -> str:
    """Human-readable per-cycle issue listing (for examples/debugging)."""
    lines = [f"{result.cycles} cycles, peak usage {result.peak_usage}"]
    for t in sorted(result.issues_per_cycle)[:max_cycles]:
        ops = [graph.nodes[nid].kind.value
               for nid in result.issues_per_cycle[t]
               if graph.nodes[nid].kind not in (OpKind.INPUT,
                                                OpKind.CONST,
                                                OpKind.OUTPUT)]
        if ops:
            lines.append(f"  cycle {t:4d}: " + " ".join(ops))
    return "\n".join(lines)
