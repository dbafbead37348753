"""Schedule validity checks (``SCH001+``).

A schedule is a claim: "every operand of every operation has finished
by the cycle the operation starts, and no more units issue per cycle
than physically exist."  The ASAP/ALAP/list schedulers are supposed to
guarantee this by construction; this validator re-proves it for any
:class:`~repro.hls.schedule.Schedule`, so the experiment drivers can
gate on it after every reschedule.
"""

from __future__ import annotations

from ..hls.schedule import Schedule
from .diagnostics import Report

__all__ = ["check_schedule", "require_clean", "ScheduleCheckError"]


class ScheduleCheckError(RuntimeError):
    """A driver's schedule failed :func:`check_schedule`.

    The offending diagnostics ride along in :attr:`report`, as with
    :class:`~repro.hls.fma_pass.FmaPassVerificationError`.
    """

    def __init__(self, report: Report) -> None:
        lines = [d.format() for d in report.diagnostics]
        super().__init__("schedule failed validation:\n  "
                         + "\n  ".join(lines))
        self.report = report


def check_schedule(schedule: Schedule,
                   target: str = "schedule") -> Report:
    """Validate operand ready-times, node coverage, start-time domain
    and resource-pool limits of one schedule."""
    report = Report(target=target)
    graph, library = schedule.graph, schedule.library
    if graph is None or library is None:
        report.emit("SCH005",
                    "schedule carries no graph/library context")
        return report

    start = schedule.start
    lat = library.latencies(graph)
    # SCH002 -- the schedule must cover exactly the graph's node set
    for nid in graph.nodes:
        if nid not in start:
            report.emit("SCH002", "graph node has no start time",
                        f"node {nid} ({graph.nodes[nid].kind.value})")
    for nid in start:
        if nid not in graph.nodes:
            report.emit("SCH002",
                        "scheduled node is not in the graph",
                        f"node {nid}")

    for nid, t in start.items():
        node = graph.nodes.get(nid)
        if node is None:
            continue
        # SCH003 -- start times live in [0, inf)
        if t < 0:
            report.emit("SCH003", f"starts at cycle {t}",
                        f"node {nid} ({node.kind.value})")
        # SCH001 -- every operand finished before we start
        for op in node.operands:
            if op not in start or op not in graph.nodes:
                continue        # reported as SCH002/CS001 already
            ready = start[op] + lat[op]
            if t < ready:
                report.emit(
                    "SCH001",
                    f"starts at cycle {t} but operand {op} "
                    f"({graph.nodes[op].kind.value}) is ready at "
                    f"cycle {ready}",
                    f"node {nid} ({node.kind.value})")

    # SCH004 -- issue-rate limits of bounded unit pools
    for (res, t), n in sorted(schedule.issue_counts().items()):
        limit = library.limit_for(res)
        if limit is not None and n > limit:
            report.emit("SCH004",
                        f"{n} {res!r} operations issue in cycle {t}, "
                        f"pool admits {limit}", f"cycle {t}")
    return report


def require_clean(schedule: Schedule, target: str = "schedule") -> Schedule:
    """Gate on :func:`check_schedule`: return ``schedule`` unchanged,
    or raise :class:`ScheduleCheckError` on any diagnostic."""
    report = check_schedule(schedule, target)
    if not report.clean:
        raise ScheduleCheckError(report)
    return schedule
