"""Diagnostic model of the static datapath verifier.

Every analyzer in :mod:`repro.analysis` reports findings as
:class:`Diagnostic` records tagged with a *stable rule id* drawn from
the registry below.  Rule ids never change meaning once shipped: tests,
CI gates and the seeded-violation suite key on them, exactly like
compiler warning flags.

Rule families
-------------
* ``CSxxx`` -- CS format-flow rules over the HLS CDFG (the Fig. 12
  invariant: carry-save values may exist *only* between fused operators;
  every CS edge must be produced by an FMA/I2C node and reconverted by
  C2I before reaching an ordinary operator or an output).
* ``NLxxx`` -- hardware netlist consistency rules over
  :class:`repro.hw.netlist.UnitDesign` (stage widths, Zero-Detector
  geometry, alignment-window sizes against :mod:`repro.fma.formats`,
  pipeline depths against the HLS operator library).
* ``SCHxxx`` -- schedule validity rules over
  :class:`repro.hls.schedule.Schedule` (operand ready-times, resource
  limits).

See ``docs/ANALYSIS.md`` for the full catalogue with paper grounding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["Severity", "Rule", "RULES", "Diagnostic", "Report",
           "rules_by_family"]


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make a graph/netlist/schedule unusable (silently
    wrong results or undefined hardware); ``WARNING`` findings are
    legal but wasteful or suspicious (a redundant converter pair burns
    a full C2I normalization pipeline for nothing); ``INFO`` is
    advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def at_least(self, other: "Severity") -> bool:
        order = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}
        return order[self] >= order[other]


@dataclass(frozen=True)
class Rule:
    """One registered check with a stable id."""

    id: str
    title: str
    severity: Severity
    description: str

    @property
    def family(self) -> str:
        return self.id.rstrip("0123456789")


_RULE_DEFS = [
    # -- CS format-flow rules (Fig. 12 invariants) ----------------------
    Rule("CS001", "dangling operand id", Severity.ERROR,
         "A node references an operand id that is not present in the "
         "graph; the edge has no producer."),
    Rule("CS002", "cycle in datapath", Severity.ERROR,
         "The CDFG contains a dependence cycle; a straight-line "
         "datapath must be acyclic to be schedulable."),
    Rule("CS003", "IEEE value on a CS port (missing I2C)", Severity.ERROR,
         "A carry-save operand port (FMA A/C or C2I input) is fed by an "
         "IEEE-producing node; an I2C converter is missing on the edge."),
    Rule("CS004", "CS value on an IEEE port (missing C2I)", Severity.ERROR,
         "An IEEE operand port of an ordinary operator is fed by a "
         "CS-producing node (FMA or I2C); a C2I converter is missing "
         "on the edge."),
    Rule("CS005", "CS value reaches an output", Severity.ERROR,
         "An OUTPUT node is fed directly by a CS-producing node; "
         "results must be reconverted to IEEE 754 before leaving the "
         "datapath (Fig. 12: deviation from IEEE is allowed only "
         "*between* fused operators)."),
    Rule("CS006", "redundant I2C(C2I(x)) converter pair", Severity.WARNING,
         "An I2C converter whose input is a C2I converter: the value "
         "round-trips CS -> IEEE -> CS; the Fig. 12c cleanup should "
         "have forwarded the CS value directly."),
    Rule("CS007", "redundant C2I(I2C(x)) converter pair", Severity.WARNING,
         "A C2I converter whose input is an I2C converter: the value "
         "round-trips IEEE -> CS -> IEEE for no reason."),
    Rule("CS008", "unreachable node", Severity.WARNING,
         "A node has no path to any OUTPUT; dead hardware that the "
         "pass should have pruned."),
    Rule("CS009", "wrong operand count", Severity.ERROR,
         "A node has a different number of operands than its kind's "
         "port list requires."),
    Rule("CS010", "graph has no outputs", Severity.WARNING,
         "The CDFG declares no OUTPUT node; nothing it computes is "
         "observable."),
    Rule("CS011", "source node with operands", Severity.ERROR,
         "An INPUT or CONST node lists operands; sources must be "
         "nullary."),
    Rule("CS012", "negate_b outside an FMA", Severity.WARNING,
         "The negate_b flag (the pass's SUB absorption, a - b*c = "
         "a + (-b)*c) is set on a non-FMA node where it has no effect."),
    # -- NL netlist consistency rules ----------------------------------
    Rule("NL001", "adder-window stage width mismatch", Severity.ERROR,
         "The window 3:2 compressor stage is not as wide as the "
         "format's adder window (385b for PCS, 377c for FCS, "
         "Sec. III-F/III-H)."),
    Rule("NL002", "Zero-Detector geometry mismatch", Severity.ERROR,
         "The block Zero Detector does not match the format's "
         "window-block count and block size (7 x 55b for PCS, "
         "Fig. 10), or is missing/misplaced for the unit flavor."),
    Rule("NL003", "Carry-Reduce stage mismatch", Severity.ERROR,
         "The Carry Reduce adder is not carry-spacing bits wide (11b "
         "for PCS), or is present in a full-carry-save unit that has "
         "no Carry Reduce stage (Sec. III-H)."),
    Rule("NL004", "result-mux geometry mismatch", Severity.ERROR,
         "The final block multiplexer does not cover the format's "
         "result positions (6:1 for PCS, 11:1 for FCS) at the "
         "format's result width."),
    Rule("NL005", "alignment-window size mismatch", Severity.ERROR,
         "The addend pre-shifter does not span the format's alignment "
         "window (addend_max_pos + 1 positions)."),
    Rule("NL006", "window wire count mismatch", Severity.ERROR,
         "The unit's long-net window fabric width disagrees with the "
         "format (W + W/spacing wires for PCS, 2W for FCS; the "
         "Table II routing-energy term)."),
    Rule("NL007", "implausible component cost", Severity.ERROR,
         "A component carries a negative or non-finite delay, or a "
         "negative LUT/DSP/register count."),
    Rule("NL008", "pipeline depth disagrees with operator library",
         Severity.ERROR,
         "The latency the HLS operator library schedules with differs "
         "from the pipeline depth the hardware model synthesizes for "
         "the same unit at the same clock target."),
    # -- SCH schedule validity rules -----------------------------------
    Rule("SCH001", "operand not ready at start time", Severity.ERROR,
         "A node starts before one of its operands has finished "
         "(start[n] < start[op] + latency[op])."),
    Rule("SCH002", "schedule/graph node-set mismatch", Severity.ERROR,
         "The schedule is missing a start time for a graph node, or "
         "carries a start time for a node not in the graph."),
    Rule("SCH003", "negative start time", Severity.ERROR,
         "A node is scheduled before cycle 0."),
    Rule("SCH004", "resource limit exceeded", Severity.ERROR,
         "More operations of a limited class issue in one cycle than "
         "the library's unit pool admits (Fig. 15's time-multiplexed "
         "FMA pool)."),
    Rule("SCH005", "schedule lacks graph/library context", Severity.ERROR,
         "The Schedule object is detached from its CDFG or operator "
         "library and cannot be validated."),
]

#: Stable rule registry, id -> :class:`Rule`.
RULES: dict[str, Rule] = {r.id: r for r in _RULE_DEFS}


def rules_by_family() -> dict[str, list[Rule]]:
    """Registry grouped by family prefix (``CS`` / ``NL`` / ``SCH``)."""
    out: dict[str, list[Rule]] = {}
    for rule in RULES.values():
        out.setdefault(rule.family, []).append(rule)
    return out


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violation at a concrete location."""

    rule: str
    severity: Severity
    message: str
    target: str = ""
    location: str = ""

    def format(self) -> str:
        where = f" [{self.target}]" if self.target else ""
        at = f" at {self.location}" if self.location else ""
        return f"{self.rule} {self.severity.value}{where}{at}: " \
            f"{self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "target": self.target,
            "location": self.location,
        }


@dataclass
class Report:
    """A set of diagnostics produced by one (or several) analyzers."""

    target: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def emit(self, rule_id: str, message: str, location: str = "",
             target: str | None = None) -> Diagnostic:
        """Record one finding; the severity comes from the registry."""
        rule = RULES.get(rule_id)
        if rule is None:
            raise KeyError(f"unregistered rule id {rule_id!r}")
        diag = Diagnostic(rule_id, rule.severity, message,
                          self.target if target is None else target,
                          location)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "Report") -> None:
        self.diagnostics.extend(other.diagnostics)

    # -- queries ---------------------------------------------------------

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity findings were recorded."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True when *no* findings at all were recorded."""
        return not self.diagnostics

    def rule_ids(self) -> set[str]:
        return {d.rule for d in self.diagnostics}

    def worst_at_least(self, threshold: Severity) -> bool:
        return any(d.severity.at_least(threshold)
                   for d in self.diagnostics)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "ok": self.ok,
            "clean": self.clean,
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "total": len(self.diagnostics),
            },
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def __len__(self) -> int:
        return len(self.diagnostics)
