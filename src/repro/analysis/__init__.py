"""Static datapath verification: the mechanical proof layer.

The paper's HLS claim (Fig. 12) rests on an invariant no runtime test
can prove by sampling: the compiler pass may deviate from IEEE 754
*only between fused operators* -- every carry-save value must be
produced by an FMA or I2C node and reconverted by C2I before reaching
an ordinary operator or an output.  This package checks that invariant
(and its hardware and scheduling counterparts) statically:

* :mod:`~repro.analysis.format_flow` -- CS format-flow dataflow pass
  over the HLS CDFG (rules ``CS001+``),
* :mod:`~repro.analysis.netlist_lint` -- unit-netlist consistency
  against the operand-format constants and the operator library
  (rules ``NL001+``),
* :mod:`~repro.analysis.schedule_check` -- schedule validity
  (rules ``SCH001+``),
* :mod:`~repro.analysis.violations` -- seeded corruptions proving the
  detectors fire with exactly the expected rule ids,
* ``python -m repro.analysis`` -- the CLI the CI gate runs.

See ``docs/ANALYSIS.md`` for the rule catalogue.
"""

from .diagnostics import RULES, Diagnostic, Report, Rule, Severity
from .format_flow import verify_format_flow
from .netlist_lint import lint_design, lint_library
from .reporters import render_json, render_rules, render_text
from .schedule_check import ScheduleCheckError, check_schedule, require_clean
from .targets import (analyze_all, graph_targets, netlist_targets,
                      target_names)
from .violations import (SeededViolation, ViolationResult,
                         all_violations, run_detection_suite)

__all__ = [
    "Severity", "Rule", "RULES", "Diagnostic", "Report",
    "verify_format_flow", "lint_design", "lint_library",
    "check_schedule", "require_clean", "ScheduleCheckError",
    "analyze_all", "graph_targets", "netlist_targets", "target_names",
    "SeededViolation", "ViolationResult", "all_violations",
    "run_detection_suite",
    "render_text", "render_json", "render_rules",
]
