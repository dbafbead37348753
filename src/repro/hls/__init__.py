"""Nymble-like HLS core: CDFG IR, C-like frontend, scheduling, and the
automatic FMA-insertion pass of Sec. III-I / Fig. 12."""

from .critical_path import (critical_nodes, critical_path_length,
                            longest_path_nodes, node_slack)
from .execute import ExecutionResult, execute_schedule, format_issue_trace
from .fma_pass import (FmaPassReport, FmaPassVerificationError,
                       run_fma_insertion)
from .frontend import ParseError, parse_program
from .ir import CDFG, Node, OpKind, PortTypeError, ValueType
from .operators import (FMA_UNIT_LIMIT, OperatorLibrary, OperatorSpec,
                        default_library)
from .schedule import Schedule, alap_schedule, asap_schedule, list_schedule
from .simulate import eval_node, simulate

__all__ = [
    "CDFG", "Node", "OpKind", "ValueType", "PortTypeError",
    "parse_program", "ParseError",
    "OperatorLibrary", "OperatorSpec", "default_library", "FMA_UNIT_LIMIT",
    "Schedule", "asap_schedule", "alap_schedule", "list_schedule",
    "critical_path_length", "node_slack", "critical_nodes",
    "longest_path_nodes",
    "FmaPassReport", "FmaPassVerificationError", "run_fma_insertion",
    "simulate", "eval_node",
    "ExecutionResult", "execute_schedule", "format_issue_trace",
]
