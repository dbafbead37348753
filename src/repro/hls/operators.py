"""Operator library: latency/area of every schedulable operation.

The latencies come straight out of the hardware model of
:mod:`repro.hw`, synthesized for the paper's 200+ MHz constraint on
Virtex-6 (Sec. IV-D: "floating-point operators have been chosen for a
target frequency of 200+ MHz"):

* IEEE multiply: the CoreGen low-latency 5-cycle configuration,
* IEEE add/sub:  the CoreGen low-latency 4-cycle configuration,
* IEEE divide:   a radix-2 SRT pipeline (deep -- divisions live in the
  solver's factorization phase, not in `ldlsolve()`),
* PCS-FMA: 5 cycles,  FCS-FMA: 3 cycles (Table I),
* IEEE->CS converter: cheap (1 cycle),  CS->IEEE: expensive (its full
  normalization pipeline),
* NEG / CONST / IO: free (sign flips and wiring).

Resource constraints model the time-multiplexing of Fig. 15 ("up to 39
time-multiplexed P/FCS-FMA units", :data:`FMA_UNIT_LIMIT`).
:data:`POOL_DESIGNS` is the one map from operator pool to hardware
unit: :func:`default_library` derives its latencies through it, and the
NL008 lint re-derives them through it to catch hand-edited specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..fma.formats import FCS_PARAMS, PCS_PARAMS
from ..hw.netlist import cs_to_ieee_converter, ieee_to_cs_converter
from ..hw.synthesis import SynthesisReport, synthesize, synthesize_by_name
from ..hw.technology import VIRTEX6, FpgaDevice
from .ir import CDFG, Node, OpKind

__all__ = ["OperatorSpec", "OperatorLibrary", "default_library",
           "synthesize_pool", "POOL_DESIGNS", "FMA_UNIT_LIMIT"]

#: Sec. IV-D: "up to 39 time-multiplexed P/FCS-FMA units"
FMA_UNIT_LIMIT = 39


#: the operator pool of every kind but FMA, whose pool names the unit
#: flavor (None = wiring: sign flips, constants and I/O are free)
_POOLS: dict[OpKind, str | None] = {
    OpKind.INPUT: None, OpKind.CONST: None, OpKind.OUTPUT: None,
    OpKind.NEG: None, OpKind.ADD: "add", OpKind.SUB: "add",
    OpKind.MUL: "mul", OpKind.DIV: "div", OpKind.I2C: "i2c",
    OpKind.C2I: "c2i",
}

#: operator pool -> the hardware unit behind it: a named design of
#: :mod:`repro.hw.netlist` (synthesized through the memoized
#: ``synthesize_by_name``) or a converter factory, which is built for
#: the library's carry-save format
POOL_DESIGNS = {
    "mul": "coregen-mul",
    "div": "divider",
    "add": "coregen-add",
    "fma-pcs": "pcs-fma",
    "fma-fcs": "fcs-fma",
    "i2c": ieee_to_cs_converter,
    "c2i": cs_to_ieee_converter,
}


@dataclass(frozen=True)
class OperatorSpec:
    """Latency and area of one hardware operator."""

    kind: str
    latency: int
    luts: int = 0
    dsps: int = 0


@dataclass
class OperatorLibrary:
    """Maps CDFG node kinds to operator specs + resource limits.

    ``fma_flavor`` selects which carry-save unit the FMA nodes map to
    (``"pcs"`` or ``"fcs"``); ``fma_limit`` caps how many physical FMA
    units the scheduler may use concurrently (None = unconstrained).
    """

    specs: dict[str, OperatorSpec]
    fma_flavor: str = "pcs"
    fma_limit: int | None = None
    #: per-op-class concurrency limits for the list scheduler
    limits: dict[str, int] = field(default_factory=dict)

    def latency(self, node: Node) -> int:
        return self.spec_for(node).latency

    def latencies(self, graph: CDFG) -> dict[int, int]:
        """Latency of every node of ``graph``, looked up once per kind.

        Callers keep a table no longer than one call of their own:
        ``specs`` and ``fma_limit`` may be edited between calls.  The
        FMA pass builds one per run and adds the nodes each round
        creates; each scheduler call and the schedule check build one.
        """
        by_kind: dict[OpKind, int] = {}
        table: dict[int, int] = {}
        for nid, node in graph.nodes.items():
            lat = by_kind.get(node.kind)
            if lat is None:
                lat = by_kind[node.kind] = self.latency(node)
            table[nid] = lat
        return table

    def spec_for(self, node: Node) -> OperatorSpec:
        key = self.resource_class(node)
        if key is None:
            return OperatorSpec("free", 0)
        return self.specs[key]

    def resource_class(self, node: Node) -> str | None:
        """Which physical operator pool a node occupies (None = wiring)."""
        k = node.kind
        if k is OpKind.FMA:
            return f"fma-{self.fma_flavor}"
        try:
            return _POOLS[k]
        except KeyError:
            raise KeyError(f"no operator for {k}") from None

    def limit_for(self, resource: str) -> int | None:
        if resource.startswith("fma"):
            return self.fma_limit
        return self.limits.get(resource)


def synthesize_pool(pool: str, fma_flavor: str = "pcs",
                    device: FpgaDevice = VIRTEX6,
                    target_mhz: float = 200.0) -> SynthesisReport:
    """Synthesize the unit :data:`POOL_DESIGNS` maps ``pool`` to; the
    converters take the ``fma_flavor`` operand format."""
    design = POOL_DESIGNS[pool]
    if isinstance(design, str):
        return synthesize_by_name(design, device, target_mhz)
    params = PCS_PARAMS if fma_flavor == "pcs" else FCS_PARAMS
    return synthesize(design(device, params), device, target_mhz)


def default_library(device: FpgaDevice = VIRTEX6,
                    fma_flavor: str = "pcs",
                    fma_limit: int | None = None,
                    target_mhz: float = 200.0) -> OperatorLibrary:
    """Build the operator library from the hardware model."""
    if fma_flavor not in ("pcs", "fcs"):
        raise ValueError("fma_flavor must be 'pcs' or 'fcs'")
    specs = {}
    for pool in POOL_DESIGNS:
        if pool.startswith("fma") and pool != f"fma-{fma_flavor}":
            continue
        r = synthesize_pool(pool, fma_flavor, device, target_mhz)
        specs[pool] = OperatorSpec(pool, r.cycles, r.luts, r.dsps)
    return OperatorLibrary(specs, fma_flavor=fma_flavor,
                           fma_limit=fma_limit)
