"""Differential checks: the fast path against the faithful oracle.

One function per (family, unit) pairing.  Every comparison is *bit
exact* -- IEEE results compare on class/sign/exponent/fraction, CS
results on every raw sum/carry word of the mantissa and rounding-data
blocks -- and every case runs under a try/except so a crashing datapath
(e.g. a mutation tripping an internal assertion) is reported as a
mismatch instead of killing the shard.

The oracle side is always the faithful scalar model
(:class:`repro.fma.csfma.CSFmaUnit`, :func:`repro.fp.ops.fp_fma`,
:class:`repro.fma.dotprod.FusedDotProductUnit`); the candidate side is
the :mod:`repro.batch` fast path.  ``golden`` cases additionally pin the
*oracle itself* to the stored expectation, so a regression in the
faithful model is caught even when both paths drift together.
"""

from __future__ import annotations

import traceback

from ..batch import fma_batch, fp_fma_fast, kernel_for
from ..batch.api import dot_batch
from ..fma.convert import cs_to_ieee, ieee_to_cs
from ..fma.csfma import CSFmaUnit, FcsFmaUnit, PcsFmaUnit
from ..fma.dotprod import FusedDotProductUnit
from ..fp.formats import BINARY64
from ..fp.ops import fp_fma
from ..fp.value import FPValue, fp_to_word, word_to_fp
from .workunits import Case

__all__ = [
    "unit_by_name",
    "describe_ieee",
    "describe_cs",
    "check_case",
    "CRASHED",
]

#: the ``got`` of a mismatch whose check raised instead of returning
CRASHED = "<exception>"

_UNIT_CACHE: dict[str, CSFmaUnit] = {}


def unit_by_name(name: str) -> CSFmaUnit | None:
    """Faithful scalar unit for a conformance unit tag (None = classic)."""
    if name == "classic":
        return None
    u = _UNIT_CACHE.get(name)
    if u is None:
        u = PcsFmaUnit() if name == "pcs" else FcsFmaUnit()
        _UNIT_CACHE[name] = u
    return u


def describe_ieee(v: FPValue) -> str:
    return "0x%016x" % fp_to_word(v)


def describe_cs(x) -> str:
    """Raw-field rendering of a CSFloat (full CS words, not collapsed)."""
    return (f"cls={x.cls.name} exp={x.exp} "
            f"msum=0x{x.mant.sum:x} mcarry=0x{x.mant.carry:x} "
            f"rsum=0x{x.round_data.sum:x} rcarry=0x{x.round_data.carry:x} "
            f"sign_hint={x.sign_hint}")


def _same_ieee(x: FPValue, y: FPValue) -> bool:
    if x.cls is not y.cls or x.sign != y.sign:
        return False
    if x.is_normal:
        return (x.biased_exponent == y.biased_exponent
                and x.fraction == y.fraction)
    return True


def _same_cs(x, y) -> bool:
    return (x.cls == y.cls and x.exp == y.exp
            and x.sign_hint == y.sign_hint
            and x.mant.sum == y.mant.sum and x.mant.carry == y.mant.carry
            and x.round_data.sum == y.round_data.sum
            and x.round_data.carry == y.round_data.carry)


def _mismatch(case: Case, unit: str, got: str, want: str,
              detail: str = "") -> dict:
    return {
        "family": case.family,
        "stratum": case.stratum,
        "case_id": case.case_id,
        "unit": unit,
        "operands": ["0x%016x" % w for w in case.operands],
        "got": got,
        "want": want,
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# per-family checks (each returns a list of mismatch dicts)


def _check_triple(case: Case, unit_name: str, backend: str) -> list[dict]:
    a, b, c = (word_to_fp(w) for w in case.operands[:3])
    out: list[dict] = []
    if unit_name == "classic":
        ref = fp_fma(a, b, c, fmt=BINARY64)
        fast = fp_fma_fast(a, b, c, fmt=BINARY64)
        if not _same_ieee(fast, ref):
            out.append(_mismatch(case, unit_name, describe_ieee(fast),
                                 describe_ieee(ref),
                                 "fp_fma_fast vs fp_fma"))
        expect = case.expected.get("classic-fma")
        if expect is not None and fp_to_word(ref) != int(expect, 16):
            out.append(_mismatch(case, unit_name, describe_ieee(ref),
                                 expect, "oracle vs golden vector"))
        return out
    unit = unit_by_name(unit_name)
    ref = unit.fma(ieee_to_cs(a, unit.params), b,
                   ieee_to_cs(c, unit.params))
    (fast,) = fma_batch([a], [b], [c], unit=unit, backend=backend)
    if not _same_cs(fast, ref):
        out.append(_mismatch(case, unit_name, describe_cs(fast),
                             describe_cs(ref), "kernel vs faithful unit"))
    expect = case.expected.get(unit.name)
    if expect is not None and fp_to_word(cs_to_ieee(ref)) != int(expect, 16):
        out.append(_mismatch(case, unit_name,
                             describe_ieee(cs_to_ieee(ref)), expect,
                             "oracle vs golden vector"))
    return out


def _check_chain(case: Case, unit_name: str, backend: str) -> list[dict]:
    """Tuple-kernel FMA chain: CS results feed the next A/C operands."""
    seeds = [word_to_fp(w) for w in case.operands[:3]]
    bs = [word_to_fp(w) for w in case.operands[3:]]
    if unit_name == "classic":
        acc, acc2 = seeds[0], seeds[1]
        facc, facc2 = seeds[0], seeds[1]
        for i, b in enumerate(bs):
            acc = fp_fma(acc, b, acc2, fmt=BINARY64)
            facc = fp_fma_fast(facc, b, facc2, fmt=BINARY64)
            acc, acc2 = acc2, acc
            facc, facc2 = facc2, facc
            if not _same_ieee(facc2, acc2):
                return [_mismatch(case, unit_name, describe_ieee(facc2),
                                  describe_ieee(acc2), f"chain step {i}")]
        return []
    unit = unit_by_name(unit_name)
    kernel = kernel_for(unit)
    ref = ieee_to_cs(seeds[0], unit.params)
    ref2 = ieee_to_cs(seeds[1], unit.params)
    fast = kernel.lift_cs(ref)
    fast2 = kernel.lift_cs(ref2)
    for i, b in enumerate(bs):
        ref = unit.fma(ref, b, ref2)
        fast = kernel.fma(fast, kernel.lift_b(b), fast2)
        ref, ref2 = ref2, ref
        fast, fast2 = fast2, fast
        if not _same_cs(kernel.lower(fast2), ref2):
            return [_mismatch(case, unit_name,
                              describe_cs(kernel.lower(fast2)),
                              describe_cs(ref2), f"chain step {i}")]
    return []


def _check_dot(case: Case, unit_name: str, backend: str) -> list[dict]:
    a = [word_to_fp(w) for w in case.operands[0::2]]
    b = [word_to_fp(w) for w in case.operands[1::2]]
    if unit_name == "classic":
        return []  # the fused dot product only exists on the CS units
    unit = unit_by_name(unit_name)
    ref = FusedDotProductUnit(unit).dot(a, b)
    fast = dot_batch(a, b, unit=unit, backend=backend)
    if not _same_ieee(fast, ref):
        return [_mismatch(case, unit_name, describe_ieee(fast),
                          describe_ieee(ref), f"dot len {len(a)}")]
    return []


_CHECKS = {
    "stratified": _check_triple,
    "golden": _check_triple,
    "chain": _check_chain,
    "dot": _check_dot,
}


def check_case(case: Case, units: tuple[str, ...],
               backend: str = "auto") -> list[dict]:
    """Run one case through every requested unit, the fast side on the
    batch ``backend``; crashes become mismatches of kind ``exception``."""
    out: list[dict] = []
    fn = _CHECKS[case.family]
    for unit_name in units:
        try:
            out.extend(fn(case, unit_name, backend))
        except Exception:
            out.append(_mismatch(
                case, unit_name, CRASHED, "<result>",
                traceback.format_exc(limit=4)))
    return out
