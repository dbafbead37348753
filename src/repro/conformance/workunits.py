"""Deterministic conformance work units.

A *shard* is the unit of distribution of the conformance sweep: a fully
self-describing, picklable :class:`ShardSpec` from which every operand
of every case can be regenerated bit-for-bit.  Reproducibility is the
design center -- the whole shard is a pure function of
``(seed, shard_id, config)``:

* random families draw from ``random.Random(f"{seed}:{shard_id}")``,
  nothing else (no time, no global RNG state);
* the golden-vector family partitions ``tests/vectors`` round-robin by
  ``case_index % num_shards == shard_id``;
* every generated case is folded into a SHA-256 ``case digest`` so two
  runs (or two hosts) can prove they executed identical work.

Operand *stratification* follows the structure of the FMA window rather
than uniform exponents: each stratum pins the relative anchoring of the
addend and the product (balanced, addend-dominant, product-dominant,
massive cancellation, flush/overflow edges, subnormal bit patterns that
flush on load, and IEEE specials including payload NaNs), which is where
the carry-save datapaths historically disagree with the oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "BACKENDS",
    "FAMILIES",
    "UNITS",
    "STRATA",
    "ShardSpec",
    "Case",
    "draw_triple",
    "generate_cases",
    "shard_rng",
    "golden_vector_path",
    "load_golden_cases",
]

#: differential case families a shard can run
FAMILIES = ("stratified", "golden", "chain", "dot")

#: FMA flavors under test
UNITS = ("classic", "pcs", "fcs")

#: batch backends a sweep can check (not the faithful oracle itself)
BACKENDS = ("auto", "vector", "tuple")

#: operand-class strata for the random family (cycled deterministically)
STRATA = (
    "balanced",            # all exponents comparable
    "addend-dominant",     # |A| >> |B*C|: product sinks toward/below window
    "product-dominant",    # |B*C| >> |A|: addend aligned low
    "cancellation",        # A ~ -B*C: leading-zero / ZD stress
    "flush-edge",          # results straddling the flush-to-zero boundary
    "overflow-edge",       # results straddling binary64 overflow
    "subnormal-bits",      # raw subnormal encodings (flush on load)
    "specials",            # zeros / infs / payload NaNs mixed in
)

_EXP_BITS = 0x7FF
_FRAC_MASK = (1 << 52) - 1


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a conformance sweep (picklable, fully deterministic).

    ``cases`` is the target count for each *random* family; the golden
    family's size is fixed by the vector file and the shard count.
    """

    shard_id: int
    num_shards: int
    seed: int
    cases: int = 64
    families: tuple[str, ...] = FAMILIES
    units: tuple[str, ...] = UNITS
    mutation: str | None = None
    shrink: bool = True
    backend: str = "auto"

    def __post_init__(self) -> None:
        if not (0 <= self.shard_id < self.num_shards):
            raise ValueError("shard_id out of range")
        bad = set(self.families) - set(FAMILIES)
        if bad:
            raise ValueError(f"unknown families: {sorted(bad)}")
        bad = set(self.units) - set(UNITS)
        if bad:
            raise ValueError(f"unknown units: {sorted(bad)}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["families"] = list(self.families)
        d["units"] = list(self.units)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ShardSpec":
        d = dict(d)
        d["families"] = tuple(d["families"])
        d["units"] = tuple(d["units"])
        return cls(**d)


@dataclass(frozen=True)
class Case:
    """One differential case: a family tag plus binary64 bit patterns.

    ``operands`` is a tuple of 64-bit integers; its interpretation is
    family-specific (a flat ``(a, b, c)`` triple for ``stratified`` and
    ``golden``, an interleaved stream for ``chain``/``dot``).
    """

    family: str
    stratum: str
    operands: tuple[int, ...]
    case_id: str = ""
    expected: dict = field(default_factory=dict)

    def digest_token(self) -> bytes:
        return (self.family + ":" + self.stratum + ":" + self.case_id
                + ":" + ",".join("%016x" % w for w in self.operands)
                ).encode()


def shard_rng(seed: int, shard_id: int) -> random.Random:
    """The one true RNG of a shard: seeded by the pair, nothing else."""
    return random.Random(f"{seed}:{shard_id}")


# ---------------------------------------------------------------------------
# operand drawing


def _bits(sign: int, biased_exp: int, frac: int) -> int:
    return ((sign << 63) | ((biased_exp & _EXP_BITS) << 52)
            | (frac & _FRAC_MASK))


def _draw_normal(rng: random.Random, lo_exp: int, hi_exp: int) -> int:
    """A normal binary64 bit pattern with unbiased exponent in range."""
    lo = max(lo_exp + 1023, 1)
    hi = min(hi_exp + 1023, 2046)
    return _bits(rng.getrandbits(1), rng.randint(lo, hi),
                 rng.getrandbits(52))


def _bits_to_float(word: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", word))[0]


def _float_to_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _draw_specials(rng: random.Random) -> int:
    kind = rng.randrange(6)
    if kind == 0:
        return rng.getrandbits(1) << 63                         # +-0
    if kind == 1:
        return _bits(rng.getrandbits(1), _EXP_BITS, 0)          # +-inf
    if kind == 2:                                               # payload NaN
        return _bits(rng.getrandbits(1), _EXP_BITS,
                     rng.randint(1, _FRAC_MASK))
    if kind == 3:                                               # subnormal
        return _bits(rng.getrandbits(1), 0, rng.randint(1, _FRAC_MASK))
    return _draw_normal(rng, -64, 64)


def _draw_triple(rng: random.Random, stratum: str) -> tuple[int, int, int]:
    """One ``(a, b, c)`` operand triple for ``R = A + B*C``."""
    if stratum == "balanced":
        return (_draw_normal(rng, -200, 200), _draw_normal(rng, -200, 200),
                _draw_normal(rng, -200, 200))
    if stratum == "addend-dominant":
        # the product sits 100..400 binades below the addend: sweeps the
        # addend pre-shift across (and past) the window's right edge
        a = _draw_normal(rng, -200, 400)
        gap = rng.randint(100, 400)
        ae = ((a >> 52) & _EXP_BITS) - 1023
        be = rng.randint(-200, 200)
        ce = ae - gap - be
        return (a, _draw_normal(rng, be, be), _draw_normal(rng, ce, ce))
    if stratum == "product-dominant":
        b = _draw_normal(rng, -200, 200)
        c = _draw_normal(rng, -200, 200)
        pe = ((b >> 52) & _EXP_BITS) + ((c >> 52) & _EXP_BITS) - 2046
        gap = rng.randint(60, 400)
        ae = max(min(pe - gap, 1000), -1000)
        return (_draw_normal(rng, ae, ae), b, c)
    if stratum == "cancellation":
        a = _draw_normal(rng, -40, 40)
        b = _draw_normal(rng, -40, 40)
        c = _float_to_bits(-_bits_to_float(a) / _bits_to_float(b))
        # optionally perturb the last few ULPs of C so the cancellation
        # is near-total rather than exact
        c ^= rng.getrandbits(2)
        return (a, b, c)
    if stratum == "flush-edge":
        # products / sums in the last ~60 binades above binary64 flush
        e = rng.randint(-1022, -962)
        half = e // 2
        return (_draw_normal(rng, e, e + 4),
                _draw_normal(rng, half - 2, half + 2),
                _draw_normal(rng, e - half - 2, e - half + 2))
    if stratum == "overflow-edge":
        e = rng.randint(960, 1023)
        half = e // 2
        return (_draw_normal(rng, e - 4, e),
                _draw_normal(rng, half - 2, half + 2),
                _draw_normal(rng, e - half - 2, e - half + 2))
    if stratum == "subnormal-bits":
        words = [_bits(rng.getrandbits(1), 0, rng.randint(1, _FRAC_MASK))
                 for _ in range(3)]
        # keep at least one normal operand so the case is not trivially 0
        words[rng.randrange(3)] = _draw_normal(rng, -900, 900)
        rng.shuffle(words)
        return tuple(words)
    if stratum == "specials":
        return (_draw_specials(rng), _draw_specials(rng),
                _draw_specials(rng))
    raise ValueError(f"unknown stratum: {stratum}")


#: public alias -- the fault-injection campaign reuses the stratified
#: operand generator so its workload matches the conformance sweep's
draw_triple = _draw_triple


# ---------------------------------------------------------------------------
# golden vectors


def golden_vector_path() -> Path:
    """``tests/vectors/fma_hard_cases.json`` resolved from the repo root
    (the conformance runner executes from a source checkout)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "tests" / "vectors" / "fma_hard_cases.json"
        if candidate.is_file():
            return candidate
    raise FileNotFoundError("tests/vectors/fma_hard_cases.json not found")


def load_golden_cases(path: Path | None = None) -> list[dict]:
    p = path if path is not None else golden_vector_path()
    return json.loads(p.read_text())["cases"]


# ---------------------------------------------------------------------------
# case generation


def generate_cases(spec: ShardSpec) -> list[Case]:
    """All cases of one shard, in execution order (pure in ``spec``)."""
    rng = shard_rng(spec.seed, spec.shard_id)
    out: list[Case] = []
    for family in spec.families:
        if family == "stratified":
            for i in range(spec.cases):
                stratum = STRATA[i % len(STRATA)]
                out.append(Case("stratified", stratum,
                                _draw_triple(rng, stratum),
                                case_id=f"s{spec.shard_id}-r{i}"))
        elif family == "golden":
            for i, case in enumerate(load_golden_cases()):
                if i % spec.num_shards != spec.shard_id:
                    continue
                out.append(Case(
                    "golden", case["category"],
                    tuple(int(case[k], 16) for k in "abc"),
                    case_id=case["id"], expected=case["expected"]))
        elif family == "chain":
            n_chains = max(1, spec.cases // 8)
            for i in range(n_chains):
                length = rng.randint(3, 12)
                words = [_draw_normal(rng, -10, 10) for _ in range(3)]
                words += [_draw_normal(rng, -60, 60) for _ in range(length)]
                out.append(Case("chain", f"len-{length}", tuple(words),
                                case_id=f"s{spec.shard_id}-c{i}"))
        elif family == "dot":
            n_dots = max(1, spec.cases // 8)
            for i in range(n_dots):
                length = rng.randint(1, 24)
                words = []
                for _ in range(length):
                    words.append(_draw_normal(rng, -80, 80))
                    words.append(_draw_normal(rng, -80, 80))
                out.append(Case("dot", f"len-{length}", tuple(words),
                                case_id=f"s{spec.shard_id}-d{i}"))
    return out


def case_digest(cases: list[Case]) -> str:
    """SHA-256 over the ordered case stream -- the shard's identity
    proof, compared across runs/hosts by the reproducibility tests."""
    h = hashlib.sha256()
    for c in cases:
        h.update(c.digest_token())
        h.update(b"\n")
    return h.hexdigest()
