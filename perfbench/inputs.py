"""Seeded input generation: the same ``(workload, seed)`` always yields
the same request stream, kernel lanes and figure seeds.

Operands are binary64 bit words.  A *special* operand is drawn from
NaN, +-Inf, +-0 and a subnormal encoding (which the loaders flush to a
signed zero); only NaN and Inf make the vector engine defer a lane.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass

__all__ = ["WORKLOADS", "Workload", "normal_word", "special_word",
           "serve_requests", "encode_lines", "fma_lanes", "dot_planes"]

#: operand exponents are drawn from [-EXP_SPREAD, EXP_SPREAD]
EXP_SPREAD = 24
#: every VERIFY_EVERY-th serve request carries ``verify: residue``
VERIFY_EVERY = 8
#: share of dot@4096 elements that are zero or subnormal (never deferred)
ZERO_FRAC = 0.03

_SPECIALS = (0x7FF8000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
             0x0000000000000000, 0x8000000000000000, 0x000FEDCBA9876543)
_NONFINITE = _SPECIALS[:3]


@dataclass(frozen=True)
class Workload:
    """One operand regime (BENCHMARK.json says why each exists)."""

    name: str
    #: share of fma lanes and of serve fma/dot requests carrying one
    #: special operand
    special_frac: float
    #: dot@4096 lanes (per call) holding one NaN/Inf element
    nonfinite_lanes: int


WORKLOADS = {"mixed": Workload("mixed", 0.03, 0),
             "specials": Workload("specials", 0.25, 4)}


def normal_word(rng: random.Random) -> int:
    x = (rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.0)
         * 2.0 ** rng.randint(-EXP_SPREAD, EXP_SPREAD))
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def special_word(rng: random.Random, nonfinite: bool = False) -> int:
    return rng.choice(_NONFINITE if nonfinite else _SPECIALS)


# ---------------------------------------------------------------------------
# serve traffic

#: (op, fmt, weight): fma pcs/fcs/classic, short dot pcs/fcs, acc pcs
SERVE_MIX = (("fma", "pcs", 3), ("fma", "fcs", 3), ("fma", "classic", 2),
             ("dot", "pcs", 1), ("dot", "fcs", 1), ("acc", "pcs", 1))
DOT_LEN = (4, 16)


def serve_requests(wl: Workload, seed: int, phase: str, first_id: int,
                   n: int) -> list:
    """``n`` request dicts (wire form, hex words) with ids from
    ``first_id``; ``phase`` separates the warm-up, open-loop and
    closed-loop streams of one seed."""
    rng = random.Random(f"serve:{wl.name}:{seed}:{phase}")
    choices = [(op, fmt) for op, fmt, w in SERVE_MIX for _ in range(w)]
    out = []
    for i in range(n):
        op, fmt = rng.choice(choices)
        special = op != "acc" and rng.random() < wl.special_frac
        if op == "fma":
            words = [normal_word(rng) for _ in range(3)]
            if special:
                words[rng.randrange(3)] = special_word(rng)
            obj = {"id": first_id + i, "op": op, "fmt": fmt,
                   "a": "0x%016x" % words[0], "b": "0x%016x" % words[1],
                   "c": "0x%016x" % words[2]}
        else:
            k = rng.randint(*DOT_LEN)
            a = [normal_word(rng) for _ in range(k)]
            b = [normal_word(rng) for _ in range(k)]
            if special:
                a[rng.randrange(k)] = special_word(rng)
            obj = {"id": first_id + i, "op": op, "fmt": fmt,
                   "a": ["0x%016x" % w for w in a],
                   "b": ["0x%016x" % w for w in b]}
        if (first_id + i) % VERIFY_EVERY == 0:
            obj["verify"] = "residue"
        out.append(obj)
    return out


def encode_lines(objs: list) -> list:
    return [(json.dumps(o) + "\n").encode() for o in objs]


# ---------------------------------------------------------------------------
# kernel lanes


def fma_lanes(wl: Workload, seed: int, fmt: str, n: int) -> tuple:
    """Three word lists ``(a, b, c)`` of ``n`` independent fma lanes."""
    rng = random.Random(f"fma:{wl.name}:{seed}:{fmt}")
    cols = ([], [], [])
    for _ in range(n):
        words = [normal_word(rng) for _ in range(3)]
        if rng.random() < wl.special_frac:
            words[rng.randrange(3)] = special_word(rng)
        for col, w in zip(cols, words):
            col.append(w)
    return cols


def dot_planes(wl: Workload, seed: int, fmt: str, steps: int,
               lanes: int, finite: int) -> tuple:
    """Step-major ``(steps, lanes)`` uint64 word planes ``(a, b)``.

    Zero/subnormal elements appear at ``ZERO_FRAC``; ``nonfinite_lanes``
    lanes, never among the first ``finite`` ones (so the tuple-vs-vector
    check always compares lanes the vector engine computed itself),
    hold one NaN/Inf element."""
    import numpy as np

    rng = random.Random(f"dot:{wl.name}:{seed}:{fmt}")
    gen = np.random.default_rng(rng.getrandbits(64))

    def plane():
        x = (gen.choice((-1.0, 1.0), size=(steps, lanes))
             * gen.uniform(1.0, 2.0, size=(steps, lanes))
             * np.exp2(gen.integers(-EXP_SPREAD, EXP_SPREAD + 1,
                                    size=(steps, lanes))))
        return x.view(np.uint64).copy()

    a, b = plane(), plane()
    zeros = _SPECIALS[3:]
    for _ in range(int(ZERO_FRAC * steps * lanes)):
        t, i = rng.randrange(steps), rng.randrange(lanes)
        (a if rng.random() < 0.5 else b)[t, i] = rng.choice(zeros)
    for i in rng.sample(range(finite, lanes), wl.nonfinite_lanes):
        a[rng.randrange(steps), i] = special_word(rng, nonfinite=True)
    return a, b
