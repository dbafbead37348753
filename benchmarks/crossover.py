"""Measure the ``auto`` crossovers of :func:`repro.batch.select_engine`.

For each call shape the lane engine (``backend="vector"``) and the tuple
kernel (``backend="tuple"``) run the same seeded all-normal binary64
operands, interleaved call by call; each cell is the median over
``--reps`` pairs of ``t_tuple / t_vector`` (> 1: the lane engine wins).
Every cell first checks that both engines return equal results (the
``CSFloat`` lists, the dot result, the serve replies) and raises
``AssertionError`` if they do not.

* ``dot``: one ``dot_batch`` of N elements (one ``dot_many_words``
  lane vs the tuple chain);
* ``dot-lanes``: one coalesced serve dot payload of N dots of 4-16
  elements (whole-payload ``dot_many_words`` vs per-lane tuple);
* ``fma``: one ``fma_batch`` of N lanes;
* ``chain@16`` and ``chain@1024``: the accumulator recurrence of one
  ``VectorCSKernel.dot_many_words`` call over N lanes of 16 or 1024
  steps, on one set of product planes: across lanes (``_dot_chain``)
  vs lane by lane through ``FastCSKernel.fma`` (``_lane_chains``).  It
  sets ``VectorCSKernel.CHAIN_LANES``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/crossover.py [--reps 7]
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

import numpy as np

from repro.batch import dot_batch, fma_batch, vector_kernel_for
from repro.fma import FcsFmaUnit, PcsFmaUnit
from repro.fp import word_to_fp
from repro.serve.executor import execute_payload

SIZES = {"dot": (768, 1024, 1280, 1536, 1792, 2048),
         "dot-lanes": (56, 64, 72, 80, 96, 128),
         "fma": (384, 448, 512, 576, 640, 704, 768, 1024, 4096),
         "chain@16": (16, 32, 48, 64, 80, 96, 128),
         "chain@1024": (16, 32, 48, 64, 80, 96, 128)}


def _word(rng: random.Random) -> int:
    return ((rng.getrandbits(1) << 63) | (rng.randint(1023 - 40, 1023 + 40)
                                          << 52) | rng.getrandbits(52))


def _calls(op: str, fmt: str, unit, n: int, rng: random.Random):
    """``{backend: zero-argument call}`` for one cell."""
    if op.startswith("chain@"):
        # "vector": across lanes; "tuple": lane by lane through the tuple
        # kernel's fma, both on the same planes and products
        vk = vector_kernel_for(unit)
        a, b = (np.array([[_word(rng) for _ in range(n)]
                          for _ in range(int(op[6:]))], np.uint64)
                for _ in "ab")
        d = vk._dot_planes(a, b, None)
        return {"vector": lambda: vk._dot_chain(d)[0],
                "tuple": lambda: vk._lane_chains(d, range(n))}
    if op == "dot":
        a, b = ([word_to_fp(_word(rng)) for _ in range(n)] for _ in "ab")
        return {be: (lambda be=be: dot_batch(a, b, unit, backend=be))
                for be in ("vector", "tuple")}
    if op == "fma":
        a, b, c = ([word_to_fp(_word(rng)) for _ in range(n)]
                   for _ in "abc")
        return {be: (lambda be=be: fma_batch(a, b, c, unit, backend=be))
                for be in ("vector", "tuple")}
    items = []
    for _ in range(n):
        k = rng.randint(4, 16)
        items.append(([_word(rng) for _ in range(k)],
                      [_word(rng) for _ in range(k)], None))
    return {be: (lambda be=be: execute_payload(
        {"op": "dot", "fmt": fmt, "items": items, "backend": be}))
        for be in ("vector", "tuple")}


def measure(reps: int, seed: int = 1) -> dict:
    rng = random.Random(seed)
    units = {"pcs": PcsFmaUnit(), "fcs": FcsFmaUnit()}
    table = {}
    for op, sizes in SIZES.items():
        for n in sizes:
            for fmt, unit in units.items():
                calls = _calls(op, fmt, unit, n, rng)
                # the warm call (trees, buffers) also checks the cell:
                # both engines must return the same results
                out = {be: call() for be, call in calls.items()}
                if out["vector"] != out["tuple"]:
                    raise AssertionError(
                        f"{op} N={n} {fmt}: vector and tuple disagree")
                ratios = []
                for _ in range(reps):
                    t = {}
                    for be, call in calls.items():
                        t0 = time.perf_counter()
                        call()
                        t[be] = time.perf_counter() - t0
                    ratios.append(t["tuple"] / t["vector"])
                table[op, n, fmt] = statistics.median(ratios)
    return table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    table = measure(args.reps, args.seed)
    print("| op | N | pcs | fcs |")
    print("| --- | --- | --- | --- |")
    for op, sizes in SIZES.items():
        for n in sizes:
            print(f"| `{op}` | {n} | {table[op, n, 'pcs']:.2f}x "
                  f"| {table[op, n, 'fcs']:.2f}x |")


if __name__ == "__main__":
    main()
