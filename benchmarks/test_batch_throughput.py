"""Scalar vs batched FMA throughput (the repro.batch acceptance gate).

Times the faithful digit-level models against the :mod:`repro.batch`
fast path on identical workloads, in operations per second, and asserts
the PR's headline claim: ``dot_batch`` over 4096 element pairs is at
least 5x faster than the scalar ``repro.fma.dotprod`` loop while
producing bit-identical results.

The speedup assertion runs even under ``--benchmark-disable`` (CI smoke
mode) -- it times with ``perf_counter`` directly so the gate cannot be
skipped by disabling the benchmark fixture.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from _timing import best_of, make_vectors
from repro.batch import (accelerate_engine, accumulate_batch, dot_batch,
                         fma_batch, kernel_for)
from repro.fma import (CSFmaEngine, FcsFmaUnit, PcsFmaUnit,
                       run_recurrence)
from repro.fma.accumulator import PcsAccumulator
from repro.fma.dotprod import FusedDotProductUnit

N_DOT = 4096
MIN_SPEEDUP = 5.0

#: per-lane floors for the NumPy lane engine over the tuple kernel, what
#: single-core NumPy sustains with margin on a loaded CI box (measured
#: ~4.4-5.3x pcs / ~2.9-3.7x fcs per lane); docs/PERFORMANCE.md splits
#: where the lane engine's time goes.
MIN_VECTOR_SPEEDUP = {"pcs-fma": 3.0, "fcs-fma": 2.0}
N_VECTOR_LANES = 512
N_VECTOR_REF_LANES = 8

UNITS = [PcsFmaUnit(), FcsFmaUnit()]
unit_ids = ["pcs", "fcs"]

#: results archived to BENCH_vector.json by the module fixture.
RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Compile the specialized CSA-tree variants once, outside timing
    (in production the module-level cache amortizes this)."""
    a, b = make_vectors(256, seed=99)
    for unit in UNITS:
        dot_batch(a, b, unit=unit)


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Archive the vector-lane measurements after the module runs."""
    yield
    if not RESULTS:
        return
    out = os.environ.get("BENCH_VECTOR_OUT", "BENCH_vector.json")
    doc = {"schema": "repro.vector.bench/1",
           "n_lanes": N_VECTOR_LANES,
           "dot_len": N_DOT,
           "gates": {u: {"min_speedup": g}
                     for u, g in MIN_VECTOR_SPEEDUP.items()},
           "units": RESULTS}
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class TestDotThroughput:
    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_scalar_dot(self, benchmark, unit):
        a, b = make_vectors(256)
        out = benchmark(FusedDotProductUnit(unit).dot, a, b)
        assert out.is_normal

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_batched_dot(self, benchmark, unit):
        a, b = make_vectors(256)
        out = benchmark(dot_batch, a, b, unit=unit)
        assert out.is_normal

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_speedup_gate_4096(self, unit):
        """The acceptance criterion: >= 5x on a 4096-element dot product,
        bit-identical result."""
        a, b = make_vectors(N_DOT, seed=7)

        t0 = time.perf_counter()
        ref = FusedDotProductUnit(unit).dot(a, b)
        t_scalar = time.perf_counter() - t0

        best, fast = best_of(lambda: dot_batch(a, b, unit=unit))

        assert fast.cls == ref.cls
        assert fast.sign == ref.sign
        assert fast.biased_exponent == ref.biased_exponent
        assert fast.fraction == ref.fraction

        speedup = t_scalar / best
        rate = N_DOT / best
        print(f"\n{unit.name}: scalar {N_DOT / t_scalar:,.0f} op/s, "
              f"batched {rate:,.0f} op/s, speedup {speedup:.2f}x")
        assert speedup >= MIN_SPEEDUP, (
            f"{unit.name} dot_batch speedup {speedup:.2f}x below the "
            f"{MIN_SPEEDUP}x gate")


class TestVectorDotThroughput:
    """The tentpole gate: the NumPy lane engine vs the tuple kernel on
    wide dot batches, bit-identical and materially faster per lane."""

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_vector_speedup_gate(self, unit):
        import numpy as np

        from repro.batch import vector_kernel_for
        from repro.fma.convert import cs_to_ieee
        from repro.serve.protocol import fp_to_word, word_to_fp

        vk = vector_kernel_for(unit)
        assert vk is not None

        # all-normal word planes: NaN/Inf lanes would defer (and a NaN
        # short-circuits the tuple chain, understating its cost).
        rng = np.random.default_rng(11)
        shape = (N_DOT, N_VECTOR_LANES)
        words = []
        for _ in range(2):
            sign = rng.integers(0, 2, shape, np.uint64) << np.uint64(63)
            exp = rng.integers(1023 - 40, 1023 + 41, shape, np.uint64)
            frac = rng.integers(0, 1 << 52, shape, np.uint64)
            words.append(sign | (exp << np.uint64(52)) | frac)
        a_words, b_words = words

        vk.dot_many_words(a_words[:8, :8], b_words[:8, :8])   # warm
        t0 = time.perf_counter()
        tuples = vk.dot_many_words(a_words, b_words)
        t_vector = time.perf_counter() - t0
        vec_ms = t_vector / N_VECTOR_LANES * 1e3

        # tuple-kernel baseline on a reference slice, best-of-2 (each
        # lane is ~4096 serial FMAs -- self-averaging enough that two
        # reps bound the noise), extrapolated per lane.
        ref_fp = [([word_to_fp(int(w)) for w in a_words[:, i]],
                   [word_to_fp(int(w)) for w in b_words[:, i]])
                  for i in range(N_VECTOR_REF_LANES)]

        def tuple_ref():
            return [dot_batch(a, b, unit=unit, backend="tuple")
                    for a, b in ref_fp]

        t_tuple, ref_out = best_of(tuple_ref, repeats=2)
        tuple_ms = t_tuple / N_VECTOR_REF_LANES * 1e3

        # bit-identity on the reference lanes
        lower = vk.kernel.lower
        for i, ref in enumerate(ref_out):
            got = fp_to_word(cs_to_ieee(lower(tuples[i])))
            assert got == fp_to_word(ref), (
                f"{unit.name} lane {i}: vector {got:#018x} != "
                f"tuple {fp_to_word(ref):#018x}")

        speedup = tuple_ms / vec_ms
        gate = MIN_VECTOR_SPEEDUP[unit.name]
        RESULTS[unit.name] = {
            "tuple_ms_per_lane": round(tuple_ms, 3),
            "vector_ms_per_lane": round(vec_ms, 3),
            "speedup": round(speedup, 2),
            "min_speedup": gate}
        print(f"\n{unit.name}: tuple {tuple_ms:.2f} ms/lane, "
              f"vector {vec_ms:.2f} ms/lane, speedup {speedup:.2f}x "
              f"(gate {gate}x)")
        assert speedup >= gate, (
            f"{unit.name} vector dot speedup {speedup:.2f}x below the "
            f"{gate}x gate")


class TestFmaThroughput:
    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_scalar_fma_loop(self, benchmark, unit):
        a, b = make_vectors(256, seed=3)
        c, _ = make_vectors(256, seed=4)
        out = benchmark(fma_batch, a, b, c, unit=unit, use_batch=False)
        assert len(out) == 256

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_batched_fma(self, benchmark, unit):
        a, b = make_vectors(256, seed=3)
        c, _ = make_vectors(256, seed=4)
        out = benchmark(fma_batch, a, b, c, unit=unit)
        assert len(out) == 256


class TestAccumulatorThroughput:
    def test_scalar_accumulate(self, benchmark):
        a, b = make_vectors(512, seed=5, spread=20)

        def run():
            acc = PcsAccumulator()
            for ai, bi in zip(a, b):
                acc.accumulate(ai, bi)
            return acc

        acc = benchmark(run)
        assert acc.operations == 512

    def test_batched_accumulate(self, benchmark):
        a, b = make_vectors(512, seed=5, spread=20)
        acc = benchmark(lambda: accumulate_batch(a, b))
        assert acc.operations == 512


class TestEngineThroughput:
    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_scalar_recurrence(self, benchmark, unit, fig14_workload):
        b1, b2, x0 = fig14_workload
        out = benchmark(run_recurrence, CSFmaEngine(unit), b1, b2, x0,
                        len(b1))
        assert out.final is not None

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_accelerated_recurrence(self, benchmark, unit, fig14_workload):
        b1, b2, x0 = fig14_workload
        engine = accelerate_engine(CSFmaEngine(unit))
        out = benchmark(run_recurrence, engine, b1, b2, x0, len(b1))
        assert out.final is not None


class TestMemoizedLookups:
    def test_synthesize_by_name_cached(self, benchmark):
        from repro.batch import clear_hw_caches
        from repro.hw.synthesis import synthesize_by_name

        clear_hw_caches()
        synthesize_by_name("pcs-fma")  # prime

        report = benchmark(synthesize_by_name, "pcs-fma")
        assert report.cycles > 0

    def test_kernel_lookup_cached(self):
        unit = FcsFmaUnit()
        assert kernel_for(unit) is kernel_for(unit)
