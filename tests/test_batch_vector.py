"""Bit-identity and dispatch gates for the NumPy vector lane backend.

The tentpole claim of :mod:`repro.batch.vector` is that the lane engine
is **bit-identical** to the tuple fast kernel (and therefore to the
faithful models) for every lane it accepts, and that every lane it
cannot accept -- specials, CS operands, armed probes/guard, subnormal
window edges -- is routed to the scalar kernel rather than approximated.
This module pins that claim three ways:

* the 298-vector golden corpus (``tests/vectors/fma_hard_cases.json``)
  through ``backend="vector"``, compared word-for-word against both the
  committed expectations and ``backend="tuple"``;
* seeded Hypothesis lane batches over the binary64 word grid
  (specials and subnormal encodings included);
* armed-probe / armed-guard fallback equivalence, with the telemetry
  counters proving the fallback actually engaged.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import probes
from repro.batch import (BACKENDS, dot_batch, fma_batch, resolve_backend,
                         vector_kernel_for)
from repro.batch.engines import BACKEND_ENV
from repro.fma import FcsFmaUnit, PcsFmaUnit, cs_to_ieee
from repro.fp import BINARY64, FPValue
from repro.guard.residue import guarding
from repro.telemetry import collecting

VECTORS = Path(__file__).parent / "vectors" / "fma_hard_cases.json"
CASES = json.loads(VECTORS.read_text())["cases"]

UNITS = [PcsFmaUnit(), FcsFmaUnit()]
unit_ids = ["pcs", "fcs"]

def from_word(word: int) -> FPValue:
    x = struct.unpack("<d", struct.pack("<Q", word))[0]
    return FPValue.from_float(x, BINARY64)


def word_of(v: FPValue) -> int:
    return struct.unpack("<Q", struct.pack("<d", v.to_float()))[0]


def corpus_operands():
    a = [from_word(int(c["a"], 16)) for c in CASES]
    b = [from_word(int(c["b"], 16)) for c in CASES]
    c = [from_word(int(c["c"], 16)) for c in CASES]
    return a, b, c


# ---------------------------------------------------------------------------
# golden corpus


class TestGoldenCorpus:
    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_fma_vector_matches_goldens(self, unit):
        """Every corpus case through the vector backend reproduces the
        committed expectation -- including the NaN/Inf and
        subnormal-window-edge cases the engine defers per lane."""
        a, b, c = corpus_operands()
        outs = fma_batch(a, b, c, unit=unit, backend="vector")
        for case, out in zip(CASES, outs):
            got = "0x%016x" % word_of(cs_to_ieee(out))
            assert got == case["expected"][unit.name], (case["id"],
                                                        case["note"])

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_fma_vector_matches_tuple(self, unit):
        a, b, c = corpus_operands()
        vec = fma_batch(a, b, c, unit=unit, backend="vector")
        tup = fma_batch(a, b, c, unit=unit, backend="tuple")
        for case, v, t in zip(CASES, vec, tup):
            assert word_of(cs_to_ieee(v)) == word_of(cs_to_ieee(t)), (
                case["id"])

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_dot_lanes_from_corpus(self, unit):
        """Corpus words rearranged into dot lanes: ``dot_many_words``
        (the serve whole-payload path) vs the tuple chain, bitwise.
        Lanes containing Inf/NaN exercise the internal deferral."""
        import numpy as np

        vk = vector_kernel_for(unit)
        assert vk is not None
        words_a = [int(c["a"], 16) for c in CASES]
        words_b = [int(c["b"], 16) for c in CASES]
        T, N = 16, 18   # 288 of the 298 cases, column-major lanes
        a = np.array(words_a[:T * N], np.uint64).reshape(N, T).T
        b = np.array(words_b[:T * N], np.uint64).reshape(N, T).T
        tuples = vk.dot_many_words(a.copy(), b.copy())
        lower = vk.kernel.lower
        for i in range(N):
            av = [from_word(int(w)) for w in a[:, i]]
            bv = [from_word(int(w)) for w in b[:, i]]
            ref = dot_batch(av, bv, unit=unit, backend="tuple")
            got = cs_to_ieee(lower(tuples[i]))
            assert word_of(got) == word_of(ref), f"lane {i}"


# ---------------------------------------------------------------------------
# seeded property batches over the word grid


def word_strategy():
    """binary64 bit patterns biased toward the interesting regions:
    specials, subnormal encodings (flushed on load), window edges, and
    ordinary normals with clustered exponents."""
    sign = st.sampled_from([0, 1 << 63])
    specials = st.sampled_from(
        [0x0000000000000000,              # +0
         0x7FF0000000000000,              # +Inf
         0x7FF8000000000001,              # NaN
         0x0000000000000001,              # min subnormal (flushes)
         0x000FFFFFFFFFFFFF,              # max subnormal (flushes)
         0x0010000000000000,              # min normal
         0x7FEFFFFFFFFFFFFF])             # max normal
    normal = st.builds(
        lambda e, f: (e << 52) | f,
        st.integers(1023 - 60, 1023 + 60),
        st.integers(0, (1 << 52) - 1))
    return st.builds(lambda s, w: s | w, sign,
                     st.one_of(normal, specials))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(word_strategy(), word_strategy(),
                          word_strategy()),
                min_size=16, max_size=48),
       st.sampled_from(unit_ids))
def test_fma_lane_batches_bit_identical(triples, unit_id):
    unit = UNITS[unit_ids.index(unit_id)]
    a = [from_word(w) for w, _x, _y in triples]
    b = [from_word(w) for _x, w, _y in triples]
    c = [from_word(w) for _x, _y, w in triples]
    vec = fma_batch(a, b, c, unit=unit, backend="vector")
    tup = fma_batch(a, b, c, unit=unit, backend="tuple")
    for i, (v, t) in enumerate(zip(vec, tup)):
        assert word_of(cs_to_ieee(v)) == word_of(cs_to_ieee(t)), i


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(word_strategy(), word_strategy()),
                min_size=1, max_size=24),
       st.sampled_from(unit_ids))
def test_dot_hybrid_bit_identical(pairs, unit_id):
    unit = UNITS[unit_ids.index(unit_id)]
    vk = vector_kernel_for(unit)
    a = [from_word(w) for w, _x in pairs]
    b = [from_word(w) for _x, w in pairs]
    got = cs_to_ieee(vk.kernel.lower(vk.dot_hybrid(a, b)))
    ref = dot_batch(a, b, unit=unit, backend="tuple")
    assert word_of(got) == word_of(ref)


# ---------------------------------------------------------------------------
# armed fallback equivalence


class TestArmedFallback:
    """Arming anything routes vector work to the tuple kernel; results
    stay bit-identical and the fallback is visible in telemetry."""

    def _operands(self, n=32):
        a = [from_word(int(c["a"], 16)) for c in CASES[:n]]
        b = [from_word(int(c["b"], 16)) for c in CASES[:n]]
        c = [from_word(int(c["c"], 16)) for c in CASES[:n]]
        return a, b, c

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_armed_probes_fall_back(self, unit):
        a, b, c = self._operands()
        plain = fma_batch(a, b, c, unit=unit, backend="vector")
        # identity arm at a tag no datapath fires: arming semantics
        # engage (ARMED is not None) without perturbing any value.
        with collecting() as t:
            with probes.armed({"test.never-fired": probes.Arm(lambda v: v)}):
                armed_out = fma_batch(a, b, c, unit=unit, backend="vector")
        counters = t.snapshot().counters
        assert counters.get("batch.vector.fallback.armed-probes", 0) == 1
        assert counters.get("batch.vector.lanes", 0) == 0
        for p, q in zip(plain, armed_out):
            assert word_of(cs_to_ieee(p)) == word_of(cs_to_ieee(q))

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_armed_guard_falls_back(self, unit):
        a, b, c = self._operands()
        plain = fma_batch(a, b, c, unit=unit, backend="vector")
        with collecting() as t:
            with guarding():
                guarded = fma_batch(a, b, c, unit=unit, backend="vector")
        counters = t.snapshot().counters
        assert counters.get("batch.vector.fallback.armed-guard", 0) == 1
        for p, q in zip(plain, guarded):
            assert word_of(cs_to_ieee(p)) == word_of(cs_to_ieee(q))

    def test_dot_armed_guard_falls_back(self):
        unit = UNITS[0]
        a, b, _c = self._operands(16)
        plain = dot_batch(a, b, unit=unit, backend="vector")
        with guarding():
            guarded = dot_batch(a, b, unit=unit, backend="vector")
        assert word_of(plain) == word_of(guarded)

    def test_serve_vector_path_declines_when_armed(self):
        from repro.serve.executor import _exec_dot_vector, _units

        unit = _units()["pcs"]
        items = [([w, w], [w, w], None)
                 for w in [0x3FF0000000000000] * 40]
        assert _exec_dot_vector(unit, items) is not None
        with probes.armed({"test.never-fired": probes.Arm(lambda v: v)}):
            assert _exec_dot_vector(unit, items) is None


# ---------------------------------------------------------------------------
# telemetry accounting


class TestVectorTelemetry:
    def test_lane_and_deferral_counters(self):
        unit = UNITS[0]
        a, b, c = ([from_word(int(x[k], 16)) for x in CASES]
                   for k in "abc")
        with collecting() as t:
            fma_batch(a, b, c, unit=unit, backend="vector")
        counters = t.snapshot().counters
        lanes = counters.get("batch.vector.lanes", 0)
        deferred = counters.get("batch.vector.deferred", 0)
        assert lanes + deferred == len(CASES)
        assert lanes > 0            # most corpus lanes vectorize
        assert deferred > 0         # NaN/Inf corpus lanes defer
        assert counters.get("batch.vector.deferred.special", 0) > 0


# ---------------------------------------------------------------------------
# backend dispatch


class TestBackendDispatch:
    def test_backend_universe(self):
        assert BACKENDS == ("auto", "vector", "tuple", "faithful")

    def test_auto_prefers_vector(self):
        assert resolve_backend("auto") == "vector"
        assert resolve_backend("vector") == "vector"
        assert resolve_backend("tuple") == "tuple"
        assert resolve_backend("faithful") == "faithful"

    def test_default_reads_environment(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend() == "vector"
        monkeypatch.setenv(BACKEND_ENV, "tuple")
        assert resolve_backend() == "tuple"
        # explicit argument beats the environment
        assert resolve_backend("vector") == "vector"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("simd")

    def test_env_typo_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "vectr")
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend()

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_backends_agree_on_small_batch(self, unit):
        a, b, c = ([from_word(int(x[k], 16)) for x in CASES[:8]]
                   for k in "abc")
        words = {}
        for backend in ("vector", "tuple", "faithful"):
            out = fma_batch(a, b, c, unit=unit, backend=backend)
            words[backend] = [word_of(cs_to_ieee(r)) for r in out]
        assert words["vector"] == words["tuple"] == words["faithful"]

    def test_auto_small_batch_takes_tuple(self, monkeypatch):
        """Under ``auto`` the per-fma staging cost makes small batches
        faster on the tuple kernel; the reroute is counted.  An
        explicit ``vector`` pin bypasses the heuristic."""
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        unit = UNITS[0]
        a, b, c = ([from_word(int(x[k], 16)) for x in CASES[:8]]
                   for k in "abc")
        with collecting() as t:
            fma_batch(a, b, c, unit=unit, backend="auto")
        counters = t.snapshot().counters
        assert counters.get("batch.vector.fallback.small-batch", 0) == 1
        assert counters.get("batch.vector.lanes", 0) == 0
        with collecting() as t:
            fma_batch(a, b, c, unit=unit, backend="vector")
        assert t.snapshot().counters.get("batch.vector.lanes", 0) > 0

    def test_use_batch_false_forces_faithful(self):
        unit = UNITS[0]
        a, b, c = ([from_word(int(x[k], 16)) for x in CASES[:4]]
                   for k in "abc")
        with collecting() as t:
            fma_batch(a, b, c, unit=unit, use_batch=False,
                      backend="vector")
        assert "batch.vector.lanes" not in t.snapshot().counters


# ---------------------------------------------------------------------------
# serve whole-payload path


class TestServeVectorDot:
    def test_whole_payload_matches_tuple_backend(self):
        from repro.serve.executor import execute_payload

        words_a = [int(c["a"], 16) for c in CASES]
        words_b = [int(c["b"], 16) for c in CASES]
        items = [(words_a[i:i + 6], words_b[i:i + 6], None)
                 for i in range(0, 240, 6)]       # 40 lanes >= threshold
        vec = execute_payload({"op": "dot", "fmt": "pcs", "items": items,
                               "backend": "vector"})
        tup = execute_payload({"op": "dot", "fmt": "pcs", "items": items,
                               "backend": "tuple"})
        assert vec == tup
        assert all(r[0] == "ok" for r in vec)
