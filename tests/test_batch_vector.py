"""Bit-identity and dispatch gates for the NumPy vector lane backend.

The tentpole claim of :mod:`repro.batch.vector` is that the lane engine
is **bit-identical** to the tuple fast kernel (and therefore to the
faithful models) for every lane it accepts, and that every lane it
cannot accept -- specials, CS operands, non-binary64 operands, armed
probes/guard, subnormal window edges -- is routed to the scalar kernel
rather than approximated.  This module pins that claim five ways:

* the 298-vector golden corpus (``tests/vectors/fma_hard_cases.json``)
  through ``backend="vector"``, compared word-for-word against both the
  committed expectations and ``backend="tuple"``;
* seeded Hypothesis lane batches over the binary64 word grid
  (specials and subnormal encodings included);
* binary32 / extended68 fma lanes against the faithful unit;
* the off-paper geometries of ``test_fma_parametrized``: lane engine,
  tuple kernel and faithful unit equal where binary64 fits, and the
  faithful unit's refusal where it does not;
* armed-probe / armed-guard fallback equivalence, with the telemetry
  counters proving the fallback actually engaged.

The dispatch tests drive :func:`repro.batch.select_engine` through every
input it reads.
"""

from __future__ import annotations

import contextlib
import json
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import probes
from repro.batch import (BACKENDS, dot_batch, fma_batch, select_engine,
                         vector_kernel_for)
from repro.batch.cskernel import CS_INF, CS_NAN, CS_NORMAL, CS_ZERO
from repro.batch.engines import BACKEND_ENV
from repro.batch.vector import VectorCSKernel
from repro.fma import CSFmaUnit, FcsFmaUnit, PcsFmaUnit, cs_to_ieee
from repro.fma.dotprod import FusedDotProductUnit
from repro.fp import (BINARY32, BINARY64, EXTENDED68, FpClass, FPValue,
                      word_to_fp)
from repro.guard.residue import guarding
from repro.telemetry import collecting
from test_fma_parametrized import VARIANTS

VECTORS = Path(__file__).parent / "vectors" / "fma_hard_cases.json"
CASES = json.loads(VECTORS.read_text())["cases"]

UNITS = [PcsFmaUnit(), FcsFmaUnit()]
unit_ids = ["pcs", "fcs"]

#: crossovers of ``select_engine`` under ``auto`` (docs/PERFORMANCE.md)
FMA_LANES, DOT_LEN, DOT_LANES = 768, 1280, 72


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
def test_dot_vector_bit_identical(pairs, unit_id):
    unit = UNITS[unit_ids.index(unit_id)]
    a = [from_word(w) for w, _x in pairs]
    b = [from_word(w) for _x, w in pairs]
    got = dot_batch(a, b, unit=unit, backend="vector")
    ref = dot_batch(a, b, unit=unit, backend="tuple")
    assert word_of(got) == word_of(ref)


# ---------------------------------------------------------------------------
# the two dot chains

#: ``dot_many_words`` runs its recurrence lane by lane below this many
#: lanes and across lanes from it up
CHAIN_LANES = VectorCSKernel.CHAIN_LANES
QNAN, PINF, NINF = 0x7FF8000000000000, 0x7FF0000000000000, 0xFFF0000000000000
MAX_NORMAL = 0x7FEFFFFFFFFFFFFF
CHAIN_STEPS = 10
#: the lanes below holding a NaN/Inf element within their length, and the
#: one whose accumulator overflows the window
SPECIAL_LANES, OVERFLOW_LANES = 5, 1


def chain_planes(n: int, seed: int):
    """``(a, b, lens)``: ``n`` word lanes of up to :data:`CHAIN_STEPS`
    steps, the edge cases first and random normals after them."""
    rng = random.Random(seed)
    T = CHAIN_STEPS
    a, b = (np.array([_normal_words(rng, n) for _ in range(T)], np.uint64)
            for _ in "ab")
    lens = np.full(n, T, np.int64)
    a[3, 0] = QNAN                          # NaN mid-chain
    a[5, 1] = PINF                          # one Inf product
    b[T - 1, 2] = NINF                      # Inf at the last step
    a[2, 3], b[2, 3] = PINF, 1 << 63        # Inf times -0: NaN
    a[1, 4], a[6, 4] = PINF, NINF           # opposite Inf products: NaN
    b[1, 4] = b[6, 4] = 0x3FF0000000000000
    a[4, 5] = b[4, 5] = MAX_NORMAL          # accumulator overflows
    a[:, 6] = [rng.choice((0, 1 << 63)) for _ in range(T)]  # signed zeros
    a[::2, 7] = [0x1, 0x800FFFFFFFFFFFFF, 0x8000000000000001,
                 0x000FFFFFFFFFFFFF, 0x0008000000000000]   # subnormals
    a[1:, 8] = b[1:, 8] = 0                 # one product, then +0s
    a[1, 8], b[1, 8] = a[0, 8] ^ (1 << 63), b[0, 8]   # exact cancellation
    for lane, k in ((9, 0), (10, 1), (11, T // 2)):   # ragged lengths
        lens[lane] = k
        a[k:, lane] = QNAN                  # padding is never read
    return a, b, lens


class TestDotChains:
    """``dot_many_words`` runs its accumulator recurrence lane by lane
    below :data:`CHAIN_LANES` lanes and across lanes from it up.  The
    same word lanes through both chains equal
    :meth:`FastCSKernel.dot_tuple` over ``word_to_fp`` of their words,
    tuple for tuple."""

    @pytest.mark.parametrize("n", [CHAIN_LANES - 1, CHAIN_LANES],
                             ids=["lane-by-lane", "across-lanes"])
    @pytest.mark.parametrize("name", ["pcs", "fcs", "pcs-dense",
                                      "fcs-wide"])
    def test_lanes_equal_dot_tuple(self, name, n):
        unit = {"pcs": UNITS[0], "fcs": UNITS[1]}.get(name)
        unit = unit or OFF_PAPER[name]
        a, b, lens = chain_planes(CHAIN_LANES, seed=5)
        a, b, lens = a[:, :n], b[:, :n], lens[:n]
        vk = vector_kernel_for(unit)
        with collecting() as t:
            got = vk.dot_many_words(a, b, lens)
        kernel = vk.kernel
        for i in range(n):
            L = int(lens[i])
            ref = kernel.dot_tuple([word_to_fp(int(w)) for w in a[:L, i]],
                                   [word_to_fp(int(w)) for w in b[:L, i]])
            assert got[i] == ref, i
        assert all(type(f) is int for x in got for f in x)
        classes = {x[0] for x in got}
        assert {CS_ZERO, CS_NORMAL, CS_INF, CS_NAN} <= classes
        counters = t.snapshot().counters
        across = n >= CHAIN_LANES
        assert counters.get("batch.vector.deferred.special", 0) == (
            SPECIAL_LANES if across else 0)
        assert counters.get("batch.vector.deferred.window-overflow", 0) == (
            OVERFLOW_LANES if across else 0)
        assert counters["batch.vector.lanes"] == n - (
            SPECIAL_LANES + OVERFLOW_LANES if across else 0)

    @pytest.mark.parametrize("n", [1, CHAIN_LANES],
                             ids=["lane-by-lane", "across-lanes"])
    def test_no_steps(self, n):
        """Planes of zero steps, and the empty ``dot_batch``: ZERO."""
        vk = vector_kernel_for(UNITS[1])
        w = np.zeros((0, n), np.uint64)
        assert vk.dot_many_words(w, w) == [(CS_ZERO, 0, 0, 0, 0, 0, 0)] * n
        assert word_of(dot_batch([], [], UNITS[1], backend="vector")) == 0

    @pytest.mark.parametrize("n", [CHAIN_LANES - 1, CHAIN_LANES],
                             ids=["lane-by-lane", "across-lanes"])
    def test_narrow_geometry_refused(self, n):
        """``pcs-sp`` cannot lift a binary64 significand on either
        side of the crossover."""
        a, b, lens = chain_planes(n, seed=6)
        with pytest.raises(ValueError, match="binary64 significand too "
                           "wide for pcs-sp operand"):
            vector_kernel_for(OFF_PAPER["pcs-sp"]).dot_many_words(a, b,
                                                                  lens)


# ---------------------------------------------------------------------------
# the lowered CSFloats, field by field


def assert_same_lowering(unit, a, b, c) -> list:
    """The lane engine, the tuple kernel and the faithful loop build
    ``==`` CSFloat lists: every field, carry planes, rounding block and
    sign hint included, not only the binary64 they round to.  Every
    field is a Python ``int`` (the class an :class:`FpClass`), never a
    NumPy scalar.  Returns the lane engine's list."""
    vec = fma_batch(a, b, c, unit=unit, backend="vector")
    tup = fma_batch(a, b, c, unit=unit, backend="tuple")
    ref = fma_batch(a, b, c, unit=unit, use_batch=False)
    assert len(vec) == len(tup) == len(ref) == len(a)
    for i, (v, t, r) in enumerate(zip(vec, tup, ref)):
        assert v == r, i
        assert t == r, i
        for x in (v, t):
            assert type(x.cls) is FpClass, i
            assert type(x.exp) is int and type(x.sign_hint) is int, i
            for n in (x.mant, x.round_data):
                assert all(type(f) is int for f in (
                    n.sum, n.carry, n.width, n.carry_mask)), i
    return vec


def _normal_words(rng, n):
    return [(rng.getrandbits(1) << 63) | (rng.randint(1023 - 40, 1023 + 40)
                                          << 52) | rng.getrandbits(52)
            for _ in range(n)]


class TestLoweredFields:
    """The word comparisons above cannot see a wrong carry plane,
    rounding block or sign hint that rounds to the same binary64; these
    compare the ``CSFloat`` lists themselves."""

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_corpus(self, unit):
        assert_same_lowering(unit, *corpus_operands())

    @pytest.mark.parametrize("n", [0, 1, 1025],
                             ids=["empty", "one-lane", "tile-plus-one"])
    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_batch_widths(self, unit, n):
        """No lanes, one lane, and one lane past the 1024-lane tree
        tile."""
        rng = random.Random(n)
        a, b, c = ([from_word(w) for w in _normal_words(rng, n)]
                   for _ in "abc")
        assert_same_lowering(unit, a, b, c)

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_every_lane_defers(self, unit):
        """Each lane holds a NaN or an Inf somewhere, so none stays on
        the lane engine."""
        rng = random.Random(7)
        specials = [0x7FF0000000000000, 0xFFF0000000000000,
                    0x7FF8000000000000, 0x7FF8000000000001]
        words = [_normal_words(rng, 48) for _ in "abc"]
        for i in range(48):
            words[i % 3][i] = specials[i % 4]
        a, b, c = ([from_word(w) for w in ws] for ws in words)
        with collecting() as t:
            out = assert_same_lowering(unit, a, b, c)
        counters = t.snapshot().counters
        assert counters["batch.vector.deferred.special"] == 48
        assert counters.get("batch.vector.lanes", 0) == 0
        assert {x.cls for x in out} == {FpClass.INF, FpClass.NAN}

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_cs_operands_mixed_in(self, unit):
        """CS operands with live carry planes and rounding blocks (the
        results of a first batch) in some lanes, binary64 in the rest."""
        a, b, c = corpus_operands()
        r = fma_batch(a, b, c, unit=unit, backend="tuple")
        assert any(x.is_normal and x.mant.carry and x.round_data.sum
                   for x in r)
        a = [r[i] if i % 3 == 0 else x for i, x in enumerate(a)]
        c = [r[-i] if i % 5 == 1 else x for i, x in enumerate(c)]
        n_cs = sum(i % 3 == 0 or i % 5 == 1 for i in range(len(a)))
        with collecting() as t:
            assert_same_lowering(unit, a, b, c)
        counters = t.snapshot().counters
        assert counters["batch.vector.deferred.cs-operand"] == n_cs

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_lower_lanes_matches_per_lane_loop(self, unit):
        """The column lowering builds the tuples the per-lane ``int()``
        loop it replaced built, on the corpus's lane-engine results
        (ZERO lanes with either sign hint included), and on the same
        cols with some NORMAL lanes relabelled ZERO/INF, whose digits a
        non-NORMAL tuple must drop."""
        vk = vector_kernel_for(unit)
        a, b, c = (np.array([int(x[k], 16) for x in CASES], np.uint64)
                   for k in "abc")
        acs, _ab, spec = vk.lift_words(a)
        _cb, bcs, spec_b = vk.lift_words(b)
        ccs, _xb, spec_c = vk.lift_words(c)
        defer = spec | spec_b | spec_c
        for cols in (acs, bcs, ccs):
            cols["cls"] = np.where(defer, 0, cols["cls"])
        cols = vk.fma_lanes(acs, bcs, ccs)
        got = vk.lower_lanes(cols)
        assert got == _lower_lanes_loop(vk, cols)
        assert {(0, 0), (0, 1), (1, 0)} <= {(t[0], t[6]) for t in got}
        assert all(type(f) is int for t in got for f in t)
        relabelled = dict(cols, cls=cols["cls"].copy())
        relabelled["cls"][::7] = 0
        relabelled["cls"][3::7] = 2
        got = vk.lower_lanes(relabelled)
        assert got == _lower_lanes_loop(vk, relabelled)


def _lower_lanes_loop(vk, cols) -> list:
    """The per-lane loop ``lower_lanes`` replaced (the reference)."""
    out = []
    for i in range(cols["cls"].shape[0]):
        ci = int(cols["cls"][i])
        if ci != 1:
            out.append((ci, 0, 0, 0, 0, 0, int(cols["sh"][i])))
            continue
        ms = mcs = 0
        for j in range(vk.MD):
            ms |= int(cols["m"][i, j]) << (vk.BB * j)
            mcs |= int(cols["mc"][i, j]) << (vk.BB * j)
        out.append((1, int(cols["exp"][i]), ms, mcs, int(cols["rs"][i]),
                    int(cols["rc"][i]), 0))
    return out


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(word_strategy(), word_strategy(),
                          word_strategy()),
                min_size=16, max_size=48),
       st.sampled_from(unit_ids))
def test_fma_lane_batches_fields_equal(triples, unit_id):
    unit = UNITS[unit_ids.index(unit_id)]
    assert_same_lowering(unit, *([from_word(t[k]) for t in triples]
                                 for k in range(3)))


# ---------------------------------------------------------------------------
# non-binary64 operands


def _random_value(rng, fmt):
    return FPValue.from_parts(fmt, rng.getrandbits(1),
                              fmt.bias + rng.randint(-8, 8),
                              rng.getrandbits(fmt.fraction_bits))


class TestNonBinary64Lanes:
    """The lane engine lifts binary64 words only; ``fma_batch`` lanes in
    other IEEE formats re-run on the tuple kernel instead of being
    packed as binary64 words."""

    @pytest.mark.parametrize("fmt", [BINARY32, EXTENDED68],
                             ids=["binary32", "extended68"])
    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_pinned_and_auto_match_faithful(self, monkeypatch, unit, fmt):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        rng = random.Random(f"{unit.name}-{fmt.name}")
        # B is the multiplier's IEEE port: at most binary64 precision
        b_fmt = BINARY32 if fmt is BINARY32 else BINARY64
        n = FMA_LANES
        a = [_random_value(rng, fmt) for _ in range(n)]
        b = [_random_value(rng, b_fmt) for _ in range(n)]
        c = [_random_value(rng, fmt) for _ in range(n)]
        a[0], b[0], c[0] = (FPValue.from_float(1.5, fmt),
                            FPValue.from_float(2.25, b_fmt),
                            FPValue.from_float(-0.75, fmt))
        for i in range(1, n, 2):      # interleave plain binary64 lanes
            a[i], b[i], c[i] = (_random_value(rng, BINARY64)
                                for _ in range(3))
        ref = fma_batch(a, b, c, unit=unit, use_batch=False)
        ref_words = [word_of(cs_to_ieee(r)) for r in ref]
        for backend, size in (("vector", 16), ("auto", n)):
            with collecting() as t:
                got = fma_batch(a[:size], b[:size], c[:size], unit=unit,
                                backend=backend)
            assert [word_of(cs_to_ieee(r)) for r in got] == ref_words[:size]
            assert got == ref[:size]
            counters = t.snapshot().counters
            assert counters["batch.vector.deferred.non-binary64"] == size // 2
            assert counters["batch.vector.lanes"] == size // 2


# ---------------------------------------------------------------------------
# off-paper geometries


OFF_PAPER = {p.name: CSFmaUnit(p, selector=sel, use_carry_reduce=red)
             for p, sel, red in VARIANTS}


class TestOffPaperGeometries:
    """The paper fixes two geometries; the lane engine takes any whose
    fraction holds a binary64 significand, and refuses, as the faithful
    unit does, one that cannot."""

    @pytest.mark.parametrize("name", ["fcs-wide", "pcs-dense"])
    def test_engines_agree(self, name):
        """``fma_batch`` field by field on the corpus plus random normals;
        ``dot_many_words`` lanes and ``dot_batch`` on both engines
        against the faithful dot."""
        unit = OFF_PAPER[name]
        rng = random.Random(name)
        words = [int(c[k], 16) for c in CASES for k in "abc"]
        words += _normal_words(rng, 3 * 64)
        a, b, c = ([from_word(w) for w in words[k::3]] for k in range(3))
        assert_same_lowering(unit, a, b, c)
        T, N = 24, 4
        aw = np.array(words[:T * N], np.uint64).reshape(T, N)
        bw = np.array(words[T * N:2 * T * N], np.uint64).reshape(T, N)
        vk = vector_kernel_for(unit)
        lanes = vk.dot_many_words(aw, bw)
        for i in range(N):
            av = [from_word(int(w)) for w in aw[:, i]]
            bv = [from_word(int(w)) for w in bw[:, i]]
            ref = word_of(FusedDotProductUnit(unit).dot(av, bv))
            assert word_of(cs_to_ieee(vk.kernel.lower(lanes[i]))) == ref
            for backend in ("vector", "tuple"):
                got = dot_batch(av, bv, unit=unit, backend=backend)
                assert word_of(got) == ref, (i, backend)

    def test_narrow_geometry_takes_a_normal_b(self):
        """The B port reads the binary64 significand as it is, so a
        geometry too narrow to lift it still takes a normal B: against
        zero A and C every engine returns the faithful unit's ZERO (the
        lane engine used to lift B's CS digits too, and refused)."""
        unit = OFF_PAPER["pcs-sp"]
        zero, b = (FPValue.from_float(v, BINARY64) for v in (0.0, 1.5))
        out = assert_same_lowering(unit, [zero] * 4, [b] * 4, [zero] * 4)
        assert all(r.cls is FpClass.ZERO for r in out)

    @pytest.mark.parametrize("call", ["fma-auto", "fma-vector", "fma-tuple",
                                      "dot-vector", "dot-tuple",
                                      "dot-many-words"])
    def test_narrow_geometry_refused_like_the_faithful_unit(
            self, monkeypatch, call):
        """``pcs-sp`` has 27 fraction bits, too few for binary64 -- the
        lane engine used to lift it silently and return ZERO, and the
        tuple kernel failed on a negative shift count."""
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        unit = OFF_PAPER["pcs-sp"]
        x, y, z = (FPValue.from_float(v, BINARY64) for v in (1.5, 2.0, 3.0))
        message = "binary64 significand too wide for pcs-sp operand"
        with pytest.raises(ValueError, match=message):
            fma_batch([x], [y], [z], unit=unit, use_batch=False)
        n = FMA_LANES if call == "fma-auto" else 4
        op, backend = call.split("-", 1)
        with pytest.raises(ValueError, match=message):
            if call == "dot-many-words":
                vector_kernel_for(unit).dot_many_words(
                    np.full((n, 2), word_of(x), np.uint64),
                    np.full((n, 2), word_of(y), np.uint64))
            elif op == "fma":
                fma_batch([x] * n, [y] * n, [z] * n, unit=unit,
                          backend=backend)
            else:
                dot_batch([x] * n, [y] * n, unit=unit, backend=backend)


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
        from repro.serve.executor import execute_payload

        w = 0x3FF0000000000000
        payload = {"op": "dot", "fmt": "pcs", "backend": "vector",
                   "items": [([w, w], [w, w], None)] * 40}
        assert select_engine("dot-lanes", 40, "vector") == "vector"
        plain = execute_payload(payload)
        with collecting() as t:
            with probes.armed({"test.never-fired": probes.Arm(lambda v: v)}):
                assert select_engine("dot-lanes", 40, "vector") == "tuple"
                armed_out = execute_payload(payload)
        counters = t.snapshot().counters
        assert counters.get("batch.vector.lanes", 0) == 0
        assert armed_out == plain


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


def _case(case_id, op, size, backend, env=None, use_batch=True,
          arm=None, engine="vector", reason=None):
    return pytest.param(op, size, backend, env, use_batch, arm, engine,
                        reason, id=case_id)


SELECT_CASES = [
    _case("use-batch-off", "fma", 4096, "vector", use_batch=False,
          arm="probes", engine="faithful"),
    _case("explicit-tuple", "fma", 4096, "tuple", env="vector",
          engine="tuple"),
    _case("explicit-tuple-armed", "fma", 4096, "tuple", arm="guard",
          engine="tuple"),
    _case("explicit-faithful", "dot", 4096, "faithful", engine="faithful"),
    _case("explicit-auto-beats-env", "fma", FMA_LANES, "auto",
          env="tuple"),
    _case("env-tuple", "dot", 4096, None, env="tuple", engine="tuple"),
    _case("env-vector-pins", "fma", 1, None, env="vector"),
    _case("auto-default", "dot", 4096, None),
    _case("armed-probes", "fma", 4096, "auto", arm="probes",
          engine="tuple", reason="armed-probes"),
    _case("armed-probes-small", "fma", 1, "auto", arm="probes",
          engine="tuple", reason="armed-probes"),
    _case("armed-guard-pinned", "dot-lanes", 4096, "vector", arm="guard",
          engine="tuple", reason="armed-guard"),
    _case("fma-below", "fma", FMA_LANES - 1, "auto", engine="tuple",
          reason="small-batch"),
    _case("fma-at", "fma", FMA_LANES, "auto"),
    _case("dot-below", "dot", DOT_LEN - 1, "auto", engine="tuple",
          reason="small-batch"),
    _case("dot-at", "dot", DOT_LEN, "auto"),
    _case("dot-lanes-below", "dot-lanes", DOT_LANES - 1, None,
          engine="tuple", reason="small-batch"),
    _case("dot-lanes-at", "dot-lanes", DOT_LANES, None),
    _case("pin-below", "dot", 1, "vector"),
]


class TestBackendDispatch:
    def test_backend_universe(self):
        assert BACKENDS == ("auto", "vector", "tuple", "faithful")

    @pytest.mark.parametrize(
        "op, size, backend, env, use_batch, arm, engine, reason",
        SELECT_CASES)
    def test_select_engine(self, monkeypatch, op, size, backend, env,
                           use_batch, arm, engine, reason):
        """Every input of the one engine-selection seam gives the
        expected engine and counts exactly its one fallback reason."""
        if env is None:
            monkeypatch.delenv(BACKEND_ENV, raising=False)
        else:
            monkeypatch.setenv(BACKEND_ENV, env)
        arming = {None: contextlib.nullcontext,
                  "probes": lambda: probes.armed(
                      {"test.never-fired": probes.Arm(lambda v: v)}),
                  "guard": guarding}[arm]
        with collecting() as t:
            with arming():
                got = select_engine(op, size, backend, use_batch)
        fallbacks = {k: v for k, v in t.snapshot().counters.items()
                     if k.startswith("batch.vector.fallback")}
        assert got == engine
        assert fallbacks == ({} if reason is None else {
            "batch.vector.fallback": 1,
            f"batch.vector.fallback.{reason}": 1})

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            select_engine("fma", 8, "simd")

    def test_env_typo_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "vectr")
        with pytest.raises(ValueError, match="unknown backend"):
            select_engine("fma", 8)

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
                 for i in range(0, 240, 6)]       # 40 lanes, pinned
        vec = execute_payload({"op": "dot", "fmt": "pcs", "items": items,
                               "backend": "vector"})
        tup = execute_payload({"op": "dot", "fmt": "pcs", "items": items,
                               "backend": "tuple"})
        assert vec == tup
        assert all(r[0] == "ok" for r in vec)
