"""Stage ``kernels_wide``: the batch API in-process, no server.

Per format (pcs, fcs):

* dot@4096 on the vector lane engine -- one
  ``VectorCSKernel.dot_many_words`` call over ``DOT_LANES`` lanes (the
  last lane is ``SHORT_LANE`` steps long, so it can be checked against
  the faithful unit cheaply) -- and ``dot_batch(..., backend="tuple")``
  on the first ``TUPLE_LANES`` of those lanes;
* ``fma_batch`` over ``FMA_LANES`` lanes with ``backend="vector"`` and
  ``backend="tuple"``.

Checks: vector dot lanes equal tuple lanes, the short lane equals the
faithful dot, vector fma lanes equal tuple lanes, and a sample of fma
lanes equals the faithful unit.
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext

import numpy as np

import repro.batch as batch
from repro.batch.cskernel import FastCSKernel
from repro.batch.vector import VectorCSKernel
from repro.fma.convert import cs_to_ieee
from repro.fma.csfma import FcsFmaUnit, PcsFmaUnit
from repro.serve.protocol import fp_to_word, word_to_fp

from inputs import dot_planes, fma_lanes

FORMATS = ("pcs", "fcs")
DOT_STEPS = 4096
DOT_LANES = 32
SHORT_LANE = 256
TUPLE_LANES = 2
FMA_LANES = 1024
FAITHFUL_FMA_SAMPLE = 32
ROOT_SPAN = "kernels_wide"


def units() -> dict:
    return {"pcs": PcsFmaUnit(), "fcs": FcsFmaUnit()}


def warm() -> None:
    """Build both kernels (trees, vector kernel) and run tiny calls."""
    for unit in units().values():
        vk = batch.vector_kernel_for(unit)
        w = np.full((8, 2), 0x3FF0000000000000, np.uint64)
        vk.dot_many_words(w, w)
        xs = [word_to_fp(0x3FF8000000000000)] * 8
        batch.dot_batch(xs, xs, unit, backend="tuple")
        batch.fma_batch(xs, xs, xs, unit, backend="vector")
        batch.fma_batch(xs, xs, xs, unit, backend="tuple")


def install(tracer) -> None:
    def api_name(op):
        def name(args, kwargs):
            if kwargs.get("use_batch") is False:
                return f"batch.api.{op}.faithful"
            return f"batch.api.{op}.{kwargs.get('backend') or 'auto'}"
        return name

    tracer.wrap(batch, "fma_batch", api_name("fma"))
    tracer.wrap(batch, "dot_batch", api_name("dot"))
    tracer.wrap(VectorCSKernel, "lift_words", "batch.vector.lift")
    tracer.wrap(VectorCSKernel, "fma_lanes", "batch.vector.lanes")
    tracer.wrap(VectorCSKernel, "lower_lanes", "batch.vector.lower")
    tracer.wrap(VectorCSKernel, "dot_many_words", "batch.vector.dot")
    tracer.wrap(FastCSKernel, "dot_tuple", "batch.cskernel.dot_tuple")


def _words(results) -> list:
    return [fp_to_word(cs_to_ieee(r)) for r in results]


def _dot_vector(unit, inp) -> list:
    """One ``dot_many_words`` call, lowered to IEEE words as the serving
    executor does."""
    vk = batch.vector_kernel_for(unit)
    lower = vk.kernel.lower
    return [fp_to_word(cs_to_ieee(lower(t)))
            for t in vk.dot_many_words(inp.a, inp.b, lens=inp.lens)]


class _Inputs:
    def __init__(self, wl, seed: int, fmt: str):
        self.a, self.b = dot_planes(wl, seed, fmt, DOT_STEPS, DOT_LANES,
                                    TUPLE_LANES)
        self.lens = np.full(DOT_LANES, DOT_STEPS, np.int64)
        self.lens[-1] = SHORT_LANE
        self.tuple_lanes = [
            ([word_to_fp(int(w)) for w in self.a[:, i]],
             [word_to_fp(int(w)) for w in self.b[:, i]])
            for i in range(TUPLE_LANES)]
        cols = fma_lanes(wl, seed, fmt, FMA_LANES)
        self.fma = tuple([word_to_fp(w) for w in col] for col in cols)


class Stage:
    """The stage as independent timed tasks (so a run can interleave
    them with other stages' tasks), then :meth:`finish`."""

    def __init__(self, wl, seed: int, seconds: float, clock, tracer=None,
                 check: bool = True):
        self.clock = clock
        self.units = units()
        self.inputs = {fmt: _Inputs(wl, seed, fmt) for fmt in FORMATS}
        self.tracer = tracer
        self.check = check
        # a pcs+fcs dot@4096 pair takes ~4.5 s, an fma pair ~0.25 s
        self.dot_reps = max(1, round(seconds / 4.5))
        self.fma_reps = max(2, round(seconds * 0.6))
        self.t = {key: {fmt: [] for fmt in FORMATS}
                  for key in ("dot_vec", "dot_tup", "fma_vec", "fma_tup")}
        self.t_raw = {key: {fmt: [] for fmt in FORMATS} for key in self.t}
        self.tuple_words = {fmt: [] for fmt in FORMATS}
        self.vector_words = {fmt: [] for fmt in FORMATS}
        self.attempted = self.failed = 0
        self.timed_s = 0.0

    def _in_root(self, fn, *args, **kwargs):
        with self.tracer.span(ROOT_SPAN) if self.tracer else nullcontext():
            return fn(*args, **kwargs)

    def _timed(self, fn, *args, key=None, fmt=None, **kwargs):
        """Scaled duration of one call (see :mod:`clock`)."""
        result, dt, raw = self.clock.time(self._in_root, fn, *args,
                                          **kwargs)
        self.timed_s += dt
        if key:
            self.t[key][fmt].append(dt)
            self.t_raw[key][fmt].append(raw)
        return result, dt

    def tasks(self) -> list:
        out = [lambda f=fmt, i=i: self._dot_tuple(f, i)
               for i in range(TUPLE_LANES) for fmt in FORMATS]
        out += [lambda f=fmt, r=r: self._fma(f, r)
                for r in range(self.fma_reps) for fmt in FORMATS]
        out += [lambda f=fmt: self._dot_vector(f)
                for _ in range(self.dot_reps) for fmt in FORMATS]
        return out

    def _dot_tuple(self, fmt: str, i: int) -> None:
        av, bv = self.inputs[fmt].tuple_lanes[i]
        r, _ = self._timed(batch.dot_batch, av, bv, self.units[fmt],
                           backend="tuple", key="dot_tup", fmt=fmt)
        self.tuple_words[fmt].append(fp_to_word(r))

    def _dot_vector(self, fmt: str) -> None:
        inp, unit = self.inputs[fmt], self.units[fmt]
        words, _ = self._timed(_dot_vector, unit, inp, key="dot_vec",
                               fmt=fmt)
        if self.check and not self.vector_words[fmt]:
            self.vector_words[fmt] = words
            self.attempted += len(words)
            self.failed += _check_dot(unit, inp, words)

    def _fma(self, fmt: str, rep: int) -> None:
        a, b, c = self.inputs[fmt].fma
        unit = self.units[fmt]
        vec, _ = self._timed(batch.fma_batch, a, b, c, unit,
                             backend="vector", key="fma_vec", fmt=fmt)
        tup, _ = self._timed(batch.fma_batch, a, b, c, unit,
                             backend="tuple", key="fma_tup", fmt=fmt)
        if rep == 0:
            vw, _ = self._timed(self._convert, vec)
            if self.check:
                self.attempted += 2 * len(vec)
                self.failed += _check_fma(unit, a, b, c, vw, _words(tup))

    def _convert(self, results) -> list:
        with (self.tracer.span("fma.convert.cs_to_ieee") if self.tracer
              else nullcontext()):
            return _words(results)

    def finish(self) -> dict:
        def rate(key: str, work: float, t=None) -> float:
            """Median over repeats of the pcs+fcs combined rate."""
            t = self.t if t is None else t
            pairs = zip(*(t[key][fmt] for fmt in FORMATS))
            return statistics.median(len(FORMATS) * work / sum(p)
                                     for p in pairs)

        if self.check:
            for fmt in FORMATS:
                # the tuple lanes are the first lanes of the vector call
                self.attempted += TUPLE_LANES
                self.failed += sum(
                    v != t for v, t in zip(self.vector_words[fmt],
                                           self.tuple_words[fmt]))
        dot_work = sum(int(self.inputs[f].lens.sum())
                       for f in FORMATS) / len(FORMATS)
        work = {"dot_vector_fma_per_s": ("dot_vec", dot_work),
                "dot_tuple_fma_per_s": ("dot_tup", DOT_STEPS),
                "fma_vector_per_s": ("fma_vec", FMA_LANES),
                "fma_tuple_per_s": ("fma_tup", FMA_LANES)}
        return {
            "metrics": {name: rate(key, n) for name, (key, n) in work.items()},
            "raw": {name: rate(key, n, self.t_raw)
                    for name, (key, n) in work.items()},
            "calls": {"dot_vector": self.dot_reps * len(FORMATS),
                      "dot_tuple": TUPLE_LANES * len(FORMATS),
                      "fma": self.fma_reps * len(FORMATS),
                      "convert": len(FORMATS)},
            "attempted": self.attempted, "failed": self.failed,
            "timed_s": self.timed_s}


def _check_dot(unit, inp, words) -> int:
    """The short vector lane against the faithful unit."""
    k = DOT_LANES - 1
    av = [word_to_fp(int(w)) for w in inp.a[:SHORT_LANE, k]]
    bv = [word_to_fp(int(w)) for w in inp.b[:SHORT_LANE, k]]
    return words[k] != fp_to_word(batch.dot_batch(av, bv, unit,
                                                  use_batch=False))


def _check_fma(unit, a, b, c, vec_words, tup_words) -> int:
    bad = sum(v != t for v, t in zip(vec_words, tup_words))
    step = len(a) // FAITHFUL_FMA_SAMPLE
    idx = range(0, len(a), step)
    ref = _words(batch.fma_batch([a[i] for i in idx], [b[i] for i in idx],
                                 [c[i] for i in idx], unit,
                                 use_batch=False))
    bad += sum(vec_words[i] != w for i, w in zip(idx, ref))
    return bad
