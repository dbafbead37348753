"""The shared window stages of :mod:`repro.batch.stages`, on both lane
types.

Each stage is written once, against a lane type.  This module pins that
the tuple kernel's lane type (:class:`IntLanes`, one Python int per
window) and the lane engine's (the :class:`VectorCSKernel` itself,
``uint64`` digit planes) give the same result, window for window, on the
paper's geometries and on the off-paper ones of
``test_fma_parametrized`` -- and that the int lanes agree with the
independent models: :func:`repro.cs.csa.csa3`,
:func:`repro.cs.adders.carry_reduce`, the residue guard's ``zd_shadow``
and :func:`repro.cs.lza.lza_estimate`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import vector_kernel_for
from repro.batch.stages import carry_reduce, csa, lza_skip, zd_skip
from repro.cs.adders import carry_reduce as faithful_carry_reduce
from repro.cs.csa import csa3
from repro.cs.csnumber import CSNumber
from repro.cs.lza import lza_estimate
from repro.fma import CSFmaUnit, FcsFmaUnit, PcsFmaUnit
from repro.guard.residue import zd_shadow
from test_fma_parametrized import VARIANTS

UNITS = {u.params.name: u for u in [PcsFmaUnit(), FcsFmaUnit()] + [
    CSFmaUnit(p, selector=sel, use_carry_reduce=red)
    for p, sel, red in VARIANTS]}
assert set(UNITS) == {"pcs", "fcs", "pcs-sp", "fcs-wide", "pcs-dense"}


def to_planes(params, xs: list) -> np.ndarray:
    """Windows as ``(n, window_blocks)`` digit planes."""
    m = (1 << params.block) - 1
    return np.array([[(x >> (params.block * i)) & m
                      for i in range(params.window_blocks)] for x in xs],
                    np.uint64)


def to_ints(params, planes: np.ndarray) -> list:
    return [sum(int(d) << (params.block * i) for i, d in enumerate(row))
            for row in planes]


def windows(width: int, n: int):
    """``n`` windows: zero, all ones, either side of the sign boundary,
    or random bits."""
    mask = (1 << width) - 1
    edges = st.sampled_from([0, mask, 1 << (width - 1),
                             (1 << (width - 1)) - 1])
    return st.lists(st.one_of(edges, st.integers(0, mask)),
                    min_size=n, max_size=n)


def max_skip(params) -> int:
    return params.window_blocks - params.mant_blocks


@pytest.mark.parametrize("name", sorted(UNITS))
@settings(max_examples=40)
@given(data=st.data())
def test_both_lane_types_agree_stage_by_stage(name, data):
    params = UNITS[name].params
    planes = vector_kernel_for(UNITS[name])
    ints = planes.kernel.lanes
    W, block, top = params.window_width, params.block, max_skip(params)
    n = data.draw(st.integers(1, 6))
    x, y, z = (data.draw(windows(W, n)) for _ in range(3))
    X, Y, Z = (to_planes(params, v) for v in (x, y, z))

    s, c = csa(planes, X, Y, Z)
    want = [csa(ints, *w) for w in zip(x, y, z)]
    assert list(zip(to_ints(params, s), to_ints(params, c))) == want
    assert want == [(s3, c3 & ints.mask) for s3, c3 in
                    (csa3(*w) for w in zip(x, y, z))]

    s, c = carry_reduce(planes, X, Y)
    want = [carry_reduce(ints, *w) for w in zip(x, y)]
    assert list(zip(to_ints(params, s), to_ints(params, c))) == want
    for (u, v), (rs, rc) in zip(zip(x, y), want):
        ref = faithful_carry_reduce(CSNumber(u, v, W), params.carry_spacing)
        assert (rs, rc) == (ref.sum, ref.carry & ints.mask)

    got = zd_skip(planes, X, block, top).tolist()
    assert got == [zd_skip(ints, v, block, top) for v in x]
    assert got == [zd_shadow(v, W, block, top) for v in x]

    got = lza_skip(planes, X, Y, block, top).tolist()
    assert got == [lza_skip(ints, u, v, block, top) for u, v in zip(x, y)]
    assert got == [min(max(lza_estimate(u, v, W) - 1, 0) // block, top)
                   for u, v in zip(x, y)]
