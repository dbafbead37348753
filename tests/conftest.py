"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.fp import BINARY64, FPValue

# A leaner default profile so the full property suite stays fast; the
# invariants here are exercised with hundreds of examples each, which in
# practice has been enough to find every seeded bug.
#
# ``function_scoped_fixture`` is suppressed because the autouse
# ``isolate_process_state`` fixture below runs around every test,
# including @given ones; it resets process-global state once per test
# function (not per example), which is exactly the intent.
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def isolate_process_state(tmp_path, monkeypatch):
    """Order-independence guard: no test leaks process-global state.

    Three pieces of module-level state previously made test outcomes
    depend on execution order:

    * the ``lru_cache`` memos behind :func:`repro.hw` lookups -- a test
      monkeypatching a device model could poison every later reader, and
      cache-stat assertions depended on who warmed the cache first;
    * the conformance :class:`ResultCache` default directory -- a shared
      on-disk cache made sweep results bleed between tests (and between
      whole pytest runs);
    * the ``repro.probes`` / ``repro.telemetry`` / ``repro.guard`` arming
      globals -- a test failing mid-``collecting`` region would leave
      instrumentation armed for the rest of the session.  The guard's
      checker state is per thread, but its global is set while *any*
      thread holds a region, so the check sees an arm left by any
      thread.

    Each test now starts cold: hw memos cleared (re-warm is
    sub-millisecond), the cache dir pointed into ``tmp_path``, and the
    arming globals verified clean before *and* after.  A test that leaks
    an armed collector fails itself rather than corrupting its
    successors.
    """
    from repro import probes
    from repro.batch.memo import clear_hw_caches
    from repro.guard import residue as _gd_core
    from repro.telemetry import core as _tm_core

    clear_hw_caches()
    monkeypatch.setenv("REPRO_CONFORMANCE_CACHE",
                       str(tmp_path / "conformance-cache"))
    assert probes.ARMED is None, "previous test leaked armed probes"
    assert _tm_core.ACTIVE is None, "previous test leaked telemetry"
    assert _gd_core.ACTIVE is None, "previous test leaked an armed guard"
    yield
    leaked_probes = probes.ARMED is not None
    leaked_tm = _tm_core.ACTIVE is not None
    leaked_gd = _gd_core.ACTIVE is not None
    probes.ARMED = None
    _tm_core.ACTIVE = None
    _gd_core.ACTIVE = None
    _gd_core._OPEN.clear()
    _gd_core._ARM.state = None
    assert not leaked_probes, "test leaked armed probes"
    assert not leaked_tm, "test leaked an active telemetry collector"
    assert not leaked_gd, "test leaked an armed residue guard"


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@st.composite
def normal_doubles(draw, min_exp: int = -900, max_exp: int = 900):
    """Finite normal binary64 values with bounded exponent.

    The exponent bound keeps products/sums inside the normal range so
    tests don't conflate flush-to-zero/overflow policy with the property
    under test (separate tests cover those edges).
    """
    sign = draw(st.booleans())
    exp = draw(st.integers(min_exp, max_exp))
    frac = draw(st.integers(0, (1 << 52) - 1))
    x = math.ldexp(1.0 + frac / (1 << 52), exp)
    return -x if sign else x


@st.composite
def normal_fpvalues(draw, min_exp: int = -900, max_exp: int = 900):
    return FPValue.from_float(draw(normal_doubles(min_exp, max_exp)),
                              BINARY64)


@st.composite
def cs_words(draw, max_width: int = 128):
    """(sum, carry, width) triples for CSNumber construction."""
    width = draw(st.integers(2, max_width))
    s = draw(st.integers(0, (1 << width) - 1))
    c = draw(st.integers(0, (1 << width) - 1))
    return s, c, width
