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
    * the three arm switches -- ``repro.probes.ARMED``,
      ``repro.guard.residue.ACTIVE`` and ``repro.telemetry.core.ACTIVE``
      -- a test failing mid-region would leave instrumentation armed for
      the rest of the session.  Probes and the guard arm per thread
      through a :class:`repro.probes.ThreadSwitch`, whose flag is set
      while *any* thread holds a region, so the check sees an arm left
      by any thread.

    Each test now starts cold: hw memos cleared (re-warm is
    sub-millisecond), the cache dir pointed into ``tmp_path``, and the
    arm switches checked and reset before *and* after, in one loop.  A
    test that leaks an armed switch fails itself rather than corrupting
    its successors.
    """
    from repro import probes
    from repro.batch.memo import clear_hw_caches
    from repro.guard import residue as _gd_core

    clear_hw_caches()
    monkeypatch.setenv("REPRO_CONFORMANCE_CACHE",
                       str(tmp_path / "conformance-cache"))
    switches = {"armed probes": probes.SWITCH.reset,
                "an armed residue guard": _gd_core.SWITCH.reset,
                "an active telemetry collector": _reset_telemetry}
    leaked = [what for what, reset in switches.items() if reset()]
    assert not leaked, f"previous test leaked {', '.join(leaked)}"
    yield
    leaked = [what for what, reset in switches.items() if reset()]
    assert not leaked, f"test leaked {', '.join(leaked)}"


def _reset_telemetry() -> bool:
    """Disarm the process-wide collector; True if one was armed."""
    from repro.telemetry import core

    armed, core.ACTIVE = core.ACTIVE is not None, None
    return armed


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
