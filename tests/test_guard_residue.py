"""Residue shadow checkers: invariants, coverage, and transparency.

Two property suites anchor the CED layer's detection story:

* **residue invariant** -- on a clean (uninjected) datapath the armed
  checkers never flag, they actually run (checks are tallied), and the
  guarded result is bit-identical to the unguarded one: observation is
  free of side effects;
* **single-bit coverage** -- a single-bit transient injected at any
  residue-covered data site is *flagged or masked, never silent*: the
  run either raises :class:`GuardMismatch` (or trips a format/assert
  boundary, which the executor also treats as not-a-vote), or the
  user-visible IEEE value is unchanged from the oracle.

Plus direct unit tests of the primitives: the mod-(2^k - 1) flip
theorem behind :data:`EXACT_MODULI`, the ZD/LZA shadows, record-only
mode, and the arm global's fast path / telemetry flush.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import assume, given, strategies as st

from repro import probes
from repro.batch import fma_batch, select_engine
from repro.fma import FcsFmaUnit, PcsFmaUnit, cs_to_ieee, ieee_to_cs
from repro.fma.classic import ClassicFmaUnit
from repro.fma.formats import FCS_PARAMS, PCS_PARAMS
from repro.fp import BINARY64, FPValue
from repro.guard import residue as gd
from repro.guard.residue import (EXACT_MODULI, GuardConfig, GuardMismatch,
                                 GuardState, guard_active, guarding,
                                 lza_shadow, residue, zd_shadow)
from repro.faults.sites import SITES, make_transform, params_for_unit
from repro.probes import Arm, armed
from repro.telemetry import collecting

from conftest import normal_fpvalues

# arming is process-global: keep these away from concurrent runners
pytestmark = pytest.mark.serial

SCALAR_UNITS = {"classic": ClassicFmaUnit(BINARY64),
                "pcs": PcsFmaUnit(), "fcs": FcsFmaUnit()}


def scalar_fma(name, a, b, c):
    unit = SCALAR_UNITS[name]
    if name == "classic":
        return unit.fma(a, b, c)
    return unit.fma(ieee_to_cs(a, unit.params), b,
                    ieee_to_cs(c, unit.params))


def batch_fma(name, a, b, c):
    from repro.batch.cskernel import kernel_for

    kernel = kernel_for(SCALAR_UNITS[name])
    return kernel, kernel.fma(kernel.lift_ieee(a), kernel.lift_b(b),
                              kernel.lift_ieee(c))


def ieee_same(x, y) -> bool:
    """User-visible equality of two IEEE values (what SDC is measured
    against: class, sign, and -- for normals -- exponent/fraction)."""
    if x.cls != y.cls or x.sign != y.sign:
        return False
    if x.is_normal:
        return (x.biased_exponent == y.biased_exponent
                and x.fraction == y.fraction)
    return True


# -- the residue invariant --------------------------------------------------


@pytest.mark.parametrize("unit", ["classic", "pcs", "fcs"])
class TestResidueInvariant:
    @given(a=normal_fpvalues(-200, 200), b=normal_fpvalues(-200, 200),
           c=normal_fpvalues(-200, 200))
    def test_clean_scalar_datapath_never_flags(self, unit, a, b, c):
        reference = scalar_fma(unit, a, b, c)
        with guarding() as state:
            guarded = scalar_fma(unit, a, b, c)
        assert state.total_mismatches == 0
        assert state.records == []
        assert state.total_checks >= 1      # the shadows actually ran
        assert guarded == reference         # ...without touching the value

    @given(a=normal_fpvalues(-200, 200), b=normal_fpvalues(-200, 200),
           c=normal_fpvalues(-200, 200))
    def test_clean_batch_lanes_never_flag(self, unit, a, b, c):
        if unit == "classic":
            pytest.skip("no batch kernel for the classic unit")
        _, reference = batch_fma(unit, a, b, c)
        with guarding() as state:
            _, guarded = batch_fma(unit, a, b, c)
        assert state.total_mismatches == 0
        assert state.total_checks >= 1
        assert guarded == reference


# -- single-bit coverage ----------------------------------------------------

DATA_SITES = sorted(s.name for s in SITES.values() if s.kind == "data")


class TestSingleBitCoverage:
    @pytest.mark.parametrize("site_name", DATA_SITES)
    @given(frac=st.floats(0.0, 1.0, exclude_max=True,
                          allow_nan=False, allow_infinity=False),
           a=normal_fpvalues(-60, 60), b=normal_fpvalues(-60, 60),
           c=normal_fpvalues(-60, 60))
    def test_flip_is_flagged_or_masked_never_silent(self, site_name,
                                                    frac, a, b, c):
        site = SITES[site_name]
        params = params_for_unit(site.unit)
        if site.site_class == "batch":
            kernel, golden = batch_fma(site.unit, a, b, c)

            def work():
                _, got = batch_fma(site.unit, a, b, c)
                return cs_to_ieee(kernel.lower(got))

            oracle = cs_to_ieee(kernel.lower(golden))
        else:
            golden = scalar_fma(site.unit, a, b, c)

            def work():
                return cs_to_ieee(scalar_fma(site.unit, a, b, c))

            oracle = cs_to_ieee(golden)
        arm = Arm(make_transform(site, (frac,), params))
        flagged = False
        got = None
        with armed({site.tag: arm}):
            try:
                with guarding():
                    got = work()
            except GuardMismatch:
                flagged = True
            except Exception:
                # a format/validity boundary rejected the corrupt value:
                # detected, just not by a residue check
                flagged = True
        assume(arm.hits > 0)                # the fault actually landed
        if not flagged:
            assert ieee_same(got, oracle), (
                f"silent corruption at {site.name}: {got} != {oracle}")


# -- checker primitives -----------------------------------------------------


class TestPrimitives:
    @given(i=st.integers(0, 512))
    def test_no_single_flip_is_silent_under_exact_moduli(self, i):
        """The flip theorem: 2^i mod (2^k - 1) cycles through powers of
        two and never hits 0, so a one-bit upset always moves at least
        one of the mod-3/mod-255 residues."""
        assert any((1 << i) % m != 0 for m in EXACT_MODULI)
        # stronger: each modulus individually never absorbs a flip
        for m in EXACT_MODULI:
            assert (1 << i) % m != 0

    @given(x=st.integers(-(1 << 80), 1 << 80), m=st.sampled_from((3, 255)))
    def test_residue_folds_negatives(self, x, m):
        assert residue(x, m) == x % m
        assert 0 <= residue(x, m) < m

    @given(s=st.integers(0, (1 << 64) - 1), c=st.integers(0, (1 << 64) - 1),
           cv=st.integers(0, (1 << 30) - 1), sig=st.integers(0, (1 << 30) - 1))
    def test_check_product_exact_accepts_true_identities(self, s, c, cv,
                                                         sig):
        state = GuardState()
        # a true identity never flags...
        state.check_product(cv * sig - c if cv * sig >= c else 0,
                            c if cv * sig >= c else cv * sig,
                            cv, sig, 64, exact=True)
        assert state.total_mismatches == 0

    def test_check_product_flags_each_modulus(self):
        state = GuardState(GuardConfig(record_only=True))
        state.check_product(3 * 5 + 1, 0, 3, 5, 64, exact=True)  # mod-3 ok
        assert state.mismatches == {"product": 1}

    @given(v=st.integers(0, (1 << 96) - 1))
    def test_zd_shadow_matches_block_zero_detector(self, v):
        from repro.cs.csnumber import CSNumber
        from repro.cs.zero_detect import count_skippable_blocks

        width, block, max_skip = 96, 8, 9
        assert zd_shadow(v, width, block, max_skip) == \
            count_skippable_blocks(CSNumber(v, 0, width), block, max_skip)

    @given(a=st.integers(0, (1 << 64) - 1), b=st.integers(0, (1 << 64) - 1))
    def test_lza_shadow_matches_primary_lza(self, a, b):
        from repro.cs.lza import lza_estimate

        assert lza_shadow(a, b, 64) == lza_estimate(a, b, 64)

    def test_record_only_collects_instead_of_raising(self):
        state = GuardState(GuardConfig(record_only=True, max_records=2))
        for _ in range(4):
            state.check_equal("norm", 1, 2)
        assert state.total_checks == 4
        assert state.mismatches == {"norm": 4}
        assert len(state.records) == 2          # capped
        assert state.records[0] == {"stage": "norm",
                                    "detail": "recompute disagrees"}

    def test_mismatch_raises_with_stage(self):
        state = GuardState()
        with pytest.raises(GuardMismatch) as exc:
            state.check_window(1, 1, 3, 8)
        assert exc.value.stage == "window"
        # deliberately NOT ArithmeticError: per-item arithmetic handlers
        # must never swallow a guard flag as an operand error
        assert not isinstance(exc.value, ArithmeticError)


# -- the arm global ---------------------------------------------------------


class TestArming:
    def test_fast_path_is_one_load(self):
        assert gd.ACTIVE is None
        assert not guard_active()
        with guarding() as state:
            assert gd.ACTIVE.state is state
            assert guard_active()
        assert gd.ACTIVE is None

    def test_nested_region_raises(self):
        with guarding():
            with pytest.raises(RuntimeError, match="already armed"):
                with guarding():
                    pass
        assert gd.ACTIVE is None

    def test_other_threads_run_unguarded(self):
        # a region held by another thread neither diverts this thread's
        # batches to the tuple kernel nor collects its checks
        held, release = threading.Event(), threading.Event()
        states = []

        def hold():
            with guarding() as state:
                states.append(state)
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(10)
            with collecting() as t:
                engine = select_engine("fma", 4096, "vector")
            assert engine == "vector"
            assert "batch.vector.fallback.armed-guard" not in \
                t.snapshot().counters
            xs = [FPValue.from_float(1.0 + i / 64, BINARY64)
                  for i in range(64)]
            fma_batch(xs, xs, xs, unit=PcsFmaUnit(), backend="tuple")
            assert states[0].checks == {}
            assert not guard_active()
        finally:
            release.set()
            holder.join(10)
        assert gd.ACTIVE is None

    def test_regions_in_two_threads_overlap(self):
        # both threads hold a region at once (neither waits for the
        # other) and each counts only its own kernel's checks
        inside = threading.Barrier(2, timeout=5)
        checks, errors = {}, []
        unit = PcsFmaUnit()
        a = ieee_to_cs(FPValue.from_float(1.5, BINARY64), unit.params)
        b = FPValue.from_float(2.0, BINARY64)

        def guarded(name, fmas):
            try:
                with guarding() as state:
                    inside.wait()
                    for _ in range(fmas):
                        unit.fma(a, b, a)
                    inside.wait()
                checks[name] = state.total_checks
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(n, k))
                   for n, k in (("one", 1), ("two", 2))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(30)
        assert errors == []
        assert checks["two"] == 2 * checks["one"] > 0
        assert gd.ACTIVE is None

    def test_disarms_after_exception(self):
        with pytest.raises(RuntimeError):
            with guarding():
                raise RuntimeError("boom")
        assert gd.ACTIVE is None

    def test_tallies_flush_to_telemetry(self):
        with collecting() as t:
            with guarding() as state:
                state.check_window(1, 0, 1, 8)           # clean
                try:
                    state.check_window(1, 1, 3, 8)       # flags
                except GuardMismatch:
                    pass
        counters = t.snapshot().counters
        assert counters["guard.checks.window"] == 2
        assert counters["guard.mismatch.window"] == 1

    def test_probes_do_not_imply_guarding(self):
        # arming faults must not arm the checkers, and vice versa
        arm = Arm(lambda v: v)
        with armed({"unused.tag": arm}):
            assert gd.ACTIVE is None
        with guarding():
            assert probes.ARMED is None
