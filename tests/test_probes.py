"""Fault probes arm per thread.

``probes.armed`` arms through the same :class:`repro.probes.ThreadSwitch`
as the residue guard: a region held in one thread neither fires its
:class:`~repro.probes.Arm` in another thread's kernels nor sends that
thread's vector work to the tuple kernel (the guard's contract,
``tests/test_guard_residue.py::TestArming``).
"""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro import probes
from repro.batch import fma_batch, select_engine
from repro.fma.csfma import PcsFmaUnit
from repro.fp import BINARY64, FPValue
from repro.telemetry import collecting


@contextlib.contextmanager
def held_elsewhere(arms):
    """Hold ``probes.armed(arms)`` in a helper thread for the duration."""
    held, release = threading.Event(), threading.Event()
    errors = []

    def hold():
        try:
            with probes.armed(arms):
                held.set()
                release.wait(10)
        except Exception as exc:  # surfaced below
            errors.append(exc)
            held.set()

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(10)
        assert errors == []
        yield
    finally:
        release.set()
        holder.join(10)
    assert errors == []


def operands():
    return [FPValue.from_float(1.0 + i / 64, BINARY64) for i in range(64)]


def test_another_threads_arm_does_not_reroute_this_thread():
    with held_elsewhere({"test.never-fired": probes.Arm(lambda v: v)}):
        assert probes.ARMED is not None        # the one-load flag is up
        with collecting() as t:
            engine = select_engine("fma", 4096, "vector")
    assert engine == "vector"
    assert "batch.vector.fallback.armed-probes" not in t.snapshot().counters


def test_another_threads_arm_does_not_fire_in_this_thread():
    unit, xs = PcsFmaUnit(), operands()
    plain = fma_batch(xs, xs, xs, unit=unit, backend="tuple")
    arm = probes.Arm(lambda v: (v[0] ^ 1, v[1]))
    with held_elsewhere({"batch.product": arm}):
        got = fma_batch(xs, xs, xs, unit=unit, backend="tuple")
    assert arm.calls == 0
    assert got == plain
    # the same arm held in this thread does reach the site
    with probes.armed({"batch.product": arm}):
        fma_batch(xs, xs, xs, unit=unit, backend="tuple")
    assert arm.calls == len(xs) and arm.hits == 1


def test_regions_in_two_threads_overlap():
    inside = threading.Barrier(2, timeout=5)
    errors = []

    def hold():
        try:
            with probes.armed({}):
                inside.wait()              # both threads hold a region
                inside.wait()
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=hold) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(30)
    assert errors == []
    assert probes.ARMED is None


def test_nested_region_raises_while_another_thread_holds_one():
    with held_elsewhere({}):
        with probes.armed({}):
            with pytest.raises(RuntimeError, match="already armed"):
                with probes.armed({}):
                    pass
        assert probes.ARMED is not None        # the helper still holds
    assert probes.ARMED is None
