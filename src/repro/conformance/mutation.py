"""Mutation smoke-checks: prove the conformance harness has teeth.

A differential harness that never fires is indistinguishable from one
that cannot fire.  This module injects *known single-bit faults* into
the fast CS datapath (:class:`repro.batch.cskernel.FastCSKernel` and the
window stages of :mod:`repro.batch.stages`) and the runner then asserts
the sweep reports wrong results.  If a registered fault survives a sweep
undetected, the harness -- not the datapath -- is broken.

Faults are applied by monkey-patching a class inside a context manager
(the worker applies it per shard and always restores, because pool
processes are reused).  The kernel memo table is cleared on both entry
and exit so no pre-built clean kernel leaks into a mutated run or vice
versa.

Registered faults
-----------------
``carry-chunk-boundary``
    Flips the mid-window marker bit of the Carry Reduce constant ``H``
    of :class:`~repro.batch.stages.IntLanes` (and recomputes ``notH``):
    two adjacent 11-bit chunks in the product region merge, so their
    chunk carry propagates instead of being re-emitted as an explicit
    carry bit.  The lane engine splits the tuple kernel's constants into
    digits, so both engines run the mutated Carry Reduce.  PCS only --
    the FCS unit has no Carry Reduce stage, exactly like the hardware.
``mant-lsb``
    XORs bit 0 into the mantissa sum word of every normal result -- a
    stuck-at fault on the result bus, the loudest possible mutant.
``round-data-drop``
    Zeroes the rounding-data carry word: silently degrades the deferred
    rounding information a downstream fused consumer would use.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from ..batch import cskernel
from ..batch.cskernel import CS_NORMAL, FastCSKernel
from ..batch.stages import IntLanes

__all__ = ["MUTATIONS", "injected", "mutation_units"]


def _patch_carry_chunk() -> dict:
    orig_init = IntLanes.__init__

    def init(self, width, spacing):
        orig_init(self, width, spacing)
        # the marker nearest mid-window: inside the product span, where
        # chunk carries are actually generated (the lowest chunks sit
        # below the product anchor and stay silent)
        bit = 1 << (spacing - 1 + spacing * ((width // 2) // spacing))
        if not self.H & bit:
            bit = self.H & -self.H
        self.H ^= bit
        self.notH = self.H ^ self.mask

    IntLanes.__init__ = init
    return {(IntLanes, "__init__"): orig_init}


def _wrap_fma(edit) -> dict:
    """Pass every result of :meth:`FastCSKernel.fma` through ``edit``,
    whatever arguments the caller passes."""
    orig_fma = FastCSKernel.fma

    def fma(self, *args, **kwargs):
        return edit(orig_fma(self, *args, **kwargs))

    FastCSKernel.fma = fma
    return {(FastCSKernel, "fma"): orig_fma}


def _mant_lsb(r: tuple) -> tuple:
    if r[0] == CS_NORMAL:
        return (r[0], r[1], r[2] ^ 1, r[3], r[4], r[5], r[6])
    return r


def _round_drop(r: tuple) -> tuple:
    if r[0] == CS_NORMAL and r[5]:
        return (r[0], r[1], r[2], r[3], r[4], 0, r[6])
    return r


#: name -> (patch function, units the fault is observable on); a patch
#: returns ``{(owner, attribute): original}`` for the restore
MUTATIONS = {
    "carry-chunk-boundary": (_patch_carry_chunk, ("pcs",)),
    "mant-lsb": (lambda: _wrap_fma(_mant_lsb), ("pcs", "fcs")),
    "round-data-drop": (lambda: _wrap_fma(_round_drop), ("pcs", "fcs")),
}


def mutation_units(name: str) -> tuple[str, ...]:
    """The FMA units on which ``name``'s fault is observable."""
    return MUTATIONS[name][1]


@contextlib.contextmanager
def injected(name: str) -> Iterator[None]:
    """Apply one registered fault to the fast datapath for the duration.

    Clears the process-wide kernel memo on entry *and* exit so clean and
    mutated kernels never mix; restores the patched attributes even when
    the body raises.
    """
    try:
        patch, _ = MUTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutation {name!r}; registered: "
            f"{sorted(MUTATIONS)}") from None
    saved_kernels = dict(cskernel._KERNELS)
    cskernel._KERNELS.clear()
    originals = patch()
    try:
        yield
    finally:
        for (owner, attr), value in originals.items():
            setattr(owner, attr, value)
        cskernel._KERNELS.clear()
        cskernel._KERNELS.update(saved_kernels)
