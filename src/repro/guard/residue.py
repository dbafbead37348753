"""Residue-code shadow checks threaded through the FMA datapaths.

The classic low-cost concurrent-error-detection scheme for multiply/add
structures is residue checking: alongside the wide datapath, a tiny
checker computes each value modulo ``2^k - 1`` and verifies that the
residues obey the same arithmetic identity as the full-width values
(``residue(b) * residue(c) + residue(a) == residue(result-pre-round)``),
because ``mod 2^k - 1`` commutes with addition and multiplication and a
single-bit flip always changes the residue (``2^i mod (2^k - 1)`` is a
power of two, never zero).

Two regimes appear in this model (docs/GUARD.md works the math):

* **Exact identities** -- where the datapath value equals the untruncated
  integer expression (the batch multiplier's no-overflow branch), the
  checker is pure residue arithmetic over the small moduli
  :data:`EXACT_MODULI` (mod-3 and mod-255, the textbook checkers).
* **Wrapped identities** -- the model multiplies directly into the
  ``(window - shift)`` modulus and the 3:2 / Carry Reduce stages mask
  carry-outs, so values are only conserved modulo ``2^w``.  Hardware
  residue checkers handle this with end-around-carry accumulation over
  the *unwrapped* CSA tree; the model's stand-in is the congruence check
  ``lhs === rhs (mod 2^w)``, which is the same identity the hardware
  checker certifies and is strictly stronger than any single residue.

Every check sits behind the module global :data:`ACTIVE`, with the same
one-load disabled fast path as :mod:`repro.probes` and
:mod:`repro.telemetry`; the hot kernels hoist it once per call.  The
checker state is per thread, armed through the fault probes'
:class:`~repro.probes.ThreadSwitch`: the hooks read the calling
thread's state from :data:`ACTIVE`, so a region checks only its own
thread's kernels.  A failed check raises :class:`GuardMismatch`, which
the SEU campaign classifies as *detected* and the
:class:`~repro.guard.voting.GuardedExecutor` treats as the trigger for
redundant re-execution.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, NoReturn

from ..probes import ThreadSwitch
from ..telemetry import core as _tm

__all__ = [
    "ACTIVE",
    "EXACT_MODULI",
    "GuardMismatch",
    "GuardState",
    "guard_active",
    "guarding",
    "lza_shadow",
    "residue",
    "zd_shadow",
]

#: Small mod-(2^k - 1) checker moduli for exact (unwrapped) identities:
#: k = 2 and k = 8, the classic mod-3 / mod-255 residue checkers.  A
#: single-bit flip of weight 2^i changes a value by +-2^i, and
#: 2^i mod (2^k - 1) cycles through powers of two -- never 0 -- so no
#: single flip is ever silent under either modulus.
EXACT_MODULI = (3, 255)


class GuardMismatch(Exception):
    """A concurrent-error check failed: the datapath value disagrees with
    its residue/recompute shadow.  Deliberately *not* an
    ``ArithmeticError`` so per-item arithmetic handlers in the serving
    and batch layers never swallow it as an ordinary operand error."""

    def __init__(self, stage: str, detail: str = ""):
        self.stage = stage
        self.detail = detail
        msg = f"guard mismatch at {stage}"
        super().__init__(f"{msg}: {detail}" if detail else msg)


def residue(x: int, m: int) -> int:
    """The mod-``m`` residue of ``x`` (negative values fold correctly)."""
    return x % m


class GuardState:
    """Mutable per-region checker state: check and mismatch counts.

    Check methods are written for the armed path only -- the disabled
    fast path never reaches them (callers test for a state first).
    """

    __slots__ = ("checks", "mismatches")

    def __init__(self):
        self.checks: dict[str, int] = {}
        self.mismatches: dict[str, int] = {}

    # -- accounting -----------------------------------------------------

    def _bump(self, table: dict[str, int], stage: str) -> None:
        table[stage] = table.get(stage, 0) + 1

    def _fail(self, stage: str, detail: str) -> NoReturn:
        self._bump(self.mismatches, stage)
        raise GuardMismatch(stage, detail)

    @property
    def total_checks(self) -> int:
        return sum(self.checks.values())

    @property
    def total_mismatches(self) -> int:
        return sum(self.mismatches.values())

    # -- datapath checks ------------------------------------------------

    def check_product(self, s: int, c: int, cv: int, sig: int,
                      width: int, exact: bool = False) -> None:
        """Verify the CS product pair against the operand residues.

        ``s + c`` must equal ``cv * sig`` -- exactly when the tree had no
        overflow (``exact=True``: pure mod-3/mod-255 residue arithmetic,
        the full product is never formed), otherwise modulo ``2^width``
        (the wrap the model's masked CSA tree computes under).
        """
        self._bump(self.checks, "product")
        if exact:
            for m in EXACT_MODULI:
                if (s + c) % m != ((cv % m) * (sig % m)) % m:
                    self._fail("product", f"mod-{m} residue")
        elif (s + c - cv * sig) & ((1 << width) - 1):
            self._fail("product", "mod-2^w congruence")

    def check_window(self, w_sum: int, w_carry: int, rows_sum: int,
                     width: int) -> None:
        """Window conservation: the CS pair after the 3:2 compressor and
        (for PCS) the Carry Reduce stage must still represent the sum of
        the input rows modulo ``2^width`` -- both stages conserve value
        under the window wrap, so any value-changing upset between the
        row registers and the collapsed window breaks the congruence."""
        self._bump(self.checks, "window")
        if (w_sum + w_carry - rows_sum) & ((1 << width) - 1):
            self._fail("window", "window conservation")

    def check_norm(self, skipped: int, shadow: int, selector: str) -> None:
        """Normalization shadow: the block-skip count chosen by the ZD /
        LZA must match an independent recompute (closed-form redundant
        sign bits for the ZD, a second anticipator pass for the LZA)."""
        self._bump(self.checks, "norm")
        if skipped != shadow:
            self._fail("norm", f"{selector} skip {skipped} != {shadow}")

    def check_slice(self, m_sum: int, m_carry: int, w_sum: int,
                    w_carry: int, lo: int, mant_mask: int,
                    carry_mask: int) -> None:
        """Result-slice shadow: the mantissa mux output must equal the
        window planes re-sliced at ``lo`` (an exact shift/mask)."""
        self._bump(self.checks, "slice")
        if (m_sum != (w_sum >> lo) & mant_mask
                or m_carry != (w_carry >> lo) & mant_mask & carry_mask):
            self._fail("slice", "mantissa slice")

    def check_equal(self, stage: str, got, want) -> None:
        """Generic duplicate-and-compare shadow (classic unit, structural
        artifact recompute)."""
        self._bump(self.checks, stage)
        if got != want:
            self._fail(stage, "recompute disagrees")


# ---------------------------------------------------------------------------
# normalization shadows: independent recomputes with no probe points


def zd_shadow(value: int, width: int, block: int, max_skip: int) -> int:
    """Closed form of the block Zero Detector's skip count.

    ``skipped = clamp((rsb - 1) // block, 0, max_skip)`` where ``rsb``
    counts the redundant leading sign bits of the collapsed window value
    -- the quantity :func:`repro.cs.zero_detect.count_skippable_blocks`
    searches for block by block (the batch kernel's equivalence).
    Deliberately re-derived here from the *value*, not the CS planes, so
    it shares no inputs with the ZD's probed block-class wires.
    """
    if value >> (width - 1):
        inv = value ^ ((1 << width) - 1)
        rsb = width if inv == 0 else width - inv.bit_length()
    else:
        rsb = width - value.bit_length()
    skipped = (rsb - 1) // block
    if skipped > max_skip:
        return max_skip
    return skipped if skipped > 0 else 0


def lza_shadow(a: int, b: int, width: int) -> int:
    """Second-opinion Schmookler/Nowka anticipator pass.

    Same indicator as :func:`repro.cs.lza.lza_estimate` but with no
    probe point and no telemetry -- a shadow latch of the anticipator's
    inputs, so an upset of the primary LZA's input registers shows up as
    a skip-count disagreement.
    """
    mask = (1 << width) - 1
    a &= mask
    b &= mask
    t = a ^ b
    g = a & b
    z = (~(a | b)) & mask
    t_up = t >> 1
    z_dn = ((z << 1) | 1) & mask
    g_dn = (g << 1) & mask
    f = (t_up & ((g & ~z_dn) | (z & ~g_dn))
         | (~t_up & mask) & ((z & ~z_dn) | (g & ~g_dn))) & mask
    f &= (1 << (width - 1)) - 1
    if f == 0:
        return width - 1 if width > 0 else 0
    est = width - 1 - (f.bit_length() - 1)
    return est if est > 0 else 0


# ---------------------------------------------------------------------------
# the arm: one global for the fast path, the checker state per thread


#: ``None`` while no thread is guarding (the one-load fast path every
#: datapath hook tests), else ``SWITCH.local``: its ``state`` is the
#: *calling* thread's :class:`GuardState`, ``None`` in the others
ACTIVE = None

SWITCH = ThreadSwitch(globals(), "ACTIVE", "residue guard")


def guard_active() -> bool:
    """True while the calling thread has the residue checkers armed."""
    return SWITCH.local.state is not None


@contextlib.contextmanager
def guarding() -> Iterator[GuardState]:
    """Arm the residue checkers in the calling thread for the duration of
    the context: a :meth:`~repro.probes.ThreadSwitch.region`, like
    :func:`repro.probes.armed`, so regions in different threads (the
    server's workers) overlap and never check each other's kernels.  On
    exit the tallies are flushed to telemetry as ``guard.checks.*`` /
    ``guard.mismatch.*`` counters.
    """
    state = GuardState()
    with SWITCH.region(state):
        try:
            yield state
        finally:
            t = _tm.ACTIVE
            if t is not None:
                for stage, n in state.checks.items():
                    t.count(f"guard.checks.{stage}", n)
                for stage, n in state.mismatches.items():
                    t.count(f"guard.mismatch.{stage}", n)
