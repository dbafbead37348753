"""Concurrent error detection and correction (CED) for the FMA datapaths.

``repro.faults`` *measures* silent data corruption; this package
*defends* against it at runtime:

* :mod:`repro.guard.residue` -- residue-code shadow checks armed per
  thread behind one ``ACTIVE`` global (one load while no thread is
  guarding), run alongside the scalar CS-FMA stages and the batch SWAR
  lanes;
* :mod:`repro.guard.voting` -- the :class:`GuardedExecutor`:
  redundant execution with majority voting on residue mismatch or in
  DMR/TMR mode, classifying every outcome as ``clean`` / ``corrected``
  / ``uncorrectable`` (uncorrectable results are rejected, never
  returned as data);
* :mod:`repro.guard.campaign` -- closed-loop validation: the SEU
  campaign engine of :mod:`repro.faults.campaign` run with a guarded
  per-injection evaluator, producing a baseline-vs-guarded
  detection-coverage report (``python -m repro.guard``).

The datapath modules import :mod:`repro.guard.residue` (and therefore
this ``__init__``) at module load, so only the dependency-light residue
layer is imported eagerly here; the voting/campaign layers -- which pull
in :mod:`repro.faults` and would close an import cycle back into the
datapaths -- load lazily on first attribute access (the
``repro.experiments`` pattern).

See ``docs/GUARD.md`` for the residue math and the escalation ladder.
"""

from .residue import GuardMismatch, GuardState, guard_active, guarding

__all__ = [
    "GuardMismatch",
    "GuardState",
    "GuardedExecutor",
    "GuardedOutcome",
    "GuardPolicy",
    "guard_active",
    "guarding",
]

_LAZY = {"GuardedExecutor": "voting", "GuardedOutcome": "voting",
         "GuardPolicy": "voting"}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    import importlib

    return getattr(importlib.import_module(f".{mod}", __name__), name)
