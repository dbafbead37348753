"""Transient-fault (SEU) injection campaigns and resilient execution.

Two coupled halves:

* :mod:`repro.faults.campaign` + :mod:`repro.faults.sites` -- the SEU
  campaign engine: named fault sites across the PCS/FCS datapaths, the
  batch SWAR engine, the packed operand buses and the structural
  artifacts (netlists, pipelines, schedules); deterministic seeded
  injection plans; differential classification into masked / detected /
  silent-data-corruption with a per-site, per-stage coverage report.
* :mod:`repro.faults.resilient` -- the shared resilient executor
  (timeouts, bounded retry with backoff, broken-pool respawn, serial
  degradation) used by the conformance sweep, the experiment driver and
  the campaign itself.

Run a campaign with ``python -m repro.faults``; see ``docs/FAULTS.md``.
"""

from importlib import import_module

from .resilient import ResilientRun, RetryPolicy, WorkResult, run_resilient

#: the campaign half's names, by module, imported on first use: a user
#: of the resilient executor alone (the serving layer) loads neither the
#: campaign engine nor the conformance sweep it imports
_LAZY = {**dict.fromkeys(("CampaignConfig", "plan_injections",
                          "run_injection", "run_campaign", "aggregate",
                          "render_text", "load_checkpoint"), "campaign"),
         **dict.fromkeys(("FaultSite", "SITES", "SITE_CLASSES",
                          "select_sites", "flip_word", "make_transform"),
                         "sites")}

__all__ = [*_LAZY, "RetryPolicy", "WorkResult", "ResilientRun",
           "run_resilient"]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
