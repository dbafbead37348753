"""Shared helpers for the SEU campaign tests (baseline and guarded)."""

from __future__ import annotations

from repro.faults import campaign


def fail_one_pool_slice(monkeypatch, index: int = 1) -> None:
    """Make the campaign's pool report slice ``index`` as permanently
    failed (a worker that died on every attempt), whatever it computed."""
    real = campaign.run_resilient

    def flaky(fn, payloads, **kwargs):
        run = real(fn, payloads, **kwargs)
        lost = run.results[index]
        lost.ok, lost.value = False, None
        lost.error = {"kind": "worker-died"}
        return run

    monkeypatch.setattr(campaign, "run_resilient", flaky)
