"""Shared helpers for the SEU campaign tests (baseline and guarded)."""

from __future__ import annotations

from repro.faults import campaign


def fail_one_pool_slice(monkeypatch, index: int = 1) -> None:
    """Make the campaign's pool report slice ``index`` as permanently
    failed (a worker that died on every attempt), whatever it computed.

    The failure is applied in the run's per-item hook, before the
    campaign's own hook sees the result, so the campaign has to finish
    the slice inline just as it would after a real pool failure."""
    real = campaign.run_resilient

    def flaky(fn, payloads, *, on_result, **kwargs):
        def fail_then_keep(res):
            if res.index == index:
                res.ok, res.value = False, None
                res.error = {"kind": "worker-died"}
            on_result(res)

        return real(fn, payloads, on_result=fail_then_keep, **kwargs)

    monkeypatch.setattr(campaign, "run_resilient", flaky)
