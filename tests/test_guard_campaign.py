"""Detection-coverage campaign: the SEU plan re-run under the guard.

The acceptance drill is the issue's closed loop: the seeded 500-injection
campaign (seed 20260806) whose baseline lets 165 corruptions through
must, with the guard armed, reduce SDC-to-user by at least 10x -- and
every ``corrected`` result must be bit-identical to the uninjected
oracle.  Determinism mirrors the baseline campaign: byte-identical
reports across repeats and across serial vs parallel execution.
"""

from __future__ import annotations

import json

import pytest

from repro import probes
from repro.faults.campaign import CampaignConfig, plan_injections
from repro.faults.sites import SITES, select_sites
from repro.guard import residue as gd
from repro.guard.campaign import (GUARD_STATUSES, _policy_for,
                                  render_guarded_text,
                                  run_guarded_campaign,
                                  run_guarded_injection)
from repro.guard.voting import GuardPolicy

from _faults_util import fail_one_pool_slice

# pools / armed collectors are process-global: never run
# these concurrently with other tests (xdist, future runners)
pytestmark = pytest.mark.serial

ACCEPT = CampaignConfig(seed=20260806, injections=500)
SMALL = CampaignConfig(seed=11, injections=66, operands=8)


def _dumps(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


@pytest.fixture(scope="module")
def acceptance_report():
    return run_guarded_campaign(ACCEPT)


class TestAcceptance:
    def test_sdc_reduction_floor(self, acceptance_report):
        cov = acceptance_report["coverage"]
        assert cov["baseline_sdc"] >= 100      # the hazard is real
        # the issue's bar: >= 10x fewer corruptions reach the user
        assert cov["guarded_sdc"] * 10 <= cov["baseline_sdc"]
        if cov["guarded_sdc"]:
            assert cov["reduction_factor"] >= 10
        else:
            assert cov["reduction_factor"] is None

    def test_corrected_results_are_bit_identical_to_oracle(
            self, acceptance_report):
        t = acceptance_report["totals"]
        assert t["corrected"] > 0
        assert t["corrected"] == t["corrected_exact"]

    def test_uncorrectable_never_counts_as_user_sdc(self,
                                                    acceptance_report):
        # rejection is not corruption: per-site user-sdc + corrected +
        # clean + uncorrectable must cover every injection
        for name, b in acceptance_report["sites"].items():
            assert (b["clean"] + b["corrected"] + b["uncorrectable"]
                    == b["injections"]), name

    def test_every_class_is_covered(self, acceptance_report):
        assert set(acceptance_report["classes"]) == {
            "pcs", "fcs", "batch", "structural"}
        for bucket in acceptance_report["classes"].values():
            assert bucket["injections"] > 0
            assert 0.0 <= bucket["guarded_sdc_rate"] \
                <= bucket["baseline_sdc_rate"] + 1e-9

    def test_nothing_left_armed(self, acceptance_report):
        assert probes.ARMED is None
        assert gd.ACTIVE is None


class TestDeterminism:
    def test_report_reproducible_byte_for_byte(self):
        assert _dumps(run_guarded_campaign(SMALL)) == \
            _dumps(run_guarded_campaign(SMALL))

    def test_parallel_report_matches_serial(self):
        serial = run_guarded_campaign(SMALL)
        par = run_guarded_campaign(SMALL, workers=2, chunk=16)
        res = par.pop("resilience")
        assert res["failed"] == []
        assert _dumps(serial) == _dumps(par)


    def test_failed_pool_slice_is_finished_inline(self, monkeypatch):
        serial = run_guarded_campaign(SMALL)
        fail_one_pool_slice(monkeypatch)
        par = run_guarded_campaign(SMALL, workers=2, chunk=16)
        assert par.pop("resilience")["failed"] == [1]
        assert _dumps(serial) == _dumps(par)


class TestRecords:
    def test_guarded_record_shape(self):
        plan = plan_injections(SMALL)
        sites = select_sites()
        inj = plan[0]
        rec = run_guarded_injection(SMALL, SITES[inj["site"]], inj,
                                    GuardPolicy())
        # the baseline record rides along unchanged...
        assert {"id", "site", "class", "outcome"} <= set(rec)
        # ...plus the guard verdict
        g = rec["guard"]
        assert g["status"] in GUARD_STATUSES
        assert {"flagged", "executions", "corrected_exact",
                "sdc_to_user"} <= set(g)
        assert len(sites) == len(SITES)

    def test_operand_sites_escalate_to_dmr(self):
        site = SITES["pcs.operand.word"]
        p = _policy_for(site, GuardPolicy(mode="residue"))
        assert p.mode == "dmr" and p.max_executions >= 4
        # an explicit redundancy request is left alone
        assert _policy_for(site, GuardPolicy(mode="tmr")).mode == "tmr"
        assert _policy_for(SITES["pcs.window.sum"],
                           GuardPolicy()).mode == "residue"

    def test_render_text(self):
        text = render_guarded_text(run_guarded_campaign(SMALL))
        assert "SDC to user" in text
        assert "corrected" in text and "uncorrectable" in text


class TestCli:
    def test_small_run_writes_report_and_passes_gates(self, tmp_path,
                                                      capsys):
        from repro.guard.__main__ import main

        out = tmp_path / "guard.json"
        assert main(["--seed", "2", "--injections", "40",
                     "--min-reduction", "10", "--min-coverage", "0.9",
                     "--quiet", "--json-out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["totals"]["injections"] == 40
        assert report["policy"]["mode"] == "residue"

    def test_gate_failure_exits_one(self, monkeypatch, capsys):
        from repro.guard import __main__ as gm

        report = run_guarded_campaign(SMALL)
        doctored = json.loads(_dumps(report))
        doctored["totals"]["corrected_exact"] = \
            doctored["totals"]["corrected"] - 1
        monkeypatch.setattr(gm, "run_guarded_campaign",
                            lambda *a, **kw: doctored)
        assert gm.main(["--injections", str(SMALL.injections),
                        "--quiet"]) == 1
        assert "guard gate" in capsys.readouterr().err
