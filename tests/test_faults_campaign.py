"""SEU campaign engine tests: determinism, taxonomy, resume, parallel.

The acceptance drill rides on the default 500-injection campaign: it
must complete with a nonzero detected count, report an explicit SDC
rate per site class, and be byte-for-byte reproducible under the same
seed -- including when resumed from a truncated checkpoint and when run
through the parallel (resilient) path.
"""

from __future__ import annotations

import json

import pytest

from repro import probes
from repro.faults import campaign
from repro.faults.campaign import (CampaignConfig, load_checkpoint,
                                   plan_injections, render_text,
                                   run_campaign, run_injection)
from repro.faults.sites import SITE_CLASSES, SITES, select_sites

from _faults_util import fail_one_pool_slice

# pools / armed collectors are process-global: never run
# these concurrently with other tests (xdist, future runners)
pytestmark = pytest.mark.serial

SMALL = CampaignConfig(seed=11, injections=66, operands=8)


def _dumps(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


@pytest.fixture(scope="module")
def default_report():
    # the acceptance campaign: >= 500 injections across every site
    return run_campaign(CampaignConfig(seed=0, injections=500))


def test_plan_is_deterministic_and_covers_all_sites():
    config = CampaignConfig(seed=3, injections=100)
    p1, p2 = plan_injections(config), plan_injections(config)
    assert p1 == p2
    assert [inj["id"] for inj in p1] == list(range(100))
    assert {inj["site"] for inj in p1} == set(SITES)
    assert any(len(inj["fracs"]) == 2 for inj in p1)  # multi-bit faults
    assert plan_injections(CampaignConfig(seed=4, injections=100)) != p1


def test_plan_respects_class_filter():
    config = CampaignConfig(seed=0, injections=40, classes=("batch",))
    plan = plan_injections(config)
    assert {SITES[inj["site"]].site_class for inj in plan} == {"batch"}


def test_report_reproducible_byte_for_byte():
    a = run_campaign(SMALL)
    b = run_campaign(SMALL)
    assert _dumps(a) == _dumps(b)


def test_default_campaign_acceptance(default_report):
    t = default_report["totals"]
    assert t["injections"] == 500
    assert t["detected"] > 0
    assert t["sdc"] > 0 and t["masked"] > 0  # full taxonomy exercised
    assert t["landed"] > 400  # operand pools actually exercise the sites
    # explicit SDC rate for every site class, PCS/FCS/batch included
    assert set(default_report["classes"]) == set(SITE_CLASSES)
    for cls, bucket in default_report["classes"].items():
        assert 0.0 <= bucket["sdc_rate"] <= 1.0
        assert bucket["sdc_rate"] == round(
            bucket["sdc"] / bucket["injections"], 4)
    # detection cross-references the analysis rules (NL/SCH)
    assert any(r.startswith("NL") or r.startswith("SCH")
               for r in default_report["rules"])


def test_per_site_and_per_stage_tables(default_report):
    assert set(default_report["sites"]) == set(SITES)
    for entry in default_report["sites"].values():
        assert entry["injections"] > 0
        assert (entry["masked"] + entry["detected"] + entry["sdc"]
                == entry["injections"])
    assert "multiplier" in default_report["stages"]
    assert "carry-reduce" in default_report["stages"]


def test_probes_disarmed_after_campaign(default_report):
    assert probes.ARMED is None


def test_differential_catch_superset_of_sdc(default_report):
    # every silent corruption changes raw bits, so the bit-exact
    # differential harness would flag at least the SDC population
    t = default_report["totals"]
    assert t["differential_catch"] >= t["sdc"]


def test_render_text_contains_rate_table(default_report):
    text = render_text(default_report)
    assert "SDC" in text and "sdc-rate" in text
    for cls in SITE_CLASSES:
        assert cls in text


def test_exception_detections_have_detail():
    report = run_campaign(CampaignConfig(seed=0, injections=200,
                                         sites=("pcs.operand.word",
                                                "fcs.operand.word",
                                                "pcs.mant.carry")))
    assert report["totals"]["detected"] > 0


def test_checkpoint_resume_is_byte_identical(tmp_path):
    ckpt = tmp_path / "campaign.jsonl"
    full = run_campaign(SMALL, checkpoint=ckpt)
    lines = ckpt.read_text().splitlines()
    assert len(lines) == SMALL.injections
    # truncate mid-campaign, with a torn trailing line
    ckpt.write_text("\n".join(lines[:30]) + "\n" + lines[30][:17] + "\n")
    resumed = run_campaign(SMALL, checkpoint=ckpt, resume=True)
    assert _dumps(full) == _dumps(resumed)
    assert len(load_checkpoint(ckpt)) == SMALL.injections


def test_parallel_report_matches_serial():
    serial = run_campaign(SMALL)
    par = run_campaign(SMALL, workers=2, chunk=16)
    res = par.pop("resilience")
    assert res["failed"] == []
    assert _dumps(serial) == _dumps(par)


def test_pool_checkpoints_each_slice_as_it_finishes(monkeypatch, tmp_path):
    ckpt = tmp_path / "campaign.jsonl"
    lines_at_return = []
    real = campaign.run_resilient

    def spy(*args, **kwargs):
        run = real(*args, **kwargs)
        lines_at_return.append(len(ckpt.read_text().splitlines()))
        return run

    monkeypatch.setattr(campaign, "run_resilient", spy)
    config = CampaignConfig(seed=11, injections=120, operands=8)
    report = run_campaign(config, workers=2, chunk=16, checkpoint=ckpt)
    assert report["resilience"]["items"] == 8
    # every pooled record is on disk by the time the pool returns
    assert lines_at_return == [120]


def test_failed_pool_slice_is_finished_inline(monkeypatch, tmp_path):
    serial = run_campaign(SMALL)
    fail_one_pool_slice(monkeypatch)
    ckpt = tmp_path / "campaign.jsonl"
    par = run_campaign(SMALL, workers=2, chunk=16, checkpoint=ckpt)
    assert par.pop("resilience")["failed"] == [1]
    assert _dumps(serial) == _dumps(par)
    ids = [json.loads(line)["id"] for line in ckpt.read_text().splitlines()]
    assert sorted(ids) == list(range(SMALL.injections))


def test_run_injection_record_shape():
    config = CampaignConfig(seed=5, injections=len(SITES))
    plan = plan_injections(config)
    sites = select_sites()
    rec = run_injection(config, sites[plan[0]["id"] % len(sites)], plan[0])
    assert {"id", "site", "class", "stage", "outcome", "detail",
            "landed", "bit_diff", "differential_catch", "bits",
            "rules"} <= set(rec)
    assert rec["outcome"] in ("masked", "detected", "sdc")


def test_empty_site_selection_raises():
    with pytest.raises(KeyError):
        run_campaign(CampaignConfig(sites=("nope",)))


def test_config_roundtrip():
    c = CampaignConfig(seed=9, injections=10, classes=("pcs", "batch"))
    assert CampaignConfig.from_dict(c.to_dict()) == c


def test_cli_list_sites_and_small_run(tmp_path, capsys):
    from repro.faults.__main__ import main

    assert main(["--list-sites"]) == 0
    out = capsys.readouterr().out
    assert "pcs.carry_reduce.carry" in out and "schedule.listing1" in out
    json_out = tmp_path / "rep.json"
    assert main(["--injections", "40", "--seed", "2", "--quiet",
                 "--json-out", str(json_out)]) == 0
    report = json.loads(json_out.read_text())
    assert report["totals"]["injections"] == 40


def test_cli_rejects_bad_filters(capsys):
    """Bad arguments exit 2 (argparse convention), not the runtime 1;
    the full exit-code contract lives in test_cli_exit_codes.py."""
    import pytest

    from repro.faults.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["--classes", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--resume"])
    assert exc.value.code == 2
