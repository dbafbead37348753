"""Tests of the sharded conformance runner (repro.conformance).

Covers the four pillars the subsystem stands on:

* **determinism** -- every shard is exactly reproducible from
  ``(seed, shard_id)``: identical case digests and results across runs
  and across the inline/multiprocess execution paths;
* **caching** -- a warm re-run serves every shard from the content-hash
  cache, and the key reacts to seed, spec, and code-fingerprint changes;
* **teeth** -- every registered mutation is detected, and the injection
  context never leaks into subsequent clean runs;
* **shrinking** -- counterexamples minimize while still failing.
"""

from __future__ import annotations

import json

import pytest

from repro.batch import fma_batch
from repro.conformance import (FAMILIES, MUTATIONS, ShardSpec, case_digest,
                               generate_cases, injected, run_mutation_check,
                               run_shard, run_sweep, shard_key,
                               shrink_stream, shrink_triple)
from repro.conformance.checks import CRASHED, check_case
from repro.conformance.runner import main
from repro.conformance.workunits import Case, load_golden_cases
from repro.fma import FcsFmaUnit, PcsFmaUnit, cs_to_ieee, ieee_to_cs
from repro.fp import word_to_fp

# pools / armed collectors are process-global: never run
# these concurrently with other tests (xdist, future runners)
pytestmark = pytest.mark.serial

SPEC = dict(num_shards=3, seed=11, cases=8)


def small_spec(shard_id: int = 0, **kw) -> ShardSpec:
    args = {**SPEC, **kw}
    return ShardSpec(shard_id=shard_id, **args)


def stable(result: dict) -> dict:
    """Shard result minus timing (the only legitimately varying part)."""
    return {k: v for k, v in result.items()
            if k not in ("elapsed_s", "cases_per_s")}


# ---------------------------------------------------------------------------
# determinism


class TestDeterminism:
    def test_same_spec_same_cases_and_result(self):
        spec = small_spec()
        assert generate_cases(spec) == generate_cases(spec)
        assert stable(run_shard(spec)) == stable(run_shard(spec))

    def test_seed_changes_cases(self):
        a = case_digest(generate_cases(small_spec(seed=1)))
        b = case_digest(generate_cases(small_spec(seed=2)))
        assert a != b

    def test_shards_partition_disjoint_random_cases(self):
        d0 = case_digest(generate_cases(small_spec(0)))
        d1 = case_digest(generate_cases(small_spec(1)))
        assert d0 != d1

    def test_golden_family_partitions_completely(self):
        ids = set()
        for i in range(SPEC["num_shards"]):
            spec = small_spec(i, families=("golden",))
            shard_ids = [c.case_id for c in generate_cases(spec)]
            assert not ids & set(shard_ids)
            ids.update(shard_ids)
        assert ids == {c["id"] for c in load_golden_cases()}

    def test_multiprocess_matches_inline(self):
        kw = dict(shards=2, seed=7, cases=6, use_cache=False)
        inline = run_sweep(workers=1, **kw)
        pooled = run_sweep(workers=2, **kw)
        for a, b in zip(inline["shards"], pooled["shards"]):
            assert stable(a) == stable(b)


# ---------------------------------------------------------------------------
# the sweep itself


class TestSweep:
    def test_clean_sweep_has_no_mismatches(self):
        report = run_sweep(shards=2, workers=1, seed=3, cases=10,
                           use_cache=False)
        assert report["totals"]["mismatches"] == 0
        assert report["totals"]["cases"] > 0
        assert report["totals"]["checks"] > report["totals"]["cases"]
        for shard in report["shards"]:
            assert shard["cases_per_s"] > 0
            assert not shard["cached"]

    def test_all_families_and_units_execute(self):
        spec = small_spec()
        cases = generate_cases(spec)
        assert {c.family for c in cases} == set(FAMILIES)
        for case in cases[:4]:
            assert check_case(case, ("classic", "pcs", "fcs")) == []


# ---------------------------------------------------------------------------
# caching


class TestCache:
    def test_warm_rerun_hits_every_shard(self, tmp_path):
        kw = dict(shards=3, workers=1, seed=5, cases=6,
                  cache_dir=tmp_path / "cache")
        cold = run_sweep(**kw)
        assert cold["totals"]["cache_hits"] == 0
        warm = run_sweep(**kw)
        assert warm["totals"]["cache_hits"] == 3
        assert warm["totals"]["cache_hit_rate"] == 1.0
        for a, b in zip(cold["shards"], warm["shards"]):
            assert a["case_digest"] == b["case_digest"]
            assert a["mismatch_count"] == b["mismatch_count"]

    def test_seed_invalidates(self, tmp_path):
        kw = dict(shards=2, workers=1, cases=6,
                  cache_dir=tmp_path / "cache")
        run_sweep(seed=1, **kw)
        again = run_sweep(seed=2, **kw)
        assert again["totals"]["cache_hits"] == 0

    def test_code_fingerprint_invalidates(self, tmp_path):
        kw = dict(shards=2, workers=1, seed=5, cases=6,
                  cache_dir=tmp_path / "cache")
        run_sweep(**kw)
        changed = run_sweep(fingerprint_extra="pretend-edit", **kw)
        assert changed["totals"]["cache_hits"] == 0
        back = run_sweep(**kw)
        assert back["totals"]["cache_hits"] == 2

    def test_backend_feeds_the_key(self, tmp_path, capsys):
        # a lane-engine sweep must run, not reuse a default sweep's shards
        argv = ["--shards", "2", "--workers", "1", "--seed", "5",
                "--cases", "4", "--cache-dir", str(tmp_path / "cache")]
        out = tmp_path / "vector.json"
        assert main(argv) == 0
        assert main(argv + ["--backend", "vector",
                            "--json-out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["totals"]["cache_hits"] == 0
        assert report["totals"]["mismatches"] == 0
        assert report["config"]["backend"] == "vector"

    def test_serial_shard_that_raises_fails_alone(self, tmp_path,
                                                  monkeypatch):
        from repro.conformance import runner
        from repro.conformance.cache import ResultCache

        real = runner.run_shard

        def last_shard_raises(spec):
            if spec.shard_id == 2:
                raise RuntimeError("shard 2 crashed")
            return real(spec)

        monkeypatch.setattr(runner, "run_shard", last_shard_raises)
        report = run_sweep(shards=3, workers=1, seed=5, cases=4,
                           cache_dir=tmp_path / "cache", retries=2)
        assert report["totals"]["failed_shards"] == [2]
        failed = report["shards"][2]
        assert failed["failed"] and failed["attempts"] == 2
        assert failed["error"]["type"] == "RuntimeError"
        assert "resilience" not in report
        # the shards that finished were cached as they finished
        assert len(ResultCache(tmp_path / "cache")) == 2

    def test_spec_fields_feed_the_key(self):
        base = small_spec()
        assert shard_key(base, "fp") == shard_key(base, "fp")
        assert shard_key(base, "fp") != shard_key(
            small_spec(cases=9), "fp")
        assert shard_key(base, "fp") != shard_key(
            small_spec(units=("pcs",)), "fp")
        assert shard_key(base, "fp") != shard_key(base, "other-fp")

    def test_mutation_shards_never_cached(self, tmp_path):
        spec = small_spec(mutation="mant-lsb")
        with pytest.raises(ValueError):
            shard_key(spec, "fp")
        report = run_sweep(shards=1, workers=1, seed=5, cases=4,
                           mutation="mant-lsb",
                           cache_dir=tmp_path / "cache", shrink=False)
        assert report["config"]["cache"] is False
        assert not list((tmp_path / "cache").glob("*.json")) \
            if (tmp_path / "cache").exists() else True


# ---------------------------------------------------------------------------
# mutation smoke-checks


class TestMutationTeeth:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_each_fault_is_detected(self, name):
        report = run_sweep(shards=1, workers=1, seed=3, cases=16,
                           mutation=name, shrink=False)
        assert any(m["got"] != CRASHED for m in report["mismatches"])

    def test_full_smoke_check_passes(self):
        report = run_mutation_check(shards=1, workers=1, seed=3, cases=16)
        assert report["ok"]
        assert report["clean_mismatches"] == 0
        assert all(r["detected"] for r in report["mutants"].values())

    def test_lane_engine_runs_the_mutated_carry_reduce(self):
        """The carry mutant flips a constant of the shared stages' int
        lane type; the lane engine splits that constant into digits, so
        the single fmas of a ``vector`` sweep, which run on the lane
        engine alone, give wrong results."""
        report = run_sweep(shards=1, workers=1, seed=3, cases=16,
                           families=("stratified", "golden"),
                           mutation="carry-chunk-boundary", shrink=False,
                           backend="vector")
        assert any(m["got"] != CRASHED for m in report["mismatches"])

    def test_crashing_mutant_is_not_detected(self, monkeypatch):
        """A patch that no longer fits the code -- here one that edits
        the Carry Reduce constant where the kernel no longer keeps it --
        makes every check raise; that reports the mutant missed."""
        from repro.batch.cskernel import FastCSKernel

        def stale_patch():
            init = FastCSKernel.__init__

            def patched(self, *args):
                init(self, *args)
                self.H ^= 1

            FastCSKernel.__init__ = patched
            return {(FastCSKernel, "__init__"): init}

        monkeypatch.setitem(MUTATIONS, "stale", (stale_patch, ("pcs",)))
        report = run_mutation_check(["stale"], shards=1, workers=1, seed=3,
                                    cases=8)
        stale = report["mutants"]["stale"]
        assert stale["mismatches"] > 0
        assert stale["wrong_results"] == 0
        assert not stale["detected"] and not report["ok"]

    def test_injection_does_not_leak(self):
        unit = PcsFmaUnit()
        a = word_to_fp(0x3FF4000000000000)
        b = word_to_fp(0x4008000000000000)
        c = word_to_fp(0xBFF8000000000000)
        ref = unit.fma(ieee_to_cs(a, unit.params), b,
                       ieee_to_cs(c, unit.params))
        with injected("mant-lsb"):
            (mutated,) = fma_batch([a], [b], [c], unit=unit)
            assert mutated.mant.sum != ref.mant.sum
        (clean,) = fma_batch([a], [b], [c], unit=unit)
        assert clean.mant.sum == ref.mant.sum
        report = run_sweep(shards=1, workers=1, seed=3, cases=6,
                           use_cache=False, shrink=False)
        assert report["totals"]["mismatches"] == 0

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError):
            with injected("no-such-fault"):
                pass


# ---------------------------------------------------------------------------
# the shrinker


class TestShrinker:
    def test_minimizes_synthetic_failure(self):
        # failure iff both a's and c's unbiased exponent exceed 100
        def fails(a, b, c):
            return ((a >> 52) & 0x7FF) > 1123 and ((c >> 52) & 0x7FF) > 1123

        a = 0x4F8FEDCBA9876543
        c = 0x4FF123456789ABCD
        assert fails(a, 0, c)
        report = shrink_triple(a, 0x3FF5555555555555, c, fails)
        sa, sb, sc = (int(w, 16) for w in report["shrunk"])
        assert fails(sa, sb, sc)
        assert sb == 0x3FF0000000000000          # irrelevant operand -> 1.0
        assert sa & ((1 << 52) - 1) == 0         # fractions cleared
        assert sc & ((1 << 52) - 1) == 0
        assert ((sa >> 52) & 0x7FF) == 1124      # exponents walked to edge
        assert ((sc >> 52) & 0x7FF) == 1124
        assert report["score_after"] < report["score_before"]

    def test_stream_shrinks_length_first(self):
        # failure iff any element has the sign bit set
        def fails(words):
            return any(w >> 63 for w in words)

        words = [0x3FF0000000000000 + i for i in range(10)]
        words[7] |= 1 << 63
        report = shrink_stream(tuple(words), fails, head=0, group=1)
        shrunk = [int(w, 16) for w in report["shrunk"]]
        assert fails(shrunk)
        assert len(shrunk) <= 2

    def test_real_mismatch_shrinks_and_still_fails(self):
        with injected("round-data-drop"):
            report = run_sweep(shards=1, workers=1, seed=5, cases=8,
                               use_cache=False, shrink=True,
                               units=("fcs",), mutation=None)
            assert report["totals"]["mismatches"] > 0
            shrunk_reports = [m for m in report["mismatches"]
                              if "shrink" in m]
            assert shrunk_reports
            m = shrunk_reports[0]
            assert m["family"] in ("stratified", "golden", "chain", "dot")
            # the minimized input still reproduces inside the context
            if m["family"] in ("stratified", "golden"):
                ops = tuple(int(w, 16) for w in m["shrink"]["shrunk"])
                trial = Case(m["family"], m["stratum"], ops)
                assert check_case(trial, (m["unit"],))


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_sweep_json_out(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["--shards", "2", "--workers", "1", "--seed", "4",
                   "--cases", "6", "--no-cache", "--json-out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "mismatches" in text
        report = json.loads(out.read_text())
        assert report["totals"]["mismatches"] == 0
        assert len(report["shards"]) == 2

    def test_repro_single_shard(self, capsys):
        rc = main(["--repro", "1", "--shards", "3", "--seed", "4",
                   "--cases", "6"])
        assert rc == 0
        assert "shard" in capsys.readouterr().out

    def test_mutation_check_cli(self, capsys):
        rc = main(["--mutation-check", "--cases", "16", "--seed", "3",
                   "--shards", "1"])
        assert rc == 0
        assert "smoke-check: OK" in capsys.readouterr().out

    def test_mutation_sweep_exits_nonzero(self, capsys):
        rc = main(["--shards", "1", "--workers", "1", "--seed", "3",
                   "--cases", "8", "--no-cache", "--no-shrink",
                   "--mutation", "mant-lsb"])
        assert rc == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_faithful_backend_from_env_is_refused(self, monkeypatch,
                                                  capsys):
        # the checks would compare the faithful models with themselves
        monkeypatch.setenv("REPRO_BATCH_BACKEND", "faithful")
        with pytest.raises(SystemExit) as exc:
            main(["--shards", "1", "--no-cache"])
        assert exc.value.code == 2
        assert "REPRO_BATCH_BACKEND=faithful" in capsys.readouterr().err

    def test_unknown_backend_from_env_is_refused(self, monkeypatch,
                                                 capsys):
        # the batch API's reader refuses the name; the CLI exits with
        # the argparse convention and names the variable
        monkeypatch.setenv("REPRO_BATCH_BACKEND", "vectr")
        with pytest.raises(SystemExit) as exc:
            main(["--shards", "1", "--no-cache"])
        assert exc.value.code == 2
        assert "REPRO_BATCH_BACKEND=vectr" in capsys.readouterr().err

    def test_list_mutations(self, capsys):
        rc = main(["--list-mutations"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in MUTATIONS:
            assert name in out


# ---------------------------------------------------------------------------
# experiments-runner integration


class TestExperimentsWiring:
    def test_conformance_experiment_registered(self):
        from repro.experiments.runner import EXPERIMENTS

        assert "conformance" in EXPERIMENTS

    def test_failing_experiment_exits_nonzero(self, capsys):
        from repro.experiments import runner as exp_runner

        exp_runner.EXPERIMENTS["boom"] = lambda args: 1 / 0
        try:
            rc = exp_runner.main(["boom"])
        finally:
            del exp_runner.EXPERIMENTS["boom"]
        assert rc == 1
        captured = capsys.readouterr()
        assert "ZeroDivisionError" in captured.err
        assert "FAILED" in captured.out

    def test_experiment_cache_round_trip(self, tmp_path, capsys):
        from repro.experiments import runner as exp_runner

        calls = []
        exp_runner.EXPERIMENTS["probe"] = (
            lambda args: calls.append(1) or "probe-output")
        try:
            rc = exp_runner.main(["probe", "--cache-dir",
                                  str(tmp_path / "cache")])
            assert rc == 0 and calls == [1]
            rc = exp_runner.main(["probe", "--cache-dir",
                                  str(tmp_path / "cache")])
            assert rc == 0 and calls == [1]          # served from cache
            assert "[cached]" in capsys.readouterr().out
        finally:
            del exp_runner.EXPERIMENTS["probe"]
