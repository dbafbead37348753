"""End-to-end tests of ``python -m repro.telemetry``.

Runs the CLI in-process through ``main(argv)`` (fast, same-interpreter)
and once through an actual subprocess to pin the module entry point.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.telemetry.__main__ import main
from repro.telemetry.gates import REQUIRED_COVERAGE

# pools / armed collectors are process-global: never run
# these concurrently with other tests (xdist, future runners)
pytestmark = pytest.mark.serial

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> Path:
    """One quick capture shared by the whole module (it runs a 4096-pair
    dot and a 1024-lane fma batch, so run it once)."""
    out = tmp_path_factory.mktemp("telemetry") / "BENCH_telemetry.json"
    assert main(["capture", "-o", str(out), "--quick",
                 "--label", "baseline"]) == 0
    return out


class TestCapture:
    def test_envelope_shape(self, baseline):
        env = json.loads(baseline.read_text())
        assert env["schema"] == 1
        assert env["label"] == "baseline"
        assert "metrics" not in env
        snap = env["snapshot"]
        assert snap["counters"]
        assert any(k.startswith("batch.") for k in snap["counters"])
        assert "batch.dot.kernel" in snap["spans"]
        assert any(k.startswith("batch.memo.") for k in snap["gauges"])

    def test_capture_satisfies_coverage_gate(self, baseline):
        assert main(["coverage", str(baseline)]) == 0

    def test_coverage_gate_fails_on_dead_path(self, baseline, tmp_path,
                                              capsys):
        env = json.loads(baseline.read_text())
        for tag in REQUIRED_COVERAGE[:2]:
            del env["snapshot"]["counters"][tag]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(env))
        assert main(["coverage", str(broken)]) == 1
        out = capsys.readouterr().out
        for tag in REQUIRED_COVERAGE[:2]:
            assert tag in out


class TestExport:
    def test_prometheus(self, baseline, capsys):
        assert main(["export", str(baseline),
                     "--format", "prometheus"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_counter_total counter" in text
        assert 'repro_counter_total{tag="fma.scalar.call.pcs"}' in text

    def test_json_roundtrip(self, baseline, capsys):
        assert main(["export", str(baseline)]) == 0
        exported = json.loads(capsys.readouterr().out)
        assert exported == json.loads(baseline.read_text())["snapshot"]


class TestModuleEntryPoint:
    def test_python_dash_m(self, baseline, tmp_path):
        """The documented invocation must work as a real subprocess."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "coverage",
             str(baseline)],
            capture_output=True, text=True, env={"PYTHONPATH": SRC,
                                                 "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout
