"""The exit-code contract of every ``python -m repro.*`` entry point.

One convention across the repo (documented in each module's docstring
and ``--help`` epilog):

* **0** -- success, including ``--help`` and pure listings;
* **1** -- the tool ran and failed (mismatches, incomplete campaign,
  lost responses, coverage gate tripped);
* **2** -- bad arguments: unknown flags *and* semantically invalid
  values, via ``parser.error`` (usage on stderr, argparse convention).

Most checks call ``main(argv)`` in process (argparse raises
``SystemExit`` for help/errors, so the codes are observable without a
subprocess); one subprocess smoke per module proves the ``-m`` wiring
ends up with the same codes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

ENTRY_POINTS = {
    "repro.analysis": "repro.analysis.__main__",
    "repro.conformance": "repro.conformance.runner",
    "repro.faults": "repro.faults.__main__",
    "repro.guard": "repro.guard.__main__",
    "repro.telemetry": "repro.telemetry.__main__",
    "repro.serve": "repro.serve.__main__",
}

#: semantically invalid invocations that must exit 2, per tool.
BAD_VALUES = {
    "repro.conformance": [
        ["--shards", "0"],
        ["--cases", "-5"],
        ["--workers", "0"],
        ["--shard-timeout", "0"],
        ["--retries", "0"],
        ["--repro", "9", "--shards", "4"],
        ["--backend", "faithful"],          # checks the oracle itself
    ],
    "repro.faults": [
        ["--injections", "0"],
        ["--operands", "0"],
        ["--multi-bit", "1.5"],
        ["--workers", "0"],
        ["--timeout", "0"],
        ["--retries", "0"],
        ["--resume"],                       # requires --checkpoint
        ["--classes", "bogus"],
        ["--sites", "no.such.site"],
        ["--guard"],                        # the guard is repro.guard
    ],
    "repro.guard": [
        ["--injections", "0"],
        ["--operands", "0"],
        ["--multi-bit", "1.5"],
        ["--max-executions", "0"],
        ["--workers", "0"],
        ["--timeout", "0"],
        ["--retries", "0"],
        ["--min-reduction", "0"],
        ["--min-coverage", "2"],
        ["--mode", "qmr"],                  # not a choice
        ["--classes", "bogus"],
        ["--sites", "no.such.site"],
    ],
    "repro.serve": [
        ["--max-batch", "0"],
        ["--max-wait-ms", "-1"],
        ["--workers", "0"],
        ["--max-pending", "0"],
        ["--retries", "0"],
        ["--port", "70000"],
        ["--self-test", "--self-test-requests", "0"],
        ["--isolation", "container"],       # not a choice
        ["--no-kernels"],                   # that is --backend faithful
    ],
    "repro.analysis": [
        ["--device", "no-such-fpga"],
        ["--fail-on", "sometimes"],
    ],
    "repro.telemetry": [
        [],                                 # subcommand required
        ["no-such-command"],
        ["export", "x.json", "--format", "yaml"],
    ],
}


def get_main(tool: str):
    import importlib

    return importlib.import_module(ENTRY_POINTS[tool]).main


def call(tool: str, argv: list[str]) -> int:
    """Invoke a CLI in process; normalize SystemExit to its code."""
    try:
        rc = get_main(tool)(argv)
        return 0 if rc is None else rc
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else code


@pytest.mark.parametrize("tool", sorted(ENTRY_POINTS))
class TestPerTool:
    def test_help_exits_zero(self, tool, capsys):
        assert call(tool, ["--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_flag_exits_two(self, tool, capsys):
        assert call(tool, ["--definitely-not-a-flag"]) == 2
        assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    "tool,argv",
    [(tool, argv) for tool in sorted(BAD_VALUES)
     for argv in BAD_VALUES[tool]],
    ids=[f"{tool}:{' '.join(argv) or '<empty>'}"
         for tool in sorted(BAD_VALUES) for argv in BAD_VALUES[tool]])
def test_bad_values_exit_two(tool, argv, capsys):
    assert call(tool, argv) == 2
    err = capsys.readouterr().err.lower()
    assert "usage" in err or "error" in err


class TestListingsExitZero:
    def test_conformance_list_mutations(self, capsys):
        assert call("repro.conformance", ["--list-mutations"]) == 0

    def test_faults_list_sites(self, capsys):
        assert call("repro.faults", ["--list-sites"]) == 0

    def test_analysis_list_rules(self, capsys):
        assert call("repro.analysis", ["--list-rules"]) == 0

    def test_telemetry_subcommand_help(self, capsys):
        assert call("repro.telemetry", ["capture", "--help"]) == 0


@pytest.mark.parametrize("tool", sorted(ENTRY_POINTS))
def test_module_wiring_help_subprocess(tool):
    """``python -m <tool> --help`` exits 0 through the real module
    entry (the in-process checks bypass ``__main__`` guards)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", tool, "--help"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout.lower()


def test_serve_bad_value_subprocess():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve", "--max-batch", "0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "max-batch" in proc.stderr
