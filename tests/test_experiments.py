"""Tests of the experiment harness (every table/figure runs and holds
its headline shape)."""

import re
import time

import pytest

from repro.experiments import ablation, fig13, fig14, fig15, table1, table2
from repro.experiments.runner import EXPERIMENTS, main


class TestTable1:
    def test_runs_and_formats(self):
        rows = table1.run()
        text = table1.format_table(rows)
        assert "Xilinx CoreGen" in text and "FCS-FMA" in text
        assert len(rows) == 4

    def test_rows_carry_paper_reference(self):
        for r in table1.run():
            assert r.paper == table1.PAPER_TABLE1[r.architecture]
            assert abs(r.fmax_delta_percent) < 5.0


class TestFig13:
    def test_speedups(self):
        points = {p.architecture: p for p in fig13.run()}
        assert points["fcs-fma"].speedup_vs_best_baseline > \
            points["pcs-fma"].speedup_vs_best_baseline > 1.0

    def test_paper_latency_derivation(self):
        # 9 cycles at 244 MHz
        assert fig13.paper_latency_ns("coregen") == \
            pytest.approx(9 * 1000 / 244)


class TestFig14:
    def test_small_run_shape(self):
        results = {r.engine: r for r in fig14.run(runs=4)}
        assert results["pcs-fma"].mean_ulp_error <= \
            results["discrete-binary64"].mean_ulp_error
        assert results["fcs-fma"].mean_ulp_error <= \
            results["discrete-binary64"].mean_ulp_error
        assert all(r.runs == 4 for r in results.values())

    def test_workload_respects_coefficient_ranges(self):
        b1, b2, x0 = fig14.make_workload(0)
        for v in b1:
            assert 1.0 < abs(v.to_float()) < 32.0
        for v in b2:
            assert 0.0 < abs(v.to_float()) < 1.0
        assert len(x0) == 3

    def test_format(self):
        text = fig14.format_table(fig14.run(runs=2))
        assert "pcs-fma" in text


class TestTable2:
    def test_shape(self):
        rows = {r.architecture: r for r in table2.run(steps=20)}
        base = rows["coregen"].energy_nj
        assert rows["pcs-fma"].energy_nj > 3 * base
        assert rows["fcs-fma"].energy_nj < rows["pcs-fma"].energy_nj
        text = table2.format_table(list(rows.values()))
        assert "nJ" in text


class TestFig15:
    def test_single_small_solver(self):
        rows = fig15.run(sizes=[("small", 4, 1)])
        assert len(rows) == 1
        r = rows[0]
        assert r.fcs_cycles < r.pcs_cycles < r.baseline_cycles
        assert r.fcs_reduction_percent > 25.0
        text = fig15.format_table(rows)
        assert "small" in text

    def test_invalid_schedule_is_refused(self, monkeypatch):
        # every reported length is re-proved: a list scheduler that
        # issues an op before its operand is ready stops the driver
        from repro.analysis import ScheduleCheckError

        real = fig15.list_schedule

        def sabotaged(graph, library):
            sched = real(graph, library)
            late = max((n for n in graph.nodes
                        if graph.nodes[n].operands),
                       key=lambda n: sched.start[n])
            sched.start[late] -= 1
            return sched

        monkeypatch.setattr(fig15, "list_schedule", sabotaged)
        with pytest.raises(ScheduleCheckError) as exc:
            fig15.run(sizes=[("small", 4, 1)])
        assert "SCH001" in exc.value.report.rule_ids()


class TestAblation:
    def test_divisor_spacings(self):
        assert ablation.divisor_spacings(55) == [5, 11, 55]
        assert 7 in ablation.divisor_spacings(56)

    def test_carry_density_tradeoff(self):
        points = ablation.carry_density_sweep(blocks=[55])
        by_spacing = {p.spacing: p for p in points}
        # the paper's observation: 5 vs 11 delay gap is small, carry
        # cost differs by >2x
        assert by_spacing[11].delay_penalty_percent < 10.0
        assert by_spacing[5].carry_bits_per_block > \
            2 * by_spacing[11].carry_bits_per_block
        # 35 window carries for spacing 11 over 7 blocks (Sec. III-E)
        assert by_spacing[11].window_carry_bits == 35

    def test_56_block_future_work_variant(self):
        points = ablation.carry_density_sweep(blocks=[56])
        assert len(points) >= 6  # richer divisor structure than 55

    def test_selector_study(self):
        points = {p.selector: p
                  for p in ablation.selector_accuracy_study(samples=80)}
        # both stay sub-ULP; LZA is allowed to be slightly worse
        assert points["zd"].max_ulp_error <= 1.0
        assert points["lza"].max_ulp_error <= 1.5


class TestRunnerCli:
    def test_main_runs_selected(self, capsys):
        assert main(["table1", "fig13"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig13" in out

    def test_took_lines_time_each_experiment(self, monkeypatch, capsys):
        monkeypatch.setitem(EXPERIMENTS, "slow",
                            lambda args: time.sleep(0.3) or "slow-output")
        monkeypatch.setitem(EXPERIMENTS, "instant",
                            lambda args: "instant-output")
        assert main(["slow", "instant", "--workers", "1"]) == 0
        took = dict(re.findall(r"^\[(\w+) took ([\d.]+)s\]$",
                               capsys.readouterr().out, re.M))
        assert float(took["slow"]) >= 0.3
        assert float(took["instant"]) < 0.1

    def test_experiments_registry_complete(self):
        assert set(EXPERIMENTS) >= {"table1", "fig13", "fig14",
                                    "table2", "fig15", "ablation"}
