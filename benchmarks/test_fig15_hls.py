"""Benchmark + validation of Fig. 15 (ldlsolve schedule lengths)."""

import pytest

from repro.experiments.fig15 import FMA_UNIT_LIMIT, run
from repro.hls import default_library, parse_program, run_fma_insertion
from repro.solvers import generate_kernel, trajectory_problem


class TestFig15:
    def test_regenerate_fig15(self, benchmark):
        sizes = [("small", 4, 1), ("medium", 8, 2), ("large", 12, 3)]
        rows = benchmark.pedantic(run, args=(sizes,), rounds=1,
                                  iterations=1)
        for r in rows:
            # every solver benefits; FCS more than PCS (Fig. 15)
            assert r.pcs_cycles < r.baseline_cycles
            assert r.fcs_cycles < r.pcs_cycles
            assert r.fcs_reduction_percent > r.pcs_reduction_percent
            # reductions in the paper's ballpark (26.0%-50.1%)
            assert 10.0 <= r.pcs_reduction_percent <= 60.0
            assert 25.0 <= r.fcs_reduction_percent <= 60.0
            # the unit budget of Sec. IV-D is respected
            assert r.pcs_fma_units <= FMA_UNIT_LIMIT
            assert r.fcs_fma_units <= FMA_UNIT_LIMIT

    @pytest.mark.parametrize("flavor", ["pcs", "fcs"])
    def test_fma_pass_cost(self, benchmark, flavor):
        """Compiler-pass runtime on the small solver kernel."""
        kernel = generate_kernel(trajectory_problem(4, 1))

        def compile_kernel():
            g = parse_program(kernel.source,
                              outputs=kernel.output_names)
            lib = default_library(fma_flavor=flavor,
                                  fma_limit=FMA_UNIT_LIMIT)
            return run_fma_insertion(g, lib)

        rep = benchmark(compile_kernel)
        assert rep.fma_inserted > 0

    def test_kernel_generation_cost(self, benchmark):
        """CVXGEN-like codegen runtime (symbolic LDL + emission)."""
        problem = trajectory_problem(8, 2)
        kernel = benchmark(generate_kernel, problem)
        assert kernel.statement_count > 0
