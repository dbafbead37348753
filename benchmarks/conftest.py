"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables/figures (the same
code paths as ``repro-experiments``) and asserts the headline claims, so
``pytest benchmarks/ --benchmark-only`` both times the models and
verifies the reproduction.
"""

import pytest


@pytest.fixture(scope="session")
def fig14_workload():
    from repro.experiments.fig14 import make_workload
    return make_workload(seed=42, steps=30)
