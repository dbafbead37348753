"""Tests for KKT assembly and the sparse LDL^T machinery."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solvers import (BENCHMARK_SIZES, InteriorPointSolver,
                           assemble_kkt, generate_factor_kernel,
                           generate_kernel, kkt_dimension, kkt_sparsity,
                           ldl_solve, ldl_solve_dense, min_degree_order,
                           numeric_ldl, symbolic_ldl, trajectory_problem)


@st.composite
def random_spd_quasidefinite(draw):
    """Random sparse symmetric quasidefinite matrices (KKT-like)."""
    n = draw(st.integers(3, 14))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    density = draw(st.floats(0.1, 0.5))
    M = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    K = M + M.T + np.diag(np.sign(rng.standard_normal(n) + 0.1) *
                          (n + rng.random(n) * n))
    return K


class TestKktAssembly:
    def test_dimensions(self):
        p = trajectory_problem(4, 1)
        K = assemble_kkt(p, np.ones(p.n_ineq))
        N = kkt_dimension(p)
        assert K.shape == (N, N)
        assert np.allclose(K, K.T)

    def test_quasidefinite_blocks(self):
        p = trajectory_problem(4, 1)
        K = assemble_kkt(p, 2.0 * np.ones(p.n_ineq), eps=1e-6)
        n, m = p.n, p.n_eq
        assert np.all(np.diag(K)[:n] > 0)          # P + eps I
        assert np.all(np.diag(K)[n + m:] < 0)      # -W

    def test_w_validation(self):
        p = trajectory_problem(4, 1)
        with pytest.raises(ValueError):
            assemble_kkt(p, np.zeros(p.n_ineq))
        with pytest.raises(ValueError):
            assemble_kkt(p, np.ones(3))

    def test_sparsity_is_structural(self):
        p = trajectory_problem(4, 1)
        pat = kkt_sparsity(p)
        K = assemble_kkt(p, np.ones(p.n_ineq), eps=1e-7)
        assert np.all(pat[np.abs(K) > 0])
        assert np.array_equal(pat, pat.T)


class TestOrdering:
    def test_permutation_validity(self):
        p = trajectory_problem(4, 1)
        order = min_degree_order(kkt_sparsity(p))
        assert sorted(order.tolist()) == list(range(len(order)))

    def test_min_degree_reduces_fill(self):
        p = trajectory_problem(6, 2)
        pat = kkt_sparsity(p)
        natural = symbolic_ldl(pat, order=np.arange(pat.shape[0]))
        amd = symbolic_ldl(pat)
        assert amd.nnz <= natural.nnz


class TestSymbolic:
    def test_pattern_covers_factor(self):
        p = trajectory_problem(4, 1)
        pat = kkt_sparsity(p)
        sym = symbolic_ldl(pat)
        K = assemble_kkt(p, np.ones(p.n_ineq))
        L, D = numeric_ldl(K, sym)  # would KeyError on missing pattern
        assert len(L) == sym.nnz

    def test_requires_symmetry(self):
        pat = np.array([[True, True], [False, True]])
        with pytest.raises(ValueError):
            symbolic_ldl(pat)

    def test_rows_cols_consistency(self):
        p = trajectory_problem(4, 1)
        sym = symbolic_ldl(kkt_sparsity(p))
        n_from_rows = sum(len(r) for r in sym.rows())
        n_from_cols = sum(len(c) for c in sym.cols())
        assert n_from_rows == n_from_cols == sym.nnz


class TestNumeric:
    @given(random_spd_quasidefinite())
    @settings(max_examples=30)
    def test_factorization_reconstructs(self, K):
        n = K.shape[0]
        sym = symbolic_ldl(np.abs(K) > 0)
        L, D = numeric_ldl(K, sym)
        Lm = np.eye(n)
        for (i, j), v in L.items():
            Lm[i, j] = v
        Kp = K[np.ix_(sym.order, sym.order)]
        assert np.allclose(Lm @ np.diag(D) @ Lm.T, Kp, atol=1e-8 *
                           max(1.0, np.max(np.abs(K))))

    @given(random_spd_quasidefinite())
    @settings(max_examples=30)
    def test_solve_matches_numpy(self, K):
        n = K.shape[0]
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(n)
        x = ldl_solve_dense(K, rhs)
        want = np.linalg.solve(K, rhs)
        assert np.allclose(x, want, atol=1e-6 * max(1.0,
                                                    np.max(np.abs(want))))

    def test_kkt_solve(self):
        p = trajectory_problem(6, 2)
        K = assemble_kkt(p, 0.5 + np.arange(p.n_ineq) * 0.01)
        sym = symbolic_ldl(kkt_sparsity(p))
        L, D = numeric_ldl(K, sym)
        rhs = np.random.default_rng(2).standard_normal(K.shape[0])
        x = ldl_solve(L, D, sym, rhs)
        assert np.allclose(K @ x, rhs, atol=1e-7)

    def test_zero_pivot_detected(self):
        K = np.zeros((2, 2))
        K[0, 1] = K[1, 0] = 1.0
        sym = symbolic_ldl(np.ones((2, 2), dtype=bool),
                           order=np.arange(2))
        with pytest.raises(ZeroDivisionError):
            numeric_ldl(K, sym)


def _l_bits(L, sym) -> bytes:
    return np.array([L[ij] for ij in sym.l_pattern]).tobytes()


def reference_ldl(K, sym):
    """Multiply-only LDL^T recurrence built from ``l_pattern`` alone:
    every term is ``(L_ik*L_jk)*d_k``, subtracted with ``k`` ascending."""
    n = sym.n
    Kp = K[np.ix_(sym.order, sym.order)]
    rows = [set() for _ in range(n)]
    for i, j in sym.l_pattern:
        rows[i].add(j)
    L, D = {}, np.zeros(n)
    for j in range(n):
        d = Kp[j, j]
        for k in sorted(rows[j]):
            d -= L[j, k] * L[j, k] * D[k]
        D[j] = d
        for i in range(j + 1, n):
            if j in rows[i]:
                s = Kp[i, j]
                for k in sorted(rows[i] & rows[j]):
                    s -= L[i, k] * L[j, k] * D[k]
                L[i, j] = s / d
    return L, D


class TestBenchmarkSizes:
    """The three Fig. 15 problems through the factor walk."""

    # sha256 of the generated ldlfactor() and ldlsolve() sources
    SOURCES = {
        "small": (
            "2f401a5dc9e43656bab1d5fb712754421ddf5d51593e421b60bebe5a2a568c23",
            "2a23a954f7eb14023d898aaddfc445fb710c7cc800eefae013268fbb3fc806a8",
        ),
        "medium": (
            "340dc1218981468400114fd057165d69a859da1c8cbf31150f09c2a163b26fc7",
            "fbf18a4c38652f3cd5990754e44f0a19d69ace29696ea994b598e7fcfc6250e6",
        ),
        "large": (
            "53f82e2990de96a18e6d620216ef86e9458007605237e14b5632548b9fdfa5e2",
            "aab3faa753165e10abe02cb136dca18222a7765a69fea4d024aac1227bc0cf08",
        ),
    }

    def test_every_ipm_factorization_matches_reference(self, monkeypatch):
        from repro.solvers import ipm

        seen = []

        def recording(K, sym):
            L, D = numeric_ldl(K, sym)
            seen.append((K, sym, L, D))
            return L, D

        monkeypatch.setattr(ipm, "numeric_ldl", recording)
        results = [InteriorPointSolver(trajectory_problem(h, o)).solve()
                   for _, h, o in BENCHMARK_SIZES]
        assert all(r.converged for r in results)
        assert [r.iterations for r in results] == [10, 10, 11]
        assert len(seen) == 31
        for K, sym, L, D in seen:
            Lr, Dr = reference_ldl(K, sym)
            assert _l_bits(L, sym) == _l_bits(Lr, sym)
            assert D.tobytes() == Dr.tobytes()

    @pytest.mark.parametrize("name,horizon,obstacles", BENCHMARK_SIZES)
    def test_generated_sources_pinned(self, name, horizon, obstacles):
        problem = trajectory_problem(horizon, obstacles)
        solve = generate_kernel(problem)
        # the ldlsolve() path, which Fig. 15 times, never builds the walk
        assert "factor_walk" not in vars(solve.symbolic)
        factor = generate_factor_kernel(problem)
        digests = tuple(hashlib.sha256(k.source.encode()).hexdigest()
                        for k in (factor, solve))
        assert digests == self.SOURCES[name]
