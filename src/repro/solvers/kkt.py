"""KKT system assembly for the primal-dual interior-point method.

CVXGEN-generated solvers spend their time factoring and solving one
fixed-sparsity KKT system per IPM iteration.  Following CVXGEN, we use
the regularized symmetric quasidefinite form

    K = [ P + eps*I    A'         G'      ]
        [ A            -eps*I     0       ]
        [ G            0          -W      ]

with ``W = diag(s / lam)`` from the current iterate.  The *sparsity* of
K is fixed by the problem structure, which is what makes ahead-of-time
symbolic factorization (and hardware code generation) possible.
"""

from __future__ import annotations

import numpy as np

from .ldl import SymbolicLDL, ldl_solve, numeric_ldl, symbolic_ldl
from .qp import QPProblem

__all__ = ["assemble_kkt", "kkt_dimension", "kkt_sparsity", "kkt_solve"]


def kkt_dimension(problem: QPProblem) -> int:
    return problem.n + problem.n_eq + problem.n_ineq


def assemble_kkt(problem: QPProblem, w_diag: np.ndarray,
                 eps: float = 1e-7) -> np.ndarray:
    """Dense KKT matrix for the current scaling ``w_diag`` (length
    ``n_ineq``, strictly positive)."""
    n, m, p = problem.n, problem.n_eq, problem.n_ineq
    if w_diag.shape != (p,):
        raise ValueError("w_diag must have one entry per inequality")
    if np.any(w_diag <= 0):
        raise ValueError("w_diag must be strictly positive")
    N = n + m + p
    K = np.zeros((N, N))
    K[:n, :n] = problem.P + eps * np.eye(n)
    K[:n, n:n + m] = problem.A.T
    K[n:n + m, :n] = problem.A
    K[n:n + m, n:n + m] = -eps * np.eye(m)
    K[:n, n + m:] = problem.G.T
    K[n + m:, :n] = problem.G
    K[n + m:, n + m:] = -np.diag(w_diag)
    return K


def kkt_sparsity(problem: QPProblem, tol: float = 0.0) -> np.ndarray:
    """Boolean lower-triangle-inclusive sparsity pattern of K.

    The pattern is structural: any entry that can ever be non-zero for
    some iterate is marked (diagonal blocks are always present).
    """
    w = np.ones(problem.n_ineq)
    K = assemble_kkt(problem, w, eps=1.0)
    pattern = np.abs(K) > tol
    np.fill_diagonal(pattern, True)
    return pattern


def kkt_solve(problem: QPProblem, w_diag: np.ndarray, rhs: np.ndarray,
              sym: SymbolicLDL | None = None, *,
              eps: float = 1e-7) -> np.ndarray:
    """Assemble, factor and solve ``K x = rhs`` for one IPM iterate.

    Convenience wrapper over :func:`assemble_kkt` +
    :func:`~repro.solvers.ldl.numeric_ldl` +
    :func:`~repro.solvers.ldl.ldl_solve`; pass a precomputed ``sym`` to
    reuse the symbolic analysis (and its factor walk) across iterations.
    """
    if sym is None:
        sym = symbolic_ldl(kkt_sparsity(problem))
    K = assemble_kkt(problem, w_diag, eps)
    L, D = numeric_ldl(K, sym)
    return ldl_solve(L, D, sym, rhs)
