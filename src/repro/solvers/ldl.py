"""Sparse LDL^T factorization: ordering, symbolic analysis, numerics.

CVXGEN's generated solvers rely on an ahead-of-time *symbolic* LDL^T
factorization of the fixed-sparsity KKT matrix: the elimination order,
the fill-in pattern and therefore the full straight-line program of the
factor/solve phases are known at code-generation time.  This module
implements that pipeline:

* :func:`min_degree_order` -- a greedy minimum-degree fill-reducing
  permutation,
* :func:`symbolic_ldl` -- fill-in analysis for a fixed order; the
  result's :attr:`SymbolicLDL.factor_walk` is the static factor
  schedule (which ``k`` terms update each ``D[j]`` and ``L[i, j]``, in
  order), built on first use,
* :func:`numeric_ldl` / :func:`ldl_solve` -- the factorization (no
  pivoting; the regularized quasidefinite KKT makes this sound) and the
  triangular solves, each one scalar loop over that walk.

The walk is written once: :func:`numeric_ldl` and the `ldlfactor()`
code generator in :mod:`repro.solvers.codegen` both read it.  The
`ldlsolve()` generator reads the same fill-in pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "min_degree_order",
    "FactorColumn",
    "SymbolicLDL",
    "symbolic_ldl",
    "numeric_ldl",
    "ldl_solve",
    "ldl_solve_dense",
]


def min_degree_order(pattern: np.ndarray) -> np.ndarray:
    """Greedy minimum-degree ordering of a symmetric sparsity pattern.

    Simulates elimination on the boolean adjacency structure, always
    picking the node of least current degree (ties by index for
    determinism).  Returns the permutation ``order`` such that pivot
    ``k`` eliminates original row/column ``order[k]``.
    """
    n = pattern.shape[0]
    adj: list[set[int]] = [set(np.nonzero(pattern[i])[0].tolist()) - {i}
                           for i in range(n)]
    alive = set(range(n))
    order = np.empty(n, dtype=int)
    for k in range(n):
        pick = min(alive, key=lambda i: (len(adj[i] & alive), i))
        order[k] = pick
        alive.discard(pick)
        neigh = adj[pick] & alive
        for i in neigh:
            adj[i] |= neigh - {i}
            adj[i].discard(pick)
    return order


class FactorColumn(NamedTuple):
    """Column ``j`` of the static factor walk (permuted coordinates).

    ``d_terms`` holds the ``k`` of ``d_j = K_jj - sum_k L_jk*L_jk*d_k``
    (row ``j`` of L, ascending).  ``entries`` holds one ``(i, ks)`` per
    ``i`` in column ``j`` of L (ascending), where ``ks`` are the ``k`` of
    ``L_ij = (K_ij - sum_k L_ik*L_jk*d_k) / d_j``: the columns rows ``i``
    and ``j`` share, in ``d_terms`` order.
    """

    d_terms: tuple[int, ...]
    entries: tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class SymbolicLDL:
    """Result of the symbolic analysis.

    ``order`` maps pivot position -> original index; ``l_pattern`` holds
    the strictly-lower-triangular non-zero positions of L *in permuted
    coordinates*, row-major sorted.
    """

    n: int
    order: np.ndarray
    l_pattern: tuple[tuple[int, int], ...]

    @property
    def nnz(self) -> int:
        return len(self.l_pattern)

    def rows(self) -> list[list[int]]:
        """Column indices of L per row (permuted coordinates)."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.l_pattern:
            out[i].append(j)
        return out

    def cols(self) -> list[list[int]]:
        """Row indices of L per column (permuted coordinates)."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.l_pattern:
            out[j].append(i)
        return out

    @cached_property
    def factor_walk(self) -> tuple[FactorColumn, ...]:
        """The static factor schedule, one :class:`FactorColumn` per
        pivot; computed on first use and kept on the instance."""
        rows = self.rows()
        row_sets = [set(r) for r in rows]
        return tuple(
            FactorColumn(tuple(rows[j]),
                         tuple((i, tuple(k for k in rows[j]
                                         if k in row_sets[i]))
                               for i in col))
            for j, col in enumerate(self.cols()))


def symbolic_ldl(pattern: np.ndarray,
                 order: np.ndarray | None = None) -> SymbolicLDL:
    """Compute the fill-in pattern of L for a fixed elimination order."""
    n = pattern.shape[0]
    if pattern.shape != (n, n):
        raise ValueError("pattern must be square")
    if not np.array_equal(pattern, pattern.T):
        raise ValueError("pattern must be symmetric")
    if order is None:
        order = min_degree_order(pattern)
    perm = np.asarray(order)
    # permuted boolean matrix
    pat = pattern[np.ix_(perm, perm)].copy()
    np.fill_diagonal(pat, True)
    lpat: list[tuple[int, int]] = []
    for k in range(n):
        below = np.nonzero(pat[k + 1:, k])[0] + k + 1
        for i in below:
            lpat.append((int(i), k))
        # fill-in: eliminating k connects all its below-diagonal entries
        for a in below:
            for bidx in below:
                if bidx < a:
                    pat[a, bidx] = True
                    pat[bidx, a] = True
    lpat.sort()
    return SymbolicLDL(n, perm, tuple(lpat))


def numeric_ldl(K: np.ndarray, sym: SymbolicLDL,
                ) -> tuple[dict[tuple[int, int], float], np.ndarray]:
    """Factor ``K`` (symmetric, quasidefinite) as ``P' K P = L D L'``.

    Returns the sparse L entries (permuted coordinates) and the diagonal
    D.  No pivoting is performed -- the loop runs the static schedule
    :attr:`SymbolicLDL.factor_walk`, the one the generated `ldlfactor()`
    kernel unrolls.  Every update term is ``L_ik*L_jk*d_k`` (squares too:
    ``**`` goes through libm ``pow``, which is not correctly rounded),
    subtracted in walk order; where the kernel multiplies by ``dinv_j``
    this divides by ``d_j``.
    """
    Kf = np.asarray(K, dtype=float)
    perm = sym.order
    li, lj = np.array(sym.l_pattern, dtype=np.intp).reshape(-1, 2).T
    # L and D start as P'KP's strict lower triangle and diagonal; the
    # walk overwrites column j once every column before it is final
    L = dict(zip(sym.l_pattern, Kf[perm[li], perm[lj]].tolist()))
    D = Kf[perm, perm].tolist()
    for j, (d_terms, entries) in enumerate(sym.factor_walk):
        acc = D[j]
        for k in d_terms:
            ljk = L[(j, k)]
            acc -= ljk * ljk * D[k]
        if acc == 0.0:
            raise ZeroDivisionError(
                f"zero pivot at position {j}; regularize the KKT system")
        D[j] = acc
        for i, ks in entries:
            s = L[(i, j)]
            for k in ks:
                s -= L[(i, k)] * L[(j, k)] * D[k]
            L[(i, j)] = s / acc
    return L, np.array(D)


def ldl_solve(L: dict[tuple[int, int], float], D: np.ndarray,
              sym: SymbolicLDL, rhs: np.ndarray) -> np.ndarray:
    """Solve ``K x = rhs`` given the factorization.

    Forward substitution ``L y = b``, diagonal scaling ``z = y / D`` and
    backward substitution ``L' x = z`` on the fixed sparsity of
    :attr:`SymbolicLDL.factor_walk`.  The generated `ldlsolve()` kernel
    runs the same multiply-add chains but folds the scaling into the
    backward pass as a multiply by ``dinv_i``, so it may round
    differently.
    """
    walk = sym.factor_walk
    b = np.asarray(rhs, dtype=float)[sym.order].tolist()
    # forward: L y = b
    y: list[float] = []
    for i, (ks, _) in enumerate(walk):
        acc = b[i]
        for j in ks:
            acc -= L[(i, j)] * y[j]
        y.append(acc)
    # diagonal, then backward in place: L' x = z
    x = (np.array(y) / D).tolist()
    for i in range(sym.n - 1, -1, -1):
        acc = x[i]
        for j, _ in walk[i].entries:
            acc -= L[(j, i)] * x[j]
        x[i] = acc
    out = np.zeros(sym.n)
    out[sym.order] = x
    return out


def ldl_solve_dense(K: np.ndarray, rhs: np.ndarray,
                    sym: SymbolicLDL | None = None) -> np.ndarray:
    """Convenience: symbolic (if needed) + numeric + solve in one call."""
    if sym is None:
        sym = symbolic_ldl(np.abs(K) > 0)
    L, D = numeric_ldl(K, sym)
    return ldl_solve(L, D, sym, rhs)
