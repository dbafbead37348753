"""CVXGEN-style code generation of the `ldlsolve()` kernel.

CVXGEN unrolls the KKT triangular solves into straight-line C code with
one statement per non-zero; the paper compiles exactly this function to
hardware ("The ldlsolve() function, which holds the core solver
algorithm, is selected for hardware compilation", Sec. IV-D).  The
generated source is plain C-like assignment code consumable by
:func:`repro.hls.parse_program`:

    y0 = b0;
    y5 = b5 - L5_0*y0 - L5_3*y3;
    z5 = y5*dinv5;
    x5 = z5 - L7_5*x7;

Forward substitution, diagonal scaling and backward substitution over
the fixed fill-in pattern -- long chains of dependent multiply-add
operations, the workload Fig. 15 measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kkt import kkt_sparsity
from .ldl import SymbolicLDL, symbolic_ldl
from .qp import QPProblem

__all__ = ["SolverKernel", "generate_ldlsolve_source", "generate_kernel",
           "FactorKernel", "generate_ldlfactor_source",
           "generate_factor_kernel"]


def generate_ldlsolve_source(sym: SymbolicLDL) -> str:
    """Emit the straight-line `ldlsolve()` source for a symbolic
    factorization (permuted coordinates)."""
    rows = sym.rows()
    cols = sym.cols()
    lines: list[str] = [f"// ldlsolve: n={sym.n}, nnz(L)={sym.nnz}"]
    # forward substitution: L y = b
    for i in range(sym.n):
        terms = "".join(f" - L{i}_{j}*y{j}" for j in rows[i])
        lines.append(f"y{i} = b{i}{terms};")
    # backward substitution with the diagonal scaling folded in:
    #   x_i = dinv_i*y_i - sum_j L_ji*x_j
    # (inlining D^-1 keeps the whole chain in multiply-add form, so the
    # FMA pass can fuse the scale into the first subtraction)
    for i in range(sym.n - 1, -1, -1):
        terms = "".join(f" - L{j}_{i}*x{j}" for j in cols[i])
        lines.append(f"x{i} = dinv{i}*y{i}{terms};")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SolverKernel:
    """A generated `ldlsolve()` kernel plus its metadata."""

    name: str
    source: str
    symbolic: SymbolicLDL

    @property
    def output_names(self) -> list[str]:
        return [f"x{i}" for i in range(self.symbolic.n)]

    def input_bindings(self, L: dict[tuple[int, int], float],
                       D: np.ndarray,
                       rhs: np.ndarray) -> dict[str, float]:
        """Bind a concrete factorization + right-hand side to the
        kernel's input names (rhs given in *original* coordinates)."""
        sym = self.symbolic
        binds: dict[str, float] = {}
        permuted = rhs[sym.order]
        for i in range(sym.n):
            binds[f"b{i}"] = float(permuted[i])
            binds[f"dinv{i}"] = float(1.0 / D[i])
        for (i, j), v in L.items():
            binds[f"L{i}_{j}"] = float(v)
        return binds

    def unpermute(self, outputs: dict[str, float]) -> np.ndarray:
        """Map kernel outputs back to original variable order."""
        sym = self.symbolic
        x = np.zeros(sym.n)
        for i in range(sym.n):
            x[sym.order[i]] = outputs[f"x{i}"]
        return x

    @property
    def statement_count(self) -> int:
        return sum(1 for line in self.source.splitlines()
                   if line.strip().endswith(";"))


def generate_kernel(problem: QPProblem,
                    name: str | None = None) -> SolverKernel:
    """CVXGEN-like flow: problem -> KKT sparsity -> symbolic LDL ->
    generated `ldlsolve()` kernel."""
    pattern = kkt_sparsity(problem)
    sym = symbolic_ldl(pattern)
    return SolverKernel(
        name=name or f"ldlsolve_{problem.name}",
        source=generate_ldlsolve_source(sym),
        symbolic=sym,
    )


# ---------------------------------------------------------------------------
# ldlfactor(): the factorization phase (CVXGEN generates this too; the
# paper compiles only ldlsolve, but a full solver deployment needs both)
# ---------------------------------------------------------------------------

def generate_ldlfactor_source(sym: SymbolicLDL) -> str:
    """Emit the straight-line `ldlfactor()` source: the static-order
    LDL^T factorization unrolled over the fill-in pattern.

    Unlike `ldlsolve()`, the factorization contains *divisions*
    (``dinv_j = 1/d_j``), which is exactly why CVXGEN keeps it off the
    per-iteration hot path where possible and why the paper's FMA pass
    targets the solve phase.
    """
    lines = [f"// ldlfactor: n={sym.n}, nnz(L)={sym.nnz}"]
    for j, (d_terms, entries) in enumerate(sym.factor_walk):
        terms = "".join(f" - L{j}_{k}*L{j}_{k}*d{k}" for k in d_terms)
        lines.append(f"d{j} = K{j}_{j}{terms};")
        lines.append(f"dinv{j} = 1.0/d{j};")
        for i, ks in entries:
            terms = "".join(f" - L{i}_{k}*L{j}_{k}*d{k}" for k in ks)
            lines.append(f"L{i}_{j} = (K{i}_{j}{terms})*dinv{j};")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FactorKernel:
    """A generated `ldlfactor()` kernel plus its metadata."""

    name: str
    source: str
    symbolic: SymbolicLDL

    @property
    def output_names(self) -> list[str]:
        names = [f"dinv{j}" for j in range(self.symbolic.n)]
        names += [f"L{i}_{j}" for i, j in self.symbolic.l_pattern]
        return names

    def input_bindings(self, K: np.ndarray) -> dict[str, float]:
        """Bind the (original-coordinates) KKT matrix to the kernel's
        ``K{i}_{j}`` inputs (permuted, lower triangle + diagonal)."""
        sym = self.symbolic
        Kp = K[np.ix_(sym.order, sym.order)]
        binds = {f"K{j}_{j}": float(Kp[j, j]) for j in range(sym.n)}
        for i, j in sym.l_pattern:
            binds[f"K{i}_{j}"] = float(Kp[i, j])
        return binds

    def extract(self, outputs: dict[str, float]
                ) -> tuple[dict[tuple[int, int], float], np.ndarray]:
        """Recover (L, D) in the shape :func:`repro.solvers.ldl_solve`
        expects."""
        sym = self.symbolic
        L = {(i, j): outputs[f"L{i}_{j}"] for i, j in sym.l_pattern}
        D = np.array([1.0 / outputs[f"dinv{j}"] for j in range(sym.n)])
        return L, D

    @property
    def statement_count(self) -> int:
        return sum(1 for line in self.source.splitlines()
                   if line.strip().endswith(";"))

    @property
    def division_count(self) -> int:
        return self.symbolic.n


def generate_factor_kernel(problem: QPProblem,
                           name: str | None = None) -> FactorKernel:
    """Problem -> KKT sparsity -> symbolic LDL -> `ldlfactor()` kernel."""
    pattern = kkt_sparsity(problem)
    sym = symbolic_ldl(pattern)
    return FactorKernel(
        name=name or f"ldlfactor_{problem.name}",
        source=generate_ldlfactor_source(sym),
        symbolic=sym,
    )
