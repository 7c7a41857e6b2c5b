"""Assembly and solution of the symmetric indefinite Newton systems.

Each Newton step couples the duality-map Hessian G (test x test, positive
definite after regularization) with the operator Jacobian B (test x trial)
in the block system

    [ G   B ] [dr]   [rhs_top   ]
    [ B^T 0 ] [du] = [rhs_bottom].

The system is solved by a sparse direct LU factorization with partial
pivoting; every solution is re-verified against the assembled matrix and
polished by iterative refinement until it meets the requested relative
residual, otherwise :class:`LinearSolveError` is raised so the nonlinear
driver can treat the step as failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class LinearSolveError(RuntimeError):
    """Solver could not reach the requested residual.

    Carries the relative residual that was actually achieved.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved relative residual {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True, eq=False)
class SaddleSystem:
    """Assembled symmetric block system with concatenated right-hand side.

    The first ``n_test`` unknowns are the test block ``dr``, the rest the
    trial block ``du``.
    """

    K: sp.csc_matrix
    rhs: np.ndarray
    n_test: int


def assemble_saddle(G, B, rhs_top, rhs_bottom) -> SaddleSystem:
    """Validate block dimensions and assemble K = [[G, B], [B^T, 0]]."""
    G = sp.csr_matrix(G)
    B = sp.csr_matrix(B)
    rhs_top = np.asarray(rhs_top, dtype=float)
    rhs_bottom = np.asarray(rhs_bottom, dtype=float)
    n = G.shape[0]
    m = B.shape[1]
    if G.shape != (n, n):
        raise ValueError(f"G must be square, got {G.shape}")
    if B.shape[0] != n:
        raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
    if rhs_top.shape != (n,) or rhs_bottom.shape != (m,):
        raise ValueError("right-hand side blocks do not match the matrices")
    K = sp.bmat([[G, B], [B.T, None]], format="csc")
    return SaddleSystem(K, np.concatenate([rhs_top, rhs_bottom]), n)


def solve_symmetric_indefinite(system: SaddleSystem, rel_tol: float = 1e-10):
    """Solve the saddle system to the requested relative residual.

    Returns ``(dr, du, rel_residual)`` with the residual certificate that
    was actually achieved.  Deterministic for fixed inputs.
    """
    rhs = system.rhs
    n = system.n_test
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros(n), np.zeros(rhs.size - n), 0.0

    K = system.K
    try:
        lu = spla.splu(K, permc_spec="COLAMD")
    except RuntimeError as exc:  # SuperLU reports exact singularity
        raise LinearSolveError(str(exc), np.inf) from exc
    x = lu.solve(rhs)
    residual = rhs - K @ x
    rel = float(np.linalg.norm(residual)) / rhs_norm
    # one or two refinement sweeps recover the certificate when the
    # factorization alone falls short on ill-conditioned systems
    for _ in range(2):
        if rel <= rel_tol:
            break
        x = x + lu.solve(residual)
        residual = rhs - K @ x
        rel = float(np.linalg.norm(residual)) / rhs_norm

    if not np.isfinite(rel) or rel > rel_tol:
        raise LinearSolveError("saddle-point solve failed", rel)
    return x[:n], x[n:], rel
