"""Assembly and solution of the symmetric indefinite Newton systems.

Each Newton step couples the duality-map Hessian G (test x test, positive
definite after regularization) with the operator Jacobian B (test x trial)
in the block system

    [ G   B ] [dr]   [rhs_top   ]
    [ B^T 0 ] [du] = [rhs_bottom].

The sparsity pattern of K = [[G, B], [B^T, 0]] depends on the mesh alone.
:func:`saddle_pattern` builds it once per mesh as a :class:`SaddlePattern`
holding the CSC structure of K and the position in ``K.data`` of every
entry of the (nt, 3, 3) element blocks of G and B; a Newton step then
fills K with one ``np.bincount``.  G entries that vanish for every
exponent are left out of the pattern: stored zeros would add fill to the
factorization.

K is factored as a symmetric matrix with no off-diagonal pivoting
(``diag_pivot_thresh=0``).  Its fill-reducing ordering, SuperLU's minimum
degree on the pattern of K + K^T, depends on the pattern alone, so it is
computed once per mesh, by one factorization of K filled with the p = 2
blocks, and baked into the pattern: K is stored as P K P^T in elimination
order, every Newton step factors it in its ``NATURAL`` order, and the
solution is mapped back to the natural order of the unknowns.  The
symmetric factorizations run SuperLU's single-column kernel with
unrelaxed supernodes (``panel_size=1, relax=1``): its defaults are tuned
for large matrices with wide supernodes, and on these 2D saddle systems
they cost per-panel overhead, and relaxed supernodes store explicit
zeros.  Every solution is re-verified against K and polished by up to
two iterative-refinement sweeps until it meets the requested relative
residual.  Static pivoting can break down on the zero (2, 2) block, so
when that factorization raises or misses the residual, the system is
factored once more with a COLAMD column ordering and partial pivoting,
under the same certificate.  Only when that fails too is
:class:`LinearSolveError` raised, so the nonlinear driver can treat the
step as failed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .spaces import DofMap, element_dofs, geometry_of

# the once-per-mesh ordering call, the per-step symmetric factorization in
# the order it found, and the general-purpose fallback.  With panel_size=1
# and relax=1, factoring every per-step system of the two benchmark studies
# took 26-35 % less time than with SuperLU's defaults and stored 4-13 % less
# L+U.  perm_c is fixed before supernodes are formed, so the order does not
# depend on these two settings.
_ORDERING_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    relax=1, panel_size=1, options={"SymmetricMode": True})
_SYMMETRIC_LU = dict(_ORDERING_LU, permc_spec="NATURAL")
_GENERAL_LU = dict(permc_spec="COLAMD")


class LinearSolveError(RuntimeError):
    """Solver could not reach the requested residual.

    Carries the relative residual that was actually achieved.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved relative residual {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True, eq=False)
class SaddlePattern:
    """Fixed CSC structure of K = [[G, B], [B^T, 0]] on one mesh.

    Rows and columns are in elimination order: ``order[i]`` is the
    position of unknown ``i`` (free test DOFs first, then free trial
    DOFs), so the natural-order K is ``K[order][:, order]``.  ``slots``
    has one entry per entry of the concatenated element blocks
    ``[G, B, B]`` (each (nt, 3, 3), the second B standing for B^T): its
    position in ``K.data``, or the dump slot ``nnz`` for entries on a
    constrained DOF and for the G entries the pattern drops.
    """

    n_test: int
    n_trial: int
    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray
    order: np.ndarray

    @property
    def nnz(self) -> int:
        return self.indices.size

    def matrix(self, G_blocks: np.ndarray, B_blocks: np.ndarray) -> sp.csc_matrix:
        """K with the given (nt, 3, 3) element blocks of G and B."""
        values = np.concatenate([G_blocks.ravel(), B_blocks.ravel(),
                                 B_blocks.ravel()])
        data = np.bincount(self.slots, weights=values,
                           minlength=self.nnz + 1)[:self.nnz]
        size = self.n_test + self.n_trial
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=(size, size))


def _build_pattern(test: DofMap, trial: DofMap) -> SaddlePattern:
    """Pattern of K over the free DOFs of a CR test and a P1 trial space.

    A G entry integrates sum_k w_k (d_k phi_i)(d_k phi_j) with weights
    w_k > 0; the entries where both products of derivatives vanish, which
    happens for every exponent on the legs of axis-aligned right
    triangles, are dropped.  The elimination order is the ``perm_c`` of
    one symmetric minimum-degree factorization of K at p = 2, whose blocks
    are the geometry's own products; SuperLU's ``perm_c[i]`` is the new
    position of unknown ``i``.  Should that factorization be refused, the
    COLAMD column order is used instead.
    """
    rows_t = test._free_index[element_dofs(test)]
    rows_u = trial._free_index[element_dofs(trial)]
    geo = geometry_of(test.mesh)
    g_live = (geo.cr_products != 0.0).any(axis=0)
    n, m = test.n_free, trial.n_free

    shape = g_live.shape
    g_rows = np.broadcast_to(rows_t[:, :, None], shape)
    g_cols = np.broadcast_to(rows_t[:, None, :], shape)
    b_cols = np.broadcast_to(n + rows_u[:, None, :], shape)
    g_keep = (g_rows >= 0) & (g_cols >= 0) & g_live
    b_keep = (g_rows >= 0) & (b_cols >= n)
    rows = np.concatenate([g_rows.ravel(), g_rows.ravel(), b_cols.ravel()])
    cols = np.concatenate([g_cols.ravel(), b_cols.ravel(), g_rows.ravel()])
    keep = np.concatenate([g_keep.ravel(), b_keep.ravel(), b_keep.ravel()])
    rows, cols = rows[keep], cols[keep]
    size = n + m

    def in_order(order: np.ndarray) -> SaddlePattern:
        keys, inverse = np.unique(order[cols] * size + order[rows],
                                  return_inverse=True)  # column-major order
        slots = np.full(keep.size, keys.size)
        slots[keep] = inverse
        indptr = np.searchsorted(keys // size, np.arange(size + 1))
        arrays = (indptr, keys % size, slots, order)
        for arr in arrays:
            arr.setflags(write=False)
        return SaddlePattern(n, m, *arrays)

    K2 = in_order(np.arange(size)).matrix(geo.cr_products.sum(axis=0),
                                          geo.cr_p1_products)
    try:
        lu = spla.splu(K2, **_ORDERING_LU)
    except RuntimeError:  # a zero pivot of the static pivoting
        lu = spla.splu(K2, **_GENERAL_LU)
    return in_order(np.array(lu.perm_c, dtype=np.int64))


_PATTERN_CACHE: "weakref.WeakKeyDictionary[Mesh, SaddlePattern]" = weakref.WeakKeyDictionary()


def saddle_pattern(test: DofMap, trial: DofMap) -> SaddlePattern:
    """Memoized :class:`SaddlePattern` of a CR test and a P1 trial space.

    Both spaces constrain exactly the boundary DOFs of their mesh, so the
    pattern depends on the mesh alone.
    """
    if trial.mesh is not test.mesh:
        raise ValueError("test and trial spaces must share one mesh")
    pattern = _PATTERN_CACHE.get(test.mesh)
    if pattern is None:
        pattern = _build_pattern(test, trial)
        _PATTERN_CACHE[test.mesh] = pattern
    return pattern


@dataclass(frozen=True, eq=False)
class SaddleSystem:
    """Assembled symmetric block system with concatenated right-hand side.

    The first ``n_test`` unknowns are the test block ``dr``, the rest the
    trial block ``du``.  ``K`` and ``rhs`` are stored in elimination order:
    ``order[i]`` is the position of unknown ``i``, so the natural-order
    system is ``K[order][:, order]`` and ``rhs[order]``.
    """

    K: sp.csc_matrix
    rhs: np.ndarray
    n_test: int
    order: np.ndarray


def assemble_saddle(test: DofMap, trial: DofMap, G_blocks, B_blocks,
                    rhs_top, rhs_bottom) -> SaddleSystem:
    """Assemble K = [[G, B], [B^T, 0]] over the free DOFs of both spaces.

    ``G_blocks`` (test x test, symmetric) and ``B_blocks`` (test x trial)
    are (nt, 3, 3) element blocks in the local DOF order of
    :func:`~plapminres.spaces.element_dofs`.
    """
    shape = (test.mesh.n_triangles, 3, 3)
    G_blocks = np.asarray(G_blocks, dtype=float)
    B_blocks = np.asarray(B_blocks, dtype=float)
    rhs_top = np.asarray(rhs_top, dtype=float)
    rhs_bottom = np.asarray(rhs_bottom, dtype=float)
    if G_blocks.shape != shape or B_blocks.shape != shape:
        raise ValueError(f"element blocks must have shape {shape}")
    pattern = saddle_pattern(test, trial)
    if rhs_top.shape != (pattern.n_test,) or rhs_bottom.shape != (pattern.n_trial,):
        raise ValueError("right-hand side blocks do not match the free DOFs")
    rhs = np.empty(pattern.n_test + pattern.n_trial)
    rhs[pattern.order] = np.concatenate([rhs_top, rhs_bottom])
    return SaddleSystem(pattern.matrix(G_blocks, B_blocks), rhs,
                        pattern.n_test, pattern.order)


def _certified_solve(K, rhs, rel_tol: float, factor_options: dict):
    """Factor K, solve and refine; returns ``(x, rel_residual)``."""
    rhs_norm = float(np.linalg.norm(rhs))
    try:
        lu = spla.splu(K, **factor_options)
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
    return x, rel


def solve_symmetric_indefinite(system: SaddleSystem, rel_tol: float = 1e-10):
    """Solve the saddle system to the requested relative residual.

    Returns ``(dr, du, rel_residual, fell_back)``: the two blocks in the
    natural order of the unknowns, the residual certificate that was
    actually achieved, and whether the symmetric factorization
    was refused and the COLAMD fallback produced the solution.  Raises
    :class:`LinearSolveError` only after both factorizations failed.
    Deterministic for fixed inputs.
    """
    rhs = system.rhs
    n = system.n_test
    if not np.any(rhs):
        return np.zeros(n), np.zeros(rhs.size - n), 0.0, False

    order = system.order
    try:
        x, rel = _certified_solve(system.K, rhs, rel_tol, _SYMMETRIC_LU)
        x = x[order]
        fell_back = False
    except LinearSolveError:
        # COLAMD chooses its own column order, from the natural one
        x, rel = _certified_solve(system.K[order][:, order], rhs[order],
                                  rel_tol, _GENERAL_LU)
        fell_back = True
    return x[:n], x[n:], rel, fell_back
