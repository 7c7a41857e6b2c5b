"""Assembly and solution of the symmetric indefinite Newton systems.

Each Newton step couples the duality-map Hessian G (test x test, positive
definite after regularization) with the operator Jacobian B (test x trial)
in the block system

    [ G   B ] [dr]   [rhs_top   ]
    [ B^T 0 ] [du] = [rhs_bottom].

The sparsity pattern of K = [[G, B], [B^T, 0]] depends on the mesh alone,
and so does the way its entries depend on the nonlinearity: every entry
of K is a fixed linear combination of five element weights per triangle
(the two componentwise duality weights of G and the three entries of the
symmetric operator tensor of B, see :mod:`plapminres.forms`).
:func:`saddle_pattern` builds both as a :class:`SaddlePattern`: the CSC
structure of K and a sparse values map M whose product ``M @ w`` gives
the lower-triangle entries of ``K.data``, w holding the five weights of
every element.  K is symmetric, so each coupling is mapped once: every
strictly-upper entry is a copy of its transpose, the way symmetric
sparse matrices are stored (Davis, Direct Methods for Sparse Linear
Systems, SIAM 2006, ch. 2).  The driver builds the pattern once per
level and the forms of every exponent carry it; a Newton step fills K
with that one sparse product and one copy into the upper triangle, and
no element block is formed or scattered.  G entries that vanish for
every exponent are left out of the pattern: stored zeros would add fill
to the factorization.

K is factored as a symmetric matrix with no off-diagonal pivoting
(``diag_pivot_thresh=0``).  Its fill-reducing ordering depends on the
pattern alone, so :func:`saddle_pattern` computes it once per mesh: it
builds K at p = 2 in the natural order, straight from the element
coefficients, and takes SuperLU's minimum degree on the pattern of
K + K^T from one factorization of it.  It then moves every trial unknown
that this order puts before all of the test unknowns it couples to to
just after the first of them (Bridson, SIAM J. Sci. Comput. 2007): its
diagonal is still a structural zero when its turn comes, so static
pivoting would take an off-diagonal pivot, which breaks the symmetric
structure and adds fill.  Only then does it lay the pattern out, once,
in that elimination order: K is stored as P K P^T, every Newton step
factors it in its ``NATURAL`` order, with diagonal pivots only on the
graded meshes too, and the solution is mapped back to the natural order
of the unknowns.  The symmetric factorizations run SuperLU's
single-column kernel with unrelaxed supernodes (``panel_size=1,
relax=1``): its defaults are tuned for large matrices with wide
supernodes, and on these 2D saddle systems they cost per-panel overhead,
and relaxed supernodes store explicit zeros.  Every solution is
checked once against K: its relative residual or its normwise backward
error must meet ``CERTIFICATE_TOL``.  Static pivoting can break down on
the zero (2, 2) block, so when that factorization raises or misses the
certificate, the stored K is factored once more with a COLAMD column
ordering and partial pivoting, under the same certificate.  Only when
that fails too is :class:`LinearSolveError` raised, so the nonlinear
driver can treat the step as failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh
from .spaces import DofMap

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

CERTIFICATE_TOL = 1e-10  # on the relative residual or the backward error


class LinearSolveError(RuntimeError):
    """Solver could not reach the requested residual.

    Carries the relative residual that was actually achieved.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved relative residual {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True, eq=False)
class SaddlePattern:
    """Fixed CSC structure of K = [[G, B], [B^T, 0]] on ``mesh``, and the
    map from element weights to its values.

    Rows and columns are in elimination order: ``order[i]`` is the
    position of unknown ``i`` (free test DOFs first, then free trial
    DOFs), so the natural-order K is ``K[order][:, order]``.  ``values``
    (nnz x 5 nt, CSR with sorted column indices) gives the lower triangle
    of ``K.data`` (the slots whose row position is at least their column
    position, the diagonal included) as ``values @ w`` for the element
    weights ``w`` of both Jacobians, one after the other: the (nt, 2)
    area-weighted duality weights of G, then the (nt, 3) area-weighted
    operator tensor entries (A_00, A_01, A_11) of B, each in row-major
    order.  Its rows of the strictly-upper slots are empty; the int32
    slots ``upper`` take their values from the transposed slots
    ``mirror``, ``K.data[upper] = K.data[mirror]``, so K is exactly
    symmetric.
    """

    mesh: Mesh
    n_test: int
    n_trial: int
    indptr: np.ndarray
    indices: np.ndarray
    values: sp.csr_matrix
    upper: np.ndarray
    mirror: np.ndarray
    order: np.ndarray


def saddle_pattern(test: DofMap, trial: DofMap) -> SaddlePattern:
    """Pattern and values map of K over the free DOFs of a CR test and a
    P1 trial space on one mesh.

    Both spaces constrain exactly the boundary DOFs of their mesh, so the
    pattern depends on the mesh alone.

    On triangle t, the G entry of local test functions i, j weighs
    ``(d_k phi_i)(d_k phi_j)`` with duality weight k, and the B entry of
    test function i and trial function j weighs ``grad(phi_i)^T E
    grad(psi_j)`` with the operator tensor entries, E running over the
    symmetric unit tensors of A_00, A_01 and A_11; the basis gradients
    are the spaces' own ``basis_gradients``.  The G entries where both
    products vanish, which happens for every exponent on the legs of
    axis-aligned right triangles, are dropped, and so are zero
    coefficients of the values map.  K at p = 2, the coefficients at the
    weights ``area * (1, 1)`` and ``area * (1, 0, 1)``, is built first, in
    the natural order.  The elimination order is the ``perm_c`` of one
    symmetric minimum-degree factorization of it (SuperLU's ``perm_c[i]``
    is the new position of unknown ``i``), or its COLAMD column order
    should that factorization be refused.  A trial unknown placed before
    every test unknown it couples to (in B) is then moved to just after
    the first of them, those landing after the same one keeping their
    order: it would meet a zero diagonal and take an off-diagonal pivot.
    On uniform meshes no trial unknown moves.  Only then are the entries
    and the values map laid out, once, in that order: the map gets rows
    for the lower-triangle slots of P K P^T only, and every strictly-upper
    slot is paired with the slot of its transpose, found by a search of
    the sorted entry keys.
    """
    if trial.mesh is not test.mesh:
        raise ValueError("test and trial spaces must share one mesh")
    rows_t = test.free_index[test.element_dofs]
    rows_u = trial.free_index[trial.element_dofs]
    c = test.basis_gradients[:, :, None, :]    # (nt, 3, 1, 2): test i
    q = trial.basis_gradients[:, None, :, :]   # (nt, 1, 3, 2): trial j
    g_coef = c * c.transpose(0, 2, 1, 3)  # (nt, 3, 3, 2)
    b_coef = np.stack([c[..., 0] * q[..., 0],
                       c[..., 0] * q[..., 1] + c[..., 1] * q[..., 0],
                       c[..., 1] * q[..., 1]], axis=-1)  # (nt, 3, 3, 3)
    mesh = test.mesh
    nt = mesh.n_triangles
    n, m = test.n_free, trial.n_free
    size = n + m

    shape = g_coef.shape[:3]
    g_rows = np.broadcast_to(rows_t[:, :, None], shape)
    g_cols = np.broadcast_to(rows_t[:, None, :], shape)
    b_cols = np.broadcast_to(n + rows_u[:, None, :], shape)
    g_keep = (g_rows >= 0) & (g_cols >= 0) & (g_coef != 0.0).any(axis=-1)
    b_keep = (g_rows >= 0) & (b_cols >= n)
    # the kept entries of G, B and B^T, one block after the other
    rows = np.concatenate([g_rows[g_keep], g_rows[b_keep],
                           b_cols[b_keep]]).astype(np.int32)
    cols = np.concatenate([g_cols[g_keep], b_cols[b_keep],
                           g_rows[b_keep]]).astype(np.int32)

    # K at p = 2 in the natural order: weights area (1, 1) and (1, 0, 1)
    area = mesh.areas[:, None, None]
    b2 = (area * (b_coef[..., 0] + b_coef[..., 2]))[b_keep]
    K2 = sp.csc_matrix((np.concatenate([
        (area * (g_coef[..., 0] + g_coef[..., 1]))[g_keep], b2, b2]),
        (rows, cols)), shape=(size, size))
    try:
        lu = spla.splu(K2, **_ORDERING_LU)
    except RuntimeError:  # a zero pivot of the static pivoting
        lu = spla.splu(K2, **_GENERAL_LU)
    order = np.array(lu.perm_c, dtype=np.int64)

    # no trial unknown before all of its test neighbours: move each such
    # one to just after the first of them, keeping the order among those
    # that land after the same one
    first = np.full(m, size, dtype=np.int64)  # an uncoupled one goes last
    np.minimum.at(first, np.repeat(np.arange(m), np.diff(K2.indptr[n:])),
                  order[K2.indices[K2.indptr[n]:]])
    anchor = order.copy()
    anchor[n:] = np.maximum(order[n:], first)
    order[np.lexsort((order, anchor != order, anchor))] = np.arange(size)
    # K2 is freed here to keep the peak low, but the ordering factor, the
    # largest allocation of a study, only on return.  Freeing that mapped
    # block raises glibc's dynamic mmap threshold above the per-step SuperLU
    # workspaces, which then reuse heap pages instead of faulting in fresh
    # mappings.  Measure the minor page faults per study before freeing it
    # elsewhere or swapping this ordering call.
    del K2, b2

    # the entries in the column-major order of P K P^T: one sort of their
    # keys, each entry mapped to its slot through a 32-bit inverse
    keys = order[cols] * size + order[rows]
    del rows, cols
    sort = np.argsort(keys)
    keys = keys[sort]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    inverse = np.empty(keys.size, dtype=np.int32)
    inverse[sort] = np.cumsum(new, dtype=np.int32) - 1
    keys = keys[new]
    del sort, new
    # 32-bit, as SuperLU takes them: csc_matrix then keeps them uncopied
    slot_col, slot_row = np.divmod(keys, size)
    indptr = np.searchsorted(slot_col, np.arange(size + 1)).astype(np.int32)
    indices = slot_row.astype(np.int32)
    # K is symmetric: the values map covers its lower triangle, and each
    # strictly-upper slot copies the slot of its transpose
    lower = slot_row >= slot_col
    upper = np.flatnonzero(~lower).astype(np.int32)
    mirror = np.searchsorted(
        keys, slot_row[upper] * size + slot_col[upper]).astype(np.int32)
    del keys, slot_col, slot_row
    keep = np.stack([g_keep, b_keep, b_keep])
    slots = np.full(keep.shape, -1, dtype=np.int32)
    slots[keep] = inverse
    g_slots, b_slots, bt_slots = slots
    del keep, inverse

    # values map as triplets: one per element entry and nonzero
    # coefficient, element by element, so each row sums in column order;
    # written block by block into arrays allocated once
    t = np.arange(nt, dtype=np.int32)[:, None, None, None]
    parts = [(g_slots, 2 * t + np.arange(2, dtype=np.int32), g_coef)]
    parts += [(slot, 2 * nt + 3 * t + np.arange(3, dtype=np.int32), b_coef)
              for slot in (b_slots, bt_slots)]
    lives = [((slot >= 0) & lower[slot])[..., None] & (coef != 0.0)
             for slot, _, coef in parts]
    ends = np.cumsum([0] + [np.count_nonzero(live) for live in lives])
    data = np.empty(ends[-1])
    map_rows = np.empty(ends[-1], dtype=np.int32)
    map_cols = np.empty(ends[-1], dtype=np.int32)
    for (slot, col, coef), live, lo, hi in zip(parts, lives, ends, ends[1:]):
        data[lo:hi] = coef[live]
        map_rows[lo:hi] = np.broadcast_to(slot[..., None], coef.shape)[live]
        map_cols[lo:hi] = np.broadcast_to(col, coef.shape)[live]
    del parts, lives, slots, g_slots, b_slots, bt_slots, g_coef, b_coef
    del lower
    values = sp.csr_matrix((data, (map_rows, map_cols)),
                           shape=(indices.size, 5 * nt))  # indices sorted
    for arr in (indptr, indices, order, upper, mirror, values.data,
                values.indices, values.indptr):
        arr.setflags(write=False)
    return SaddlePattern(mesh, n, m, indptr, indices, values, upper, mirror,
                         order)


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


def assemble_saddle(pattern: SaddlePattern, G_weights, B_weights,
                    rhs_top, rhs_bottom) -> SaddleSystem:
    """Assemble K = [[G, B], [B^T, 0]] on the given pattern.

    ``G_weights`` (nt, 2) are the area-weighted componentwise weights of
    the duality-map Hessian and ``B_weights`` (nt, 3) the area-weighted
    operator tensor entries (A_00, A_01, A_11) of the operator Jacobian,
    as returned by :mod:`plapminres.forms`.  The values map fills the
    lower triangle of K, and each strictly-upper entry is copied from its
    transpose.
    """
    nt = pattern.mesh.n_triangles
    G_weights = np.asarray(G_weights, dtype=float)
    B_weights = np.asarray(B_weights, dtype=float)
    rhs_top = np.asarray(rhs_top, dtype=float)
    rhs_bottom = np.asarray(rhs_bottom, dtype=float)
    if G_weights.shape != (nt, 2) or B_weights.shape != (nt, 3):
        raise ValueError(f"element weights must have shapes ({nt}, 2) and "
                         f"({nt}, 3)")
    if rhs_top.shape != (pattern.n_test,) or rhs_bottom.shape != (pattern.n_trial,):
        raise ValueError("right-hand side blocks do not match the free DOFs")
    size = pattern.n_test + pattern.n_trial
    data = pattern.values @ np.concatenate([G_weights.ravel(),
                                            B_weights.ravel()])
    # numpy indexes with intp: one cast per call is cheaper than its
    # indexing path for 32-bit indices
    data[pattern.upper.astype(np.intp)] = data[pattern.mirror.astype(np.intp)]
    K = sp.csc_matrix((data, pattern.indices, pattern.indptr),
                      shape=(size, size))
    rhs = np.empty(size)
    rhs[pattern.order] = np.concatenate([rhs_top, rhs_bottom])
    return SaddleSystem(K, rhs, pattern.n_test, pattern.order)


def _backward_error(K, x, residual, rhs) -> float:
    """Normwise backward error ||b - Kx|| / (||K|| ||x|| + ||b||) in the
    infinity norm, small after a stable factorization even where the
    relative residual is not; ||K|| is its largest column sum (K = K^T)."""
    return float(np.abs(residual).max()) / (
        float(abs(K).sum(axis=0).max()) * float(np.abs(x).max())
        + float(np.abs(rhs).max()))


def _certified_solve(K, rhs, factor_options: dict):
    """Factor K and solve once; returns (x, rel_residual) if the relative
    residual or the backward error meets ``CERTIFICATE_TOL`` and raises
    :class:`LinearSolveError` otherwise."""
    try:
        lu = spla.splu(K, **factor_options)
    except RuntimeError as exc:  # SuperLU reports exact singularity
        raise LinearSolveError(str(exc), np.inf) from exc
    x = lu.solve(rhs)
    residual = rhs - K @ x
    rel = float(np.linalg.norm(residual)) / float(np.linalg.norm(rhs))
    # the accept form, so that a NaN or infinite x fails the test
    if not (rel <= CERTIFICATE_TOL
            or _backward_error(K, x, residual, rhs) <= CERTIFICATE_TOL):
        raise LinearSolveError("saddle-point solve failed", rel)
    return x, rel


def solve_symmetric_indefinite(system: SaddleSystem):
    """Solve the saddle system, certified at ``CERTIFICATE_TOL``.

    Returns ``(dr, du, rel_residual, fell_back)``: the two blocks in the
    natural order of the unknowns, their relative residual (the backward
    error may certify instead), and whether the symmetric factorization
    was refused and the COLAMD fallback produced the solution.  Raises
    :class:`LinearSolveError` only after both factorizations failed.
    Deterministic for fixed inputs.
    """
    rhs = system.rhs
    n = system.n_test
    if not np.any(rhs):
        return np.zeros(n), np.zeros(rhs.size - n), 0.0, False

    try:
        x, rel = _certified_solve(system.K, rhs, _SYMMETRIC_LU)
        fell_back = False
    except LinearSolveError:
        x, rel = _certified_solve(system.K, rhs, _GENERAL_LU)
        fell_back = True
    x = x[system.order]
    return x[:n], x[n:], rel, fell_back
