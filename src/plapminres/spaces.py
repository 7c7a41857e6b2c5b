"""Degree-of-freedom management, interpolation and quadrature.

Two lowest-order spaces are handled on a shared :class:`~plapminres.mesh.Mesh`:

* ``P1`` -- continuous piecewise linears, one DOF per vertex, with the
  boundary vertices constrained;
* ``CR`` -- Crouzeix-Raviart piecewise linears, one DOF per edge (the value
  at the edge midpoint), continuous only at interior edge midpoints and
  pinned to zero on boundary edges.

A space depends on the mesh alone.  The ``element_dofs`` and
``basis_gradients`` of its :class:`DofMap` are the one home of the P1/CR
conventions (vertices and ``grad_lambda``, edges and ``-2 *
grad_lambda``); other modules read them.  The Dirichlet
values of the P1 trial space change with the exponent, so they live with
the exponent's :class:`~plapminres.forms.NonlinearForms`, not here.

Coefficient vectors are always "full" (one entry per DOF, constrained
entries included); :class:`DofMap` converts between full vectors and the
free subvector seen by solvers.  :func:`broken_seminorm` and the per-trial
forms take the (nt, 2) element gradients of :func:`all_element_gradients`.

Both spaces are piecewise linear, so a function enters every form through
its constant element gradients alone.  Each :class:`DofMap` carries two
sparse maps built once with the space: ``gradient_map`` takes a full
coefficient vector to the element gradients, and ``flux_map``, its
transpose restricted to the free DOFs, takes (area-weighted) element
fluxes to the functional ``v -> sum_T flux_T . grad v_T`` over the free
basis (:func:`integrate_flux`).  Quadrature of the load and the true
error runs over the blocks of triangles that :meth:`QuadRule.blocks` yields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss

from .mesh import Mesh

P1 = "P1"
CR = "CR"


class SpaceError(ValueError):
    """Raised for invalid space construction or queries."""


# ---------------------------------------------------------------------------
# quadrature on the reference triangle {x, y >= 0, x + y <= 1}


# triangles per block of quadrature-point evaluation: the (chunk, nq, 2)
# point arrays of a degree-10 rule stay near 150 KB on any mesh
QUAD_CHUNK = 256


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Quadrature rule in barycentric coordinates on the reference triangle.

    ``points`` has shape (nq, 3) and ``weights`` sums to the reference area
    1/2; all points are strictly interior.
    """

    points: np.ndarray
    weights: np.ndarray

    def physical_points(self, coords: np.ndarray) -> np.ndarray:
        """Map to physical coordinates; coords is (nt, 3, 2) or (3, 2)."""
        return self.points @ coords

    def blocks(self, m: Mesh):
        """Yield the slice ``block`` of each run of ``QUAD_CHUNK`` triangles
        of ``m``, in order, with their (chunk, nq, 2) physical points."""
        for start in range(0, m.n_triangles, QUAD_CHUNK):
            block = slice(start, start + QUAD_CHUNK)
            yield block, self.physical_points(m.vertices[m.triangles[block]])


def gauss_jacobi_1_0(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [-1, 1] for the weight 1 - x, nodes ascending.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the monic Jacobi(1, 0) recurrence, and the weights are
    mu0 = 2 times the squared first components of its eigenvectors.
    """
    k = np.arange(n, dtype=float)
    diag = -1.0 / ((2.0 * k + 1.0) * (2.0 * k + 3.0))
    off = np.sqrt(k[1:] * (k[1:] + 1.0)) / (2.0 * k[1:] + 1.0)
    nodes, vectors = np.linalg.eigh(
        np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vectors[0] ** 2


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadRule:
    """Interior-point rule exact for polynomials of the given total degree.

    A conical-product Gauss rule (Gauss-Legendre crossed with Gauss-Jacobi
    weighted by the collapsed-coordinate Jacobian), which has positive
    weights and strictly interior points for every order.
    """
    if degree < 1:
        raise SpaceError("quadrature degree must be >= 1")
    n = degree // 2 + 1  # conical product is exact up to 2n - 1
    xg, wg = leggauss(n)
    xi = 0.5 * (xg + 1.0)
    wxi = 0.5 * wg
    xj, wj = gauss_jacobi_1_0(n)
    eta = 0.5 * (xj + 1.0)
    weta = 0.25 * wj

    x = (xi[None, :] * (1.0 - eta[:, None])).ravel()
    y = np.repeat(eta, n)
    w = (weta[:, None] * wxi[None, :]).ravel()
    points = np.column_stack([1.0 - x - y, x, y])
    for arr in (points, w):
        arr.setflags(write=False)
    return QuadRule(points, w)


# ---------------------------------------------------------------------------
# DOF maps


@dataclass(frozen=True, eq=False)
class DofMap:
    """Enumeration of free and constrained DOFs of one space on one mesh,
    with the space's sparse gradient maps.

    It holds no values: constrained CR DOFs are zero, and the Dirichlet
    values of the constrained P1 DOFs belong to the exponent's forms.
    ``free_index`` maps a DOF to its free position, -1 if constrained.
    ``element_dofs`` (nt, 3) holds the DOFs of each triangle's local basis
    functions, slot ``i`` being the hat of vertex ``i`` (P1) or the
    midpoint function of the edge opposite it (CR), and
    ``basis_gradients`` (nt, 3, 2) their gradients; for P1 both are the
    mesh's own arrays, and all three are read-only.  ``gradient_map``
    (2 nt x n_total, CSR) takes a full coefficient vector to the element
    gradients, row ``2 t + d`` holding component ``d`` on triangle ``t``;
    ``flux_map`` (n_free x 2 nt, CSR) is its transpose restricted to the
    free DOFs.
    """

    kind: str
    mesh: Mesh
    n_total: int
    free_dofs: np.ndarray
    constrained_dofs: np.ndarray
    free_index: np.ndarray
    element_dofs: np.ndarray
    basis_gradients: np.ndarray
    gradient_map: sp.csr_matrix
    flux_map: sp.csr_matrix

    @property
    def n_free(self) -> int:
        return self.free_dofs.shape[0]

    def full_from_free(self, free_values: np.ndarray) -> np.ndarray:
        """Expand a free-DOF vector into a full vector, zero where constrained."""
        full = np.zeros(self.n_total)
        full[self.free_dofs] = free_values
        return full


def build_space(m: Mesh, kind: str) -> DofMap:
    """Build the DOF map of a P1 or CR space on a mesh.

    P1 constrains the boundary vertices and CR the boundary edges; the map
    depends on the mesh alone, so one pair of spaces serves every exponent
    on that mesh.  Both gradient maps are laid out directly from the
    element DOFs, three entries per row of ``gradient_map``.

    Raises
    ------
    SpaceError
        For an unknown kind.
    """
    if kind == P1:
        n_total = m.n_vertices
        constrained = m.boundary_vertices()
        dofs, basis = m.triangles, m.grad_lambda
    elif kind == CR:
        n_total = m.n_edges
        constrained = np.nonzero(m.boundary_edge_flags)[0]
        dofs, basis = m.triangle_edges, -2.0 * m.grad_lambda
    else:
        raise SpaceError(f"unknown space kind {kind!r}")

    mask = np.ones(n_total, dtype=bool)
    mask[constrained] = False
    free = np.nonzero(mask)[0]
    free_index = np.full(n_total, -1, dtype=np.int64)
    free_index[free] = np.arange(free.size)

    rows = 2 * m.n_triangles
    # row 2t + d holds d_d of the three local basis functions of triangle t
    data = basis.transpose(0, 2, 1).reshape(rows, 3)
    cols = np.repeat(dofs, 2, axis=0)
    gradient_map = sp.csr_matrix(
        (data.ravel(), cols.ravel(), np.arange(0, 3 * rows + 1, 3)),
        shape=(rows, n_total))
    cols = free_index[cols]
    live = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(live.sum(axis=1))])
    flux_map = sp.csr_matrix((data[live], cols[live], indptr),
                             shape=(rows, free.size)).T.tocsr()
    for arr in (free, constrained, free_index, basis):
        arr.setflags(write=False)
    return DofMap(kind, m, n_total, free, constrained, free_index, dofs,
                  basis, gradient_map, flux_map)


def all_element_gradients(dm: DofMap, coeffs: np.ndarray) -> np.ndarray:
    """Gradients of the discrete function on every triangle, shape (nt, 2)."""
    return (dm.gradient_map @ coeffs).reshape(-1, 2)


def integrate_flux(dm: DofMap, flux: np.ndarray) -> np.ndarray:
    """The functional ``v -> sum_T flux_T . grad v_T`` on the free basis of
    dm, for (nt, 2) element fluxes that already carry the element areas."""
    return dm.flux_map @ flux.ravel()


def broken_seminorm(dm: DofMap, g: np.ndarray, p: float) -> float:
    """Broken W^{1,p} seminorm with componentwise gradient powers.

    Returns ``(sum_T area_T * (|g_T1|^p + |g_T2|^p))^{1/p}`` for the (nt, 2)
    element gradients ``g`` of a function of ``dm``; exact for piecewise
    linears.
    """
    if p <= 1.0:
        raise SpaceError("broken seminorm requires p > 1")
    a0, a1 = (np.abs(g) ** p).T
    return float((dm.mesh.areas @ (a0 + a1)) ** (1.0 / p))
