"""Degree-of-freedom management, interpolation and quadrature.

Two lowest-order spaces are handled on a shared :class:`~plapminres.mesh.Mesh`:

* ``P1`` -- continuous piecewise linears, one DOF per vertex, with the
  boundary vertices constrained;
* ``CR`` -- Crouzeix-Raviart piecewise linears, one DOF per edge (the value
  at the edge midpoint), continuous only at interior edge midpoints and
  pinned to zero on boundary edges.

A space depends on the mesh alone.  The Dirichlet values of the P1 trial
space change with the exponent, so they live with the exponent's
:class:`~plapminres.forms.NonlinearForms`, not here.

Coefficient vectors are always "full" (one entry per DOF, constrained
entries included); :class:`DofMap` converts between full vectors and the
free subvector seen by solvers.  :func:`broken_seminorm` and the per-trial
forms take the (nt, 2) element gradients of :func:`all_element_gradients`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .mesh import Mesh, signed_areas

P1 = "P1"
CR = "CR"


class SpaceError(ValueError):
    """Raised for invalid space construction or queries."""


# ---------------------------------------------------------------------------
# quadrature on the reference triangle {x, y >= 0, x + y <= 1}


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Quadrature rule in barycentric coordinates on the reference triangle.

    ``points`` has shape (nq, 3) and ``weights`` sums to the reference area
    1/2; all points are strictly interior.
    """

    points: np.ndarray
    weights: np.ndarray

    def physical_points(self, tri_coords: np.ndarray) -> np.ndarray:
        """Map to physical coordinates; tri_coords is (nt, 3, 2) or (3, 2)."""
        return self.points @ tri_coords


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
# element geometry


@dataclass(frozen=True, eq=False)
class ElementGeometry:
    """Per-element affine data shared by every assembly routine.

    ``grad_p1[t, i]`` is the (constant) gradient of the P1 hat function of
    local vertex ``i`` on triangle ``t``; the CR basis function attached to
    the edge opposite vertex ``i`` is ``1 - 2*lambda_i``, so its gradient
    is ``-2 * grad_p1[t, i]``.

    The Newton matrices weight two mesh-only products of these gradients:
    ``cr_products[k, t, i, j] = area * d_k phi_i * d_k phi_j`` for the CR
    basis (exactly symmetric in ``i, j``) and ``cr_p1_products[t, i, j] =
    area * grad phi_i . grad psi_j`` with the P1 basis ``psi``.
    """

    areas: np.ndarray           # (nt,)
    grad_p1: np.ndarray         # (nt, 3, 2)
    grad_cr: np.ndarray         # (nt, 3, 2)
    tri_coords: np.ndarray      # (nt, 3, 2)
    cr_products: np.ndarray     # (2, nt, 3, 3)
    cr_p1_products: np.ndarray  # (nt, 3, 3)

    @classmethod
    def from_mesh(cls, m: Mesh) -> "ElementGeometry":
        coords = m.vertices[m.triangles]
        areas = signed_areas(m.vertices, m.triangles)
        # grad(lambda_i) = rot90(x_{i+2} - x_{i+1}) / (2 area)
        e = np.stack([coords[:, 2] - coords[:, 1],
                      coords[:, 0] - coords[:, 2],
                      coords[:, 1] - coords[:, 0]], axis=1)
        rot = np.empty_like(e)
        rot[..., 0] = -e[..., 1]
        rot[..., 1] = e[..., 0]
        grad_p1 = rot / (2.0 * areas)[:, None, None]
        grad_cr = -2.0 * grad_p1
        cr_k = grad_cr.transpose(2, 0, 1)  # (2, nt, 3)
        cr_products = areas[:, None, None] * (cr_k[..., :, None]
                                              * cr_k[..., None, :])
        cr_p1_products = areas[:, None, None] * np.einsum(
            "tid,tjd->tij", grad_cr, grad_p1)
        arrays = (areas, grad_p1, grad_cr, coords, cr_products, cr_p1_products)
        for arr in arrays:
            arr.setflags(write=False)
        return cls(*arrays)


# ---------------------------------------------------------------------------
# DOF maps


@dataclass(frozen=True, eq=False)
class DofMap:
    """Enumeration of free and constrained DOFs of one space on one mesh.

    It holds no values: constrained CR DOFs are zero, and the Dirichlet
    values of the constrained P1 DOFs belong to the exponent's forms.
    """

    kind: str
    mesh: Mesh
    n_total: int
    free_dofs: np.ndarray
    constrained_dofs: np.ndarray
    _free_index: np.ndarray  # full index -> position in free vector, -1 if constrained

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
    on that mesh.

    Raises
    ------
    SpaceError
        For an unknown kind.
    """
    if kind == P1:
        n_total = m.n_vertices
        constrained = m.boundary_vertices()
    elif kind == CR:
        n_total = m.n_edges
        constrained = np.nonzero(m.boundary_edge_flags)[0]
    else:
        raise SpaceError(f"unknown space kind {kind!r}")

    mask = np.ones(n_total, dtype=bool)
    mask[constrained] = False
    free = np.nonzero(mask)[0]
    free_index = np.full(n_total, -1, dtype=np.int64)
    free_index[free] = np.arange(free.size)
    for arr in (free, constrained, free_index):
        arr.setflags(write=False)
    return DofMap(kind, m, n_total, free, constrained, free_index)


def element_dofs(dm: DofMap) -> np.ndarray:
    """Global DOF indices of the three local basis functions, shape (nt, 3).

    Local slot ``i`` holds the vertex ``i`` hat function for P1 and the
    midpoint function of the edge opposite vertex ``i`` for CR, matching
    the gradient layout of :class:`ElementGeometry`.
    """
    if dm.kind == P1:
        return dm.mesh.triangles
    return dm.mesh.triangle_edges


def all_element_gradients(dm: DofMap, coeffs: np.ndarray) -> np.ndarray:
    """Gradients of the discrete function on every triangle, shape (nt, 2)."""
    geo = geometry_of(dm.mesh)
    local = np.asarray(coeffs)[element_dofs(dm)]
    basis = geo.grad_p1 if dm.kind == P1 else geo.grad_cr
    return np.einsum("ti,tid->td", local, basis)


_GEOMETRY_CACHE: "weakref.WeakKeyDictionary[Mesh, ElementGeometry]" = weakref.WeakKeyDictionary()


def geometry_of(m: Mesh) -> ElementGeometry:
    """Memoized :class:`ElementGeometry` of a mesh."""
    geo = _GEOMETRY_CACHE.get(m)
    if geo is None:
        geo = ElementGeometry.from_mesh(m)
        _GEOMETRY_CACHE[m] = geo
    return geo


def broken_seminorm(dm: DofMap, g: np.ndarray, p: float) -> float:
    """Broken W^{1,p} seminorm with componentwise gradient powers.

    Returns ``(sum_T area_T * (|g_T1|^p + |g_T2|^p))^{1/p}`` for the (nt, 2)
    element gradients ``g`` of a function of ``dm``; exact for piecewise
    linears.
    """
    if p <= 1.0:
        raise SpaceError("broken seminorm requires p > 1")
    geo = geometry_of(dm.mesh)
    mass = geo.areas @ (np.abs(g) ** p).sum(axis=1)
    return float(mass ** (1.0 / p))
