"""Nonlinear forms of the broken residual-minimization formulation.

With a P1 trial space and a CR test space on a common mesh, all discrete
functions have piecewise-constant gradients, so the p-Laplacian action

    <N(u), v> = sum_T int_T |grad u|^(p-2) grad u . grad v

and the duality-map action (the gradient of (1/p) * ||.||^p for the broken
seminorm with componentwise gradient powers)

    <D(r), v> = sum_T int_T sum_k |d_k r|^(p-2) (d_k r) (d_k v)

are integrated exactly element by element.  Note the deliberate asymmetry:
the operator weight uses the Euclidean gradient norm, the duality map is
the exact gradient of the implemented broken norm, which makes the pairing
identity <D(r), r> = ||r||^p hold to round-off.

Jacobian assembly regularizes the degenerate weights with a small epsilon
so Newton matrices stay finite for 1 < p < 2; the residual evaluations are
never regularized.

The per-trial forms (both actions and both Jacobians) take the (nt, 2)
element gradients of their argument, computed once per Newton trial; the
once-per-level load and indicators take coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import (
    CR,
    P1,
    DofMap,
    QuadRule,
    all_element_gradients,
    broken_seminorm,
    element_dofs,
    geometry_of,
)

EPS_FLOOR = 1e-10


class FormsError(ValueError):
    """Raised for inconsistent form setup."""


@dataclass(frozen=True, eq=False)
class LoadSpec:
    """The benchmark source f(x) = |x - x0|^(-sigma).

    sigma < 2 keeps f locally integrable in 2D; sigma = 0 gives f = 1.
    """

    sigma: float = 0.97
    x0: tuple[float, float] = (-1.0, -1.0)

    def __post_init__(self):
        if not self.sigma < 2.0:
            raise FormsError("sigma must be < 2 for an integrable load")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the source on an (..., 2) array of points."""
        diff = points - np.asarray(self.x0)
        r = np.sqrt((diff ** 2).sum(axis=-1))
        return r ** (-self.sigma)


@dataclass(frozen=True, eq=False)
class NonlinearForms:
    """Bundle of everything one nonlinear solve needs.

    The spaces and ``load_free`` (the load functional tested against the
    free CR basis functions) depend on the mesh alone and are shared along
    a continuation path.  ``dirichlet_values`` holds the trial function's
    values at ``trial.constrained_dofs``: the only part of the problem
    besides ``p`` that changes with the exponent.
    """

    p: float
    trial: DofMap
    test: DofMap
    load_free: np.ndarray
    dirichlet_values: np.ndarray

    def __post_init__(self):
        if not self.p > 1.0:
            raise FormsError("exponent p must be > 1")
        if self.trial.kind != P1 or self.test.kind != CR:
            raise FormsError("trial space must be P1 and test space CR")
        if self.trial.mesh is not self.test.mesh:
            raise FormsError("trial and test spaces must share one mesh")
        if self.load_free.shape != (self.test.n_free,):
            raise FormsError("load vector does not match the free test DOFs")
        if self.dirichlet_values.shape != self.trial.constrained_dofs.shape:
            raise FormsError("Dirichlet values do not match the constrained "
                             "trial DOFs")

    @property
    def mesh(self):
        return self.trial.mesh


def _gather_free(dm: DofMap, cell_values: np.ndarray) -> np.ndarray:
    """Accumulate (nt, 3) per-element contributions into the free DOFs of dm."""
    full = np.bincount(element_dofs(dm).ravel(), weights=cell_values.ravel(),
                       minlength=dm.n_total)
    return full[dm.free_dofs]


def apply_plaplacian(forms: NonlinearForms, g_u: np.ndarray) -> np.ndarray:
    """Action of the broken p-Laplacian on u, tested with free CR functions.

    ``g_u`` holds the element gradients of u.  A zero element gradient
    contributes nothing for any p > 1 (the flux |g|^(p-2) g has magnitude
    |g|^(p-1) -> 0), so no regularization is needed here.
    """
    geo = geometry_of(forms.mesh)
    s = np.linalg.norm(g_u, axis=1)
    w = np.zeros_like(s)
    nz = s > 0.0
    w[nz] = s[nz] ** (forms.p - 2.0)
    flux = geo.areas[:, None] * w[:, None] * g_u
    cells = np.einsum("td,tid->ti", flux, geo.grad_cr)
    return _gather_free(forms.test, cells)


def apply_duality_map(forms: NonlinearForms, g_r: np.ndarray) -> np.ndarray:
    """Gradient of (1/p) * ||r||^p in the broken componentwise norm, from
    the element gradients ``g_r`` of r."""
    geo = geometry_of(forms.mesh)
    w = np.sign(g_r) * np.abs(g_r) ** (forms.p - 1.0)
    cells = np.einsum("t,td,tid->ti", geo.areas, w, geo.grad_cr)
    return _gather_free(forms.test, cells)


def _jacobian_epsilon(forms: NonlinearForms, dm: DofMap, g: np.ndarray) -> float:
    """Regularization scale: tied to the current gradient magnitude."""
    scale = broken_seminorm(dm, g, forms.p)
    return max(EPS_FLOOR, EPS_FLOOR * scale)


def assemble_operator_jacobian(forms: NonlinearForms,
                               g_u: np.ndarray) -> np.ndarray:
    """Derivative of the p-Laplacian action at u, as (nt, 3, 3) element
    blocks (local test x local trial DOFs).

    Entry (i, j) integrates
        mu_eps(g) * [grad(psi_j) . grad(phi_i)
                     + (p - 2) (g . grad(psi_j)) (g . grad(phi_i)) / (|g|^2 + eps^2)]
    with mu_eps(g) = (|g|^2 + eps^2)^((p-2)/2) and g = ``g_u``, the element
    gradient of u.  For eps = 0 and nonvanishing gradients this is the
    exact Gateaux derivative.
    """
    geo = geometry_of(forms.mesh)
    eps = _jacobian_epsilon(forms, forms.trial, g_u)
    s2 = (g_u ** 2).sum(axis=1) + eps ** 2
    mu = s2 ** ((forms.p - 2.0) / 2.0)

    du = np.einsum("td,tjd->tj", g_u, geo.grad_p1)
    dv = np.einsum("td,tid->ti", g_u, geo.grad_cr)
    scale = (forms.p - 2.0) * geo.areas / s2
    rank1 = scale[:, None, None] * dv[:, :, None] * du[:, None, :]
    return mu[:, None, None] * (geo.cr_p1_products + rank1)


def apply_jacobian_transpose(forms: NonlinearForms, B_blocks: np.ndarray,
                             r_coeffs: np.ndarray) -> np.ndarray:
    """B^T r over the free trial DOFs, from the element blocks of B.

    Only the free entries of ``r_coeffs`` enter.
    """
    test = forms.test
    r = test.full_from_free(r_coeffs[test.free_dofs])
    cells = np.einsum("tij,ti->tj", B_blocks, r[element_dofs(test)])
    return _gather_free(forms.trial, cells)


def assemble_duality_jacobian(forms: NonlinearForms,
                              g_r: np.ndarray) -> np.ndarray:
    """Hessian of (1/p)*||r||^p, as (nt, 3, 3) test x test element blocks,
    from the element gradients ``g_r`` of r.

    Componentwise weights (p-1) * (g_k^2 + eps^2)^((p-2)/2) make the matrix
    positive definite for eps > 0.  Each block weights the two exactly
    symmetric per-component products of the mesh geometry, so it is exactly
    symmetric, and so is the assembled matrix.
    """
    geo = geometry_of(forms.mesh)
    eps = _jacobian_epsilon(forms, forms.test, g_r)
    d = (forms.p - 1.0) * (g_r ** 2 + eps ** 2) ** ((forms.p - 2.0) / 2.0)
    products = geo.cr_products
    return (d[:, 0, None, None] * products[0]
            + d[:, 1, None, None] * products[1])


def assemble_load(load: LoadSpec, test_dm: DofMap, quad: QuadRule) -> np.ndarray:
    """Load functional over the free CR test DOFs.

    Integrates f against the CR basis with the given rule; all quadrature
    points are strictly interior, so a singular radial load is never
    sampled at its center (checked, raising :class:`FormsError`).
    """
    mesh = test_dm.mesh
    geo = geometry_of(mesh)
    pts = quad.physical_points(geo.tri_coords)  # (nt, nq, 2)
    dist = np.linalg.norm(pts - np.asarray(load.x0), axis=-1)
    if not np.all(dist > 0.0):
        raise FormsError("a quadrature point coincides with the load center x0")
    fx = load(pts)
    phi = 1.0 - 2.0 * quad.points  # CR basis at the rule's barycentric points
    cells = 2.0 * geo.areas[:, None] * ((fx * quad.weights) @ phi)
    return _gather_free(test_dm, cells)


def local_indicators(forms: NonlinearForms, r_coeffs: np.ndarray) -> np.ndarray:
    """Per-triangle masses m_T = |r|^p_{W^{1,p}(T)}; they sum to ||r||^p."""
    geo = geometry_of(forms.mesh)
    g = all_element_gradients(forms.test, r_coeffs)
    return geo.areas * (np.abs(g) ** forms.p).sum(axis=1)
