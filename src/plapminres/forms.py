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

Everything nonlinear lives in a few numbers per element.  Both actions
return area-weighted element fluxes, which
:func:`~plapminres.spaces.integrate_flux` turns into a vector over the
free test functions in one sparse product; a Newton residual sums the two
fluxes first.  The two Jacobians return element weights, not element
matrices: the duality-map Hessian is ``area * diag(d_0, d_1)`` and the
operator Jacobian ``area * A`` with the symmetric 2 x 2 operator tensor

    A = mu (I + (p - 2) g g^T / s^2),

so a Jacobian entry is ``grad(phi_i)^T W grad(psi_j)`` summed over the
elements.  :mod:`plapminres.linsolve` maps the five weights per element
into the Newton matrix through a per-mesh values map; no element block
is formed or scattered.

Jacobian assembly regularizes the degenerate weights with a small epsilon
so Newton matrices stay finite for 1 < p < 2.  In the Newton residual the
two actions of the top block are unregularized, while the bottom block
-B^T r is built from the epsilon-regularized weights of
:func:`assemble_operator_jacobian`: a converged iterate satisfies
B_eps(u)^T r = 0.

The per-trial forms (both actions and both Jacobians) take the (nt, 2)
element gradients of their argument, computed once per Newton trial; the
indicators take coefficients, and the once-per-level load a given source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linsolve import SaddlePattern
from .spaces import (
    CR,
    P1,
    DofMap,
    QuadRule,
    all_element_gradients,
    broken_seminorm,
    integrate_flux,
)

EPS_FLOOR = 1e-10


class FormsError(ValueError):
    """Raised for inconsistent form setup."""


@dataclass(frozen=True, eq=False)
class NonlinearForms:
    """Bundle of everything one nonlinear solve needs.

    The spaces, the saddle ``pattern`` of their Newton systems and
    ``load_free`` (the load functional tested against the free CR basis
    functions) depend on the mesh alone: they are built once per level and
    shared along a continuation path.  ``dirichlet_values`` holds the
    trial function's values at ``trial.constrained_dofs``: the only part
    of the problem besides ``p`` that changes with the exponent.
    """

    p: float
    trial: DofMap
    test: DofMap
    pattern: SaddlePattern
    load_free: np.ndarray
    dirichlet_values: np.ndarray

    def __post_init__(self):
        if not self.p > 1.0:
            raise FormsError("exponent p must be > 1")
        if self.trial.kind != P1 or self.test.kind != CR:
            raise FormsError("trial space must be P1 and test space CR")
        if self.trial.mesh is not self.test.mesh:
            raise FormsError("trial and test spaces must share one mesh")
        if self.pattern.mesh is not self.trial.mesh:
            raise FormsError("saddle pattern belongs to another mesh")
        if self.load_free.shape != (self.test.n_free,):
            raise FormsError("load vector does not match the free test DOFs")
        if self.dirichlet_values.shape != self.trial.constrained_dofs.shape:
            raise FormsError("Dirichlet values do not match the constrained "
                             "trial DOFs")

    @property
    def mesh(self):
        return self.trial.mesh


def apply_plaplacian(forms: NonlinearForms, g_u: np.ndarray) -> np.ndarray:
    """Action of the broken p-Laplacian on u, as the (nt, 2) area-weighted
    element fluxes ``area * |g|^(p-2) g`` of the element gradients ``g_u``.

    A zero element gradient contributes nothing for any p > 1 (the flux
    has magnitude |g|^(p-1) -> 0), so no regularization is needed here.
    """
    g0, g1 = g_u.T
    s = np.sqrt(g0 * g0 + g1 * g1)
    w = np.zeros_like(s)
    nz = s > 0.0
    w[nz] = forms.mesh.areas[nz] * s[nz] ** (forms.p - 2.0)
    return w[:, None] * g_u


def apply_duality_map(forms: NonlinearForms, g_r: np.ndarray) -> np.ndarray:
    """Gradient of (1/p) * ||r||^p in the broken componentwise norm, as the
    (nt, 2) area-weighted element fluxes ``area * |g_k|^(p-2) g_k`` of the
    element gradients ``g_r`` of r."""
    return forms.mesh.areas[:, None] * (np.sign(g_r) * np.abs(g_r) ** (forms.p - 1.0))


def _jacobian_epsilon(forms: NonlinearForms, dm: DofMap, g: np.ndarray) -> float:
    """Regularization scale: tied to the current gradient magnitude."""
    scale = broken_seminorm(dm, g, forms.p)
    return max(EPS_FLOOR, EPS_FLOOR * scale)


def assemble_operator_jacobian(forms: NonlinearForms,
                               g_u: np.ndarray) -> np.ndarray:
    """Derivative of the p-Laplacian action at u, as the (nt, 3) entries
    ``(A_00, A_01, A_11)`` of the area-weighted operator tensor

        area * A = area * mu_eps(g) * (I + (p - 2) g g^T / (|g|^2 + eps^2))

    with mu_eps(g) = (|g|^2 + eps^2)^((p-2)/2) and g = ``g_u``, the element
    gradient of u.  The Jacobian entry of test function phi_i and trial
    function psi_j sums ``area * grad(phi_i)^T A grad(psi_j)`` over the
    elements.  For eps = 0 and nonvanishing gradients this is the exact
    Gateaux derivative.
    """
    eps = _jacobian_epsilon(forms, forms.trial, g_u)
    g0, g1 = g_u.T
    s2 = g0 * g0 + g1 * g1 + eps ** 2
    mu = forms.mesh.areas * s2 ** ((forms.p - 2.0) / 2.0)
    rank1 = (forms.p - 2.0) * mu / s2
    return np.column_stack([mu + rank1 * g0 * g0, rank1 * g0 * g1,
                            mu + rank1 * g1 * g1])


def apply_jacobian_transpose(forms: NonlinearForms, B_weights: np.ndarray,
                             g_r: np.ndarray) -> np.ndarray:
    """B^T r over the free trial DOFs, from the operator weights
    ``B_weights`` of :func:`assemble_operator_jacobian` and the element
    gradients ``g_r`` of an r that vanishes on the constrained test DOFs.
    """
    a00, a01, a11 = B_weights.T
    g0, g1 = g_r.T
    flux = np.column_stack([a00 * g0 + a01 * g1, a01 * g0 + a11 * g1])
    return integrate_flux(forms.trial, flux)


def assemble_duality_jacobian(forms: NonlinearForms,
                              g_r: np.ndarray) -> np.ndarray:
    """Hessian of (1/p)*||r||^p, as the (nt, 2) area-weighted componentwise
    weights ``area * d_k``, from the element gradients ``g_r`` of r.

    The weights d_k = (p-1) * (g_k^2 + eps^2)^((p-2)/2) are positive for
    eps > 0, which makes the Hessian positive definite; the entry of test
    functions phi_i and phi_j sums ``area * sum_k d_k (d_k phi_i)
    (d_k phi_j)`` over the elements, exactly symmetric in i and j.
    """
    eps = _jacobian_epsilon(forms, forms.test, g_r)
    d = (forms.p - 1.0) * (g_r ** 2 + eps ** 2) ** ((forms.p - 2.0) / 2.0)
    return forms.mesh.areas[:, None] * d


def assemble_load(problem, test_dm: DofMap, quad: QuadRule) -> np.ndarray:
    """Load functional of ``problem.source`` over the free CR test DOFs.

    ``problem`` is the benchmark's :class:`~plapminres.estimate.ExactSolution`,
    whose source refuses a point at its center ``x0``.  The source is
    integrated against the CR basis with the given rule, one
    :meth:`QuadRule.blocks` block at a time.
    """
    m = test_dm.mesh
    phi = 1.0 - 2.0 * quad.points  # CR basis at the rule's barycentric points
    cells = np.empty((m.n_triangles, 3))
    for block, pts in quad.blocks(m):
        fx = problem.source(pts)
        cells[block] = (2.0 * m.areas[block, None]
                        * ((fx * quad.weights) @ phi))
    full = np.bincount(test_dm.element_dofs.ravel(), weights=cells.ravel(),
                       minlength=test_dm.n_total)
    return full[test_dm.free_dofs]


def local_indicators(forms: NonlinearForms, r_coeffs: np.ndarray) -> np.ndarray:
    """Per-triangle masses m_T = |r|^p_{W^{1,p}(T)}; they sum to ||r||^p."""
    g = all_element_gradients(forms.test, r_coeffs)
    return forms.mesh.areas * (np.abs(g) ** forms.p).sum(axis=1)
