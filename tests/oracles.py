"""Independent oracles and shared helpers of the test suite.

The oracles deliberately avoid the code paths they are meant to check:
polygon integrals go through the divergence theorem and 1D Gauss rules,
the Poisson reference solve assembles the standard P1 Galerkin system
from scratch, the saddle-point reference uses a dense LAPACK
factorization, the reference saddle matrix is assembled from element
blocks through COO, CSR and ``sp.bmat`` instead of the per-mesh pattern
and values map, and :func:`block_residual` recomputes the Newton residual
from element blocks.  The interpolation helpers build discrete functions
for the tests, and the mesh checks (:func:`check_mesh`,
:func:`min_angle`) test the invariants of refined meshes.
"""

import numpy as np
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss


def monomial_integral_over_triangle(tri: np.ndarray, a: int, b: int) -> float:
    """Exact integral of x^a y^b over a triangle via the divergence theorem.

    Writes the area integral as the boundary integral of x^(a+1)/(a+1) y^b
    against dy and evaluates each straight edge with a 1D Gauss rule that
    is exact for the resulting polynomial degree.
    """
    deg = a + 1 + b
    n = deg // 2 + 1
    xg, wg = leggauss(n)
    s = 0.5 * (xg + 1.0)
    w = 0.5 * wg
    total = 0.0
    for k in range(3):
        p0 = tri[k]
        p1 = tri[(k + 1) % 3]
        x = p0[0] + s * (p1[0] - p0[0])
        y = p0[1] + s * (p1[1] - p0[1])
        dy = p1[1] - p0[1]
        total += dy * np.sum(w * x ** (a + 1) * y ** b) / (a + 1)
    return float(total)


def p1_poisson_galerkin(mesh, boundary_values, load_free_cr, test_dm):
    """Reference P1 Galerkin solve of the Poisson problem.

    ``boundary_values`` holds the Dirichlet data at the boundary vertices,
    in the order of ``mesh.boundary_vertices()``.

    Assembles the vertex-based stiffness matrix directly from the hat
    function gradients and reuses the CR load vector through the exact
    embedding U_h in V_h (a P1 hat equals the CR function whose edge
    coefficients are its edge-midpoint values), so both discretizations
    integrate the same right-hand side.

    Returns the full P1 coefficient vector.
    """
    from plapminres.spaces import build_space, P1

    trial = build_space(mesh, P1)
    tri = mesh.triangles

    n = mesh.n_vertices
    K = np.zeros((n, n))
    local = np.einsum("t,tid,tjd->tij", mesh.areas, mesh.grad_lambda,
                      mesh.grad_lambda)
    for t in range(mesh.n_triangles):
        idx = tri[t]
        K[np.ix_(idx, idx)] += local[t]

    # load tested with embedded hats: F_j = sum_e mean_e(hat_j) * F_cr[e]
    load_full = test_dm.full_from_free(load_free_cr)
    rhs = np.zeros(n)
    for e, (v0, v1) in enumerate(mesh.edges):
        rhs[v0] += 0.5 * load_full[e]
        rhs[v1] += 0.5 * load_full[e]

    free = trial.free_dofs
    fixed = trial.constrained_dofs
    A = K[np.ix_(free, free)]
    b = rhs[free] - K[np.ix_(free, fixed)] @ boundary_values
    u = np.zeros(n)
    u[fixed] = boundary_values
    u[free] = np.linalg.solve(A, b)
    return u


def radial_seminorm_p(es) -> float:
    """Componentwise W^{1,p} seminorm of the radial benchmark solution.

    Integrates |u'(r)|^p (|cos t|^p + |sin t|^p) r over the unit square in
    polar coordinates about x0 with nested adaptive 1D quadrature; only
    valid for centers with both coordinates negative (the rays then cross
    the square through opposite sides).
    """
    from scipy.integrate import dblquad

    x0 = np.asarray(es.x0, dtype=float)
    assert x0[0] < 0.0 and x0[1] < 0.0
    th_lo = np.arctan2(-x0[1], 1.0 - x0[0])
    th_hi = np.arctan2(1.0 - x0[1], -x0[0])

    def r_lo(th):
        return max(-x0[0] / np.cos(th), -x0[1] / np.sin(th))

    def r_hi(th):
        return min((1.0 - x0[0]) / np.cos(th), (1.0 - x0[1]) / np.sin(th))

    amp = (1.0 / (2.0 - es.sigma)) ** (1.0 / (es.p - 1.0))
    q = es.radial_exponent

    def integrand(r, th):
        du = amp * r ** (q - 1.0)
        angular = abs(np.cos(th)) ** es.p + abs(np.sin(th)) ** es.p
        return du ** es.p * angular * r

    value, _ = dblquad(integrand, th_lo, th_hi, r_lo, r_hi,
                       epsabs=1e-13, epsrel=1e-13)
    return float(value ** (1.0 / es.p))


def dense_saddle_solve(G, B, rhs_top, rhs_bottom):
    """Dense factorization solve of [[G, B], [B^T, 0]]."""
    G = np.asarray(G.todense()) if hasattr(G, "todense") else np.asarray(G)
    B = np.asarray(B.todense()) if hasattr(B, "todense") else np.asarray(B)
    n, m = B.shape
    K = np.zeros((n + m, n + m))
    K[:n, :n] = G
    K[:n, n:] = B
    K[n:, :n] = B.T
    x = np.linalg.solve(K, np.concatenate([rhs_top, rhs_bottom]))
    return x[:n], x[n:]


def scatter_matrix(blocks, row_dm, col_dm) -> sp.csr_matrix:
    """Scatter (nt, 3, 3) element blocks into a free x free CSR matrix."""
    rows_full = row_dm.element_dofs
    cols_full = col_dm.element_dofs
    nt = blocks.shape[0]
    rows = np.repeat(rows_full, 3, axis=1).ravel()
    cols = np.tile(cols_full, (1, 3)).ravel()
    data = blocks.reshape(nt, 9).ravel()

    ri = row_dm.free_index[rows]
    ci = col_dm.free_index[cols]
    keep = (ri >= 0) & (ci >= 0)
    mat = sp.coo_matrix((data[keep], (ri[keep], ci[keep])),
                        shape=(row_dm.n_free, col_dm.n_free))
    return mat.tocsr()


def weight_matrix(weights, row_dm, col_dm) -> sp.csr_matrix:
    """Free x free matrix of element weights, scattered from element blocks.

    Entry (i, j) sums ``grad(phi_i)^T W_T grad(psi_j)`` over the triangles,
    with W_T = diag(w) for (nt, 2) componentwise weights and the symmetric
    tensor (W_00, W_01, W_11) for (nt, 3) weights; phi runs over the basis
    of ``row_dm`` and psi over that of ``col_dm``.  Componentwise blocks
    weight the products ``(d_k phi_i)(d_k phi_j)``, so they are exactly
    symmetric when both spaces are the same.
    """
    from plapminres.spaces import P1

    grad_lambda = row_dm.mesh.grad_lambda
    rg, cg = ((grad_lambda if dm.kind == P1 else -2.0 * grad_lambda)
              for dm in (row_dm, col_dm))
    weights = np.asarray(weights)
    if weights.shape[1] == 2:
        products = rg[:, :, None, :] * cg[:, None, :, :]
        blocks = (weights[:, None, None, :] * products).sum(axis=-1)
    else:
        a, b, c = weights.T
        tensor = np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], 1)
        blocks = np.einsum("tid,tde,tje->tij", rg, tensor, cg)
    return scatter_matrix(blocks, row_dm, col_dm)


def reference_saddle_matrix(G_weights, B_weights, test, trial) -> sp.csc_matrix:
    """K = [[G, B], [B^T, 0]] of element weights, assembled through element
    blocks, COO, CSR and ``sp.bmat``.

    ``(G + G^T) / 2`` drops the G entries that sum to zero, as the
    per-mesh pattern must.
    """
    G = weight_matrix(G_weights, test, test)
    G = (G + G.T) * 0.5
    B = weight_matrix(B_weights, test, trial)
    return sp.bmat([[G, B], [B.T, None]], format="csc")


def operator_jacobian_matrix(forms, u_coeffs) -> sp.csr_matrix:
    """Free test x free trial operator Jacobian, from its element weights."""
    from plapminres.forms import assemble_operator_jacobian
    from plapminres.spaces import all_element_gradients

    g_u = all_element_gradients(forms.trial, u_coeffs)
    return weight_matrix(assemble_operator_jacobian(forms, g_u),
                         forms.test, forms.trial)


def duality_jacobian_matrix(forms, r_coeffs) -> sp.csr_matrix:
    """Free test x free test duality-map Hessian, from its element weights.

    Not symmetrized here: componentwise blocks scatter into an exactly
    symmetric matrix.
    """
    from plapminres.forms import assemble_duality_jacobian
    from plapminres.spaces import all_element_gradients

    g_r = all_element_gradients(forms.test, r_coeffs)
    return weight_matrix(assemble_duality_jacobian(forms, g_r),
                         forms.test, forms.test)


def action(apply, forms, g) -> np.ndarray:
    """Vector over the free test DOFs of the action ``apply(forms, g)``,
    which the forms return as area-weighted element fluxes."""
    from plapminres.spaces import integrate_flux

    return integrate_flux(forms.test, apply(forms, g))


def block_residual(forms, state):
    """Residual blocks of the mixed system through element blocks.

    Every action is tested element by element (flux . grad phi_i per
    local test function), the operator Jacobian is formed as (nt, 3, 3)
    blocks from the Jacobian's textbook formula, and all of it is gathered
    with ``np.bincount``: the assembly route the weight maps replaced.
    Returns ``(top, bottom, top_scale, bottom_scale)``, a scale being the
    largest magnitude of the terms that make up the block.
    """
    from plapminres.forms import EPS_FLOOR
    from plapminres.spaces import P1, broken_seminorm

    test, trial, p = forms.test, forms.trial, forms.p
    areas, grad_p1 = forms.mesh.areas, forms.mesh.grad_lambda
    grad_cr = -2.0 * grad_p1

    def gather(dm, cells):
        full = np.bincount(dm.element_dofs.ravel(), weights=cells.ravel(),
                           minlength=dm.n_total)
        return full[dm.free_dofs]

    def gradients(dm, coeffs):
        basis = grad_p1 if dm.kind == P1 else grad_cr
        return np.einsum("ti,tid->td", coeffs[dm.element_dofs], basis)

    g_u = gradients(trial, state.u)
    g_r = gradients(test, state.r)
    s = np.linalg.norm(g_u, axis=1)
    w = np.where(s > 0.0, s, 1.0) ** (p - 2.0) * (s > 0.0)
    N = gather(test, np.einsum("t,td,tid->ti", areas * w, g_u, grad_cr))
    D = gather(test, np.einsum("t,td,tid->ti", areas,
                               np.sign(g_r) * np.abs(g_r) ** (p - 1.0),
                               grad_cr))
    eps = max(EPS_FLOOR, EPS_FLOOR * broken_seminorm(trial, g_u, p))
    s2 = (g_u ** 2).sum(axis=1) + eps ** 2
    du = np.einsum("td,tjd->tj", g_u, grad_p1)
    dv = np.einsum("td,tid->ti", g_u, grad_cr)
    B = (s2 ** ((p - 2.0) / 2.0) * areas)[:, None, None] * (
        np.einsum("tid,tjd->tij", grad_cr, grad_p1)
        + ((p - 2.0) / s2)[:, None, None] * dv[:, :, None] * du[:, None, :])
    r = test.full_from_free(state.r[test.free_dofs])
    Btr = gather(trial, np.einsum("tij,ti->tj", B, r[test.element_dofs]))
    top_scale = max(np.abs(forms.load_free).max(), np.abs(D).max(),
                    np.abs(N).max())
    return forms.load_free - D - N, -Btr, top_scale, np.abs(Btr).max()


def cr_interpolate(m, edge_mean_evaluator) -> np.ndarray:
    """Crouzeix-Raviart interpolation from edge means.

    ``edge_mean_evaluator(a, b)`` must return the mean of the target
    function over the segment with endpoint coordinates ``a`` and ``b``.
    The returned full CR coefficient vector reproduces those edge means
    (the midpoint value of a linear function equals its edge mean), and as
    a consequence preserves the mean gradient of the target on every
    element.
    """
    ev = m.vertices[m.edges]
    return np.array([edge_mean_evaluator(a, b) for a, b in ev])


def gauss_edge_mean(f, n_points: int = 6):
    """Edge-mean evaluator for a pointwise function via Gauss-Legendre."""
    xg, wg = leggauss(n_points)
    s = 0.5 * (xg + 1.0)
    w = 0.5 * wg

    def mean(a, b):
        pts = a[None, :] + s[:, None] * (b - a)[None, :]
        return float(w @ np.array([f(x, y) for x, y in pts]))

    return mean


def embed_p1_in_cr(m, p1_coeffs: np.ndarray) -> np.ndarray:
    """CR coefficients of a P1 function (edge midpoint = mean of endpoints).

    The embedded function is pointwise identical to the P1 original, so
    its element gradients agree exactly.
    """
    p1_coeffs = np.asarray(p1_coeffs)
    return 0.5 * (p1_coeffs[m.edges[:, 0]] + p1_coeffs[m.edges[:, 1]])


def p1_interpolate(m, f) -> np.ndarray:
    """Vertex interpolant of a pointwise function ``f(x, y)``."""
    return np.array([f(x, y) for x, y in m.vertices])


def min_angle(m) -> float:
    """Smallest interior angle over all triangles, in radians."""
    v = m.vertices[m.triangles]  # (nt, 3, 2)
    smallest = np.inf
    for i in range(3):
        e1 = v[:, (i + 1) % 3] - v[:, i]
        e2 = v[:, (i + 2) % 3] - v[:, i]
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        dot = (e1 * e2).sum(axis=1)
        ang = np.arctan2(np.abs(cross), dot)
        smallest = min(smallest, float(ang.min()))
    return smallest


def check_mesh(m, *, domain_area: float = 1.0,
               rel_tol: float = 1e-12) -> list[str]:
    """Run all mesh invariants, returning a list of violation messages.

    Checks: positive orientation, edge adjacency counts in {1, 2}, area
    conservation against ``domain_area`` (the unit square by default), and
    absence of hanging nodes.  Refinement only ever inserts edge midpoints,
    so a hanging node always coincides with the midpoint of some surviving
    edge; the check looks every edge midpoint up in a vertex coordinate
    table.
    """
    problems: list[str] = []

    areas = m.areas
    if np.any(areas <= 0.0):
        problems.append(f"{int((areas <= 0).sum())} non-positive triangle areas")

    counts = np.bincount(m.triangle_edges.ravel(), minlength=m.n_edges)
    if counts.min(initial=2) < 1 or counts.max(initial=1) > 2:
        problems.append("edge adjacency count outside {1, 2}")
    if not np.array_equal(counts == 1, m.boundary_edge_flags):
        problems.append("boundary flags inconsistent with adjacency counts")

    total = float(areas.sum())
    if abs(total - domain_area) > rel_tol * abs(domain_area):
        problems.append(f"area {total!r} differs from domain area "
                        f"{domain_area!r}")

    coord_table = {(float(x), float(y)): i
                   for i, (x, y) in enumerate(m.vertices)}
    mids = m.edge_midpoints()
    for e in range(m.n_edges):
        hit = coord_table.get((float(mids[e, 0]), float(mids[e, 1])))
        if hit is not None and hit not in (int(m.edges[e, 0]), int(m.edges[e, 1])):
            problems.append(f"hanging node: vertex {hit} sits at the midpoint "
                            f"of edge {e}")
    return problems
