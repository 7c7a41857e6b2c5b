import subprocess
import sys
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import roots_jacobi

import plapminres
from plapminres.mesh import refine_marked, refine_uniform, unit_square_mesh
from plapminres.spaces import (
    CR,
    P1,
    QUAD_CHUNK,
    SpaceError,
    all_element_gradients,
    broken_seminorm,
    build_space,
    gauss_jacobi_1_0,
    integrate_flux,
    triangle_rule,
)
from tests.oracles import (
    cr_interpolate,
    embed_p1_in_cr,
    gauss_edge_mean,
    monomial_integral_over_triangle,
    p1_interpolate,
)


def _bisected_mesh():
    m = unit_square_mesh(4)
    for _ in range(3):
        m = refine_marked(m, np.arange(0, m.n_triangles, 3))
    return m


class TestBuildSpace:
    def test_p1_n1_all_boundary(self):
        dm = build_space(unit_square_mesh(1), P1)
        assert dm.n_total == 4
        assert dm.n_free == 0

    def test_p1_n2_single_interior_vertex(self):
        dm = build_space(unit_square_mesh(2), P1)
        assert dm.n_total == 9
        assert dm.n_free == 1

    def test_cr_n2_edge_census(self):
        m = unit_square_mesh(2)
        dm = build_space(m, CR)
        # the n=2 mesh has 16 edges of which 8 lie on the boundary
        assert dm.n_total == 16
        assert dm.n_free == 8
        full = dm.full_from_free(np.ones(dm.n_free))
        assert np.all(full[dm.constrained_dofs] == 0.0)

    def test_partition(self):
        dm = build_space(unit_square_mesh(3), CR)
        both = np.concatenate([dm.free_dofs, dm.constrained_dofs])
        assert np.array_equal(np.sort(both), np.arange(dm.n_total))

    @pytest.mark.parametrize("kind", [P1, CR])
    def test_element_fields_follow_mesh_conventions(self, kind):
        m = _bisected_mesh()
        dm = build_space(m, kind)
        if kind == P1:
            assert dm.element_dofs is m.triangles
            assert dm.basis_gradients is m.grad_lambda
            nodes = m.vertices[dm.element_dofs]
        else:
            assert np.array_equal(dm.element_dofs, m.triangle_edges)
            assert np.array_equal(dm.basis_gradients, -2.0 * m.grad_lambda)
            nodes = m.vertices[m.edges[dm.element_dofs]].mean(axis=2)
        # local basis function i is one at node i and zero at the others
        got = np.einsum("tid,tjd->tij", dm.basis_gradients,
                        nodes - nodes[:, :1])
        eye = np.eye(3)
        assert np.abs(got - (eye - eye[:, :1])).max() <= 1e-12
        want = np.full(dm.n_total, -1)
        want[dm.free_dofs] = np.arange(dm.n_free)
        assert np.array_equal(dm.free_index, want)  # -1 where constrained
        for arr in (dm.element_dofs, dm.basis_gradients, dm.free_index):
            assert not arr.flags.writeable


class TestGaussJacobi:
    @pytest.mark.parametrize("n", range(1, 22))
    def test_matches_scipy(self, n):
        # the rule sizes of degrees up to 40, beyond the one the program uses
        nodes, weights = gauss_jacobi_1_0(n)
        ref_nodes, ref_weights = roots_jacobi(n, 1.0, 0.0)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(weights, ref_weights, rtol=0.0, atol=1e-13)

    def test_one_point_closed_form(self):
        # int (1 - x) dx = 2 and int x (1 - x) dx = -2/3 on [-1, 1]
        nodes, weights = gauss_jacobi_1_0(1)
        assert nodes.shape == weights.shape == (1,)
        assert abs(nodes[0] + 1.0 / 3.0) <= 1e-15
        assert abs(weights[0] - 2.0) <= 1e-15

    def test_study_does_not_load_scipy_special(self):
        script = (
            "import sys\n"
            "from plapminres.cli import config_from_dict\n"
            "from plapminres.driver import run_study\n"
            "records = run_study(config_from_dict("
            "{'p_target': 2.0, 'max_levels': 1, 'initial_n': 2}))\n"
            "assert len(records) == 1, records\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('scipy.special')))\n")
        src = str(Path(plapminres.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], cwd=src,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestQuadRule:
    @pytest.mark.parametrize("degree", [1, 2, 4, 6, 10])
    def test_weights_sum_to_reference_area(self, degree):
        rule = triangle_rule(degree)
        assert abs(rule.weights.sum() - 0.5) <= 1e-13

    @pytest.mark.parametrize("degree", [2, 5, 10])
    def test_points_strictly_interior(self, degree):
        rule = triangle_rule(degree)
        assert rule.points.min() > 0.0
        assert rule.points.max() < 1.0

    @pytest.mark.parametrize("degree", [2, 4, 10])
    def test_monomial_exactness_reference(self, degree):
        rule = triangle_rule(degree)
        x = rule.points[:, 1]
        y = rule.points[:, 2]
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = monomial_integral_over_triangle(ref, a, b)
                got = float(rule.weights @ (x ** a * y ** b))
                assert abs(got - exact) <= 1e-13 * max(abs(exact), 1e-3)

    @pytest.mark.parametrize("degree", [2, 10])
    def test_monomial_exactness_mapped_triangle(self, degree):
        # change-of-variables check on a skewed physical triangle
        tri = np.array([[0.2, -0.1], [1.3, 0.4], [0.5, 1.1]])
        rule = triangle_rule(degree)
        pts = rule.physical_points(tri)
        e1 = tri[1] - tri[0]
        e2 = tri[2] - tri[0]
        area2 = abs(e1[0] * e2[1] - e1[1] * e2[0])
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = monomial_integral_over_triangle(tri, a, b)
                got = float(area2 * rule.weights
                            @ (pts[:, 0] ** a * pts[:, 1] ** b))
                assert abs(got - exact) <= 1e-12 * max(abs(exact), 1e-6)

    @pytest.mark.parametrize("n", [3, 12], ids=["one-partial-block",
                                                "full-and-partial-blocks"])
    def test_blocks_cover_each_triangle_once_in_order(self, n):
        mesh = unit_square_mesh(n)
        assert mesh.n_triangles % QUAD_CHUNK != 0
        rule = triangle_rule(10)
        blocks = list(rule.blocks(mesh))
        assert len(blocks) == -(-mesh.n_triangles // QUAD_CHUNK)
        triangles = np.arange(mesh.n_triangles)
        assert np.array_equal(
            np.concatenate([triangles[block] for block, _ in blocks]),
            triangles)
        assert all(triangles[block].size == QUAD_CHUNK
                   for block, _ in blocks[:-1])
        assert np.array_equal(
            np.concatenate([points for _, points in blocks]),
            rule.physical_points(mesh.vertices[mesh.triangles]))


class TestElementGradient:
    def test_zero_coeffs(self):
        m = unit_square_mesh(2)
        dm = build_space(m, P1)
        g = all_element_gradients(dm, np.zeros(dm.n_total))[0]
        assert np.array_equal(g, np.zeros(2))

    def test_linear_reproduction_x(self):
        m = unit_square_mesh(3)
        dm = build_space(m, P1)
        coeffs = p1_interpolate(m, lambda x, y: x)
        g = all_element_gradients(dm, coeffs)
        assert np.abs(g - np.array([1.0, 0.0])).max() < 1e-13

    def test_linear_reproduction_affine(self):
        m = unit_square_mesh(3)
        dm = build_space(m, P1)
        coeffs = p1_interpolate(m, lambda x, y: 3 * x - 2 * y)
        g = all_element_gradients(dm, coeffs)
        assert np.abs(g - np.array([3.0, -2.0])).max() < 1e-12

    def test_cr_gradient_linear(self):
        m = unit_square_mesh(2)
        dm = build_space(m, CR)
        coeffs = cr_interpolate(m, gauss_edge_mean(lambda x, y: 2 * x + y))
        g = all_element_gradients(dm, coeffs)
        assert np.abs(g - np.array([2.0, 1.0])).max() < 1e-12


class TestIntegrateFlux:
    @staticmethod
    def flux_map(dm):
        """The gradient map's transpose restricted to the free DOFs, laid
        out row by row from the element DOFs and sorted to CSR."""
        rows = 2 * dm.mesh.n_triangles
        data = dm.basis_gradients.transpose(0, 2, 1).reshape(rows, 3)
        cols = dm.free_index[np.repeat(dm.element_dofs, 2, axis=0)]
        live = cols >= 0
        indptr = np.concatenate([[0], np.cumsum(live.sum(axis=1))])
        return sp.csr_matrix((data[live], cols[live], indptr),
                             shape=(rows, dm.n_free)).T.tocsr()

    @pytest.mark.parametrize("kind", [P1, CR])
    @pytest.mark.parametrize("mesh", [
        lambda: unit_square_mesh(32), _bisected_mesh,
    ], ids=["uniform", "bisected"])
    def test_equals_the_free_transpose_bitwise(self, kind, mesh):
        dm = build_space(mesh(), kind)
        reference = self.flux_map(dm)
        rng = np.random.default_rng(7)
        for _ in range(3):
            flux = rng.standard_normal((dm.mesh.n_triangles, 2))
            assert np.array_equal(integrate_flux(dm, flux),
                                  reference @ flux.ravel())

    def test_gradient_map_is_the_one_sparse_operator(self):
        dm = build_space(unit_square_mesh(2), CR)
        assert [f.name for f in dataclass_fields(dm)
                if sp.issparse(getattr(dm, f.name))] == ["gradient_map"]


class TestBrokenSeminorm:
    def test_zero(self):
        dm = build_space(unit_square_mesh(2), P1)
        g = all_element_gradients(dm, np.zeros(dm.n_total))
        assert broken_seminorm(dm, g, 1.5) == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
    def test_unit_gradient_on_unit_area(self, p):
        m = unit_square_mesh(3)
        dm = build_space(m, P1)
        coeffs = p1_interpolate(m, lambda x, y: x)
        g = all_element_gradients(dm, coeffs)
        assert broken_seminorm(dm, g, p) == pytest.approx(1.0, rel=1e-13)

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        m = unit_square_mesh(3)
        dm = build_space(m, CR)
        coeffs = rng.standard_normal(dm.n_total)
        lam = -2.5
        left = broken_seminorm(dm, all_element_gradients(dm, lam * coeffs),
                               3.0)
        right = abs(lam) * broken_seminorm(
            dm, all_element_gradients(dm, coeffs), 3.0)
        assert left == pytest.approx(right, rel=1e-12)

    def test_rejects_p_at_most_one(self):
        dm = build_space(unit_square_mesh(1), P1)
        with pytest.raises(SpaceError):
            broken_seminorm(dm, np.zeros((dm.mesh.n_triangles, 2)), 1.0)


class TestCrInterpolate:
    def test_constant_reproduced(self):
        m = unit_square_mesh(2)
        coeffs = cr_interpolate(m, gauss_edge_mean(lambda x, y: 1.0))
        assert np.abs(coeffs - 1.0).max() < 1e-14

    def test_affine_exact(self):
        m = unit_square_mesh(3)
        f = lambda x, y: 0.7 * x - 1.3 * y + 0.25
        coeffs = cr_interpolate(m, gauss_edge_mean(f))
        mids = m.edge_midpoints()
        expected = np.array([f(x, y) for x, y in mids])
        assert np.abs(coeffs - expected).max() < 1e-13

    def test_mean_gradient_preserved_for_quadratic(self):
        # v = x^2: int_T grad(v - Pi v) must vanish componentwise
        m = unit_square_mesh(2)
        dm = build_space(m, CR)
        coeffs = cr_interpolate(m, gauss_edge_mean(lambda x, y: x * x))
        g_pi = all_element_gradients(dm, coeffs)
        rule = triangle_rule(2)
        pts = rule.physical_points(m.vertices[m.triangles])  # (nt, nq, 2)
        # grad v = (2x, 0), integrated exactly by the degree-2 rule
        gx = 2.0 * m.areas * 2.0 * np.einsum("q,tq->t", rule.weights, pts[..., 0])
        mean_v = np.stack([gx, np.zeros_like(gx)], axis=1)
        mean_pi = m.areas[:, None] * g_pi
        assert np.abs(mean_v - mean_pi).max() <= 1e-12

    def test_edge_means_match_evaluator(self):
        m = unit_square_mesh(2)
        f = lambda x, y: np.sin(x) + y ** 3
        mean = gauss_edge_mean(f)
        coeffs = cr_interpolate(m, mean)
        # the interpolant is linear per element, so its mean over an edge is
        # the midpoint value, i.e. the stored coefficient
        ev = m.vertices[m.edges]
        for e in range(m.n_edges):
            assert coeffs[e] == pytest.approx(mean(ev[e, 0], ev[e, 1]), abs=1e-12)


class TestEmbedding:
    def test_p1_inside_cr_same_gradients(self):
        rng = np.random.default_rng(11)
        m = refine_uniform(unit_square_mesh(2))
        p1 = build_space(m, P1)
        cr = build_space(m, CR)
        coeffs = rng.standard_normal(p1.n_total)
        g1 = all_element_gradients(p1, coeffs)
        g2 = all_element_gradients(cr, embed_p1_in_cr(m, coeffs))
        assert np.abs(g1 - g2).max() < 1e-13
