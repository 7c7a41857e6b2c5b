import numpy as np
import pytest

from plapminres.estimate import ExactSolution
from plapminres.forms import (
    FormsError,
    NonlinearForms,
    apply_duality_map,
    apply_plaplacian,
    assemble_load,
    local_indicators,
)
from plapminres.linsolve import saddle_pattern
from plapminres.mesh import unit_square_mesh
from plapminres.spaces import (
    CR,
    P1,
    QUAD_CHUNK,
    all_element_gradients,
    broken_seminorm,
    build_space,
    triangle_rule,
)
from tests.oracles import (
    action,
    duality_jacobian_matrix,
    embed_p1_in_cr,
    operator_jacobian_matrix,
    p1_interpolate,
)


def make_forms(mesh, p, quad_degree=4):
    trial = build_space(mesh, P1)
    test = build_space(mesh, CR)
    problem = ExactSolution(p, 0.0, (-1.0, -1.0))  # f = 1
    load_free = assemble_load(problem, test, triangle_rule(quad_degree))
    return NonlinearForms(p, trial, test, saddle_pattern(test, trial),
                          load_free, np.zeros(trial.constrained_dofs.size))


def stiffness_action_oracle(forms, coeffs, kind):
    """Plain-loop CR-tested stiffness action sum_T area grad . grad phi_i."""
    mesh = forms.mesh
    grad_cr = -2.0 * mesh.grad_lambda
    dm = forms.trial if kind == "trial" else forms.test
    g = all_element_gradients(dm, coeffs)
    out = np.zeros(forms.test.n_total)
    for t in range(mesh.n_triangles):
        for i in range(3):
            e = mesh.triangle_edges[t, i]
            out[e] += mesh.areas[t] * float(g[t] @ grad_cr[t, i])
    return out[forms.test.free_dofs]


class TestNonlinearForms:
    @pytest.mark.parametrize("shape", [
        lambda dm: (dm.constrained_dofs.size - 1,),
        lambda dm: (dm.constrained_dofs.size + 1,),
        lambda dm: (dm.n_total,),
        lambda dm: (dm.constrained_dofs.size, 1),
    ], ids=["short", "long", "full-vector", "column"])
    def test_rejects_misshaped_dirichlet_values(self, shape):
        mesh = unit_square_mesh(2)
        trial = build_space(mesh, P1)
        test = build_space(mesh, CR)
        with pytest.raises(FormsError, match="Dirichlet"):
            NonlinearForms(2.0, trial, test, saddle_pattern(test, trial),
                           np.zeros(test.n_free), np.zeros(shape(trial)))

    def test_rejects_pattern_of_another_mesh(self):
        # both meshes have the same sizes: only the identity check sees it
        mesh, other = unit_square_mesh(2), unit_square_mesh(2)
        trial = build_space(mesh, P1)
        test = build_space(mesh, CR)
        pattern = saddle_pattern(build_space(other, CR),
                                 build_space(other, P1))
        with pytest.raises(FormsError, match="another mesh"):
            NonlinearForms(2.0, trial, test, pattern, np.zeros(test.n_free),
                           np.zeros(trial.constrained_dofs.size))


class TestApplyOperator:
    def test_zero_input(self):
        for p in (1.4, 2.0, 3.3):
            forms = make_forms(unit_square_mesh(2), p)
            u = np.zeros(forms.trial.n_total)
            out = action(apply_plaplacian, forms, all_element_gradients(forms.trial, u))
            assert np.array_equal(out, np.zeros(forms.test.n_free))

    def test_p2_matches_stiffness_oracle(self):
        rng = np.random.default_rng(0)
        forms = make_forms(unit_square_mesh(3), 2.0)
        u = rng.standard_normal(forms.trial.n_total)
        got = action(apply_plaplacian, forms, all_element_gradients(forms.trial, u))
        want = stiffness_action_oracle(forms, u, "trial")
        assert np.abs(got - want).max() < 1e-13

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        forms = make_forms(unit_square_mesh(3), 3.0)
        u = rng.standard_normal(forms.trial.n_total)
        lam = 2.0
        left = action(apply_plaplacian, forms,
                      all_element_gradients(forms.trial, lam * u))
        right = lam * abs(lam) ** (forms.p - 2.0) * action(
            apply_plaplacian, forms, all_element_gradients(forms.trial, u))
        assert np.abs(left - right).max() <= 1e-12 * np.abs(right).max()


class TestApplyDualityMap:
    def test_zero_input(self):
        forms = make_forms(unit_square_mesh(2), 1.5)
        g = all_element_gradients(forms.test, np.zeros(forms.test.n_total))
        out = action(apply_duality_map, forms, g)
        assert np.array_equal(out, np.zeros(forms.test.n_free))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_duality_identity(self, p):
        rng = np.random.default_rng(2)
        forms = make_forms(unit_square_mesh(3), p)
        r = np.zeros(forms.test.n_total)
        r[forms.test.free_dofs] = rng.standard_normal(forms.test.n_free)
        g = all_element_gradients(forms.test, r)
        pairing = float(action(apply_duality_map, forms, g) @ r[forms.test.free_dofs])
        norm_p = broken_seminorm(forms.test, g, p) ** p
        assert pairing == pytest.approx(norm_p, rel=1e-11)

    def test_p2_is_stiffness_action(self):
        rng = np.random.default_rng(3)
        forms = make_forms(unit_square_mesh(3), 2.0)
        r = np.zeros(forms.test.n_total)
        r[forms.test.free_dofs] = rng.standard_normal(forms.test.n_free)
        got = action(apply_duality_map, forms, all_element_gradients(forms.test, r))
        want = stiffness_action_oracle(forms, r, "test")
        assert np.abs(got - want).max() < 1e-13

    def test_homogeneity(self):
        rng = np.random.default_rng(4)
        forms = make_forms(unit_square_mesh(2), 1.7)
        r = rng.standard_normal(forms.test.n_total)
        lam = -1.75
        left = action(apply_duality_map, forms,
                      all_element_gradients(forms.test, lam * r))
        right = lam * abs(lam) ** (forms.p - 2.0) * action(
            apply_duality_map, forms, all_element_gradients(forms.test, r))
        assert np.abs(left - right).max() <= 1e-12 * np.abs(right).max()


def nondegenerate_trial_state(forms, rng, slope=(1.0, 0.6)):
    """A trial vector whose element gradients stay well away from zero."""
    m = forms.mesh
    base = p1_interpolate(m, lambda x, y: slope[0] * x + slope[1] * y)
    noise = np.zeros(forms.trial.n_total)
    noise[forms.trial.free_dofs] = 0.05 * rng.standard_normal(forms.trial.n_free)
    return base + noise


class TestOperatorJacobian:
    def test_p2_independent_of_state(self):
        rng = np.random.default_rng(5)
        forms = make_forms(unit_square_mesh(3), 2.0)
        B1 = operator_jacobian_matrix(forms, rng.standard_normal(forms.trial.n_total))
        B2 = operator_jacobian_matrix(forms, rng.standard_normal(forms.trial.n_total))
        assert abs(B1 - B2).max() < 1e-12

    def test_p2_rows_give_stiffness_action(self):
        rng = np.random.default_rng(6)
        forms = make_forms(unit_square_mesh(3), 2.0)
        B = operator_jacobian_matrix(forms, np.zeros(forms.trial.n_total))
        u = np.zeros(forms.trial.n_total)
        u[forms.trial.free_dofs] = rng.standard_normal(forms.trial.n_free)
        Nu = action(apply_plaplacian, forms, all_element_gradients(forms.trial, u))
        assert np.abs(B @ u[forms.trial.free_dofs] - Nu).max() < 1e-13

    def test_centered_difference_check(self):
        rng = np.random.default_rng(7)
        forms = make_forms(unit_square_mesh(3), 2.7)
        u = nondegenerate_trial_state(forms, rng)
        delta = rng.standard_normal(forms.trial.n_free)
        B = operator_jacobian_matrix(forms, u)
        h = 1e-5
        up = u.copy()
        up[forms.trial.free_dofs] += h * delta
        um = u.copy()
        um[forms.trial.free_dofs] -= h * delta
        fd = (action(apply_plaplacian, forms, all_element_gradients(forms.trial, up))
              - action(apply_plaplacian, forms, all_element_gradients(forms.trial, um))
              ) / (2 * h)
        Bd = B @ delta
        assert np.linalg.norm(fd - Bd) <= 1e-6 * np.linalg.norm(Bd)

    def test_trial_restriction_is_symmetric(self):
        # restricted to trial directions the Jacobian is the Hessian of the
        # energy (1/p) int |grad u|^p, hence symmetric
        rng = np.random.default_rng(8)
        m = unit_square_mesh(3)
        forms = make_forms(m, 2.6)
        u = nondegenerate_trial_state(forms, rng)
        B = operator_jacobian_matrix(forms, u)
        for _ in range(5):
            d1 = np.zeros(forms.trial.n_total)
            d2 = np.zeros(forms.trial.n_total)
            d1[forms.trial.free_dofs] = rng.standard_normal(forms.trial.n_free)
            d2[forms.trial.free_dofs] = rng.standard_normal(forms.trial.n_free)
            e1 = embed_p1_in_cr(m, d1)[forms.test.free_dofs]
            e2 = embed_p1_in_cr(m, d2)[forms.test.free_dofs]
            lhs = float((B @ d1[forms.trial.free_dofs]) @ e2)
            rhs = float((B @ d2[forms.trial.free_dofs]) @ e1)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestDualityJacobian:
    def test_p2_is_broken_stiffness(self):
        rng = np.random.default_rng(9)
        forms = make_forms(unit_square_mesh(3), 2.0)
        G = duality_jacobian_matrix(forms, rng.standard_normal(forms.test.n_total))
        r = np.zeros(forms.test.n_total)
        r[forms.test.free_dofs] = rng.standard_normal(forms.test.n_free)
        Dr = action(apply_duality_map, forms, all_element_gradients(forms.test, r))
        assert np.abs(G @ r[forms.test.free_dofs] - Dr).max() < 1e-13

    def test_exact_symmetry(self):
        rng = np.random.default_rng(10)
        forms = make_forms(unit_square_mesh(3), 1.6)
        G = duality_jacobian_matrix(forms, rng.standard_normal(forms.test.n_total))
        assert abs(G - G.T).max() == 0.0

    def test_centered_difference_check(self):
        rng = np.random.default_rng(11)
        m = unit_square_mesh(3)
        forms = make_forms(m, 1.6)
        base = embed_p1_in_cr(m, p1_interpolate(m, lambda x, y: 2 * x + 3 * y))
        r = base + 0.05 * rng.standard_normal(forms.test.n_total)
        delta = rng.standard_normal(forms.test.n_free)
        G = duality_jacobian_matrix(forms, r)
        h = 1e-5
        rp = r.copy()
        rp[forms.test.free_dofs] += h * delta
        rm = r.copy()
        rm[forms.test.free_dofs] -= h * delta
        fd = (action(apply_duality_map, forms, all_element_gradients(forms.test, rp))
              - action(apply_duality_map, forms, all_element_gradients(forms.test, rm))
              ) / (2 * h)
        Gd = G @ delta
        assert np.linalg.norm(fd - Gd) <= 1e-6 * np.linalg.norm(Gd)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(12)
        forms = make_forms(unit_square_mesh(3), 2.4)
        G = duality_jacobian_matrix(forms, rng.standard_normal(forms.test.n_total))
        for _ in range(20):
            v = rng.standard_normal(forms.test.n_free)
            assert v @ (G @ v) >= -1e-12 * (v @ v)


class TestAssembleLoad:
    def test_unit_load_gives_support_area_thirds(self):
        m = unit_square_mesh(2)
        test = build_space(m, CR)
        problem = ExactSolution(2.0, 0.0, (-1.0, -1.0))  # f = 1
        vec = assemble_load(problem, test, triangle_rule(2))
        support = np.zeros(test.n_total)
        for t in range(m.n_triangles):
            for e in m.triangle_edges[t]:
                support[e] += m.areas[t]
        want = support[test.free_dofs] / 3.0
        assert np.abs(vec - want).max() < 1e-14

    def test_chunks_equal_unchunked_formula(self):
        m = unit_square_mesh(16)
        assert m.n_triangles > QUAD_CHUNK
        test = build_space(m, CR)
        problem = ExactSolution(2.0, 0.97, (0.0, 0.0))
        quad = triangle_rule(10)
        # every point at once
        fx = problem.source(quad.physical_points(m.vertices[m.triangles]))
        cells = 2.0 * m.areas[:, None] * ((fx * quad.weights)
                                          @ (1.0 - 2.0 * quad.points))
        full = np.bincount(m.triangle_edges.ravel(), weights=cells.ravel(),
                           minlength=test.n_total)
        assert np.array_equal(assemble_load(problem, test, quad),
                              full[test.free_dofs])

    def test_singular_load_is_finite(self):
        m = unit_square_mesh(4)
        test = build_space(m, CR)
        vec = assemble_load(ExactSolution(2.0, 0.97, (-1.0, -1.0)),
                            test, triangle_rule(10))
        assert np.all(np.isfinite(vec))

    def test_corner_singularity_is_finite(self):
        m = unit_square_mesh(4)
        test = build_space(m, CR)
        vec = assemble_load(ExactSolution(2.0, 0.97, (0.0, 0.0)),
                            test, triangle_rule(10))
        assert np.all(np.isfinite(vec))


class TestLocalIndicators:
    def test_zero(self):
        forms = make_forms(unit_square_mesh(2), 1.5)
        m_t = local_indicators(forms, np.zeros(forms.test.n_total))
        assert np.array_equal(m_t, np.zeros(forms.mesh.n_triangles))

    def test_masses_sum_to_norm_power(self):
        rng = np.random.default_rng(13)
        forms = make_forms(unit_square_mesh(3), 3.0)
        r = rng.standard_normal(forms.test.n_total)
        total = local_indicators(forms, r).sum()
        g = all_element_gradients(forms.test, r)
        assert total == pytest.approx(broken_seminorm(forms.test, g, 3.0) ** 3,
                                      rel=1e-12)

    def test_locality(self):
        m = unit_square_mesh(1)
        forms = make_forms(m, 2.5)
        r = np.zeros(forms.test.n_total)
        # load both boundary edges of triangle 0, keep the shared diagonal 0
        shared = set(m.triangle_edges[1])
        own = [e for e in m.triangle_edges[0] if e not in shared]
        r[own[0]] = 1.0
        masses = local_indicators(forms, r)
        assert np.count_nonzero(masses) == 1
        assert masses[0] > 0.0


class TestStrictMonotonicity:
    @pytest.mark.parametrize("p", [1.3, 1.5, 2.0, 2.5, 3.0])
    def test_random_pairs(self, p):
        rng = np.random.default_rng(14)
        m = unit_square_mesh(3)
        forms = make_forms(m, p)
        for _ in range(20):
            u = np.zeros(forms.trial.n_total)
            w = np.zeros(forms.trial.n_total)
            u[forms.trial.free_dofs] = rng.standard_normal(forms.trial.n_free)
            w[forms.trial.free_dofs] = rng.standard_normal(forms.trial.n_free)
            diff = embed_p1_in_cr(m, u - w)[forms.test.free_dofs]
            g_u = all_element_gradients(forms.trial, u)
            g_w = all_element_gradients(forms.trial, w)
            pairing = float((action(apply_plaplacian, forms, g_u)
                             - action(apply_plaplacian, forms, g_w)) @ diff)
            assert pairing > 0.0
