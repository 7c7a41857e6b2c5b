import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plapminres.estimate import (
    EstimateError,
    ExactSolution,
    StudyRecord,
    dorfler_mark,
    estimator_global,
    fit_rate,
    true_error,
)
from plapminres.forms import NonlinearForms, assemble_load, local_indicators
from plapminres.linsolve import saddle_pattern
from plapminres.mesh import refine_uniform, unit_square_mesh
from plapminres.spaces import (
    CR,
    P1,
    QUAD_CHUNK,
    all_element_gradients,
    broken_seminorm,
    build_space,
    triangle_rule,
)
from tests.oracles import p1_interpolate, radial_seminorm_p

# frozen values of the polar-coordinate radial oracle (see
# tests/oracles.radial_seminorm_p) for sigma = 0.97, x0 = (-1, -1)
RADIAL_SEMINORM = {1.5: 1.1018949656245927, 3.0: 0.8955163879488652}


def make_forms(mesh, p):
    trial = build_space(mesh, P1)
    test = build_space(mesh, CR)
    problem = ExactSolution(p, 0.0, (-1.0, -1.0))  # f = 1
    return NonlinearForms(p, trial, test, saddle_pattern(test, trial),
                          assemble_load(problem, test, triangle_rule(2)),
                          np.zeros(trial.constrained_dofs.size))


class TestExactSolution:
    @pytest.mark.parametrize("p,sigma", [(1.5, 0.97), (2.0, 0.97), (3.0, 0.5)])
    def test_zero_on_unit_circle(self, p, sigma):
        es = ExactSolution(p, sigma, (0.0, 0.0))
        for x in ([1.0, 0.0], [0.6, 0.8], [-1.0, 0.0]):
            assert es.value(np.array(x)) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_center_p2(self):
        es = ExactSolution(2.0, 0.97, (0.0, 0.0))
        assert es.value(np.array([0.0, 0.0])) == pytest.approx(1.03 ** -2,
                                                               rel=1e-14)

    def test_gradient_formula(self):
        es = ExactSolution(3.0, 0.97, (0.2, -0.1))
        x = np.array([0.7, 0.4])
        grad = es.gradient(x)
        r = np.linalg.norm(x - np.array(es.x0))
        expected_mag = (1.0 / 1.03) ** 0.5 * r ** (es.radial_exponent - 1.0)
        assert np.linalg.norm(grad) == pytest.approx(expected_mag, rel=1e-13)
        direction = grad / np.linalg.norm(grad)
        radial = (x - np.array(es.x0)) / r
        assert np.allclose(direction, -radial, atol=1e-14)

    def test_gradient_vanishes_at_center_for_mild_exponent(self):
        # radial exponent > 1: |grad u| ~ r^(q-1) -> 0
        es = ExactSolution(1.5, 0.97, (0.0, 0.0))
        grad = es.gradient(np.array([0.0, 0.0]))
        assert np.array_equal(grad, np.zeros(2))

    def test_gradient_singularity_reported(self):
        es = ExactSolution(1.5, 1.8, (0.0, 0.0))  # q - 1 < 0
        with pytest.raises(EstimateError):
            es.gradient(np.array([0.0, 0.0]))

    def test_manufactured_consistency_fd(self):
        # -div(|grad u|^(p-2) grad u) must reproduce r^(-sigma); fourth-order
        # nested central differences of the closed-form flux as the oracle
        rng = np.random.default_rng(1)
        es = ExactSolution(3.0, 0.97, (0.0, 0.0))

        def flux(x):
            g = es.gradient(x)
            return float(np.linalg.norm(g)) ** (es.p - 2.0) * g

        def divergence(x, h=1e-4):
            total = 0.0
            for k in range(2):
                e = np.zeros(2)
                e[k] = 1.0
                f = [flux(x + s * h * e)[k] for s in (-2, -1, 1, 2)]
                total += (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
            return total

        for _ in range(20):
            r = rng.uniform(0.1, 0.9)
            th = rng.uniform(0.05, np.pi / 2 - 0.05)
            x = np.array([r * np.cos(th), r * np.sin(th)])
            want = float(es.source(x))
            assert -divergence(x) == pytest.approx(want, rel=1e-8)

    def test_parameter_validation(self):
        with pytest.raises(EstimateError):
            ExactSolution(1.0, 0.97, (0.0, 0.0))
        with pytest.raises(EstimateError):
            ExactSolution(2.0, 2.0, (0.0, 0.0))
        with pytest.raises(EstimateError, match="differ from sigma"):
            ExactSolution(1.5, 1.5, (0.0, 0.0))


class TestSource:
    def test_radial_values(self):
        es = ExactSolution(3.0, 0.5, (0.0, 0.0))
        pts = np.array([[4.0, 0.0], [0.0, 9.0]])
        assert np.allclose(es.source(pts), [0.5, 1.0 / 3.0])
        # sigma = 0 gives f = 1, on a (chunk, nq, 2) block of points too
        flat = ExactSolution(3.0, 0.0, (-1.0, -1.0))
        block = np.random.default_rng(5).uniform(size=(4, 7, 2))
        assert np.array_equal(flat.source(block), np.ones((4, 7)))

    def test_sigma_bound(self):
        with pytest.raises(EstimateError, match="sigma must be < 2"):
            ExactSolution(3.0, 2.0, (-1.0, -1.0))


class TestEstimatorGlobal:
    def test_zero(self):
        forms = make_forms(unit_square_mesh(2), 3.0)
        assert estimator_global(forms, np.zeros(forms.test.n_total)) == 0.0

    def test_p2_equals_seminorm(self):
        rng = np.random.default_rng(2)
        forms = make_forms(unit_square_mesh(3), 2.0)
        r = rng.standard_normal(forms.test.n_total)
        assert estimator_global(forms, r) == pytest.approx(
            broken_seminorm(forms.test, all_element_gradients(forms.test, r),
                            2.0), rel=1e-14)

    def test_consistency_with_local_masses(self):
        rng = np.random.default_rng(3)
        forms = make_forms(unit_square_mesh(3), 3.0)
        r = rng.standard_normal(forms.test.n_total)
        eta = estimator_global(forms, r)
        total = local_indicators(forms, r).sum()
        assert eta == pytest.approx(total ** ((forms.p - 1.0) / forms.p),
                                    rel=1e-12)

    def test_zero_iff_zero_seminorm(self):
        rng = np.random.default_rng(4)
        forms = make_forms(unit_square_mesh(2), 1.5)
        for _ in range(10):
            r = np.zeros(forms.test.n_total)
            r[forms.test.free_dofs] = rng.standard_normal(forms.test.n_free)
            eta = estimator_global(forms, r)
            semi = broken_seminorm(
                forms.test, all_element_gradients(forms.test, r), 1.5)
            assert (eta == 0.0) == (semi == 0.0)


class TestTrueError:
    def test_self_distance_is_zero(self):
        rng = np.random.default_rng(5)
        mesh = unit_square_mesh(3)
        trial = build_space(mesh, P1)
        u = rng.standard_normal(trial.n_total)
        g_h = all_element_gradients(trial, u)

        def own_gradient(pts):
            return np.broadcast_to(g_h[:, None, :], pts.shape)

        err = true_error(trial, u, own_gradient, triangle_rule(10), 2.5)
        assert err <= 1e-13

    def test_chunks_equal_unchunked_formula(self):
        es = ExactSolution(1.5, 0.97, (0.0, 0.0))
        mesh = unit_square_mesh(16)
        assert mesh.n_triangles > QUAD_CHUNK
        trial = build_space(mesh, P1)
        u = es.value(mesh.vertices)
        quad = triangle_rule(10)
        g_exact = es.gradient(quad.physical_points(mesh.vertices[mesh.triangles]))
        g_h = all_element_gradients(trial, u)
        diff = np.abs(g_exact - g_h[:, None, :]) ** 1.5
        per_element = 2.0 * mesh.areas * np.einsum("q,tqd->t", quad.weights,
                                                   diff)
        want = float(per_element.sum() ** (1.0 / 1.5))
        assert true_error(trial, u, es.gradient, quad, 1.5) == want

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_zero_function_error_matches_radial_oracle(self, p):
        es = ExactSolution(p, 0.97, (-1.0, -1.0))
        mesh = unit_square_mesh(8)
        trial = build_space(mesh, P1)
        err = true_error(trial, np.zeros(trial.n_total), es.gradient,
                         triangle_rule(10), p)
        frozen = RADIAL_SEMINORM[p]
        assert err == pytest.approx(frozen, rel=1e-6)

    def test_radial_oracle_frozen_values_reproducible(self):
        for p, frozen in RADIAL_SEMINORM.items():
            es = ExactSolution(p, 0.97, (-1.0, -1.0))
            assert radial_seminorm_p(es) == pytest.approx(frozen, rel=1e-10)

    def test_interpolant_error_first_order(self):
        es = ExactSolution(3.0, 0.97, (-1.0, -1.0))
        mesh = unit_square_mesh(2)
        errors = []
        for _ in range(4):
            trial = build_space(mesh, P1)
            coeffs = p1_interpolate(mesh, lambda x, y: float(
                es.value(np.array([x, y]))))
            errors.append(true_error(trial, coeffs, es.gradient,
                                     triangle_rule(10), 3.0))
            mesh = refine_uniform(mesh)
        ratios = [b / a for a, b in zip(errors, errors[1:])]
        for ratio in ratios[-2:]:
            assert 0.4 <= ratio <= 0.6


class TestDorflerMark:
    def test_single_heavy_element(self):
        marked = dorfler_mark(np.array([4.0, 2.0, 1.0, 1.0]), 0.5)
        assert marked.tolist() == [0]

    def test_theta_one_marks_all_positive(self):
        marked = dorfler_mark(np.array([1.0, 0.0, 2.0, 3.0]), 1.0)
        assert marked.tolist() == [0, 2, 3]

    def test_tie_breaking_lowest_indices(self):
        marked = dorfler_mark(np.ones(4), 0.5)
        assert marked.tolist() == [0, 1]

    @pytest.mark.parametrize("mass", [0.3, 1e-310], ids=["normal", "subnormal"])
    @pytest.mark.parametrize("heavier", [0, 1], ids=["lower", "upper"])
    def test_round_off_tie_marks_lower_index(self, mass, heavier):
        # a mirror pair whose masses differ by one ulp, in either order
        pair = [mass, mass]
        pair[heavier] = np.nextafter(mass, 1.0)
        masses = np.array([mass / 4.0] + pair + [mass / 8.0])
        assert masses[1] != masses[2]
        marked = dorfler_mark(masses, 0.3)
        assert marked.tolist() == [1]

    def test_all_subnormal_masses(self):
        masses = np.array([3e-320, 1e-321, 3e-320, 5e-324, 0.0])
        with np.errstate(all="raise"):
            marked = dorfler_mark(masses, 0.6)
        assert marked.tolist() == [0, 2]

    def test_all_zero_warns_and_returns_empty(self):
        with pytest.warns(UserWarning):
            marked = dorfler_mark(np.zeros(5), 0.5)
        assert marked.size == 0

    def test_invalid_inputs(self):
        with pytest.raises(EstimateError):
            dorfler_mark(np.ones(3), 0.0)
        with pytest.raises(EstimateError):
            dorfler_mark(np.array([1.0, -0.5]), 0.5)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                    max_size=60),
           st.floats(min_value=0.01, max_value=1.0))
    def test_marked_set_reaches_theta_and_is_minimal(self, masses, theta):
        masses = np.asarray(masses)
        total = masses.sum()
        if total == 0.0:
            return
        marked = dorfler_mark(masses, theta)
        got = masses[marked].sum()
        assert got >= theta * total * (1.0 - 1e-9)
        # dropping the lightest marked element must fall below the target
        if marked.size > 1:
            lightest = marked[np.argmin(masses[marked])]
            assert got - masses[lightest] < theta * total * (1.0 + 1e-9)


def synthetic_records(n_totals, values):
    return [StudyRecord(level=i, n_free_trial=0, n_free_test=0,
                        n_total=n, h_max=0.0, error=v, eta=v,
                        eta_over_error=1.0, eta_root_over_error=1.0,
                        newton_total=0, damping_events=0, wall_ms=0.0)
            for i, (n, v) in enumerate(zip(n_totals, values))]


class TestFitRate:
    def test_exact_power_law(self):
        ns = [100, 400, 1600, 6400]
        recs = synthetic_records(ns, [n ** -0.5 for n in ns])
        assert fit_rate(recs, "error", 4) == pytest.approx(-0.5, abs=1e-12)

    def test_constant_quantity(self):
        recs = synthetic_records([10, 100, 1000], [2.0, 2.0, 2.0])
        assert fit_rate(recs, "error", 3) == pytest.approx(0.0, abs=1e-14)

    def test_two_points(self):
        recs = synthetic_records([100, 400], [1.0, 0.5])
        assert fit_rate(recs, "error", 2) == pytest.approx(
            np.log(0.5) / np.log(4.0), rel=1e-13)

    def test_window_selects_tail(self):
        ns = [10, 100, 1000, 10000]
        recs = synthetic_records(ns, [5.0, 1.0, 0.1, 0.01])
        tail_only = fit_rate(recs, "error", 2)
        assert tail_only == pytest.approx(-1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        recs = synthetic_records([10, 100], [1.0, 0.0])
        with pytest.raises(EstimateError):
            fit_rate(recs, "error", 2)

    def test_rejects_window_beyond_records(self):
        recs = synthetic_records([10, 100], [1.0, 0.5])
        with pytest.raises(EstimateError, match="window of 3"):
            fit_rate(recs, "error", 3)

    def test_rejects_short_window(self):
        recs = synthetic_records([10, 100], [1.0, 0.5])
        with pytest.raises(EstimateError):
            fit_rate(recs, "error", 1)
