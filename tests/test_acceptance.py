"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a PASS line with the measured quantities; the whole module is the
release gate for the solver.
"""

import time

import numpy as np
import pytest

from plapminres.driver import ProblemConfig, run_study
from plapminres.estimate import (
    ExactSolution,
    dorfler_mark,
    estimator_global,
    fit_rate,
    true_error,
)
from plapminres.forms import (
    NonlinearForms,
    apply_duality_map,
    apply_plaplacian,
    assemble_load,
    local_indicators,
)
from plapminres.linsolve import saddle_pattern
from plapminres.mesh import refine_marked, refine_uniform, unit_square_mesh
from plapminres.newton import SolverOptions, cold_state, continuation_solve, newton_solve
from plapminres.spaces import (
    CR,
    P1,
    all_element_gradients,
    broken_seminorm,
    build_space,
    triangle_rule,
)
from tests.oracles import (
    action,
    check_mesh,
    duality_jacobian_matrix,
    embed_p1_in_cr,
    gauss_edge_mean,
    min_angle,
    operator_jacobian_matrix,
    p1_interpolate,
    p1_poisson_galerkin,
)


def report(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


@pytest.fixture(scope="module")
def case1_studies():
    """Shared uniform Case-1 studies for the rate and robustness criteria."""
    studies = {}
    for p in (1.5, 3.0):
        cfg = ProblemConfig(p_target=p, sigma=0.97, x0=(-1.0, -1.0),
                            initial_n=2, strategy="uniform", max_levels=6)
        studies[p] = run_study(cfg)
    return studies


class TestCriterion1PoissonOracle:
    def test_p2_equals_galerkin(self):
        t0 = time.perf_counter()
        mesh = unit_square_mesh(4)
        test = build_space(mesh, CR)
        es = ExactSolution(2.0, 0.97, (-1.0, -1.0))
        load_free = assemble_load(es, test, triangle_rule(10))
        trial = build_space(mesh, P1)
        boundary = es.value(mesh.vertices[trial.constrained_dofs])
        forms = NonlinearForms(2.0, trial, test, saddle_pattern(test, trial),
                               load_free, boundary)
        result = newton_solve(forms, cold_state(forms), SolverOptions())
        assert result.converged
        u_ref = p1_poisson_galerkin(mesh, boundary, load_free, test)
        g_diff = all_element_gradients(trial, result.state.u - u_ref)
        rel = (broken_seminorm(trial, g_diff, 2.0)
               / broken_seminorm(trial, all_element_gradients(trial, u_ref),
                                 2.0))
        wall = time.perf_counter() - t0
        assert rel <= 1e-8
        assert wall < 1.0
        report("1 (p=2 Galerkin oracle)",
               f"relative seminorm distance {rel:.2e}, wall {wall:.2f}s")


class TestCriterion2SmoothRates:
    def test_rates_both_exponents(self, case1_studies):
        details = []
        for p, records in case1_studies.items():
            assert len(records) == 6
            assert records[-1].n_total > 1e4  # final level near 2e4 DOFs
            errors = [r.error for r in records]
            etas = [r.eta for r in records]
            assert all(b < a for a, b in zip(errors, errors[1:]))
            assert all(b < a for a, b in zip(etas, etas[1:]))
            slope_err = fit_rate(records, "error", 3)
            slope_eta = fit_rate(records, "eta", 3)
            assert -0.55 <= slope_err <= -0.45, f"p={p}: {slope_err}"
            assert abs(slope_err - slope_eta) <= 0.10, \
                f"p={p}: {slope_err} vs {slope_eta}"
            details.append(f"p={p}: slope(err)={slope_err:+.3f}, "
                           f"slope(eta)={slope_eta:+.3f}")
        report("2 (Case 1 optimal rates)", "; ".join(details))


class TestCriterion3NewtonRobustness:
    def test_p3_totals_bounded_and_not_growing(self, case1_studies):
        totals = [r.newton_total for r in case1_studies[3.0]]
        assert all(t <= 80 for t in totals), totals
        diffs = [b - a for a, b in zip(totals, totals[1:])]
        assert not all(d > 0 for d in diffs), \
            f"totals grow monotonically: {totals}"
        report("3a (p=3 Newton totals)", f"totals {totals}")

    def test_p15_coarsest_band(self, case1_studies):
        first = case1_studies[1.5][0].newton_total
        assert 15 <= first <= 60, first
        report("3b (p=1.5 coarsest total)", f"total {first}")


class TestCriterion4AdaptiveTracking:
    def test_singular_corner_adaptivity(self):
        sigma, x0, p_target, theta = 0.97, (0.0, 0.0), 1.5, 0.5
        opts = SolverOptions()
        es = ExactSolution(p_target, sigma, x0)
        mesh = unit_square_mesh(16)
        records = []
        near_fractions = []
        n_steps = 13  # criterion needs >= 9; the final-4 window then sits
        # in the asymptotic regime where both curves reach the optimal rate
        for step in range(n_steps):
            trial = build_space(mesh, P1)
            test = build_space(mesh, CR)
            load_free = assemble_load(es, test, triangle_rule(10))
            boundary = mesh.vertices[trial.constrained_dofs]
            pattern = saddle_pattern(test, trial)

            def factory(p):
                return NonlinearForms(
                    p, trial, test, pattern, load_free,
                    ExactSolution(p, sigma, x0).value(boundary))

            state, itlog = continuation_solve(p_target, factory, opts)
            forms = factory(p_target)
            records.append((
                forms.trial.n_free + test.n_free,
                true_error(forms.trial, state.u, es.gradient,
                           triangle_rule(10), p_target),
                estimator_global(forms, state.r)))

            if step == n_steps - 1:
                break
            masses = local_indicators(forms, state.r)
            marked = dorfler_mark(masses, theta)
            refined = refine_marked(mesh, marked)
            child_count = np.bincount(refined.parent,
                                      minlength=mesh.n_triangles)
            bisected = np.nonzero(child_count > 1)[0]
            vertex_dist = np.linalg.norm(
                mesh.vertices[mesh.triangles[bisected]] - np.asarray(x0),
                axis=2).min(axis=1)
            near_fractions.append(float((vertex_dist <= 0.25).mean()))
            mesh = refined

        n_total = np.array([rec[0] for rec in records], dtype=float)
        err = np.array([rec[1] for rec in records])
        eta = np.array([rec[2] for rec in records])
        slope_err = float(np.polyfit(np.log(n_total[-4:]),
                                     np.log(err[-4:]), 1)[0])
        slope_eta = float(np.polyfit(np.log(n_total[-4:]),
                                     np.log(eta[-4:]), 1)[0])
        assert abs(slope_err - slope_eta) <= 0.15, (slope_err, slope_eta)
        for k, frac in enumerate(near_fractions[:4]):
            assert frac >= 0.60, \
                f"step {k}: only {frac:.0%} of bisected elements near corner"
        report("4 (Case 2 adaptive tracking)",
               f"slope gap {abs(slope_err - slope_eta):.3f}, "
               f"localization {['%.2f' % f for f in near_fractions[:4]]}")


class TestCriterion5PropertySuite:
    def test_strict_monotonicity(self):
        rng = np.random.default_rng(100)
        mesh = unit_square_mesh(3)
        trial = build_space(mesh, P1)
        test = build_space(mesh, CR)
        pattern = saddle_pattern(test, trial)
        load_free = np.zeros(test.n_free)
        boundary = np.zeros(trial.constrained_dofs.size)
        checked = 0
        for p in (1.3, 1.5, 2.0, 2.5, 3.0):
            forms = NonlinearForms(p, trial, test, pattern, load_free,
                                   boundary)
            for _ in range(100):
                u = np.zeros(trial.n_total)
                w = np.zeros(trial.n_total)
                u[trial.free_dofs] = rng.standard_normal(trial.n_free)
                w[trial.free_dofs] = rng.standard_normal(trial.n_free)
                diff = embed_p1_in_cr(mesh, u - w)[test.free_dofs]
                g_u = all_element_gradients(trial, u)
                g_w = all_element_gradients(trial, w)
                pairing = float((action(apply_plaplacian, forms, g_u)
                                 - action(apply_plaplacian, forms, g_w)) @ diff)
                assert pairing > 0.0
                checked += 1
        report("5a (strict monotonicity)", f"{checked} random pairs positive")

    def test_duality_identity_and_homogeneity(self):
        rng = np.random.default_rng(101)
        mesh = unit_square_mesh(3)
        trial = build_space(mesh, P1)
        test = build_space(mesh, CR)
        pattern = saddle_pattern(test, trial)
        load_free = np.zeros(test.n_free)
        boundary = np.zeros(trial.constrained_dofs.size)
        exponents = (1.5, 2.0, 3.0)
        for k in range(100):
            p = exponents[k % len(exponents)]
            forms = NonlinearForms(p, trial, test, pattern, load_free,
                                   boundary)
            r = np.zeros(test.n_total)
            r[test.free_dofs] = rng.standard_normal(test.n_free)
            g_r = all_element_gradients(test, r)
            pairing = float(action(apply_duality_map, forms, g_r)
                            @ r[test.free_dofs])
            norm_p = broken_seminorm(test, g_r, p) ** p
            assert abs(pairing - norm_p) <= 1e-11 * norm_p
            lam = rng.uniform(-3.0, 3.0)
            if abs(lam) < 0.1:
                lam = 0.5
            left = action(apply_duality_map, forms,
                          all_element_gradients(test, lam * r))
            right = (lam * abs(lam) ** (p - 2.0)
                     * action(apply_duality_map, forms, g_r))
            assert np.abs(left - right).max() <= 1e-12 * np.abs(right).max()
        report("5b (duality identity + homogeneity)",
               "100 instances at rel 1e-11 / 1e-12")

    def test_fortin_orthogonality(self):
        rng = np.random.default_rng(102)
        mesh = unit_square_mesh(4)
        trial = build_space(mesh, P1)
        rule = triangle_rule(12)
        pts = rule.physical_points(mesh.vertices[mesh.triangles])  # (nt, nq, 2)
        exponents = (1.5, 2.0, 2.5, 3.0)
        worst = 0.0
        for k in range(100):
            p = exponents[k % len(exponents)]
            a, b = rng.uniform(0.5, 3.0, size=2)
            c = rng.uniform(0.0, 2 * np.pi)

            def v(x, y):
                return np.sin(a * x + b * y + c)

            def grad_v(points):
                phase = a * points[..., 0] + b * points[..., 1] + c
                return np.stack([a * np.cos(phase), b * np.cos(phase)],
                                axis=-1)

            w = np.zeros(trial.n_total)
            w[trial.free_dofs] = rng.standard_normal(trial.n_free)
            g = all_element_gradients(trial, w)
            s = np.linalg.norm(g, axis=1)
            weight = np.zeros_like(s)
            nz = s > 0
            weight[nz] = s[nz] ** (p - 2.0)
            flux = weight[:, None] * g

            # exact mean gradient of v per element via volume quadrature
            gv = grad_v(pts)
            mean_grad_v = 2.0 * mesh.areas[:, None] * np.einsum(
                "q,tqd->td", rule.weights, gv)
            # mean gradient of the CR interpolant
            pi_v = np.zeros(mesh.n_edges)
            mean = gauss_edge_mean(v, n_points=8)
            ev = mesh.vertices[mesh.edges]
            for e in range(mesh.n_edges):
                pi_v[e] = mean(ev[e, 0], ev[e, 1])
            g_pi = np.einsum("ti,tid->td", pi_v[mesh.triangle_edges],
                             -2.0 * mesh.grad_lambda)
            mean_grad_pi = mesh.areas[:, None] * g_pi

            pairing = float(np.einsum(
                "td,td->", flux, mean_grad_v - mean_grad_pi))
            worst = max(worst, abs(pairing))
            assert abs(pairing) <= 1e-11
        report("5c (Fortin orthogonality)",
               f"100 instances, worst pairing {worst:.2e}")

    @pytest.mark.parametrize("p", [1.5, 2.7])
    def test_jacobians_match_finite_differences(self, p):
        rng = np.random.default_rng(103)
        mesh = unit_square_mesh(3)
        trial = build_space(mesh, P1)
        test = build_space(mesh, CR)
        forms = NonlinearForms(p, trial, test, saddle_pattern(test, trial),
                               np.zeros(test.n_free),
                               np.zeros(trial.constrained_dofs.size))
        h = 1e-5
        base_u = p1_interpolate(mesh, lambda x, y: x + 0.6 * y)
        base_r = embed_p1_in_cr(mesh, p1_interpolate(
            mesh, lambda x, y: 2.0 * x + 3.0 * y))
        for _ in range(50):
            u = base_u + 0.05 * rng.standard_normal(trial.n_total)
            delta = rng.standard_normal(trial.n_free)
            B = operator_jacobian_matrix(forms, u)
            up, um = u.copy(), u.copy()
            up[trial.free_dofs] += h * delta
            um[trial.free_dofs] -= h * delta
            fd = (action(apply_plaplacian, forms, all_element_gradients(trial, up))
                  - action(apply_plaplacian, forms, all_element_gradients(trial, um))
                  ) / (2 * h)
            Bd = B @ delta
            assert np.linalg.norm(fd - Bd) <= 1e-6 * np.linalg.norm(Bd)

            r = base_r + 0.05 * rng.standard_normal(test.n_total)
            rho = rng.standard_normal(test.n_free)
            G = duality_jacobian_matrix(forms, r)
            rp, rm = r.copy(), r.copy()
            rp[test.free_dofs] += h * rho
            rm[test.free_dofs] -= h * rho
            fd = (action(apply_duality_map, forms, all_element_gradients(test, rp))
                  - action(apply_duality_map, forms, all_element_gradients(test, rm))
                  ) / (2 * h)
            Gd = G @ rho
            assert np.linalg.norm(fd - Gd) <= 1e-6 * np.linalg.norm(Gd)
        report(f"5d (Jacobian FD check, p={p})",
               "50 instances per operator at rel 1e-6")

    def test_manufactured_solution_consistency(self):
        rng = np.random.default_rng(104)
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

        worst = 0.0
        for _ in range(20):
            r = rng.uniform(0.1, 0.9)
            th = rng.uniform(0.05, np.pi / 2 - 0.05)
            x = np.array([r * np.cos(th), r * np.sin(th)])
            want = float(es.source(x))
            rel = abs(-divergence(x) - want) / want
            worst = max(worst, rel)
            assert rel <= 1e-8
        report("5e (manufactured consistency)",
               f"20 points, worst rel {worst:.2e}")


class TestCriterion6MeshInvariants:
    def test_uniform_refinement_chain(self):
        mesh = unit_square_mesh(1)
        angle0 = min_angle(mesh)
        for k in range(6):
            mesh = refine_uniform(mesh)
            assert check_mesh(mesh) == []
        assert mesh.n_triangles == 2 * 4 ** 6
        assert min_angle(mesh) >= angle0 - 1e-12  # red keeps similarity
        report("6a (uniform chain)",
               f"6 refinements to {mesh.n_triangles} triangles, all checks")

    def test_random_bisection_rounds(self):
        rng = np.random.default_rng(105)
        mesh = unit_square_mesh(2)
        angle0 = min_angle(mesh)
        for round_idx in range(200):
            k = int(rng.integers(1, 4))
            marked = rng.choice(mesh.n_triangles, size=k, replace=False)
            mesh = refine_marked(mesh, marked)
            problems = check_mesh(mesh)
            assert problems == [], f"round {round_idx}: {problems}"
            assert min_angle(mesh) >= 0.5 * angle0 - 1e-12
        report("6b (200 bisection rounds)",
               f"final mesh {mesh.n_triangles} triangles, min angle "
               f"{min_angle(mesh):.3f} >= {0.5 * angle0:.3f}")
