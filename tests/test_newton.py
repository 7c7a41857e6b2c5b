from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from plapminres import estimate, newton, spaces
from plapminres import forms as forms_module
from plapminres.estimate import ExactSolution
from plapminres.forms import (
    NonlinearForms,
    apply_duality_map,
    apply_jacobian_transpose,
    apply_plaplacian,
    assemble_load,
    assemble_operator_jacobian,
)
from plapminres.linsolve import saddle_pattern
from plapminres.mesh import refine_marked, unit_square_mesh
from plapminres.newton import (
    ContinuationError,
    DiscreteState,
    SolverOptions,
    cold_state,
    continuation_solve,
    newton_solve,
    nonlinear_residual,
)
from plapminres.spaces import (
    CR,
    P1,
    all_element_gradients,
    broken_seminorm,
    build_space,
    integrate_flux,
    triangle_rule,
)
from tests.oracles import (
    action,
    block_residual,
    duality_jacobian_matrix,
    operator_jacobian_matrix,
    p1_poisson_galerkin,
)

SIGMA = 0.97
X0 = (-1.0, -1.0)


def smooth_setup(n):
    mesh = unit_square_mesh(n)
    trial = build_space(mesh, P1)
    test = build_space(mesh, CR)
    load_free = assemble_load(ExactSolution(2.0, SIGMA, X0), test,
                              triangle_rule(10))
    boundary = mesh.vertices[trial.constrained_dofs]
    pattern = saddle_pattern(test, trial)

    def factory(p):
        return NonlinearForms(p, trial, test, pattern, load_free,
                              ExactSolution(p, SIGMA, X0).value(boundary))

    return mesh, test, load_free, factory


class TestNonlinearResidual:
    def test_zero_everything(self):
        mesh = unit_square_mesh(2)
        test = build_space(mesh, CR)
        trial = build_space(mesh, P1)
        forms = NonlinearForms(2.5, trial, test, saddle_pattern(test, trial),
                               np.zeros(test.n_free),
                               np.zeros(trial.constrained_dofs.size))
        state = DiscreteState(np.zeros(trial.n_total),
                              np.zeros(test.n_total))
        top, bottom, *_ = nonlinear_residual(forms, state)
        assert np.array_equal(top, np.zeros(test.n_free))
        assert np.array_equal(bottom, np.zeros(trial.n_free))

    def test_linear_case_construction(self):
        # u = Galerkin solution, r solves G r = F - N(u): both blocks vanish
        mesh, test, load_free, factory = smooth_setup(4)
        forms = factory(2.0)
        u = p1_poisson_galerkin(mesh, forms.dirichlet_values, load_free, test)
        G = duality_jacobian_matrix(forms, np.zeros(test.n_total))
        rhs = load_free - action(
            apply_plaplacian, forms, all_element_gradients(forms.trial, u))
        r = np.zeros(test.n_total)
        r[test.free_dofs] = spla.spsolve(G.tocsc(), rhs)
        top, bottom, *_ = nonlinear_residual(forms, DiscreteState(u, r))
        assert np.abs(top).max() <= 1e-9
        assert np.abs(bottom).max() <= 1e-9

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(0)
        mesh, test, load_free, factory = smooth_setup(3)
        forms = factory(2.3)
        u = rng.standard_normal(forms.trial.n_total)
        r = np.zeros(test.n_total)
        r[test.free_dofs] = rng.standard_normal(test.n_free)
        top, bottom, *_ = nonlinear_residual(forms, DiscreteState(u, r))
        g_u = all_element_gradients(forms.trial, u)
        g_r = all_element_gradients(test, r)
        # both actions tested at once, from the sum of their fluxes
        flux = apply_duality_map(forms, g_r) + apply_plaplacian(forms, g_u)
        assert np.array_equal(top, load_free - integrate_flux(test, flux))
        B = assemble_operator_jacobian(forms, g_u)
        assert np.array_equal(bottom,
                              -apply_jacobian_transpose(forms, B, g_r))
        # the sparse product sums per row of B, in another order
        bottom2 = -(operator_jacobian_matrix(forms, u).T @ r[test.free_dofs])
        assert np.abs(bottom - bottom2).max() <= 1e-14 * np.abs(bottom2).max()

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
    def test_matches_block_route(self, p, graded):
        rng = np.random.default_rng(1)
        mesh = unit_square_mesh(4)
        if graded:
            for _ in range(3):
                mesh = refine_marked(mesh, np.arange(0, mesh.n_triangles, 3))
        trial, test = build_space(mesh, P1), build_space(mesh, CR)
        forms = NonlinearForms(p, trial, test, saddle_pattern(test, trial),
                               rng.standard_normal(test.n_free),
                               rng.standard_normal(trial.constrained_dofs.size))
        u = rng.standard_normal(trial.n_total)
        r = np.zeros(test.n_total)
        r[test.free_dofs] = rng.standard_normal(test.n_free)
        top, bottom, *_ = nonlinear_residual(forms, DiscreteState(u, r))
        top2, bottom2, top_scale, bottom_scale = block_residual(
            forms, DiscreteState(u, r))
        assert np.abs(top - top2).max() <= 1e-13 * top_scale
        assert np.abs(bottom - bottom2).max() <= 1e-13 * bottom_scale


class TestNewtonSolve:
    def test_linear_case_single_iteration(self):
        _, _, _, factory = smooth_setup(3)
        forms = factory(2.0)
        result = newton_solve(forms, cold_state(forms), SolverOptions())
        assert result.converged
        assert result.iterations == 1

    def test_quadratic_contraction_near_solution(self):
        _, _, _, factory = smooth_setup(4)
        opts = SolverOptions(newton_tol=1e-13, max_newton=25)
        res2 = newton_solve(factory(2.0), cold_state(factory(2.0)), opts)
        forms = factory(2.1)
        result = newton_solve(forms, res2.state, opts)
        assert result.converged
        incs = [h["increment"] for h in result.history]
        checked = 0
        for a, b in zip(incs, incs[1:]):
            if a >= 1e-6:
                assert b <= 10.0 * a * a
                checked += 1
        assert checked >= 2

    def test_iteration_cap_returns_failure_with_state(self):
        # one step at p = 3 from the converged p = 2 state: from the cold
        # state the saddle matrix's condition number (about 5.6e10) puts the
        # 1e-10 linear certificate below the floating-point floor
        _, _, _, factory = smooth_setup(2)
        res2 = newton_solve(factory(2.0), cold_state(factory(2.0)),
                            SolverOptions())
        forms = factory(3.0)
        result = newton_solve(forms, res2.state, SolverOptions(max_newton=1))
        assert not result.converged
        assert result.iterations == 1
        assert np.all(np.isfinite(result.state.u))
        assert np.all(np.isfinite(result.state.r))

    def test_accepted_steps_do_not_increase_residual(self):
        _, _, _, factory = smooth_setup(3)
        forms = factory(1.5)
        res2 = newton_solve(factory(2.0), cold_state(factory(2.0)),
                            SolverOptions())
        result = newton_solve(forms, res2.state, SolverOptions(max_newton=30))
        assert result.converged
        residuals = [h["residual"] for h in result.history]
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a * (1.0 + 1e-12)


    def test_exhausted_line_search_ends_unconverged(self, monkeypatch):
        # every trial's residual norm is made larger than the start's, so
        # each halving is refused and the solve stops at its start state
        mesh = unit_square_mesh(3)
        test = build_space(mesh, CR)
        trial = build_space(mesh, P1)
        forms = NonlinearForms(2.5, trial, test, saddle_pattern(test, trial),
                               np.ones(test.n_free),
                               np.zeros(trial.constrained_dofs.size))
        start = cold_state(forms)  # zero Dirichlet data: nothing to clamp
        real = newton.nonlinear_residual
        norms = []

        def worse_trials(forms, state):
            res = real(forms, state)
            if norms:
                res = res._replace(norm=2.0 * norms[0] + 1.0)
            norms.append(res.norm)
            return res

        monkeypatch.setattr(newton, "nonlinear_residual", worse_trials)
        result = newton_solve(forms, start, SolverOptions())
        assert len(norms) == 1 + newton.MAX_BACKTRACKS + 1
        assert not result.converged
        assert result.iterations == 1 and result.damping_events == 1
        assert result.final_increment is None
        assert np.array_equal(result.state.u, start.u)
        assert np.array_equal(result.state.r, start.r)
        [entry] = result.history
        assert entry["error"] == "line search exhausted"
        assert "linear_residual" in entry and "residual" not in entry


class TestGradientReuse:
    def test_gradients_computed_once_per_trial(self, monkeypatch):
        # a residual evaluation computes the element gradients of u and r,
        # an iteration those of its two increments, and no form recomputes
        # them from coefficients
        mesh = unit_square_mesh(4)
        for _ in range(3):
            mesh = refine_marked(mesh, np.arange(0, mesh.n_triangles, 3))
        trial = build_space(mesh, P1)
        test = build_space(mesh, CR)
        problem = ExactSolution(1.5, SIGMA, (0.0, 0.0))
        load_free = assemble_load(problem, test, triangle_rule(10))
        boundary = problem.value(mesh.vertices[trial.constrained_dofs])
        forms = NonlinearForms(1.5, trial, test, saddle_pattern(test, trial),
                               load_free, boundary)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        gradients = counted("gradients", spaces.all_element_gradients)
        for module in (spaces, forms_module, estimate, newton):
            monkeypatch.setattr(module, "all_element_gradients", gradients)
        monkeypatch.setattr(newton, "nonlinear_residual", counted(
            "residuals", newton.nonlinear_residual))
        result = newton_solve(forms, cold_state(forms),
                              SolverOptions(max_newton=8))
        assert result.iterations >= 2
        assert calls["residuals"] > result.iterations
        assert (calls["gradients"]
                <= 2 * calls["residuals"] + 2 * result.iterations)


class TestContinuation:
    def test_target_two_is_single_linear_solve(self):
        _, _, _, factory = smooth_setup(2)
        _, log = continuation_solve(2.0, factory, SolverOptions())
        assert log.records[-1].p == 2.0
        assert len(log.records) == 1
        assert log.total_iterations == 1

    def test_p3_band_on_coarse_mesh(self):
        # ten 0.1-steps from the linear case at ~4-5 Newton iterations each
        _, _, _, factory = smooth_setup(2)
        _, log = continuation_solve(3.0, factory, SolverOptions())
        assert 30 <= log.total_iterations <= 80
        assert log.records[-1].p == 3.0

    def test_p15_band_on_coarse_mesh(self):
        # five 0.1-steps toward the singular regime
        _, _, _, factory = smooth_setup(2)
        state, log = continuation_solve(1.5, factory, SolverOptions())
        assert 15 <= log.total_iterations <= 60

    def test_monotone_exponent_path(self):
        _, _, _, factory = smooth_setup(2)
        _, log = continuation_solve(1.5, factory, SolverOptions())
        ps = [rec.p for rec in log.records]
        assert ps[0] == 2.0
        assert all(b < a for a, b in zip(ps, ps[1:]))
        assert ps[-1] == 1.5

    def test_accumulated_totals_match(self):
        _, _, _, factory = smooth_setup(2)
        _, log = continuation_solve(1.5, factory, SolverOptions())
        assert log.total_iterations == sum(r.iterations for r in log.records)

    def test_step_underflow_aborts_with_log(self):
        _, _, _, factory = smooth_setup(2)
        opts = SolverOptions(max_newton=1)
        with pytest.raises(ContinuationError) as info:
            continuation_solve(3.0, factory, opts)
        assert info.value.log.records[0].p == 2.0
        assert any(not rec.converged for rec in info.value.log.records)

    def test_rejects_bad_target(self):
        _, _, _, factory = smooth_setup(2)
        with pytest.raises(ValueError):
            continuation_solve(1.0, factory, SolverOptions())


class TestGalerkinEquivalence:
    def test_p2_minres_equals_galerkin(self):
        mesh, test, load_free, factory = smooth_setup(4)
        forms = factory(2.0)
        result = newton_solve(forms, cold_state(forms), SolverOptions())
        assert result.converged
        u_ref = p1_poisson_galerkin(mesh, forms.dirichlet_values, load_free,
                                    test)
        diff = result.state.u - u_ref
        trial = forms.trial
        rel = (broken_seminorm(trial, all_element_gradients(trial, diff), 2.0)
               / broken_seminorm(trial, all_element_gradients(trial, u_ref),
                                 2.0))
        assert rel <= 1e-8

    def test_telemetry_serializes(self):
        _, _, _, factory = smooth_setup(2)
        _, log = continuation_solve(1.5, factory, SolverOptions())
        lines = [rec.as_json() for rec in log.records]
        assert len(lines) == len(log.records)
        import json

        first = json.loads(lines[0])
        assert first["p"] == 2.0 and first["converged"]
        assert first["linear_fallbacks"] == 0
