import json
import threading
from dataclasses import asdict, replace

import numpy as np
import pytest

from plapminres import cli, driver, newton
from plapminres.driver import ProblemConfig, pre_adapt_mesh, run_study, transfer_state
from plapminres.estimate import ExactSolution, estimator_global, true_error
from plapminres.forms import assemble_load
from plapminres.mesh import mesh_size, refine_marked, refine_uniform, unit_square_mesh
from plapminres.newton import ContinuationError, DiscreteState, SolverOptions
from plapminres.spaces import (
    CR,
    P1,
    all_element_gradients,
    build_space,
    triangle_rule,
)
from tests.oracles import embed_p1_in_cr, p1_interpolate, p1_poisson_galerkin


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ProblemConfig(p_target=1.0)
        with pytest.raises(ValueError):
            ProblemConfig(p_target=2.0, sigma=2.5)
        with pytest.raises(ValueError):
            ProblemConfig(p_target=2.0, theta=0.0)
        with pytest.raises(ValueError):
            ProblemConfig(p_target=2.0, strategy="fancy")
        with pytest.raises(ValueError):
            ProblemConfig(p_target=2.0, max_levels=0)


class TestSingleLevel:
    def test_p2_level_matches_galerkin_error(self):
        cfg = ProblemConfig(p_target=2.0, initial_n=4, max_levels=1)
        records = run_study(cfg)
        assert len(records) == 1

        mesh = unit_square_mesh(4)
        test = build_space(mesh, CR)
        es = ExactSolution(2.0, cfg.sigma, cfg.x0)
        load_free = assemble_load(es, test, triangle_rule(10))
        trial = build_space(mesh, P1)
        boundary = es.value(mesh.vertices[trial.constrained_dofs])
        u_ref = p1_poisson_galerkin(mesh, boundary, load_free, test)
        err_ref = true_error(trial, u_ref, es.gradient, triangle_rule(10), 2.0)
        assert records[0].error == pytest.approx(err_ref, rel=1e-10)


class TestTransferState:
    def test_uniform_prolongation_is_exact(self):
        rng = np.random.default_rng(0)
        coarse = unit_square_mesh(2)
        fine = refine_uniform(coarse)
        old_trial = build_space(coarse, P1)
        old_test = build_space(coarse, CR)
        new_trial = build_space(fine, P1)
        new_test = build_space(fine, CR)
        u = rng.standard_normal(old_trial.n_total)
        state = DiscreteState(u, np.zeros(old_test.n_total))
        moved = transfer_state(state, old_trial, old_test, new_trial, new_test)
        g_old = all_element_gradients(old_trial, u)
        g_new = all_element_gradients(new_trial, moved.u)
        assert np.abs(g_new - g_old[fine.parent]).max() <= 1e-13

    def test_zero_state_stays_zero(self):
        coarse = unit_square_mesh(2)
        fine = refine_marked(coarse, [0, 3])
        old_trial = build_space(coarse, P1)
        old_test = build_space(coarse, CR)
        state = DiscreteState(np.zeros(old_trial.n_total),
                              np.zeros(old_test.n_total))
        moved = transfer_state(state, old_trial, old_test,
                               build_space(fine, P1), build_space(fine, CR))
        assert np.array_equal(moved.u, np.zeros(fine.n_vertices))
        assert np.array_equal(moved.r, np.zeros(fine.n_edges))

    def test_cr_transfer_reproduces_embedded_p1(self):
        # a P1 function seen as a CR function transfers exactly under
        # uniform refinement (the broken function is globally linear in
        # every parent element)
        coarse = unit_square_mesh(2)
        fine = refine_uniform(coarse)
        old_trial = build_space(coarse, P1)
        old_test = build_space(coarse, CR)
        u = p1_interpolate(coarse, lambda x, y: 2 * x - y + 0.3)
        r = embed_p1_in_cr(coarse, u)
        state = DiscreteState(u, r)
        new_test = build_space(fine, CR)
        moved = transfer_state(state, old_trial, old_test,
                               build_space(fine, P1), new_test)
        want = embed_p1_in_cr(fine, p1_interpolate(
            fine, lambda x, y: 2 * x - y + 0.3))
        free = new_test.free_dofs
        assert np.abs(moved.r[free] - want[free]).max() <= 1e-13

    def test_missing_genealogy_raises(self):
        rng = np.random.default_rng(1)
        coarse = unit_square_mesh(2)
        other = unit_square_mesh(4)  # fresh mesh, no genealogy
        old_trial = build_space(coarse, P1)
        old_test = build_space(coarse, CR)
        state = DiscreteState(rng.standard_normal(old_trial.n_total),
                              np.zeros(old_test.n_total))
        with pytest.raises(ValueError, match="genealogy"):
            transfer_state(state, old_trial, old_test,
                           build_space(other, P1), build_space(other, CR))


class TestLineSearchInvariant:
    def test_aborted_level_never_increases_residual(self):
        # Case 1 at p = 1.2 aborts on this mesh after many line searches
        # ran out of halvings; none of them may accept a worse iterate
        with pytest.raises(ContinuationError) as info:
            driver._solve_level(ProblemConfig(p_target=1.2),
                                refine_uniform(unit_square_mesh(2)))
        records = info.value.log.records
        assert any(h.get("error") == "line search exhausted"
                   for rec in records for h in rec.history)
        for rec in records:
            residuals = [h["residual"] for h in rec.history if "residual" in h]
            assert all(b <= a for a, b in zip(residuals, residuals[1:]))


class TestLevelSetup:
    @pytest.mark.parametrize("warm_start", ["off", "direct"])
    def test_two_spaces_per_level(self, monkeypatch, warm_start):
        real = driver.build_space
        built = []

        def counted(mesh, *args):
            built.append(mesh)
            return real(mesh, *args)

        monkeypatch.setattr(driver, "build_space", counted)
        records = run_study(ProblemConfig(p_target=3.0, max_levels=3,
                                          warm_start=warm_start))
        assert len(records) == 3
        assert len(built) == 2 * 3
        assert len({id(mesh) for mesh in built}) == 3

    @pytest.mark.parametrize("x0", [(-1.0, -1.0), (0.0, 0.0)])
    def test_dirichlet_values_match_pointwise_evaluation(self, x0):
        # one vectorized evaluation over the boundary vertices; the array
        # power may differ from the scalar one by one ulp of r**q, and the
        # rest of the formula rounds alike
        mesh = refine_uniform(unit_square_mesh(4))
        trial = build_space(mesh, P1)
        test = build_space(mesh, CR)
        factory = driver._forms_factory(trial, test, np.zeros(test.n_free),
                                        ExactSolution(3.0, 0.97, x0))
        points = mesh.vertices[trial.constrained_dofs]
        for p in (1.5, 2.0, 2.7, 3.0):
            es = ExactSolution(p, 0.97, x0)
            values = factory(p).dirichlet_values
            assert values.shape == (len(points),)
            for value, point in zip(values, points):
                power = (np.linalg.norm(point - np.asarray(x0))
                         ** es.radial_exponent)
                allowed = {float(es.value(point))} | {
                    es.amplitude * (1.0 - np.nextafter(power, side))
                    for side in (-np.inf, np.inf)}
                assert value in allowed


class TestStudies:
    def test_uniform_study_decreasing_error_and_eta(self):
        cfg = ProblemConfig(p_target=1.5, max_levels=3)
        records = run_study(cfg)
        assert len(records) == 3
        errors = [r.error for r in records]
        etas = [r.eta for r in records]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert all(b < a for a, b in zip(etas, etas[1:]))
        # uniform refinement quadruples n_total asymptotically
        assert records[2].n_total > 3.5 * records[1].n_total
        # both effectivity ratios stay bounded (no target constant asserted)
        for rec in records:
            assert 0.01 < rec.eta_over_error < 100.0
            assert 0.01 < rec.eta_root_over_error < 100.0

    def test_case2_uniform_estimator_underestimates_decay(self):
        # with the corner-singular load and purely uniform refinement the
        # estimator decays at a visibly shallower rate than the true error
        from plapminres.estimate import fit_rate

        cfg = ProblemConfig(p_target=1.5, x0=(0.0, 0.0), strategy="uniform",
                            max_levels=5)
        records = run_study(cfg)
        slope_err = fit_rate(records, "error", 3)
        slope_eta = fit_rate(records, "eta", 3)
        assert slope_eta > slope_err + 0.05

    def test_adaptive_study_increasing_ndofs(self):
        cfg = ProblemConfig(p_target=1.5, x0=(0.0, 0.0), initial_n=8,
                            strategy="adaptive", max_levels=4)
        records = run_study(cfg)
        assert len(records) == 4
        totals = [r.n_total for r in records]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_records_reproducible(self):
        cfg = ProblemConfig(p_target=1.5, max_levels=2)
        a = run_study(cfg)
        b = run_study(cfg)
        for ra, rb in zip(a, b):
            da = {k: v for k, v in vars(ra).items() if k != "wall_ms"}
            db = {k: v for k, v in vars(rb).items() if k != "wall_ms"}
            assert da == db

    def test_warm_start_does_not_cost_more_iterations(self):
        cold = ProblemConfig(p_target=3.0, max_levels=3)
        warm = ProblemConfig(p_target=3.0, max_levels=3, warm_start="direct")
        cold_records = run_study(cold)
        warm_records = run_study(warm)
        assert warm_records[-1].newton_total <= cold_records[-1].newton_total
        # the solutions agree regardless of the solve path
        assert warm_records[-1].error == pytest.approx(
            cold_records[-1].error, rel=1e-6)

    def test_failed_warm_start_is_counted(self, tmp_path, monkeypatch):
        real = newton.newton_solve
        executed = []

        def counted(forms, state, opts):
            result = real(forms, state, opts)
            executed.append(result)
            return result

        def failing(forms, state, opts):
            # one iteration cannot reach the tolerance at p = 3
            return counted(forms, state, replace(opts, max_newton=1))

        monkeypatch.setattr(newton, "newton_solve", counted)
        monkeypatch.setattr(driver, "newton_solve", failing)
        out = tmp_path / "study"
        records = run_study(ProblemConfig(p_target=3.0, max_levels=2,
                                          warm_start="direct",
                                          output_dir=str(out)))
        assert len(records) == 2
        warm = [res for res in executed if res.p == 3.0 and
                res.iterations == 1 and not res.converged]
        assert len(warm) == 1
        telem = [json.loads(line) for line in
                 (out / "telemetry.jsonl").read_text().splitlines()]
        first = next(t for t in telem if t["level"] == 1)
        assert (first["p"], first["iterations"], first["converged"]) == (
            3.0, 1, False)
        rows = (out / "records.csv").read_text().splitlines()[1:]
        for level, row in enumerate(rows):
            newton_total = int(row.split(",")[9])
            assert newton_total == sum(t["iterations"] for t in telem
                                       if t["level"] == level)
        assert sum(r.newton_total for r in records) == sum(
            res.iterations for res in executed)

    def test_aborted_level_keeps_its_failed_warm_start(self, tmp_path,
                                                       monkeypatch):
        real = driver.continuation_solve

        def failing_warm_start(forms, state, opts):
            return newton.newton_solve(forms, state,
                                       replace(opts, max_newton=1))

        def abort_on_level_1(p_target, factory, opts):
            if factory(p_target).trial.mesh.n_triangles > 8:
                raise ContinuationError("step underflow (injected)",
                                        newton.IterationLog())
            return real(p_target, factory, opts)

        monkeypatch.setattr(driver, "newton_solve", failing_warm_start)
        monkeypatch.setattr(driver, "continuation_solve", abort_on_level_1)
        out = tmp_path / "study"
        records = run_study(ProblemConfig(p_target=3.0, max_levels=2,
                                          warm_start="direct",
                                          output_dir=str(out)))
        assert len(records) == 1
        telem = [json.loads(line) for line in
                 (out / "telemetry.jsonl").read_text().splitlines()]
        assert [(t["p"], t["iterations"], t["converged"]) for t in telem
                if t["level"] == 1] == [(3.0, 1, False)]

    def test_abort_returns_partial_records(self, tmp_path):
        out = tmp_path / "study"
        cfg = ProblemConfig(p_target=3.0, max_levels=2,
                            solver=SolverOptions(max_newton=1),
                            output_dir=str(out))
        records = run_study(cfg)
        assert records == []
        # the aborted level's solves are in the telemetry: the linear stage
        # converges in one iteration, the halved attempts toward p = 3 fail
        telem = [json.loads(line) for line in
                 (out / "telemetry.jsonl").read_text().splitlines()]
        assert len(telem) > 1
        assert {t["level"] for t in telem} == {0}
        assert (telem[0]["p"], telem[0]["converged"]) == (2.0, True)
        assert telem[-1]["converged"] is False

    def test_pre_adaptation_refines_near_corner(self, monkeypatch):
        monkeypatch.setattr(driver, "PRE_ADAPT_STEPS", 4)
        cfg = ProblemConfig(p_target=1.5, x0=(0.0, 0.0), initial_n=8,
                            strategy="pre_adapted_then_uniform", max_levels=1)
        mesh = pre_adapt_mesh(cfg, unit_square_mesh(cfg.initial_n))
        assert mesh.n_triangles > 128
        # smallest elements concentrate at the singular corner
        centroids = mesh.vertices[mesh.triangles].mean(axis=1)
        near = np.linalg.norm(centroids, axis=1) < 0.2
        assert mesh.areas[near].min() < mesh.areas[~near].min()

    def test_artifacts_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(driver, "SNAPSHOT_LEVELS", (0, 2))
        out = tmp_path / "study"
        cfg = ProblemConfig(p_target=1.5, x0=(0.0, 0.0), initial_n=4,
                            strategy="adaptive", max_levels=3,
                            output_dir=str(out))
        records = run_study(cfg)
        csv_lines = (out / "records.csv").read_text().splitlines()
        assert len(csv_lines) == len(records) + 1
        telem = [json.loads(l) for l in
                 (out / "telemetry.jsonl").read_text().splitlines()]
        assert telem[0]["p"] == 2.0
        meta = json.loads((out / "metadata.json").read_text())
        assert "ndof_convention" in meta
        assert (out / "mesh_step_0.svg").exists()
        assert (out / "mesh_step_2.svg").exists()


def _without_wall_ms(csv_text: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


def _level_by_level(cfg, mesh):
    """Records (without ``wall_ms``) and telemetry lines of ``cfg``'s
    uniform ladder from ``mesh``, solved one level after the other."""
    es = ExactSolution(cfg.p_target, cfg.sigma, cfg.x0)
    rule = triangle_rule(driver.QUAD_DEGREE)
    rows, lines = [], []
    for level in range(cfg.max_levels):
        forms, state, itlog = driver._solve_level(cfg, mesh)
        error = true_error(forms.trial, state.u, es.gradient, rule,
                           cfg.p_target)
        eta = estimator_global(forms, state.r)
        rows.append(dict(
            level=level, n_free_trial=forms.trial.n_free,
            n_free_test=forms.test.n_free,
            n_total=forms.trial.n_free + forms.test.n_free,
            h_max=mesh_size(mesh), error=error, eta=eta,
            eta_over_error=eta / error,
            eta_root_over_error=eta ** (1.0 / (cfg.p_target - 1.0)) / error,
            newton_total=itlog.total_iterations,
            damping_events=itlog.total_damping_events))
        lines += [rec.as_json(level=level) for rec in itlog.records]
        mesh = refine_uniform(mesh)
    return rows, lines


class TestIndependentLevels:
    """Cold-start uniform levels overlap on a helper thread."""

    @pytest.mark.parametrize("cfg", [
        ProblemConfig(p_target=3.0, max_levels=4),
        ProblemConfig(p_target=1.5, x0=(0.0, 0.0), initial_n=4,
                      strategy="pre_adapted_then_uniform", max_levels=3),
    ], ids=["uniform_p3", "pre_adapted_p1.5"])
    def test_equals_level_by_level_solves(self, tmp_path, monkeypatch, cfg):
        monkeypatch.setattr(driver, "PRE_ADAPT_STEPS", 2)
        real = driver.saddle_pattern
        meshes = []

        def counted(test, trial):
            meshes.append(test.mesh)
            return real(test, trial)

        monkeypatch.setattr(driver, "saddle_pattern", counted)
        out = tmp_path / "study"
        records = run_study(replace(cfg, output_dir=str(out)))
        # one pattern per mesh; the pre-adaptation solves add their own
        n_pre = (driver.PRE_ADAPT_STEPS
                 if cfg.strategy == "pre_adapted_then_uniform" else 0)
        assert len(meshes) == cfg.max_levels + n_pre
        assert len({id(mesh) for mesh in meshes}) == len(meshes)

        start = unit_square_mesh(cfg.initial_n)
        if cfg.strategy == "pre_adapted_then_uniform":
            start = pre_adapt_mesh(cfg, start)
        rows, lines = _level_by_level(cfg, start)
        assert [{k: v for k, v in asdict(rec).items() if k != "wall_ms"}
                for rec in records] == rows
        assert (out / "telemetry.jsonl").read_text() == "".join(
            line + "\n" for line in lines)

    def test_coarser_levels_run_on_the_calling_thread(self, monkeypatch):
        real_solve = driver.continuation_solve
        real_pool = driver.ThreadPoolExecutor
        solved_on = []
        pools = []

        def recorded(p_target, factory, opts):
            solved_on.append((factory(p_target).trial.mesh.n_triangles,
                              threading.current_thread()))
            return real_solve(p_target, factory, opts)

        def pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(driver, "continuation_solve", recorded)
        monkeypatch.setattr(driver, "ThreadPoolExecutor", pool)
        cfg = ProblemConfig(p_target=3.0, max_levels=3)
        threads = threading.active_count()
        run_study(cfg)
        assert threading.active_count() == threads
        assert pools == [1]
        triangles, solvers = zip(*sorted(solved_on, key=lambda s: s[0]))
        assert list(triangles) == [2 * cfg.initial_n ** 2 * 4 ** level
                                   for level in range(cfg.max_levels)]
        *coarser, finest = solvers
        assert all(t is threading.current_thread() for t in coarser)
        assert finest is not threading.current_thread()
        assert not finest.is_alive()

    @pytest.mark.parametrize("failing", [0, 1, 2],
                             ids=["coarsest", "level_1", "finest"])
    def test_failure_keeps_the_levels_before_it(self, tmp_path, monkeypatch,
                                                failing):
        real = driver.continuation_solve
        cfg = ProblemConfig(p_target=3.0, max_levels=3)
        failing_triangles = 2 * cfg.initial_n ** 2 * 4 ** failing

        def fail_on_one_mesh(p_target, factory, opts):
            if factory(p_target).trial.mesh.n_triangles == failing_triangles:
                raise ContinuationError("step underflow (injected)",
                                        newton.IterationLog())
            return real(p_target, factory, opts)

        monkeypatch.setattr(driver, "continuation_solve", fail_on_one_mesh)
        threads = threading.active_count()
        out = tmp_path / "study"
        records = run_study(replace(cfg, output_dir=str(out)))
        assert threading.active_count() == threads

        assert [rec.level for rec in records] == list(range(failing))
        rows = (out / "records.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(failing))
        telemetry = [json.loads(line) for line in
                     (out / "telemetry.jsonl").read_text().splitlines()]
        assert {t["level"] for t in telemetry} == set(range(failing))
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["diagnostic"].startswith(f"level {failing}: ")

    @pytest.mark.parametrize("cfg,error,args,diagnostic", [
        pytest.param(ProblemConfig(p_target=3.0, max_levels=3), RuntimeError,
                     ("injected",), "level 1: RuntimeError: injected",
                     id="uniform"),
        pytest.param(ProblemConfig(p_target=1.5, x0=(0.0, 0.0), initial_n=4,
                                   strategy="adaptive", max_levels=2),
                     RuntimeError, ("injected",),
                     "level 1: RuntimeError: injected", id="adaptive"),
        pytest.param(ProblemConfig(p_target=3.0, max_levels=3),
                     KeyboardInterrupt, (), "level 1: KeyboardInterrupt",
                     id="uniform-KeyboardInterrupt"),
        pytest.param(ProblemConfig(p_target=3.0, max_levels=3), MemoryError,
                     ("Unable to allocate 1.00 GiB",),
                     "level 1: MemoryError: Unable to allocate 1.00 GiB",
                     id="uniform-MemoryError"),
    ])
    def test_other_errors_propagate(self, tmp_path, monkeypatch, cfg, error,
                                    args, diagnostic):
        reference = tmp_path / "reference"
        run_study(replace(cfg, max_levels=1, output_dir=str(reference)))
        real = driver.continuation_solve
        coarsest = 2 * cfg.initial_n ** 2  # triangles of level 0

        def fail_on_level_1(p_target, factory, opts):
            # one refinement step at most quadruples the triangles
            n = factory(p_target).trial.mesh.n_triangles
            if coarsest < n <= 4 * coarsest:
                raise error(*args)
            return real(p_target, factory, opts)

        monkeypatch.setattr(driver, "continuation_solve", fail_on_level_1)
        threads = threading.active_count()
        out = tmp_path / "study"
        with pytest.raises(error):
            run_study(replace(cfg, output_dir=str(out)))
        assert threading.active_count() == threads
        # level 0 is kept as an uninterrupted run writes it
        assert _without_wall_ms((out / "records.csv").read_text()) == (
            _without_wall_ms((reference / "records.csv").read_text()))
        assert (out / "telemetry.jsonl").read_text() == (
            reference / "telemetry.jsonl").read_text()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["diagnostic"] == diagnostic

    def test_refinement_out_of_memory_keeps_the_built_levels(
            self, tmp_path, monkeypatch, capsys):
        real = driver.refine_uniform
        calls = []

        def third_call_fails(mesh):
            calls.append(mesh)
            if len(calls) == 3:
                raise MemoryError
            return real(mesh)

        monkeypatch.setattr(driver, "refine_uniform", third_call_fails)
        cfg = ProblemConfig(p_target=3.0, max_levels=5)
        threads = threading.active_count()
        out = tmp_path / "study"
        with pytest.raises(MemoryError):
            run_study(replace(cfg, output_dir=str(out)))
        assert threading.active_count() == threads
        rows = (out / "records.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [0, 1, 2]
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["diagnostic"] == "level 3: MemoryError"

        calls.clear()
        capsys.readouterr()
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"p_target": 3.0, "max_levels": 5}))
        assert cli.main(["run", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    def test_coarsest_abort_stops_the_helper(self, monkeypatch):
        cfg = ProblemConfig(p_target=3.0, max_levels=4)
        coarsest = 2 * cfg.initial_n ** 2
        finest = coarsest * 4 ** (cfg.max_levels - 1)
        real_factory = driver._forms_factory
        real_solve = driver.continuation_solve
        asked = []  # the exponents asked of the finest level's factory

        def counting(trial, test, load_free, problem, stop=None):
            factory = real_factory(trial, test, load_free, problem, stop)

            def counted(p):
                if trial.mesh.n_triangles == finest:
                    asked.append(p)
                return factory(p)
            return counted

        def abort_coarsest(p_target, factory, opts):
            if factory(p_target).trial.mesh.n_triangles == coarsest:
                raise ContinuationError("step underflow (injected)",
                                        newton.IterationLog())
            return real_solve(p_target, factory, opts)

        monkeypatch.setattr(driver, "_forms_factory", counting)
        assert len(run_study(cfg)) == cfg.max_levels
        uninterrupted = len(asked)
        asked.clear()
        monkeypatch.setattr(driver, "continuation_solve", abort_coarsest)
        threads = threading.active_count()
        assert run_study(cfg) == []
        assert threading.active_count() == threads
        assert len(asked) < uninterrupted

    def test_failure_in_the_record_loop_stops_the_workers(self, monkeypatch):
        def failing(mesh):
            raise OSError("no space left (injected)")

        monkeypatch.setattr(driver, "mesh_size", failing)
        threads = threading.active_count()
        # excinfo keeps the traceback, and so the study's frames, alive:
        # the helper must stop without waiting for them to be collected
        with pytest.raises(OSError, match="injected") as excinfo:
            run_study(ProblemConfig(p_target=3.0, max_levels=3))
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cfg", [
        ProblemConfig(p_target=1.5, x0=(0.0, 0.0), initial_n=4,
                      strategy="adaptive", max_levels=2),
        ProblemConfig(p_target=3.0, max_levels=2, warm_start="direct"),
        ProblemConfig(p_target=3.0, max_levels=1),
    ], ids=["adaptive", "warm_start", "one_level"])
    def test_dependent_levels_start_no_thread(self, monkeypatch, cfg):
        def refused(*args, **kwargs):
            raise AssertionError("a helper thread was requested")

        monkeypatch.setattr(driver, "ThreadPoolExecutor", refused)
        assert len(run_study(cfg)) == cfg.max_levels
