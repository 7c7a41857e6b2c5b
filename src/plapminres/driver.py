"""Study orchestration: refinement loops, record collection, artifacts.

A study solves the benchmark problem on a ladder of meshes.  Three
refinement strategies are supported:

* ``uniform`` -- red refinement each level (convergence studies);
* ``adaptive`` -- Dörfler marking on the local residual indicators
  followed by conforming bisection;
* ``pre_adapted_then_uniform`` -- the initial mesh is first adapted by
  running the linear (p = 2) adaptive loop ``PRE_ADAPT_STEPS`` steps,
  then the study proceeds with uniform refinement.

Each level builds its P1 and CR spaces, the saddle pattern of its Newton
systems and its load once; its forms carry them, and only the Dirichlet
data follows the exponent.
Every level restarts the exponent continuation from p = 2 by default so
iteration counts are comparable across levels; state transfer onto the
refined mesh is available as an opt-in warm start.  A failed warm-start
attempt stays in the level's iteration log, so its Newton iterations are
counted before the continuation takes over.

Without a warm start, the levels of a uniform study are independent:
each solve depends on its own mesh alone.  The whole ladder is then
refined first; one helper thread solves the finest level while the
calling thread solves the coarser ones in order, and the results are
recorded in level order.  The solves themselves are deterministic, so
every output except ``wall_ms`` is the same as a serial run's.  Adaptive
and warm-start studies, where a level needs the previous level's
solution, run serially.
"""

from __future__ import annotations

import contextlib
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .estimate import (
    ExactSolution,
    StudyRecord,
    dorfler_mark,
    estimator_global,
    true_error,
)
from .forms import NonlinearForms, assemble_load, local_indicators
from .linsolve import saddle_pattern
from .mesh import Mesh, export_svg, mesh_size, refine_marked, refine_uniform, unit_square_mesh
from .newton import (
    ContinuationError,
    DiscreteState,
    IterationLog,
    SolverOptions,
    continuation_solve,
    is_finite_real,
    is_integer,
    newton_solve,
)
from .spaces import CR, P1, DofMap, all_element_gradients, build_space, triangle_rule

log = logging.getLogger(__name__)

STRATEGIES = ("uniform", "pre_adapted_then_uniform", "adaptive")
WARM_STARTS = ("off", "direct")
# degree of the triangle rule for the load and for the true error
QUAD_DEGREE = 10
# p = 2 adaptive steps before a pre-adapted study's uniform ladder
PRE_ADAPT_STEPS = 8
# the adaptive steps whose mesh is written as an SVG snapshot
SNAPSHOT_LEVELS = (0, 2, 6)


@dataclass
class ProblemConfig:
    """Declarative description of one study."""

    p_target: float
    sigma: float = 0.97
    x0: tuple[float, float] = (-1.0, -1.0)
    initial_n: int = 2
    strategy: str = "uniform"
    theta: float = 0.5
    max_levels: int = 6
    solver: SolverOptions = field(default_factory=SolverOptions)
    warm_start: str = "off"
    output_dir: str | None = None

    def __post_init__(self):
        if not (is_finite_real(self.p_target) and self.p_target > 1.0):
            raise ValueError("p_target must be a finite number > 1")
        if not (isinstance(self.x0, (tuple, list)) and len(self.x0) == 2
                and all(map(is_finite_real, self.x0))):
            raise ValueError("x0 must be two finite numbers")
        for name in ("initial_n", "max_levels"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        if not (is_finite_real(self.sigma) and self.sigma < 2.0):
            raise ValueError("sigma must be a finite number < 2")
        # the benchmark solution needs p > sigma at every exponent of the
        # continuation path, which runs from 2 to p_target
        if not self.sigma < self.p_target:
            raise ValueError("sigma must be < p_target")
        # r ** q peaks on the boundary at a corner; close to p = 1 it
        # overflows while the amplitude underflows, and the Dirichlet data
        # of the continuation's end points turns NaN
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with np.errstate(all="ignore"):
            values = [ExactSolution(p, self.sigma, self.x0).value(corners)
                      for p in (2.0, self.p_target)]
        if not np.all(np.isfinite(values)):
            raise ValueError(f"p_target = {self.p_target!r} makes the "
                             "benchmark solution non-finite on the boundary")
        if not (is_finite_real(self.theta) and 0.0 < self.theta <= 1.0):
            raise ValueError("theta must lie in (0, 1]")
        if not (self.output_dir is None or isinstance(self.output_dir, str)):
            raise ValueError("output_dir must be a string or null")
        for name in ("max_levels", "initial_n"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.warm_start not in WARM_STARTS:
            raise ValueError(f"warm_start must be one of {WARM_STARTS}")


def _forms_factory(trial: DofMap, test: DofMap, load_free: np.ndarray,
                   problem: ExactSolution):
    """Factory over the exponent on one level's spaces, pattern and load.

    Only the Dirichlet data follows the exponent: the benchmark ``problem``
    at that exponent, evaluated at the boundary vertices in one call.
    """
    pattern = saddle_pattern(test, trial)
    boundary_points = trial.mesh.vertices[trial.constrained_dofs]

    def factory(p: float) -> NonlinearForms:
        values = replace(problem, p=p).value(boundary_points)
        return NonlinearForms(p, trial, test, pattern, load_free, values)
    return factory


def _solve_level(cfg: ProblemConfig, mesh: Mesh,
                 previous: tuple[NonlinearForms, DiscreteState] | None = None
                 ) -> tuple[NonlinearForms, DiscreteState, IterationLog]:
    """Set up one level once and solve it at the target exponent.

    Returns the forms at ``cfg.p_target``, the final state and the
    level's iteration log.  ``previous`` is the coarser level's
    ``(forms, state)`` when warm-starting; its state is transferred onto
    this level's spaces and tried before the continuation.
    """
    trial = build_space(mesh, P1)
    test = build_space(mesh, CR)
    problem = ExactSolution(cfg.p_target, cfg.sigma, cfg.x0)
    load_free = assemble_load(problem, test, triangle_rule(QUAD_DEGREE))
    factory = _forms_factory(trial, test, load_free, problem)
    forms = factory(cfg.p_target)

    state = None
    itlog = IterationLog()
    if previous is not None:
        old_forms, old_state = previous
        warm_state = transfer_state(old_state, old_forms.trial,
                                    old_forms.test, trial, test)
        result = newton_solve(forms, warm_state, cfg.solver)
        itlog.records.append(result)
        if result.converged:
            state = result.state
        else:
            log.warning("warm start failed at p=%.3f; falling back to "
                        "continuation", cfg.p_target)
    if state is None:
        try:
            state, cont_log = continuation_solve(cfg.p_target, factory,
                                                 cfg.solver)
        except ContinuationError as exc:
            # the aborted level's telemetry keeps a failed warm start too
            exc.log.records[:0] = itlog.records
            raise
        itlog.records += cont_log.records
    return forms, state, itlog


def _refine_adaptively(mesh: Mesh, forms: NonlinearForms, r: np.ndarray,
                       theta: float) -> Mesh:
    """Dörfler marking and bisection; the same mesh when nothing is marked."""
    return refine_marked(mesh, dorfler_mark(local_indicators(forms, r), theta))


def pre_adapt_mesh(cfg: ProblemConfig, mesh: Mesh) -> Mesh:
    """Adapt the initial mesh with the linear p = 2 problem.

    Runs the estimator-driven loop at the linear exponent for
    ``PRE_ADAPT_STEPS`` steps, or until no element is marked, producing
    an initial mesh that resolves the data singularity before the main
    (uniform) study starts.
    """
    linear = replace(cfg, p_target=2.0)
    for _ in range(PRE_ADAPT_STEPS):
        forms, state, _ = _solve_level(linear, mesh)
        refined = _refine_adaptively(mesh, forms, state.r, cfg.theta)
        if refined is mesh:
            break
        mesh = refined
    return mesh


def _levels(cfg: ProblemConfig, mesh: Mesh, solve):
    """Yield the result of ``solve`` for each level of the study, in order.

    A level depends on the one before it through its marked mesh or its
    warm start; such levels are solved one after the other, and the next
    mesh is refined only when another level follows.  Otherwise the
    uniform ladder is refined first, one helper thread solves the finest
    level (the costliest) and the calling thread solves the coarser ones
    in order beside it.  A level's exception is raised when it is reached,
    so a failing coarser level counts first, as in a serial run.
    """
    if (cfg.strategy == "adaptive" or cfg.warm_start == "direct"
            or cfg.max_levels == 1):
        previous = None
        for level in range(cfg.max_levels):
            if level:
                if cfg.strategy == "adaptive":
                    mesh = _refine_adaptively(mesh, forms, state.r, cfg.theta)
                else:
                    mesh = refine_uniform(mesh)
                if cfg.warm_start == "direct":
                    previous = (forms, state)
            forms, state, *rest = solve(mesh, previous)
            yield forms, state, *rest
        return

    ladder = [mesh]
    for _ in range(cfg.max_levels - 1):
        ladder.append(refine_uniform(ladder[-1]))
    # leaving the block, however it is left, waits for the helper, so no
    # thread outlives the study
    with ThreadPoolExecutor(max_workers=1) as pool:
        finest = pool.submit(solve, ladder[-1])
        for coarser in ladder[:-1]:
            yield solve(coarser)
        yield finest.result()


def run_study(cfg: ProblemConfig) -> list[StudyRecord]:
    """Execute the configured study and return one record per level.

    A continuation abort terminates the study early: the records collected
    so far are returned and a diagnostic is logged (and written next to
    the other artifacts when an output directory is configured, with the
    aborted level's Newton solves in the telemetry).
    """
    mesh = unit_square_mesh(cfg.initial_n)
    if cfg.strategy == "pre_adapted_then_uniform":
        mesh = pre_adapt_mesh(cfg, mesh)

    out = _ArtifactWriter(cfg) if cfg.output_dir else None
    es_target = ExactSolution(cfg.p_target, cfg.sigma, cfg.x0)
    error_rule = triangle_rule(QUAD_DEGREE)

    def solve(mesh: Mesh, previous=None):
        t0 = time.perf_counter()
        forms, state, itlog = _solve_level(cfg, mesh, previous)
        error = true_error(forms.trial, state.u, es_target.gradient,
                           error_rule, cfg.p_target)
        eta = estimator_global(forms, state.r)
        wall_ms = 1e3 * (time.perf_counter() - t0)
        return forms, state, itlog, error, eta, wall_ms

    records: list[StudyRecord] = []
    diagnostic = None
    try:
        # closing: a failure in the loop body stops the coarser levels at
        # once and waits for the helper's level
        with contextlib.closing(_levels(cfg, mesh, solve)) as levels:
            for level, (forms, _, itlog, error, eta, wall_ms) in enumerate(
                    levels):
                mesh = forms.trial.mesh
                records.append(StudyRecord(
                    level=level,
                    n_free_trial=forms.trial.n_free,
                    n_free_test=forms.test.n_free,
                    n_total=forms.trial.n_free + forms.test.n_free,
                    h_max=mesh_size(mesh),
                    error=error,
                    eta=eta,
                    eta_over_error=eta / error if error > 0 else np.inf,
                    eta_root_over_error=(eta ** (1.0 / (cfg.p_target - 1.0))
                                         / error if error > 0 else np.inf),
                    newton_total=itlog.total_iterations,
                    damping_events=itlog.total_damping_events,
                    wall_ms=wall_ms,
                ))
                if out:
                    out.telemetry(level, itlog)
                    if (cfg.strategy == "adaptive"
                            and level in SNAPSHOT_LEVELS):
                        out.snapshot(level, mesh)
    except ContinuationError as exc:
        diagnostic = f"level {len(records)}: {exc}"
        log.error("study aborted: %s", diagnostic)
        if out:
            out.telemetry(len(records), exc.log)

    if out:
        out.finish(records, diagnostic)
    return records


def transfer_state(state: DiscreteState, old_trial: DofMap, old_test: DofMap,
                   new_trial: DofMap, new_test: DofMap) -> DiscreteState:
    """Prolong a discrete state onto a refinement of its mesh.

    The trial part is transferred exactly (new vertices are old-edge
    midpoints, where a P1 function equals the endpoint average).  The
    residual representative is re-interpolated in the CR sense: each new
    edge receives the value of the old broken function at its midpoint,
    evaluated on the parent element and averaged across the adjacent new
    elements.  On the same mesh the state is returned as it is.  Raises
    ``ValueError`` for a mesh without genealogy, which is no refinement.
    """
    old_mesh = old_trial.mesh
    new_mesh = new_trial.mesh
    if new_mesh is old_mesh:
        return state
    if np.any(new_mesh.parent < 0):
        raise ValueError("target mesh has no genealogy: it is not a "
                         "refinement of the state's mesh")

    parents = new_mesh.vertex_parents
    u_new = 0.5 * (state.u[parents[:, 0]] + state.u[parents[:, 1]])

    # the old CR function is affine on each parent: its mean edge value
    # at the centroid plus its gradient times the offset
    tpar = new_mesh.parent
    mean = state.r[old_mesh.triangle_edges].mean(axis=1)[tpar]
    g_r = all_element_gradients(old_test, state.r)[tpar]
    centroid = old_mesh.vertices[old_mesh.triangles].mean(axis=1)[tpar]
    edges = new_mesh.triangle_edges
    offset = new_mesh.edge_midpoints()[edges] - centroid[:, None, :]
    vals = mean[:, None] + np.einsum("td,tkd->tk", g_r, offset)
    r_sum = np.bincount(edges.ravel(), vals.ravel(), new_mesh.n_edges)
    r_cnt = np.bincount(edges.ravel(), minlength=new_mesh.n_edges)
    r_new = r_sum / np.maximum(r_cnt, 1)
    r_new[new_test.constrained_dofs] = 0.0
    # boundary trial values stay prolonged; the Newton solve clamps them to
    # the target problem's Dirichlet data anyway
    return DiscreteState(u_new, r_new)


class _ArtifactWriter:
    """CSV records, JSON-lines telemetry and SVG snapshots of one study."""

    def __init__(self, cfg: ProblemConfig):
        self.cfg = cfg
        self.dir = Path(cfg.output_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._telemetry_lines: list[str] = []

    def telemetry(self, level: int, itlog: IterationLog):
        for rec in itlog.records:
            self._telemetry_lines.append(rec.as_json(level=level))

    def snapshot(self, level: int, mesh: Mesh):
        export_svg(mesh, self.dir / f"mesh_step_{level}.svg")

    def finish(self, records, diagnostic):
        csv_path = self.dir / "records.csv"
        lines = [StudyRecord.CSV_HEADER] + [r.csv_row() for r in records]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        (self.dir / "telemetry.jsonl").write_text(
            "".join(line + "\n" for line in self._telemetry_lines),
            encoding="utf-8")
        meta = asdict(self.cfg)
        meta["ndof_convention"] = ("n_total = free trial DOFs + free test "
                                   "DOFs; trial and test counts are also "
                                   "reported separately")
        if diagnostic:
            meta["diagnostic"] = diagnostic
        (self.dir / "metadata.json").write_text(
            json.dumps(meta, indent=2, default=str) + "\n", encoding="utf-8")
