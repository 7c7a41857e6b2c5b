"""Span tracing of one study from outside the program.

The tracer replaces public functions at the names the calling modules bind
them to (``driver.build_space``, ``newton.assemble_saddle``, ...) with
wrappers that record one span ``(name, parent, start, end)`` per call and a
count at the same boundary.  SuperLU is traced by wrapping the ``splu``
entry point that ``linsolve`` reaches through its ``spla`` module alias,
and the ``solve`` of the factor object it returns.  Spans stay in memory;
``layer_metrics`` turns them into per-layer self times and counts, and
``dump`` writes them out.  ``uninstall`` restores every patched name.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from plapminres import driver, estimate, forms, linsolve, newton
from plapminres.linsolve import LinearSolveError

# span name -> the per-layer metric its self time is added to
SELF_TIME_METRIC = {
    "driver.run_study": "driver.self_s",
    "driver.transfer_state": "driver.transfer_s",
    "mesh.refine": "mesh.refine_s",
    "mesh.export_svg": "mesh.export_s",
    "spaces.build_space": "spaces.build_space_s",
    "spaces.broken_seminorm": "spaces.seminorm_s",
    "forms.jacobian": "forms.jacobian_s",
    "forms.action": "forms.action_s",
    "forms.assemble_load": "forms.load_s",
    "forms.local_indicators": "forms.indicators_s",
    "linsolve.assemble_saddle": "linsolve.assemble_s",
    "linsolve.solve": "linsolve.solve_s",
    "linsolve.splu": "linsolve.factor_s",
    "linsolve.lu_solve": "linsolve.trisolve_s",
    "newton.continuation_solve": "newton.solve_s",
    "newton.newton_solve": "newton.solve_s",
    "newton.nonlinear_residual": "newton.solve_s",
    "estimate.true_error": "estimate.true_error_s",
    "estimate.estimator_global": "estimate.estimator_s",
    "estimate.dorfler_mark": "estimate.mark_s",
}

# (module, attribute bound there, span name)
PATCH_POINTS = [
    (driver, "refine_uniform", "mesh.refine"),
    (driver, "refine_marked", "mesh.refine"),
    (driver, "export_svg", "mesh.export_svg"),
    (driver, "build_space", "spaces.build_space"),
    (newton, "broken_seminorm", "spaces.broken_seminorm"),
    (forms, "broken_seminorm", "spaces.broken_seminorm"),
    (estimate, "broken_seminorm", "spaces.broken_seminorm"),
    (newton, "assemble_operator_jacobian", "forms.jacobian"),
    (newton, "assemble_duality_jacobian", "forms.jacobian"),
    (newton, "apply_plaplacian", "forms.action"),
    (newton, "apply_duality_map", "forms.action"),
    (driver, "assemble_load", "forms.assemble_load"),
    (driver, "local_indicators", "forms.local_indicators"),
    (newton, "assemble_saddle", "linsolve.assemble_saddle"),
    (newton, "solve_symmetric_indefinite", "linsolve.solve"),
    (driver, "continuation_solve", "newton.continuation_solve"),
    (driver, "newton_solve", "newton.newton_solve"),
    (newton, "newton_solve", "newton.newton_solve"),
    (newton, "nonlinear_residual", "newton.nonlinear_residual"),
    (driver, "true_error", "estimate.true_error"),
    (driver, "estimator_global", "estimate.estimator_global"),
    (driver, "dorfler_mark", "estimate.dorfler_mark"),
    (driver, "transfer_state", "driver.transfer_state"),
]


class Tracer:
    """In-memory span recorder with boundary counts."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: Counter = Counter()
        self.lu_nnz: list[int] = []
        self.triangles_final = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped so that each call records a span."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, parent, time.perf_counter(), 0.0))
            stack.append(index)
            counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts[name + ".raised." + type(exc).__name__] += 1
                raise
            finally:
                stack.pop()
                spans[index] = spans[index][:3] + (time.perf_counter(),)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _on_newton(self, args, result):
        c = self.counts
        c["newton.iterations"] += result.iterations
        c["newton.damping_events"] += result.damping_events
        c["newton.converged"] += bool(result.converged)

    def _on_continuation(self, args, result):
        _, itlog = result
        self.counts["newton.continuation_targets"] += len(itlog.records)
        self.counts["newton.step_halvings"] += sum(
            not rec.converged for rec in itlog.records)

    def _on_mark(self, args, result):
        self.counts["estimate.marked"] += len(result)
        self.counts["estimate.mark_candidates"] += len(args[0])

    def _on_build_space(self, args, result):
        self.triangles_final = result.mesh.n_triangles

    def _on_splu(self, args, lu):
        self.lu_nnz.append(int(lu.nnz))

    # -- installation ----------------------------------------------------
    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        hooks = {
            "newton.newton_solve": self._on_newton,
            "newton.continuation_solve": self._on_continuation,
            "estimate.dorfler_mark": self._on_mark,
            "spaces.build_space": self._on_build_space,
        }
        for module, attr, name in PATCH_POINTS:
            self._patch(module, attr,
                        self.wrap(name, getattr(module, attr), hooks.get(name)))
        self._patch(linsolve, "spla", _TracedSpla(self, linsolve.spla))
        return self

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def traced_run_study(self):
        return self.wrap("driver.run_study", driver.run_study)

    # -- reduction -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus child-covered time."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for (name, _, t0, t1), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (t1 - t0) - covered
        return out

    def root_duration(self) -> float:
        return sum(t1 - t0 for _, parent, t0, t1 in self.spans if parent < 0)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counts of everything traced so far."""
        c = self.counts
        m = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
        for name, seconds in self.self_times().items():
            m[SELF_TIME_METRIC[name]] += seconds
        solves = c["linsolve.solve.calls"]
        failures = c["linsolve.solve.raised." + LinearSolveError.__name__]
        newton_solves = c["newton.newton_solve.calls"]
        trials = c["newton.nonlinear_residual.calls"] - newton_solves
        m.update({
            "mesh.refine_calls": c["mesh.refine.calls"],
            "mesh.triangles_final": self.triangles_final,
            "spaces.build_space_calls": c["spaces.build_space.calls"],
            "spaces.seminorm_calls": c["spaces.broken_seminorm.calls"],
            "forms.jacobian_calls": c["forms.jacobian.calls"],
            "linsolve.solves": solves,
            "linsolve.failures": failures,
            "linsolve.factorizations": c["linsolve.splu.calls"],
            "linsolve.refine_sweeps": (c["linsolve.lu_solve.calls"]
                                       - c["linsolve.splu.calls"]),
            "linsolve.lu_nnz_max": max(self.lu_nnz, default=0),
            "linsolve.lu_nnz_total": sum(self.lu_nnz),
            "linsolve.certified_ratio": ((solves - failures) / solves
                                         if solves else 1.0),
            "newton.solves": newton_solves,
            "newton.iterations": c["newton.iterations"],
            "newton.failed_solves": newton_solves - c["newton.converged"],
            "newton.converged_ratio": (c["newton.converged"] / newton_solves
                                       if newton_solves else 1.0),
            "newton.residual_evals": c["newton.nonlinear_residual.calls"],
            "newton.line_search_trials": trials,
            "newton.backtracks": trials - c["newton.iterations"],
            "newton.damping_events": c["newton.damping_events"],
            "newton.continuation_targets": c["newton.continuation_targets"],
            "newton.step_halvings": c["newton.step_halvings"],
            "estimate.marked_fraction": (
                c["estimate.marked"] / c["estimate.mark_candidates"]
                if c["estimate.mark_candidates"] else 0.0),
        })
        return m

    def dump(self, path, extra: dict):
        """Write the spans and counts as one JSON document."""
        doc = dict(extra)
        doc["counts"] = dict(self.counts)
        doc["spans"] = [{"name": n, "parent": p, "start": t0, "end": t1}
                        for n, p, t0, t1 in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _TracedLU:
    """SuperLU factor whose ``solve`` records a ``linsolve.lu_solve`` span."""

    def __init__(self, tracer: Tracer, lu):
        self._lu = lu
        self.solve = tracer.wrap("linsolve.lu_solve", lu.solve)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _TracedSpla:
    """Stand-in for ``scipy.sparse.linalg`` with a traced ``splu``."""

    def __init__(self, tracer: Tracer, spla):
        self._spla = spla
        splu = tracer.wrap("linsolve.splu", spla.splu, tracer._on_splu)
        self.splu = lambda *a, **k: _TracedLU(tracer, splu(*a, **k))

    def __getattr__(self, attr):
        return getattr(self._spla, attr)
