"""Damped Newton iteration on the mixed residual-minimization system and
the exponent-continuation driver.

One Newton step linearizes both nonlinear maps of the mixed system around
the current iterate ``(r, u)`` and solves the symmetric saddle system

    [ G   B ] [dr]   [ F - D(r) - N(u) ]
    [ B^T 0 ] [du] = [ -B^T r          ]

where ``G`` is the duality-map Hessian, ``B`` the operator Jacobian, ``D``
the duality-map action and ``N`` the p-Laplacian action.  Both Jacobians
and both actions come from the element gradients of the iterate, as a few
element weights and fluxes per triangle (see :mod:`plapminres.forms`), so
a line-search trial forms no element matrix.  Updates are
damped by a backtracking line search on the Euclidean norm of the
concatenated nonlinear residual: the step is halved until that norm does
not increase, so no accepted step increases the residual, and a step
that needed a halving is a damping event.  A search that runs out of
halvings ends the solve unconverged at the last accepted iterate, its
iteration counted with a damping event; so does, uncounted, a linear
solve that cannot be certified.

Convergence is declared when the undamped increment, measured as the sum
of the two broken seminorms at the current exponent, drops below the
tolerance, or when the residual itself reaches the round-off floor (the
path taken by the linear case p = 2, which therefore converges in a
single iteration from any state).  The floor scales with the load's
norm; a load whose norm overflows has none.

Since Newton far from p = 2 needs a good initial guess, the continuation
driver first solves the linear p = 2 problem cold and then walks the
exponent in fixed steps toward the target, warm-starting every solve from
the previous state and halving the local step after a failed solve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .forms import (
    NonlinearForms,
    apply_duality_map,
    apply_jacobian_transpose,
    apply_plaplacian,
    assemble_duality_jacobian,
    assemble_operator_jacobian,
)
from .linsolve import LinearSolveError, assemble_saddle, solve_symmetric_indefinite
from .spaces import all_element_gradients, broken_seminorm, integrate_flux


class ContinuationError(RuntimeError):
    """Continuation step underflow; carries the log collected so far."""

    def __init__(self, message: str, log: "IterationLog"):
        super().__init__(message)
        self.log = log


@dataclass(frozen=True, eq=False)
class DiscreteState:
    """Full coefficient vectors of one iterate on one mesh."""

    u: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.r))):
            raise ValueError("state coefficients must be finite")


# a solve converges when the increment falls below NEWTON_TOL and stops
# after MAX_NEWTON iterations; the line search halves a step at most
# MAX_BACKTRACKS times; the continuation steps the exponent by
# CONTINUATION_STEP and halves the step after a failed solve until it
# falls below MIN_STEP
NEWTON_TOL = 1e-8
MAX_NEWTON = 50
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 12
CONTINUATION_STEP = 0.10
MIN_STEP = 1e-3


@dataclass
class NewtonResult:
    """Outcome of one fixed-exponent Newton solve; one telemetry line.

    ``state`` is the last accepted iterate at exponent ``p``, and
    ``final_increment`` is None (JSON null) if no step was accepted.
    ``linear_fallbacks`` counts the linear solves whose symmetric
    factorization was refused (see :mod:`plapminres.linsolve`).
    """

    p: float
    state: DiscreteState
    iterations: int
    damping_events: int
    converged: bool
    final_increment: float | None
    history: list[dict]
    linear_fallbacks: int

    def as_json(self, **extra) -> str:
        """The telemetry line, a non-finite float written as null."""
        payload = dict(extra)
        payload.update({
            "p": self.p, "iterations": self.iterations,
            "damping_events": self.damping_events,
            "final_increment": _finite_or_none(self.final_increment),
            "converged": self.converged,
            "linear_fallbacks": self.linear_fallbacks,
            "increments": [_finite_or_none(h.get("increment"))
                           for h in self.history],
            "linear_residuals": [_finite_or_none(h.get("linear_residual"))
                                 for h in self.history],
        })
        return json.dumps(payload, allow_nan=False)


def _finite_or_none(value: float | None) -> float | None:
    return value if value is not None and math.isfinite(value) else None


@dataclass
class IterationLog:
    """Newton results in solve order and their accumulated counts."""

    records: list[NewtonResult] = field(default_factory=list)

    @property
    def total_iterations(self) -> int:
        return sum(rec.iterations for rec in self.records)

    @property
    def total_damping_events(self) -> int:
        return sum(rec.damping_events for rec in self.records)


class Residual(NamedTuple):
    """Residual blocks at an iterate (u, r) over the free test and trial
    DOFs, their norm, and what the next Newton matrix needs there: the
    operator Jacobian's element weights ``B`` and r's element gradients."""

    top: np.ndarray
    bottom: np.ndarray
    norm: float
    B: np.ndarray
    g_r: np.ndarray


def nonlinear_residual(forms: NonlinearForms, state: DiscreteState) -> Residual:
    """Residual of the mixed system at the given state; both blocks vanish
    at an exact discrete solution.  Every form takes the element gradients
    of u and r computed here once, and the two actions of the top block
    are tested together, from the sum of their element fluxes."""
    g_u = all_element_gradients(forms.trial, state.u)
    g_r = all_element_gradients(forms.test, state.r)
    B = assemble_operator_jacobian(forms, g_u)
    flux = apply_duality_map(forms, g_r) + apply_plaplacian(forms, g_u)
    top = forms.load_free - integrate_flux(forms.test, flux)
    bottom = -apply_jacobian_transpose(forms, B, g_r)
    return Residual(top, bottom, float(np.sqrt(top @ top + bottom @ bottom)),
                    B, g_r)


# an iterate far from the solution may overflow the forms: its trial is
# refused, and the numpy warnings that the overflow raises are not shown
@np.errstate(over="ignore", invalid="ignore")
def newton_solve(forms: NonlinearForms, state_init: DiscreteState
                 ) -> NewtonResult:
    """Damped Newton iteration at a fixed exponent.

    Returns a :class:`NewtonResult`; on iteration cap, exhausted line
    search or linear-solve failure ``converged`` is False and ``state``
    carries the last accepted iterate.  A trial is accepted only when its
    coefficients and its residual norm are finite.
    """
    trial, test = forms.trial, forms.test
    u = state_init.u.copy()
    r = state_init.r.copy()
    # clamp the constrained entries to the data of this problem
    u[trial.constrained_dofs] = forms.dirichlet_values
    r[test.constrained_dofs] = 0.0
    state = DiscreteState(u, r)
    res = nonlinear_residual(forms, state)
    res_floor = 1e-12 * (1.0 + float(np.linalg.norm(forms.load_free)))

    history: list[dict] = []
    iterations = damping_events = fallbacks = 0
    increment = None
    converged = False

    for iteration in range(1, MAX_NEWTON + 1):
        G = assemble_duality_jacobian(forms, res.g_r)
        system = assemble_saddle(forms.pattern, G, res.B, res.top, res.bottom)
        try:
            dr, du, lin_res, fell_back = solve_symmetric_indefinite(system)
        except LinearSolveError as exc:
            # raised only after the symmetric factorization was refused
            history.append({"error": str(exc)})
            fallbacks += 1
            break
        fallbacks += fell_back
        iterations = iteration
        dr = test.full_from_free(dr)
        du = trial.full_from_free(du)

        alpha = 1.0
        for halvings in range(MAX_BACKTRACKS + 1):
            u_try, r_try = state.u + alpha * du, state.r + alpha * dr
            if np.isfinite(u_try).all() and np.isfinite(r_try).all():
                state_try = DiscreteState(u_try, r_try)
                res_try = nonlinear_residual(forms, state_try)
                if math.isfinite(res_try.norm) and res_try.norm <= res.norm:
                    break
            alpha *= BACKTRACK_FACTOR
        else:
            damping_events += 1
            history.append({"linear_residual": lin_res,
                            "error": "line search exhausted"})
            break
        damping_events += halvings > 0
        state, res = state_try, res_try

        g_dr = all_element_gradients(test, dr)
        g_du = all_element_gradients(trial, du)
        increment = (broken_seminorm(test, g_dr, forms.p)
                     + broken_seminorm(trial, g_du, forms.p))
        history.append({"increment": increment, "residual": res.norm,
                        "linear_residual": lin_res})

        # a load whose norm overflows leaves no round-off floor to reach
        if increment < NEWTON_TOL or res.norm <= res_floor < math.inf:
            converged = True
            break

    return NewtonResult(forms.p, state, iterations, damping_events, converged,
                        increment, history, fallbacks)


def cold_state(forms: NonlinearForms) -> DiscreteState:
    """All-zero state; :func:`newton_solve` clamps in the Dirichlet data."""
    return DiscreteState(np.zeros(forms.trial.n_total),
                         np.zeros(forms.test.n_total))


def continuation_solve(p_target: float, forms_factory
                       ) -> tuple[DiscreteState, IterationLog]:
    """Walk the exponent from 2 to ``p_target``, warm-starting Newton.

    ``forms_factory(p)`` must return the :class:`NonlinearForms` of the
    problem at exponent ``p``: the spaces and load of one mesh, with that
    exponent's Dirichlet values.  The linear case is solved first from
    the zero state; a failed Newton solve halves the local step and
    retries from the last converged state, aborting with
    :class:`ContinuationError` when the step underflows ``MIN_STEP``.
    """
    if not 1.0 < p_target < np.inf:
        raise ValueError("p_target must be finite and > 1")
    log = IterationLog()

    forms2 = forms_factory(2.0)
    result = newton_solve(forms2, cold_state(forms2))
    log.records.append(result)
    if not result.converged:
        raise ContinuationError("linear stage p = 2 did not converge", log)
    state = result.state

    direction = 1.0 if p_target > 2.0 else -1.0
    current = 2.0
    while current != p_target:
        step = CONTINUATION_STEP
        while True:
            if abs(p_target - current) <= step * (1.0 + 1e-12):
                p_next = p_target
            else:
                p_next = current + direction * step
            result = newton_solve(forms_factory(p_next), state)
            log.records.append(result)
            if result.converged:
                state = result.state
                current = p_next
                break
            step *= 0.5
            if step < MIN_STEP:
                raise ContinuationError(
                    f"continuation step underflow at p = {current:.4f} "
                    f"toward {p_target}", log)
    return state, log
