"""The benchmark problem (:class:`ExactSolution`: the load, its radial
solution and that solution's gradient), error estimation, Dörfler marking
and convergence-rate extraction."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .forms import NonlinearForms
from .spaces import (
    DofMap,
    QuadRule,
    all_element_gradients,
    broken_seminorm,
)


class EstimateError(ValueError):
    """Raised for invalid estimation queries."""


@dataclass(frozen=True, eq=False)
class ExactSolution:
    """Radially symmetric benchmark solution of the p-Laplacian.

    With r = |x - x0| in two dimensions,

        u(x) = (p-1)/(p-sigma) * (1/(2-sigma))^(1/(p-1)) * (1 - r^q),
        q = (p - sigma)/(p - 1),

    which satisfies -div(|grad u|^(p-2) grad u) = r^(-sigma), the load
    :meth:`source`, and vanishes on the circle r = 1.  The gradient
    magnitude behaves like r^(q-1); for sigma > 1 it blows up at x0 and
    the evaluation refuses r = 0.
    """

    p: float
    sigma: float
    x0: tuple[float, float]

    def __post_init__(self):
        if not self.p > 1.0:
            raise EstimateError("p must be > 1")
        if not self.sigma < 2.0:
            raise EstimateError("sigma must be < 2 for an integrable load")
        if self.p == self.sigma:
            raise EstimateError("p must differ from sigma: the solution "
                                "degenerates to a logarithm")

    @property
    def radial_exponent(self) -> float:
        return (self.p - self.sigma) / (self.p - 1.0)

    @property
    def amplitude(self) -> float:
        return ((self.p - 1.0) / (self.p - self.sigma)
                * (1.0 / (2.0 - self.sigma)) ** (1.0 / (self.p - 1.0)))

    def source(self, points: np.ndarray) -> np.ndarray:
        """The load f = r^(-sigma) on an (..., 2) array of points."""
        diff = points - np.asarray(self.x0)
        return np.sqrt((diff ** 2).sum(axis=-1)) ** (-self.sigma)

    def value(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        r = np.linalg.norm(points - np.asarray(self.x0), axis=-1)
        return self.amplitude * (1.0 - r ** self.radial_exponent)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        diff = points - np.asarray(self.x0)
        r = np.linalg.norm(diff, axis=-1)
        at_center = r == 0.0
        if np.any(at_center):
            # |grad u| ~ r^(q-1): the limit at the center is zero for q > 1
            # and unbounded (or direction-dependent) otherwise
            if self.radial_exponent <= 1.0:
                raise EstimateError("gradient is singular at the load center x0")
            r = np.where(at_center, 1.0, r)
        coeff = ((1.0 / (2.0 - self.sigma)) ** (1.0 / (self.p - 1.0))
                 * r ** (self.radial_exponent - 2.0))
        return -coeff[..., None] * diff


@dataclass
class StudyRecord:
    """One refinement level of a convergence study."""

    level: int
    n_free_trial: int
    n_free_test: int
    n_total: int
    h_max: float
    error: float
    eta: float
    eta_over_error: float
    eta_root_over_error: float
    newton_total: int
    damping_events: int
    wall_ms: float

    CSV_HEADER = ("level,n_free_trial,n_free_test,n_total,h_max,error,eta,"
                  "eta_over_error,eta_root_over_error,newton_total,"
                  "damping_events,wall_ms")

    def csv_row(self) -> str:
        return (f"{self.level},{self.n_free_trial},{self.n_free_test},"
                f"{self.n_total},{self.h_max:.17g},{self.error:.17g},"
                f"{self.eta:.17g},{self.eta_over_error:.17g},"
                f"{self.eta_root_over_error:.17g},{self.newton_total},"
                f"{self.damping_events},{self.wall_ms:.3f}")

    @classmethod
    def from_csv_row(cls, row: str) -> "StudyRecord":
        """Parse one line written by :meth:`csv_row`."""
        convert = {"int": int, "float": float}
        return cls(*(convert[f.type](value) for f, value
                     in zip(fields(cls), row.split(","), strict=True)))


def estimator_global(forms: NonlinearForms, r_coeffs: np.ndarray) -> float:
    """Global estimator: broken seminorm of the residual representative,
    raised to the power p - 1 (the discrete dual norm of the residual)."""
    g_r = all_element_gradients(forms.test, r_coeffs)
    return broken_seminorm(forms.test, g_r, forms.p) ** (forms.p - 1.0)


def true_error(trial: DofMap, u_coeffs: np.ndarray, exact_gradient,
               quad: QuadRule, p: float) -> float:
    """Broken W^{1,p} distance between the exact and discrete gradients.

    ``exact_gradient`` maps an (..., 2) point array to gradients of the
    same shape (e.g. :meth:`ExactSolution.gradient`); componentwise
    p-powers match the trial-space norm convention.  The points are
    evaluated block by block (:meth:`~plapminres.spaces.QuadRule.blocks`).
    """
    m = trial.mesh
    g_h = all_element_gradients(trial, u_coeffs)
    per_element = np.empty(m.n_triangles)
    for block, pts in quad.blocks(m):
        diff = np.abs(exact_gradient(pts) - g_h[block, None, :]) ** p
        per_element[block] = 2.0 * m.areas[block] * np.einsum(
            "q,tqd->t", quad.weights, diff)
    return float(per_element.sum() ** (1.0 / p))


def dorfler_mark(masses: np.ndarray, theta: float) -> np.ndarray:
    """Smallest set of elements carrying a theta-fraction of the total mass.

    Greedy by descending mass with ties broken by the lower element index.
    Masses are compared relative to the largest one, rounded to 40
    significant bits (about 12 significant digits): on a symmetric mesh,
    mirror-image elements carry masses that are equal only up to
    round-off, and the tie rule, not their last bits, must decide between
    them.  Returns sorted element indices; an all-zero mass vector yields
    an empty marking and a warning.
    """
    masses = np.asarray(masses, dtype=float)
    if not 0.0 < theta <= 1.0:
        raise EstimateError("theta must lie in (0, 1]")
    if np.any(masses < 0.0):
        raise EstimateError("element masses must be nonnegative")
    total = float(masses.sum())
    if total == 0.0:
        warnings.warn("all element indicators vanish; nothing to mark",
                      stacklevel=2)
        return np.empty(0, dtype=np.int64)
    # divided first, so the rounding never sees a subnormal largest mass
    mantissa, exponent = np.frexp(masses / masses.max())
    key = np.ldexp(np.round(np.ldexp(mantissa, 40)), exponent - 40)
    order = np.argsort(-key, kind="stable")
    csum = np.cumsum(masses[order])
    target = theta * total
    k = int(np.searchsorted(csum, target * (1.0 - 1e-13))) + 1
    k = min(k, int(np.count_nonzero(masses)))
    return np.sort(order[:k])


def fit_rate(records, quantity: str, window: int) -> float:
    """Least-squares slope of log(quantity) against log(n_total).

    ``quantity`` is ``"error"`` or ``"eta"``; the fit uses the last
    ``window`` records, which must exist and all be finite and positive.
    """
    if window < 2:
        raise EstimateError("rate fit needs at least two levels")
    records = list(records)
    if len(records) < window:
        raise EstimateError(f"a window of {window} levels needs as many "
                            f"records, got {len(records)}")
    tail = records[-window:]
    x = np.array([rec.n_total for rec in tail], dtype=float)
    y = np.array([getattr(rec, quantity) for rec in tail], dtype=float)
    if not np.all((0.0 < x) & (x < np.inf) & (0.0 < y) & (y < np.inf)):
        raise EstimateError("rate fit requires finite, positive quantities")
    slope, _ = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope)
