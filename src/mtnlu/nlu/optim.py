"""Batch first-order minimizer shared by the slot tagger and intent classifier.

Limited-memory BFGS (Liu & Nocedal 1989): the two-loop recursion turns
the last few steps and gradient changes into a quasi-Newton direction, and
a backtracking line search accepts the first step that meets the Armijo
condition.  Accepted steps never increase the objective, every run with
the same inputs takes the same path, and the analytic gradient is the only
model-specific code involved -- which keeps training easy to check against
finite differences.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters shared by both model trainers."""

    l2: float = 0.01
    max_iterations: int = 200
    tolerance: float = 1e-5

    def __post_init__(self):
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if self.max_iterations < 0 or self.tolerance <= 0:
            raise ValueError("max_iterations must be >= 0 and tolerance > 0")


@dataclass
class MinimizeResult:
    x: np.ndarray
    values: list[float]  # objective after the start point and each accepted step
    iterations: int
    converged: bool


_HISTORY = 10  # (step, gradient change) pairs kept for the two-loop recursion
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60


def _direction(g: np.ndarray, history: Sequence) -> np.ndarray:
    """-H g for the L-BFGS inverse-Hessian estimate H of `history`.

    Without history H is the identity, scaled down so that the step is at
    most of unit length; otherwise its initial diagonal is s.y / y.y of the
    newest pair.
    """
    if not history:
        return -g / max(float(np.linalg.norm(g)), 1.0)
    q = g.copy()
    coefs = []
    for s, y, rho in reversed(history):
        a = rho * float(s @ q)
        q -= a * y
        coefs.append(a)
    s, y, rho = history[-1]
    q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), a in zip(history, reversed(coefs)):
        q += (a - rho * float(y @ q)) * s
    return -q


def minimize(
    fun_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    max_iterations: int,
    tolerance: float,
    name: str = "objective",
) -> MinimizeResult:
    """Minimize a smooth function returning (value, gradient).

    Converged means max |gradient| <= tolerance.  Stops after
    `max_iterations` accepted steps, or early when no step along a descent
    direction lowers the objective at float precision.  Stopping at
    `max_iterations` without converging logs a warning that names `name`.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_grad(x)
    values = [f]
    history: deque = deque(maxlen=_HISTORY)
    iterations = 0
    converged = bool(np.max(np.abs(g), initial=0.0) <= tolerance)
    while iterations < max_iterations and not converged:
        d = _direction(g, history)
        slope = float(g @ d)
        if not slope < 0:  # rounding broke the estimate: steepest descent
            d = _direction(g, ())
            slope = float(g @ d)
        alpha = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + alpha * d
            f_new, g_new = fun_grad(x_new)
            if np.isfinite(f_new) and f_new <= f + _ARMIJO_C * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break  # no further progress possible at float precision
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 0:  # keeps the estimate positive definite
            history.append((s, y, 1.0 / sy))
        x, f, g = x_new, f_new, g_new
        values.append(f)
        iterations += 1
        converged = bool(np.max(np.abs(g), initial=0.0) <= tolerance)
    if not converged and iterations == max_iterations:
        log.warning("%s did not converge in %d iterations: max |gradient| %.3g > tolerance %g",
                    name, iterations, np.max(np.abs(g), initial=0.0), tolerance)
    return MinimizeResult(x, values, iterations, converged)

