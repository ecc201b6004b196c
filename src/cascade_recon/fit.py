"""Coupling reconstruction by minimizing the observed-cascade free energy.

The optimizer is a projected quasi-Newton method over the box
``[alpha_min, alpha_max]^|E|``: limited-memory BFGS directions (Nocedal's
two-loop recursion, 1980) on the coordinates the gradient does not hold
at a bound, with a backtracking line search (Armijo sufficient decrease
on the projected step) from the unit step, or for steepest descent from
the step that moves the largest projected-gradient entry across the box.
Accepted steps never increase the objective and every iterate stays inside
the box.  The procedure is deterministic for a given dataset and
configuration, and its iterates do not change when the objective is
scaled by a power of two.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DatasetError
from .graph import Network
from .cascades import CascadeTable, MaskSpec, _table
from .gradient import _chunks, _dataset_free_energy, summarize_dataset

__all__ = [
    "FitConfig",
    "FitResult",
    "projected_gradient_descent",
    "dmprec_fit",
    "identifiable_edges",
    "l1_coupling_error",
]


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings shared by the reconstruction methods."""

    alpha_init: float = 0.5
    alpha_min: float = 1e-6
    alpha_max: float = 1.0 - 1e-6
    max_iters: int = 2000
    tol: float = 1e-7            # relative decrease of a step accepted at its first trial

    def validate(self) -> None:
        if not 0.0 < self.alpha_min < self.alpha_init < self.alpha_max < 1.0:
            raise ValueError("need 0 < alpha_min < alpha_init < alpha_max < 1")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass(eq=False)
class FitResult:
    """Outcome of a reconstruction run."""

    couplings_hat: np.ndarray
    iterations: int
    free_energy_trajectory: list[float]
    converged: bool
    wall_time: float
    # per accepted step: (iteration, free_energy, step_size, grad_inf_norm)
    diagnostics: list[tuple[int, float, float, float]] = field(default_factory=list)


HISTORY = 10  # curvature pairs kept by the quasi-Newton direction
STEP_SHRINK = 0.5  # factor on the step after a rejected line-search trial
ARMIJO = 1e-4  # sufficient-decrease fraction of the projected slope


def _lbfgs_direction(grad: np.ndarray, pairs) -> np.ndarray:
    """``-H grad`` for the limited-memory inverse-Hessian estimate ``H``
    built from the ``(s, y, 1 / s.y)`` pairs, oldest first."""
    q = grad.copy()
    coefs = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        coefs.append(a)
    s, y, _ = pairs[-1]
    q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(pairs, reversed(coefs)):
        q += (a - rho * float(y @ q)) * s
    return -q


def _backtrack(value_only, x, f, g, direction, eta, lower, upper):
    """Armijo backtracking along the projected path ``clip(x + eta d)``.

    Returns ``(trial, f_trial, eta, first_try)`` or None when no step
    passes.  Trials that do not point downhill are shrunk without being
    evaluated.
    """
    first_try = True
    while eta > 1e-18:
        trial = np.clip(x + eta * direction, lower, upper)
        dx = trial - x
        if not np.any(dx):
            return None
        slope = float(g @ dx)
        if slope < 0.0:
            f_trial = value_only(trial)
            if f_trial <= f + ARMIJO * slope:
                return trial, f_trial, eta, first_try
        eta *= STEP_SHRINK
        first_try = False
    return None


def projected_gradient_descent(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    value_only: Callable[[np.ndarray], float],
    x0: np.ndarray,
    config: FitConfig,
) -> tuple[np.ndarray, list[float], list[tuple[int, float, float, float]], bool, int]:
    """Monotone projected descent with quasi-Newton directions on the box
    ``[config.alpha_min, config.alpha_max]``.

    Returns ``(x, trajectory, diagnostics, converged, iterations)``.  Each
    accepted step costs one ``value_and_grad`` call; line-search trials call
    ``value_only``.  A coordinate at a bound whose gradient pushes outward
    stays fixed for the step; on the others the direction is L-BFGS's
    (first trial at the unit step), and steepest descent (first trial at
    ``(alpha_max - alpha_min) / max|pg|`` for the projected gradient
    ``pg``) when there are no curvature pairs yet or the quasi-Newton
    search fails, which also clears the pairs.

    ``converged`` is True when the projected gradient vanishes (a
    stationary point of the box-constrained problem) or when a step
    accepted at its first trial lowers the objective by less than ``tol``
    relative.  A line search that finds no step along steepest descent
    ends the run with ``converged`` False, as does reaching ``max_iters``.
    """
    lower, upper = config.alpha_min, config.alpha_max
    x = np.clip(np.asarray(x0, dtype=np.float64), lower, upper)
    f, g = value_and_grad(x)
    trajectory = [f]
    diagnostics = [(0, f, 0.0, float(np.abs(g).max(initial=0.0)))]
    pairs: deque = deque(maxlen=HISTORY)
    converged = False
    iterations = 0
    for it in range(1, config.max_iters + 1):
        held = ((x <= lower) & (g > 0.0)) | ((x >= upper) & (g < 0.0))
        pg = np.where(held, 0.0, g)
        if not np.any(pg):
            converged = True  # box-stationary
            break
        found = None
        if pairs:
            direction = _lbfgs_direction(pg, pairs)
            direction[held] = 0.0
            if float(pg @ direction) < 0.0:
                found = _backtrack(value_only, x, f, g, direction, 1.0, lower, upper)
            if found is None:
                pairs.clear()
        if found is None:
            eta = (upper - lower) / float(np.abs(pg).max())
            found = _backtrack(value_only, x, f, g, -pg, eta, lower, upper)
        if found is None:
            break  # line search failed: not a convergence
        x_new, f_new, eta, first_try = found
        iterations = it
        rel_decrease = (f - f_new) / max(abs(f), 1.0)
        g_old = g
        f, g = value_and_grad(x_new)
        s, y = x_new - x, g - g_old
        x = x_new
        trajectory.append(f)
        diagnostics.append((it, f, eta, float(np.abs(g).max(initial=0.0))))
        sy = float(s @ y)
        if sy > 1e-10 * float(np.sqrt((s @ s) * (y @ y))):
            pairs.append((s, y, 1.0 / sy))
        if first_try and rel_decrease < config.tol:
            converged = True
            break
    return x, trajectory, diagnostics, converged, iterations


def dmprec_fit(
    dataset: CascadeTable | Sequence[CascadeTable],
    net: Network,
    config: FitConfig | None = None,
    threads: int = 1,
) -> FitResult:
    """Reconstruct couplings from partially observed cascades.

    Minimizes the message-passing free energy of the dataset by projected
    gradient descent from the uniform ``alpha_init`` starting point.  Each
    evaluation runs one batched forward pass, and each gradient one reverse
    sweep, per chunk of distinct source sets.  Line-search values run on
    chunks sized for a value pass and gradients on the smaller chunks that
    the sweep's memory allows; both lists are stacked once for the whole
    run.  ``threads`` is accepted for existing callers and has no effect.
    """
    config = config or FitConfig()
    config.validate()
    table = _table(dataset, net)
    summaries = summarize_dataset(table)
    grad_chunks = _chunks(summaries, net, table.horizon)
    value_chunks = _chunks(summaries, net, table.horizon, with_gradient=False)

    def value_and_grad(alpha: np.ndarray) -> tuple[float, np.ndarray]:
        return _dataset_free_energy(grad_chunks, net, alpha, table.horizon)

    def value_only(alpha: np.ndarray) -> float:
        return _dataset_free_energy(value_chunks, net, alpha, table.horizon, with_gradient=False)[0]

    x0 = np.full(net.n_edges, config.alpha_init)
    start = time.perf_counter()
    x, trajectory, diagnostics, converged, iterations = projected_gradient_descent(
        value_and_grad, value_only, x0, config
    )
    wall = time.perf_counter() - start
    if not np.all(np.isfinite(trajectory)):
        raise DatasetError("free energy is not finite; dataset or network is corrupt")
    return FitResult(x, iterations, trajectory, converged, wall, diagnostics)


def identifiable_edges(net: Network, mask: MaskSpec) -> np.ndarray:
    """Edge ids whose couplings the data can constrain at all.

    Excludes in-edges of hidden nodes with no outgoing edge: such a node's
    activation time is never seen and never influences anything visible.
    A hidden node that is not a node of ``net`` is a :class:`DatasetError`.
    """
    mask._validate_nodes(net.n_nodes)
    silent = np.isin(np.arange(net.n_nodes), list(mask.hidden_nodes)) & (np.diff(net._out_ptr) == 0)
    return np.flatnonzero(~silent[net.edge_dst])


def l1_coupling_error(est, truth, included) -> float:
    """Mean absolute coupling error over the included edges; an empty
    ``included`` is a :class:`DatasetError`."""
    included = np.asarray(included, dtype=np.intp)
    if included.size == 0:
        raise DatasetError("no edges included in the error metric")
    est = np.asarray(est, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    return float(np.abs(est[included] - truth[included]).sum() / included.size)
