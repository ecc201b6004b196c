"""The approximate negative log-likelihood ("free energy") of observed
cascades and its gradient with respect to the couplings.

Every observation is a half-open window (lo, hi] on the recorded
activation time, so each observed node contributes ``-log P(window)`` with
``P = S(lo) - S(hi)``, ``S(u) = p_susceptible(u)`` for u <= T-1 and
``S(T) = 0``: exact times, horizon censoring and snapshot intervals are
all instances of this one rule.  ``P`` is taken in the log domain,

    log P = log S(lo) + log(-expm1(sum of log_step over (lo, hi])),

with ``log S(lo)`` the sum of ``log_step`` up to lo; the second term is 0
when hi == T.  Neither term rounds to zero inside the coupling box, so no
floor is needed, and the gradient is the exact derivative of this value.
The population (infinite-sample) free energy uses the same rule, with the
generating couplings' marginals as window weights.

The free energy of one source group is a weighted sum of the forward
trace's ``log_step`` (the weights depend on the trace only through the
window spans), so its gradient is the derivative of
``-sum(weights * log_step)`` at fixed weights.  The fit takes it in
reverse mode (Griewank & Walther, *Evaluating Derivatives*, 2008): one
forward pass keeps each step's ``rho``, hazard, cavity log-sums and cavity
products, O(T |E|) numbers, and one backward sweep through the
theta/phi/cavity recursion carries their adjoints and accumulates the
coupling adjoint.  A step of the sweep costs one transposed sparse cavity
product and element-wise work, so a gradient costs a small multiple of a
forward pass.

Forward mode, :func:`dmp_forward_with_gradients`, is kept as the
reference the reverse sweep is tested against.  For every message edge e
and every parameter edge f it tracks ``d_theta[t, e, f]`` and
``d_phi[t, e, f]``, together with the sensitivities of the per-node sums
of ``log1p(-h)`` (``d_log_step``); all start at zero (initial messages do
not depend on couplings).  Its memory is O(T |E| F), so it refuses runs
above :data:`SENSITIVITY_BUDGET_BYTES`.  Both modes differentiate the
recursion that :func:`dmp._propagate` runs, as it runs it: ``rho`` as
computed (capped at 1), with ``1 / theta`` taken as 0 where theta is 0,
and the cavity product at t as the product at t-1 times ``exp`` of the
cavity log-sum, and ``p_susceptible`` likewise from ``log_step``.  So the
value and the gradient belong to one function.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import CapacityError
from .graph import Network, validate_couplings
from .cascades import ObservedCascade, _common_horizon, group_cascades
from .dmp import DmpTrace, dmp_forward, initial_susceptible, _propagate

__all__ = [
    "GradTrace",
    "FreeEnergyReport",
    "SENSITIVITY_BUDGET_BYTES",
    "dmp_forward_with_gradients",
    "observed_negative_log_likelihood",
    "free_energy_gradient",
    "population_free_energy",
]

# Largest sensitivity storage (d_theta, d_phi and d_log_step together)
# that forward mode allocates: 1 GiB.
SENSITIVITY_BUDGET_BYTES = 1 << 30


@dataclass(frozen=True, eq=False)
class GradTrace:
    """Coupling sensitivities of messages and marginals.

    ``param_edges`` lists the edge ids the trailing axis refers to, so a
    caller can differentiate with respect to a subset of couplings (one
    slice at a time) when the full |E| x |E| tensor is too large.
    """

    horizon: int
    param_edges: np.ndarray          # (F,)
    d_theta: np.ndarray              # (T+1, |E|, F)
    d_phi: np.ndarray                # (T+1, |E|, F)
    d_log_step: np.ndarray           # (T+1, N, F), sensitivity of DmpTrace.log_step
    p_susceptible: np.ndarray        # (T+1, N), the forward trace's

    @cached_property
    def d_p_susceptible(self) -> np.ndarray:
        """Sensitivity of the susceptibility marginals, shape (T+1, N, F)."""
        return self.p_susceptible[:, :, None] * np.cumsum(self.d_log_step, axis=0)

    def d_activation(self, t: int) -> np.ndarray:
        """Sensitivity of the activation marginal at step t, shape (N, F)."""
        if t == 0:
            return np.zeros_like(self.d_p_susceptible[0])
        return self.d_p_susceptible[t - 1] - self.d_p_susceptible[t]


@dataclass(frozen=True, eq=False)
class FreeEnergyReport:
    """Value and gradient of the observed-cascade free energy."""

    value: float
    gradient: np.ndarray             # (|E|,)
    per_node: dict[int, float]


def dmp_forward_with_gradients(
    net: Network,
    couplings,
    sources,
    horizon: int,
    param_edges: Sequence[int] | None = None,
) -> tuple[DmpTrace, GradTrace]:
    """Forward pass with sensitivities to the selected couplings.

    The sensitivities exist for couplings below 1: a coupling of 1 drives
    a message to exactly 0, where its logarithm has no derivative.  Raises
    :class:`CapacityError`, before allocating them, when the sensitivity
    arrays would take more than ``SENSITIVITY_BUDGET_BYTES`` (1 GiB):
    ``(2 (T+1) |E| + (T+1) N) F`` float64 numbers.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    T, E, N = horizon, net.n_edges, net.n_nodes
    params = np.arange(E, dtype=np.intp) if param_edges is None else np.asarray(param_edges, dtype=np.intp)
    F = params.shape[0]
    need = (2 * (T + 1) * E + (T + 1) * N) * F * 8
    if need > SENSITIVITY_BUDGET_BYTES:
        raise CapacityError(
            f"forward-mode sensitivities need {need / 2**30:.1f} GiB "
            f"(T={T}, |E|={E}, N={N}, {F} parameters); the budget is "
            f"{SENSITIVITY_BUDGET_BYTES / 2**30:g} GiB"
        )
    alpha = validate_couplings(net, couplings)
    ps0 = initial_susceptible(net, sources)
    col_of = np.full(E, -1, dtype=np.intp)
    col_of[params] = np.arange(F, dtype=np.intp)
    own_rows = np.flatnonzero(col_of >= 0)
    own_cols = col_of[own_rows]

    d_theta = np.zeros((T + 1, E, F))
    d_phi = np.zeros((T + 1, E, F))
    d_log_step = np.zeros((T + 1, N, F))
    d_cav = np.zeros((E, F))         # sensitivity of the cavity products at t-1
    ps0_src = ps0[net.edge_src]

    def step(t, trace, rho, h, cav_log, cav_t):
        theta, phi = trace.theta[t - 1], trace.phi[t - 1]
        # d rho = (d phi - rho d theta) / theta, d h = rho d alpha + alpha d rho
        inv_theta = np.divide(1.0, theta, out=np.zeros(E), where=theta > 0.0)
        d_h = d_phi[t - 1] - rho[:, None] * d_theta[t - 1]
        d_h *= (alpha * inv_theta)[:, None]
        d_h[own_rows, own_cols] += rho[own_rows]
        d_theta[t] = (1.0 - h)[:, None] * d_theta[t - 1] - theta[:, None] * d_h
        d_log_keep = d_h
        d_log_keep *= (-1.0 / (1.0 - h))[:, None]
        # phi gains -cav_prev * expm1(cav_log); its derivative, written as
        # -(d cav_prev * expm1(cav_log) + cav_t * d cav_log):
        d_drop = net.cavity_sum @ d_log_keep
        d_drop *= -cav_t[:, None]
        d_drop -= np.expm1(cav_log)[:, None] * d_cav
        d_phi[t] = (1.0 - alpha)[:, None] * d_phi[t - 1] + ps0_src[:, None] * d_drop
        d_phi[t][own_rows, own_cols] -= phi[own_rows]
        d_cav[...] -= d_drop
        d_log_step[t] = net.in_edge_sum @ d_log_keep

    trace = _propagate(net, alpha, ps0, horizon, on_step=step)
    gtrace = GradTrace(T, params, d_theta, d_phi, d_log_step, trace.p_susceptible)
    return trace, gtrace


# ---------------------------------------------------------------------------
# observation summaries and the free energy


@dataclass(frozen=True, eq=False)
class GroupSummary:
    """Aggregated observation windows for cascades sharing one source set.

    Each row is one (node, lo, hi) observation window with its multiplicity
    across the group's cascades; source nodes are excluded (their exact-0
    observation is conditioned on, not generated by the model).
    """

    sources: tuple[int, ...]
    nodes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray
    n_cascades: int


def summarize_dataset(dataset: Sequence[ObservedCascade]) -> list[GroupSummary]:
    """Group cascades by source set and aggregate observation windows."""
    groups = group_cascades(dataset)
    out = []
    for sources, cascades in groups.items():
        counter: Counter = Counter()
        for obs in cascades:
            vis = np.flatnonzero(~obs.hidden & (obs.hi > 0))
            for i in vis:
                counter[(int(i), int(obs.lo[i]), int(obs.hi[i]))] += 1
        keys = sorted(counter)
        nodes = np.array([k[0] for k in keys], dtype=np.intp)
        lo = np.array([k[1] for k in keys], dtype=np.int64)
        hi = np.array([k[2] for k in keys], dtype=np.int64)
        counts = np.array([counter[k] for k in keys], dtype=np.float64)
        out.append(GroupSummary(sources, nodes, lo, hi, counts, len(cascades)))
    return out


def _window_log_prob(trace: DmpTrace, summ: GroupSummary):
    """``log P`` of each window, its log-domain pieces as masks over time
    and ``d log P / d span`` (see the module docstring)."""
    T = trace.horizon
    steps = trace.log_step[:, summ.nodes].T                  # (rows, T+1)
    t = np.arange(T + 1)
    before = t <= summ.lo[:, None]                           # log S(lo) = sum of steps t <= lo
    inside = (t > summ.lo[:, None]) & (t <= summ.hi[:, None])
    censored = summ.hi == T
    span = np.where(inside, steps, 0.0).sum(axis=1)          # log S(hi) - log S(lo)
    span[censored] = -np.inf                                 # S(T) = 0
    with np.errstate(divide="ignore", over="ignore"):
        log_p = np.where(before, steps, 0.0).sum(axis=1) + np.log(-np.expm1(span))
        d_span = -1.0 / np.expm1(-span)
    return log_p, before, inside, d_span


def _window_weights(trace: DmpTrace, summ: GroupSummary) -> tuple[np.ndarray, np.ndarray]:
    """Per-window free-energy contributions and the (T+1, N) weights with
    ``d F = -sum(weights * d log_step)``."""
    log_p, before, inside, d_span = _window_log_prob(trace, summ)
    # d log P = sum_{t <= lo} d log_step + d_span * sum_{lo < t <= hi} d log_step,
    # collected as one weight per (t, node) on d log_step
    row_weights = summ.counts[:, None] * (before + d_span[:, None] * inside)
    weights = np.zeros_like(trace.log_step)
    np.add.at(weights.T, summ.nodes, row_weights)
    return -summ.counts * log_p, weights


def _log_step_adjoint(net: Network, alpha: np.ndarray, trace: DmpTrace, steps, weights) -> np.ndarray:
    """Gradient of ``-sum(weights * log_step)`` with respect to the
    couplings, by one backward sweep over the steps of ``trace``.

    ``steps[t-1]`` holds step t's ``(rho, h, cav_log, cav_t)`` as
    :func:`dmp._propagate` hands them out.  The sweep transposes, term by
    term, the linearization that :func:`dmp_forward_with_gradients` runs
    forward, with the messages' tangents taken in the basis
    ``(d theta, gap = d phi - rho_next d theta)``: the gap is what enters
    ``d rho``.  In that basis the adjoint of theta stays of the order of
    the messages where the adjoint of phi grows like ``1 / theta``, and the
    coefficients that cancel at ``rho = 1`` (an edge out of a source) are
    formed before they multiply the large gap adjoint, so they cancel
    exactly.
    """
    T, E = trace.horizon, net.n_edges
    rho, h, cav_log, cav = (np.array(arr) for arr in zip(*steps))  # (T, E); row t-1 is step t
    theta, phi = trace.theta[:T], trace.phi[:T]                      # the messages step t reads
    rho_next = np.zeros_like(rho)                                    # no step T+1: its adjoints are 0
    rho_next[:-1] = rho[1:]
    # step t in the basis (d theta, gap), with a = alpha / theta (0 where theta = 0):
    #   d h = a gap + rho d alpha,  d log1p(-h) = -d h / (1 - h),
    #   d theta[t] = (1 - h) d theta - theta d h,
    #   d drop = -cav_t (cavity_sum @ d log1p(-h)) - expm1(cav_log) d cav_prev,
    #   d cav_t = d cav_prev - d drop (cav_t = cav_prev exp(cav_log) in the forward pass),
    #   d log_step[t] = in_edge_sum @ d log1p(-h),
    #   gap[t] = (1 - alpha + gap_h a) gap + gap_theta d theta + ps0_src d drop + gap_alpha d alpha
    keep_rate = 1.0 - alpha
    keep = 1.0 - h
    gap_theta = keep_rate * rho - rho_next * keep
    gap_alpha = rho * rho_next * theta - phi
    gap_h = rho_next * theta
    a = alpha * np.divide(1.0, theta, out=np.zeros_like(theta), where=theta > 0.0)
    drop_cav = np.expm1(cav_log)
    keep_seed = np.ascontiguousarray((net.in_edge_sum.T @ -weights[1:].T).T)  # log_step's seed on log1p(-h)
    ps0_src = trace.initial_susceptible[net.edge_src]
    cavity_sum_t = net.cavity_sum.T
    theta_bar, gap_bar, cav_bar = np.zeros(E), np.zeros(E), np.zeros(E)
    h_bars, gap_bars = np.empty((T, E)), np.empty((T, E))
    for i in range(T - 1, -1, -1):
        drop_bar = ps0_src * gap_bar - cav_bar
        keep_bar = keep_seed[i] - cavity_sum_t @ (cav[i] * drop_bar)
        cav_bar -= drop_cav[i] * drop_bar
        h_bar = -theta[i] * theta_bar - keep_bar / keep[i]
        h_bars[i], gap_bars[i] = h_bar, gap_bar
        h_bar += gap_h[i] * gap_bar
        theta_bar = keep[i] * theta_bar + gap_theta[i] * gap_bar
        gap_bar = keep_rate * gap_bar + a[i] * h_bar
    return (rho * h_bars + gap_alpha * gap_bars).sum(axis=0)


def _group_free_energy(net: Network, alpha: np.ndarray, horizon: int, summ: GroupSummary, with_gradient: bool):
    """One group's per-window contributions and, when asked, the gradient
    of their sum (None otherwise)."""
    ps0 = initial_susceptible(net, summ.sources)
    if not with_gradient:
        trace = _propagate(net, alpha, ps0, horizon)
        return -summ.counts * _window_log_prob(trace, summ)[0], None
    steps = []
    trace = _propagate(net, alpha, ps0, horizon, on_step=lambda t, _trace, *step: steps.append(step))
    contrib, weights = _window_weights(trace, summ)
    return contrib, _log_step_adjoint(net, alpha, trace, steps, weights)


@contextmanager
def _group_map(threads: int, n_groups: int):
    """A ``map`` over source groups: a pool of ``threads`` workers, open
    for the ``with`` block, when there is more than one of each, else the
    builtin.  Either returns results in input order."""
    if threads > 1 and n_groups > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield pool.map
    else:
        yield map


def _dataset_free_energy(
    summaries: Sequence[GroupSummary],
    net: Network,
    couplings,
    horizon: int,
    map_groups=map,
    with_gradient: bool = True,
) -> tuple[float, np.ndarray | None, list[np.ndarray]]:
    """``(value, gradient, per-group window contributions)`` summed over
    source groups.

    Groups are mapped with ``map_groups`` and reduced in input order, so
    the result does not depend on how the map runs; the gradient is None
    without ``with_gradient``.
    """
    alpha = validate_couplings(net, couplings)
    results = list(map_groups(
        lambda summ: _group_free_energy(net, alpha, horizon, summ, with_gradient), summaries
    ))
    value = 0.0
    gradient = np.zeros(net.n_edges) if with_gradient else None
    for contrib, grad in results:
        value += float(contrib.sum())
        if with_gradient:
            gradient += grad
    return value, gradient, [contrib for contrib, _ in results]


def observed_negative_log_likelihood(
    dataset: Sequence[ObservedCascade],
    net: Network,
    couplings,
) -> float:
    """Free energy of a dataset: sum over observed nodes of
    ``-log P(observation window)`` under the message-passing marginals."""
    horizon = _common_horizon(dataset)
    return _dataset_free_energy(summarize_dataset(dataset), net, couplings, horizon, with_gradient=False)[0]


def free_energy_gradient(
    dataset: Sequence[ObservedCascade],
    net: Network,
    couplings,
    threads: int = 1,
) -> FreeEnergyReport:
    """Free energy and its exact gradient with respect to every coupling.

    One forward pass and one reverse sweep are run per distinct source set
    and shared by all cascades in that group.  Group results are reduced
    in a fixed order, so the output is identical for any ``threads`` value.
    """
    horizon = _common_horizon(dataset)
    summaries = summarize_dataset(dataset)
    with _group_map(threads, len(summaries)) as map_groups:
        value, gradient, contribs = _dataset_free_energy(summaries, net, couplings, horizon, map_groups)
    per_node: dict[int, float] = {}
    for summ, contrib in zip(summaries, contribs):
        for node, c in zip(summ.nodes, contrib):
            per_node[int(node)] = per_node.get(int(node), 0.0) + float(c)
    return FreeEnergyReport(value, gradient, per_node)


def population_free_energy(
    net: Network,
    couplings_star,
    couplings,
    sources,
    horizon: int,
    observed: Sequence[int] | None = None,
) -> tuple[float, np.ndarray]:
    """Infinite-sample limit of the free energy for one initial condition.

    The data distribution is generated by ``couplings_star``; the model is
    evaluated at ``couplings``.  Returns (value, gradient).  On a tree the
    gradient vanishes at ``couplings == couplings_star`` because the
    activation masses and the final susceptibility sum to one identically.
    """
    ref = dmp_forward(net, couplings_star, sources, horizon)
    T = horizon
    nodes = np.arange(net.n_nodes) if observed is None else np.asarray(observed, dtype=np.intp)
    # window (t-1, t] weighted by the reference activation mass at t, and
    # the censored window (T-1, T] by the reference survival to T-1
    mass = np.concatenate([ref.p_activate[1:T], ref.p_susceptible[T - 1 : T]])[:, nodes]
    t_idx, row = np.nonzero(mass > 0.0)
    summ = GroupSummary(
        tuple(np.flatnonzero(ref.initial_susceptible == 0.0).tolist()),
        nodes[row], t_idx.astype(np.int64), t_idx.astype(np.int64) + 1, mass[t_idx, row], 0,
    )
    value, gradient, _ = _dataset_free_energy([summ], net, couplings, horizon)
    return value, gradient
