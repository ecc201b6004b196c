"""Likelihood-based reference methods for coupling reconstruction.

Three levels of fidelity to the exact likelihood:

- :func:`full_log_likelihood` / :func:`netrate_fit`: exact log-likelihood
  of completely observed cascades and its per-node convex maximization
  (the likelihood factorizes over nodes, so each node's incoming couplings
  are fit independently).  The batched likelihood and the fit take their
  terms from one array pass over an (M, N) matrix of recorded times.
- :func:`marginalized_likelihood`: the exact likelihood summed over all
  completions of the unobserved activation times; brute force, feasible
  only for a handful of hidden nodes.
- :func:`hts_fit`: the heuristic two-stage baseline, alternating Monte
  Carlo completion of the missing times (keep the most likely consistent
  auxiliary cascade) with the full-information fit on the completed
  recorded-times matrix.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import CapacityError, DatasetError
from .graph import Network, validate_couplings
from .cascades import (
    _MASK64,
    Cascade,
    MaskSpec,
    ObservedCascade,
    _bit_words,
    _common_horizon,
    _group_rows,
    _source_groups,
    sample_recorded_times,
)
from .fit import FitConfig, FitResult, identifiable_edges, projected_gradient_descent

__all__ = [
    "HtsConfig",
    "full_log_likelihood",
    "batch_full_log_likelihood",
    "netrate_fit",
    "marginalized_likelihood",
    "hts_complete",
    "hts_fit",
]

_NEG_BIG = -1e12  # stands in for log(0) where -inf would poison matmuls


@dataclass(frozen=True)
class HtsConfig:
    """Settings for the two-stage completion baseline."""

    aux_samples: int = 1000      # auxiliary cascades drawn per cascade per round
    outer_rounds: int = 10
    param_tol: float = 1e-3      # L-inf change of couplings declaring convergence
    seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)

    def validate(self) -> None:
        self.fit.validate()
        if self.aux_samples < 1:
            raise ValueError("aux_samples must be >= 1")
        if self.outer_rounds < 0:
            raise ValueError("outer_rounds must be >= 0")
        if not 0.0 < self.param_tol < math.inf:
            raise ValueError("param_tol must be positive and finite")


# ---------------------------------------------------------------------------
# exact full-information likelihood


def full_log_likelihood(cascade: Cascade, net: Network, couplings) -> float:
    """Exact log-probability of a completely observed cascade.

    Every non-source node contributes survival factors for each step its
    infected in-neighbors failed to transmit, times (for an activation
    before the horizon) the probability that at least one succeeded at the
    recorded step.  Sources are conditioned on and contribute nothing.
    Returns ``-inf`` for unrealizable time vectors.
    """
    alpha = validate_couplings(net, couplings)
    T = cascade.horizon
    times = cascade.times
    if times.shape[0] != net.n_nodes:
        raise DatasetError("cascade does not match the network")
    total = 0.0
    for i in range(net.n_nodes):
        tau = int(times[i])
        if tau == 0:
            continue
        end = tau - 1 if tau < T else T - 1
        act_stay = 1.0
        for e in net.in_edges(i):
            tk = int(times[net.edge_src[e]])
            steps = end - tk
            if steps > 0:
                if alpha[e] >= 1.0:
                    return float("-inf")
                total += steps * np.log1p(-alpha[e])
            if tau < T and tk <= tau - 1:
                act_stay *= 1.0 - alpha[e]
        if tau < T:
            if act_stay >= 1.0:
                return float("-inf")  # no infected in-neighbor could have fired
            total += np.log1p(-act_stay)
    return float(total)


def _full_terms(net: Network, times: np.ndarray, horizon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact likelihood's terms for rows of recorded times (M, N):

    - (M, |E|) the steps each edge's source was active without
      transmitting, before its destination's recorded step (or T - 1);
    - (M, |E|) whether each edge's source was active before its
      destination's recorded step;
    - (M, N) which nodes activated before the horizon.
    """
    times = np.asarray(times, dtype=np.int64)
    esrc, edst = net.edge_src, net.edge_dst
    end = np.where(times < horizon, times - 1, horizon - 1)
    counts = np.clip(end[:, edst] - times[:, esrc], 0, None)
    parent_ok = times[:, esrc] <= times[:, edst] - 1
    activates = (times > 0) & (times < horizon)
    return counts, parent_ok, activates


def batch_full_log_likelihood(net: Network, couplings, times: np.ndarray, horizon: int) -> np.ndarray:
    """Vectorized :func:`full_log_likelihood` over rows of recorded times.

    Unrealizable rows come back around -1e12 instead of -inf so that sums
    and argmax stay NaN-free; anything below -1e11 means impossible.
    """
    alpha = validate_couplings(net, couplings)
    with np.errstate(divide="ignore"):
        log_surv = np.log1p(-alpha)
    log_surv = np.where(np.isfinite(log_surv), log_surv, _NEG_BIG)
    counts, parent_ok, activates = _full_terms(net, times, horizon)
    total = counts @ log_surv

    # activation factor log(1 - prod(1 - alpha)) over parents active by tau-1
    stay = (parent_ok * log_surv[None, :]) @ net.in_edge_sum.T
    with np.errstate(divide="ignore", invalid="ignore"):
        log_act = np.where(stay < 0.0, np.log(-np.expm1(np.maximum(stay, _NEG_BIG))), _NEG_BIG)
    total = total + np.where(activates, log_act, 0.0).sum(axis=1)
    return total


def netrate_fit(dataset, net: Network, config: FitConfig | None = None) -> np.ndarray:
    """Maximum-likelihood couplings from completely observed cascades.

    The exact negative log-likelihood separates into one convex problem
    per node over its incoming couplings; each block is minimized by
    projected gradient descent inside ``[alpha_min, alpha_max]``.  A
    node's activations enter grouped by their exact sets of active
    parents, for any in-degree.
    """
    config = config or FitConfig()
    config.validate()
    times, T = _full_times_matrix(dataset)
    if times.shape[1] != net.n_nodes:
        raise DatasetError("dataset does not match the network")
    return _netrate(net, times, T, config)


def _netrate(net: Network, times: np.ndarray, horizon: int, config: FitConfig) -> np.ndarray:
    """:func:`netrate_fit` on an (M, N) matrix of recorded times.

    Node i's block of the negative log-likelihood, with ``s`` the summed
    survival steps of its in-edges and each distinct set of parents active
    at its activations a 0/1 row of ``sets`` seen ``mult`` times, is
    ``-s.log(1 - a) - mult.log(1 - exp(sets @ log(1 - a)))``.  An empty
    parent set is an impossible event that no coupling changes, so it is
    left out.
    """
    counts, parent_ok, activates = _full_terms(net, times, horizon)
    surv = counts.sum(axis=0).astype(np.float64)
    alpha = np.full(net.n_edges, config.alpha_init)
    for i in range(net.n_nodes):
        block = net.in_edges(i)
        if block.size == 0:
            continue
        s = surv[block]
        flags = parent_ok[:, block][activates[:, i]]
        first, which = _group_rows(_bit_words(flags))
        sets = flags[first]
        keep = sets.any(axis=1)
        sets = sets[keep].astype(np.float64)
        mult = np.bincount(which, minlength=first.size)[keep].astype(np.float64)

        def value_and_grad(a, gradient=True):
            log_surv = np.log1p(-a)
            log_stay = sets @ log_surv
            p_act = -np.expm1(log_stay)
            value = float(-(s @ log_surv) - mult @ np.log(p_act))
            if not gradient:
                return value
            return value, (s - sets.T @ (mult * np.exp(log_stay) / p_act)) / (1.0 - a)

        x0 = np.full(block.size, config.alpha_init)
        alpha[block] = projected_gradient_descent(
            value_and_grad, lambda a: value_and_grad(a, gradient=False),
            x0, config.alpha_min, config.alpha_max, config,
        )[0]
    return alpha


def _full_times_matrix(dataset) -> tuple[np.ndarray, int]:
    """Stack a fully observed dataset into an (M, N) recorded-time matrix."""
    horizon = _common_horizon(dataset)
    rows = []
    for item in dataset:
        if isinstance(item, Cascade):
            rows.append(item.times)
        else:
            if not item.is_fully_observed():
                raise DatasetError("method requires completely observed cascades")
            rows.append(item.hi)
    return np.stack(rows).astype(np.int64), horizon


# ---------------------------------------------------------------------------
# marginalized likelihood (brute force)


def _candidate_times(obs: ObservedCascade, i: int) -> range:
    if obs.hidden[i]:
        return range(1, obs.horizon + 1)  # sources are observed, so tau >= 1
    return range(int(obs.lo[i]) + 1, int(obs.hi[i]) + 1)


def marginalized_likelihood(
    observed: ObservedCascade,
    net: Network,
    couplings,
    max_completions: int = 10**6,
) -> float:
    """Log of the exact likelihood summed over all hidden-time completions.

    Hidden nodes range over [1, T]; interval-observed nodes range over
    their windows.  Work grows as the product of the candidate counts;
    above ``max_completions`` a CapacityError points at the two-stage
    heuristic instead.
    """
    alpha = validate_couplings(net, couplings)
    N = observed.n_nodes
    if N != net.n_nodes:
        raise DatasetError("cascade does not match the network")
    cand = [list(_candidate_times(observed, i)) for i in range(N)]
    free = [i for i in range(N) if len(cand[i]) > 1]
    total = 1
    for i in free:
        total *= len(cand[i])
        if total > max_completions:
            raise CapacityError(
                f"{total}+ completions exceed the brute-force budget "
                f"({max_completions}); use the two-stage heuristic"
            )
    base = np.array([c[0] for c in cand], dtype=np.int64)
    if not free:
        return full_log_likelihood(Cascade(observed.horizon, base), net, alpha)
    dims = tuple(len(cand[i]) for i in free)
    chunk = 65536
    parts = []
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        idx = np.unravel_index(np.arange(start, stop), dims)
        times = np.tile(base, (stop - start, 1))
        for pos, i in enumerate(free):
            times[:, i] = np.asarray(cand[i], dtype=np.int64)[idx[pos]]
        lls = batch_full_log_likelihood(net, alpha, times, observed.horizon)
        parts.append(logsumexp(lls))
    return float(logsumexp(parts))


# ---------------------------------------------------------------------------
# two-stage completion baseline


def hts_complete(
    dataset: Sequence[ObservedCascade],
    net: Network,
    couplings,
    config: HtsConfig | None = None,
    round_index: int = 0,
) -> list[dict[int, int]]:
    """Impute unresolved activation times from auxiliary cascades.

    For each cascade, ``aux_samples`` cascades are simulated from its
    observed source set under the current couplings; among the samples
    consistent with every observation window the most likely one supplies
    the missing times (falling back to the fewest-violations sample when
    none is consistent).  Returns one {node: time} dict per cascade, in
    dataset order.
    """
    config = config or HtsConfig()
    config.validate()
    alpha = validate_couplings(net, couplings)
    times, unresolved = _completed_times(dataset, net, alpha, config, round_index)
    return [
        dict(zip(np.flatnonzero(free).tolist(), row[free].tolist()))
        for row, free in zip(times, unresolved)
    ]


def _completed_times(dataset, net: Network, alpha: np.ndarray, config: HtsConfig, round_index: int):
    """The recorded times of ``dataset`` as an (M, N) matrix with the
    times of its unresolved nodes (hidden, or not pinned by their window)
    imputed as :func:`hts_complete` describes, and the (M, N) unresolved
    flags.  Each source group draws its samples from its own Philox key,
    ``aux_samples`` per cascade that has an unresolved node, in dataset
    order."""
    horizon = _common_horizon(dataset)
    lo, hi, hidden = (np.stack([getattr(obs, name) for obs in dataset]) for name in ("lo", "hi", "hidden"))
    unresolved = hidden | (hi - lo >= 2)
    keys, group_of = _source_groups(dataset)
    needs = unresolved.any(axis=1)
    times = hi.copy()
    L = config.aux_samples
    for g_idx, sources in enumerate(keys):
        rows = np.flatnonzero((group_of == g_idx) & needs)
        if not rows.size:
            continue
        key = ((config.seed & _MASK64) << 64) | ((round_index & _MASK64) << 32) | (g_idx & 0xFFFFFFFF)
        rng = np.random.Generator(np.random.Philox(key=key))
        samples = sample_recorded_times(net, alpha, sources, horizon, L * rows.size, rng)
        scores = batch_full_log_likelihood(net, alpha, samples, horizon).reshape(rows.size, L)
        samples = samples.reshape(rows.size, L, -1)
        # hidden nodes violate nothing; the pool is each cascade's fewest
        # violations, and its first most likely sample wins
        inside = hidden[rows, None] | ((lo[rows, None] < samples) & (samples <= hi[rows, None]))
        violations = (~inside).sum(axis=2)
        pool = violations == violations.min(axis=1, keepdims=True)
        best = np.argmax(np.where(pool, scores, -np.inf), axis=1)
        times[rows] = np.where(unresolved[rows], samples[np.arange(rows.size), best], hi[rows])
    return times, unresolved


def hts_fit(
    dataset: Sequence[ObservedCascade],
    net: Network,
    config: HtsConfig | None = None,
) -> FitResult:
    """Two-stage baseline: alternate Monte Carlo completion and the
    full-information fit until the couplings stop moving.

    Couplings that no data can constrain (in-edges of hidden nodes with no
    outgoing edge) are pinned at ``alpha_init``.
    """
    config = config or HtsConfig()
    config.validate()
    fit_cfg = config.fit
    horizon = _common_horizon(dataset)

    hidden_everywhere = np.logical_and.reduce([obs.hidden for obs in dataset])
    frozen = np.ones(net.n_edges, dtype=bool)
    frozen[identifiable_edges(net, MaskSpec(frozenset(np.flatnonzero(hidden_everywhere).tolist())))] = False

    start = time.perf_counter()
    alpha = np.full(net.n_edges, fit_cfg.alpha_init)
    trajectory: list[float] = []
    converged = False
    rounds_done = 0
    for rnd in range(config.outer_rounds):
        times, _ = _completed_times(dataset, net, alpha, config, rnd)
        alpha_new = _netrate(net, times, horizon, fit_cfg)
        alpha_new[frozen] = fit_cfg.alpha_init
        nll = -batch_full_log_likelihood(net, alpha_new, times, horizon).sum()
        trajectory.append(float(nll))
        delta = float(np.abs(alpha_new - alpha).max(initial=0.0))
        alpha = alpha_new
        rounds_done = rnd + 1
        if delta < config.param_tol:
            converged = True
            break
    wall = time.perf_counter() - start
    return FitResult(alpha, rounds_done, trajectory, converged, wall)
