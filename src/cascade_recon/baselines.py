"""Likelihood-based reference methods for coupling reconstruction.

Three levels of fidelity to the exact likelihood:

- :func:`batch_full_log_likelihood` / :func:`netrate_fit`: exact
  log-likelihood of completely observed cascades and its per-node convex
  maximization (the likelihood factorizes over nodes, so each node's
  incoming couplings are fit independently).  Both take their terms from
  array passes over an (M, N) matrix of recorded times;
  :func:`full_log_likelihood` is one row of the batch.
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

from .errors import CapacityError, DatasetError
from .graph import Network, _ranges, validate_couplings
from .cascades import (
    _PASS_BYTES,
    _SAMPLE_ROWS,
    Cascade,
    CascadeTable,
    MaskSpec,
    ObservedCascade,
    _bit_words,
    _checked,
    _exact_codes,
    _group_rows,
    _source_groups,
    _table,
    cascade_substream,
    sample_recorded_times,
)
from .fit import FitConfig, FitResult, identifiable_edges, projected_gradient_descent

__all__ = [
    "HtsConfig",
    "full_log_likelihood",
    "batch_full_log_likelihood",
    "netrate_fit",
    "marginalized_likelihood",
    "hts_fit",
    "MAX_COMPLETIONS",
]

MAX_COMPLETIONS = 10**6  # most hidden-time completions that marginalized_likelihood sums

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
    """Exact log-probability of a completely observed cascade: its row of
    :func:`batch_full_log_likelihood`, with ``-inf`` for an unrealizable
    time vector (a row below -1e11)."""
    return _or_impossible(float(batch_full_log_likelihood(net, couplings, cascade.times[None], cascade.horizon)[0]))


def _or_impossible(ll: float) -> float:
    """``ll``, or ``-inf`` when it is below -1e11: it then holds the -1e12
    stand-in of an unrealizable cascade."""
    return ll if ll >= -1e11 else float("-inf")


def _full_terms(net: Network, times: np.ndarray, horizon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact likelihood's terms for int64 rows of recorded times (M, N):

    - (M, |E|) the steps each edge's source was active without
      transmitting, before its destination's recorded step (or T - 1);
    - (M, |E|) whether each edge's source was active before its
      destination's recorded step;
    - (M, N) which nodes activated before the horizon.
    """
    esrc, edst = net.edge_src, net.edge_dst
    end = np.where(times < horizon, times - 1, horizon - 1)
    counts = np.clip(end[:, edst] - times[:, esrc], 0, None)
    parent_ok = times[:, esrc] <= times[:, edst] - 1
    activates = (times > 0) & (times < horizon)
    return counts, parent_ok, activates


def batch_full_log_likelihood(net: Network, couplings, times: np.ndarray, horizon: int) -> np.ndarray:
    """Exact log-probability of each row of an (M, N) matrix of completely
    observed recorded times.

    Every non-source node contributes survival factors for each step its
    active in-neighbors failed to transmit, times (for an activation before
    the horizon) the probability that at least one of those active a step
    earlier succeeded.  Sources are conditioned on and contribute nothing.
    Unrealizable rows come back around -1e12 instead of -inf so that sums
    and argmax stay NaN-free; anything below -1e11 means impossible.  The
    rows run in blocks whose (rows, |E|) terms fit ``_PASS_BYTES``, so the
    memory does not grow with M.  Each row is summed alone (C order, no
    matrix product), so its bits do not depend on the batch.  A time
    outside [0, T] is a :class:`DatasetError`, as in a :class:`Cascade`.
    """
    alpha = validate_couplings(net, couplings)
    times = np.asarray(times, dtype=np.int64)
    if times.ndim != 2 or times.shape[1] != net.n_nodes:
        raise DatasetError("cascade does not match the network")
    # the least and the greatest time stand for all of them: no (M, N) temporaries
    _checked(_exact_codes(np.array([times.min(initial=0), times.max(initial=0)]), horizon), horizon)
    with np.errstate(divide="ignore"):
        log_surv = np.log1p(-alpha)
    log_surv = np.where(np.isfinite(log_surv), log_surv, _NEG_BIG)
    total = np.empty(len(times))
    step = _block_rows(net)
    for a in range(0, len(times), step):
        counts, parent_ok, activates = _full_terms(net, times[a:a + step], horizon)
        # activation factor log(1 - prod(1 - alpha)) over the parents active by tau - 1
        stay = net._in_sum((parent_ok * log_surv).T).T
        with np.errstate(divide="ignore", invalid="ignore"):
            log_act = np.where(stay < 0.0, np.log(-np.expm1(np.maximum(stay, _NEG_BIG))), _NEG_BIG)
        total[a:a + step] = np.multiply(counts, log_surv, order="C").sum(axis=1) + np.where(activates, log_act, 0.0).sum(axis=1)
    return total


def _block_rows(net: Network) -> int:
    """Rows of the blocks of the batch and of NetRate: their (rows, |E|) terms fit ``_PASS_BYTES``."""
    return max(1, _PASS_BYTES // (8 * max(1, net.n_edges)))


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
    table = _table(dataset, net)
    if not table.is_fully_observed():
        raise DatasetError("method requires completely observed cascades")
    return _netrate(net, table.hi, table.horizon, config)


def _netrate(net: Network, times: np.ndarray, horizon: int, config: FitConfig) -> np.ndarray:
    """:func:`netrate_fit` on an (M, N) matrix of recorded times.

    Node i's block of the negative log-likelihood, with ``s`` the summed
    survival steps of its in-edges and each distinct set of parents active
    at its activations a 0/1 row of ``sets`` seen ``mult`` times, is
    ``-s.log(1 - a) - mult.log(1 - exp(sets @ log(1 - a)))``.  An empty
    parent set is an impossible event that no coupling changes, so it is
    left out.

    The terms come from the row blocks that
    :func:`batch_full_log_likelihood` walks, so no (M, |E|) array is held:
    each block adds its survival steps, and appends its activations'
    parent flags, in row order, to each edge's run of one flat array.  The
    runs follow the nodes' in-edges in turn, so a node's flags are one
    (in-degree, activations) slice of it.
    """
    step = _block_rows(net)
    by_dst, ptr = net._in_order, net._in_ptr                # node by node, each node's in_edges
    dst = net.edge_dst[by_dst]
    activations = np.zeros(net.n_nodes, dtype=np.int64)
    for a in range(0, len(times), step):
        rows = times[a:a + step]
        activations += np.count_nonzero((rows > 0) & (rows < horizon), axis=0)
    run = activations[dst]                                  # the flags of each edge's run
    start = np.concatenate(([0], np.cumsum(run)))           # where each run begins, and the end
    filled = start[:-1].copy()                              # where each run's next flag goes
    flags = np.empty(int(start[-1]), dtype=bool)
    surv = np.zeros(net.n_edges, dtype=np.int64)
    for a in range(0, len(times), step):
        counts, parent_ok, activates = _full_terms(net, times[a:a + step], horizon)
        surv += counts.sum(axis=0)
        took = activates[:, dst].T
        n_took = np.count_nonzero(took, axis=1)
        flags[_ranges(filled, filled + n_took)] = parent_ok[:, by_dst].T[took]
        filled += n_took
    surv = surv.astype(np.float64)
    alpha = np.full(net.n_edges, config.alpha_init)
    for i in np.flatnonzero(np.diff(ptr)).tolist():          # the nodes with in-edges
        block = net.in_edges(i)
        s = surv[block]
        node_flags = flags[start[ptr[i]]:start[ptr[i + 1]]].reshape(block.size, -1).T
        first, which = _group_rows(_bit_words(node_flags))
        sets = node_flags[first]
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
            value_and_grad, lambda a: value_and_grad(a, gradient=False), x0, config
        )[0]
    return alpha


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
) -> float:
    """Log of the exact likelihood summed over all hidden-time completions.

    Hidden nodes range over [1, T]; interval-observed nodes range over
    their windows.  An observation that no completion realizes is
    ``-inf``, as in :func:`full_log_likelihood`.  Work grows as the
    product of the candidate counts; above :data:`MAX_COMPLETIONS` (10^6)
    a CapacityError points at the two-stage heuristic instead.
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
        if total > MAX_COMPLETIONS:
            raise CapacityError(
                f"{total}+ completions exceed the brute-force budget "
                f"({MAX_COMPLETIONS}); use the two-stage heuristic"
            )
    base = np.array([c[0] for c in cand], dtype=np.int64)
    if not free:
        return full_log_likelihood(Cascade(observed.horizon, base), net, alpha)
    dims = tuple(len(cand[i]) for i in free)
    parts = []
    for start in range(0, total, _SAMPLE_ROWS):
        stop = min(start + _SAMPLE_ROWS, total)
        idx = np.unravel_index(np.arange(start, stop), dims)
        times = np.tile(base, (stop - start, 1))
        for pos, i in enumerate(free):
            times[:, i] = np.asarray(cand[i], dtype=np.int64)[idx[pos]]
        lls = batch_full_log_likelihood(net, alpha, times, observed.horizon)
        parts.append(_logsumexp(lls))
    return _or_impossible(_logsumexp(np.array(parts)))


def _logsumexp(a: np.ndarray) -> float:
    """``log(sum(exp(a)))`` of a 1-D array as SciPy 1.17 takes it: ``log1p(s
    / m) + log(m) + max`` for m maxima and s = sum of the others' exp(a -
    max), and the direct form where that is not finite."""
    top = a.max()
    m = float(np.count_nonzero(a == top))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.log1p(np.exp(np.where(a == top, -np.inf, a) - top).sum() / m) + np.log(m) + top
        return float(out if np.isfinite(out) else np.log(np.exp(a).sum()))


# ---------------------------------------------------------------------------
# two-stage completion baseline


def _completed_times(table: CascadeTable, net: Network, alpha: np.ndarray, config: HtsConfig, rnd: int,
                     groups: list[tuple[tuple[int, ...], np.ndarray]], unresolved: np.ndarray) -> np.ndarray:
    """The recorded times of ``table`` as an (M, N) matrix with the times
    of its ``unresolved`` nodes imputed from auxiliary cascades, for the
    ``groups`` of :func:`_unresolved_groups`, which :func:`hts_fit` takes
    once a fit.

    Each cascade that has an unresolved node gets ``aux_samples`` cascades
    simulated from its observed source set under ``alpha``; among those
    with the fewest window violations (all of them inside every window,
    when any is) the most likely supplies the missing times.  Each source
    group draws round ``rnd``'s samples from its own Philox key, in dataset
    order; only the samples in a cascade's pool are scored."""
    horizon, lo, hi, hidden = table.horizon, table.lo, table.hi, table.hidden
    times = hi.copy()
    L = config.aux_samples
    for g_idx, (sources, rows) in enumerate(groups):
        if not rows.size:
            continue
        rng = cascade_substream(config.seed, (rnd << 32) | g_idx)
        samples = sample_recorded_times(net, alpha, sources, horizon, L * rows.size, rng).reshape(rows.size, L, -1)
        # hidden nodes violate nothing; the pool is each cascade's fewest
        # violations, and its first most likely sample wins
        inside = hidden[rows, None] | ((lo[rows, None] < samples) & (samples <= hi[rows, None]))
        violations = (~inside).sum(axis=2)
        pool = violations == violations.min(axis=1, keepdims=True)
        scores = np.full(pool.shape, -np.inf)
        scores[pool] = batch_full_log_likelihood(net, alpha, samples[pool], horizon)
        best = np.argmax(scores, axis=1)
        times[rows] = np.where(unresolved[rows], samples[np.arange(rows.size), best], hi[rows])
    return times


def _unresolved_groups(table: CascadeTable) -> tuple[list[tuple[tuple[int, ...], np.ndarray]], np.ndarray]:
    """Each source group of :func:`cascades._source_groups` as its set and
    the rows of its cascades that have an unresolved node (hidden, or not
    pinned by its window), and the (M, N) flags of those nodes."""
    unresolved = table.hidden | (table.hi - table.lo >= 2)
    keys, group_of = _source_groups(table)
    needs = unresolved.any(axis=1)
    return [(sources, np.flatnonzero((group_of == g_idx) & needs)) for g_idx, sources in enumerate(keys)], unresolved


def hts_fit(
    dataset: CascadeTable | Sequence[ObservedCascade],
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
    table = _table(dataset, net)
    horizon = table.horizon

    hidden_everywhere = table.hidden.all(axis=0)
    frozen = np.ones(net.n_edges, dtype=bool)
    frozen[identifiable_edges(net, MaskSpec(frozenset(np.flatnonzero(hidden_everywhere).tolist())))] = False

    start = time.perf_counter()
    alpha = np.full(net.n_edges, fit_cfg.alpha_init)
    trajectory: list[float] = []
    converged = False
    rounds_done = 0
    groups, unresolved = _unresolved_groups(table)
    for rnd in range(config.outer_rounds):
        times = _completed_times(table, net, alpha, config, rnd, groups, unresolved)
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
