"""Forward dynamic message passing for the discrete-time SI model.

The engine propagates two quantities per directed edge (k, i):

- ``theta[t, e]``: probability that no activation signal has crossed the
  edge by time t;
- ``phi[t, e]``: probability that k is already active but the signal has
  not crossed the edge yet.

Node marginals follow as products of incoming ``theta`` messages:
``p_susceptible[t, i]`` is the probability that i is still susceptible at
time t, and ``p_activate[t, i]`` the probability that it activates exactly
at step t.  The scheme is exact when the graph is a tree and yields a
lower bound on susceptibility probabilities otherwise; the subset-state
oracle in this module provides the exact reference for small graphs.

Each step is driven by the per-edge transmission hazard
``h = alpha * phi / theta`` (the chance that the signal crosses now, given
that it has not crossed yet): ``theta`` shrinks by the factor ``1 - h`` and
``phi`` gains the drop of the source's cavity susceptibility, written as
``cavity * -expm1(sum log1p(-h))`` over the cavity edges.  Every term is a
product or sum of non-negative numbers, so messages stay in [0, 1],
``theta`` and ``p_susceptible`` never increase, and no susceptibility drop
is formed as a difference of nearly equal numbers.

The products of ``theta`` over a node's in-edges and over an edge's
cavity advance by one step from the sums of ``log1p(-h)`` over the same
edges (``log_step`` for the in-edges), taken with the sparse 0/1 matrices
``Network.in_edge_sum`` and ``Network.cavity_sum``:
``p_susceptible[t] = p_susceptible[t-1] * exp(log_step[t])``, and likewise
for the cavity products.  This is the recursion that both gradient modes
differentiate, and the free energy takes window probabilities from
``log_step`` in the log domain.

The recursion runs on a trailing axis of G initial conditions at once:
every message and marginal array carries one column per source group,
so that one pass over a chunk of groups costs one sparse product per
step for all of them.  A single run, :func:`dmp_forward`, is the G = 1
case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DatasetError
from .graph import Network, validate_couplings
from .cascades import Cascade, _as_source_array

__all__ = [
    "DmpTrace",
    "dmp_forward",
    "activation_marginal",
    "exact_marginals_oracle",
    "exact_cascade_probability",
]


@dataclass(frozen=True, eq=False)
class DmpTrace:
    """Full message and marginal history of one forward run.

    Inside the batched recursion every array carries a trailing axis of
    G source groups; :meth:`column` gives one group's run with the shapes
    below.
    """

    horizon: int
    initial_susceptible: np.ndarray  # (N,) indicator: 0 at sources, 1 elsewhere
    theta: np.ndarray                # (T+1, |E|)
    phi: np.ndarray                  # (T+1, |E|)
    p_susceptible: np.ndarray        # (T+1, N)
    p_activate: np.ndarray           # (T+1, N); row 0 is 1 - initial_susceptible
    # (T+1, N): the sum of log(1 - hazard) over in-edges at step t, so that
    # p_susceptible[t] = p_susceptible[t-1] * exp(log_step[t]); row 0 is 0
    log_step: np.ndarray

    def column(self, g: int) -> DmpTrace:
        """The run of source group ``g`` of a batched trace."""
        return DmpTrace(self.horizon, self.initial_susceptible[:, g], self.theta[..., g], self.phi[..., g],
                        self.p_susceptible[..., g], self.p_activate[..., g], self.log_step[..., g])


def initial_susceptible(net: Network, sources) -> np.ndarray:
    """Indicator vector of "not a source"."""
    src = _as_source_array(net, sources)
    out = np.ones(net.n_nodes)
    out[src] = 0.0
    return out


def dmp_forward(net: Network, couplings, sources, horizon: int) -> DmpTrace:
    """Run the forward message-passing recursion up to ``horizon``."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    alpha = validate_couplings(net, couplings)
    return _propagate(net, alpha, initial_susceptible(net, sources)[:, None], horizon).column(0)


def _propagate(net: Network, alpha: np.ndarray, ps0: np.ndarray, horizon: int, on_step=None) -> DmpTrace:
    """The recursion behind :func:`dmp_forward`, on validated inputs, for
    the G source groups whose initial susceptibilities are the columns of
    ``ps0`` (N, G); every array of the trace has a trailing axis of G.

    After step t is filled in, ``on_step(t, trace, rho, h, cav_log, cav_t)``
    is called when given, with the step's per-edge ``rho = phi / theta``
    (the chance that the source is active given no crossing yet) and hazard
    ``h = alpha * rho``, the cavity sums ``cav_log`` of ``log1p(-h)`` and the
    cavity products ``cav_t = cav_prev * exp(cav_log)`` at t, each (|E|, G).
    """
    T, E, N, G = horizon, net.n_edges, net.n_nodes, ps0.shape[1]
    theta = np.ones((T + 1, E, G))
    phi = np.empty((T + 1, E, G))
    phi[0] = 1.0 - ps0[net.edge_src]
    p_s = np.empty((T + 1, N, G))
    p_s[0] = ps0
    m = np.empty((T + 1, N, G))
    m[0] = 1.0 - ps0
    trace = DmpTrace(T, ps0, theta, phi, p_s, m, np.zeros((T + 1, N, G)))

    alpha = alpha[:, None]
    ps0_src = ps0[net.edge_src]
    cav_prev = np.ones((E, G))
    for t in range(1, T + 1):
        # rho is 0 once theta is 0, and capped at 1 against rounding
        rho = np.divide(phi[t - 1], theta[t - 1], out=np.zeros((E, G)), where=theta[t - 1] > 0.0)
        np.minimum(rho, 1.0, out=rho)
        h = alpha * rho
        with np.errstate(divide="ignore"):  # h == 1 only when alpha == 1
            log_keep = np.log1p(-h)
        theta[t] = theta[t - 1] * (1.0 - h)
        cav_log = net.cavity_sum @ log_keep
        phi[t] = (1.0 - alpha) * phi[t - 1] - ps0_src * cav_prev * np.expm1(cav_log)
        cav_t = cav_prev * np.exp(cav_log)
        trace.log_step[t] = net.in_edge_sum @ log_keep
        p_s[t] = p_s[t - 1] * np.exp(trace.log_step[t])
        m[t] = p_s[t - 1] - p_s[t]
        if on_step is not None:
            on_step(t, trace, rho, h, cav_log, cav_t)
        cav_prev = cav_t
    return trace


def activation_marginal(trace: DmpTrace, node: int, t: int) -> float:
    """Probability that ``node`` activates exactly at step ``t``."""
    if not 0 <= t <= trace.horizon:
        raise ValueError(f"time {t} outside [0, {trace.horizon}]")
    return float(trace.p_activate[t, node])


# ---------------------------------------------------------------------------
# exact reference for small graphs


def _infection_probs(in_edges, in_srcs, one_minus_alpha, mask, j):
    p_stay = 1.0
    for e, k in zip(in_edges[j], in_srcs[j]):
        if (mask >> k) & 1:
            p_stay *= one_minus_alpha[e]
    return 1.0 - p_stay


def exact_marginals_oracle(net: Network, couplings, sources, horizon: int) -> np.ndarray:
    """Exact susceptibility marginals, shape (horizon+1, N).

    Evolves the full probability distribution over infected subsets of the
    synchronous SI chain, so memory and work grow with the number of
    reachable subsets (worst case 2^N).  Intended for N up to ~12; refuses
    N > 20.
    """
    if net.n_nodes > 20:
        raise CapacityError(f"exact oracle limited to 20 nodes, got {net.n_nodes}")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    alpha = validate_couplings(net, couplings)
    src = _as_source_array(net, sources)
    N = net.n_nodes
    one_minus_alpha = 1.0 - alpha
    in_edges = [net.in_edges(i) for i in range(N)]
    in_srcs = [net.edge_src[net.in_edges(i)] for i in range(N)]
    # nodes whose infection probability can ever be positive given the mask
    in_bits = np.zeros(N, dtype=np.int64)
    for i in range(N):
        for e, k in zip(in_edges[i], in_srcs[i]):
            if alpha[e] > 0.0:
                in_bits[i] |= np.int64(1) << np.int64(k)

    mask0 = 0
    for s in src:
        mask0 |= 1 << int(s)

    out = np.empty((horizon + 1, N))
    dist: dict[int, float] = {mask0: 1.0}
    out[0] = _susceptible_marginals(dist, N)
    for t in range(1, horizon + 1):
        new_dist: dict[int, float] = {}
        for mask, prob in dist.items():
            frontier = [
                j
                for j in range(N)
                if not (mask >> j) & 1 and (in_bits[j] & mask)
            ]
            pjs = [
                _infection_probs(in_edges, in_srcs, one_minus_alpha, mask, j)
                for j in frontier
            ]
            masks = [mask]
            probs = [prob]
            for j, pj in zip(frontier, pjs):
                bit = 1 << j
                if pj <= 0.0:
                    continue
                if pj >= 1.0:
                    masks = [m | bit for m in masks]
                    continue
                qj = 1.0 - pj
                masks = masks + [m | bit for m in masks]
                probs = [pr * qj for pr in probs] + [pr * pj for pr in probs]
            for m_, pr in zip(masks, probs):
                new_dist[m_] = new_dist.get(m_, 0.0) + pr
        dist = new_dist
        out[t] = _susceptible_marginals(dist, N)
    return out


def _susceptible_marginals(dist: dict[int, float], n: int) -> np.ndarray:
    masks = np.fromiter(dist.keys(), dtype=np.int64, count=len(dist))
    probs = np.fromiter(dist.values(), dtype=np.float64, count=len(dist))
    out = np.empty(n)
    for i in range(n):
        out[i] = probs[((masks >> i) & 1) == 0].sum()
    return out


def exact_cascade_probability(net: Network, couplings, cascade: Cascade) -> float:
    """Probability of a recorded activation-time vector under the chain.

    The recorded times determine the full state path (censored nodes stay
    susceptible through step horizon-1), so the probability is the product
    of one-step transition factors.  Independent of any likelihood formula:
    uses only the chain's per-step infection probabilities.
    """
    T = cascade.horizon
    times = np.asarray(cascade.times)
    if times.shape[0] != net.n_nodes:
        raise DatasetError("cascade does not match the network")
    alpha = validate_couplings(net, couplings)
    one_minus_alpha = 1.0 - alpha
    in_edges = [net.in_edges(i) for i in range(net.n_nodes)]
    in_srcs = [net.edge_src[net.in_edges(i)] for i in range(net.n_nodes)]
    prob = 1.0
    for t in range(T - 1):
        mask = 0
        for i in range(net.n_nodes):
            if times[i] <= t:
                mask |= 1 << i
        for j in range(net.n_nodes):
            if times[j] <= t:
                continue
            pj = _infection_probs(in_edges, in_srcs, one_minus_alpha, mask, j)
            prob *= pj if times[j] == t + 1 else 1.0 - pj
            if prob == 0.0:
                return 0.0
    return prob
