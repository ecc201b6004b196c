"""Forward dynamic message passing for the discrete-time SI model.

The engine carries, per directed edge (k, i), the message ``theta[t, e]``,
the probability that no activation signal has crossed the edge by time
t, and the cavity product ``cav[t, e]`` of ``theta`` over k's other
in-edges, so that ``ps0_k * cav`` is the probability that k is still
susceptible at t with i left out (``ps0_k`` is 0 at a source, else 1).
On the SI model the second message of the general scheme, the
probability ``phi`` that k is active but the signal has not crossed yet,
is ``theta - ps0_k * cav`` (Lokhov, Mézard, Ohta & Zdeborová, PRE 2014,
at mu = 0), so it is not carried.

Node marginals follow as products of incoming ``theta`` messages:
``p_susceptible[t, i]`` is the probability that i is still susceptible at
time t, and ``p_activate[t, i]`` the probability that it activates exactly
at step t.  The scheme is exact when the graph is a tree and yields a
lower bound on susceptibility probabilities otherwise; the subset-state
oracle in this module provides the exact reference for small graphs.

Step t crosses each edge with the hazard ``alpha * rho``, where ``rho =
phi / theta`` at t-1, so the products over ``theta`` shrink by ``keep =
1 - alpha * rho``.  Both come from logarithms: ``1 - rho = exp(delta)``
with ``delta = log ps0_k + log cav - log theta``, and ``log keep`` is
``log1p(-alpha * rho)`` where the hazard is below 1/2 and ``log((1 -
alpha) + alpha * (1 - rho))`` elsewhere, each exact where it is taken.
``log theta`` gains ``log keep``, ``log cav`` its sum over the cavity
edges and ``log_step`` is its sum over the in-edges, with the sparse 0/1
matrices ``Network.cavity_sum`` and ``Network.in_edge_sum``; then
``p_susceptible[t] = p_susceptible[t-1] * exp(log_step[t])``.  No
``log keep`` is positive, so ``theta`` and ``p_susceptible`` never
increase.  Both gradient modes differentiate this recursion, and the free
energy takes window probabilities from ``log_step`` in the log domain.

The recursion runs on a trailing axis of G initial conditions at once:
every message and marginal array carries one column per source group,
so that one pass over a chunk of groups costs one sparse product per
step for all of them.  A single run, :func:`dmp_forward`, is the G = 1
case.  The recursion yields one state per step and keeps no history of
its own: :func:`dmp_forward` stacks the states into a :class:`DmpTrace`,
the free energy's value keeps only their ``log_step``, and its gradient
their ``rho`` and ``1 - rho`` as well.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DatasetError
from .graph import Network, validate_couplings
from .cascades import Cascade, _as_source_array, _check_horizon

__all__ = [
    "DmpTrace",
    "dmp_forward",
    "exact_marginals_oracle",
    "exact_cascade_probability",
]


@dataclass(frozen=True, eq=False)
class DmpTrace:
    """Full message and marginal history of one forward run: ``theta``,
    ``phi = theta * rho`` (k active, signal not crossed yet) and the
    marginals.

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
    _check_horizon(horizon)
    alpha = validate_couplings(net, couplings)
    ps0 = initial_susceptible(net, sources)[:, None]
    return _trace(ps0, list(_propagate(net, alpha, ps0, horizon))).column(0)


@dataclass(frozen=True, eq=False)
class _State:
    """The recursion at step t for G source groups, each array with a
    trailing axis of G: ``log theta``, the log cavity products and
    ``log_step`` at t, and the ``rho`` that step t+1 reads, with ``r = 1 -
    rho = exp(delta)``.  Where theta is 0, delta is held at 0: rho is 0
    there, and r, the rate ``-d rho / d delta`` that the reverse sweep
    reads, is 0 too."""

    log_theta: np.ndarray            # (|E|, G)
    log_cav: np.ndarray              # (|E|, G)
    log_step: np.ndarray             # (N, G)
    rho: np.ndarray                  # (|E|, G)
    r: np.ndarray                    # (|E|, G)


def _propagate(net: Network, alpha: np.ndarray, ps0: np.ndarray, horizon: int) -> Iterator[_State]:
    """Yield the :class:`_State` of each step t = 0..horizon of the
    recursion behind :func:`dmp_forward`, on validated inputs, for the G
    source groups whose initial susceptibilities are the columns of ``ps0``
    (N, G).

    A state holds no history: a caller keeps what it needs of it, ``rho``
    and ``r`` for a reverse sweep, ``log_step`` for a value.
    """
    E, N, G = net.n_edges, net.n_nodes, ps0.shape[1]
    alpha = np.repeat(alpha[:, None], G, axis=1)  # full (|E|, G): faster than a broadcast
    with np.errstate(divide="ignore"):
        log_ps0_src = np.log(ps0[net.edge_src])
    log_theta, log_cav, log_step = np.zeros((E, G)), np.zeros((E, G)), np.zeros((N, G))
    for t in range(horizon + 1):
        if t:
            log_keep = _log_keep(alpha, rho, r)
            log_theta = log_theta + log_keep
            log_cav = log_cav + net.cavity_sum @ log_keep
            log_step = net.in_edge_sum @ log_keep
        # delta is capped at 0 against rounding; where theta is 0 it is NaN
        # or +inf before the cap, which fmin makes 0
        with np.errstate(invalid="ignore"):
            delta = np.fmin(log_ps0_src + log_cav - log_theta, 0.0)
        rho, r = -np.expm1(delta), np.exp(delta)
        r[log_theta == -np.inf] = 0.0
        yield _State(log_theta, log_cav, log_step, rho, r)


def _log_keep(alpha: np.ndarray, rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``log(1 - alpha rho)``, each entry from the form that is exact
    there: ``log1p(-alpha rho)`` where the hazard is below 1/2, and
    ``log((1 - alpha) + alpha r)`` elsewhere, where ``1 - alpha`` is
    exact."""
    h = alpha * rho
    with np.errstate(divide="ignore"):  # keep is 0 only where alpha is 1 and r is 0
        return np.where(h < 0.5, np.log1p(-h), np.log((1.0 - alpha) + alpha * r))


def _trace(ps0: np.ndarray, states: list[_State]) -> DmpTrace:
    """The batched trace of a run from its states: the histories stacked,
    and the marginals advanced as ``p_susceptible[t] = p_susceptible[t-1]
    * exp(log_step[t])``."""
    log_theta, rho, log_step = (np.stack([getattr(s, name) for s in states]) for name in ("log_theta", "rho", "log_step"))
    theta = np.exp(log_theta)
    p_s = np.cumprod(np.concatenate([ps0[None], np.exp(log_step[1:])]), axis=0)
    m = np.concatenate([1.0 - ps0[None], p_s[:-1] - p_s[1:]])
    return DmpTrace(len(states) - 1, ps0, theta, theta * rho, p_s, m, log_step)


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
    _check_horizon(horizon, 0)
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
