"""Dynamic message passing for the discrete-time SI model, and its reverse sweep.

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

Step t crosses each edge with the hazard ``h = alpha * rho``, where
``rho = phi / theta`` at t-1, so the products over ``theta`` shrink by
``keep = 1 - h``.  Here ``1 - rho = exp(delta)``, with ``delta = log ps0_k
+ log cav - log theta`` capped at 0 and held at 0 where theta is 0, and
keep takes the form that is exact at each entry (:func:`_keep_forms`):
``1 - h``, whose log is ``log1p(-h)``, where h is below 1/2, else ``(1 -
alpha) + alpha * (1 - rho)``.  ``log theta`` gains ``log keep``, ``log
cav`` its sum over the cavity edges by ``Network._cavity_sum`` and
``log_step`` its sum over the in-edges by ``Network._in_sum``, both in the
order a CSR product adds; then ``p_susceptible[t] = p_susceptible[t-1] *
exp(log_step[t])``.  No ``log keep`` is positive, so ``theta`` and
``p_susceptible`` never increase.

The free energy (:mod:`cascade_recon.gradient`) reads window
probabilities from ``log_step``; its gradient, that of ``-sum(weights *
log_step)`` at fixed weights, is taken by :func:`_log_step_adjoint` in
reverse mode (Griewank & Walther, *Evaluating Derivatives*, 2008).  One
backward sweep over each step's ``rho`` and ``r = 1 - rho`` carries the
adjoints of ``log theta`` and ``log cav``: with ``q`` the adjoint of ``log
keep`` over keep, the coupling's adjoint gains ``-q rho``, and delta's,
``u = alpha q r``, goes to ``log cav`` and negated to ``log theta``.  Keep
takes the forward step's forms and r is 0 where theta is 0, so the value
and the gradient belong to one function; a gradient costs a small
multiple of a forward pass.

The recursion runs on a trailing axis of G initial conditions at once:
every message array carries one column per source group, so that one
pass over a chunk of groups costs one cavity sum and one in-edge sum per
step for all of them.  It yields one state per step and keeps no
history: a value pass keeps their ``log_step``, a gradient pass their
``rho`` and ``r`` too.  :func:`dmp_forward` runs one group, stacks its
``log_step`` and returns the marginals as a :class:`DmpTrace`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .graph import Network, validate_couplings
from .cascades import _as_source_array, _check_horizon

__all__ = [
    "DmpTrace",
    "dmp_forward",
    "exact_marginals_oracle",
]


@dataclass(frozen=True, eq=False)
class DmpTrace:
    """Marginal history of one forward run."""

    horizon: int
    initial_susceptible: np.ndarray  # (N,) indicator: 0 at sources, 1 elsewhere
    p_susceptible: np.ndarray        # (T+1, N)
    p_activate: np.ndarray           # (T+1, N); row 0 is 1 - initial_susceptible
    # (T+1, N): the sum of log(1 - hazard) over in-edges at step t, so that
    # p_susceptible[t] = p_susceptible[t-1] * exp(log_step[t]); row 0 is 0
    log_step: np.ndarray


def initial_susceptible(net: Network, sources) -> np.ndarray:
    """Indicator vector of "not a source"."""
    src = _as_source_array(net, sources)
    out = np.ones(net.n_nodes)
    out[src] = 0.0
    return out


def dmp_forward(net: Network, couplings, sources, horizon: int) -> DmpTrace:
    """Run the forward message-passing recursion up to ``horizon``: the
    ``log_step`` of each state of its one group stacked, and the marginals
    advanced as ``p_susceptible[t] = p_susceptible[t-1] * exp(log_step[t])``."""
    _check_horizon(horizon)
    alpha = validate_couplings(net, couplings)
    ps0 = initial_susceptible(net, sources)
    log_step = np.stack([state.log_step[:, 0] for state in _propagate(net, alpha, ps0[:, None], horizon)])
    p_s = np.cumprod(np.concatenate([ps0[None], np.exp(log_step[1:])]), axis=0)
    m = np.concatenate([1.0 - ps0[None], p_s[:-1] - p_s[1:]])
    return DmpTrace(horizon, ps0, p_s, m, log_step)


@dataclass(frozen=True, eq=False)
class _State:
    """The recursion at step t for G source groups, each array with a
    trailing axis of G: ``log theta`` and ``log_step`` at t, and the
    ``rho`` that step t+1 reads, with ``r = 1 - rho = exp(delta)``.  Where
    theta is 0, delta is held at 0: rho is 0 there, and r, the rate ``-d
    rho / d delta`` that the reverse sweep reads, is 0 too."""

    log_theta: np.ndarray            # (|E|, G)
    log_step: np.ndarray             # (N, G)
    rho: np.ndarray                  # (|E|, G)
    r: np.ndarray                    # (|E|, G)


def _propagate(net: Network, alpha: np.ndarray, ps0: np.ndarray, horizon: int) -> Iterator[_State]:
    """Yield the :class:`_State` of each step t = 0..horizon of the
    recursion behind :func:`dmp_forward`, on validated inputs, for the G
    source groups whose initial susceptibilities are the columns of ``ps0``
    (N, G); a caller keeps what it needs of each.
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
            log_cav = log_cav + net._cavity_sum(log_keep)
            log_step = net._in_sum(log_keep)
        # delta is capped at 0 against rounding; where theta is 0 it is NaN
        # or +inf before the cap, which fmin makes 0
        with np.errstate(invalid="ignore"):
            delta = np.fmin(log_ps0_src + log_cav - log_theta, 0.0)
        rho, r = -np.expm1(delta), np.exp(delta)
        r[log_theta == -np.inf] = 0.0
        yield _State(log_theta, log_step, rho, r)


def _keep_forms(alpha: np.ndarray, rho: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``keep = 1 - h`` of the hazard ``h = alpha rho`` in three parts: ``-h``,
    from which ``1 - h`` and ``log1p(-h)`` are exact where h < 1/2; the mask
    where h >= 1/2; and keep there as ``(1 - alpha) + alpha r``, also exact."""
    minus_h = alpha * rho
    high = minus_h >= 0.5
    alpha_high = alpha[high]
    return np.negative(minus_h, out=minus_h), high, (1.0 - alpha_high) + alpha_high * r[high]


def _log_keep(alpha: np.ndarray, rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``log keep`` from :func:`_keep_forms`."""
    log_keep, high, keep_high = _keep_forms(alpha, rho, r)
    with np.errstate(divide="ignore"):  # keep is 0 only where alpha is 1 and r is 0
        np.log1p(log_keep, out=log_keep)
        log_keep[high] = np.log(keep_high)
    return log_keep


def _log_step_adjoint(net: Network, alpha: np.ndarray, rho: Sequence[np.ndarray], r: Sequence[np.ndarray],
                      weights: np.ndarray) -> np.ndarray:
    """Gradient of ``-sum(weights * log_step)`` with respect to the
    couplings for each of G groups, an (|E|, G) array, by the backward
    sweep (see the module docstring) over the (T+1, N, G) ``weights`` and
    the ``rho`` and ``r`` of each step that :func:`_propagate` yielded."""
    E, G = net.n_edges, weights.shape[-1]
    alpha = np.repeat(alpha[:, None], G, axis=1)  # full (|E|, G): faster than a broadcast
    theta_bar, cav_bar, alpha_bar = np.zeros((E, G)), np.zeros((E, G)), np.zeros((E, G))
    for t in range(weights.shape[0] - 1, 0, -1):
        keep, high, keep_high = _keep_forms(alpha, rho[t - 1], r[t - 1])
        keep += 1.0                                  # -h + 1 is 1 - h, bit for bit
        keep[high] = keep_high
        q = (theta_bar + net._cavity_sum(cav_bar, transpose=True) - weights[t][net.edge_dst]) / keep
        alpha_bar -= q * rho[t - 1]
        u = alpha * q * r[t - 1]
        theta_bar -= u
        cav_bar += u
    return alpha_bar


# ---------------------------------------------------------------------------
# exact reference for small graphs


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
    one_minus_alpha = (1.0 - alpha).tolist()
    # each node's (in-edge, in-neighbor) pairs, and as bits the in-neighbors that can infect it
    in_pairs = [list(zip(net.in_edges(i).tolist(), net.edge_src[net.in_edges(i)].tolist())) for i in range(N)]
    in_bits = [sum(1 << k for e, k in pairs if alpha[e] > 0.0) for pairs in in_pairs]

    out = np.empty((horizon + 1, N))
    dist: dict[int, float] = {sum(1 << int(s) for s in src): 1.0}
    out[0] = _susceptible_marginals(dist, N)
    for t in range(1, horizon + 1):
        new_dist: dict[int, float] = {}
        for mask, prob in dist.items():
            masks = [mask]
            probs = [prob]
            for j in range(N):
                if (mask >> j) & 1 or not in_bits[j] & mask:
                    continue
                pj = 1.0 - math.prod(one_minus_alpha[e] for e, k in in_pairs[j] if (mask >> k) & 1)
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
