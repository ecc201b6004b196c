"""The approximate negative log-likelihood ("free energy") of observed
cascades and its gradient with respect to the couplings.

Every observation is a half-open window (lo, hi] on the recorded
activation time, so each observed node contributes ``-log P(window)`` with
``P = S(lo) - S(hi)``, ``S(u) = p_susceptible(u)`` for u <= T-1 and
``S(T) = 0``: exact times, horizon censoring and snapshot intervals are
all instances of this one rule.  ``P`` is taken in the log domain,

    log P = log S(lo) + log(-expm1(sum of log_step over (lo, hi])),

with ``log S(lo)`` the sum of ``log_step`` up to lo; the second term is 0
when hi == T.  Each window reads only its own steps: ``log S(lo)`` is
one gather from the cumulative sum of ``log_step`` over t, and the span
is the sum of its hi - lo steps.  Neither term rounds to zero inside the
coupling box, so no floor is needed, and the gradient is the exact
derivative of this value.  The population (infinite-sample) free energy
uses the same rule, with the generating couplings' marginals as window
weights.

The free energy of one source group is a weighted sum of the forward
trace's ``log_step`` (the weights depend on the trace only through the
window spans), so its gradient is the derivative of
``-sum(weights * log_step)`` at fixed weights.  A window weighs its
count on every step up to lo and its count times ``d log P / d span`` on
every step inside it; the weights are one ``np.bincount`` of the counts
at lo, summed over t in reverse, plus one ``np.bincount`` per in-window
step.  The fit takes the gradient in reverse mode (Griewank & Walther,
*Evaluating Derivatives*, 2008): one forward pass keeps each step's
messages, ``rho``, cavity log-sums and cavity products, O(T |E|) numbers
per group, and one backward sweep through the theta/phi/cavity recursion
carries their adjoints and accumulates the coupling adjoint.  A step of
the sweep costs one transposed sparse cavity product and element-wise
work, so a gradient costs a small multiple of a forward pass.

Source groups run in chunks: the messages of a chunk of G groups are
stacked as (..., |E|, G) arrays, so one forward pass and one sweep serve
the whole chunk, with one sparse product per step for all of its groups,
and the window rows of the chunk are stacked with the column of their
group.  A chunk holds as many groups as its pass fits in
:data:`_PASS_BYTES`: a value pass keeps only ``log_step`` and the current
step, a gradient pass every step's state, so value chunks hold several
times the groups of gradient chunks.  That bounds the memory of an
evaluation whatever the number of groups.  Value, gradient and window
contributions are then reduced one group at a time in input order, so
they do not depend on the chunking, and a value pass gives the same
value, bit for bit, as a gradient pass.

Forward mode, :func:`dmp_forward_with_gradients`, is kept as the
reference the reverse sweep is tested against.  For every message edge e
and every coupling f it tracks ``d_theta[t, e, f]`` and
``d_phi[t, e, f]``, together with the sensitivities of the per-node sums
of ``log1p(-h)`` (``d_log_step``); all start at zero (initial messages do
not depend on couplings).  Its memory is O(T |E|^2), so it refuses runs
above :data:`SENSITIVITY_BUDGET_BYTES`.  Both modes differentiate the
recursion whose states :func:`dmp._propagate` yields, as it runs it:
``rho`` as computed (capped at 1), with ``1 / theta`` taken as 0 where
theta is 0, and the cavity product at t as the product at t-1 times
``exp`` of the cavity log-sum, and ``p_susceptible`` likewise from
``log_step``.  So the value and the gradient belong to one function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import CapacityError
from .graph import Network, validate_couplings
from .cascades import (
    CascadeTable,
    ObservedCascade,
    _blocks,
    _check_horizon,
    _horizon,
    _ranked_sets,
    _source_sets,
    _window_bounds,
    _window_codes,
    _window_range_error,
)
from .dmp import DmpTrace, dmp_forward, initial_susceptible, _propagate, _State, _trace

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

# Bytes that one batched pass over a chunk of source groups, or one block
# of the summaries' walk over the cascades, holds: 1 MiB.
_PASS_BYTES = 1 << 20

# Cells of a block of the summaries' walk: a cell's bounds and its window's
# row, node, code and key take about 32 bytes.
_SUMMARY_BLOCK_CELLS = _PASS_BYTES // 32


@dataclass(frozen=True, eq=False)
class GradTrace:
    """Coupling sensitivities of messages and marginals; the trailing
    axis runs over all |E| couplings, in edge order."""

    horizon: int
    d_theta: np.ndarray              # (T+1, |E|, |E|)
    d_phi: np.ndarray                # (T+1, |E|, |E|)
    d_log_step: np.ndarray           # (T+1, N, |E|), sensitivity of DmpTrace.log_step
    p_susceptible: np.ndarray        # (T+1, N), the forward trace's

    @cached_property
    def d_p_susceptible(self) -> np.ndarray:
        """Sensitivity of the susceptibility marginals, shape (T+1, N, |E|)."""
        return self.p_susceptible[:, :, None] * np.cumsum(self.d_log_step, axis=0)

    def d_activation(self, t: int) -> np.ndarray:
        """Sensitivity of the activation marginal at step t, shape (N, |E|)."""
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
) -> tuple[DmpTrace, GradTrace]:
    """Forward pass with sensitivities to every coupling.

    The sensitivities exist for couplings below 1: a coupling of 1 drives
    a message to exactly 0, where its logarithm has no derivative.  Raises
    :class:`CapacityError`, before allocating them, when the sensitivity
    arrays would take more than ``SENSITIVITY_BUDGET_BYTES`` (1 GiB):
    ``(2 (T+1) |E| + (T+1) N) |E|`` float64 numbers.
    """
    _check_horizon(horizon)
    T, E, N = horizon, net.n_edges, net.n_nodes
    need = (2 * (T + 1) * E + (T + 1) * N) * E * 8
    if need > SENSITIVITY_BUDGET_BYTES:
        raise CapacityError(
            f"forward-mode sensitivities need {need / 2**30:.1f} GiB "
            f"(T={T}, |E|={E}, N={N}); the budget is "
            f"{SENSITIVITY_BUDGET_BYTES / 2**30:g} GiB"
        )
    alpha = validate_couplings(net, couplings)
    ps0 = initial_susceptible(net, sources)
    states = list(_propagate(net, alpha, ps0[:, None], horizon))
    own = np.arange(E)               # coupling f is edge f's: its own term sits at (f, f)

    d_theta = np.zeros((T + 1, E, E))
    d_phi = np.zeros((T + 1, E, E))
    d_log_step = np.zeros((T + 1, N, E))
    d_cav = np.zeros((E, E))         # sensitivity of the cavity products at t-1
    ps0_src = ps0[net.edge_src]
    for t in range(1, T + 1):
        theta, phi = states[t - 1].theta[:, 0], states[t - 1].phi[:, 0]
        rho, cav_log, cav_t = (arr[:, 0] for arr in (states[t].rho, states[t].cav_log, states[t].cav))
        h = alpha * rho
        # d rho = (d phi - rho d theta) / theta, d h = rho d alpha + alpha d rho
        inv_theta = np.divide(1.0, theta, out=np.zeros(E), where=theta > 0.0)
        d_h = d_phi[t - 1] - rho[:, None] * d_theta[t - 1]
        d_h *= (alpha * inv_theta)[:, None]
        d_h[own, own] += rho
        d_theta[t] = (1.0 - h)[:, None] * d_theta[t - 1] - theta[:, None] * d_h
        d_log_keep = d_h
        d_log_keep *= (-1.0 / (1.0 - h))[:, None]
        # phi gains -cav_prev * expm1(cav_log); its derivative, written as
        # -(d cav_prev * expm1(cav_log) + cav_t * d cav_log):
        d_drop = net.cavity_sum @ d_log_keep
        d_drop *= -cav_t[:, None]
        d_drop -= np.expm1(cav_log)[:, None] * d_cav
        d_phi[t] = (1.0 - alpha)[:, None] * d_phi[t - 1] + ps0_src[:, None] * d_drop
        d_phi[t][own, own] -= phi
        d_cav -= d_drop
        d_log_step[t] = net.in_edge_sum @ d_log_keep

    trace = _trace(ps0[:, None], states).column(0)
    gtrace = GradTrace(T, d_theta, d_phi, d_log_step, trace.p_susceptible)
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


def summarize_dataset(dataset: CascadeTable | Sequence[ObservedCascade]) -> list[GroupSummary]:
    """Group cascades by source set and aggregate observation windows.

    One walk over the rows, a block of about ``_SUMMARY_BLOCK_CELLS``
    cells at a time, finds each row's source set
    (:func:`cascades._source_sets`, numbered as first met) and makes each
    window of a visible non-source node one int64 key that orders by (set,
    node, lo, hi); a block's keys are counted and merged into the running
    count.  The sets are then ranked in sorted order and
    the keys renumbered, so the rows come out ordered by (group, node, lo,
    hi).
    """
    T = _horizon(dataset)
    n_codes = (T + 2) ** 2                                   # window codes lie in [0, (T + 2)**2)
    ids: dict[tuple[int, ...], int] = {}
    set_ids = []
    in_range = True
    keys = np.empty(0, dtype=np.int64)
    counts = np.empty(0)
    for _start, block in _blocks(dataset, _SUMMARY_BLOCK_CELLS):
        lo, hi, hidden, n_nodes = block.lo, block.hi, block.hidden, block.n_nodes
        set_id = _source_sets(hi, hidden, ids)
        set_ids.append(set_id)
        rows, nodes = np.nonzero(~hidden & (hi > 0))
        codes, block_in_range = _window_codes(lo[rows, nodes], hi[rows, nodes], T)
        in_range &= block_in_range
        block_keys, block_counts = np.unique((set_id[rows] * n_nodes + nodes) * n_codes + codes, return_counts=True)
        keys, where = np.unique(np.concatenate([keys, block_keys]), return_inverse=True)
        counts = np.bincount(where, weights=np.concatenate([counts, block_counts]))
    set_id = np.concatenate(set_ids)
    sources, rank = _ranked_sets(ids, set_id)
    if not in_range:
        raise _window_range_error(T)
    rest, codes = np.divmod(keys, n_codes)
    group, nodes = np.divmod(rest, n_nodes)
    group = rank[group]
    order = np.argsort((group * n_nodes + nodes) * n_codes + codes)
    group, nodes, codes, counts = group[order], nodes[order], codes[order], counts[order]
    lo, hi = _window_bounds(codes, T)
    nodes = nodes.astype(np.intp, copy=False)
    ends = np.searchsorted(group, np.arange(len(sources) + 1))
    sizes = np.bincount(rank[set_id], minlength=len(sources)).tolist()
    return [
        GroupSummary(src, nodes[a:b], lo[a:b], hi[a:b], counts[a:b], size)
        for src, a, b, size in zip(sources, ends[:-1].tolist(), ends[1:].tolist(), sizes)
    ]


@dataclass(frozen=True, eq=False)
class _Chunk:
    """Consecutive source groups stacked for one batched pass: the
    columns of ``ps0`` are the groups, and the window rows of all of them
    follow in group order, each with the column of its group."""

    ps0: np.ndarray                  # (N, G) initial susceptibility
    group: np.ndarray                # (rows,) column of each row's group
    nodes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray
    ends: list[int]                  # group g owns rows ends[g]:ends[g+1]


def _group_bytes(net: Network, horizon: int, with_gradient: bool) -> int:
    """Bytes that a pass holds per source group.  A value pass keeps
    ``log_step``, (T+1) N cells, and a few |E|-long arrays of the current
    step; a gradient pass keeps every step's state for the sweep, (T+1)
    (5 |E| + N) cells."""
    T1, E, N = horizon + 1, net.n_edges, net.n_nodes
    return 8 * (T1 * (5 * E + N) if with_gradient else T1 * N + 8 * E)


def _chunks(summaries: Sequence[GroupSummary], net: Network, horizon: int, with_gradient: bool = True) -> list[_Chunk]:
    """The groups of ``summaries`` in input order, cut into chunks that a
    value pass, or ``with_gradient`` a gradient pass, runs in about
    ``_PASS_BYTES``."""
    size = max(1, _PASS_BYTES // _group_bytes(net, horizon, with_gradient))
    chunks = []
    for start in range(0, len(summaries), size):
        block = summaries[start:start + size]
        lengths = [summ.nodes.size for summ in block]
        chunks.append(_Chunk(
            ps0=np.stack([initial_susceptible(net, summ.sources) for summ in block], axis=1),
            group=np.repeat(np.arange(len(block)), lengths),
            **{name: np.concatenate([getattr(summ, name) for summ in block]) for name in ("nodes", "lo", "hi", "counts")},
            ends=np.cumsum([0, *lengths]).tolist(),
        ))
    return chunks


def _window_log_prob(log_step: np.ndarray, rows: _Chunk):
    """``log P`` of each window and ``d log P / d span`` (see the module
    docstring), from the chunk's (T+1, N, G) ``log_step``, with the steps
    of the windows: for k = 1, 2, ..., the rows whose window holds step
    lo + k and that step's flat index into ``log_step``."""
    T1, N, G = log_step.shape
    column = rows.nodes * G + rows.group
    # log S(lo) = sum of log_step over t <= lo; row 0 is 0, so lo = -1 reads it too
    log_s = np.cumsum(log_step, axis=0).reshape(-1)[np.maximum(rows.lo, 0) * (N * G) + column]
    censored = rows.hi == T1 - 1
    width = np.where(censored, 0, rows.hi - rows.lo)
    span = np.zeros(width.size)                              # log S(hi) - log S(lo)
    steps = []
    for k in range(1, int(width.max(initial=0)) + 1):
        inside = np.flatnonzero(width >= k)
        at = (rows.lo[inside] + k) * (N * G) + column[inside]
        span[inside] += log_step.reshape(-1)[at]
        steps.append((inside, at))
    span[censored] = -np.inf                                 # S(T) = 0
    with np.errstate(divide="ignore", over="ignore"):
        log_p = log_s + np.log(-np.expm1(span))
        d_span = -1.0 / np.expm1(-span)
    return log_p, d_span, steps


def _window_weights(log_step: np.ndarray, rows: _Chunk) -> tuple[np.ndarray, np.ndarray]:
    """Per-window free-energy contributions and the (T+1, N, G) weights
    with ``d F = -sum(weights * d log_step)``."""
    log_p, d_span, steps = _window_log_prob(log_step, rows)
    T1, N, G = log_step.shape
    # d log P = sum_{t <= lo} d log_step + d_span * sum_{lo < t <= hi} d log_step, collected
    # as one weight per (t, node, group) on d log_step: the counts of the windows with
    # lo >= t, a reverse cumulative sum over lo + 1 in [0, T+1], plus d_span times the
    # counts of those that hold step t
    at_lo = np.bincount((rows.lo + 1) * (N * G) + rows.nodes * G + rows.group, rows.counts, (T1 + 1) * N * G)
    weights = np.cumsum(at_lo.reshape(T1 + 1, N, G)[::-1], axis=0)[-2::-1].ravel()
    span_weights = rows.counts * d_span
    for inside, at in steps:
        weights += np.bincount(at, span_weights[inside], T1 * N * G)
    return -rows.counts * log_p, weights.reshape(T1, N, G)


def _log_step_adjoint(net: Network, alpha: np.ndarray, ps0: np.ndarray, states: list[_State], weights) -> np.ndarray:
    """Gradient of ``-sum(weights * log_step)`` with respect to the
    couplings, by one backward sweep over the ``states`` that
    :func:`dmp._propagate` yielded from the (N, G) initial
    susceptibilities ``ps0``, for each of the G groups: an (|E|, G) array.

    The sweep transposes, term by term, the linearization that
    :func:`dmp_forward_with_gradients` runs forward, with the messages'
    tangents taken in the basis
    ``(d theta, gap = d phi - rho_next d theta)``: the gap is what enters
    ``d rho``.  In that basis the adjoint of theta stays of the order of
    the messages where the adjoint of phi grows like ``1 / theta``, and the
    coefficients that cancel at ``rho = 1`` (an edge out of a source) are
    formed before they multiply the large gap adjoint, so they cancel
    exactly.
    """
    T, E, G = len(states) - 1, net.n_edges, weights.shape[-1]
    # step t in the basis (d theta, gap), with a = alpha / theta (0 where theta = 0):
    #   d h = a gap + rho d alpha,  d log1p(-h) = -d h / (1 - h),
    #   d theta[t] = (1 - h) d theta - theta d h,
    #   d drop = -cav_t (cavity_sum @ d log1p(-h)) - expm1(cav_log) d cav_prev,
    #   d cav_t = d cav_prev - d drop (cav_t = cav_prev exp(cav_log) in the forward pass),
    #   d log_step[t] = in_edge_sum @ d log1p(-h),
    #   gap[t] = (1 - alpha + gap_h a) gap + gap_theta d theta + ps0_src d drop + gap_alpha d alpha,
    # with gap_h = rho_next theta, gap_theta = (1 - alpha) rho - rho_next (1 - h) and
    # gap_alpha = rho rho_next theta - phi.  The coefficients are formed step by step,
    # so the sweep holds only the forward pass's states and one (T, |E|, G) array of terms.
    alpha = alpha[:, None]
    keep_rate = 1.0 - alpha
    ps0_src = ps0[net.edge_src]
    in_edge_sum_t, cavity_sum_t = net.in_edge_sum.T, net.cavity_sum.T
    theta_bar, gap_bar, cav_bar = np.zeros((E, G)), np.zeros((E, G)), np.zeros((E, G))
    rho_next = np.zeros((E, G))                              # no step T+1: its adjoints are 0
    terms = np.empty((T, E, G))                              # the coupling adjoint of each step
    for i in range(T - 1, -1, -1):
        step = states[i + 1]
        rho, cav_log, cav = step.rho, step.cav_log, step.cav
        theta, phi = states[i].theta, states[i].phi          # the messages step i+1 reads
        keep = 1.0 - alpha * rho
        a = alpha * np.divide(1.0, theta, out=np.zeros((E, G)), where=theta > 0.0)
        drop_bar = ps0_src * gap_bar - cav_bar
        keep_bar = in_edge_sum_t @ -weights[i + 1] - cavity_sum_t @ (cav * drop_bar)
        cav_bar -= np.expm1(cav_log) * drop_bar
        h_bar = -theta * theta_bar - keep_bar / keep
        terms[i] = rho * h_bar + (rho * rho_next * theta - phi) * gap_bar
        h_bar += rho_next * theta * gap_bar
        theta_bar = keep * theta_bar + (keep_rate * rho - rho_next * keep) * gap_bar
        gap_bar = keep_rate * gap_bar + a * h_bar
        rho_next = rho
    return terms.sum(axis=0)


def _dataset_free_energy(
    chunks: Sequence[_Chunk],
    net: Network,
    couplings,
    horizon: int,
    with_gradient: bool = True,
) -> tuple[float, np.ndarray | None, list[np.ndarray]]:
    """``(value, gradient, per-group window contributions)`` summed over
    source groups.

    Each chunk runs one batched forward pass and, ``with_gradient``, one
    sweep over the states it keeps; a value pass keeps only ``log_step``.
    The results are reduced one group at a time in input order, so they
    are the same for any chunking.  The gradient is None without
    ``with_gradient``.
    """
    alpha = validate_couplings(net, couplings)
    value = 0.0
    gradient = np.zeros(net.n_edges) if with_gradient else None
    contribs = []
    for chunk in chunks:
        states = _propagate(net, alpha, chunk.ps0, horizon)
        if with_gradient:
            states = list(states)
        log_step = np.stack([state.log_step for state in states])
        if with_gradient:
            contrib, weights = _window_weights(log_step, chunk)
            grads = _log_step_adjoint(net, alpha, chunk.ps0, states, weights)
        else:
            contrib = -chunk.counts * _window_log_prob(log_step, chunk)[0]
        for g, (a, b) in enumerate(zip(chunk.ends[:-1], chunk.ends[1:])):
            value += float(contrib[a:b].sum())
            if with_gradient:
                gradient += grads[:, g]
            contribs.append(contrib[a:b])
    return value, gradient, contribs


def observed_negative_log_likelihood(
    dataset: CascadeTable | Sequence[ObservedCascade],
    net: Network,
    couplings,
) -> float:
    """Free energy of a dataset: sum over observed nodes of
    ``-log P(observation window)`` under the message-passing marginals."""
    horizon = _horizon(dataset, net)
    chunks = _chunks(summarize_dataset(dataset), net, horizon, with_gradient=False)
    return _dataset_free_energy(chunks, net, couplings, horizon, with_gradient=False)[0]


def free_energy_gradient(
    dataset: CascadeTable | Sequence[ObservedCascade],
    net: Network,
    couplings,
) -> FreeEnergyReport:
    """Free energy and its exact gradient with respect to every coupling.

    One batched forward pass and one reverse sweep are run per chunk of
    distinct source sets, shared by all cascades of those groups.
    """
    horizon = _horizon(dataset, net)
    summaries = summarize_dataset(dataset)
    value, gradient, contribs = _dataset_free_energy(_chunks(summaries, net, horizon), net, couplings, horizon)
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
) -> tuple[float, np.ndarray]:
    """Infinite-sample limit of the free energy for one initial condition.

    The data distribution is generated by ``couplings_star``; the model is
    evaluated at ``couplings``.  Returns (value, gradient).  On a tree the
    gradient vanishes at ``couplings == couplings_star`` because the
    activation masses and the final susceptibility sum to one identically.
    """
    ref = dmp_forward(net, couplings_star, sources, horizon)
    T = horizon
    # window (t-1, t] weighted by the reference activation mass at t, and
    # the censored window (T-1, T] by the reference survival to T-1
    mass = np.concatenate([ref.p_activate[1:T], ref.p_susceptible[T - 1 : T]])
    t_idx, nodes = np.nonzero(mass > 0.0)
    summ = GroupSummary(
        tuple(np.flatnonzero(ref.initial_susceptible == 0.0).tolist()),
        nodes, t_idx.astype(np.int64), t_idx.astype(np.int64) + 1, mass[t_idx, nodes], 0,
    )
    value, gradient, _ = _dataset_free_energy(_chunks([summ], net, horizon), net, couplings, horizon)
    return value, gradient
