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
step.  The reverse sweep of :mod:`cascade_recon.dmp`
(:func:`dmp._log_step_adjoint`) takes that derivative from the ``rho``
and ``r`` that the forward pass keeps.

Source groups run in chunks: the messages of a chunk of G groups are
stacked as (..., |E|, G) arrays, so one forward pass and one sweep serve
the whole chunk, with one cavity sum per step for all of its groups,
and the window rows of the chunk are stacked with the column of their
group.  A chunk holds as many groups as its pass fits in
:data:`_PASS_BYTES`: a value pass keeps only ``log_step`` and the current
step, a gradient pass every step's ``rho`` and ``r`` and the window
weights, so value chunks hold several times the groups of gradient
chunks.  That bounds the memory of an evaluation whatever the number of
groups.  Value, gradient and window contributions are then reduced one
group at a time in input order, so they do not depend on the chunking,
and a value pass gives the same value, bit for bit, as a gradient pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Network, validate_couplings
from .cascades import (
    _PASS_BYTES,
    CascadeTable,
    _blocks,
    _code_count,
    _is_visible_non_source,
    _source_groups,
    _table,
    _window_bounds,
)
from .dmp import dmp_forward, initial_susceptible, _log_step_adjoint, _propagate

__all__ = [
    "FreeEnergyReport",
    "observed_negative_log_likelihood",
    "free_energy_gradient",
    "population_free_energy",
]

@dataclass(frozen=True, eq=False)
class FreeEnergyReport:
    """Value and gradient of the observed-cascade free energy."""

    value: float
    gradient: np.ndarray             # (|E|,)


# ---------------------------------------------------------------------------
# observation summaries and the free energy


@dataclass(frozen=True, eq=False)
class GroupSummary:
    """Aggregated observation windows for cascades sharing one source set.

    Each row is one (node, lo, hi) observation window with its multiplicity
    across the group's cascades; source nodes are excluded (their exact-0
    observation is conditioned on, not generated by the model).  Only the
    windows enter the free energy, so a group's number of cascades is not kept.
    """

    sources: tuple[int, ...]
    nodes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray


def summarize_dataset(dataset: CascadeTable | Sequence[CascadeTable]) -> list[GroupSummary]:
    """Group cascades by source set and aggregate observation windows.

    A list of tables is stacked into one table first
    (:func:`cascades._table`), and its source groups are numbered once
    (:func:`cascades._source_groups`, in sorted order of the sets).  One
    walk over the table's codes, a block (:func:`cascades._blocks`) at a
    time, makes each window of a visible non-source node one int64 key
    that orders by (group, node, lo, hi), with the window code as its last
    digit, so no bounds are decoded until the keys are counted.  A block's
    counted keys are a run, and runs of equally many blocks merge as a
    binary counter carries, so a key is sorted about log2(blocks) times
    and the merged keys come out in (group, node, lo, hi) order.
    """
    table = _table(dataset)
    sources, group_of = _source_groups(table)
    T, n_nodes = table.horizon, table.n_nodes
    n_codes = _code_count(T)
    runs = []                                                # (blocks, keys, counts), blocks falling
    for start, block in _blocks(table):
        codes = block.codes
        # int64 before the codes are added: an int8 or int16 product would wrap
        cells = (group_of[start : start + len(block), None] * n_nodes + np.arange(n_nodes)) * n_codes + codes
        keys = cells[_is_visible_non_source(codes)]
        run = (1, *np.unique(keys, return_counts=True))
        while runs and runs[-1][0] == run[0]:
            run = _merged([runs.pop(), run])
        runs.append(run)
    _, keys, counts = _merged(runs)
    runs.clear()                                             # as large as the keys
    rest, codes = np.divmod(keys, n_codes)
    group, nodes = np.divmod(rest, n_nodes)
    lo, hi = _window_bounds(codes, T)
    nodes = nodes.astype(np.intp, copy=False)
    ends = np.searchsorted(group, np.arange(len(sources) + 1))
    return [
        GroupSummary(src, nodes[a:b], lo[a:b], hi[a:b], counts[a:b])
        for src, a, b in zip(sources, ends[:-1].tolist(), ends[1:].tolist())
    ]


def _merged(runs: list) -> tuple:
    """One run of ``(blocks, keys, counts)`` runs: their sorted distinct
    keys with float64 counts summed over the runs."""
    keys, where = np.unique(np.concatenate([run[1] for run in runs]), return_inverse=True)
    return sum(run[0] for run in runs), keys, np.bincount(where, weights=np.concatenate([run[2] for run in runs]))


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
    step; a gradient pass keeps every step's ``rho`` and ``r`` for the
    sweep as well, and the window weights with their partial sums: (T+1)
    (2 |E| + 4 N) cells, and the sweep's |E|-long arrays.  Both count the
    sums' in-edge index and cavity gathers, (|E|, G) at most, among those."""
    T1, E, N = horizon + 1, net.n_edges, net.n_nodes
    return 8 * (T1 * (2 * E + 4 * N) + 10 * E if with_gradient else T1 * N + 8 * E)


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
    # lo >= t, a reverse cumulative sum over lo + 1 in [0, T+1] taken in place, plus
    # d_span times the counts of those that hold step t
    at_lo = np.bincount((rows.lo + 1) * (N * G) + rows.nodes * G + rows.group, rows.counts, (T1 + 1) * N * G)
    by_step = at_lo.reshape(T1 + 1, N * G)[::-1]
    np.cumsum(by_step, axis=0, out=by_step)
    weights = at_lo[N * G:]
    span_weights = rows.counts * d_span
    for inside, at in steps:
        weights += np.bincount(at, span_weights[inside], T1 * N * G)
    return -rows.counts * log_p, weights.reshape(T1, N, G)


def _dataset_free_energy(
    chunks: Sequence[_Chunk],
    net: Network,
    couplings,
    horizon: int,
    with_gradient: bool = True,
) -> tuple[float, np.ndarray | None]:
    """``(value, gradient)`` summed over source groups.

    Each chunk runs one batched forward pass and, ``with_gradient``, one
    sweep over each step's ``rho`` and ``r``; a value pass keeps only
    ``log_step``.
    The results are reduced one group at a time in input order, so they
    are the same for any chunking.  The gradient is None without
    ``with_gradient``.
    """
    alpha = validate_couplings(net, couplings)
    value = 0.0
    gradient = np.zeros(net.n_edges) if with_gradient else None
    for chunk in chunks:
        log_step, rho, r = np.empty((horizon + 1, *chunk.ps0.shape)), [], []
        for t, state in enumerate(_propagate(net, alpha, chunk.ps0, horizon)):
            log_step[t] = state.log_step
            if with_gradient:
                rho.append(state.rho)
                r.append(state.r)
        if with_gradient:
            contrib, weights = _window_weights(log_step, chunk)
            grads = _log_step_adjoint(net, alpha, rho, r, weights)
        else:
            contrib = -chunk.counts * _window_log_prob(log_step, chunk)[0]
        for g, (a, b) in enumerate(zip(chunk.ends[:-1], chunk.ends[1:])):
            value += float(contrib[a:b].sum())
            if with_gradient:
                gradient += grads[:, g]
    return value, gradient


def observed_negative_log_likelihood(
    dataset: CascadeTable | Sequence[CascadeTable],
    net: Network,
    couplings,
) -> float:
    """Free energy of a dataset: sum over observed nodes of
    ``-log P(observation window)`` under the message-passing marginals."""
    table = _table(dataset, net)
    chunks = _chunks(summarize_dataset(table), net, table.horizon, with_gradient=False)
    return _dataset_free_energy(chunks, net, couplings, table.horizon, with_gradient=False)[0]


def free_energy_gradient(
    dataset: CascadeTable | Sequence[CascadeTable],
    net: Network,
    couplings,
) -> FreeEnergyReport:
    """Free energy and its exact gradient with respect to every coupling.

    One batched forward pass and one reverse sweep are run per chunk of
    distinct source sets, shared by all cascades of those groups.
    """
    table = _table(dataset, net)
    chunks = _chunks(summarize_dataset(table), net, table.horizon)
    return FreeEnergyReport(*_dataset_free_energy(chunks, net, couplings, table.horizon))


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
        nodes, t_idx.astype(np.int64), t_idx.astype(np.int64) + 1, mass[t_idx, nodes],
    )
    return _dataset_free_energy(_chunks([summ], net, horizon), net, couplings, horizon)
