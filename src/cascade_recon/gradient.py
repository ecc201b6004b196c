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

The summaries lay the window rows of all source groups out once, as one
row table (:class:`Summaries`) in sorted order of the groups' sets, and a
fit holds nothing else.  Source groups run in chunks of consecutive
groups: the messages of a chunk of G groups are (..., |E|, G) arrays, so
one forward pass and one sweep serve the whole chunk, with one cavity sum
per step for all of its groups.  Each pass cuts its own chunks: a chunk
is ``summaries[first:stop]``, as a group is ``summaries[g]``, and the
pass makes the chunk's (N, G) initial susceptibility from the groups'
source sets and the column of each row from the chunk's group ends, and
drops both when the chunk is done.  A chunk holds as many groups as its
pass fits in :data:`_PASS_BYTES`: a value pass keeps only ``log_step``
and the current step, a gradient pass every step's ``rho`` and ``r`` and
the window weights, so value chunks hold several times the groups of
gradient chunks.  That bounds the memory of an evaluation whatever the
number of groups.  Value, gradient and window contributions are then
reduced one group at a time in input order, so they do not depend on the
chunking, and a value pass gives the same value, bit for bit, as a
gradient pass.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, pairwise
from typing import Sequence

import numpy as np

from .graph import Network, validate_couplings
from .cascades import (
    _PASS_BYTES,
    CascadeTable,
    _SourceSets,
    _blocks,
    _code_count,
    _is_visible_non_source,
    _table,
    _window_bounds,
)
from .dmp import dmp_forward, _log_step_adjoint, _propagate

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
class Summaries:
    """The window rows of every source group of a dataset, laid out once:
    group after group in sorted order of their source sets, each group's
    rows in (node, lo, hi) order.  A row is one observation window with
    its multiplicity across the group's cascades; sources are excluded
    (their exact-0 observation is conditioned on, not generated by the
    model).  The summaries slice by groups as a table slices by rows:
    ``summaries[first:stop]`` is those groups' column views with ``ends``
    rebased to 0, and a group is ``summaries[g]``, as a cascade is a
    one-row table; every chunk of a pass (:func:`_dataset_free_energy`)
    is such a slice."""

    sources: list[tuple[int, ...]]   # by group
    ends: np.ndarray                 # group g owns rows ends[g]:ends[g+1]
    nodes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.sources)

    def __getitem__(self, index) -> Summaries:
        if isinstance(index, (int, np.integer)):
            # a plain slice past either end would give no groups
            g = range(len(self))[index]
            index = slice(g, g + 1)
        if not isinstance(index, slice) or index.step not in (None, 1):
            raise IndexError("an index of summaries picks consecutive groups")
        first, stop, _ = index.indices(len(self))
        stop = max(first, stop)
        rows = slice(self.ends[first], self.ends[stop])
        return Summaries(self.sources[first:stop], self.ends[first:stop + 1] - self.ends[first],
                         self.nodes[rows], self.lo[rows], self.hi[rows], self.counts[rows])

    def __iter__(self) -> Iterator[Summaries]:
        return (self[g] for g in range(len(self)))


def summarize_dataset(
    dataset: CascadeTable | Sequence[CascadeTable] | Iterator[tuple[int, CascadeTable]],
) -> Summaries:
    """Group cascades by source set and aggregate observation windows into
    one row table, its groups in sorted order of the sets.

    ``dataset`` is a table, a list of tables, which is stacked into one
    table first (:func:`cascades._table`), or the ``(start, block)``
    iterator of a cascade text being read (:func:`cascades._cascade_blocks`),
    which ``cascade-recon fit`` summarizes with no table.  One walk over the
    blocks of codes (a table is cut by :func:`cascades._blocks`) numbers
    each block's source groups as first met (:class:`cascades._SourceSets`,
    the numbering of :func:`cascades._source_groups`) and makes each window
    of a visible non-source node one int64 key that orders by (group,
    node, lo, hi), with the window code as its last digit, so no bounds
    are decoded until the keys are counted.  A block's counted keys are a
    run, and runs of equally many blocks merge as a binary counter
    carries (:func:`_merged`), so a key takes part in about log2(blocks)
    merges and the merged keys come out in (group, node, lo, hi) order.
    The keys and counts are then permuted once, so that the groups come in
    sorted order of their sets, and decoded into the columns.  The walk
    holds one block and the distinct keys, whatever the number of
    cascades.
    """
    blocks = dataset if isinstance(dataset, Iterator) else _blocks(_table(dataset))
    sets = _SourceSets()
    runs = []                                                # (blocks, keys, counts), blocks falling
    for _start, block in blocks:
        run = (1, *_counted_keys(sets.number(block), block))
        while runs and runs[-1][0] == run[0]:
            run = _merged([runs.pop(), run])
        runs.append(run)
    T, n_nodes = block.horizon, block.n_nodes
    n_codes = _code_count(T)
    met, order = sets.met()                                  # by first-met number, ranked
    _, keys, counts = _merged(runs)
    runs.clear()                                             # as large as the keys
    # the rows of each first-met group, and the groups in sorted order of their sets
    starts = np.searchsorted(keys, np.arange(len(met) + 1) * (n_nodes * n_codes))
    lengths = np.diff(starts)[order]
    ends = np.concatenate(([0], np.cumsum(lengths)))
    # row k of the table, in group g, is row k - ends[g] + starts[order[g]] of the
    # keys; each temporary goes once used, so laying out holds little above the table
    take = np.repeat(starts[order] - ends[:-1], lengths)
    take += np.arange(keys.size)
    keys, counts = keys[take], counts[take]
    del take
    nodes, codes = np.divmod(keys, n_codes)
    del keys
    np.remainder(nodes, n_nodes, out=nodes)
    lo, hi = _window_bounds(codes, T)
    del codes
    return Summaries([met[g] for g in order], ends, nodes.astype(np.intp, copy=False), lo, hi, counts)


def _counted_keys(number: np.ndarray, block: CascadeTable) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys of the windows of the visible non-source
    nodes of ``block``, whose rows are in the source groups ``number``, and
    the count of each.  The (rows, N) int64 keys are made in place, and
    they go when this returns, before the walk reads the next block."""
    n_nodes, codes = block.n_nodes, block.codes
    # int64 before the codes are added: an int8 or int16 product would wrap
    cells = number[:, None] * n_nodes + np.arange(n_nodes)
    cells *= _code_count(block.horizon)
    cells += codes
    return np.unique(cells[_is_visible_non_source(codes)], return_counts=True)


def _merged(runs: list) -> tuple:
    """One run of ``(blocks, keys, counts)`` runs: their sorted distinct
    keys with float64 counts summed over the runs.  The keys of each run
    are sorted, so a stable sort of them all merges the runs in linear
    time, and keeps a key's counts in the order of the runs."""
    keys = np.concatenate([run[1] for run in runs])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    counts = np.bincount(np.cumsum(new) - 1, weights=np.concatenate([run[2] for run in runs])[order])
    return sum(run[0] for run in runs), keys[new], counts


def _group_bytes(net: Network, horizon: int, with_gradient: bool) -> int:
    """Bytes that a pass holds per source group.  A value pass keeps
    ``log_step``, (T+1) N cells, and a few |E|-long arrays of the current
    step; a gradient pass keeps every step's ``rho`` and ``r`` for the
    sweep as well, and the window weights with their partial sums: (T+1)
    (2 |E| + 4 N) cells, and the sweep's |E|-long arrays.  Both count the
    sums' in-edge index and cavity gathers, (|E|, G) at most, among those.
    Only these per-group arrays are counted: the chunk's initial
    susceptibility, N cells, the cumulative sum of ``log_step``, the row
    cells that :func:`_dataset_free_energy` makes and the per-row arrays
    of :func:`_window_log_prob` are left out, so a value pass holds more
    than this: about 20 KiB a group against 12.5 KiB here on a 60-node
    tree at T = 10 with 157 window rows a group."""
    T1, E, N = horizon + 1, net.n_edges, net.n_nodes
    return 8 * (T1 * (2 * E + 4 * N) + 10 * E if with_gradient else T1 * N + 8 * E)


def _group_ranges(n_groups: int, net: Network, horizon: int, with_gradient: bool):
    """Yield ``(first, stop)``: the groups of the chunks that a value pass,
    or ``with_gradient`` a gradient pass, runs in about ``_PASS_BYTES``."""
    size = max(1, _PASS_BYTES // _group_bytes(net, horizon, with_gradient))
    for first in range(0, n_groups, size):
        yield first, min(first + size, n_groups)


def _window_log_prob(log_step: np.ndarray, cells: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """``log P`` of each window and ``d log P / d span`` (see the module
    docstring), from a chunk's (T+1, N, G) ``log_step`` and its rows: the
    flat index ``cells`` of each row's (node, column) in an (N, G) array
    and the window bounds, with the steps of the windows: for k = 1, 2,
    ..., the rows whose window holds step lo + k and that step's flat
    index into ``log_step``."""
    T1, N, G = log_step.shape
    # log S(lo) = sum of log_step over t <= lo; row 0 is 0, so lo = -1 reads it too
    log_s = np.cumsum(log_step, axis=0).reshape(-1)[np.maximum(lo, 0) * (N * G) + cells]
    censored = hi == T1 - 1
    width = np.where(censored, 0, hi - lo)
    span = np.zeros(width.size)                              # log S(hi) - log S(lo)
    steps = []
    for k in range(1, int(width.max(initial=0)) + 1):
        inside = np.flatnonzero(width >= k)
        at = (lo[inside] + k) * (N * G) + cells[inside]
        span[inside] += log_step.reshape(-1)[at]
        steps.append((inside, at))
    span[censored] = -np.inf                                 # S(T) = 0
    with np.errstate(divide="ignore", over="ignore"):
        log_p = log_s + np.log(-np.expm1(span))
        d_span = -1.0 / np.expm1(-span)
    return log_p, d_span, steps


def _window_weights(
    log_step: np.ndarray, cells: np.ndarray, lo: np.ndarray, hi: np.ndarray, counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-window free-energy contributions and the (T+1, N, G) weights
    with ``d F = -sum(weights * d log_step)``, for the rows of
    :func:`_window_log_prob` and their ``counts``."""
    log_p, d_span, steps = _window_log_prob(log_step, cells, lo, hi)
    T1, N, G = log_step.shape
    # d log P = sum_{t <= lo} d log_step + d_span * sum_{lo < t <= hi} d log_step, collected
    # as one weight per (t, node, group) on d log_step: the counts of the windows with
    # lo >= t, a reverse cumulative sum over lo + 1 in [0, T+1] taken in place, plus
    # d_span times the counts of those that hold step t
    at_lo = np.bincount((lo + 1) * (N * G) + cells, counts, (T1 + 1) * N * G)
    by_step = at_lo.reshape(T1 + 1, N * G)[::-1]
    np.cumsum(by_step, axis=0, out=by_step)
    weights = at_lo[N * G:]
    span_weights = counts * d_span
    for inside, at in steps:
        weights += np.bincount(at, span_weights[inside], T1 * N * G)
    return -counts * log_p, weights.reshape(T1, N, G)


def _dataset_free_energy(
    summaries: Summaries,
    net: Network,
    couplings,
    horizon: int,
    with_gradient: bool = True,
) -> tuple[float, np.ndarray | None]:
    """``(value, gradient)`` summed over source groups.

    The groups run in the chunks of :func:`_group_ranges`, each chunk
    ``summaries[first:stop]``.  A chunk makes its (N, G) initial
    susceptibility from the groups' source sets and the cells of its rows
    from its ``ends``, runs one batched forward pass and,
    ``with_gradient``, one sweep over each step's ``rho`` and ``r``; a
    value pass keeps only ``log_step``.  Nothing of
    a chunk outlives it.  The results are reduced one group at a time in
    input order, so they are the same for any chunking.  The gradient is
    None without ``with_gradient``.
    """
    alpha = validate_couplings(net, couplings)
    value = 0.0
    gradient = np.zeros(net.n_edges) if with_gradient else None
    for first, stop in _group_ranges(len(summaries), net, horizon, with_gradient):
        chunk, G = summaries[first:stop], stop - first
        # column g is 0 at the sources of group g of the chunk, and each row's cell is
        # its node's entry in the column of its group
        columns = np.repeat(np.arange(G), [len(src) for src in chunk.sources])
        ps0 = np.ones((net.n_nodes, G))
        ps0[np.fromiter(chain.from_iterable(chunk.sources), np.intp, columns.size), columns] = 0.0
        cells = chunk.nodes * G + np.repeat(np.arange(G), np.diff(chunk.ends))
        log_step, rho, r = np.empty((horizon + 1, net.n_nodes, G)), [], []
        for t, state in enumerate(_propagate(net, alpha, ps0, horizon)):
            log_step[t] = state.log_step
            if with_gradient:
                rho.append(state.rho)
                r.append(state.r)
        if with_gradient:
            contrib, weights = _window_weights(log_step, cells, chunk.lo, chunk.hi, chunk.counts)
            grads = _log_step_adjoint(net, alpha, rho, r, weights)
        else:
            contrib = -chunk.counts * _window_log_prob(log_step, cells, chunk.lo, chunk.hi)[0]
        for g, (a, b) in enumerate(pairwise(chunk.ends.tolist())):
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
    return _dataset_free_energy(summarize_dataset(table), net, couplings, table.horizon, with_gradient=False)[0]


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
    return FreeEnergyReport(*_dataset_free_energy(summarize_dataset(table), net, couplings, table.horizon))


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
    lo = t_idx.astype(np.int64)
    summaries = Summaries(
        [tuple(np.flatnonzero(ref.initial_susceptible == 0.0).tolist())], np.array([0, lo.size]),
        nodes, lo, lo + 1, mass[t_idx, nodes],
    )
    return _dataset_free_energy(summaries, net, couplings, horizon)
