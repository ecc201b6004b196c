"""Discrete-time SI cascade generation and observation masking.

A cascade records one activation time per node.  Time runs in integer
steps ``0..T``; ``times[i] == T`` encodes "activated at time T or later"
(horizon censoring), so genuine activations carry times in ``1..T-1`` and
sources carry 0.  At every step each infected node attempts each of its
susceptible out-neighbors independently with the edge's coupling as the
per-step success probability.

Partial observation is described by :class:`MaskSpec` (a set of hidden
nodes plus a set of snapshot times) and leaves one half-open window
``(lo, hi]`` per visible node: the recorded activation time is known to
lie in that window.  Exact times, horizon censoring and snapshot
intervals are all special cases of the window, which keeps every
downstream likelihood computation uniform.

Every cascade holds its windows one way: one window code a node, 0 for a
hidden node, in one or two bytes.  A dataset travels from simulation to
fit as one :class:`CascadeTable`, an (M, N) array of them, and one
cascade is a one-row table.  Simulation, masking and reading write the
codes; writing, summarizing and fitting read them, a slice of a table at
a time (:func:`_blocks`), once a public function has stacked a list of
tables (:func:`_table`).  Reading is one stream of blocks of codes
(:func:`_cascade_blocks`): :func:`read_cascades` stacks them into a
table, and the summaries take them as they come, with no table.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import DatasetError, ParseError
from .graph import Network, _ranges, _read_only, validate_couplings

__all__ = [
    "CascadeTable",
    "MaskSpec",
    "cascade_substream",
    "generate_dataset",
    "sample_recorded_times",
    "monte_carlo_marginals",
    "apply_mask",
    "write_cascades",
    "read_cascades",
    "resolve_mask",
]

_MASK64 = (1 << 64) - 1


def cascade_substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based substream for cascade ``index`` of dataset ``seed``.

    Uses a Philox generator keyed by (seed, index), so any cascade is
    reproducible in isolation and independent of iteration order.
    """
    key = ((int(seed) & _MASK64) << 64) | (int(index) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


class _SubstreamDrawer:
    """Re-keys one Philox instance per cascade, bit-identical to
    :func:`cascade_substream`: the cascade index is written into one state
    dict, whose key list is reused for every cascade, instead of building a
    bit generator or a state dict each time (about 1 us per cascade against
    17 us for a fresh generator, numpy 2.4 on a 2-CPU x86-64 host)."""

    def __init__(self, seed: int):
        self._philox = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._philox)
        self._key = [0, int(seed) & _MASK64]
        self._state = {**self._philox.state, "state": {"counter": [0] * 4, "key": self._key}, "buffer": [0] * 4}

    def generator(self, index: int) -> np.random.Generator:
        self._key[0] = int(index) & _MASK64
        self._philox.state = self._state
        return self._gen


# ---------------------------------------------------------------------------
# window codes: how a cascade holds a window, known here alone


def _code_count(T: int) -> int:
    """Window codes of horizon T lie in [0, (T + 2)**2)."""
    return (T + 2) ** 2


def _code_dtype(T: int) -> type:
    """The smallest signed integer type that holds :func:`_code_count`:
    int8 up to T = 9, int16 up to T = 179, int32 beyond."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= _code_count(T))


# the codes of windows that break -1 <= lo < hi <= T, by the first rule broken:
# a bound outside [-1, T], else lo >= hi (code 0 would read as hidden)
_OUT_OF_RANGE, _EMPTY = -2, -1


def _window_codes(lo: np.ndarray, hi: np.ndarray, T: int) -> np.ndarray:
    """Windows ``(lo, hi]`` of int64 bounds as int64 codes ``(lo + 1) (T +
    2) + hi + 1``, which order as the pairs do: 0 is (-1, -1], a hidden
    node, and 1 is (-1, 0], a source.  A window that breaks ``-1 <= lo <
    hi <= T`` gets ``_OUT_OF_RANGE`` or ``_EMPTY``; see :func:`_checked`."""
    codes = lo + 1                   # in place from here: one int64 array, not three
    codes *= T + 2
    codes += hi
    codes += 1
    codes[lo >= hi] = _EMPTY
    codes[(lo < -1) | (lo > T) | (hi < -1) | (hi > T)] = _OUT_OF_RANGE
    return codes


def _window_bounds(codes: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 ``(lo, hi)`` of window codes of any integer type."""
    lo, hi = np.divmod(codes, T + 2, dtype=np.int64)
    return np.subtract(lo, 1, out=lo), np.subtract(hi, 1, out=hi)


def _exact_codes(times: np.ndarray, T: int) -> np.ndarray:
    """The int64 codes ``t (T + 3) + 1`` of the exact windows (t - 1, t] of
    int64 recorded times t, ``_OUT_OF_RANGE`` for a t outside [0, T]."""
    return np.where((times < 0) | (times > T), _OUT_OF_RANGE, times * (T + 3) + 1)


def _is_exact(codes: np.ndarray, T: int) -> np.ndarray:
    return codes % (T + 3) == 1


def _is_source(codes: np.ndarray) -> np.ndarray:
    return codes == 1


def _is_visible_non_source(codes: np.ndarray) -> np.ndarray:
    return codes > 1


def _checked(codes: np.ndarray, T: int) -> np.ndarray:
    """``codes`` if none is negative, else the error of a window's first broken rule."""
    if (codes == _OUT_OF_RANGE).any():
        raise DatasetError(f"observation windows must lie in [-1, {T}]")
    if (codes == _EMPTY).any():
        raise DatasetError("an observed window (lo, hi] must have lo < hi")
    return codes


def _encoded(horizon: int, lo, hi, hidden) -> np.ndarray:
    """The read-only window codes of the bounds ``lo`` and ``hi`` and the
    flags ``hidden``, of one shape, with every visible window checked
    (:func:`_checked`); a hidden cell is 0, whatever its bounds."""
    seen = ~np.asarray(hidden, dtype=bool)
    codes = np.zeros(seen.shape, dtype=_code_dtype(horizon))
    lo, hi = np.asarray(lo, dtype=np.int64)[seen], np.asarray(hi, dtype=np.int64)[seen]
    codes[seen] = _checked(_window_codes(lo, hi, horizon), horizon)
    return _read_only(codes)


# ---------------------------------------------------------------------------
# cascades: tables of window codes


@dataclass(frozen=True, eq=False, init=False)
class CascadeTable:
    """M cascades over N nodes as one (M, N) array of window codes, one
    row per cascade.

    A code is 0 for a hidden node and else that of the window ``(lo, hi]``
    known to hold the node's recorded activation time
    (:func:`_window_codes`); the codes take the smallest signed integer
    type that holds them (:func:`_code_dtype`), one byte a cell up to T =
    9, two up to T = 179, and are read-only.  The int64 bounds ``lo`` and
    ``hi`` and the bool ``hidden`` are decoded from them on first use and
    kept, read-only; a hidden node decodes as (-1, -1].  A window is an
    exact time t when ``hi - lo == 1`` and t < T (a source's is (-1, 0]),
    censored at the horizon when it is (T-1, T], and an interval otherwise
    (hi == T means "after lo, nothing more is known").

    The constructor takes (M, N) arrays ``lo``, ``hi`` and ``hidden``,
    encodes them and checks every visible window: ``-1 <= lo < hi <= T``;
    :meth:`is_fully_observed` then reads the codes.  Only
    :func:`generate_dataset` makes a ``complete`` table, of simulated
    cascades, with ``hi`` the recorded times, ``lo = hi - 1`` and nothing
    hidden; its slices, its sums with complete tables and the stacks of
    complete tables stay complete.

    One cascade is a one-row table.  ``len`` counts the rows, and
    iteration and an integer index give the one-row tables ``table[k:k +
    1]``, views of the codes that keep ``complete``; a slice gives a table
    of a view of the codes.  ``==`` compares horizon, ``complete`` and
    codes, and ``+`` stacks the codes of two tables into a new table,
    complete when both are.
    """

    horizon: int
    codes: np.ndarray
    complete: bool = False

    def __init__(self, horizon: int, lo, hi, hidden):
        vars(self).update(horizon=horizon, codes=_encoded(horizon, lo, hi, hidden))

    @cached_property
    def lo(self) -> np.ndarray:
        return _read_only(_window_bounds(self.codes, self.horizon)[0])

    @cached_property
    def hi(self) -> np.ndarray:
        return _read_only(_window_bounds(self.codes, self.horizon)[1])

    @cached_property
    def hidden(self) -> np.ndarray:
        return _read_only(self.codes == 0)

    @property
    def times(self) -> np.ndarray:
        """The recorded times of complete cascades: ``hi``."""
        return self.hi

    @property
    def n_nodes(self) -> int:
        return self.codes.shape[1]

    @property
    def sources(self) -> np.ndarray:
        """The flat indices of the cells observed exactly at time 0: of a
        one-row table, its source nodes."""
        return np.flatnonzero(_is_source(self.codes))

    def is_fully_observed(self) -> bool:
        """True when every node has an exactly pinned recorded time."""
        return self.complete or bool(np.all(_is_exact(self.codes, self.horizon)))

    def to_cascade(self) -> CascadeTable:
        """The same codes marked complete; requires full observation.
        Kept for ``bench/worker.py``, its one caller."""
        if not self.is_fully_observed():
            raise DatasetError("cascade is not fully observed")
        return _coded_table(self.horizon, self.codes, complete=True)

    def __eq__(self, other):
        return (isinstance(other, CascadeTable) and (self.horizon, self.complete) == (other.horizon, other.complete)
                and np.array_equal(self.codes, other.codes))

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            # a plain slice past either end would give an empty table
            row = range(len(self))[index]
            index = slice(row, row + 1)
        codes = self.codes[index]
        if codes.ndim != 2:
            raise IndexError("a table's index picks whole rows")
        return _coded_table(self.horizon, codes, self.complete)

    def __iter__(self):
        # also what a list ``+=`` a table takes, as ``bench/worker.py`` does
        T, complete = self.horizon, self.complete
        return (_coded_table(T, row, complete) for row in self.codes[:, None])

    def __add__(self, other):
        if not isinstance(other, CascadeTable):
            return NotImplemented
        horizon = _shared((self.horizon, other.horizon), "horizons")
        _shared((self.n_nodes, other.n_nodes), "node counts")
        return _coded_table(horizon, np.concatenate((self.codes, other.codes)), self.complete and other.complete)


def _coded_table(horizon: int, codes: np.ndarray, complete: bool = False) -> CascadeTable:
    """The table of the (M, N) window ``codes`` that hold valid windows,
    made read-only, past the encoding and checks of the constructor."""
    table = object.__new__(CascadeTable)
    vars(table).update(horizon=horizon, codes=_read_only(codes), complete=complete)
    return table


def _table(dataset, net: Network | None = None) -> CascadeTable:
    """A public function's dataset as the table that all below it take:
    ``dataset`` itself, or the codes of a list of tables (of one horizon
    and one width) stacked, complete when every one is.  The errors, in
    order: empty, a first table not as wide as ``net``, tables of more
    than one horizon, then of more than one width.  A list of one-row
    tables, masked one at a time, is what ``bench/worker.py`` writes."""
    if not len(dataset):
        raise DatasetError("empty dataset")
    if net is not None and dataset[0].n_nodes != net.n_nodes:
        raise DatasetError("dataset does not match the network")
    if isinstance(dataset, CascadeTable):
        return dataset
    horizon = _shared((part.horizon for part in dataset), "horizons")
    _shared((part.n_nodes for part in dataset), "node counts")
    return _coded_table(horizon, np.concatenate([part.codes for part in dataset]), all(part.complete for part in dataset))


def _shared(values: Iterable[int], what: str) -> int:
    """The one value of ``values``, the cascades' ``what``; more than one
    is an error."""
    values = set(values)
    if len(values) != 1:
        raise DatasetError(f"cascades with mismatched {what}: {sorted(values)}")
    return values.pop()


@dataclass(frozen=True)
class MaskSpec:
    """Which information survives observation.

    ``hidden_nodes`` are node indices whose activation time is removed in
    every cascade.  ``snapshot_times`` is a sorted tuple of monitoring
    times, or None for "all" (every step observed).
    """

    hidden_nodes: frozenset[int] = frozenset()
    snapshot_times: tuple[int, ...] | None = None

    def validate(self, n_nodes: int, horizon: int) -> None:
        self._validate_nodes(n_nodes)
        if self.snapshot_times is not None:
            ts = self.snapshot_times
            if list(ts) != sorted(set(ts)):
                raise DatasetError("snapshot times must be strictly increasing")
            if ts and (ts[0] < 0 or ts[-1] > horizon):
                raise DatasetError("snapshot times must lie in [0, horizon]")

    def _validate_nodes(self, n_nodes: int) -> None:
        """The check of :meth:`validate` that needs no horizon: every hidden
        node is an index in [0, n_nodes)."""
        for h in self.hidden_nodes:
            if not 0 <= h < n_nodes:
                raise DatasetError(f"hidden node index {h} out of range")


# ---------------------------------------------------------------------------
# simulation


def _as_source_array(net: Network, sources) -> np.ndarray:
    src = np.asarray(sorted({int(s) for s in sources}), dtype=np.intp)
    if src.size == 0:
        raise DatasetError("source set is empty")
    if src.min() < 0 or src.max() >= net.n_nodes:
        raise DatasetError("source index out of range")
    return src


def _spread(net: Network, horizon: int, times: np.ndarray, transmit: np.ndarray) -> None:
    """Run the steps of B cascades together, in place.

    ``times`` is (N, B), 0 at each cascade's sources and ``horizon``
    elsewhere on entry and the recorded times on return.  ``transmit[t]``
    is (|E|, B): whether each edge transmits at step t + 1 when its source
    is active by t and its destination is still susceptible.

    A step takes one compare, ``times <= t``: the nodes not active by t
    are the susceptible ones, as every time set so far is at most t.  The
    edges gather their ends' rows of it, and the cells that fire are found
    as flat indices of the (|E|, B) block; the steps stop once every node
    of every cascade is active.
    """
    esrc, edst = net.edge_src, net.edge_dst
    n_cols = times.shape[1]
    for t, fires in enumerate(transmit):
        active = times <= t
        if active.all():
            break
        fired = active.take(esrc, axis=0)
        fired &= fires
        fired &= ~active.take(edst, axis=0)
        edges, cols = np.divmod(np.flatnonzero(fired), n_cols)
        times[edst[edges], cols] = t + 1


def _thresholds(alpha: np.ndarray) -> np.ndarray:
    """The simulator's transmit rule: a raw 64-bit word ``w`` drawn for edge
    e transmits iff ``(w >> 11) < ceil(alpha[e] * 2**53)``, the threshold
    returned here.  That is exactly ``u < alpha[e]`` for the uniform ``u =
    (w >> 11) * 2**-53`` that ``Generator.random`` makes of the word."""
    return np.ceil(alpha * 2.0**53).astype(np.uint64)


def _eligible(n_nodes: int, exclude: Iterable[int]) -> np.ndarray:
    """The node indices in [0, n_nodes) not in ``exclude``, ascending: the
    pool of every random draw of nodes."""
    return np.array(sorted(set(range(n_nodes)) - {int(i) for i in exclude}), dtype=np.intp)


# raw 64-bit words that one block of generate_dataset's cascades draws
_BLOCK_WORDS = 1 << 18


def generate_dataset(net: Network, couplings, n_cascades: int, source_policy, horizon: int, seed: int,
                     exclude: Iterable[int] = ()) -> CascadeTable:
    """Generate independent cascades with per-cascade Philox substreams,
    as a complete :class:`CascadeTable`.

    ``source_policy`` is either an explicit collection of source node
    indices (used for every cascade) or the string ``"random"`` for one
    source per cascade, drawn uniformly from the node indices not in
    ``exclude`` (:func:`_eligible`, the pool of :func:`resolve_mask`), so
    passing the hidden nodes keeps every source visible.  Cascade ``c`` is
    a pure function of (seed, c): its substream (:func:`cascade_substream`)
    first yields the source's position in the pool when it is random, then
    one raw 64-bit word per step and edge, and edge e transmits at step t +
    1 iff its word passes :func:`_thresholds`' rule.  The cascades run
    their steps together in blocks of about ``_BLOCK_WORDS`` words, each
    from its own sources, through one word buffer; the result does not
    depend on the block size.  One Philox instance serves every cascade,
    re-keyed in place (:class:`_SubstreamDrawer`), so drawing the words is
    most of the work, and :func:`_spread` steps a block with a few array
    passes.  A policy string other than ``"random"``, an ``exclude`` with
    explicit sources, an excluded index outside [0, N) and an ``exclude``
    of every node are each a :class:`DatasetError`.
    """
    if n_cascades < 1:
        raise DatasetError("n_cascades must be >= 1")
    alpha = validate_couplings(net, couplings)
    exclude = {int(i) for i in exclude}
    pool = fixed_src = None
    if not isinstance(source_policy, str):
        if exclude:
            raise DatasetError("exclude applies to random sources only")
        fixed_src = _as_source_array(net, source_policy)
    elif source_policy != "random":
        raise DatasetError(f"unknown source policy {source_policy!r}")
    elif outside := sorted(exclude - set(range(net.n_nodes))):
        raise DatasetError(f"excluded node index {outside[0]} out of range")
    elif len(exclude) == net.n_nodes:
        raise DatasetError("exclude leaves no node to draw a source from")
    else:
        pool = _eligible(net.n_nodes, exclude)
    _check_horizon(horizon)

    n_steps, n_edges = horizon - 1, net.n_edges
    rows = min(n_cascades, max(1, _BLOCK_WORDS // max(1, n_steps * n_edges)))
    threshold = np.tile(_thresholds(alpha), n_steps)      # the words' own (step, edge) layout
    codes = np.empty((n_cascades, net.n_nodes), dtype=_code_dtype(horizon))
    words = np.empty((rows, n_steps * n_edges), dtype=np.uint64)
    drawer = _SubstreamDrawer(seed)
    for start in range(0, n_cascades, rows):
        size = min(rows, n_cascades - start)
        block = np.full((net.n_nodes, size), horizon, dtype=np.int64)
        for j in range(size):
            g = drawer.generator(start + j)
            if pool is not None:
                block[pool[g.integers(pool.size)], j] = 0
            words[j] = g.bit_generator.random_raw(n_steps * n_edges)
        if fixed_src is not None:
            block[fixed_src] = 0
        words >>= 11
        fires = np.less(words[:size], threshold).reshape(size, n_steps, n_edges)
        _spread(net, horizon, block, np.ascontiguousarray(fires.transpose(1, 2, 0)))
        codes[start:start + size] = _exact_codes(block.T, horizon)
    return _coded_table(horizon, codes, complete=True)


# ---------------------------------------------------------------------------
# fast per-node samplers (same process law, different randomness layout)


# rows of a block of the per-node samplers (and of the completions that
# baselines.marginalized_likelihood scores); each step draws a (rows, N)
# block of uniforms, so this size is part of the samplers' random streams
_SAMPLE_ROWS = 1 << 16


def _sampled_blocks(net: Network, couplings, sources, horizon: int, count: int, rng):
    """Yield ``(start, times)``: the (rows, N) recorded times of the next
    ``rows <= _SAMPLE_ROWS`` of ``count`` cascades that
    :func:`sample_recorded_times` samples.  An int ``rng`` is a seed for
    ``np.random.default_rng``; a block's steps stop once none is susceptible."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    with np.errstate(divide="ignore"):
        vals = np.log1p(-validate_couplings(net, couplings))
    src = _as_source_array(net, sources)
    # L[k, j] = log(1 - alpha_kj) for (k, j) in E, else 0; -inf -> -1e3
    L = np.zeros((net.n_nodes, net.n_nodes))
    L[net.edge_src, net.edge_dst] = np.where(np.isfinite(vals), vals, -1e3)
    for start in range(0, count, _SAMPLE_ROWS):
        size = min(_SAMPLE_ROWS, count - start)
        times = np.full((size, net.n_nodes), horizon, dtype=np.int64)
        times[:, src] = 0
        infected = np.zeros((size, net.n_nodes))
        infected[:, src] = 1.0
        susceptible = times == horizon
        for t in range(horizon - 1):
            p_inf = -np.expm1(infected @ L)
            newly = (rng.random((size, net.n_nodes)) < p_inf) & susceptible
            if newly.any():
                np.copyto(times, t + 1, where=newly)
                np.copyto(infected, 1.0, where=newly)
                susceptible &= ~newly
                if not susceptible.any():
                    break
        yield start, times


def sample_recorded_times(net: Network, couplings, sources, horizon: int, count: int, rng) -> np.ndarray:
    """Sample ``count`` cascades from a fixed source set; (count, N) times.

    Uses one Bernoulli draw per susceptible node per step with success
    probability 1 - prod(1 - alpha) over its infected in-neighbors, which
    has the same law as independent per-edge attempts.  The draws come
    from ``rng`` a block of ``_SAMPLE_ROWS`` rows at a time.  A negative
    ``count`` is a :class:`DatasetError`.
    """
    if count < 0:
        raise DatasetError("count must be >= 0")
    out = np.empty((count, net.n_nodes), dtype=np.int64)
    for start, times in _sampled_blocks(net, couplings, sources, horizon, count, rng):
        out[start:start + len(times)] = times
    return out


def monte_carlo_marginals(net: Network, couplings, sources, horizon: int, runs: int, rng) -> np.ndarray:
    """Empirical susceptibility estimates, shape (horizon+1, N).

    Entry [t, i] estimates the probability that node i is still
    susceptible at time t.  The dynamics is run one step past the horizon
    so that activation exactly at t=horizon is resolved and the estimate
    targets the true state probability at every t in [0, horizon].  The
    runs are those :func:`sample_recorded_times` draws, counted a block at
    a time; ``runs`` < 1 is a :class:`DatasetError`.
    """
    if runs < 1:
        raise DatasetError("runs must be >= 1")
    counts = np.zeros((horizon + 1, net.n_nodes), dtype=np.int64)
    for _, times in _sampled_blocks(net, couplings, sources, horizon + 1, runs, rng):
        for t in range(horizon + 1):
            counts[t] += (times > t).sum(axis=0)
    return counts / float(runs)


# ---------------------------------------------------------------------------
# masking


@lru_cache(maxsize=16)
def _mask_table(mask: MaskSpec, n_nodes: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """For ``mask``, validated, the 0/1 flags of the visible nodes and the
    window codes it leaves, both of the code type and read-only: at the
    code of the exact window of a recorded time tau in [0, T]
    (:func:`_exact_codes`), the code of the window ``(lo, hi]`` that the
    mask leaves of tau.

    Point s (0 or a snapshot) sees tau active iff tau <= min(s, T-1); the
    window ends there at the first such s, or at T after the last point.
    """
    mask.validate(n_nodes, horizon)
    T = horizon
    points = np.array(sorted({0, *(mask.snapshot_times if mask.snapshot_times is not None else range(T + 1))}), dtype=np.int64)
    seen = np.minimum(points, T - 1)
    first = np.searchsorted(seen, np.arange(T + 1))
    before = points[np.maximum(first - 1, 0)]
    lo = np.where(first == len(points), np.minimum(before, T - 1), before)
    hi = np.append(seen, T)[first]
    lo[0], hi[0] = -1, 0
    by_code = np.zeros(_code_count(T), dtype=_code_dtype(T))
    by_code[_exact_codes(np.arange(T + 1), T)] = _window_codes(lo, hi, T)
    visible = np.ones(n_nodes, dtype=by_code.dtype)
    visible[list(mask.hidden_nodes)] = 0
    return _read_only(visible), _read_only(by_code)


def apply_mask(cascade: CascadeTable | Sequence[CascadeTable], mask: MaskSpec) -> CascadeTable:
    """Reduce every cascade of a complete table, or of a list of tables, to
    what the mask lets an observer see.

    Snapshot semantics: the state is checked at each monitoring time (plus
    time 0, which is always known); a node first seen active at snapshot s
    was recorded in ``(prev, s]``; a snapshot at the horizon can only tell
    "activated by T-1" from "censored".  With ``snapshot_times=None`` every
    time step is monitored and visible nodes keep exact times.  The table
    must pin every node's time exactly; a list is stacked into a table
    first (:func:`_table`).  The codes are masked by one lookup of each
    and one product with the flags of the visible nodes.  A one-row table
    is masked as any other: ``bench/worker.py`` masks its cascades one at
    a time.
    """
    data = _table(cascade)
    if not data.is_fully_observed():
        raise DatasetError("cascade is not fully observed")
    visible, by_code = _mask_table(mask, data.n_nodes, data.horizon)
    codes = by_code.take(data.codes)
    codes *= visible
    return _coded_table(data.horizon, codes)


def resolve_mask(hidden, snapshots, net: Network, mask_seed: int | None = None, exclude: Iterable[int] = ()) -> MaskSpec:
    """Build a MaskSpec for the nodes of ``net`` from the fields of a mask
    description, as the CLI reads them from flags or a mask file.

    ``hidden`` is an iterable of node labels of ``net``, or an int count
    for random selection (requires ``mask_seed``; never selects the node
    indices in ``exclude``, so passing the nodes that start a cascade
    keeps every source visible).  A label not of ``net`` or a count outside
    [0, eligible nodes] is a :class:`DatasetError`.  ``snapshots`` is
    "all", None, or an iterable of times.
    """
    if isinstance(hidden, (int, np.integer)):
        if mask_seed is None:
            raise DatasetError("random hidden-node selection requires mask_seed")
        pool = _eligible(net.n_nodes, exclude)
        if not 0 <= hidden <= pool.size:
            raise DatasetError(f"cannot hide {hidden} of {pool.size} eligible nodes")
        g = np.random.Generator(np.random.Philox(key=int(mask_seed) & _MASK64))
        chosen = g.choice(pool, size=int(hidden), replace=False)
        hidden_nodes = frozenset(int(x) for x in chosen)
    else:
        ids = []
        for h in hidden:
            if isinstance(h, str) and h in net.label_index:
                ids.append(net.label_index[h])
            else:
                raise DatasetError(f"hidden node {h!r} is not a node label")
        hidden_nodes = frozenset(ids)
    if snapshots is None or snapshots == "all":
        snapshot_times = None
    else:
        snapshot_times = tuple(sorted({int(t) for t in snapshots}))
    return MaskSpec(hidden_nodes=hidden_nodes, snapshot_times=snapshot_times)


def _source_groups(dataset: CascadeTable | Sequence[CascadeTable]) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The distinct observed source sets of ``dataset`` in sorted order,
    and for each cascade the index of its set among them: the one
    numbering of source groups (:class:`_SourceSets`), ranked, which the
    two-stage baseline reads; the free-energy summaries take the same
    numbering a block at a time and sort their groups at the end.

    One forward model run per group suffices for likelihood work, so the
    cost of an update step scales with the number of distinct initial
    conditions, not with the number of cascades.  An empty dataset is
    rejected, and so is a cascade with no observed source (see
    :class:`_SourceSets`).  One walk over the table, a block at a time,
    numbers the sets as first met; the numbers are ranked in sorted order
    of the sets at the end.
    """
    sets = _SourceSets()
    set_id = np.concatenate([sets.number(block) for _start, block in _blocks(_table(dataset))])
    met, order = sets.met()
    # the inverse of the permutation from rank to first-met number
    return [met[number] for number in order], np.argsort(order)[set_id]


class _SourceSets:
    """The source sets of a walk over cascades, numbered as first met, a
    block of rows at a time: each block's rows are grouped by their source
    sets (the nodes of window code 1) packed into bits, and each group is
    looked up by its bits; a set is spelt out as its nodes when first met.
    The first cascade with no observed source (the source was hidden by
    the mask) is kept, and :meth:`met` rejects it: the model conditions on
    known initial conditions."""

    def __init__(self):
        self._number_of: dict[bytes, int] = {}       # by packed bits
        self._sets: list[tuple[int, ...]] = []       # by number
        self._rows = 0
        self._sourceless: int | None = None

    def number(self, block: CascadeTable) -> np.ndarray:
        """The number of the source set of each row of ``block``, the next
        block of the walk."""
        is_source = _is_source(block.codes)
        words = _bit_words(is_source)
        first, which = _group_rows(words)
        bits = np.stack([column[first] for column in words], axis=1)
        width, bits = 8 * bits.shape[1], bits.tobytes()
        met, empty = [], None
        for k, row in enumerate(first.tolist()):
            number = self._number_of.setdefault(bits[k * width : (k + 1) * width], len(self._sets))
            if number == len(self._sets):
                nodes = tuple(np.flatnonzero(is_source[row]).tolist())
                self._sets.append(nodes)
                if not nodes:
                    empty = number
            met.append(number)
        numbers = np.array(met, dtype=np.intp)[which]
        if empty is not None:
            self._sourceless = self._rows + int(np.argmax(numbers == empty))
        self._rows += len(block)
        return numbers

    def met(self) -> tuple[list[tuple[int, ...]], list[int]]:
        """The sets met, by number, and their numbers in sorted order of the
        sets; a cascade with no observed source is a :class:`DatasetError`
        that names the first one."""
        if self._sourceless is not None:
            raise DatasetError(f"cascade {self._sourceless} has no observed source; cannot fit")
        return self._sets, sorted(range(len(self._sets)), key=self._sets.__getitem__)


def _bit_words(flags: np.ndarray) -> list[np.ndarray]:
    """The rows of the (R, K) boolean ``flags``, K >= 1, packed into bits,
    as the uint64 word columns that :func:`_group_rows` groups."""
    packed = np.packbits(flags, axis=1)
    bits = np.zeros((packed.shape[0], -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    bits[:, : packed.shape[1]] = packed
    return list(bits.view(np.uint64).T)


# Bytes that one block of a walk over a table, one batched pass over a chunk
# of source groups (gradient._group_ranges) or one (rows, |E|) term array of a block
# of baselines.batch_full_log_likelihood or of NetRate holds: 1 MiB.
_PASS_BYTES = 1 << 20

# Cells of a block of the walks over a table: in the summaries a cell's code
# and its window's row, node and key, with the sort's copies, take 32 bytes.
_BLOCK_CELLS = _PASS_BYTES // 32


def _blocks(table: CascadeTable):
    """Yield ``(start, block)``: the slices ``table[start:start + rows]``
    that cut it into consecutive runs of about ``_BLOCK_CELLS`` cells."""
    step = max(1, _BLOCK_CELLS // max(1, table.n_nodes))
    for start in range(0, len(table), step):
        yield start, table[start : start + step]


def _split_rows(items: list, rows: np.ndarray, n_rows: int) -> list[list]:
    """``items``, one per entry of the ascending row indices ``rows``, cut
    into one list per row of ``n_rows``."""
    ends = np.cumsum(np.bincount(rows, minlength=n_rows)).tolist()
    return [items[a:b] for a, b in zip([0] + ends, ends)]


def _check_horizon(horizon: int, least: int = 1) -> None:
    if horizon < least:
        raise DatasetError(f"horizon must be >= {least}")


# ---------------------------------------------------------------------------
# file formats


def write_cascades(net: Network, cascades: CascadeTable | Sequence[CascadeTable]) -> str:
    """Serialize cascades (a table, or a list of tables, which is stacked:
    ``bench/worker.py`` writes a list of one-row tables) to the text format.

    First line ``T=<int>``; then one line per cascade:
    ``<id>\\t<token>,<token>,...`` with tokens ``v:t`` (exact),
    ``v:<T>+`` (censored at horizon) and ``v:(lo,hi]`` (interval).
    Hidden nodes are simply absent from the line.  An empty dataset is
    refused as every entry point refuses it (:func:`_table`), and so is a
    network with a label that would not read back (see
    :func:`_unwritable_label`), each with a :class:`DatasetError` before
    anything is written.

    The visible cells, the nonzero codes, are taken a block of rows at a
    time (:func:`_blocks`).  Each block builds one token text per distinct
    (window, node) pair among its cells, and its lines share those strings,
    so the work and the memory of a block grow with its cells and not with
    N or T.
    """
    table = _table(cascades, net)
    T = table.horizon
    bad = next((label for label in net.labels if _unwritable_label(label)), None)
    if bad is not None:
        raise DatasetError(f"node label {bad!r} cannot be written to a cascade file: a label there holds "
                           "no ',', ':', '(' or line break, and no whitespace at its ends")
    labels = np.array(net.labels, dtype=object)
    lines = [f"T={T}"]
    for start, block in _blocks(table):
        lines += _block_lines(block, start, labels)
    lines.append("")
    return "\n".join(lines)


def _block_lines(block: CascadeTable, start: int, labels: np.ndarray) -> list[str]:
    """The lines of ``block``'s cascades, numbered from ``start``, with the
    object array ``labels``; what it builds is freed before the next block."""
    T, n_nodes = block.horizon, block.n_nodes
    rows, nodes = np.nonzero(block.codes)
    # pairs keyed window first: their windows come out sorted, which unique sorts fast
    pairs, which = np.unique(block.codes[rows, nodes].astype(np.int64) * n_nodes + nodes, return_inverse=True)
    codes, nodes = np.divmod(pairs, n_nodes)
    codes, n_pairs = np.unique(codes, return_counts=True)
    lo_of, hi_of = _window_bounds(codes, T)
    # a window's suffix is made once, added to its pairs' labels (which follow one another), and freed
    suffixes = (_token_suffix(int(a), int(b), T) for a, b in zip(lo_of, hi_of))
    repeated = itertools.chain.from_iterable(map(itertools.repeat, suffixes, n_pairs.tolist()))
    texts = np.array(list(map(str.__add__, labels[nodes].tolist(), repeated)), dtype=object)
    tokens = texts[which].tolist()
    return [f"{r}\t" + ",".join(line_tokens) for r, line_tokens in enumerate(_split_rows(tokens, rows, len(block)), start)]


def _unwritable_label(label: str) -> bool:
    """Whether ``label`` would not read back from its tokens: the reader
    splits lines where ``str.splitlines`` does, cuts a line's tokens at
    commas outside an open ``(``, strips each and takes the label up to
    its first ``:``."""
    return any(c in label for c in ",:(") or label != label.strip() or len(label.splitlines()) > 1


def _token_suffix(lo: int, hi: int, T: int) -> str:
    """The ``:<time>`` part of a visible node's token for window (lo, hi]:
    ``:t`` for an exact time t < T, ``:<T>+`` for (T-1, T], censored at
    the horizon, and ``:(lo,hi]`` for any other window."""
    if hi - lo == 1:
        return f":{hi}" if hi < T else f":{T}+"
    return f":({lo},{hi}]"


def read_cascades(net: Network, text: str | TextIO) -> CascadeTable:
    """Parse the cascade file format; inverse of :func:`write_cascades`.

    After the ``T=<int>`` line, blank lines and lines starting with ``#``
    are skipped; every other line is ``<id>\\t<tokens>``, with an empty
    token list for a cascade whose nodes are all hidden.  Tokens are the
    runs of text between commas (an interval's ``(`` runs to its ``]``),
    each ``<label>:<time>``, with whitespace around a token or a number
    ignored.  Each error names its line; on a line, the first offending
    token in order is reported, and a window outside ``-1 <= lo < hi <= T``
    after all of them.

    ``text`` is a string or a text stream, such as a file opened as
    ``Path.read_text`` opens it (``open(path, encoding="utf-8")``); either
    is read as one stream of blocks of lines (:func:`_cascade_blocks`),
    whose code blocks are stacked into one table.
    """
    horizon, blocks = _cascade_blocks(net, text)
    return _coded_table(horizon, np.concatenate([block.codes for _start, block in blocks]))


def _cascade_blocks(net: Network, text: str | TextIO):
    """The horizon of the cascade text ``text`` (see :func:`read_cascades`)
    and a generator of ``(start, block)``: the tables of the cascades of
    its consecutive blocks of lines (:func:`_line_blocks`), ``start`` the
    index of a block's first cascade, as :func:`_blocks` cuts a table.

    The ``T=<int>`` line is read at once, and each block of lines when the
    generator reaches it, so a bad line raises there, and a text with no
    cascade raises once the generator is spent.  The blocks are tokenized
    by array passes over their UTF-8 bytes (see :func:`_token_spans`).  The
    tokens are looked up by their packed bytes in one vocabulary that the
    blocks share (:class:`_TokenTable`), so each distinct token text is
    decoded once and a block sorts only the tokens that miss there; each
    block's codes are then one scatter.  A reader holds one block at a
    time, besides the vocabulary: its lines, their bytes, int32 token
    spans, the keys of one word count, read in place from the bytes, and
    the codes, about 10 bytes a character of the block at their peak.
    """
    blocks = _line_blocks(text)
    for first, lines in blocks:
        skip = next((k for k, line in enumerate(lines) if line.strip()), len(lines))
        if skip < len(lines):
            break
    else:
        raise ParseError("cascade file must start with a 'T=<int>' line")
    if not lines[skip].startswith("T="):
        raise ParseError("cascade file must start with a 'T=<int>' line")
    try:
        T = int(lines[skip][2:])
    except ValueError:
        raise ParseError(f"bad horizon line {lines[skip]!r}") from None
    if T < 1:
        raise ParseError("horizon must be >= 1")
    tokens = _TokenTable(net, T)
    # chain holds its arguments as long as it lives, so the first block goes
    # in an iterator, which lets go of it once it is taken
    return T, _coded_blocks(tokens, itertools.chain(iter([(first + skip + 1, lines[skip + 1:])]), blocks))


def _coded_blocks(tokens: _TokenTable, blocks):
    """Yield ``(start, block)`` for the ``(first, lines)`` blocks of lines
    after a text's ``T=<int>`` line; a block of no cascade yields nothing."""
    start = 0
    for first, lines in blocks:
        codes = tokens.codes(first, lines)
        del lines                    # no block of text outlives its codes
        if len(codes):
            yield start, _coded_table(tokens.horizon, codes)
            start += len(codes)
    if not start:
        raise ParseError("cascade file contains no cascades")


# characters of text taken at a time by the cascade reader: at 2^15, 2^16,
# 2^17 and 2^18 a warm tree-snapshot stream, file to summaries, took 42, 35,
# 27 and 29 ms and peaked at 1.05, 1.20, 1.89 and 3.38 MiB (pa-hidden-snapshot
# 69, 53, 47 and 48 ms; medians of 8, 2-CPU x86-64 host)
_READ_BLOCK_CHARS = 1 << 17
# the characters at which str.splitlines ends a line, and a search for one
_LINE_ENDS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_END = re.compile(f"[{_LINE_ENDS}]")


def _line_blocks(text: str | TextIO):
    """Yield ``(number of the first line, lines)`` for consecutive runs of
    the lines of ``text``, a string or a text stream, as ``str.splitlines``
    cuts the whole text.

    The text is taken ``_READ_BLOCK_CHARS`` characters at a time: reads of
    a stream, or as many characters sliced from a string, so that a string
    is cut as a stream of it is read.  A block ends at the last line end
    taken so far; a ``\\r`` that ends the text taken so far waits for the
    next piece, which may start with the ``\\n`` of its ``\\r\\n``.  Pieces
    with no line end are held until one comes.
    """
    if isinstance(text, str):
        pieces = (text[k:k + _READ_BLOCK_CHARS] for k in range(0, len(text), _READ_BLOCK_CHARS))
    else:
        pieces = iter(lambda: text.read(_READ_BLOCK_CHARS), "")
    first, held = 1, []
    for piece in pieces:
        held.append(piece)
        if not _LINE_END.search(piece):
            continue
        lines = "".join(held).splitlines()
        end = piece[-1]
        del piece                    # no piece outlives its lines' block
        if end == "\r":
            held = [lines.pop() + end]
        elif end in _LINE_ENDS:
            held = []
        else:
            held = [lines.pop()]
        if lines:
            yield first, lines
            first += len(lines)
        del lines                    # nor a block of lines the next read
    if held:
        yield first, "".join(held).splitlines()


_NEWLINE, _TAB, _COMMA, _OPEN, _CLOSE, _HASH = b"\n\t,(]#"
_BODY = 1                            # event code of the tab that starts a line's token list
# first bytes of a line that str.lstrip() may strip: ASCII space, tab and
# unit separator, and the lead bytes of other characters
_MAYBE_SPACE = np.zeros(256, dtype=bool)
_MAYBE_SPACE[[ord(" "), _TAB, 0x1F]] = True
_MAYBE_SPACE[0x80:] = True


def _token_spans(lines: list[str]):
    """Split ``lines`` into their cascade lines and token spans.

    Returns the lines' UTF-8 bytes ``data``, each line followed by a
    newline and the last newline by ``_WORD_TAIL`` more bytes (see
    :func:`_packed_runs`); the indices in ``lines`` of the cascade lines
    (neither blank nor starting with ``#``) and whether each has a tab
    after its id; and, in order, the ``(start, end)`` byte spans of the
    runs of text between the commas that separate tokens on the lines with
    a tab, with the index among the cascade lines of the line of each, as
    int32 unless the bytes outgrow it.  A line's tokens follow
    its first tab after the id.  A comma separates tokens unless an
    interval is open at it: the last ``(`` before it among the line's
    tokens comes after the last ``]``.  A run can be empty or whitespace.

    The work is on the "events", the positions of the bytes
    ``\\n \\t , ( ]`` in order, with array passes over them.
    """
    data = "\n".join([*lines, _WORD_TAIL]).encode("utf-8", "surrogatepass")
    b = np.frombuffer(data, dtype=np.uint8, count=len(data) - len(_WORD_TAIL))
    index = np.int32 if b.size < 2**31 else np.int64
    at = b == _COMMA
    for byte in (_OPEN, _CLOSE, _NEWLINE, _TAB):
        at |= b == byte
    pos = np.flatnonzero(at)
    del at
    event = b[pos]
    newline = np.flatnonzero(event == _NEWLINE)              # the event of each line's end
    # the first byte and the first event of each line
    starts, firsts = np.zeros_like(newline), np.zeros_like(newline)
    starts[1:] = pos[newline[:-1]] + 1
    firsts[1:] = newline[:-1] + 1
    for k in np.flatnonzero(_MAYBE_SPACE[b[starts]]).tolist():
        line = lines[k]
        starts[k] += len(line[: len(line) - len(line.lstrip())].encode("utf-8", "surrogatepass"))
    lead = b[starts]
    cascade = np.flatnonzero((lead != _NEWLINE) & (lead != _HASH))
    tabs = np.flatnonzero(event == _TAB)
    tab = np.append(tabs, pos.size)[np.searchsorted(pos[tabs], starts[cascade])]
    has_tab = tab < newline[cascade]
    listed = cascade[has_tab]                                 # the lines with a token list
    event[tab[has_tab]] = _BODY

    # events before the _BODY of their line, or on a line without one, are outside the lists
    stop = newline.copy()
    stop[listed] = tab[has_tab]
    outside = _ranges(firsts, stop)
    # '(' opens an interval up to the next bracket, _BODY or newline
    mark = event == _OPEN
    for byte in (_CLOSE, _NEWLINE, _BODY):
        mark |= event == byte
    marks = np.flatnonzero(mark)
    del mark
    opened = np.flatnonzero(event[marks[:-1]] == _OPEN)
    inside = _ranges(marks[opened] + 1, marks[opened + 1])
    cut = event == _COMMA
    cut[outside] = cut[inside] = False
    del outside, marks, opened, inside
    cut[newline[listed]] = True
    cut |= event == _BODY
    # runs go from a _BODY or separating comma to the next separating comma or list end
    cut = np.flatnonzero(cut)
    at, event = pos[cut].astype(index), event[cut]
    del pos, cut
    run = event[:-1] != _NEWLINE
    start, end = at[:-1][run], at[1:][run]
    start += 1
    per_line = np.diff(np.append(np.flatnonzero(event == _BODY), event.size)) - 1
    line = np.repeat(np.flatnonzero(has_tab).astype(index), per_line)
    return data, cascade, has_tab, start, end, line


# bytes after a block's last newline, so that a word can be read at every byte before it
_WORD_TAIL = "\0" * 7
# 0xFF in the bytes of a little-endian word past its first k, for k in 0..8
_PAD_BYTES = np.array([(1 << 64) - (1 << 8 * k) for k in range(9)], dtype=np.uint64)


def _packed_runs(data: bytes, start: np.ndarray, end: np.ndarray):
    """Yield ``(runs, keys)`` for the non-empty byte runs
    ``data[start:end]``, one pair per word count: the runs with that count
    (``slice(None)`` when that is all of them, else their indices) and
    their keys, one uint64 array per word.  ``data`` holds at least 7 bytes
    after the last run, as :func:`_token_spans` leaves it.

    A run of L bytes is keyed by its bytes packed into (L + 7) // 8
    little-endian uint64 words, the last padded with 0xFF bytes.  UTF-8,
    also with ``surrogatepass``, never holds a byte from 0xF5 to 0xFF, so
    padding never looks like content: among runs of one word count, equal
    keys mean equal bytes, whatever the text holds.  The words are read in
    place, unaligned, from ``data``.
    """
    length = end - start
    n_words = length + 7
    n_words >>= 3
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    counts = np.bincount(n_words)
    for w in np.flatnonzero(counts).tolist():
        runs = slice(None) if counts[w] == length.size else np.flatnonzero(n_words == w)
        at, tail = start[runs], length[runs]
        keys = [words[at]] + [words[at + 8 * k] for k in range(1, w)]
        keys[-1] |= np.take(_PAD_BYTES, tail - 8 * (w - 1) if w > 1 else tail)
        yield runs, keys


def _group_rows(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows of the uint64 ``columns`` grouped exactly: one row index
    per group and the group of each row, groups in sorted order."""
    order = np.argsort(columns[0]) if len(columns) == 1 else np.lexsort(columns[::-1])
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.any([column[order[1:]] != column[order[:-1]] for column in columns], axis=0)
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return order[new], group


# Fibonacci hashing: the odd integer nearest 2**64 over the golden ratio
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
# runs that miss the key tables grouped at a time: a read's first block
# misses with all of its runs, so each group is put before the rest are
# looked up again, and few runs are sorted
_GROUP_RUNS = 1 << 12


class _KeyTable:
    """A direct-addressed table of token keys of one word count, each
    with its token code.

    A key's slot is the top bits of a multiplicative hash of its words.  A
    slot holds the first key put there, and a key whose slot is taken is
    not held.  The table has a power of two slots, at least twice the
    distinct keys met: the keys of its first put size it, and when the keys
    outgrow it, it is rebuilt from the keys it holds.
    """

    def __init__(self, width: int):
        self.n_keys = 0                  # distinct keys met
        self._allocate(0, width)

    def _allocate(self, n_slots: int, width: int) -> None:
        self.shift = np.uint64(65 - n_slots.bit_length())
        self.slot_code = np.full(n_slots, -1, dtype=np.int32)
        self.slot_keys = [np.zeros(n_slots, dtype=np.uint64) for _ in range(width)]

    def _slots(self, keys: list[np.ndarray]) -> np.ndarray:
        h = keys[0] * _HASH_MULTIPLIER
        for key in keys[1:]:
            h ^= key
            h *= _HASH_MULTIPLIER
        h >>= self.shift
        return h.view(np.int64)

    def find(self, keys: list[np.ndarray]) -> np.ndarray:
        """The code of each key, or -1 where its slot holds another key or
        none (an empty slot's code is -1)."""
        slot = self._slots(keys)
        hit = self.slot_keys[0][slot] == keys[0]
        for column, key in zip(self.slot_keys[1:], keys[1:]):
            hit &= column[slot] == key
        return np.where(hit, self.slot_code[slot], -1)

    def put(self, keys: list[np.ndarray], codes: np.ndarray, n_new: int) -> None:
        """Put distinct keys that missed, with their codes, in the slots
        that are free; ``n_new`` of them were not met before."""
        self.n_keys += n_new
        if 2 * self.n_keys > self.slot_code.size:
            held = self.slot_code >= 0
            old = [column[held] for column in self.slot_keys], self.slot_code[held]
            self._allocate(1 << (2 * self.n_keys - 1).bit_length(), len(keys))
            self._insert(*old)
        self._insert(keys, codes)

    def _insert(self, keys: list[np.ndarray], codes: np.ndarray) -> None:
        slot, first = np.unique(self._slots(keys), return_index=True)
        free = self.slot_code[slot] < 0
        slot, first = slot[free], first[free]
        for column, key in zip(self.slot_keys, keys):
            column[slot] = key[first]
        self.slot_code[slot] = codes[first]


class _TokenTable:
    """Tokenizes blocks of cascade lines; each distinct token text is
    decoded once, into its node and window code (see
    :class:`CascadeTable`), into node -1 when it is invalid, or into node
    -2 when it is only whitespace (no token).

    The texts met so far make one vocabulary for all the blocks of a read:
    a token is looked up by its packed key words (:func:`_packed_runs`) in
    the :class:`_KeyTable` of its word count.  Only the tokens that miss
    there are grouped by sorting their words, ``_GROUP_RUNS`` at a time;
    each group's text is then looked up in :attr:`code_of`, decoded if it
    is new, and put in the key table.
    """

    def __init__(self, net: Network, horizon: int):
        self.label_index = net.label_index
        self.n_nodes = net.n_nodes
        self.horizon = horizon
        self.code_of: dict[bytes, int] = {}
        self.decoded: list[tuple[int, int, int]] = []
        # by token code: its node, and its window code in a table's type
        self.node = np.empty(0, dtype=np.int32)
        self.window = np.empty(0, dtype=_code_dtype(horizon))
        self.key_tables: dict[int, _KeyTable] = {}    # per word count

    def codes(self, first: int, lines: list[str]) -> np.ndarray:
        """The (cascades, N) window codes of the cascade lines of the block
        ``lines``, whose first line has number ``first``.  The first line
        with an invalid token, with no tab or with a node listed twice
        raises its error (:meth:`line_error`).

        The key tables of the blocks before serve this one, as
        :func:`_packed_runs` keys a token alike in every block."""
        data, cascade, has_tab, start, end, line = _token_spans(lines)
        filled = end > start
        if not filled.all():
            start, end, line = start[filled], end[filled], line[filled]
        codes = np.empty(start.size, dtype=np.int32)
        for runs, keys in _packed_runs(data, start, end):
            codes[runs] = self._codes(data, start[runs], end[runs], keys)
            del keys
        del data, start, end
        if len(self.decoded) > len(self.node):
            node, lo, hi = np.array(self.decoded[len(self.node):], dtype=np.int64).T
            code = _window_codes(lo, hi, self.horizon)
            self.node = np.concatenate([self.node, np.where(code < 0, -1, node).astype(np.int32)])
            self.window = np.concatenate([self.window, code.astype(self.window.dtype)])
        nodes = self.node[codes]
        token = nodes != -2
        if not token.all():
            codes, nodes, line = codes[token], nodes[token], line[token]
        bad_line = ~has_tab
        bad_line[line[nodes < 0]] = True
        n_good = int(np.argmax(bad_line)) if bad_line.any() else cascade.size
        # the tokens come in line order, so those of the good lines lead
        n_tokens = int(np.searchsorted(line, n_good))
        codes, nodes, line = codes[:n_tokens], nodes[:n_tokens], line[:n_tokens]
        block = np.zeros((n_good, self.n_nodes), dtype=self.window.dtype)
        cell = np.multiply(line, self.n_nodes, dtype=np.intp)
        cell += nodes
        block.ravel()[cell] = self.window[codes]
        del cell
        # a node listed twice on a line leaves fewer cells than tokens
        twice = np.count_nonzero(block, axis=1) != np.bincount(line, minlength=n_good)
        bad = int(np.argmax(twice)) if twice.any() else n_good
        if bad < cascade.size:
            lineno = first + int(cascade[bad])
            raise self.line_error(lineno, lines[lineno - first])
        return block

    def _codes(self, data: bytes, start: np.ndarray, end: np.ndarray, keys: list[np.ndarray]) -> np.ndarray:
        """The codes of the runs ``data[start:end]``, whose keys have one
        word count; texts not met before are decoded and added.  The runs
        that miss are grouped ``_GROUP_RUNS`` at a time, and the runs after
        a group are looked up again once it is put."""
        table = self.key_tables.get(len(keys))
        codes = table.find(keys) if table is not None else np.full(start.size, -1, dtype=np.int32)
        miss = np.flatnonzero(codes < 0)
        if miss.size < codes.size:
            keys = [key[miss] for key in keys]
        while miss.size:
            head = [key[:_GROUP_RUNS] for key in keys]
            rep, which = _group_rows(head)
            at = miss[rep]
            texts = [data[a:z] for a, z in zip(start[at].tolist(), end[at].tolist())]
            n_known = len(self.decoded)
            found = np.array([self.code_of[text] if text in self.code_of else self._add(text) for text in texts],
                             dtype=np.int32)
            codes[miss[:_GROUP_RUNS]] = found[which]
            if table is None:
                table = self.key_tables[len(keys)] = _KeyTable(len(keys))
            table.put([key[rep] for key in head], found, int(np.count_nonzero(found >= n_known)))
            miss, keys = miss[_GROUP_RUNS:], [key[_GROUP_RUNS:] for key in keys]
            if miss.size:
                codes[miss] = found = table.find(keys)
                left = found < 0
                miss, keys = miss[left], [key[left] for key in keys]
        return codes

    def _add(self, text: bytes) -> int:
        """The code of a token text not seen before."""
        code = self.code_of[text] = len(self.decoded)
        self.decoded.append(self._decode(text.decode("utf-8", "surrogatepass").strip()))
        return code

    def _decode(self, tok: str) -> tuple[int, int, int]:
        """``(node, lo, hi)`` of a stripped token, node -2 when it is empty
        and -1 when it is bad; :meth:`codes` encodes the window.  The bounds
        are clipped into int64, [-2, T + 1], where one outside [-1, T] stays so."""
        if not tok:
            return -2, -1, 0
        try:
            node, spec = _split_token(tok, self.label_index)
            lo, hi = _decode_time(spec, self.horizon, tok)
        except ParseError:
            return -1, -1, 0
        return node, min(max(lo, -2), self.horizon + 1), min(max(hi, -2), self.horizon + 1)

    def line_error(self, lineno: int, raw: str) -> ParseError:
        """The error of a line with no tab, an invalid token or a node
        listed twice: that of its first bad token, else the bounds error."""
        data, cascade, has_tab, start, end, _line = _token_spans([raw])
        if not has_tab.all():
            return ParseError(f"line {lineno}: expected '<id>\\t<tokens>'")
        seen: set[int] = set()
        for a, z in zip(start.tolist(), end.tolist()):
            tok = data[a:z].decode("utf-8", "surrogatepass").strip()
            if not tok:
                continue
            try:
                node, spec = _split_token(tok, self.label_index)
                if node in seen:
                    raise ParseError(f"node {tok.partition(':')[0]!r} listed twice")
                seen.add(node)
                _decode_time(spec, self.horizon, tok)
            except ParseError as exc:
                return ParseError(f"line {lineno}: {exc}")
        return ParseError(f"line {lineno}: interval bounds must satisfy -1 <= lo < hi <= T")


def _split_token(tok: str, label_index: dict[str, int]) -> tuple[int, str]:
    """The node index and the time text of a stripped ``<label>:<time>`` token."""
    label, colon, spec = tok.partition(":")
    if not colon:
        raise ParseError(f"bad token {tok!r}")
    if label not in label_index:
        raise ParseError(f"unknown node {label!r}")
    return label_index[label], spec


def _decode_time(spec: str, T: int, tok: str) -> tuple[int, int]:
    """The window ``(lo, hi)`` of a token's time text: ``t``, ``<T>+`` or
    ``(lo,hi]``."""
    try:
        if spec.startswith("("):
            if not spec.endswith("]") or "," not in spec:
                raise ParseError(f"bad interval token {tok!r}")
            a, b = spec[1:-1].split(",", 1)
            return int(a), int(b)
        if spec.endswith("+"):
            if int(spec[:-1]) != T:
                raise ParseError(f"censor token must use horizon {T}")
            return T - 1, T
        t = int(spec)
    except ValueError:
        raise ParseError(f"non-integer time in token {tok!r}") from None
    if not 0 <= t < T:
        raise ParseError(f"exact time {t} outside [0, {T})")
    return t - 1, t
