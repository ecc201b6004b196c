"""Discrete-time SI cascade generation and observation masking.

A cascade records one activation time per node.  Time runs in integer
steps ``0..T``; ``times[i] == T`` encodes "activated at time T or later"
(horizon censoring), so genuine activations carry times in ``1..T-1`` and
sources carry 0.  At every step each infected node attempts each of its
susceptible out-neighbors independently with the edge's coupling as the
per-step success probability.

Partial observation is described by :class:`MaskSpec` (a set of hidden
nodes plus a set of snapshot times) and produces :class:`ObservedCascade`,
which stores one half-open bound pair ``(lo, hi]`` per visible node: the
recorded activation time is known to lie in that window.  Exact times,
horizon censoring and snapshot intervals are all special cases of the
bounds, which keeps every downstream likelihood computation uniform.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DatasetError, ParseError
from .graph import Network, validate_couplings

__all__ = [
    "Cascade",
    "ObservedCascade",
    "MaskSpec",
    "cascade_substream",
    "simulate_cascade",
    "generate_dataset",
    "sample_recorded_times",
    "monte_carlo_marginals",
    "apply_mask",
    "check_realizable",
    "group_cascades",
    "observe_fully",
    "write_cascades",
    "read_cascades",
    "parse_mask_spec",
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
    """Re-keys one Philox instance per cascade instead of constructing a
    fresh bit generator each time (~8x faster, bit-identical to
    :func:`cascade_substream`)."""

    def __init__(self, seed: int):
        self._philox = np.random.Philox(key=0)
        self._template = dict(self._philox.state)
        self._gen = np.random.Generator(self._philox)
        self._seed = np.uint64(int(seed) & _MASK64)

    def generator(self, index: int) -> np.random.Generator:
        st = self._template
        st["state"] = {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([int(index) & _MASK64, self._seed], dtype=np.uint64),
        }
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._philox.state = st
        return self._gen


@dataclass(frozen=True, eq=False)
class Cascade:
    """Complete activation-time record of one simulated spread."""

    horizon: int
    times: np.ndarray  # int array, length N, values in [0, horizon]

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.int64))

    @property
    def sources(self) -> np.ndarray:
        return np.flatnonzero(self.times == 0)

    def __eq__(self, other):
        return (
            isinstance(other, Cascade)
            and self.horizon == other.horizon
            and np.array_equal(self.times, other.times)
        )


@dataclass(frozen=True, eq=False)
class ObservedCascade:
    """Partially observed cascade.

    Per node ``i`` either ``hidden[i]`` is True, or the recorded activation
    time is known to satisfy ``lo[i] < t <= hi[i]``.  Derived statuses:

    - Exact(t):             (t-1, t]   with t <= T-1 (sources: (-1, 0])
    - CensoredAtHorizon:    (T-1, T]
    - Interval(lo, hi]:     everything else (hi == T means "after lo,
                            nothing more is known")
    """

    horizon: int
    lo: np.ndarray
    hi: np.ndarray
    hidden: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=np.int64))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=np.int64))
        object.__setattr__(self, "hidden", np.asarray(self.hidden, dtype=bool))

    @property
    def n_nodes(self) -> int:
        return self.lo.shape[0]

    @property
    def sources(self) -> np.ndarray:
        """Nodes observed exactly at time 0."""
        return np.flatnonzero(~self.hidden & (self.hi == 0))

    def status(self, i: int):
        """Human-readable status tuple for node ``i``."""
        if self.hidden[i]:
            return ("hidden",)
        return _window_status(int(self.lo[i]), int(self.hi[i]), self.horizon)

    def is_fully_observed(self) -> bool:
        """True when every node has an exactly pinned recorded time."""
        return bool(np.all(~self.hidden & (self.hi - self.lo == 1)))

    def to_cascade(self) -> Cascade:
        """Convert back to a Cascade; requires full observation."""
        if not self.is_fully_observed():
            raise DatasetError("cascade is not fully observed")
        return Cascade(self.horizon, self.hi.copy())

    def __eq__(self, other):
        return (
            isinstance(other, ObservedCascade)
            and self.horizon == other.horizon
            and np.array_equal(self.hidden, other.hidden)
            and np.array_equal(self.lo[~self.hidden], other.lo[~other.hidden])
            and np.array_equal(self.hi[~self.hidden], other.hi[~other.hidden])
        )


def _window_status(lo: int, hi: int, T: int) -> tuple:
    """``("exact", hi)``, ``("censored",)`` or ``("interval", lo, hi)`` for
    the window (lo, hi] of a visible node."""
    if hi - lo == 1 and hi < T:
        return ("exact", hi)
    if lo == T - 1 and hi == T:
        return ("censored",)
    return ("interval", lo, hi)


def observe_fully(cascade: Cascade) -> ObservedCascade:
    """ObservedCascade with every node pinned (identity mask)."""
    t = cascade.times
    return ObservedCascade(cascade.horizon, t - 1, t.copy(), np.zeros(t.shape[0], dtype=bool))


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
        for h in self.hidden_nodes:
            if not 0 <= h < n_nodes:
                raise DatasetError(f"hidden node index {h} out of range")
        if self.snapshot_times is not None:
            ts = self.snapshot_times
            if list(ts) != sorted(set(ts)):
                raise DatasetError("snapshot times must be strictly increasing")
            if ts and (ts[0] < 0 or ts[-1] > horizon):
                raise DatasetError("snapshot times must lie in [0, horizon]")


# ---------------------------------------------------------------------------
# simulation


def _as_source_array(net: Network, sources) -> np.ndarray:
    src = np.asarray(sorted({int(s) for s in sources}), dtype=np.intp)
    if src.size == 0:
        raise DatasetError("source set is empty")
    if src.min() < 0 or src.max() >= net.n_nodes:
        raise DatasetError("source index out of range")
    return src


def simulate_cascade(net: Network, couplings, sources, horizon: int, rng) -> Cascade:
    """Simulate one synchronous SI cascade.

    ``rng`` is a numpy Generator (or an int seed).  Each step consumes one
    uniform per directed edge from a pre-drawn ``(horizon-1) x |E|`` block,
    so the result does not depend on early termination.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.Generator(np.random.Philox(key=int(rng) & _MASK64))
    alpha = validate_couplings(net, couplings)
    src = _as_source_array(net, sources)
    _check_horizon(horizon)
    u = rng.random((max(horizon - 1, 0), net.n_edges))
    times = _run_edge_block(net, alpha, src, horizon, u[None, :, :])[0]
    return Cascade(horizon, times)


def _run_edge_block(net, alpha, src, horizon, u):
    """Vectorized per-edge simulation for a batch of cascades.

    ``u`` has shape (batch, horizon-1, |E|); returns (batch, N) int64 times.
    Transmission along edge e at step t succeeds iff u[c, t, e] < alpha[e].
    """
    batch = u.shape[0]
    times = np.full((batch, net.n_nodes), horizon, dtype=np.int64)
    times[:, src] = 0
    if net.n_edges == 0:
        return times
    esrc, edst = net.edge_src, net.edge_dst
    for t in range(horizon - 1):
        active = times <= t
        open_dst = times[:, edst] == horizon
        fired = (u[:, t, :] < alpha[None, :]) & active[:, esrc] & open_dst
        if fired.any():
            rows, cols = np.nonzero(fired)
            times[rows, edst[cols]] = t + 1
            if not (times == horizon).any():
                break
    return times


def generate_dataset(
    net: Network,
    couplings,
    n_cascades: int,
    source_policy,
    horizon: int,
    seed: int,
    chunk: int = 4096,
) -> list[Cascade]:
    """Generate independent cascades with per-cascade Philox substreams.

    ``source_policy`` is either an explicit collection of source node
    indices (used for every cascade) or the string ``"random"`` for one
    uniformly chosen source per cascade.  Cascade ``c`` is a pure function
    of (seed, c): with a random source, the substream first yields the
    source index, then the transmission uniforms.
    """
    if n_cascades < 1:
        raise DatasetError("n_cascades must be >= 1")
    alpha = validate_couplings(net, couplings)
    random_sources = isinstance(source_policy, str)
    if random_sources:
        if source_policy != "random":
            raise ValueError(f"unknown source policy {source_policy!r}")
        fixed_src = None
    else:
        fixed_src = _as_source_array(net, source_policy)
    _check_horizon(horizon)

    out: list[Cascade] = []
    n_steps = horizon - 1
    drawer = _SubstreamDrawer(seed)
    for start in range(0, n_cascades, chunk):
        stop = min(start + chunk, n_cascades)
        size = stop - start
        u = np.empty((size, n_steps, net.n_edges), dtype=np.float64)
        srcs = np.empty(size, dtype=np.intp)
        for j in range(size):
            g = drawer.generator(start + j)
            if random_sources:
                srcs[j] = int(g.integers(net.n_nodes))
            else:
                srcs[j] = -1
            u[j] = g.random((n_steps, net.n_edges))
        if random_sources:
            times = np.full((size, net.n_nodes), horizon, dtype=np.int64)
            # group cascades by their drawn source so each group runs vectorized
            for s in np.unique(srcs):
                idx = np.flatnonzero(srcs == s)
                times[idx] = _run_edge_block(net, alpha, np.array([s]), horizon, u[idx])
        else:
            times = _run_edge_block(net, alpha, fixed_src, horizon, u)
        out.extend(Cascade(horizon, times[j]) for j in range(size))
    return out


def check_realizable(net: Network, cascade: Cascade) -> bool:
    """Every non-source activation has an in-neighbor active one step earlier."""
    t = cascade.times
    for i in range(net.n_nodes):
        if 0 < t[i] < cascade.horizon:
            parents = net.in_neighbors(i)
            if not parents or min(t[k] for k in parents) > t[i] - 1:
                return False
    return True


# ---------------------------------------------------------------------------
# fast per-node samplers (same process law, different randomness layout)


def _log_survival_matrix(net: Network, alpha) -> np.ndarray:
    """L[k, j] = log(1 - alpha_kj) for (k, j) in E, else 0; -inf -> -1e3."""
    L = np.zeros((net.n_nodes, net.n_nodes))
    with np.errstate(divide="ignore"):
        vals = np.log1p(-np.asarray(alpha, dtype=np.float64))
    vals = np.where(np.isfinite(vals), vals, -1e3)
    L[net.edge_src, net.edge_dst] = vals
    return L


def sample_recorded_times(
    net: Network,
    couplings,
    sources,
    horizon: int,
    count: int,
    rng: np.random.Generator,
    chunk: int = 65536,
) -> np.ndarray:
    """Sample ``count`` cascades from a fixed source set; (count, N) times.

    Uses one Bernoulli draw per susceptible node per step with success
    probability 1 - prod(1 - alpha) over its infected in-neighbors, which
    has the same law as independent per-edge attempts.
    """
    alpha = validate_couplings(net, couplings)
    src = _as_source_array(net, sources)
    L = _log_survival_matrix(net, alpha)
    out = np.empty((count, net.n_nodes), dtype=np.int64)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        size = stop - start
        times = np.full((size, net.n_nodes), horizon, dtype=np.int64)
        times[:, src] = 0
        infected = np.zeros((size, net.n_nodes))
        infected[:, src] = 1.0
        for t in range(horizon - 1):
            p_inf = -np.expm1(infected @ L)
            u = rng.random((size, net.n_nodes))
            newly = (u < p_inf) & (times == horizon)
            if newly.any():
                times[newly] = t + 1
                infected[newly] = 1.0
                if not (times == horizon).any():
                    break
        out[start:stop] = times
    return out


def monte_carlo_marginals(
    net: Network,
    couplings,
    sources,
    horizon: int,
    runs: int,
    rng,
    chunk: int = 65536,
) -> np.ndarray:
    """Empirical susceptibility estimates, shape (horizon+1, N).

    Entry [t, i] estimates the probability that node i is still
    susceptible at time t.  The dynamics is run one step past the horizon
    so that activation exactly at t=horizon is resolved and the estimate
    targets the true state probability at every t in [0, horizon].
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    counts = np.zeros((horizon + 1, net.n_nodes), dtype=np.int64)
    done = 0
    while done < runs:
        size = min(chunk, runs - done)
        times = sample_recorded_times(net, couplings, sources, horizon + 1, size, rng)
        for t in range(horizon + 1):
            counts[t] += (times > t).sum(axis=0)
        done += size
    return counts / float(runs)


# ---------------------------------------------------------------------------
# masking


@lru_cache(maxsize=16)
def _mask_table(mask: MaskSpec, n_nodes: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The validated hidden nodes of ``mask`` and the (2, T+2) table of the
    window ``(lo, hi]`` it leaves of a recorded time tau, in column tau+1
    for tau in [-1, T]; both read-only.

    Times below -1 see what -1 sees and times above T what T sees, so
    the column of any time is tau + 1 clipped into the table.
    """
    mask.validate(n_nodes, horizon)
    T = horizon
    points = sorted({0, *(mask.snapshot_times if mask.snapshot_times is not None else range(T + 1))})
    table = np.empty((2, T + 2), dtype=np.int64)
    for tau in range(-1, T + 1):
        if tau == 0:
            table[:, 1] = -1, 0
            continue
        first_active = None
        prev = 0
        for s in points:
            active = tau <= s if s < T else tau < T
            if active:
                first_active = s
                break
            prev = s
        if first_active is None:
            # never seen active: after the last monitored time
            table[:, tau + 1] = (T - 1, T) if prev >= T - 1 else (prev, T)
        else:
            table[:, tau + 1] = prev, min(first_active, T - 1)
    hidden = np.array(sorted(mask.hidden_nodes), dtype=np.intp)
    table.setflags(write=False)
    hidden.setflags(write=False)
    return hidden, table


def apply_mask(cascade: Cascade, mask: MaskSpec) -> ObservedCascade:
    """Reduce a complete cascade to what the mask lets an observer see.

    Snapshot semantics: the state is checked at each monitoring time (plus
    time 0, which is always known); a node first seen active at snapshot s
    was recorded in ``(prev, s]``; a snapshot at the horizon can only tell
    "activated by T-1" from "censored".  With ``snapshot_times=None`` every
    time step is monitored and visible nodes keep exact times.
    """
    T = cascade.horizon
    n = cascade.times.shape[0]
    hidden_nodes, windows = _mask_table(mask, n, T)
    lo, hi = windows.take(cascade.times + 1, axis=1, mode="clip")
    lo[hidden_nodes] = hi[hidden_nodes] = -1
    hidden = np.zeros(n, dtype=bool)
    hidden[hidden_nodes] = True
    return ObservedCascade(T, lo, hi, hidden)


def resolve_mask(
    hidden,
    snapshots,
    n_nodes: int,
    net: Network | None = None,
    mask_seed: int | None = None,
    exclude: Iterable[int] = (),
) -> MaskSpec:
    """Build a MaskSpec from file/CLI-style fields.

    ``hidden`` is an iterable of node labels of ``net`` (node indices when
    no ``net`` is given), or an int count for random selection (requires
    ``mask_seed``; never selects nodes listed in ``exclude``).  An entry
    that is not a label of ``net`` is a :class:`DatasetError`.
    ``snapshots`` is "all", None, or an iterable of times.
    """
    if isinstance(hidden, (int, np.integer)):
        if mask_seed is None:
            raise DatasetError("random hidden-node selection requires mask_seed")
        pool = np.array(sorted(set(range(n_nodes)) - set(exclude)), dtype=np.intp)
        if hidden > pool.size:
            raise DatasetError(f"cannot hide {hidden} of {pool.size} eligible nodes")
        g = np.random.Generator(np.random.Philox(key=int(mask_seed) & _MASK64))
        chosen = g.choice(pool, size=int(hidden), replace=False)
        hidden_nodes = frozenset(int(x) for x in chosen)
    else:
        ids = []
        for h in hidden:
            if net is None:
                ids.append(int(h))
            elif isinstance(h, str) and h in net.label_index:
                ids.append(net.label_index[h])
            else:
                raise DatasetError(f"hidden node {h!r} is not a node label")
        hidden_nodes = frozenset(ids)
    if snapshots is None or snapshots == "all":
        snapshot_times = None
    else:
        snapshot_times = tuple(sorted({int(t) for t in snapshots}))
    return MaskSpec(hidden_nodes=hidden_nodes, snapshot_times=snapshot_times)


def group_cascades(dataset: Sequence[ObservedCascade]) -> dict[tuple[int, ...], list[ObservedCascade]]:
    """Partition cascades by their observed source set.

    One forward model run per group suffices for likelihood work, so the
    cost of an update step scales with the number of distinct initial
    conditions, not with the number of cascades.  A cascade with no
    observed source (the source was hidden by the mask) is rejected: the
    model conditions on known initial conditions.
    """
    keys, group_of = _source_groups(dataset)
    groups: dict[tuple[int, ...], list[ObservedCascade]] = {key: [] for key in keys}
    members = list(groups.values())
    for obs, g in zip(dataset, group_of.tolist()):
        members[g].append(obs)
    return groups


def _source_groups(dataset: Sequence[ObservedCascade]) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The distinct observed source sets of ``dataset`` in sorted order,
    and for each cascade the index of its set among them.

    This is the grouping rule of :func:`group_cascades` and, through
    :func:`_source_sets` and :func:`_ranked_sets`, of the free-energy
    summaries; it rejects an empty dataset and names the first cascade with
    no observed source.
    """
    if not len(dataset):
        raise DatasetError("empty dataset")
    ids: dict[tuple[int, ...], int] = {}
    set_id = np.concatenate([_source_sets(hi, hidden, ids) for _start, _lo, hi, hidden in _row_blocks(dataset)])
    keys, rank = _ranked_sets(ids, set_id)
    return keys, rank[set_id]


def _source_sets(hi: np.ndarray, hidden: np.ndarray, ids: dict[tuple[int, ...], int]) -> np.ndarray:
    """The id in ``ids`` of the observed source set (the visible nodes with
    ``hi == 0``) of each row of a block; a set not in ``ids`` yet is added
    with the next id.  Rows are grouped by their sets packed into bits."""
    is_source = ~hidden & (hi == 0)
    first, which = _group_rows(_bit_words(is_source))
    set_ids = [ids.setdefault(tuple(np.flatnonzero(is_source[row]).tolist()), len(ids)) for row in first.tolist()]
    return np.array(set_ids, dtype=np.intp)[which]


def _bit_words(flags: np.ndarray) -> list[np.ndarray]:
    """The rows of the (R, K) boolean ``flags``, K >= 1, packed into bits,
    as the uint64 word columns that :func:`_group_rows` groups."""
    packed = np.packbits(flags, axis=1)
    bits = np.zeros((packed.shape[0], -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    bits[:, : packed.shape[1]] = packed
    return list(bits.view(np.uint64).T)


def _ranked_sets(ids: dict[tuple[int, ...], int], set_id: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The sets of ``ids`` in sorted order and the rank of each id, given
    the id of each cascade's set; a cascade with an empty set is an error."""
    if () in ids:
        idx = int(np.argmax(set_id == ids[()]))
        raise DatasetError(f"cascade {idx} has no observed source; cannot fit")
    keys = sorted(ids)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[[ids[key] for key in keys]] = np.arange(len(keys))
    return keys, rank


# cells (cascades x nodes) stacked at a time by the whole-dataset passes
_CHUNK_CELLS = 8192


def _row_blocks(cascades: Sequence[Cascade | ObservedCascade]):
    """Yield ``(start, lo, hi, hidden)``: the window bounds and hidden flags
    of ``cascades[start:start + rows]`` stacked into (rows, N) arrays of
    about ``_CHUNK_CELLS`` cells, for consecutive runs of cascades.
    Complete cascades are observed fully."""
    n_nodes = _observed(cascades[0]).n_nodes
    step = max(1, _CHUNK_CELLS // max(1, n_nodes))
    for start in range(0, len(cascades), step):
        chunk = [_observed(c) for c in cascades[start : start + step]]
        yield (start, *(np.concatenate([getattr(c, name) for c in chunk]).reshape(len(chunk), n_nodes)
                        for name in ("lo", "hi", "hidden")))


def _observed(cascade: Cascade | ObservedCascade) -> ObservedCascade:
    return observe_fully(cascade) if isinstance(cascade, Cascade) else cascade


def _split_rows(items: list, rows: np.ndarray, n_rows: int) -> list[list]:
    """``items``, one per entry of the ascending row indices ``rows``, cut
    into one list per row of ``n_rows``."""
    ends = np.cumsum(np.bincount(rows, minlength=n_rows)).tolist()
    return [items[a:b] for a, b in zip([0] + ends, ends)]


def _window_codes(lo: np.ndarray, hi: np.ndarray, T: int) -> tuple[np.ndarray, bool]:
    """Windows ``(lo, hi]`` as int64 codes ``(lo + 1) * (T + 2) + hi + 1``,
    which order as the pairs do, and whether all bounds lie in [-1, T]
    (outside it the codes mean nothing; see :func:`_window_range_error`)."""
    in_range = not lo.size or (min(lo.min(), hi.min()) >= -1 and max(lo.max(), hi.max()) <= T)
    return (lo + 1) * (T + 2) + hi + 1, in_range


def _window_range_error(T: int) -> DatasetError:
    return DatasetError(f"observation windows must lie in [-1, {T}]")


def _window_bounds(codes: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(lo, hi)`` arrays that :func:`_window_codes` encoded."""
    lo, hi = np.divmod(codes, T + 2)
    return lo - 1, hi - 1


def _check_horizon(horizon: int, least: int = 1) -> None:
    if horizon < least:
        raise DatasetError(f"horizon must be >= {least}")


def _common_horizon(dataset: Sequence[Cascade | ObservedCascade]) -> int:
    """The horizon every cascade of ``dataset`` shares."""
    if not len(dataset):
        raise DatasetError("empty dataset")
    horizons = {obs.horizon for obs in dataset}
    if len(horizons) != 1:
        raise DatasetError(f"cascades with mismatched horizons: {sorted(horizons)}")
    return horizons.pop()


# ---------------------------------------------------------------------------
# file formats


def write_cascades(net: Network, cascades: Sequence[Cascade | ObservedCascade]) -> str:
    """Serialize cascades (complete or observed) to the text format.

    First line ``T=<int>``; then one line per cascade:
    ``<id>\\t<token>,<token>,...`` with tokens ``v:t`` (exact),
    ``v:<T>+`` (censored at horizon) and ``v:(lo,hi]`` (interval).
    Hidden nodes are simply absent from the line.
    """
    if not cascades:
        raise ValueError("no cascades to write")
    T = _common_horizon(cascades)
    labels = np.array(net.labels, dtype=object)
    lines = [f"T={T}"]
    for start, lo, hi, hidden in _row_blocks(cascades):
        rows, nodes = np.nonzero(~hidden)
        codes, in_range = _window_codes(lo[rows, nodes], hi[rows, nodes], T)
        if not in_range:
            raise _window_range_error(T)
        codes, which = np.unique(codes, return_inverse=True)
        lo_of, hi_of = _window_bounds(codes, T)
        suffixes = [_token_suffix(a, b, T) for a, b in zip(lo_of.tolist(), hi_of.tolist())]
        tokens = (labels[nodes] + np.array(suffixes, dtype=object)[which]).tolist()
        for r, line_tokens in enumerate(_split_rows(tokens, rows, hidden.shape[0]), start):
            lines.append(f"{r}\t" + ",".join(line_tokens))
    return "\n".join(lines) + "\n"


def _token_suffix(lo: int, hi: int, T: int) -> str:
    """The ``:<time>`` part of a visible node's token for window (lo, hi]."""
    st = _window_status(lo, hi, T)
    if st[0] == "exact":
        return f":{hi}"
    if st[0] == "censored":
        return f":{T}+"
    return f":({lo},{hi}]"


def read_cascades(net: Network, text: str) -> list[ObservedCascade]:
    """Parse the cascade file format; inverse of :func:`write_cascades`.

    After the ``T=<int>`` line, blank lines and lines starting with ``#``
    are skipped; every other line is ``<id>\\t<tokens>``, with an empty
    token list for a cascade whose nodes are all hidden.  Tokens are the
    runs of text between commas (an interval's ``(`` runs to its ``]``),
    each ``<label>:<time>``, with whitespace around a token or a number
    ignored.  Each error names its line; on a line, the first offending
    token in order is reported, and a window outside ``-1 <= lo < hi <= T``
    after all of them.  The cascades are row views of one (M, N) array per
    field.

    The text is tokenized a block of about ``_READ_BLOCK_CHARS`` characters
    of whole lines at a time, by array passes over its UTF-8 bytes (see
    :func:`_token_spans`); each distinct token text is decoded once.
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
    parts = []                       # per block: line numbers, token counts and token codes of its cascades
    bad = None                       # number of the first line found to be bad
    for first, lines in itertools.chain([(first + skip + 1, lines[skip + 1:])], blocks):
        numbers, counts, codes, bad = tokens.scan(first, lines)
        parts.append((numbers, counts, codes))
        if bad is not None:
            break
    n_cascades = sum(counts.size for _numbers, counts, _codes in parts)
    if not n_cascades and bad is None:
        raise ParseError("cascade file contains no cascades")

    shape = (n_cascades, net.n_nodes)
    lo = np.full(shape, -1, dtype=np.int64)
    hi = np.full(shape, -1, dtype=np.int64)
    hidden = np.ones(shape, dtype=bool)
    node_of, lo_of, hi_of = tokens.table.T
    done = 0
    for numbers, counts, codes in parts:
        codes = codes.astype(np.intp)
        cells = np.repeat(np.arange(done, done + counts.size) * net.n_nodes, counts) + node_of[codes]
        hidden.ravel()[cells] = False
        lo.ravel()[cells] = lo_of[codes]
        hi.ravel()[cells] = hi_of[codes]
        # a node listed twice on a line leaves fewer cells than tokens
        twice = np.count_nonzero(~hidden[done : done + counts.size], axis=1) != counts
        if twice.any():
            bad = int(numbers[np.argmax(twice)])
            break
        done += counts.size
    if bad is not None:
        raise tokens.line_error(bad, text.splitlines()[bad - 1])
    return _observed_rows(T, lo, hi, hidden)


# characters of text tokenized at a time by read_cascades, cut after a line end
_READ_BLOCK_CHARS = 1 << 17


def _line_blocks(text: str):
    """Yield ``(number of the first line, lines)`` for consecutive runs of
    the lines of ``text``, as ``str.splitlines`` cuts them, of about
    ``_READ_BLOCK_CHARS`` characters each."""
    start, first = 0, 1
    while start < len(text):
        cut = text.find("\n", start + _READ_BLOCK_CHARS) + 1 or len(text)
        lines = text[start:cut].splitlines()
        yield first, lines
        start, first = cut, first + len(lines)


def _observed_rows(horizon: int, lo: np.ndarray, hi: np.ndarray, hidden: np.ndarray) -> list[ObservedCascade]:
    """ObservedCascade views of the rows of (M, N) int64 ``lo``/``hi`` and
    bool ``hidden`` arrays, set directly since their dtypes already hold."""
    rows = []
    for lo_row, hi_row, hidden_row in zip(list(lo), list(hi), list(hidden)):
        obs = object.__new__(ObservedCascade)
        object.__setattr__(obs, "horizon", horizon)
        object.__setattr__(obs, "lo", lo_row)
        object.__setattr__(obs, "hi", hi_row)
        object.__setattr__(obs, "hidden", hidden_row)
        rows.append(obs)
    return rows


_NEWLINE, _TAB, _COMMA, _OPEN, _CLOSE, _HASH = b"\n\t,(]#"
_BODY = 1                            # event code of the tab that starts a line's token list
_NUL = b"\0"
# first bytes of a line that str.lstrip() may strip: ASCII space, tab and
# unit separator, and the lead bytes of other characters
_MAYBE_SPACE = np.zeros(256, dtype=bool)
_MAYBE_SPACE[[ord(" "), _TAB, 0x1F]] = True
_MAYBE_SPACE[0x80:] = True


def _token_spans(lines: list[str]):
    """Split ``lines`` into their cascade lines and token spans.

    Returns the lines' UTF-8 bytes ``data``, each line followed by a
    newline; the indices in ``lines`` of the cascade lines (neither blank
    nor starting with ``#``) and whether each has a tab after its id; and,
    in order, the ``(start, end)`` byte spans of the runs of text between
    the commas that separate tokens on the lines with a tab, with the index
    among the cascade lines of the line of each.  A line's tokens follow
    its first tab after the id.  A comma separates tokens unless an
    interval is open at it: the last ``(`` before it among the line's
    tokens comes after the last ``]``.  A run can be empty or whitespace.

    The work is on the "events", the positions of the bytes
    ``\\n \\t , ( ]`` in order, with array passes over them.
    """
    data = ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")
    b = np.frombuffer(data, dtype=np.uint8)
    pos = np.flatnonzero((b == _COMMA) | (b == _OPEN) | (b == _CLOSE) | (b == _NEWLINE) | (b == _TAB))
    event = b[pos]
    newline = np.flatnonzero(event == _NEWLINE)              # the event of each line's end
    ends = pos[newline]
    starts = np.concatenate(([0], ends[:-1] + 1))
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
    outside = _ranges(np.concatenate(([0], newline[:-1] + 1)), stop)
    # '(' opens an interval up to the next bracket, _BODY or newline
    marks = np.flatnonzero((event == _OPEN) | (event == _CLOSE) | (event == _NEWLINE) | (event == _BODY))
    opened = np.flatnonzero(event[marks[:-1]] == _OPEN)
    inside = _ranges(marks[opened] + 1, marks[opened + 1])
    cut = event == _COMMA
    cut[outside] = cut[inside] = False
    cut[newline[listed]] = True
    cut |= event == _BODY
    # runs go from a _BODY or separating comma to the next separating comma or list end
    cut = np.flatnonzero(cut)
    run = np.flatnonzero(event[cut[:-1]] != _NEWLINE)
    per_line = np.diff(np.append(np.flatnonzero(event[cut] == _BODY), cut.size)) - 1
    line = np.repeat(np.flatnonzero(has_tab), per_line)
    return data, cascade, has_tab, pos[cut[run]] + 1, pos[cut[run + 1]], line


def _ranges(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The integers of the ranges ``[start, stop)``, in order."""
    size = stop - start
    filled = size > 0
    start, size = start[filled], size[filled]
    return np.repeat(start - np.cumsum(size) + size, size) + np.arange(size.sum())


# mask of the first k bytes of a little-endian word, for k in 0..8
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _distinct_runs(data: bytes, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The byte runs ``data[start:end]`` grouped by their exact content:
    one run index per distinct content, and the distinct index of each run.

    A run is keyed by its bytes packed into little-endian uint64 words,
    zero-padded.  When ``data`` holds a NUL byte, padding could look like
    content, so a run of length L takes L // 8 + 1 words and L % 8 goes in
    the top byte of the last (which holds at most 7 of its bytes).  Runs
    with the same number of words are sorted by their words together.
    """
    length = end - start
    has_nul = _NUL in data
    # without NUL bytes, zero padding alone tells the lengths apart
    n_words = length // 8 + 1 if has_nul else (length + 7) // 8
    words = np.ndarray((len(data),), dtype="<u8", buffer=data + bytes(8), strides=(1,))
    first, inverse = [], np.empty(start.size, dtype=np.intp)
    for w in np.flatnonzero(np.bincount(n_words)).tolist():
        runs = np.flatnonzero(n_words == w)
        at, rest = start[runs], length[runs]
        keys = [words[at + 8 * k] & _LOW_BYTES[np.clip(rest - 8 * k, 0, 8)] for k in range(w)]
        if has_nul:
            keys[-1] |= (rest % 8).astype(np.uint64) << np.uint64(56)
        rep, which = _group_rows(keys)
        inverse[runs] = len(first) + which
        first += runs[rep].tolist()
    return np.array(first, dtype=np.intp), inverse


def _group_rows(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows of the uint64 ``columns`` grouped exactly: one row index
    per group and the group of each row, groups in sorted order."""
    order = np.argsort(columns[0]) if len(columns) == 1 else np.lexsort(columns[::-1])
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.any([column[order[1:]] != column[order[:-1]] for column in columns], axis=0)
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return order[new], group


class _TokenTable:
    """Tokenizes blocks of cascade lines; each distinct token text is
    decoded once, into its node and window, into node -1 when it is
    invalid, or into node -2 when it is only whitespace (no token)."""

    def __init__(self, net: Network, horizon: int):
        self.label_index = net.label_index
        self.horizon = horizon
        self.code_of: dict[bytes, int] = {}
        self.decoded: list[tuple[int, int, int]] = []
        self.table = np.empty((0, 3), dtype=np.int64)

    def scan(self, first: int, lines: list[str]):
        """``(numbers, counts, codes, bad)`` for the block ``lines``, whose
        first line has number ``first``: the line numbers and token counts
        of its cascade lines, their tokens' codes into :attr:`table` in
        order, and the number of the first line with an invalid token or
        no tab, or None; the results stop before that line."""
        data, cascade, has_tab, start, end, line = _token_spans(lines)
        numbers = first + cascade
        filled = end > start
        start, end, line = start[filled], end[filled], line[filled]
        runs, which = _distinct_runs(data, start, end)
        code_of = self.code_of
        texts = [data[a:z] for a, z in zip(start[runs].tolist(), end[runs].tolist())]
        codes = np.array([code_of[text] if text in code_of else self._add(text) for text in texts],
                         dtype=np.int32)[which]
        if len(self.decoded) > len(self.table):
            self.table = np.concatenate([self.table, np.array(self.decoded[len(self.table):], dtype=np.int64)])
        nodes = self.table[codes, 0]
        token = nodes != -2
        codes, line = codes[token], line[token]
        counts = np.bincount(line, minlength=cascade.size)
        bad_line = ~has_tab
        bad_line[line[nodes[token] < 0]] = True
        if not bad_line.any():
            return numbers, counts, codes, None
        k = int(np.argmax(bad_line))
        return numbers[:k], counts[:k], codes[line < k], int(numbers[k])

    def _add(self, text: bytes) -> int:
        """The code of a token text not seen before."""
        code = self.code_of[text] = len(self.decoded)
        self.decoded.append(self._decode(text.decode("utf-8", "surrogatepass").strip()))
        return code

    def _decode(self, tok: str) -> tuple[int, int, int]:
        """``(node, lo, hi)`` of a stripped token."""
        if not tok:
            return -2, 0, 0
        try:
            node, spec = _split_token(tok, self.label_index)
            lo, hi = _decode_time(spec, self.horizon, tok)
        except ParseError:
            return -1, 0, 0
        return (node, lo, hi) if -1 <= lo < hi <= self.horizon else (-1, 0, 0)

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


def parse_mask_spec(text: str, net: Network, n_nodes: int, exclude: Iterable[int] = ()) -> MaskSpec:
    """Parse a mask-spec file.

    Lines: ``hidden=<comma-separated labels or an integer count>``,
    ``snapshots=all|t1,t2,...`` and ``mask_seed=<int>`` (required when
    ``hidden`` is a count).
    """
    hidden_raw: str = ""
    snapshots: object = "all"
    mask_seed = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in ("hidden", "snapshots", "mask_seed"):
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        try:
            if key == "hidden":
                hidden_raw = value
            elif key == "snapshots":
                snapshots = "all" if value == "all" else [int(v) for v in value.split(",") if v.strip()]
            else:
                mask_seed = int(value)
        except ValueError:
            raise ParseError(f"line {lineno}: {key} takes integers, got {value!r}") from None
    hidden = interpret_hidden_field(hidden_raw, mask_seed)
    return resolve_mask(hidden, snapshots, n_nodes, net=net, mask_seed=mask_seed, exclude=exclude)


def interpret_hidden_field(raw: str, mask_seed: int | None):
    """A single integer means "hide this many random nodes" only when a
    mask seed accompanies it (random selection needs one); otherwise the
    tokens are node labels.  Resolves the count-vs-label ambiguity for
    graphs with numeric labels."""
    items = [v.strip() for v in raw.split(",") if v.strip()]
    if len(items) == 1 and items[0].isdigit() and mask_seed is not None:
        return int(items[0])
    return items
