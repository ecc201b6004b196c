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

from dataclasses import dataclass, field
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
        lo, hi, T = int(self.lo[i]), int(self.hi[i]), self.horizon
        if hi - lo == 1 and hi < T:
            return ("exact", hi)
        if lo == T - 1 and hi == T:
            return ("censored",)
        return ("interval", lo, hi)

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
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
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
    if horizon < 1:
        raise ValueError("horizon must be >= 1")

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
    mask.validate(n, T)
    points = sorted({0, *(mask.snapshot_times if mask.snapshot_times is not None else range(T + 1))})
    lo = np.empty(n, dtype=np.int64)
    hi = np.empty(n, dtype=np.int64)
    hidden = np.zeros(n, dtype=bool)
    for i in range(n):
        if i in mask.hidden_nodes:
            hidden[i] = True
            lo[i] = hi[i] = -1
            continue
        tau = int(cascade.times[i])
        if tau == 0:
            lo[i], hi[i] = -1, 0
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
            lo[i], hi[i] = (T - 1, T) if prev >= T - 1 else (prev, T)
        else:
            lo[i] = prev
            hi[i] = first_active if first_active < T else T - 1
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

    ``hidden`` is an iterable of node labels/indices, or an int count for
    random selection (requires ``mask_seed``; never selects nodes listed in
    ``exclude``).  ``snapshots`` is "all", None, or an iterable of times.
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
            if net is not None and isinstance(h, str) and h in net.label_index:
                ids.append(net.label_index[h])
            else:
                ids.append(int(h))
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
    if not dataset:
        raise DatasetError("empty dataset")
    groups: dict[tuple[int, ...], list[ObservedCascade]] = {}
    for idx, obs in enumerate(dataset):
        key = tuple(int(s) for s in obs.sources)
        if not key:
            raise DatasetError(f"cascade {idx} has no observed source; cannot fit")
        groups.setdefault(key, []).append(obs)
    return {k: groups[k] for k in sorted(groups)}


def _common_horizon(dataset: Sequence[Cascade | ObservedCascade]) -> int:
    """The horizon every cascade of ``dataset`` shares."""
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
    T = cascades[0].horizon
    lines = [f"T={T}"]
    for cid, c in enumerate(cascades):
        if c.horizon != T:
            raise DatasetError("cascades with mismatched horizons")
        obs = observe_fully(c) if isinstance(c, Cascade) else c
        tokens = []
        for i in range(obs.n_nodes):
            st = obs.status(i)
            v = net.labels[i]
            if st[0] == "hidden":
                continue
            if st[0] == "exact":
                tokens.append(f"{v}:{st[1]}")
            elif st[0] == "censored":
                tokens.append(f"{v}:{T}+")
            else:
                tokens.append(f"{v}:({st[1]},{st[2]}]")
        lines.append(f"{cid}\t" + ",".join(tokens))
    return "\n".join(lines) + "\n"


def read_cascades(net: Network, text: str) -> list[ObservedCascade]:
    """Parse the cascade file format; inverse of :func:`write_cascades`."""
    lines = [ln for ln in text.splitlines()]
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines) or not lines[idx].startswith("T="):
        raise ParseError("cascade file must start with a 'T=<int>' line")
    try:
        T = int(lines[idx][2:])
    except ValueError:
        raise ParseError(f"bad horizon line {lines[idx]!r}") from None
    if T < 1:
        raise ParseError("horizon must be >= 1")
    out = []
    for lineno, raw in enumerate(lines[idx + 1 :], start=idx + 2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<id>\\t<tokens>'")
        lo = np.full(net.n_nodes, -1, dtype=np.int64)
        hi = np.full(net.n_nodes, -1, dtype=np.int64)
        hidden = np.ones(net.n_nodes, dtype=bool)
        body = parts[1].strip()
        tokens = body.split(",") if body else []
        # interval tokens contain a comma; re-join "(lo" with "hi]" pieces
        merged: list[str] = []
        for tok in tokens:
            if merged and "(" in merged[-1] and "]" not in merged[-1]:
                merged[-1] += "," + tok
            else:
                merged.append(tok)
        for tok in merged:
            tok = tok.strip()
            if not tok:
                continue
            if ":" not in tok:
                raise ParseError(f"line {lineno}: bad token {tok!r}")
            label, spec = tok.split(":", 1)
            if label not in net.label_index:
                raise ParseError(f"line {lineno}: unknown node {label!r}")
            i = net.label_index[label]
            if not hidden[i]:
                raise ParseError(f"line {lineno}: node {label!r} listed twice")
            hidden[i] = False
            if spec.startswith("("):
                if not spec.endswith("]") or "," not in spec:
                    raise ParseError(f"line {lineno}: bad interval token {tok!r}")
                a, b = spec[1:-1].split(",", 1)
                lo[i], hi[i] = int(a), int(b)
            elif spec.endswith("+"):
                if int(spec[:-1]) != T:
                    raise ParseError(f"line {lineno}: censor token must use horizon {T}")
                lo[i], hi[i] = T - 1, T
            else:
                t = int(spec)
                if not 0 <= t < T:
                    raise ParseError(f"line {lineno}: exact time {t} outside [0, {T})")
                lo[i], hi[i] = t - 1, t
        obs = ObservedCascade(T, lo, hi, hidden)
        _validate_bounds(obs, lineno)
        out.append(obs)
    if not out:
        raise ParseError("cascade file contains no cascades")
    return out


def _validate_bounds(obs: ObservedCascade, lineno: int) -> None:
    vis = ~obs.hidden
    lo, hi = obs.lo[vis], obs.hi[vis]
    if vis.any() and (np.any(lo >= hi) or np.any(lo < -1) or np.any(hi > obs.horizon)):
        raise ParseError(f"line {lineno}: interval bounds must satisfy -1 <= lo < hi <= T")


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
        if key == "hidden":
            hidden_raw = value
        elif key == "snapshots":
            snapshots = "all" if value == "all" else [int(v) for v in value.split(",") if v.strip()]
        elif key == "mask_seed":
            mask_seed = int(value)
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
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
