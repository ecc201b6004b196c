"""Shared fixtures, deterministic graph builders and the references the
test suite compares against: the network's incidence by a loop over
edges, the per-node sampler's loop, the forward-mode gradient, the exact
likelihood by a loop over nodes and the chain's cascade probability."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

from cascade_recon import CascadeTable, DmpTrace, MaskSpec, Network, ParseError, dmp_forward, generate_dataset
from cascade_recon.cascades import _coded_table
from cascade_recon.dmp import _propagate, initial_susceptible
from cascade_recon.gradient import Summaries
from cascade_recon.graph import validate_couplings


def cascade(horizon: int, times) -> CascadeTable:
    """The complete table of the recorded ``times``: one row of a 1-D
    ``times``, one row each of a 2-D one.  A time outside [0, horizon]
    fails as the window (t - 1, t] of the table's constructor."""
    times = np.atleast_2d(np.asarray(times, dtype=np.int64))
    built = CascadeTable(horizon, times - 1, times, np.zeros(times.shape, dtype=bool))
    return _coded_table(horizon, built.codes, complete=True)


def chain_net(n: int) -> Network:
    """Directed path 0 -> 1 -> ... -> n-1."""
    labels = [str(i) for i in range(n)]
    return Network(labels, [(str(i), str(i + 1)) for i in range(n - 1)])


def random_tree_net(n: int, rng: np.random.Generator) -> Network:
    """Random undirected tree, each link as two directed edges."""
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        edges.append((str(parent), str(i)))
        edges.append((str(i), str(parent)))
    return Network([str(i) for i in range(n)], edges)


def random_loopy_net(n: int, extra: int, rng: np.random.Generator) -> Network:
    """Connected graph: random tree plus ``extra`` additional directed edges."""
    base = random_tree_net(n, rng)
    have = {
        (base.labels[int(base.edge_src[e])], base.labels[int(base.edge_dst[e])])
        for e in range(base.n_edges)
    }
    candidates = [
        (str(i), str(j)) for i in range(n) for j in range(n)
        if i != j and (str(i), str(j)) not in have
    ]
    if candidates:
        picks = rng.choice(len(candidates), size=min(extra, len(candidates)), replace=False)
        have |= {candidates[int(k)] for k in picks}
    return Network([str(i) for i in range(n)], sorted(have))


def preferential_attachment_net(n: int, m: int, rng: np.random.Generator) -> Network:
    """Power-law-flavored undirected graph (each link doubled into both
    directions): every new node attaches to ``m`` earlier nodes chosen
    proportionally to their current degree."""
    repeated: list[int] = []
    und: set[tuple[int, int]] = set()
    for v in range(m, n):
        chosen: set[int] = set()
        stubs = repeated if repeated else list(range(v))
        while len(chosen) < min(m, v):
            cand = int(stubs[int(rng.integers(len(stubs)))])
            if cand != v:
                chosen.add(cand)
        for u in chosen:
            und.add((min(u, v), max(u, v)))
            repeated.extend([u, v])
    edges = []
    for u, v in sorted(und):
        edges.append((str(u), str(v)))
        edges.append((str(v), str(u)))
    return Network([str(i) for i in range(n)], edges)


def reference_incidence(labels, edges) -> SimpleNamespace:
    """``Network(labels, edges)``'s incidence by the loop over the edges
    that its array construction replaced, kept as its reference: the
    (src, dst) index pairs in canonical order as ``pairs``, each node's in-
    and out-edge ids as ``ins`` and ``outs``, the pair-to-id map ``ids``
    and the cavity's index pair ``cavity``.  The first edge with an
    unknown label, a self-loop or a repeated pair raises what the
    constructor raises."""
    index = Network(labels, []).label_index
    pairs, seen = [], set()
    for src, dst in edges:
        i, j = index[str(src)], index[str(dst)]
        if i == j:
            raise ParseError(f"self-loop at node {src!r}")
        if (i, j) in seen:
            raise ParseError(f"duplicate edge {src!r}->{dst!r}")
        seen.add((i, j))
        pairs.append((i, j))
    pairs.sort()
    ins = [[e for e, (_, j) in enumerate(pairs) if j == k] for k in range(len(index))]
    outs = [[e for e, (i, _) in enumerate(pairs) if i == k] for k in range(len(index))]
    cavity = [(e, f) for e, (k, i) in enumerate(pairs) for f in ins[k] if pairs[f][0] != i]
    return SimpleNamespace(pairs=pairs, ins=ins, outs=outs, ids={p: e for e, p in enumerate(pairs)},
                           cavity=([e for e, _ in cavity], [f for _, f in cavity]))


def sum_matrices(net: Network, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Dense 0/1 references for the sums of the message passing: the (N,
    |E|) matrix that sums over each node's in-edges, and the (|E|, |E|)
    matrix that sums over each edge's cavity, built from the cavity's index
    pair ``Network._cavity``."""
    in_edge_sum = np.zeros((net.n_nodes, net.n_edges), dtype)
    in_edge_sum[net.edge_dst, np.arange(net.n_edges)] = 1
    cavity_sum = np.zeros((net.n_edges, net.n_edges), dtype)
    cavity_sum[net._cavity] = 1
    return in_edge_sum, cavity_sum


def random_couplings(net: Network, rng: np.random.Generator, low=0.0, high=1.0) -> np.ndarray:
    return rng.uniform(low, high, net.n_edges)


def random_masked_cases(rng: np.random.Generator):
    """Complete cascades and a mask on random loopy graphs, for property
    tests of masking, summaries and the file format.

    Covers T in {1, 2, 10} with every step observed, no snapshot, random
    snapshots ending at T and random snapshots ending below T; random
    hidden sets that spare the three source nodes; and groups with one
    source and with two.  Yields ``(net, cascades, mask)``.
    """
    for T in (1, 2, 10):
        for layout in ("every step", "no snapshot", "ending at T", "ending below T"):
            n = int(rng.integers(6, 12))
            net = random_loopy_net(n, int(rng.integers(2, 8)), rng)
            alpha = random_couplings(net, rng, 0.1, 0.9)
            sources = [int(v) for v in rng.choice(n, size=3, replace=False)]
            others = [v for v in range(n) if v not in sources]
            hidden = frozenset(v for v in others if rng.random() < 0.3)
            if layout == "every step":
                snapshots = None
            elif layout == "no snapshot":
                snapshots = ()
            else:
                last = T if layout == "ending at T" else T - 1
                picks = rng.choice(last + 1, size=int(rng.integers(0, last + 1)), replace=False)
                snapshots = tuple(sorted({last, *(int(t) for t in picks)}))
            seed = int(rng.integers(1 << 30))
            cascades = (
                generate_dataset(net, alpha, 40, [sources[0]], T, seed)
                + generate_dataset(net, alpha, 30, [sources[1]], T, seed + 1)
                + generate_dataset(net, alpha, 30, sources[1:], T, seed + 2)
            )
            yield net, cascades, MaskSpec(hidden, snapshots)


def reference_sampled_times(net: Network, couplings, sources, horizon: int, count: int, rng, rows: int) -> np.ndarray:
    """The loop of the per-node sampler that ``cascades._sampled_blocks``
    replaced, kept as the reference of its random stream: blocks of
    ``rows`` cascades, and in each step of a block a boolean scatter of the
    new times and two ``times == horizon`` compares; a block stops after
    a step that leaves no node susceptible."""
    with np.errstate(divide="ignore"):
        vals = np.log1p(-np.asarray(couplings, dtype=np.float64))
    src = np.array(sorted({int(s) for s in sources}), dtype=np.intp)
    L = np.zeros((net.n_nodes, net.n_nodes))
    L[net.edge_src, net.edge_dst] = np.where(np.isfinite(vals), vals, -1e3)
    out = []
    for start in range(0, count, rows):
        size = min(rows, count - start)
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
        out.append(times)
    return np.concatenate(out)


def laid_out(groups) -> Summaries:
    """The row table of ``groups``, hand-made ``(sources, nodes, lo, hi,
    counts)`` tuples or those of :func:`reference_summaries`, in the order
    given: their rows concatenated, as ``summarize_dataset`` lays out the
    groups it counts."""
    return Summaries(
        [group[0] for group in groups], np.cumsum([0, *(group[1].size for group in groups)]),
        *(np.concatenate([group[k] for group in groups]) for k in range(1, 5)),
    )


def reference_summaries(dataset) -> list[tuple]:
    """The ``Counter``-based grouping and window count that
    ``summarize_dataset`` replaced, kept as its reference: one tuple of
    (sources, nodes, lo, hi, counts) per source group, from the
    int64 bounds of each one-row table of the dataset."""
    groups = {}
    for obs in dataset:
        groups.setdefault(tuple(int(s) for s in obs.sources), []).append(obs)
    out = []
    for sources in sorted(groups):
        counter = Counter()
        for obs in groups[sources]:
            (lo,), (hi,), (hidden,) = obs.lo, obs.hi, obs.hidden
            for i in np.flatnonzero(~hidden & (hi > 0)):
                counter[(int(i), int(lo[i]), int(hi[i]))] += 1
        keys = sorted(counter)
        out.append((
            sources,
            np.array([k[0] for k in keys], dtype=np.intp),
            np.array([k[1] for k in keys], dtype=np.int64),
            np.array([k[2] for k in keys], dtype=np.int64),
            np.array([counter[k] for k in keys], dtype=np.float64),
        ))
    return out


def reference_full_log_likelihood(cascade: CascadeTable, net: Network, couplings) -> float:
    """The exact log-probability of a completely observed cascade, a
    one-row table, by a loop
    over nodes and in-edges, the reference for ``full_log_likelihood``.

    Every non-source node contributes survival factors for each step its
    infected in-neighbors failed to transmit, times (for an activation
    before the horizon) the probability that at least one succeeded at the
    recorded step.  Sources are conditioned on and contribute nothing.
    Returns ``-inf`` for unrealizable time vectors.
    """
    alpha = np.asarray(couplings, dtype=float)
    T, (times,) = cascade.horizon, cascade.times
    total = 0.0
    for i in range(net.n_nodes):
        tau = int(times[i])
        if tau == 0:
            continue
        end = tau - 1 if tau < T else T - 1
        act_stay = 1.0
        for e in net.in_edges(i):
            tk = int(times[net.edge_src[e]])
            steps = end - tk
            if steps > 0:
                if alpha[e] >= 1.0:
                    return float("-inf")
                total += steps * np.log1p(-alpha[e])
            if tau < T and tk <= tau - 1:
                act_stay *= 1.0 - alpha[e]
        if tau < T:
            if act_stay >= 1.0:
                return float("-inf")  # no infected in-neighbor could have fired
            total += np.log1p(-act_stay)
    return float(total)


def exact_cascade_probability(net: Network, couplings, cascade: CascadeTable) -> float:
    """Probability of the recorded activation-time vector of a one-row
    table under the chain.

    The recorded times determine the full state path (censored nodes stay
    susceptible through step horizon-1), so the probability is the product
    of one-step transition factors.  Independent of any likelihood formula:
    uses only the chain's per-step infection probabilities.
    """
    one_minus_alpha = 1.0 - np.asarray(couplings, dtype=float)
    (times,) = cascade.times
    prob = 1.0
    for t in range(cascade.horizon - 1):
        for j in range(net.n_nodes):
            if times[j] <= t:
                continue
            stay = np.prod([one_minus_alpha[e] for e in net.in_edges(j) if times[net.edge_src[e]] <= t])
            pj = 1.0 - stay
            prob *= pj if times[j] == t + 1 else 1.0 - pj
            if prob == 0.0:
                return 0.0
    return prob


def messages(net: Network, couplings, sources, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The (T+1, |E|) histories of the messages ``theta`` and ``phi =
    theta * rho`` of one forward run, from the states of ``dmp._propagate``;
    ``dmp_forward`` keeps neither."""
    ps0 = initial_susceptible(net, sources)[:, None]
    states = list(_propagate(net, validate_couplings(net, couplings), ps0, horizon))
    theta = np.exp(np.stack([state.log_theta[:, 0] for state in states]))
    return theta, theta * np.stack([state.rho[:, 0] for state in states])


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


def dmp_forward_with_gradients(net: Network, couplings, sources, horizon: int) -> tuple[DmpTrace, GradTrace]:
    """The forward run of ``dmp_forward`` and its tangent with respect to
    every coupling, the forward-mode reference for the reverse sweep.

    It differentiates the recursion as ``dmp._propagate`` runs it, so it
    carries ``d log theta`` and ``d log cav``, both zero at t = 0: a state
    has ``d rho = -r (d log cav - d log theta)``, with the state's ``r = 1
    - rho`` held at 0 where theta is 0, as in the reverse sweep, and the
    next step ``d log keep = -(rho [f = e] + alpha d rho) / keep``, which
    ``log theta`` gains, ``log cav`` its cavity sums and ``log_step`` its
    in-edge sums.  Then ``d theta = theta d log theta`` and ``d phi = rho
    d theta + theta d rho``.  Couplings must lie below 1, where keep is
    positive.
    """
    trace = dmp_forward(net, couplings, sources, horizon)
    alpha = np.asarray(couplings, dtype=float)
    E, N = net.n_edges, net.n_nodes
    d_theta, d_phi, d_log_step = np.zeros((horizon + 1, E, E)), np.zeros((horizon + 1, E, E)), np.zeros((horizon + 1, N, E))
    d_log_theta, d_log_cav = np.zeros((E, E)), np.zeros((E, E))
    in_edge_sum, cavity_sum = sum_matrices(net)
    for t, state in enumerate(_propagate(net, alpha, trace.initial_susceptible[:, None], horizon)):
        if t:
            h = alpha * rho
            keep = np.where(h < 0.5, 1.0 - h, (1.0 - alpha) + alpha * r)  # dmp._keep_forms, written out again
            d_log_keep = -(np.diag(rho) + alpha[:, None] * d_rho) / keep[:, None]
            d_log_theta = d_log_theta + d_log_keep
            d_log_cav = d_log_cav + cavity_sum @ d_log_keep
            d_log_step[t] = in_edge_sum @ d_log_keep
        theta, rho, r = np.exp(state.log_theta[:, 0]), state.rho[:, 0], state.r[:, 0]
        d_rho = -r[:, None] * (d_log_cav - d_log_theta)
        d_theta[t] = theta[:, None] * d_log_theta
        d_phi[t] = rho[:, None] * d_theta[t] + theta[:, None] * d_rho
    return trace, GradTrace(horizon, d_theta, d_phi, d_log_step, trace.p_susceptible)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
