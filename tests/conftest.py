"""Shared fixtures and deterministic graph builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from cascade_recon import MaskSpec, Network, generate_dataset


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
