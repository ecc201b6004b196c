"""Seeded benchmark workloads.

Each workload turns a seed into the inputs a user would hand the program:
an edge list with true couplings, the cascade sources, an observation mask
and a fit budget.  Nothing here imports ``cascade_recon``; the program only
ever sees the generated inputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HORIZON = 10

# Sizes at scale 1.0.  ``scale`` shrinks cascade counts and fit budgets
# for the smoke test.
SIZES = {
    "hub30-hidden": {"cascades": 10_000, "max_iters": 3},
    "tree-snapshot": {"cascades": 3_000, "nodes": 60, "max_iters": 3},
    "pa-hidden-snapshot": {"cascades": 3_000, "nodes": 120, "attach": 2, "max_iters": 1},
}

# fixed seeds of the generated networks and masks
GRAPH_SEEDS = {"tree-snapshot": 60, "pa-hidden-snapshot": 150}


def _edge_text(edges: list[tuple[str, str]], alpha: np.ndarray, header: str) -> str:
    lines = [f"# {header}"]
    lines += [f"{s}\t{d}\t{float(a)!r}" for (s, d), a in zip(edges, alpha)]
    return "\n".join(lines) + "\n"


def _both_directions(pairs: list[tuple[int, int]]) -> list[tuple[str, str]]:
    out = []
    for a, b in pairs:
        out += [(str(a), str(b)), (str(b), str(a))]
    return out


def _random_tree(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    # random recursive tree: node k attaches to a uniform earlier node
    return [(int(rng.integers(k)), k) for k in range(1, n)]


def _preferential_attachment(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, int]]:
    # Barabasi-Albert: start from a clique on m+1 nodes, then each new node
    # links to m distinct nodes drawn proportionally to degree
    pairs = [(a, b) for a in range(m + 1) for b in range(a + 1, m + 1)]
    ends = [v for p in pairs for v in p]
    for k in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(ends[int(rng.integers(len(ends)))])
        for t in sorted(targets):
            pairs.append((t, k))
            ends += [t, k]
    return pairs


def make_inputs(name: str, seed: int, src_root: Path, scale: float = 1.0) -> dict:
    """All inputs of workload ``name`` for ``seed`` as a JSON-able dict.

    The seed draws the cascades: the simulation seeds and, on hub30, how
    many cascades start at each visible hub.  Each workload's network,
    sources and mask are fixed, so the spread between seeds measures the
    program rather than the luck of a graph draw.

    Keys: ``network`` (edge-list text with couplings), ``horizon``,
    ``groups`` (list of ``[source label, cascade count, simulation seed]``;
    None with ``random_sources``, where ``cascade-recon simulate`` draws
    one uniform source per cascade from ``sim_seed``), ``hidden`` (node
    labels), ``snapshots`` (times or None), ``max_iters`` and ``via_cli``.
    """
    if name not in SIZES:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(SIZES)}")
    size = SIZES[name]
    fixed = np.random.default_rng(GRAPH_SEEDS.get(name, 0))
    rng = np.random.default_rng([seed, sorted(SIZES).index(name)])
    n_cascades = max(int(size["cascades"] * scale), 20)
    sim_seeds = [int(s) for s in rng.integers(1, 2**31, size=64)]
    spec = {
        "workload": name,
        "seed": seed,
        "horizon": HORIZON,
        "n_cascades": n_cascades,
        "max_iters": max(1, round(size["max_iters"] * scale)),
        "random_sources": False,
        "via_cli": False,
    }
    if name == "hub30-hidden":
        text = (src_root / "cascade_recon" / "data" / "hub30.edges").read_text(encoding="utf-8")
        labels = sorted({tok for ln in text.splitlines() if ln and not ln.startswith("#")
                         for tok in ln.split()[:2]})
        # the hubs hidden by the reconstruction test on this network
        hidden = sorted(labels[int(i)] for i in np.random.default_rng(30).choice(len(labels), 15, replace=False))
        visible = [v for v in labels if v not in hidden]
        counts = rng.multinomial(n_cascades, np.full(len(visible), 1.0 / len(visible)))
        spec.update(
            network=text,
            groups=[[v, int(c), sim_seeds[k]] for k, (v, c) in enumerate(zip(visible, counts)) if c],
            hidden=hidden,
            snapshots=None,
        )
    elif name == "tree-snapshot":
        pairs = _random_tree(fixed, size["nodes"])
        edges = _both_directions(pairs)
        alpha = fixed.uniform(0.1, 0.6, size=len(edges))
        spec.update(
            network=_edge_text(edges, alpha, f"random tree, {size['nodes']} nodes"),
            groups=None,
            random_sources=True,
            sim_seed=sim_seeds[0],
            hidden=[],
            snapshots=list(range(2, HORIZON + 1, 2)),
            via_cli=True,
        )
    else:  # pa-hidden-snapshot
        n = size["nodes"]
        pairs = _preferential_attachment(fixed, n, size["attach"])
        edges = _both_directions(pairs)
        alpha = fixed.uniform(0.05, 0.3, size=len(edges))
        degree = np.bincount(np.array(pairs).ravel(), minlength=n)
        sources = [int(v) for v in np.argsort(-degree, kind="stable")[:2]]
        rest = [v for v in range(n) if v not in sources]
        hidden = sorted(int(v) for v in fixed.choice(rest, size=len(rest) // 4, replace=False))
        half = n_cascades // 2
        spec.update(
            network=_edge_text(edges, alpha, f"preferential attachment, {n} nodes, m={size['attach']}"),
            groups=[[str(sources[0]), half, sim_seeds[0]],
                    [str(sources[1]), n_cascades - half, sim_seeds[1]]],
            hidden=[str(v) for v in hidden],
            snapshots=list(range(3, HORIZON + 1, 3)),
        )
    return spec
