"""Reconstructing couplings when a quarter of the nodes never report.

Generates cascades on a small power-law-ish graph, hides all observations
of 5 of the 20 nodes, and fits the couplings from the remaining data.
The error is compared against the trivial predictor that answers 0.5 for
every edge (expected error 0.25 against uniform-random truth).
"""

import numpy as np

from cascade_recon import (
    FitConfig,
    MaskSpec,
    apply_mask,
    dmprec_fit,
    generate_dataset,
    identifiable_edges,
    l1_coupling_error,
)


def preferential_attachment(n, m, rng):
    repeated, und = [], set()
    for v in range(m, n):
        chosen = set()
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
        edges += [(str(u), str(v)), (str(v), str(u))]
    from cascade_recon import Network

    return Network([str(i) for i in range(n)], edges)


rng = np.random.default_rng(3)
net = preferential_attachment(20, 2, rng)
truth = rng.uniform(0, 1, net.n_edges)
T = 10
hidden = frozenset(int(x) for x in rng.choice(20, size=5, replace=False))
mask = MaskSpec(hidden, None)
included = identifiable_edges(net, mask)

print(f"graph: 20 nodes, {net.n_edges} directed edges; hidden nodes: {sorted(hidden)}")
print(f"{'cascades':>9} {'error':>8} {'vs constant-0.5':>16}")
baseline = l1_coupling_error(np.full(net.n_edges, 0.5), truth, included)
for M in (200, 800, 3200):
    # every source is drawn among the observed nodes
    dataset = apply_mask(generate_dataset(net, truth, M, "random", T, seed=10, exclude=hidden), mask)
    res = dmprec_fit(dataset, net, FitConfig(max_iters=800))
    err = l1_coupling_error(res.couplings_hat, truth, included)
    print(f"{M:>9} {err:>8.4f} {baseline:>16.4f}")
