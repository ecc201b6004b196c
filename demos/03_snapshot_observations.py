"""Reconstruction when the network state is recorded every other step.

Activation times are then known only up to two-step windows.  Each
observed window contributes the probability mass the model assigns to it,
so the same fit runs unchanged; this script shows the estimate quality on
a tree where the likelihood surface is exact.
"""

import numpy as np

from cascade_recon import (
    MaskSpec,
    Network,
    apply_mask,
    dmprec_fit,
    generate_dataset,
    l1_coupling_error,
)

rng = np.random.default_rng(5)
n = 14
edges = []
for i in range(1, n):
    parent = int(rng.integers(0, i))
    edges += [(str(parent), str(i)), (str(i), str(parent))]
net = Network([str(i) for i in range(n)], edges)
truth = rng.uniform(0, 1, net.n_edges)
T = 10

data = generate_dataset(net, truth, 6400, "random", T, seed=21)
mask = MaskSpec(frozenset(), tuple(range(0, T + 1, 2)))
dataset = apply_mask(data, mask)

res = dmprec_fit(dataset, net)
est = res.couplings_hat
err = l1_coupling_error(est, truth, np.arange(net.n_edges))
corr = np.corrcoef(est, truth)[0, 1]

print(f"tree with {net.n_edges} directed edges, T={T}, snapshots at even steps only")
print(f"mean |estimate - truth| = {err:.4f}, correlation = {corr:.4f}")
print(f"\n{'edge':>8} {'truth':>7} {'estimate':>9}")
for e in range(0, net.n_edges, max(1, net.n_edges // 12)):
    i, j = net.edge_pair(e)
    print(f"{net.labels[i]:>3}->{net.labels[j]:<4} {truth[e]:>7.3f} {est[e]:>9.3f}")
