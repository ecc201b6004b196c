"""Reconstruction optimizer: consistency, invariants, error metric."""

import numpy as np
import pytest

from cascade_recon import (
    DatasetError,
    FitConfig,
    MaskSpec,
    Network,
    apply_mask,
    dmprec_fit,
    generate_dataset,
    identifiable_edges,
    l1_coupling_error,
    parse_edge_list,
    projected_gradient_descent,
)

from conftest import chain_net, preferential_attachment_net, random_tree_net, random_couplings


def _full_dataset(net, truth, M, T, seed, sources="random"):
    return list(apply_mask(generate_dataset(net, truth, M, sources, T, seed), MaskSpec()))


def _censored_geometric_mle(taus, T):
    n_act = (taus < T).sum()
    survived = (taus[taus < T] - 1).sum() + (taus == T).sum() * (T - 1)
    return n_act / (n_act + survived)


class TestDmprecFit:
    def test_single_edge_matches_closed_form_mle(self):
        net, _ = parse_edge_list("0\t1\n")
        T = 10
        dataset = _full_dataset(net, [0.3], 20000, T, seed=6, sources=[0])
        taus = np.array([obs.hi[0, 1] for obs in dataset])
        mle = _censored_geometric_mle(taus, T)
        res = dmprec_fit(dataset, net)
        assert res.converged
        assert abs(res.couplings_hat[0] - mle) <= 0.005
        assert abs(res.couplings_hat[0] - 0.3) <= 0.02

    def test_star_tree_recovery(self, rng):
        edges = []
        for leaf in range(1, 5):
            edges += [("0", str(leaf)), (str(leaf), "0")]
        net = Network([str(i) for i in range(5)], edges)
        truth = random_couplings(net, rng, 0.1, 0.9)
        dataset = _full_dataset(net, truth, 10000, 10, seed=13)
        res = dmprec_fit(dataset, net)
        assert np.abs(res.couplings_hat - truth).mean() <= 0.02

    def test_monotone_trajectory_and_box(self, rng):
        net = random_tree_net(7, rng)
        truth = random_couplings(net, rng)
        dataset = _full_dataset(net, truth, 300, 6, seed=2)
        cfg = FitConfig(alpha_min=0.01, alpha_max=0.99)
        res = dmprec_fit(dataset, net, cfg)
        traj = res.free_energy_trajectory
        assert all(b <= a for a, b in zip(traj, traj[1:]))
        assert res.couplings_hat.min() >= 0.01
        assert res.couplings_hat.max() <= 0.99

    def test_more_data_helps_on_trees(self, rng):
        wins = 0
        for seed in range(5):
            local = np.random.default_rng(seed)
            net = random_tree_net(8, local)
            truth = random_couplings(net, local, 0.05, 0.95)
            small = _full_dataset(net, truth, 200, 8, seed=100 + seed)
            large = _full_dataset(net, truth, 3200, 8, seed=100 + seed)
            e_small = l1_coupling_error(
                dmprec_fit(small, net).couplings_hat, truth, np.arange(net.n_edges)
            )
            e_large = l1_coupling_error(
                dmprec_fit(large, net).couplings_hat, truth, np.arange(net.n_edges)
            )
            wins += e_large < e_small
        assert wins == 5

    def test_permutation_invariance(self, rng):
        net = random_tree_net(6, rng)
        truth = random_couplings(net, rng)
        dataset = _full_dataset(net, truth, 200, 6, seed=3)
        res = dmprec_fit(dataset, net)

        # relabel nodes: new label of node i is perm[i]; rebuild everything
        perm = rng.permutation(net.n_nodes)
        relabel = {net.labels[i]: f"{perm[i]:02d}" for i in range(net.n_nodes)}
        edges = [
            (relabel[net.labels[int(net.edge_src[e])]], relabel[net.labels[int(net.edge_dst[e])]])
            for e in range(net.n_edges)
        ]
        net2 = Network(sorted(relabel.values()), edges)
        to_new = {i: net2.label_index[relabel[net.labels[i]]] for i in range(net.n_nodes)}
        from cascade_recon import CascadeTable

        # new node to_new[i] takes old node i's column
        old = np.argsort([to_new[i] for i in range(net.n_nodes)])
        dataset2 = [CascadeTable(obs.horizon, obs.lo[:, old], obs.hi[:, old], obs.hidden[:, old]) for obs in dataset]
        res2 = dmprec_fit(dataset2, net2)
        # bit-exact equality is unattainable: relabeling reorders the
        # in-edge products, and float multiplication is not associative
        for e in range(net.n_edges):
            i, j = net.edge_pair(e)
            e2 = net2.edge_id(to_new[i], to_new[j])
            assert res.couplings_hat[e] == pytest.approx(res2.couplings_hat[e2], abs=1e-9)

    def test_threads_bit_identical(self, rng):
        net = random_tree_net(8, rng)
        truth = random_couplings(net, rng)
        dataset = _full_dataset(net, truth, 400, 6, seed=9)
        a = dmprec_fit(dataset, net, threads=1)
        b = dmprec_fit(dataset, net, threads=8)
        np.testing.assert_array_equal(a.couplings_hat, b.couplings_hat)
        assert a.free_energy_trajectory == b.free_energy_trajectory

    def test_snapshot_observations_still_fit(self, rng):
        net = random_tree_net(7, rng)
        truth = random_couplings(net, rng, 0.2, 0.8)
        data = generate_dataset(net, truth, 4000, "random", 8, seed=30)
        mask = MaskSpec(frozenset(), (2, 4, 6, 8))
        dataset = [apply_mask(c, mask) for c in data]
        res = dmprec_fit(dataset, net)
        assert l1_coupling_error(res.couplings_hat, truth, np.arange(net.n_edges)) <= 0.1

    def test_thousand_node_graph_fits(self):
        # 3 992 edges: forward-mode sensitivities would take 2.4 GiB per
        # source group, above their budget; the reverse sweep O(T |E|)
        rng = np.random.default_rng(1000)
        net = preferential_attachment_net(1000, 2, rng)
        assert net.n_edges >= 3500
        truth = random_couplings(net, rng, 0.05, 0.3)
        T = 8
        degree = np.bincount(net.edge_src, minlength=net.n_nodes)
        sources = [int(v) for v in np.argsort(-degree, kind="stable")[:2]]
        rest = np.setdiff1d(np.arange(net.n_nodes), sources)
        hidden = frozenset(int(v) for v in rng.choice(rest, size=rest.size // 4, replace=False))
        mask = MaskSpec(hidden, (2, 4, 6, T))
        data = []
        for k, src in enumerate(sources):
            data += generate_dataset(net, truth, 150, [src], T, seed=k)
        dataset = [apply_mask(c, mask) for c in data]
        cfg = FitConfig(max_iters=2)
        res = dmprec_fit(dataset, net, cfg)
        assert res.iterations >= 1
        assert np.all(np.isfinite(res.couplings_hat))
        assert np.all((res.couplings_hat >= cfg.alpha_min) & (res.couplings_hat <= cfg.alpha_max))
        assert res.free_energy_trajectory[-1] < res.free_energy_trajectory[0]


def _quadratic(curvature, minimum, scale=1.0):
    """``scale * (10 + 0.5 sum w (x - c)^2)`` as the optimizer's two
    callbacks, each recording the points it is called at."""
    points = []

    def value_and_grad(x):
        points.append(x.copy())
        r = x - minimum
        return scale * (10.0 + 0.5 * float(curvature @ (r * r))), scale * (curvature * r)

    def value_only(x):
        return value_and_grad(x)[0]

    return value_and_grad, value_only, points


class TestProjectedGradientDescent:
    @pytest.mark.parametrize("curvature", [1e-3, 1.0, 1e4])
    def test_iterates_invariant_under_power_of_two_scaling(self, curvature):
        rng = np.random.default_rng(11)
        w = curvature * rng.uniform(0.5, 2.0, 12)
        c = rng.uniform(-0.5, 1.5, 12)  # about half of the minimizers lie outside the box
        assert np.any((c < 0.0) | (c > 1.0))
        cfg = FitConfig()
        runs = []
        for scale in (1.0, 1024.0):
            value_and_grad, value_only, points = _quadratic(w, c, scale)
            x, _, _, converged, iterations = projected_gradient_descent(
                value_and_grad, value_only, np.full(12, cfg.alpha_init), cfg
            )
            runs.append((x, iterations, converged, np.array(points)))
        (x1, it1, conv1, points1), (x2, it2, conv2, points2) = runs
        assert conv1 and conv2
        assert it1 == it2
        np.testing.assert_array_equal(points1, points2)
        np.testing.assert_array_equal(x1, x2)

    def test_first_steepest_search_starts_near_the_accepted_step(self):
        # gradients of about 1e4, as on the bundled hub network, where a
        # first trial at the unit step takes about 17 halvings to pass
        rng = np.random.default_rng(12)
        value_and_grad, value_only, _ = _quadratic(
            1e5 * rng.uniform(0.5, 2.0, 12), rng.uniform(0.2, 0.8, 12))
        calls = []
        cfg = FitConfig(max_iters=1)
        _, trajectory, _, _, iterations = projected_gradient_descent(
            value_and_grad, lambda x: calls.append(x) or value_only(x),
            np.full(12, cfg.alpha_init), cfg,
        )
        assert iterations == 1
        assert trajectory[1] < trajectory[0]
        assert len(calls) <= 3


class TestFitConfig:
    @pytest.mark.parametrize("setting, message", [
        ({"alpha_min": 0.0}, "need 0 < alpha_min < alpha_init < alpha_max < 1"),
        ({"alpha_max": 1.0}, "need 0 < alpha_min < alpha_init < alpha_max < 1"),
        ({"alpha_init": 1e-6}, "need 0 < alpha_min < alpha_init < alpha_max < 1"),
        ({"tol": -1.0}, "tol must be positive and finite"),
        ({"tol": float("nan")}, "tol must be positive and finite"),
        ({"tol": float("inf")}, "tol must be positive and finite"),
        ({"tol": 0.0}, "tol must be positive and finite"),
        ({"alpha_init": float("nan")}, "need 0 < alpha_min < alpha_init < alpha_max < 1"),
        ({"max_iters": -3}, "max_iters must be >= 0"),
    ])
    def test_rejected_settings(self, setting, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FitConfig(**setting).validate()


class TestIdentifiableEdges:
    def test_hidden_leaf_excluded(self):
        net = chain_net(3)
        mask = MaskSpec(frozenset({2}), None)
        included = identifiable_edges(net, mask)
        assert net.edge_id(1, 2) not in included
        assert net.edge_id(0, 1) in included

    def test_no_hidden_all_included(self):
        net = chain_net(4)
        assert identifiable_edges(net, MaskSpec(frozenset(), None)).size == net.n_edges

    def test_hidden_with_out_edges_kept(self):
        net, _ = parse_edge_list("0\t1\n1\t2\n")
        included = identifiable_edges(net, MaskSpec(frozenset({1}), None))
        assert net.edge_id(0, 1) in included

    def test_hidden_node_out_of_range_rejected(self):
        net = chain_net(2)
        for node in (99, 2, -1):
            with pytest.raises(DatasetError, match=f"^hidden node index {node} out of range$"):
                identifiable_edges(net, MaskSpec(frozenset({node})))


class TestErrorMetric:
    def test_zero_when_equal(self):
        assert l1_coupling_error([0.2, 0.8], [0.2, 0.8], [0, 1]) == 0.0

    def test_arithmetic(self):
        assert l1_coupling_error([0.5, 0.5], [0.1, 0.9], [0, 1]) == pytest.approx(0.4)

    def test_constant_half_against_uniform_truth(self, rng):
        truth = rng.uniform(0, 1, 210)
        err = l1_coupling_error(np.full(210, 0.5), truth, np.arange(210))
        # E|U - 0.5| = 0.25 for U ~ Uniform(0, 1)
        assert abs(err - 0.25) <= 0.02

    def test_empty_inclusion_rejected(self):
        with pytest.raises(DatasetError, match="^no edges included in the error metric$"):
            l1_coupling_error([0.5], [0.5], [])
