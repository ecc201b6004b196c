"""Forward message passing: closed forms, exact-oracle agreement, bounds."""

import numpy as np
import pytest

from cascade_recon import (
    CapacityError,
    Network,
    dmp_forward,
    exact_marginals_oracle,
    full_log_likelihood,
    parse_edge_list,
)

from conftest import cascade, chain_net, exact_cascade_probability, random_tree_net, random_loopy_net, random_couplings


@pytest.fixture
def edge01():
    net, _ = parse_edge_list("0\t1\n")
    return net


class TestForward:
    def test_single_edge_geometric(self, edge01):
        tr = dmp_forward(edge01, [0.5], [0], 3)
        np.testing.assert_allclose(tr.theta[:, 0], [1, 0.5, 0.25, 0.125])
        assert tr.p_susceptible[2, 1] == 0.25
        assert tr.p_activate[2, 1] == 0.25

    def test_zero_couplings_frozen(self, rng):
        net = random_loopy_net(7, 5, rng)
        tr = dmp_forward(net, np.zeros(net.n_edges), [2], 6)
        for t in range(7):
            np.testing.assert_array_equal(tr.p_susceptible[t], tr.initial_susceptible)

    def test_star_matches_oracle(self, rng):
        edges = []
        for leaf in (1, 2, 3):
            edges += [("0", str(leaf)), (str(leaf), "0")]
        net = Network(["0", "1", "2", "3"], edges)
        alpha = random_couplings(net, rng)
        tr = dmp_forward(net, alpha, [0], 6)
        table = exact_marginals_oracle(net, alpha, [0], 6)
        np.testing.assert_allclose(tr.p_susceptible, table, atol=1e-12)

    def test_deterministic_chain_distance(self):
        net = chain_net(5)
        tr = dmp_forward(net, np.ones(net.n_edges), [0], 6)
        for i in range(5):
            for t in range(7):
                assert tr.p_susceptible[t, i] == (1.0 if t < i else 0.0)

    def test_monotone_and_bounded(self, rng):
        for _ in range(10):
            net = random_loopy_net(int(rng.integers(3, 9)), 4, rng)
            alpha = random_couplings(net, rng)
            tr = dmp_forward(net, alpha, [0], 7)
            assert np.all(np.diff(tr.theta, axis=0) <= 1e-12)
            assert np.all(np.diff(tr.p_susceptible, axis=0) <= 1e-12)
            for arr in (tr.theta, tr.phi, tr.p_susceptible, tr.p_activate):
                assert arr.min() >= -1e-12 and arr.max() <= 1 + 1e-12

    def test_susceptible_follows_log_step(self, rng):
        # the forward pass advances P_S by exp(log_step), the recursion the
        # gradient differentiates; couplings of 1 give log_step = -inf
        for _ in range(10):
            net = random_loopy_net(int(rng.integers(3, 10)), 6, rng)
            alpha = random_couplings(net, rng)
            alpha[rng.random(net.n_edges) < 0.2] = 1.0
            tr = dmp_forward(net, alpha, [int(rng.integers(net.n_nodes))], 8)
            for t in range(1, 9):
                np.testing.assert_array_equal(
                    tr.p_susceptible[t], tr.p_susceptible[t - 1] * np.exp(tr.log_step[t])
                )

    def test_normalization_identity(self, rng):
        for _ in range(10):
            net = random_loopy_net(int(rng.integers(3, 9)), 5, rng)
            alpha = random_couplings(net, rng)
            T = int(rng.integers(2, 8))
            tr = dmp_forward(net, alpha, [1], T)
            total = tr.p_activate[:T].sum(axis=0) + tr.p_susceptible[T - 1]
            np.testing.assert_allclose(total, 1.0, atol=1e-10)

    def test_no_in_edge_node_constant(self):
        net, _ = parse_edge_list("0\t1\n")
        tr = dmp_forward(net, [0.7], [1], 4)
        assert np.all(tr.p_susceptible[:, 0] == 1.0)


class TestActivationMarginal:
    def test_source_values(self, edge01):
        tr = dmp_forward(edge01, [0.5], [0], 4)
        assert tr.p_activate[0, 0] == 1.0
        assert all(tr.p_activate[t, 0] == 0.0 for t in range(1, 5))

    def test_single_edge_closed_form(self, edge01):
        tr = dmp_forward(edge01, [0.5], [0], 4)
        assert tr.p_activate[2, 1] == pytest.approx(0.25)


class TestOracle:
    def test_single_edge(self, edge01):
        table = exact_marginals_oracle(edge01, [0.5], [0], 3)
        np.testing.assert_allclose(table[:, 1], [1, 0.5, 0.25, 0.125])

    def test_deterministic_chain(self):
        net = chain_net(4)
        table = exact_marginals_oracle(net, np.ones(net.n_edges), [0], 5)
        for i in range(4):
            for t in range(6):
                assert table[t, i] == (1.0 if t < i else 0.0)

    def test_triangle_lower_bound(self, rng):
        net, _ = parse_edge_list("0\t1\n1\t2\n0\t2\n")
        for _ in range(20):
            alpha = random_couplings(net, rng)
            tr = dmp_forward(net, alpha, [0], 5)
            table = exact_marginals_oracle(net, alpha, [0], 5)
            assert np.all(tr.p_susceptible <= table + 1e-12)

    def test_capacity_error(self):
        labels = [str(i) for i in range(21)]
        net = Network(labels, [(str(i), str(i + 1)) for i in range(20)])
        with pytest.raises(CapacityError):
            exact_marginals_oracle(net, np.full(20, 0.5), [0], 2)

    def test_tree_exactness_sample(self, rng):
        for _ in range(20):
            net = random_tree_net(int(rng.integers(3, 12)), rng)
            alpha = random_couplings(net, rng)
            src = [int(rng.integers(net.n_nodes))]
            T = int(rng.integers(2, 8))
            tr = dmp_forward(net, alpha, src, T)
            table = exact_marginals_oracle(net, alpha, src, T)
            assert np.abs(tr.p_susceptible - table).max() <= 1e-10


class TestCascadeProbability:
    def test_matches_likelihood_formula(self, rng):
        # trajectory probability through the chain equals the closed-form
        # likelihood; two independent derivations
        for _ in range(20):
            net = random_loopy_net(int(rng.integers(3, 8)), 4, rng)
            alpha = random_couplings(net, rng)
            T = int(rng.integers(2, 7))
            from cascade_recon import generate_dataset

            c = generate_dataset(net, alpha, 1, "random", T, seed=int(rng.integers(10**6)))[0]
            p = exact_cascade_probability(net, alpha, c)
            ll = full_log_likelihood(c, net, alpha)
            assert np.log(max(p, 1e-300)) == pytest.approx(ll, abs=1e-10)

    def test_unrealizable_is_zero(self):
        net = chain_net(3)
        c = cascade(5, [0, 5, 2])  # node 2 activates with its only parent inactive
        assert exact_cascade_probability(net, [0.5, 0.5], c) == 0.0
