"""Cascade simulation, dataset generation, masking, and file round trips."""

import numpy as np
import pytest

from cascade_recon import (
    Cascade,
    DatasetError,
    MaskSpec,
    apply_mask,
    cascade_substream,
    check_realizable,
    exact_marginals_oracle,
    generate_dataset,
    group_cascades,
    monte_carlo_marginals,
    observe_fully,
    parse_edge_list,
    parse_mask_spec,
    read_cascades,
    simulate_cascade,
    write_cascades,
)

from conftest import chain_net, random_loopy_net, random_couplings


@pytest.fixture
def chain3():
    return chain_net(3)


class TestSimulate:
    def test_deterministic_transmission(self, chain3):
        c = simulate_cascade(chain3, [1.0, 1.0], [0], 5, 0)
        np.testing.assert_array_equal(c.times, [0, 1, 2])

    def test_no_transmission(self, chain3):
        c = simulate_cascade(chain3, [0.0, 0.0], [0], 5, 0)
        np.testing.assert_array_equal(c.times, [0, 5, 5])

    def test_empty_sources_rejected(self, chain3):
        with pytest.raises(DatasetError):
            simulate_cascade(chain3, [0.5, 0.5], [], 5, 0)
        with pytest.raises(DatasetError):
            simulate_cascade(chain3, [0.5, 0.5], [7], 5, 0)

    def test_geometric_activation_law(self):
        # single edge: activation time is geometric, censored at the horizon
        net, _ = parse_edge_list("0\t1\n")
        alpha, T, runs = 0.5, 10, 10**6
        data = generate_dataset(net, [alpha], runs, [0], T, seed=99, chunk=50000)
        taus = np.array([c.times[1] for c in data])
        se = 4.0 * np.sqrt(alpha * (1 - alpha) / runs)
        for t in range(1, T):
            expect = alpha * (1 - alpha) ** (t - 1)
            assert abs((taus == t).mean() - expect) < max(se, 4 * np.sqrt(expect * (1 - expect) / runs))
        expect_censored = (1 - alpha) ** (T - 1)
        assert abs((taus == T).mean() - expect_censored) < 4 * np.sqrt(expect_censored * (1 - expect_censored) / runs)

    def test_realizability_random(self, rng):
        net = random_loopy_net(8, 6, rng)
        alpha = random_couplings(net, rng)
        data = generate_dataset(net, alpha, 10000, "random", 6, seed=3)
        assert all(check_realizable(net, c) for c in data)

    def test_empirical_marginals_match_oracle(self, rng):
        net = random_loopy_net(6, 4, rng)
        alpha = random_couplings(net, rng)
        T, runs = 5, 10**6
        data = generate_dataset(net, alpha, runs, [0], T, seed=17, chunk=100000)
        times = np.stack([c.times for c in data])
        table = exact_marginals_oracle(net, alpha, [0], T)
        # recorded-time distribution: still susceptible at t iff tau > t, t <= T-1
        for t in range(T):
            emp = (times > t).mean(axis=0)
            se = np.sqrt(table[t] * (1 - table[t]) / runs)
            assert np.all(np.abs(emp - table[t]) <= 4 * se + 1e-9)


class TestDatasetGeneration:
    def test_singleton_matches_substream(self, chain3):
        data = generate_dataset(chain3, [0.4, 0.7], 1, [0], 8, seed=5)
        direct = simulate_cascade(chain3, [0.4, 0.7], [0], 8, cascade_substream(5, 0))
        assert data[0] == direct

    def test_bit_reproducible_across_chunking(self, rng):
        net = random_loopy_net(7, 5, rng)
        alpha = random_couplings(net, rng)
        a = generate_dataset(net, alpha, 500, "random", 6, seed=11, chunk=64)
        b = generate_dataset(net, alpha, 500, "random", 6, seed=11, chunk=499)
        assert all(x == y for x, y in zip(a, b))

    def test_random_sources_single_source_each(self, rng):
        net = random_loopy_net(10, 5, rng)
        alpha = random_couplings(net, rng)
        data = generate_dataset(net, alpha, 200, "random", 6, seed=2)
        assert all(c.sources.size == 1 for c in data)

    def test_monte_carlo_marginals_match_oracle(self, rng):
        net = random_loopy_net(6, 5, rng)
        alpha = random_couplings(net, rng)
        T, runs = 5, 200000
        est = monte_carlo_marginals(net, alpha, [1], T, runs, rng=4)
        table = exact_marginals_oracle(net, alpha, [1], T)
        se = np.sqrt(table * (1 - table) / runs)
        assert np.all(np.abs(est - table) <= 4 * se + 1e-9)

    def test_hub_network_dataset(self):
        from importlib.resources import files

        text = files("cascade_recon").joinpath("data/hub30.edges").read_text()
        net, alpha = parse_edge_list(text)
        data = generate_dataset(net, alpha, 10000, "random", 10, seed=52)
        assert len(data) == 10000
        assert all(c.sources.size == 1 for c in data)
        assert all(c.horizon == 10 for c in data)


class TestMasking:
    def test_full_time_hidden_node(self, chain3):
        c = Cascade(5, [0, 1, 2])
        obs = apply_mask(c, MaskSpec(frozenset({1}), None))
        assert obs.status(0) == ("exact", 0)
        assert obs.status(1) == ("hidden",)
        assert obs.status(2) == ("exact", 2)

    def test_snapshot_interval(self):
        net = chain_net(2)
        c = Cascade(10, [0, 3])
        obs = apply_mask(c, MaskSpec(frozenset(), (2, 4, 6, 8, 10)))
        assert obs.status(1) == ("interval", 2, 4)

    def test_censored_at_horizon_all_snapshots(self):
        c = Cascade(10, [0, 10])
        obs = apply_mask(c, MaskSpec(frozenset(), None))
        assert obs.status(1) == ("censored",)

    def test_activation_after_last_snapshot(self):
        c = Cascade(10, [0, 9])
        obs = apply_mask(c, MaskSpec(frozenset(), (2, 4)))
        assert obs.status(1) == ("interval", 4, 10)

    def test_censored_with_sparse_snapshots_including_T(self):
        c = Cascade(10, [0, 10])
        obs = apply_mask(c, MaskSpec(frozenset(), (4, 10)))
        assert obs.status(1) == ("censored",)

    def test_first_active_at_horizon_snapshot_caps_at_Tminus1(self):
        c = Cascade(10, [0, 7])
        obs = apply_mask(c, MaskSpec(frozenset(), (4, 10)))
        assert obs.status(1) == ("interval", 4, 9)

    def test_pre_first_snapshot_activation(self):
        c = Cascade(10, [0, 2])
        obs = apply_mask(c, MaskSpec(frozenset(), (4, 8)))
        assert obs.status(1) == ("interval", 0, 4)

    def test_adjacent_snapshots_pin_exact(self):
        c = Cascade(10, [0, 4])
        obs = apply_mask(c, MaskSpec(frozenset(), (3, 4, 8)))
        assert obs.status(1) == ("exact", 4)

    def test_exact_equals_unit_interval(self):
        c = Cascade(10, [0, 4])
        full = apply_mask(c, MaskSpec(frozenset(), None))
        assert full.hi[1] - full.lo[1] == 1


class TestGrouping:
    def test_single_group(self, chain3, rng):
        data = [observe_fully(simulate_cascade(chain3, [0.5, 0.5], [0], 5, int(s))) for s in range(100)]
        groups = group_cascades(data)
        assert list(groups) == [(0,)]
        assert len(groups[(0,)]) == 100

    def test_partition_property(self, rng):
        net = random_loopy_net(10, 8, rng)
        alpha = random_couplings(net, rng)
        data = [observe_fully(c) for c in generate_dataset(net, alpha, 300, "random", 5, seed=1)]
        groups = group_cascades(data)
        assert len(groups) <= net.n_nodes
        assert sum(len(v) for v in groups.values()) == 300

    def test_hidden_source_rejected(self, chain3):
        c = simulate_cascade(chain3, [1.0, 1.0], [0], 5, 0)
        obs = apply_mask(c, MaskSpec(frozenset({0}), None))
        with pytest.raises(DatasetError, match="source"):
            group_cascades([obs])


class TestFiles:
    def test_roundtrip_ground_truth(self, rng):
        net = random_loopy_net(7, 6, rng)
        alpha = random_couplings(net, rng)
        data = generate_dataset(net, alpha, 40, "random", 6, seed=8)
        text = write_cascades(net, data)
        back = read_cascades(net, text)
        assert all(a == observe_fully(c) for a, c in zip(back, data))
        assert write_cascades(net, back) == text

    def test_roundtrip_masked(self, rng):
        net = random_loopy_net(7, 6, rng)
        alpha = random_couplings(net, rng)
        data = generate_dataset(net, alpha, 40, "random", 8, seed=9)
        mask = MaskSpec(frozenset({3}), (2, 5, 8))
        observed = [apply_mask(c, mask) for c in data]
        text = write_cascades(net, observed)
        back = read_cascades(net, text)
        assert all(a == b for a, b in zip(back, observed))

    def test_mixed_horizons_rejected(self, chain3):
        data = [Cascade(5, [0, 1, 2]), Cascade(6, [0, 1, 2])]
        with pytest.raises(DatasetError, match="mismatched horizons"):
            write_cascades(chain3, data)
        with pytest.raises(ValueError, match="no cascades"):
            write_cascades(chain3, [])

    def test_mask_spec_parsing(self):
        net, _ = parse_edge_list("0\t1\n1\t2\n")
        spec = parse_mask_spec("hidden=1\nsnapshots=2,4\nmask_seed=7\n", net, 3)
        assert len(spec.hidden_nodes) == 1
        assert spec.snapshot_times == (2, 4)
        spec2 = parse_mask_spec("hidden=0,2\nsnapshots=all\n", net, 3)
        assert spec2.hidden_nodes == frozenset({0, 2})
        assert spec2.snapshot_times is None
