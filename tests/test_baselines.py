"""Exact-likelihood baselines: closed forms, cross-method agreement,
marginalization sanity, and the two-stage completion heuristic."""

import numpy as np
import pytest

from cascade_recon import (
    CapacityError,
    DatasetError,
    FitConfig,
    HtsConfig,
    MaskSpec,
    Network,
    apply_mask,
    batch_full_log_likelihood,
    dmprec_fit,
    exact_marginals_oracle,
    full_log_likelihood,
    generate_dataset,
    hts_fit,
    marginalized_likelihood,
    netrate_fit,
    parse_edge_list,
)

from cascade_recon.baselines import _completed_times, _unresolved_groups
from cascade_recon.cascades import _table

from conftest import (
    cascade,
    chain_net,
    exact_cascade_probability,
    random_couplings,
    random_loopy_net,
    random_tree_net,
    reference_full_log_likelihood,
)


@pytest.fixture
def edge01():
    net, _ = parse_edge_list("0\t1\n")
    return net


class TestFullLogLikelihood:
    def test_activation_case(self, edge01):
        ll = full_log_likelihood(cascade(3, [0, 2]), edge01, [0.5])
        assert ll == pytest.approx(np.log(0.25))

    def test_censored_case(self, edge01):
        ll = full_log_likelihood(cascade(3, [0, 3]), edge01, [0.5])
        assert ll == pytest.approx(np.log(0.25))

    def test_times_outside_the_horizon_rejected(self, edge01):
        # a time outside [0, T] fails as it does in a table's window (t - 1, t]
        for t in (-5, -1, 4, 7):
            with pytest.raises(DatasetError, match=r"^observation windows must lie in \[-1, 3\]$"):
                batch_full_log_likelihood(edge01, [0.5], [[0, 2], [0, t]], 3)
            with pytest.raises(DatasetError, match=r"^observation windows must lie in \[-1, 3\]$"):
                cascade(3, [0, t])
        assert batch_full_log_likelihood(edge01, [0.5], np.zeros((0, 2), dtype=np.int64), 3).shape == (0,)

    def test_unrealizable(self):
        net = chain_net(3)
        assert full_log_likelihood(cascade(5, [0, 5, 2]), net, [0.5, 0.5]) == -np.inf

    def test_matches_chain_oracle(self, rng):
        for _ in range(15):
            net = random_loopy_net(int(rng.integers(3, 8)), 4, rng)
            alpha = random_couplings(net, rng)
            c = generate_dataset(net, alpha, 1, "random", 5, seed=int(rng.integers(10**6)))[0]
            p = exact_cascade_probability(net, alpha, c)
            assert full_log_likelihood(c, net, alpha) == pytest.approx(
                np.log(max(p, 1e-300)), abs=1e-10
            )

    def test_batch_matches_scalar(self, rng, monkeypatch):
        from cascade_recon import baselines

        nets = [
            random_loopy_net(7, 6, rng),
            Network(["0", "1", "2"], [("0", "1"), ("1", "2"), ("2", "1")]),  # node 0 has no in-edge
            Network(["0", "1", "2"], []),
        ]
        for net in nets:
            # rows in blocks of 3: one row, one block, a block and a row, many blocks
            monkeypatch.setattr(baselines, "_PASS_BYTES", 3 * 8 * max(1, net.n_edges))
            alpha = random_couplings(net, rng, 0.05, 0.95)
            for m in (1, 3, 4, 50):
                data = generate_dataset(net, alpha, m, "random", 6, seed=8)
                batch = batch_full_log_likelihood(net, alpha, np.concatenate([c.times for c in data]), 6)
                assert batch.shape == (m,)
                for row, c in zip(batch, data):
                    expect = reference_full_log_likelihood(c, net, alpha)
                    assert row == pytest.approx(expect, abs=1e-9)
                    assert full_log_likelihood(c, net, alpha) == pytest.approx(expect, abs=1e-9)

    def test_each_row_is_its_own_call(self, rng, monkeypatch):
        # a row's bits come from that row alone: the batch equals one-row
        # calls and any split of it, on hub30 and on random graphs of odd and
        # even edge counts, in one block of rows and in blocks of 64
        from importlib import resources

        from cascade_recon import baselines

        hub, hub_alpha = parse_edge_list(resources.files("cascade_recon").joinpath("data/hub30.edges").read_text())
        cases = [(hub, hub_alpha, 10)]
        for _ in range(4):
            net = random_loopy_net(int(rng.integers(5, 30)), int(rng.integers(0, 40)), rng)
            cases.append((net, random_couplings(net, rng, 0.05, 0.95), 8))
        for rows_per_block in (None, 64):
            for net, alpha, T in cases:
                if rows_per_block:
                    monkeypatch.setattr(baselines, "_PASS_BYTES", rows_per_block * 8 * max(1, net.n_edges))
                data = generate_dataset(net, alpha, 300, "random", T, seed=5)
                whole = batch_full_log_likelihood(net, alpha, data.hi, T)
                assert whole.tobytes() == np.array([full_log_likelihood(c, net, alpha) for c in data]).tobytes()
                split = [batch_full_log_likelihood(net, alpha, data.hi[a:a + 7], T) for a in range(0, 300, 7)]
                assert whole.tobytes() == np.concatenate(split).tobytes()

    def test_one_row_of_the_batch_is_minus_inf_where_impossible(self, rng):
        # random time vectors, many unrealizable, and couplings of exactly 0 and 1 on some edges
        for net in (random_loopy_net(7, 6, rng), chain_net(4)):
            alpha = random_couplings(net, rng, 0.05, 0.95)
            alpha[rng.random(net.n_edges) < 0.25] = 1.0
            alpha[rng.random(net.n_edges) < 0.25] = 0.0
            impossible = 0
            for _ in range(300):
                times = rng.integers(0, 7, net.n_nodes)
                c = cascade(6, times)
                expect = reference_full_log_likelihood(c, net, alpha)
                got = full_log_likelihood(c, net, alpha)
                if expect == -np.inf:
                    impossible += 1
                    assert got == -np.inf
                else:
                    assert got == pytest.approx(expect, abs=1e-9)
            assert 0 < impossible < 300

    def test_wrong_width_rejected(self, edge01):
        with pytest.raises(DatasetError, match="^cascade does not match the network$"):
            full_log_likelihood(cascade(3, [0, 2, 1]), edge01, [0.5])
        with pytest.raises(DatasetError, match="^cascade does not match the network$"):
            batch_full_log_likelihood(edge01, [0.5], np.zeros((4, 3), dtype=np.int64), 3)

    def test_one_complete_cascade_only(self, edge01):
        # a likelihood of one cascade takes a one-row table of exact windows
        two = cascade(3, [[0, 2], [0, 1]])
        for rows in (two, two[:0]):
            with pytest.raises(DatasetError, match=f"^expected one cascade, got a table of {len(rows)}$"):
                full_log_likelihood(rows, edge01, [0.5])
            with pytest.raises(DatasetError, match=f"^expected one cascade, got a table of {len(rows)}$"):
                marginalized_likelihood(apply_mask(two, MaskSpec())[: len(rows)], edge01, [0.5])
        snapshot = apply_mask(cascade(3, [0, 2]), MaskSpec(snapshot_times=(3,)))
        with pytest.raises(DatasetError, match="^cascade is not fully observed$"):
            full_log_likelihood(snapshot, edge01, [0.5])
        assert full_log_likelihood(two[1], edge01, [0.5]) == pytest.approx(np.log(0.5))

    def test_batch_peak_is_bounded(self):
        # the hub30 network at M = 20 000: the (M, |E|) terms at once peak above 100 MiB
        import tracemalloc
        from importlib import resources

        net, alpha = parse_edge_list(resources.files("cascade_recon").joinpath("data/hub30.edges").read_text())
        times = generate_dataset(net, alpha, 20_000, "random", 10, seed=5).hi
        batch_full_log_likelihood(net, alpha, times[:1], 10)  # builds the network's in-edge index
        tracemalloc.start()
        try:
            batch_full_log_likelihood(net, alpha, times, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestNetrate:
    def test_all_immediate_pushes_to_max(self, edge01):
        cfg = FitConfig(alpha_max=0.999)
        data = [cascade(3, [0, 1])] * 20
        alpha = netrate_fit(data, edge01, cfg)
        assert alpha[0] == pytest.approx(0.999)

    def test_two_cascade_closed_form(self, edge01):
        # one activation at 1, one censored at T=2: likelihood a(1-a), max 0.5
        data = [cascade(2, [0, 1]), cascade(2, [0, 2])]
        alpha = netrate_fit(data, edge01)
        assert alpha[0] == pytest.approx(0.5, abs=1e-6)

    def test_requires_full_observation(self, edge01):
        obs = apply_mask(cascade(3, [0, 2]), MaskSpec(frozenset({1}), None))
        with pytest.raises(DatasetError):
            netrate_fit([obs], edge01)

    def test_tree_recovery_and_cross_method_agreement(self, rng):
        net = random_tree_net(10, rng)
        truth = random_couplings(net, rng, 0.1, 0.9)
        data = generate_dataset(net, truth, 10000, "random", 10, seed=19)
        alpha_nr = netrate_fit(data, net)
        assert np.abs(alpha_nr - truth).mean() <= 0.02
        res = dmprec_fit([apply_mask(c, MaskSpec()) for c in data], net)
        assert np.abs(alpha_nr - res.couplings_hat).max() <= 0.02

    def test_stationary_for_the_batched_likelihood(self, rng):
        # loopy graph: activations with up to four active parents
        net = random_loopy_net(8, 12, rng)
        truth = random_couplings(net, rng, 0.1, 0.6)
        data = generate_dataset(net, truth, 2000, "random", 6, seed=3)
        times = data.times

        def fd_gradient(alpha, h=1e-6):
            step = h * np.eye(net.n_edges)
            return np.array([
                batch_full_log_likelihood(net, alpha + step[e], times, 6).sum()
                - batch_full_log_likelihood(net, alpha - step[e], times, 6).sum()
                for e in range(net.n_edges)
            ]) / (2 * h)

        alpha = netrate_fit(data, net)
        assert np.all((alpha > 1e-3) & (alpha < 1 - 1e-3))
        start = fd_gradient(np.full(net.n_edges, 0.5))
        assert np.abs(fd_gradient(alpha)).max() <= 1e-3 * np.abs(start).max()

    def test_relabeling_wide_parent_sets(self, rng):
        # root 0 -> middles 1..70 -> hub 71: the hub's parent sets are 70 wide
        n_mid = 70
        hub = n_mid + 1
        edges = [("0", str(k)) for k in range(1, hub)] + [(str(k), str(hub)) for k in range(1, hub)]
        net = Network([str(i) for i in range(hub + 1)], edges)
        truth = np.array([0.6 if net.edge_dst[e] != hub else 0.03 for e in range(net.n_edges)])
        truth *= rng.uniform(0.5, 1.5, net.n_edges)
        data = generate_dataset(net, truth, 2000, [0], 6, seed=70)
        # the same cascades with the middle labels reversed: k -> hub - k
        relabel = np.r_[0, np.arange(n_mid, 0, -1), hub]
        flipped = cascade(6, data.times[:, relabel])
        alpha = netrate_fit(data, net)
        alpha_flipped = netrate_fit(flipped, net)
        back = [net.edge_id(relabel[i], relabel[j]) for i, j in map(net.edge_pair, range(net.n_edges))]
        np.testing.assert_allclose(alpha_flipped[back], alpha, rtol=0.0, atol=1e-9)

    def test_blocks_of_rows_change_no_bit(self, rng, monkeypatch):
        # row blocks of 1, 7 and 64 rows give the couplings of one block of
        # all 500 rows, bit for bit
        from cascade_recon import baselines

        net = random_loopy_net(9, 10, rng)
        data = generate_dataset(net, random_couplings(net, rng, 0.1, 0.7), 500, "random", 6, seed=4)
        want = netrate_fit(data, net)
        for rows in (1, 7, 64):
            monkeypatch.setattr(baselines, "_PASS_BYTES", 8 * net.n_edges * rows)
            assert netrate_fit(data, net).tobytes() == want.tobytes()

    def test_peak_is_bounded(self):
        # the data of test_batch_peak_is_bounded: the (M, |E|) terms at once
        # peak above 100 MiB
        import tracemalloc
        from importlib import resources

        net, alpha = parse_edge_list(resources.files("cascade_recon").joinpath("data/hub30.edges").read_text())
        data = generate_dataset(net, alpha, 20_000, "random", 10, seed=5)
        tracemalloc.start()
        try:
            netrate_fit(data, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestMarginalizedLikelihood:
    def test_total_probability_single_edge(self, edge01):
        obs = apply_mask(cascade(4, [0, 2]), MaskSpec(frozenset({1}), None))
        for a in (0.1, 0.5, 0.93):
            assert marginalized_likelihood(obs, edge01, [a]) == pytest.approx(0.0, abs=1e-12)

    def test_no_hidden_equals_full(self, rng):
        net = random_loopy_net(6, 4, rng)
        alpha = random_couplings(net, rng, 0.05, 0.95)
        c = generate_dataset(net, alpha, 1, "random", 5, seed=33)[0]
        obs = apply_mask(c, MaskSpec())
        assert marginalized_likelihood(obs, net, alpha) == pytest.approx(
            full_log_likelihood(c, net, alpha)
        )

    def test_chain_hidden_middle_matches_oracle(self):
        net = chain_net(3)
        alpha = [0.6, 0.45]
        T = 5
        for tau2 in (2, 3, T):
            times = np.array([0, 1, tau2])  # the hidden value 1 is discarded by masking
            obs = apply_mask(cascade(T, times), MaskSpec(frozenset({1}), None))
            table = exact_marginals_oracle(net, alpha, [0], T)
            if tau2 < T:
                expect = table[tau2 - 1, 2] - table[tau2, 2]
            else:
                expect = table[T - 1, 2]
            got = marginalized_likelihood(obs, net, alpha)
            assert got == pytest.approx(np.log(expect), abs=1e-10)

    def test_all_hidden_total_probability(self, rng):
        for _ in range(6):
            n = int(rng.integers(3, 7))
            net = random_loopy_net(n, 3, rng)
            alpha = random_couplings(net, rng)
            T = int(rng.integers(2, 5))
            src = int(rng.integers(n))
            c = generate_dataset(net, alpha, 1, [src], T, seed=1)[0]
            obs = apply_mask(c, MaskSpec(frozenset(set(range(n)) - {src}), None))
            assert marginalized_likelihood(obs, net, alpha) == pytest.approx(0.0, abs=1e-9)

    def test_impossible_observation_is_minus_inf(self):
        # 0 -> 1 cannot transmit, so node 1 at time 1 is impossible whether
        # node 2 is summed over or pinned
        net = chain_net(3)
        alpha = [0.0, 0.5]
        hidden = apply_mask(cascade(4, [0, 1, 2]), MaskSpec(frozenset({2}), None))
        pinned = apply_mask(cascade(4, [0, 1, 2]), MaskSpec())
        assert marginalized_likelihood(hidden, net, alpha) == -np.inf
        assert marginalized_likelihood(pinned, net, alpha) == -np.inf

    def test_capacity_error(self, rng):
        net = random_loopy_net(10, 4, rng)
        alpha = random_couplings(net, rng)
        c = generate_dataset(net, alpha, 1, [0], 10, seed=2)[0]
        obs = apply_mask(c, MaskSpec(frozenset(range(1, 10)), None))
        with pytest.raises(CapacityError, match="two-stage"):
            marginalized_likelihood(obs, net, alpha)

    def test_logsumexp_closed_forms(self):
        from cascade_recon.baselines import _logsumexp

        for a in (0.0, -3.5, 1e-300, 700.0, -1e12):
            assert _logsumexp(np.array([a, a])) == a + np.log(2.0)
            assert _logsumexp(np.array([a])) == a
        assert _logsumexp(np.array([0.0, -1e12])) == 0.0


class TestHtsConfig:
    @pytest.mark.parametrize("setting, message", [
        ({"aux_samples": 0}, "aux_samples must be >= 1"),
        ({"outer_rounds": -1}, "outer_rounds must be >= 0"),
        ({"param_tol": float("nan")}, "param_tol must be positive and finite"),
        ({"param_tol": float("inf")}, "param_tol must be positive and finite"),
        ({"param_tol": 0.0}, "param_tol must be positive and finite"),
        ({"fit": FitConfig(tol=0.0)}, "tol must be positive and finite"),
    ])
    def test_rejected_settings(self, edge01, setting, message):
        config = HtsConfig(**setting)
        with pytest.raises(ValueError, match=f"^{message}$"):
            config.validate()
        obs = apply_mask(cascade(3, [0, 2]), MaskSpec())
        with pytest.raises(ValueError, match=f"^{message}$"):
            hts_fit([obs], edge01, config)

    def test_zero_outer_rounds_accepted(self, edge01):
        res = hts_fit([apply_mask(cascade(3, [0, 2]), MaskSpec())], edge01, HtsConfig(outer_rounds=0))
        assert res.iterations == 0
        np.testing.assert_array_equal(res.couplings_hat, [0.5])


def _complete(data, net, alpha, config):
    """The recorded times with the unresolved ones imputed, and the
    unresolved flags, that the first round of ``hts_fit`` fits."""
    table = _table(data)
    groups, unresolved = _unresolved_groups(table)
    return _completed_times(table, net, np.asarray(alpha, dtype=float), config, 0, groups, unresolved), unresolved


class TestHtsComplete:
    def test_forced_unique_completion(self):
        net = chain_net(3)
        obs = apply_mask(cascade(5, [0, 1, 2]), MaskSpec(frozenset({1}), None))
        times, unresolved = _complete([obs], net, [1.0, 1.0], HtsConfig(aux_samples=50))
        np.testing.assert_array_equal(unresolved, [[False, True, False]])
        np.testing.assert_array_equal(times, [[0, 1, 2]])

    def test_completion_is_argmax_of_consistent_samples(self, rng):
        net = random_tree_net(6, rng)
        truth = random_couplings(net, rng, 0.3, 0.8)
        c = generate_dataset(net, truth, 1, [0], 6, seed=5)[0]
        obs = apply_mask(c, MaskSpec(frozenset({3}), None))
        cfg = HtsConfig(aux_samples=200, seed=9)
        times, unresolved = _complete([obs], net, truth, cfg)
        np.testing.assert_array_equal(times[0, ~unresolved[0]], obs.hi[0, ~unresolved[0]])
        best = full_log_likelihood(cascade(6, times[0]), net, truth)
        # no consistent sample beats the chosen completion
        from cascade_recon.cascades import sample_recorded_times
        import numpy.random as npr

        key = ((9 & (2**64 - 1)) << 64) | (0 << 32) | 0
        rng2 = npr.Generator(npr.Philox(key=key))
        samples = sample_recorded_times(net, truth, [0], 6, 200, rng2)
        vis = np.flatnonzero(~obs.hidden[0])
        ok = ((obs.lo[0, vis] < samples[:, vis]) & (samples[:, vis] <= obs.hi[0, vis])).all(axis=1)
        lls = batch_full_log_likelihood(net, truth, samples[ok], 6)
        assert best >= lls.max() - 1e-9

    def test_no_unresolved_no_sampling(self, edge01, monkeypatch):
        from cascade_recon import baselines

        def refuse(*args):
            raise AssertionError("sampled a cascade with no unresolved node")

        monkeypatch.setattr(baselines, "sample_recorded_times", refuse)
        obs = apply_mask(cascade(3, [0, 2]), MaskSpec())
        times, unresolved = _complete([obs], edge01, [0.5], HtsConfig())
        np.testing.assert_array_equal(times, [[0, 2]])
        assert not unresolved.any()

    def test_mixed_horizons_rejected(self, edge01):
        data = [apply_mask(cascade(3, [0, 2]), MaskSpec()), apply_mask(cascade(4, [0, 2]), MaskSpec())]
        with pytest.raises(DatasetError, match="mismatched horizons"):
            hts_fit(data, edge01, HtsConfig())


class TestHtsFit:
    def test_h0_bit_identical_to_netrate(self, rng):
        net = random_tree_net(7, rng)
        truth = random_couplings(net, rng)
        data = generate_dataset(net, truth, 400, "random", 6, seed=12)
        nr = netrate_fit(data, net)
        res = hts_fit([apply_mask(c, MaskSpec()) for c in data], net, HtsConfig())
        np.testing.assert_array_equal(res.couplings_hat, nr)
        assert res.converged

    def test_groups_numbered_once_a_fit(self, monkeypatch):
        # the source groups and the rows to complete are the same in every
        # round, so a fit of three rounds numbers the groups once
        from cascade_recon import baselines

        calls = []

        def counted(table, numbered=baselines._source_groups):
            calls.append(len(table))
            return numbered(table)

        monkeypatch.setattr(baselines, "_source_groups", counted)
        net = chain_net(3)
        data = generate_dataset(net, [0.6, 0.6], 60, [0], 5, seed=4)
        obs = [apply_mask(c, MaskSpec(frozenset({1}), None)) for c in data]
        res = hts_fit(obs, net, HtsConfig(aux_samples=20, outer_rounds=3, param_tol=1e-300))
        assert res.iterations == 3
        assert calls == [60]

    def test_unidentifiable_edge_stays_at_init(self, edge01):
        truth = [0.3]
        data = generate_dataset(edge01, truth, 400, [0], 8, seed=21)
        obs = [apply_mask(c, MaskSpec(frozenset({1}), None)) for c in data]
        res = hts_fit(obs, edge01, HtsConfig(aux_samples=100, outer_rounds=3))
        assert res.couplings_hat[0] == pytest.approx(0.5)
        # and the marginalized likelihood really is flat in alpha
        vals = [marginalized_likelihood(obs[0], edge01, [a]) for a in (0.2, 0.5, 0.8)]
        assert max(vals) - min(vals) <= 1e-9

    def test_recovers_with_hidden_node(self, rng):
        net = random_tree_net(6, rng)
        truth = random_couplings(net, rng, 0.2, 0.8)
        hidden = frozenset({4})
        data = generate_dataset(net, truth, 3000, "random", 8, seed=50, exclude=hidden)
        obs = apply_mask(data, MaskSpec(hidden, None))
        res = hts_fit(obs, net, HtsConfig(aux_samples=300, outer_rounds=5, seed=3))
        err = np.abs(res.couplings_hat - truth).mean()
        assert err <= 0.15  # heuristic baseline: sane, not sharp
