"""Coupling sensitivities, the observed free energy, and its gradient."""

import numpy as np
import pytest

from cascade_recon import (
    CascadeTable,
    DatasetError,
    MaskSpec,
    apply_mask,
    dmp_forward,
    free_energy_gradient,
    generate_dataset,
    observed_negative_log_likelihood,
    parse_edge_list,
    population_free_energy,
    write_cascades,
)

from cascade_recon.dmp import _propagate, initial_susceptible
from cascade_recon.gradient import (
    _dataset_free_energy,
    _group_ranges,
    _window_log_prob,
    _window_weights,
    summarize_dataset,
)

from conftest import (
    cascade,
    chain_net,
    dmp_forward_with_gradients,
    laid_out,
    messages,
    preferential_attachment_net,
    random_couplings,
    random_loopy_net,
    random_masked_cases,
    random_tree_net,
    reference_summaries,
    sum_matrices,
)


@pytest.fixture
def edge01():
    net, _ = parse_edge_list("0\t1\n")
    return net


def _fd_gradient(dataset, net, alpha, h=1e-5):
    grad = np.empty(net.n_edges)
    for e in range(net.n_edges):
        up, dn = alpha.copy(), alpha.copy()
        up[e] += h
        dn[e] -= h
        grad[e] = (
            observed_negative_log_likelihood(dataset, net, up)
            - observed_negative_log_likelihood(dataset, net, dn)
        ) / (2 * h)
    return grad


def _masked_dataset(net, truth, T, M, mask, seed, sources="random"):
    data = generate_dataset(net, truth, M, sources, T, seed=seed)
    out = []
    for c in data:
        obs = apply_mask(c, mask)
        if obs.sources.size:
            out.append(obs)
    return out


def _forward_mode_free_energy(dataset, net, alpha):
    """Free energy and gradient from forward-mode sensitivities: the
    window weights contracted with ``d_log_step``, group by group."""
    T = dataset[0].horizon
    value, grad = 0.0, np.zeros(net.n_edges)
    for sources, nodes, lo, hi, counts in reference_summaries(dataset):
        trace, gtrace = dmp_forward_with_gradients(net, alpha, sources, T)
        # one group: each row's cell in the (N, 1) log_step is its node
        contrib, weights = _window_weights(trace.log_step[..., None], nodes, lo, hi, counts)
        value += float(contrib.sum())
        grad -= np.tensordot(weights[..., 0], gtrace.d_log_step, axes=2)
    return value, grad


def _reference_window_log_prob(log_step, cells, lo, hi):
    """The (rows, T+1) mask formula that ``_window_log_prob`` replaced,
    kept as its reference: ``log P`` of each window, whose (node, column)
    is the flat index ``cells`` into the (N, G) steps of ``log_step``, its
    log-domain pieces as masks over time and ``d log P / d span``."""
    T = log_step.shape[0] - 1
    steps = log_step.reshape(T + 1, -1)[:, cells].T
    t = np.arange(T + 1)
    before = t <= lo[:, None]
    inside = (t > lo[:, None]) & (t <= hi[:, None])
    censored = hi == T
    span = np.where(inside, steps, 0.0).sum(axis=1)
    span[censored] = -np.inf
    with np.errstate(divide="ignore", over="ignore"):
        log_p = np.where(before, steps, 0.0).sum(axis=1) + np.log(-np.expm1(span))
        d_span = -1.0 / np.expm1(-span)
    return log_p, before, inside, d_span


def _reference_window_weights(log_step, cells, lo, hi, counts):
    """The masked per-row weights scattered with ``np.add.at`` that
    ``_window_weights`` replaced, kept as its reference."""
    log_p, before, inside, d_span = _reference_window_log_prob(log_step, cells, lo, hi)
    row_weights = counts[:, None] * (before + d_span[:, None] * inside)
    weights = np.zeros_like(log_step)
    np.add.at(weights.reshape(log_step.shape[0], -1).T, cells, row_weights)
    return -counts * log_p, weights


class TestSummaries:
    @staticmethod
    def _assert_matches_reference(dataset):
        got = summarize_dataset(dataset)
        want = reference_summaries(dataset)
        assert len(got) == len(want)
        for summ, (sources, nodes, lo, hi, counts) in zip(got, want):
            assert summ.sources == [sources]
            for x, y in ((summ.nodes, nodes), (summ.lo, lo), (summ.hi, hi), (summ.counts, counts)):
                assert x.dtype == y.dtype
                np.testing.assert_array_equal(x, y)

    def test_matches_counter_reference(self, rng):
        for net, cascades, mask in random_masked_cases(rng):
            self._assert_matches_reference([apply_mask(c, mask) for c in cascades])

    def test_matches_counter_reference_over_many_blocks(self, rng):
        net = random_loopy_net(12, 8, rng)
        alpha = random_couplings(net, rng)
        mask = MaskSpec(frozenset({3, 7}), (2, 5, 8))
        self._assert_matches_reference(_masked_dataset(net, alpha, 9, 3000, mask, seed=6))

    def test_each_key_is_sorted_about_log_blocks_times(self, monkeypatch):
        # 512 one-row blocks, each with 3 keys met in no other block: merged
        # block by block into the running count they sort about 3 * 512**2 / 2
        # keys, merged as a binary counter about 3 * 512 * log2(512)
        from cascade_recon import cascades

        M, T = 512, 600
        hi = np.column_stack([np.zeros(M, np.int64)] + [np.arange(1, M + 1)] * 3)
        dataset = CascadeTable(T, np.where(hi > 0, hi - 1, -1), hi, np.zeros(hi.shape, bool))
        sorted_sizes = []

        def counted_unique(a, *args, unique=np.unique, **kwargs):
            sorted_sizes.append(np.size(a))
            return unique(a, *args, **kwargs)

        monkeypatch.setattr(cascades, "_BLOCK_CELLS", 4)
        monkeypatch.setattr(np, "unique", counted_unique)
        self._assert_matches_reference(dataset)
        assert sum(sorted_sizes) <= 2 * 3 * M * np.log2(M)

    def test_summaries_slice_by_groups_as_a_table_slices_by_rows(self, rng):
        _net, cascades, mask = next(random_masked_cases(rng))
        observed = apply_mask(cascades, mask)
        summaries, want = summarize_dataset(observed), reference_summaries(observed)
        n = len(summaries)
        assert n == len(want) >= 3
        # an integer, negative too, is one group; an integer past either end is refused
        for g in (0, n - 1, -1, -n):
            group = summaries[g]
            sources, nodes, *_ = want[g]
            assert len(group) == 1 and group.sources == [sources]
            assert group.ends.tolist() == [0, nodes.size]
            np.testing.assert_array_equal(group.nodes, nodes)
        for g in (n, -n - 1):
            with pytest.raises(IndexError):
                summaries[g]
        # a slice rebases its ends to 0 and views the columns; past the ends it clips
        chunk = summaries[1:3]
        a, b = summaries.ends[1], summaries.ends[3]
        assert chunk.sources == summaries.sources[1:3]
        assert chunk.ends.tolist() == (summaries.ends[1:4] - a).tolist()
        for name in ("nodes", "lo", "hi", "counts"):
            column, view = getattr(summaries, name), getattr(chunk, name)
            assert np.shares_memory(view, column)
            np.testing.assert_array_equal(view, column[a:b])
        assert summaries[1:n + 5].ends.tolist() == (summaries.ends[1:] - summaries.ends[1]).tolist()
        for empty in (summaries[n:n + 2], summaries[3:1]):
            assert len(empty) == 0 and empty.ends.tolist() == [0] and empty.nodes.size == 0
        # a step picks no consecutive groups, and other indices are refused as well
        for index in (slice(None, None, 2), slice(None, None, -1), (0, 1), [0]):
            with pytest.raises(IndexError):
                summaries[index]

    def test_window_outside_the_horizon_rejected(self):
        with pytest.raises(DatasetError, match=r"windows must lie in \[-1, 5\]"):
            summarize_dataset([CascadeTable(5, [[-1, 3]], [[0, 7]], [[False, False]])])


class TestWindowTerms:
    """Window log-probabilities and weights taken from each window's own
    steps, against the mask formula they replaced; the summation order
    differs, so they agree to rounding."""

    @staticmethod
    def _assert_matches_reference(net, summaries, alpha, T):
        # the chunks of a gradient pass, each with its groups' initial
        # conditions and the flat (node, column) cell of each row
        for first, stop in _group_ranges(len(summaries), net, T, True):
            chunk = summaries[first:stop]
            ps0 = np.stack([initial_susceptible(net, src) for src in chunk.sources], axis=1)
            column = np.concatenate([np.full(group.nodes.size, g) for g, group in enumerate(chunk)])
            cells = chunk.nodes * len(chunk) + column
            lo, hi, counts = chunk.lo, chunk.hi, chunk.counts
            log_step = np.stack([state.log_step for state in _propagate(net, alpha, ps0, T)])
            contrib, weights = _window_weights(log_step, cells, lo, hi, counts)
            want_contrib, want_weights = _reference_window_weights(log_step, cells, lo, hi, counts)
            log_p = _window_log_prob(log_step, cells, lo, hi)[0]
            np.testing.assert_allclose(log_p, _reference_window_log_prob(log_step, cells, lo, hi)[0], rtol=1e-13, atol=0)
            np.testing.assert_allclose(contrib, want_contrib, rtol=1e-13, atol=0)
            assert weights.shape == want_weights.shape
            np.testing.assert_allclose(weights, want_weights, rtol=0, atol=1e-13 * np.abs(want_weights).max(initial=0.0))

    def test_random_masked_cases(self, rng):
        for net, cascades, mask in random_masked_cases(rng):
            summaries = summarize_dataset(apply_mask(cascades, mask))
            self._assert_matches_reference(net, summaries, random_couplings(net, rng, 0.05, 0.95), cascades.horizon)

    def test_hand_made_windows(self, rng):
        from cascade_recon import Network

        # every node next to every source: each window below has P > 0
        labels = [str(v) for v in range(7)]
        net = Network(labels, [(a, b) for a in labels for b in labels if a != b])
        T = 6

        def group(sources, windows):
            nodes, lo, hi = np.array(windows, dtype=np.int64).reshape(-1, 3).T
            return sources, nodes.astype(np.intp), lo, hi, rng.integers(1, 50, len(nodes)).astype(float)

        exact = [(v, t - 1, t) for v in (2, 3) for t in range(1, T)]
        from_start = [(4, -1, 2), (5, -1, 5), (6, -1, T)]      # lo = -1, the last one open to T as well
        censored = [(4, T - 1, T), (5, T - 1, T)]
        open_to_t = [(2, 3, T), (6, 1, T), (3, 0, T)]
        intervals = [(2, 1, 4), (6, 0, 3), (5, 2, 5)]
        summaries = [
            group((0,), exact + censored),
            group((2,), []),                                  # a group with no window rows
            group((0, 1), from_start + open_to_t + intervals),
            group((1,), exact + from_start + censored + open_to_t + intervals),
        ]
        for low, high in ((0.05, 0.95), (0.5, 0.999), (1e-6, 1 - 1e-6)):
            alpha = random_couplings(net, rng, low, high)
            self._assert_matches_reference(net, laid_out(summaries), alpha, T)
            self._assert_matches_reference(net, laid_out(summaries[1:2]), alpha, T)


class TestSensitivities:
    def test_single_edge_closed_form(self, edge01):
        _, gt = dmp_forward_with_gradients(edge01, [0.5], [0], 3)
        # d(1-a)^t/da = -t (1-a)^(t-1): -1 and -1 at a=0.5
        assert gt.d_theta[1, 0, 0] == pytest.approx(-1.0)
        assert gt.d_theta[2, 0, 0] == pytest.approx(-1.0)

    def test_zero_init(self, rng):
        net = random_loopy_net(6, 4, rng)
        _, gt = dmp_forward_with_gradients(net, random_couplings(net, rng), [0], 5)
        assert np.all(gt.d_theta[0] == 0.0)
        assert np.all(gt.d_phi[0] == 0.0)

    def test_unreachable_parameter_zero_sensitivity(self):
        # 0 -> 1 -> 2: coupling (1,2) cannot influence node 1's state
        net = chain_net(3)
        tr, gt = dmp_forward_with_gradients(net, [0.4, 0.6], [0], 5)
        f = net.edge_id(1, 2)
        e01 = net.edge_id(0, 1)
        assert np.all(gt.d_theta[:, e01, f] == 0.0)
        assert np.all(gt.d_p_susceptible[:, 1, f] == 0.0)

    def test_marginal_derivative_vs_fd(self, rng):
        from cascade_recon import dmp_forward

        net = random_tree_net(8, rng)
        alpha = random_couplings(net, rng, 0.05, 0.95)
        T, h = 6, 1e-5
        _, gt = dmp_forward_with_gradients(net, alpha, [0], T)
        for e in range(net.n_edges):
            up, dn = alpha.copy(), alpha.copy()
            up[e] += h
            dn[e] -= h
            fd = (
                dmp_forward(net, up, [0], T).p_susceptible
                - dmp_forward(net, dn, [0], T).p_susceptible
            ) / (2 * h)
            an = gt.d_p_susceptible[:, :, e]
            big = np.abs(an) > 1e-8
            assert np.allclose(an[big], fd[big], rtol=1e-6)
            assert np.allclose(an[~big], fd[~big], atol=1e-7)

    def test_derivative_normalization(self, rng):
        net = random_loopy_net(7, 5, rng)
        alpha = random_couplings(net, rng)
        T = 6
        _, gt = dmp_forward_with_gradients(net, alpha, [0], T)
        total = sum(gt.d_activation(t) for t in range(T)) + gt.d_p_susceptible[T - 1]
        assert np.abs(total).max() <= 1e-10


class TestReverseMode:
    """The reverse sweep against forward-mode sensitivities and central
    differences, on loopy graphs with hidden nodes, snapshot windows and
    source sets of one and two nodes, at interior couplings."""

    @staticmethod
    def _instances(rng, count):
        for trial in range(count):
            n = int(rng.integers(5, 11))
            net = random_loopy_net(n, int(rng.integers(3, 8)), rng)
            truth = random_couplings(net, rng, 0.05, 0.95)
            alpha = random_couplings(net, rng, 0.05, 0.95)
            T = int(rng.integers(3, 9))
            snaps = tuple(sorted({2, T - 1, T})) if trial % 2 else None
            pair = [int(v) for v in rng.choice(n, size=2, replace=False)]
            others = [v for v in range(n) if v not in pair]
            mask = MaskSpec(frozenset({int(rng.choice(others))}), snaps)
            dataset = _masked_dataset(net, truth, T, 30, mask, seed=trial)
            dataset += _masked_dataset(net, truth, T, 20, mask, seed=100 + trial, sources=pair)
            yield net, alpha, dataset

    def test_matches_forward_mode(self, rng):
        for net, alpha, dataset in self._instances(rng, 12):
            rep = free_energy_gradient(dataset, net, alpha)
            value, grad = _forward_mode_free_energy(dataset, net, alpha)
            assert rep.value == value
            assert np.abs(rep.gradient - grad).max() <= 1e-9 * np.abs(grad).max()

    def test_matches_finite_differences(self, rng):
        for net, alpha, dataset in self._instances(rng, 6):
            rep = free_energy_gradient(dataset, net, alpha)
            _assert_grad_close(rep.gradient, _fd_gradient(dataset, net, alpha))


class TestObservedFreeEnergy:
    def test_exact_observation_closed_form(self, edge01):
        obs = apply_mask(cascade(3, [0, 2]), MaskSpec())
        f = observed_negative_log_likelihood([obs], edge01, [0.5])
        assert f == pytest.approx(np.log(4.0))

    def test_hidden_node_contributes_nothing(self, edge01):
        c = cascade(3, [0, 2])
        obs = apply_mask(c, MaskSpec(frozenset({1}), None))
        assert observed_negative_log_likelihood([obs], edge01, [0.5]) == 0.0

    def test_interval_observation(self, edge01):
        c = cascade(3, [0, 2])
        obs = apply_mask(c, MaskSpec(frozenset(), (2,)))
        # activation in (0, 2]: probability 1 - (1-a)^2 = 0.75 at a=0.5
        f = observed_negative_log_likelihood([obs], edge01, [0.5])
        assert f == pytest.approx(-np.log(0.75))

    def test_stationary_point_single_edge(self, edge01):
        obs = apply_mask(cascade(4, [0, 2]), MaskSpec())
        rep = free_energy_gradient([obs], edge01, [0.5])
        # m(2) = a(1-a) is maximized at a = 0.5
        assert rep.gradient[0] == pytest.approx(0.0, abs=1e-12)

    def test_empty_dataset_rejected(self, edge01):
        with pytest.raises(DatasetError, match="empty dataset"):
            observed_negative_log_likelihood([], edge01, [0.5])

    def test_value_is_sum_of_per_node(self, rng):
        # the sum over groups and observed nodes of -count log(S(lo) - S(hi)),
        # with S the susceptibility marginal of dmp_forward and S(T) = 0
        net = random_loopy_net(8, 6, rng)
        truth = random_couplings(net, rng)
        dataset = _masked_dataset(net, truth, 6, 60, MaskSpec(frozenset({2}), (0, 2, 3, 6)), seed=4)
        alpha = random_couplings(net, rng, 0.1, 0.9)
        rep = free_energy_gradient(dataset, net, alpha)
        expect = 0.0
        for sources, nodes, lo, hi, counts in reference_summaries(dataset):
            s = np.vstack([dmp_forward(net, alpha, sources, 6).p_susceptible[:6], np.zeros(net.n_nodes)])
            assert lo.min() >= 0
            expect -= counts @ np.log(s[lo, nodes] - s[hi, nodes])
        assert rep.value == pytest.approx(expect, rel=1e-12)

    def test_gradient_matches_fd_full_observation(self, rng):
        net = random_tree_net(8, rng)
        truth = random_couplings(net, rng, 0.05, 0.95)
        alpha = random_couplings(net, rng, 0.05, 0.95)
        dataset = list(apply_mask(generate_dataset(net, truth, 50, "random", 6, seed=21), MaskSpec()))
        rep = free_energy_gradient(dataset, net, alpha)
        fd = _fd_gradient(dataset, net, alpha)
        _assert_grad_close(rep.gradient, fd)

    def test_gradient_matches_fd_hidden_and_snapshots(self, rng):
        for trial in range(6):
            n = int(rng.integers(5, 11))
            net = random_loopy_net(n, 5, rng)
            truth = random_couplings(net, rng, 0.05, 0.95)
            alpha = random_couplings(net, rng, 0.05, 0.95)
            T = int(rng.integers(4, 8))
            snaps = None if trial % 2 == 0 else tuple(sorted({2, T - 1, T}))
            mask = MaskSpec(frozenset({int(rng.integers(n))}), snaps)
            dataset = _masked_dataset(net, truth, T, 40, mask, seed=trial)
            rep = free_energy_gradient(dataset, net, alpha)
            fd = _fd_gradient(dataset, net, alpha)
            _assert_grad_close(rep.gradient, fd)


class TestChunking:
    """Source groups run in batched passes over chunks of groups; the
    outputs do not depend on how the groups are cut into chunks, and the
    memory of an evaluation does not grow with the number of groups."""

    @staticmethod
    def _outputs(monkeypatch, net, dataset, alpha, groups_per_chunk):
        from cascade_recon import FitConfig, dmprec_fit
        from cascade_recon import gradient

        T = dataset[0].horizon
        # a budget of groups_per_chunk groups for the value and the gradient passes alike
        monkeypatch.setattr(gradient, "_group_bytes", lambda *_pass: 1)
        monkeypatch.setattr(gradient, "_PASS_BYTES", groups_per_chunk)
        n_groups = len(summarize_dataset(dataset))
        assert len(list(_group_ranges(n_groups, net, T, True))) == -(-n_groups // groups_per_chunk)
        rep = free_energy_gradient(dataset, net, alpha)
        fit = dmprec_fit(dataset, net, FitConfig(max_iters=3))
        return rep, fit

    def test_bit_identical_for_any_chunking(self, rng, monkeypatch):
        for net, cascades, mask in random_masked_cases(rng):
            dataset = [apply_mask(c, mask) for c in cascades]
            alpha = random_couplings(net, rng, 0.05, 0.95)
            n_groups = len(summarize_dataset(dataset))
            one, one_fit = self._outputs(monkeypatch, net, dataset, alpha, 1)
            for groups_per_chunk in (2, n_groups):
                rep, fit = self._outputs(monkeypatch, net, dataset, alpha, groups_per_chunk)
                assert rep.value == one.value
                np.testing.assert_array_equal(rep.gradient, one.gradient)
                np.testing.assert_array_equal(fit.couplings_hat, one_fit.couplings_hat)
                assert fit.free_energy_trajectory == one_fit.free_energy_trajectory
                assert fit.diagnostics == one_fit.diagnostics

    @staticmethod
    def _evaluation_peak(n_groups):
        import tracemalloc

        local = np.random.default_rng(60)
        net = random_tree_net(60, local)
        alpha = random_couplings(net, local, 0.1, 0.6)
        source_sets = [[v] for v in range(60)] + [[v, (v + k) % 60] for k in (1, 2, 3) for v in range(60)]
        dataset = []
        for k, sources in enumerate(source_sets[:n_groups]):
            dataset += list(apply_mask(generate_dataset(net, alpha, 5, sources, 10, seed=k), MaskSpec()))
        summaries = summarize_dataset(dataset)
        _dataset_free_energy(summaries, net, alpha, 10)  # builds the network's cavity slots
        tracemalloc.start()
        try:
            _dataset_free_energy(summaries, net, alpha, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(summaries) == n_groups
        return peak

    def test_evaluation_peak_does_not_grow_with_groups(self):
        assert self._evaluation_peak(240) <= 1.25 * self._evaluation_peak(60)

    def test_value_pass_matches_gradient_pass(self, rng):
        # 60 groups on a 60-node tree: one value chunk and several gradient chunks
        net = random_tree_net(60, rng)
        truth = random_couplings(net, rng, 0.1, 0.6)
        dataset = []
        for v in range(60):
            dataset += _masked_dataset(net, truth, 10, 5, MaskSpec(frozenset(), (2, 4, 6, 8, 10)), seed=v, sources=[v])
        n_groups = len(summarize_dataset(dataset))
        assert len(list(_group_ranges(n_groups, net, 10, False))) < len(list(_group_ranges(n_groups, net, 10, True)))
        for low, high in ((0.05, 0.95), (0.5, 0.999), (1e-6, 1 - 1e-6)):
            alpha = random_couplings(net, rng, low, high)
            assert free_energy_gradient(dataset, net, alpha).value == observed_negative_log_likelihood(dataset, net, alpha)

    def test_value_pass_holds_no_message_history(self):
        # hub30's 15 visible-source groups in one value chunk peak below the
        # two (T+1, |E|, G) arrays that a gradient pass keeps, rho and r of every step
        import tracemalloc
        from importlib.resources import files

        net, truth = parse_edge_list(files("cascade_recon").joinpath("data/hub30.edges").read_text())
        T = 10
        hidden = frozenset(int(v) for v in np.random.default_rng(30).choice(net.n_nodes, 15, replace=False))
        dataset = []
        for v in sorted(set(range(net.n_nodes)) - hidden):
            dataset += _masked_dataset(net, truth, T, 20, MaskSpec(hidden, None), seed=v, sources=[v])
        summaries = summarize_dataset(dataset)
        assert list(_group_ranges(len(summaries), net, T, False)) == [(0, 15)]
        _dataset_free_energy(summaries, net, truth, T, with_gradient=False)  # builds the network's cavity slots
        tracemalloc.start()
        try:
            _dataset_free_energy(summaries, net, truth, T, with_gradient=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (T + 1) * net.n_edges * 15 * 8


class TestRowTable:
    """A fit holds its summaries and nothing else: each pass cuts its
    chunks from the summaries' rows, and the initial conditions and row
    cells that it makes for a chunk go with the chunk."""

    def test_evaluations_hold_nothing_beyond_the_summaries(self):
        # 300 nodes, 400 random single sources, T = 10: 217 groups, which a
        # gradient pass runs in 217 chunks of one group and a value pass in
        # 31 of seven.  After a value and a gradient evaluation, what is held
        # less the four columns (3.2 MiB) is the summaries' source sets and
        # ends, 6.7 KiB measured; the two chunk lists that a fit once kept
        # held 2.0 MiB there, their chunks' initial conditions and a group
        # column
        import tracemalloc

        local = np.random.default_rng(300)
        net = preferential_attachment_net(300, 3, local)
        alpha = local.uniform(0.05, 0.5, net.n_edges)
        data = apply_mask(generate_dataset(net, alpha, 400, "random", 10, seed=301), MaskSpec())
        _dataset_free_energy(summarize_dataset(data), net, alpha, 10)  # builds the network's cavity slots
        tracemalloc.start()
        try:
            summaries = summarize_dataset(data)
            _dataset_free_energy(summaries, net, alpha, 10, with_gradient=False)
            _dataset_free_energy(summaries, net, alpha, 10)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(summaries) == 217
        assert [len(list(_group_ranges(217, net, 10, with_gradient))) for with_gradient in (True, False)] == [217, 31]
        columns = sum(getattr(summaries, name).nbytes for name in ("nodes", "lo", "hi", "counts"))
        assert held - columns <= 32 * 2**10

    def test_streamed_fit_peaks_at_its_stream(self, tmp_path):
        # a 60-node tree with snapshot windows and 60 source groups, streamed
        # from its file: the fit peaks within 0.01 MiB of the stream that
        # summarizes it (1.81 MiB), where passes over chunks that stacked
        # their own rows peaked 0.5 MiB above it
        import tracemalloc

        from cascade_recon import FitConfig, cascades
        from cascade_recon.fit import _summaries_fit

        local = np.random.default_rng(60)
        net = random_tree_net(60, local)
        alpha = local.uniform(0.1, 0.6, net.n_edges)
        observed = apply_mask(generate_dataset(net, alpha, 3000, "random", 10, seed=61), MaskSpec(frozenset(), (2, 4, 6, 8, 10)))
        path = tmp_path / "observed.txt"
        path.write_text(write_cascades(net, observed), encoding="utf-8")

        def stream():
            with open(path, encoding="utf-8") as fh:
                horizon, blocks = cascades._cascade_blocks(net, fh)
                return horizon, summarize_dataset(blocks)

        def fit():
            horizon, summaries = stream()
            return _summaries_fit(summaries, net, horizon, FitConfig(max_iters=3))

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        fit()                                                 # builds the network's cavity slots
        assert len(stream()[1]) == 60
        assert peak(fit) <= peak(stream) + 0.1 * 2**20


class TestLogDomainWindows:
    """Window probabilities far below any float floor: the value is exact
    and the gradient is its derivative."""

    @pytest.mark.parametrize("a", [0.9, 0.99])
    def test_censored_single_edge_closed_form(self, edge01, a):
        # censored at T=10: node 1 survives 9 steps, P = (1-a)^9
        obs = apply_mask(cascade(10, [0, 10]), MaskSpec())
        alpha = np.array([a])
        f = observed_negative_log_likelihood([obs], edge01, alpha)
        assert f == pytest.approx(-9.0 * np.log1p(-a), rel=1e-10)
        rep = free_energy_gradient([obs], edge01, alpha)
        assert rep.value == f
        assert rep.gradient[0] == pytest.approx(9.0 / (1.0 - a), rel=1e-8)
        _assert_grad_close(rep.gradient, _fd_gradient([obs], edge01, alpha, h=1e-7))

    def test_tiny_hazard_window(self):
        # 0 -> 1 -> 2 with weak couplings: activation of 2 at t=2 has
        # probability a01 * a12, where S(1) - S(2) cancels to nothing
        net = chain_net(3)
        alpha = np.array([1e-9, 1e-10])
        obs = apply_mask(cascade(4, [0, 1, 2]), MaskSpec())
        rep = free_energy_gradient([obs], net, alpha)
        expected = -np.log(alpha[0]) - np.log(alpha[0] * alpha[1])
        assert rep.value == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(rep.gradient, [-2.0 / alpha[0], -1.0 / alpha[1]], rtol=1e-8)

    def test_finite_near_alpha_max_on_hub_network(self):
        from importlib.resources import files

        from cascade_recon import FitConfig, dmp_forward

        text = files("cascade_recon").joinpath("data/hub30.edges").read_text()
        net, truth = parse_edge_list(text)
        local = np.random.default_rng(42)
        box = FitConfig()
        alpha = local.uniform(box.alpha_min, box.alpha_max, net.n_edges)
        alpha[local.random(net.n_edges) < 0.3] = box.alpha_max
        for src in range(net.n_nodes):
            tr = dmp_forward(net, alpha, [src], 10)
            theta, phi = messages(net, alpha, [src], 10)
            for arr in (theta, phi, tr.p_susceptible):
                assert arr.min() >= 0.0 and arr.max() <= 1.0
            assert np.all(np.diff(tr.p_susceptible, axis=0) <= 0.0)
            assert np.all(np.diff(theta, axis=0) <= 0.0)
        hidden = frozenset(int(x) for x in local.choice(net.n_nodes, size=15, replace=False))
        dataset = _masked_dataset(net, truth, 10, 300, MaskSpec(hidden, None), seed=42)
        rep = free_energy_gradient(dataset, net, alpha)
        assert np.isfinite(rep.value)
        assert np.all(np.isfinite(rep.gradient))
        assert rep.value == observed_negative_log_likelihood(dataset, net, alpha)


@pytest.fixture(scope="module")
def hub30_hidden():
    """hub30 with 15 nodes hidden and 200 cascades from each visible node, T = 10."""
    from importlib.resources import files

    net, truth = parse_edge_list(files("cascade_recon").joinpath("data/hub30.edges").read_text())
    hidden = frozenset(int(v) for v in np.random.default_rng(30).choice(net.n_nodes, 15, replace=False))
    dataset = []
    for v in sorted(set(range(net.n_nodes)) - hidden):
        dataset += apply_mask(generate_dataset(net, truth, 200, [v], 10, seed=v), MaskSpec(hidden, None))
    return net, dataset


def _longdouble_free_energy(dataset, net, alpha):
    """The free energy from the same recursion run in ``np.longdouble``,
    with the messages and cavity products held as they are rather than as
    logarithms, ``1 - rho = ps0_src * cav / theta``, and ``log keep`` from
    the form that is exact for each entry; couplings below 1 keep theta
    positive."""
    ld, T = np.longdouble, dataset[0].horizon
    alpha = alpha.astype(ld)
    in_edge_sum, cavity_sum = sum_matrices(net, ld)
    value = ld(0)
    for sources, nodes, lo, hi, counts in reference_summaries(dataset):
        ps0_src = initial_susceptible(net, sources).astype(ld)[net.edge_src]
        theta, cav = np.ones(net.n_edges, ld), np.ones(net.n_edges, ld)
        log_step = np.zeros((T + 1, net.n_nodes, 1), ld)
        for t in range(1, T + 1):
            r = np.minimum(ps0_src * cav / theta, 1)
            h = alpha * (1 - r)
            log_keep = np.where(h < 0.5, np.log1p(-h), np.log((1 - alpha) + alpha * r))
            theta *= np.exp(log_keep)
            cav *= np.exp(cavity_sum @ log_keep)
            log_step[t, :, 0] = in_edge_sum @ log_keep
        value -= (counts * _reference_window_log_prob(log_step, nodes, lo, hi)[0]).sum()
    return value


class TestPrecisionAcrossTheBox:
    """On hub30 with hidden nodes, up to couplings of 1 - 1e-6: the value
    holds to rounding, and the gradient is its derivative and agrees with
    the forward-mode tangent to rounding."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
                        reason="np.longdouble is no wider than float64 here")
    @pytest.mark.parametrize("low, high", [(0.05, 0.95), (0.5, 0.999), (0.9, 1 - 1e-6)])
    def test_value_matches_longdouble_run(self, hub30_hidden, low, high):
        net, dataset = hub30_hidden
        alpha = np.random.default_rng(7).uniform(low, high, net.n_edges)
        want = _longdouble_free_energy(dataset, net, alpha)
        assert abs(observed_negative_log_likelihood(dataset, net, alpha) - want) <= 1e-13 * abs(want)

    def test_gradient_matches_central_differences(self, hub30_hidden):
        net, dataset = hub30_hidden
        alpha = np.random.default_rng(7).uniform(0.5, 0.999, net.n_edges)
        gradient = free_energy_gradient(dataset, net, alpha).gradient
        h = 1e-6
        for e in np.argsort(-np.abs(gradient))[:8]:
            up, dn = alpha.copy(), alpha.copy()
            up[e] += h
            dn[e] -= h
            fd = (observed_negative_log_likelihood(dataset, net, up) - observed_negative_log_likelihood(dataset, net, dn)) / (2 * h)
            assert abs(gradient[e] - fd) <= 1e-5 * abs(fd)

    @pytest.mark.parametrize("low, high", [(0.05, 0.95), (0.5, 0.999), (0.9, 1 - 1e-6)])
    def test_gradient_matches_forward_mode(self, hub30_hidden, low, high):
        net, dataset = hub30_hidden
        alpha = np.random.default_rng(7).uniform(low, high, net.n_edges)
        gradient = free_energy_gradient(dataset, net, alpha).gradient
        want = _forward_mode_free_energy(dataset, net, alpha)[1]
        assert np.abs(gradient - want).max() <= 1e-12 * np.abs(want).max()


class TestPopulationLimit:
    def test_gradient_zero_at_truth_single_edge(self, edge01):
        val, grad = population_free_energy(edge01, [0.3], [0.3], [0], 5)
        assert abs(grad[0]) <= 1e-10

    def test_value_minimized_at_truth(self, edge01):
        v_star, _ = population_free_energy(edge01, [0.3], [0.3], [0], 5)
        v_off, _ = population_free_energy(edge01, [0.3], [0.5], [0], 5)
        assert v_off > v_star

    def test_gradient_zero_at_truth_random_trees(self, rng):
        for _ in range(10):
            net = random_tree_net(int(rng.integers(4, 11)), rng)
            astar = random_couplings(net, rng)
            src = [int(rng.integers(net.n_nodes))]
            _, grad = population_free_energy(net, astar, astar, src, 6)
            assert np.abs(grad).max() <= 1e-8




def _assert_grad_close(analytic, numeric):
    big = np.abs(analytic) > 1e-6
    if big.any():
        rel = np.abs(analytic[big] - numeric[big]) / np.abs(analytic[big])
        assert rel.max() <= 1e-5
    small = ~big
    if small.any():
        assert np.abs(analytic[small] - numeric[small]).max() <= 1e-8
