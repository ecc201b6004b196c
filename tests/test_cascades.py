"""Cascade simulation, dataset generation, masking, and file round trips."""

import io
import re

import numpy as np
import pytest

from cascade_recon import (
    CascadeTable,
    DatasetError,
    FitConfig,
    HtsConfig,
    MaskSpec,
    Network,
    ParseError,
    apply_mask,
    batch_full_log_likelihood,
    cascade_substream,
    dmprec_fit,
    exact_marginals_oracle,
    free_energy_gradient,
    generate_dataset,
    hts_fit,
    monte_carlo_marginals,
    netrate_fit,
    observed_negative_log_likelihood,
    parse_edge_list,
    read_cascades,
    resolve_mask,
    sample_recorded_times,
    serialize_edge_list,
    write_cascades,
)

from cascade_recon import cascades, gradient
from cascade_recon.cascades import _decode_time, _source_groups, _split_token
from cascade_recon.fit import _summaries_fit

from conftest import (
    cascade,
    chain_net,
    preferential_attachment_net,
    random_couplings,
    random_loopy_net,
    random_masked_cases,
    reference_sampled_times,
    reference_summaries,
)


@pytest.fixture
def chain3():
    return chain_net(3)


def _reference_apply_mask(cascade, mask):
    """The per-node masking loop that ``apply_mask`` replaced, kept as its
    reference."""
    T, (times,) = cascade.horizon, cascade.times
    n = times.shape[0]
    mask.validate(n, T)
    points = sorted({0, *(mask.snapshot_times if mask.snapshot_times is not None else range(T + 1))})
    lo = np.empty(n, dtype=np.int64)
    hi = np.empty(n, dtype=np.int64)
    hidden = np.zeros(n, dtype=bool)
    for i in range(n):
        if i in mask.hidden_nodes:
            hidden[i] = True
            lo[i] = hi[i] = -1
            continue
        tau = int(times[i])
        if tau == 0:
            lo[i], hi[i] = -1, 0
            continue
        first_active = None
        prev = 0
        for s in points:
            active = tau <= s if s < T else tau < T
            if active:
                first_active = s
                break
            prev = s
        if first_active is None:
            lo[i], hi[i] = (T - 1, T) if prev >= T - 1 else (prev, T)
        else:
            lo[i] = prev
            hi[i] = first_active if first_active < T else T - 1
    return CascadeTable(T, [lo], [hi], [hidden])


def _window(obs, i):
    """Node ``i``'s window ``(lo, hi)`` in the one-row table ``obs``, or
    None when it is hidden."""
    return None if obs.hidden[0, i] else (int(obs.lo[0, i]), int(obs.hi[0, i]))


# A token: a run of characters other than ',' in which '(' opens an
# interval that runs, commas included, to the next ']' (or to the end of
# the line), after any leading whitespace; whitespace-only runs are none.
_REFERENCE_TOKEN = re.compile(r"\s*((?=[^,\s])[^,(]*(?:\([^\]]*\]?[^,(]*)*)")


def _reference_read_cascades(net, text):
    """The regex reader that ``read_cascades`` replaced, kept as its
    reference: one ``findall`` per line and one decode per token, line by
    line, so the first bad line in the file raises its first error."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines) or not lines[idx].startswith("T="):
        raise ParseError("cascade file must start with a 'T=<int>' line")
    try:
        T = int(lines[idx][2:])
    except ValueError:
        raise ParseError(f"bad horizon line {lines[idx]!r}") from None
    if T < 1:
        raise ParseError("horizon must be >= 1")
    out = []
    for k in range(idx + 1, len(lines)):
        line = lines[k].strip()
        if not line or line.startswith("#"):
            continue
        _cid, tab, body = lines[k].lstrip().partition("\t")
        if not tab:
            raise ParseError(f"line {k + 1}: expected '<id>\\t<tokens>'")
        lo = np.full(net.n_nodes, -1, dtype=np.int64)
        hi = np.full(net.n_nodes, -1, dtype=np.int64)
        hidden = np.ones(net.n_nodes, dtype=bool)
        in_bounds = True
        for tok in _REFERENCE_TOKEN.findall(body):
            tok = tok.strip()
            try:
                node, spec = _split_token(tok, net.label_index)
                if not hidden[node]:
                    raise ParseError(f"node {tok.partition(':')[0]!r} listed twice")
                a, b = _decode_time(spec, T, tok)
            except ParseError as exc:
                raise ParseError(f"line {k + 1}: {exc}") from None
            hidden[node] = False
            in_bounds &= -1 <= a < b <= T
            if in_bounds:
                lo[node], hi[node] = a, b
        if not in_bounds:
            raise ParseError(f"line {k + 1}: interval bounds must satisfy -1 <= lo < hi <= T")
        out.append(CascadeTable(T, [lo], [hi], [hidden]))
    if not out:
        raise ParseError("cascade file contains no cascades")
    return out


def _file_summaries(net, path):
    """The summaries of the cascade file at ``path`` read as ``cascade-recon
    fit`` reads it: opened as ``Path.read_text`` opens it and streamed a
    block of lines at a time into ``summarize_dataset``, with no whole text
    and no table."""
    with open(path, encoding="utf-8") as fh:
        _horizon, blocks = cascades._cascade_blocks(net, fh)
        return gradient.summarize_dataset(blocks)


def _streamed_summaries(net, text, tmp_path):
    """The summaries of ``text`` written to a file, line ends as they are,
    and read back as ``cascade-recon fit`` reads it."""
    path = tmp_path / "cascades.txt"
    path.write_text(text, encoding="utf-8", newline="")
    return _file_summaries(net, path)


def _reference_write_cascades(net, cascades_):
    """The writer that ``write_cascades`` replaced, kept as its reference:
    one object-array string concatenation per visible cell."""
    if not len(cascades_):
        raise ValueError("no cascades to write")
    table = cascades._table(cascades_)
    T = table.horizon
    labels = np.array(net.labels, dtype=object)
    lines = [f"T={T}"]
    for start, block in cascades._blocks(table):
        rows, nodes = np.nonzero(~block.hidden)
        codes = cascades._checked(cascades._window_codes(block.lo[rows, nodes], block.hi[rows, nodes], T), T)
        codes, which = np.unique(codes, return_inverse=True)
        lo_of, hi_of = cascades._window_bounds(codes, T)
        suffixes = [cascades._token_suffix(a, b, T) for a, b in zip(lo_of.tolist(), hi_of.tolist())]
        tokens = (labels[nodes] + np.array(suffixes, dtype=object)[which]).tolist()
        for r, line_tokens in enumerate(cascades._split_rows(tokens, rows, len(block)), start):
            lines.append(f"{r}\t" + ",".join(line_tokens))
    return "\n".join(lines) + "\n"


def _random_windows(rng, n_rows, n_nodes, T):
    """An observed table of random windows ``-1 <= lo < hi <= T``, a fifth
    of the cells hidden, and every node hidden in every seventh row."""
    lo = rng.integers(-1, T, (n_rows, n_nodes))
    hi = lo + 1 + rng.integers(0, T - lo)
    hidden = rng.random((n_rows, n_nodes)) < 0.2
    hidden[::7] = True
    return CascadeTable(T, np.where(hidden, -1, lo), np.where(hidden, -1, hi), hidden)


def _reference_times(net, alpha, sources, horizon, g):
    """The simulator that ``generate_dataset`` replaced, kept as the
    reference of its random stream: after the source draw, a
    ``(horizon-1) x |E|`` block of ``Generator.random()`` doubles, then the
    steps edge by edge."""
    u = g.random((max(horizon - 1, 0), net.n_edges))
    times = np.full(net.n_nodes, horizon, dtype=np.int64)
    times[sources] = 0
    for t in range(horizon - 1):
        before = times.copy()
        for e in range(net.n_edges):
            k, i = int(net.edge_src[e]), int(net.edge_dst[e])
            if before[k] <= t and before[i] == horizon and u[t, e] < alpha[e]:
                times[i] = t + 1
    return times


def _reference_dataset(net, alpha, n_cascades, source_policy, horizon, seed, exclude=()):
    """The recorded times of the cascades of the reference stream: a
    random source is drawn from the nodes not in ``exclude``, ascending."""
    pool = [i for i in range(net.n_nodes) if i not in set(exclude)]
    rows = []
    for c in range(n_cascades):
        g = cascade_substream(seed, c)
        sources = [pool[int(g.integers(len(pool)))]] if source_policy == "random" else list(source_policy)
        rows.append(_reference_times(net, alpha, sources, horizon, g))
    return np.array(rows)


def _assert_identical(a, b):
    """Same horizon and the same lo, hi and hidden arrays, dtypes included."""
    assert a.horizon == b.horizon
    for x, y in ((a.lo, b.lo), (a.hi, b.hi), (a.hidden, b.hidden)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


class TestSimulate:
    def test_deterministic_transmission(self, chain3):
        data = generate_dataset(chain3, [1.0, 1.0], 3, [0], 5, seed=0)
        np.testing.assert_array_equal(data.times, [[0, 1, 2]] * 3)

    def test_no_transmission(self, chain3):
        data = generate_dataset(chain3, [0.0, 0.0], 3, [0], 5, seed=0)
        np.testing.assert_array_equal(data.times, [[0, 5, 5]] * 3)

    def test_empty_sources_rejected(self, chain3):
        with pytest.raises(DatasetError, match="^source set is empty$"):
            generate_dataset(chain3, [0.5, 0.5], 1, [], 5, seed=0)
        with pytest.raises(DatasetError, match="^source index out of range$"):
            generate_dataset(chain3, [0.5, 0.5], 1, [7], 5, seed=0)

    def test_geometric_activation_law(self):
        # single edge: activation time is geometric, censored at the horizon
        net, _ = parse_edge_list("0\t1\n")
        alpha, T, runs = 0.5, 10, 10**6
        data = generate_dataset(net, [alpha], runs, [0], T, seed=99)
        taus = data.hi[:, 1]
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
        # with every coupling below 1 only an activation with no in-neighbor
        # active a step earlier is impossible
        assert alpha.max() < 1.0
        assert (batch_full_log_likelihood(net, alpha, data.hi, 6) > -1e11).all()

    def test_empirical_marginals_match_oracle(self, rng):
        net = random_loopy_net(6, 4, rng)
        alpha = random_couplings(net, rng)
        T, runs = 5, 10**6
        data = generate_dataset(net, alpha, runs, [0], T, seed=17)
        times = data.hi
        table = exact_marginals_oracle(net, alpha, [0], T)
        # recorded-time distribution: still susceptible at t iff tau > t, t <= T-1
        for t in range(T):
            emp = (times > t).mean(axis=0)
            se = np.sqrt(table[t] * (1 - table[t]) / runs)
            assert np.all(np.abs(emp - table[t]) <= 4 * se + 1e-9)


class TestDatasetGeneration:
    def test_singleton_matches_substream(self, chain3):
        data = generate_dataset(chain3, [0.4, 0.7], 1, [0], 8, seed=5)
        direct = _reference_times(chain3, np.array([0.4, 0.7]), [0], 8, cascade_substream(5, 0))
        assert data[0] == cascade(8, direct)

    @staticmethod
    def _in_blocks_of(monkeypatch, net, horizon, rows):
        """Make generate_dataset run blocks of ``rows`` cascades; returns the
        list that collects the number of cascades of each block it runs."""
        monkeypatch.setattr(cascades, "_BLOCK_WORDS", rows * max(1, (horizon - 1) * net.n_edges))
        sizes, spread = [], cascades._spread

        def counted(net, horizon, times, transmit):
            sizes.append(times.shape[1])
            spread(net, horizon, times, transmit)

        monkeypatch.setattr(cascades, "_spread", counted)
        return sizes

    def test_bit_reproducible_across_chunking(self, rng, monkeypatch):
        net = random_loopy_net(7, 5, rng)
        alpha = random_couplings(net, rng)
        for T in (1, 6):
            want = generate_dataset(net, alpha, 500, "random", T, seed=11)
            for rows in (1, 64, 499):
                sizes = self._in_blocks_of(monkeypatch, net, T, rows)
                _assert_identical(generate_dataset(net, alpha, 500, "random", T, seed=11), want)
                assert sizes == [rows] * (500 // rows) + [500 % rows] * (500 % rows > 0)
                monkeypatch.undo()

    def test_edgeless_network(self, monkeypatch):
        net = Network(["a", "b", "c"], [])
        for T in (1, 2, 6):
            for rows in (1, 64):
                sizes = self._in_blocks_of(monkeypatch, net, T, rows)
                got = generate_dataset(net, [], 100, "random", T, seed=3)
                np.testing.assert_array_equal(got.hi, _reference_dataset(net, [], 100, "random", T, seed=3))
                assert sizes == [rows] * (100 // rows) + [100 % rows] * (100 % rows > 0)
                monkeypatch.undo()

    def test_stream_matches_the_reference(self, rng, monkeypatch):
        for seed in range(3):
            net = random_loopy_net(int(rng.integers(4, 9)), int(rng.integers(2, 8)), rng)
            alpha = np.where(rng.random(net.n_edges) < 0.4, rng.integers(0, 2, net.n_edges), rng.random(net.n_edges))
            alpha[:2] = 0.0, 1.0
            # random sources from every node, from all but node 0, and from one node alone
            excludes = ((), (0,), range(1, net.n_nodes))
            for T in (1, 2, 6):
                for policy, exclude in [*(("random", e) for e in excludes), ([1], ()), ([0, 2], ())]:
                    want = _reference_dataset(net, alpha, 500, policy, T, seed, exclude)
                    for rows in (1, 64, 499):
                        self._in_blocks_of(monkeypatch, net, T, rows)
                        got = generate_dataset(net, alpha, 500, policy, T, seed, exclude=exclude)
                        monkeypatch.undo()
                        np.testing.assert_array_equal(got.hi, want)

    def test_words_decide_as_uniforms(self, rng):
        # a raw Philox word w passes _thresholds' rule for alpha iff the uniform
        # (w >> 11) * 2**-53 that Generator.random makes of the same state is
        # below alpha, and each draw leaves the state alike
        alpha = np.concatenate(([0.0, 1.0, 2.0**-53, 1 - 2.0**-53], rng.random(40)))
        for seed in range(20):
            words, ref = np.random.Philox(seed), np.random.Generator(np.random.Philox(seed))
            passes = (words.random_raw((50, alpha.size)) >> np.uint64(11)) < cascades._thresholds(alpha)
            np.testing.assert_array_equal(passes, ref.random((50, alpha.size)) < alpha)
            assert np.random.Generator(words).random() == ref.random()

    @pytest.mark.parametrize("policy, exclude, message", [
        ([0], (1,), "exclude applies to random sources only"),
        ("random", (3,), "excluded node index 3 out of range"),
        ("random", (-1,), "excluded node index -1 out of range"),
        ("random", (0, 1, 2), "exclude leaves no node to draw a source from"),
        ("randomly", (), "unknown source policy 'randomly'"),
    ])
    def test_refusals(self, chain3, policy, exclude, message):
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            generate_dataset(chain3, [0.5, 0.5], 5, policy, 5, seed=1, exclude=exclude)

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

    def test_samplers_refuse_a_bad_count(self, chain3):
        with pytest.raises(DatasetError, match=r"^runs must be >= 1$"):
            monte_carlo_marginals(chain3, [0.5, 0.5], [0], 5, 0, rng=1)
        with pytest.raises(DatasetError, match=r"^count must be >= 0$"):
            sample_recorded_times(chain3, [0.5, 0.5], [0], 5, -1, rng=1)
        assert sample_recorded_times(chain3, [0.5, 0.5], [0], 5, 0, rng=1).shape == (0, 3)

    @pytest.mark.parametrize("seed", [5, np.int64(5)])
    def test_samplers_take_an_int_seed(self, rng, seed):
        net = random_loopy_net(6, 5, rng)
        alpha = random_couplings(net, rng)
        for sampler in (sample_recorded_times, monte_carlo_marginals):
            np.testing.assert_array_equal(sampler(net, alpha, [1], 5, 300, rng=seed),
                                          sampler(net, alpha, [1], 5, 300, rng=np.random.default_rng(5)))

    def test_sampler_stream_matches_the_reference(self, monkeypatch):
        # three graphs, each with an alpha = 1 edge, and two seeds, in one
        # block and in blocks of 7 rows; on the chain with every coupling 1 a
        # block stops early, once every node is active, and with every node a
        # source none does; the generator is left where the reference leaves it
        rng = np.random.default_rng(9)
        loopy, pa = random_loopy_net(8, 6, rng), preferential_attachment_net(12, 2, rng)
        cases = [(chain_net(4), np.ones(3), [0]), (chain_net(4), np.ones(3), range(4))]
        for net in (loopy, pa):
            alpha = random_couplings(net, rng, 0.05, 0.6)
            alpha[0] = 1.0
            cases.append((net, alpha, [0, 3]))
        T, count = 8, 40
        for rows in (cascades._SAMPLE_ROWS, 7):
            monkeypatch.setattr(cascades, "_SAMPLE_ROWS", rows)
            for net, alpha, sources in cases:
                for seed in (3, 4):
                    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
                    times = sample_recorded_times(net, alpha, sources, T, count, got)
                    np.testing.assert_array_equal(times, reference_sampled_times(net, alpha, sources, T, count, want, rows))
                    assert got.random() == want.random()
            assert sample_recorded_times(*cases[0][:3], T, count, 3).max() == 3 < T - 1

    def test_peak_memory_near_the_table(self):
        # the raw words come a bounded block at a time through one buffer,
        # so the peak stays near the size of the table returned
        import tracemalloc
        from importlib.resources import files

        net, alpha = parse_edge_list(files("cascade_recon").joinpath("data/hub30.edges").read_text())
        tracemalloc.start()
        try:
            data = generate_dataset(net, alpha, 10000, "random", 10, seed=52)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (data.lo.nbytes + data.hi.nbytes + data.hidden.nbytes)

    def test_hub_network_dataset(self):
        from importlib.resources import files

        text = files("cascade_recon").joinpath("data/hub30.edges").read_text()
        net, alpha = parse_edge_list(text)
        data = generate_dataset(net, alpha, 10000, "random", 10, seed=52)
        assert len(data) == 10000
        assert all(c.sources.size == 1 for c in data)
        assert all(c.horizon == 10 for c in data)


class TestCascadeTable:
    def test_complete_table_rows(self, rng):
        net = random_loopy_net(6, 3, rng)
        data = generate_dataset(net, random_couplings(net, rng), 30, "random", 5, seed=1)
        assert isinstance(data, CascadeTable) and data.complete
        assert len(data) == 30 and data.n_nodes == 6
        assert (data.lo.dtype, data.hi.dtype, data.hidden.dtype) == (np.int64, np.int64, bool)
        np.testing.assert_array_equal(data.lo, data.hi - 1)
        assert not data.hidden.any()
        # a row is a one-row table that keeps complete
        rows = list(data)
        assert all(type(c) is CascadeTable and len(c) == 1 and c.complete and c.times.dtype == np.int64 for c in rows)
        # the rows are views of the table's codes, not copies; their times are decoded, read-only
        for c in [*rows, data[2]]:
            assert np.shares_memory(c.codes, data.codes) and not c.times.flags.writeable
        assert data[0] == rows[0] == data[-30] and data[-1] == rows[-1] and data[np.int64(3)] == rows[3] == data[3:4]
        np.testing.assert_array_equal(data[3].times, data.hi[3:4])
        np.testing.assert_array_equal(data[3].sources, data.sources[data.sources // 6 == 3] % 6)
        # an integer past either end is an IndexError, not an empty table
        for k in (30, -31, np.int64(30)):
            with pytest.raises(IndexError):
                data[k]
        # an index that does not pick whole rows makes no table
        for index in ((3, 1), (slice(None), 1)):
            with pytest.raises(IndexError, match="^a table's index picks whole rows$"):
                data[index]
        part = data[5:9]
        assert isinstance(part, CascadeTable) and part.complete and len(part) == 4
        assert list(part) == rows[5:9]

    def test_observed_table_rows(self, chain3):
        back = read_cascades(chain3, "T=5\n0\t0:0,1:(1,3]\n1\t0:0,2:5+\n")
        assert isinstance(back, CascadeTable) and not back.complete
        assert (back.lo.dtype, back.hi.dtype, back.hidden.dtype) == (np.int64, np.int64, bool)
        assert [(type(obs), len(obs), obs.complete) for obs in back] == [(CascadeTable, 1, False)] * 2
        assert _window(back[0], 1) == (1, 3)
        assert [_window(back[1], i) for i in range(3)] == [(-1, 0), None, (4, 5)]
        assert back[1].hidden.dtype == bool and back[1].lo.dtype == np.int64
        for obs in [*back, back[1]]:
            assert (obs.lo.dtype, obs.hi.dtype, obs.hidden.dtype) == (np.int64, np.int64, bool)
            assert np.shares_memory(obs.codes, back.codes)
            assert not any(a.flags.writeable for a in (obs.codes, obs.lo, obs.hi, obs.hidden))

    def test_concatenation(self, chain3):
        a = generate_dataset(chain3, [0.5, 0.5], 3, [0], 5, seed=1)
        b = generate_dataset(chain3, [0.5, 0.5], 2, [0], 5, seed=2)
        both = a + b
        assert isinstance(both, CascadeTable) and both.complete
        assert list(both) == list(a) + list(b)
        grown = a
        grown += b
        assert grown == both and len(a) == 3
        rows = []
        rows += a
        assert type(rows) is list and rows == [a[0], a[1], a[2]]
        mixed = a + apply_mask(b, MaskSpec())
        assert isinstance(mixed, CascadeTable) and not mixed.complete
        assert mixed == apply_mask(both, MaskSpec())
        # + and == take tables; a list of rows is neither added nor equal
        with pytest.raises(TypeError):
            a + list(b)
        assert a != list(a)
        with pytest.raises(DatasetError, match=r"^cascades with mismatched horizons: \[5, 6\]$"):
            a + generate_dataset(chain3, [0.5, 0.5], 2, [0], 6, seed=2)
        with pytest.raises(DatasetError, match=r"^cascades with mismatched node counts: \[2, 3\]$"):
            a + generate_dataset(chain_net(2), [0.5], 2, [0], 5, seed=2)

    def test_table_plus_rows_builds_no_row_of_the_table(self, rng, monkeypatch):
        # a table plus a table of rows stacks their codes: the same table as
        # stacking every row of both, and no row of either made
        net = random_loopy_net(8, 5, rng)
        alpha = random_couplings(net, rng, 0.1, 0.9)
        data = generate_dataset(net, alpha, 30, [0, 2], 6, seed=4)
        observed = apply_mask(data, MaskSpec(frozenset({5}), (2, 4)))
        extra = generate_dataset(net, alpha, 5, [1], 6, seed=5)
        sums = [(data, extra[:1]), (data, extra), (data, extra[:0]), (observed, apply_mask(extra, MaskSpec())),
                (observed, extra[1:2]), (observed, extra[:0])]
        want = [cascades._table([*table, *rows]) for table, rows in sums]
        monkeypatch.setattr(CascadeTable, "__iter__", lambda table: pytest.fail("a row of the table was made"))
        for (table, rows), expected in zip(sums, want):
            got = table + rows
            assert (got.horizon, got.complete, got.codes.dtype) == (expected.horizon, expected.complete, expected.codes.dtype)
            np.testing.assert_array_equal(got.codes, expected.codes)
        assert (data + extra[:1]).complete and not (data + observed[:2]).complete

    def test_mask_of_a_table_masks_each_row(self, rng):
        for _net, cascades, mask in random_masked_cases(rng):
            observed = apply_mask(cascades, mask)
            assert isinstance(observed, CascadeTable) and not observed.complete
            assert len(observed) == len(cascades)
            for obs, c in zip(observed, cascades):
                _assert_identical(obs, apply_mask(c, mask))

    def test_mask_needs_full_observation(self, chain3):
        back = read_cascades(chain3, "T=5\n0\t0:0,1:1,2:2\n1\t0:0,1:(1,3],2:5+\n")
        with pytest.raises(DatasetError, match="^cascade is not fully observed$"):
            apply_mask(back, MaskSpec())
        assert apply_mask(back[:1], MaskSpec()) == back[:1]

    def test_a_built_table_is_complete_by_its_codes_alone(self):
        # only the simulator marks a table complete; a built table with an
        # interval window is not fully observed, so masking and NetRate refuse it
        with pytest.raises(TypeError):
            CascadeTable(5, [[-1, 0]], [[0, 3]], [[False, False]], complete=True)
        table = CascadeTable(5, [[-1, 0]], [[0, 3]], [[False, False]])
        assert not table.complete and not table.is_fully_observed()
        with pytest.raises(DatasetError, match="^cascade is not fully observed$"):
            apply_mask(table, MaskSpec())
        with pytest.raises(DatasetError, match="^method requires completely observed cascades$"):
            netrate_fit(table, chain_net(2))
        exact = CascadeTable(5, [[-1, 2]], [[0, 3]], [[False, False]])
        assert not exact.complete and exact.is_fully_observed()
        assert apply_mask(exact, MaskSpec()).codes.tolist() == exact.codes.tolist()

    def test_windows_are_checked_once_at_construction(self):
        # a table checks its windows as it is built, complete rows of times too
        in_range = r"^observation windows must lie in \[-1, 5\]$"
        with pytest.raises(DatasetError, match=in_range):
            CascadeTable(5, [[-1, 3]], [[0, 7]], [[False, False]])
        for t in (-1, 6):
            with pytest.raises(DatasetError, match=in_range):
                cascade(5, [0, t])
        # (2, 2] is empty: its code would read as hidden
        for lo, hi in ((2, 2), (3, 1)):
            with pytest.raises(DatasetError, match=r"^an observed window \(lo, hi\] must have lo < hi$"):
                CascadeTable(5, [[-1, lo]], [[0, hi]], [[False, False]])
        # a hidden cell's bounds are not read; it decodes as (-1, -1]
        table = CascadeTable(5, [[-1, 9]], [[0, 2]], [[False, True]])
        assert table.codes.tolist() == [[1, 0]] and table.codes.dtype == np.int8
        assert (table.lo.tolist(), table.hi.tolist(), table.hidden.tolist()) == ([[-1, -1]], [[0, -1]], [[False, True]])
        for name in ("lo", "hi", "hidden", "codes"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(table, name)[0, 0] = 1

    def test_compact_path_never_decodes_a_table(self, rng, monkeypatch):
        # simulation, masking, reading, writing, summarizing and fitting read
        # and write the codes alone: no int64 bounds of a table, of a block
        # of one or of a one-row table
        for name in ("lo", "hi", "hidden"):
            monkeypatch.setattr(CascadeTable, name, property(lambda data, name=name: pytest.fail(f"{name} decoded")))
        net = random_loopy_net(8, 6, rng)
        alpha = random_couplings(net, rng, 0.1, 0.9)
        mask = MaskSpec(frozenset({5}), (2, 4, 6))
        data = generate_dataset(net, alpha, 200, [0, 1], 6, seed=3)
        observed = apply_mask(data, mask)
        back = read_cascades(net, write_cascades(net, observed))
        dmprec_fit(back, net, FitConfig(max_iters=2))
        free_energy_gradient(back, net, alpha)
        gradient.summarize_dataset(back)
        full = read_cascades(net, write_cascades(net, data))
        assert full.is_fully_observed() and not back.is_fully_observed()
        assert np.array_equal(apply_mask(full, mask).codes, back.codes)
        assert np.array_equal(back.codes, observed.codes)
        # two tables compare and stack by their codes
        assert back == observed and back != full and data != full and back != back[1:]
        both = back + observed
        assert both == observed + back and both != full + back and not both.complete
        assert np.array_equal(both.codes, np.concatenate((back.codes, back.codes)))
        assert (data + data).complete and not (data + full).complete
        # the row path: one-row tables of a table are views of its codes, and
        # masking them, writing and summarizing the list work on the codes too
        rows = [apply_mask(c, mask) for c in data]
        text = write_cascades(net, rows)
        assert text == write_cascades(net, observed)
        gradient.summarize_dataset(rows)
        assert rows == list(observed)


class TestWorkerRowSequences:
    """The two sequences of one-row tables that ``bench/worker.py`` runs, on
    a small dataset, so that a change that breaks the benchmark's worker
    fails the tests too."""

    @pytest.fixture
    def hub(self, rng):
        net = random_loopy_net(12, 10, rng)
        return net, random_couplings(net, rng, 0.1, 0.7), MaskSpec(frozenset({4, 9}), (2, 4, 6))

    def test_library_path(self, hub):
        # a list grown by tables, masked a row at a time, written, read back
        net, alpha, mask = hub
        data = []
        for source, count, seed in ((0, 30, 11), (5, 20, 12)):
            data += generate_dataset(net, alpha, count, [source], 6, seed)
        observed = [apply_mask(c, mask) for c in data]
        text = write_cascades(net, observed)
        got = read_cascades(net, text)
        assert len(got) == len(observed) == 50
        assert all(a == b for a, b in zip(got, observed))
        whole = generate_dataset(net, alpha, 30, [0], 6, 11) + generate_dataset(net, alpha, 20, [5], 6, 12)
        assert text == write_cascades(net, apply_mask(whole, mask))

    def test_cli_path(self, hub, tmp_path):
        # the simulated file read back, each row marked complete and masked,
        # against the file that the mask subcommand writes
        import contextlib
        import io

        from cascade_recon import cli

        net, alpha, mask = hub
        (tmp_path / "net.edges").write_text(serialize_edge_list(net, alpha))
        hidden = ",".join(net.labels[i] for i in sorted(mask.hidden_nodes))
        for argv in (["simulate", "--horizon", 6, "--num-cascades", 40, "--seed", 3, "--sources", "random",
                      "--out", tmp_path / "simulated.txt"],
                     ["mask", "--cascades", tmp_path / "simulated.txt", "--hidden", hidden, "--snapshots", "2,4,6",
                      "--out", tmp_path / "observed.txt"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([str(a) for a in [*argv, "--network", tmp_path / "net.edges"]]) == 0
        full = read_cascades(net, (tmp_path / "simulated.txt").read_text())
        expected = [apply_mask(obs.to_cascade(), mask) for obs in full]
        got = read_cascades(net, (tmp_path / "observed.txt").read_text())
        assert len(got) == len(expected) == 40
        assert all(a == b for a, b in zip(got, expected))
        # to_cascade marks exact windows complete and refuses any other
        assert full[0].to_cascade() == generate_dataset(net, alpha, 40, "random", 6, 3)[0]
        with pytest.raises(DatasetError, match="^cascade is not fully observed$"):
            got[0].to_cascade()


class TestWindowCodes:
    """The code helpers, on both sides of the int8/int16/int32 switches."""

    @pytest.mark.parametrize("T, dtype", [(1, np.int8), (9, np.int8), (10, np.int16), (179, np.int16), (180, np.int32)])
    def test_codes_round_trip_and_order_as_the_pairs(self, T, dtype):
        lo, hi = (a.ravel() for a in np.meshgrid(np.arange(-1, T + 1), np.arange(-1, T + 1), indexing="ij"))
        lo, hi = lo[lo < hi], hi[lo < hi]                    # every valid window, in the order of the pairs
        codes = cascades._window_codes(lo, hi, T)
        assert codes.dtype == np.int64 and (np.diff(codes) > 0).all()
        assert (codes[0], lo[0], hi[0]) == (1, -1, 0)       # code 1 is (-1, 0]
        assert cascades._code_dtype(T) is dtype and codes.max() < cascades._code_count(T) <= np.iinfo(dtype).max
        for stored in (codes, codes.astype(dtype)):
            back_lo, back_hi = cascades._window_bounds(stored, T)
            assert back_lo.dtype == back_hi.dtype == np.int64
            np.testing.assert_array_equal(back_lo, lo)
            np.testing.assert_array_equal(back_hi, hi)
        exact = hi - lo == 1
        all_codes = np.arange(cascades._code_count(T))
        np.testing.assert_array_equal(codes[exact], all_codes[(all_codes % (T + 3) == 1)])
        np.testing.assert_array_equal(cascades._exact_codes(hi[exact], T), codes[exact])
        np.testing.assert_array_equal(cascades._is_exact(codes, T), exact)
        source = (lo == -1) & (hi == 0)
        np.testing.assert_array_equal(cascades._is_source(codes), source)
        np.testing.assert_array_equal(cascades._is_visible_non_source(codes), ~source)
        assert not cascades._is_exact(np.zeros(1, dtype=dtype), T).any()      # code 0: hidden
        assert not cascades._is_source(np.zeros(1, dtype=dtype)).any()
        assert not cascades._is_visible_non_source(np.zeros(1, dtype=dtype)).any()

    @pytest.mark.parametrize("T", [1, 9, 10, 179, 180])
    def test_invalid_windows_keep_their_errors(self, T):
        in_range = rf"^observation windows must lie in \[-1, {T}\]$"
        ordered = r"^an observed window \(lo, hi\] must have lo < hi$"
        cases = [((-2, 0), in_range), ((0, T + 1), in_range), ((T + 1, 0), in_range), ((0, -2), in_range),
                 ((-3, T + 5), in_range), ((0, 0), ordered), ((T, T - 1), ordered), ((T, -1), ordered)]
        for (lo, hi), message in cases:
            assert cascades._window_codes(np.array([lo]), np.array([hi]), T)[0] < 0
            with pytest.raises(DatasetError, match=message):
                CascadeTable(T, [[-1, lo]], [[0, hi]], [[False, False]])
        # the range comes first, whatever the order of the windows
        with pytest.raises(DatasetError, match=in_range):
            CascadeTable(T, [[0, -2]], [[0, 0]], [[False, False]])
        for t in (-1, T + 1):
            with pytest.raises(DatasetError, match=in_range):
                cascades._table([cascade(T, [0, t])])


class TestCodeDtypes:
    """The window codes take int8 up to T = 9, int16 up to T = 179 and
    int32 beyond.  On each side of both switches, on 300 nodes, so that
    the writer's (window, node) pairs and the summaries' (set, node,
    window) keys outgrow the codes' dtype, every pass gives what the int64
    references give."""

    @pytest.mark.parametrize("T, dtype", [(9, np.int8), (10, np.int16), (179, np.int16), (180, np.int32)])
    def test_passes_match_the_int64_references(self, T, dtype):
        rng = np.random.default_rng(T)
        net = random_loopy_net(300, 60, rng)
        alpha = random_couplings(net, rng, 0.005, 0.2)
        data = generate_dataset(net, alpha, 24, [3, 100], T, seed=T) + generate_dataset(net, alpha, 24, [7], T, seed=1)
        snapshots = tuple(sorted({T, T - 1, *rng.choice(T, 4, replace=False).tolist()}))
        mask = MaskSpec(frozenset(range(250, 300)), snapshots)
        observed = apply_mask(data, mask)
        assert data.codes.dtype == observed.codes.dtype == dtype
        assert observed.hi.max() == T and ((observed.hi - observed.lo)[~observed.hidden] > 1).any()
        for obs, c in zip(observed, data):
            _assert_identical(obs, _reference_apply_mask(c, mask))
        windows = _random_windows(rng, 40, net.n_nodes, T)
        for table in (data, observed, windows):
            text = write_cascades(net, table)
            assert text == _reference_write_cascades(net, table)
            back = read_cascades(net, text)
            assert back.codes.dtype == dtype
            for got, want in zip(back, _reference_read_cascades(net, text)):
                _assert_identical(got, want)
        rows = list(observed)
        got = gradient.summarize_dataset(observed)
        want = reference_summaries(rows)
        assert len(got) == len(want) == 2
        for summ, (sources, nodes, lo, hi, counts) in zip(got, want):
            assert summ.sources == [sources]
            for x, y in ((summ.nodes, nodes), (summ.lo, lo), (summ.hi, hi), (summ.counts, counts)):
                assert x.dtype == y.dtype
                np.testing.assert_array_equal(x, y)


class TestNetworkWidth:
    """Every pass over a dataset checks that its rows are as wide as the
    network and as one another before it reads them."""

    CALLS = {
        "dmprec_fit": lambda data, net, alpha: dmprec_fit(data, net, FitConfig(max_iters=1)),
        "observed_negative_log_likelihood": lambda data, net, alpha: observed_negative_log_likelihood(data, net, alpha),
        "free_energy_gradient": lambda data, net, alpha: free_energy_gradient(data, net, alpha),
        "write_cascades": lambda data, net, alpha: write_cascades(net, data),
        "hts_fit": lambda data, net, alpha: hts_fit(data, net, HtsConfig(aux_samples=2, outer_rounds=1)),
        "netrate_fit": lambda data, net, alpha: netrate_fit(data, net),
    }

    @pytest.mark.parametrize("as_rows", [False, True])
    @pytest.mark.parametrize("width", [3, 7])
    @pytest.mark.parametrize("call", CALLS)
    def test_dataset_of_another_width(self, call, width, as_rows):
        data = generate_dataset(chain_net(width), np.full(width - 1, 0.5), 4, [0], 5, seed=1)
        with pytest.raises(DatasetError, match="^dataset does not match the network$"):
            self.CALLS[call](list(data) if as_rows else data, chain_net(5), np.full(4, 0.5))

    @pytest.mark.parametrize("later_block", [False, True])
    @pytest.mark.parametrize("call", CALLS)
    def test_rows_of_unequal_width(self, call, later_block, monkeypatch):
        net = chain_net(5)
        wide = generate_dataset(net, np.full(4, 0.5), 1, [0], 5, seed=1)[0]
        if later_block:
            # walks over blocks of two 5-node rows would see a first block of
            # full rows, then a block of narrow ones, each of one width
            monkeypatch.setattr(cascades, "_BLOCK_CELLS", 10)
            rows, widths = [wide] * 2 + [cascade(5, [0])] * 3, "[1, 5]"
        else:
            rows, widths = [wide, cascade(5, [0]), cascade(5, [0, 1])], "[1, 2, 5]"
        with pytest.raises(DatasetError, match=f"^{re.escape(f'cascades with mismatched node counts: {widths}')}$"):
            self.CALLS[call](rows, net, np.full(4, 0.5))

    def test_table_of_unequal_rows(self):
        rows = [cascade(5, [0, 1]), cascade(5, [0]), apply_mask(cascade(5, [0, 1, 2]), MaskSpec())]
        with pytest.raises(DatasetError, match=r"^cascades with mismatched node counts: \[1, 2, 3\]$"):
            cascades._table([*generate_dataset(chain_net(2), [0.5], 1, [0], 5, seed=1), *rows])


class TestTableOrRows:
    """Every entry point that takes a dataset gives the same bytes for a
    table and for the list of its rows, whatever the block size of the
    walks over the table; ``TestWriterMatchesReference`` covers the writer."""

    CALLS = {
        **{name: call for name, call in TestNetworkWidth.CALLS.items() if name != "write_cascades"},
        "apply_mask": lambda data, net, alpha: apply_mask(data, MaskSpec(frozenset({4}), (2, 5))),
        "summarize_dataset": lambda data, net, alpha: gradient.summarize_dataset(data),
    }
    # the entry points that take complete cascades; the others take them masked
    COMPLETE = ("netrate_fit", "apply_mask")

    @staticmethod
    def _bytes(result):
        """The outputs of an entry point as bytes: couplings, value,
        gradient, summaries or the codes of a table."""
        if isinstance(result, CascadeTable):
            return (result.horizon, result.complete, result.codes.dtype.str, result.codes.tobytes())
        if isinstance(result, np.ndarray):
            return (result.dtype.str, result.tobytes())
        if isinstance(result, float):
            return np.float64(result).tobytes()
        if isinstance(result, gradient.Summaries):
            return [(summ.sources, *(TestTableOrRows._bytes(getattr(summ, name))
                     for name in ("nodes", "lo", "hi", "counts"))) for summ in result]
        if hasattr(result, "couplings_hat"):
            return (TestTableOrRows._bytes(result.couplings_hat), np.array(result.free_energy_trajectory).tobytes(),
                    result.iterations, result.converged)
        return (TestTableOrRows._bytes(result.value), TestTableOrRows._bytes(result.gradient))

    @pytest.mark.parametrize("call", CALLS)
    def test_same_bytes_for_a_table_and_its_rows(self, call, rng, monkeypatch):
        net = random_loopy_net(9, 6, rng)
        alpha = random_couplings(net, rng, 0.1, 0.8)
        data = generate_dataset(net, alpha, 60, [0], 7, seed=2) + generate_dataset(net, alpha, 50, [1, 3], 7, seed=3)
        if call not in self.COMPLETE:
            data = apply_mask(data, MaskSpec(frozenset({4, 8}), (1, 3, 5, 7)))
        want = self._bytes(self.CALLS[call](data, net, alpha))
        for rows in (None, 1, 4):
            if rows is not None:
                monkeypatch.setattr(cascades, "_BLOCK_CELLS", rows * net.n_nodes)
            for dataset in (data, list(data)):
                assert self._bytes(self.CALLS[call](dataset, net, alpha)) == want


class TestMasking:
    def test_full_time_hidden_node(self, chain3):
        c = cascade(5, [0, 1, 2])
        obs = apply_mask(c, MaskSpec(frozenset({1}), None))
        assert _window(obs, 0) == (-1, 0)
        assert _window(obs, 1) is None
        assert _window(obs, 2) == (1, 2)

    def test_snapshot_interval(self):
        net = chain_net(2)
        c = cascade(10, [0, 3])
        obs = apply_mask(c, MaskSpec(frozenset(), (2, 4, 6, 8, 10)))
        assert _window(obs, 1) == (2, 4)

    def test_censored_at_horizon_all_snapshots(self):
        c = cascade(10, [0, 10])
        obs = apply_mask(c, MaskSpec(frozenset(), None))
        assert _window(obs, 1) == (9, 10)

    def test_activation_after_last_snapshot(self):
        c = cascade(10, [0, 9])
        obs = apply_mask(c, MaskSpec(frozenset(), (2, 4)))
        assert _window(obs, 1) == (4, 10)

    def test_censored_with_sparse_snapshots_including_T(self):
        c = cascade(10, [0, 10])
        obs = apply_mask(c, MaskSpec(frozenset(), (4, 10)))
        assert _window(obs, 1) == (9, 10)

    def test_first_active_at_horizon_snapshot_caps_at_Tminus1(self):
        c = cascade(10, [0, 7])
        obs = apply_mask(c, MaskSpec(frozenset(), (4, 10)))
        assert _window(obs, 1) == (4, 9)

    def test_pre_first_snapshot_activation(self):
        c = cascade(10, [0, 2])
        obs = apply_mask(c, MaskSpec(frozenset(), (4, 8)))
        assert _window(obs, 1) == (0, 4)

    def test_adjacent_snapshots_pin_exact(self):
        c = cascade(10, [0, 4])
        obs = apply_mask(c, MaskSpec(frozenset(), (3, 4, 8)))
        assert _window(obs, 1) == (3, 4)

    def test_exact_equals_unit_interval(self):
        c = cascade(10, [0, 4])
        full = apply_mask(c, MaskSpec(frozenset(), None))
        assert full.hi[0, 1] - full.lo[0, 1] == 1

    def test_matches_per_node_reference(self, rng):
        for net, cascades, mask in random_masked_cases(rng):
            for c in cascades:
                _assert_identical(apply_mask(c, mask), _reference_apply_mask(c, mask))

    def test_every_horizon_and_snapshot_set_as_the_reference(self, rng):
        for T in range(1, 13):
            c = cascade(T, np.arange(T + 1))  # every recorded time
            random_sets = [tuple(np.flatnonzero(rng.random(T + 1) < 0.4).tolist()) for _ in range(8)]
            for snapshots in [None, (), (0,), (T - 1,), (T,), (T - 1, T), *random_sets]:
                mask = MaskSpec(frozenset({T}), snapshots)
                _assert_identical(apply_mask(c, mask), _reference_apply_mask(c, mask))

    def test_every_horizon_refuses_times_beyond_either_end(self):
        for T in range(1, 13):
            for t in (-2, -1, T + 1):
                with pytest.raises(DatasetError, match=rf"^observation windows must lie in \[-1, {T}\]$"):
                    apply_mask(cascade(T, [0, t]), MaskSpec())

    def test_times_outside_the_horizon_as_the_reference(self):
        # the reference loop read such times as their nearest time in [0, T];
        # a table of such times now refuses them when it is built, with the
        # message of any table
        with pytest.raises(DatasetError, match=r"^observation windows must lie in \[-1, 5\]$"):
            apply_mask(cascade(5, [0, 99, -3]), MaskSpec())
        with pytest.raises(DatasetError, match=r"^observation windows must lie in \[-1, 4\]$"):
            apply_mask(cascade(4, [0, -3, -1, 4, 9, 2]), MaskSpec(frozenset({5}), (1, 4)))

    def test_negative_hidden_count_rejected(self, chain3):
        with pytest.raises(DatasetError, match=r"^cannot hide -1 of 3 eligible nodes$"):
            resolve_mask(-1, "all", chain3, mask_seed=1)


class TestGrouping:
    def test_single_group(self, chain3, rng):
        data = list(apply_mask(generate_dataset(chain3, [0.5, 0.5], 100, [0], 5, seed=0), MaskSpec()))
        keys, group_of = _source_groups(data)
        assert keys == [(0,)]
        np.testing.assert_array_equal(group_of, np.zeros(100))

    def test_partition_property(self, rng):
        net = random_loopy_net(10, 8, rng)
        alpha = random_couplings(net, rng)
        data = list(apply_mask(generate_dataset(net, alpha, 300, "random", 5, seed=1), MaskSpec()))
        keys, group_of = _source_groups(data)
        assert len(keys) <= net.n_nodes
        assert group_of.shape == (300,)
        assert np.bincount(group_of, minlength=len(keys)).min() >= 1

    def test_hidden_source_rejected(self, chain3):
        c = generate_dataset(chain3, [1.0, 1.0], 1, [0], 5, seed=0)[0]
        obs = apply_mask(c, MaskSpec(frozenset({0}), None))
        with pytest.raises(DatasetError, match="source"):
            _source_groups([obs])

    def test_first_sourceless_cascade_named(self, chain3):
        from cascade_recon.gradient import summarize_dataset

        c = generate_dataset(chain3, [1.0, 1.0], 1, [0], 5, seed=0)[0]
        seen, unseen = apply_mask(c, MaskSpec(frozenset(), None)), apply_mask(c, MaskSpec(frozenset({0}), None))
        data = [seen] * 9000 + [unseen, seen, unseen]
        for group in (_source_groups, summarize_dataset):
            with pytest.raises(DatasetError, match="^cascade 9000 has no observed source; cannot fit$"):
                group(data)

    def test_groups_keep_dataset_order(self, rng):
        net = random_loopy_net(9, 5, rng)
        alpha = random_couplings(net, rng)
        data = list(apply_mask(generate_dataset(net, alpha, 2000, "random", 5, seed=4), MaskSpec()))
        keys, group_of = _source_groups(data)
        assert keys == sorted({tuple(obs.sources.tolist()) for obs in data})
        assert [keys[g] for g in group_of.tolist()] == [tuple(obs.sources.tolist()) for obs in data]


class TestFiles:
    def test_roundtrip_ground_truth(self, rng):
        net = random_loopy_net(7, 6, rng)
        alpha = random_couplings(net, rng)
        data = generate_dataset(net, alpha, 40, "random", 6, seed=8)
        text = write_cascades(net, data)
        back = read_cascades(net, text)
        assert all(a == apply_mask(c, MaskSpec()) for a, c in zip(back, data))
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

    def test_roundtrip_random_cases_byte_identical(self, rng):
        for net, cascades, mask in random_masked_cases(rng):
            observed = [apply_mask(c, mask) for c in cascades]
            for data in (cascades, observed):
                text = write_cascades(net, data)
                back = read_cascades(net, text)
                assert write_cascades(net, back) == text
            for a, b in zip(back, observed):
                _assert_identical(a, b)

    def test_all_hidden_cascade_roundtrip(self, chain3):
        observed = [
            apply_mask(cascade(5, [0, 1, 2]), MaskSpec(frozenset(), None)),
            apply_mask(cascade(5, [0, 1, 2]), MaskSpec(frozenset({0, 1, 2}), None)),
        ]
        text = write_cascades(chain3, observed)
        assert text.splitlines()[2] == "1\t"
        back = read_cascades(chain3, text)
        assert back[1].hidden.all()
        assert list(back) == observed
        assert write_cascades(chain3, back) == text

    def test_window_outside_the_horizon_rejected(self, chain3):
        with pytest.raises(DatasetError, match=r"windows must lie in \[-1, 5\]"):
            write_cascades(chain3, [CascadeTable(5, [[-1, 3, -1]], [[0, 7, -1]], [[False, False, True]])])

    def test_mixed_horizons_rejected(self, chain3):
        data = [cascade(5, [0, 1, 2]), cascade(6, [0, 1, 2])]
        with pytest.raises(DatasetError, match="mismatched horizons"):
            write_cascades(chain3, data)
        with pytest.raises(DatasetError, match="^empty dataset$"):
            write_cascades(chain3, [])

    def test_write_peaks_near_the_text(self):
        # a long horizon, with nearly every (node, window) pair of a block
        # distinct: no cache sized N * (T + 2)**2 fits under the bound
        import tracemalloc

        net = random_loopy_net(50, 20, np.random.default_rng(4))
        data = _random_windows(np.random.default_rng(5), 4000, 50, 400)
        tracemalloc.start()
        try:
            text = write_cascades(net, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == _reference_write_cascades(net, data)
        assert peak <= 4 * len(text)

    def test_every_label_the_writer_accepts_reads_back(self, rng):
        # labels drawn with the characters that the reader cuts, strips or
        # splits lines at; a network with a label that would not read back
        # is refused, and the first such label named
        plain, special = list("ab])+#0\0é \t"), list(",:(\r\n\x0b\x1c\x85\u2028\u3000")

        def draw(chars):
            # by index: rng.choice would make "\0" an empty numpy string
            return chars[int(rng.integers(len(chars)))]

        accepted = refused = 0
        for _ in range(300):
            labels = {"".join(draw(special) if rng.random() < 0.1 else draw(plain)
                              for _ in range(int(rng.integers(0, 4)))) for _ in range(3)}
            net = Network(labels, [])
            data = _random_windows(rng, 8, net.n_nodes, 4)
            try:
                text = write_cascades(net, data)
            except DatasetError as exc:
                assert re.match(r"node label (.*) cannot be written", str(exc))[1] in map(repr, net.labels)
                refused += 1
                continue
            _assert_identical(read_cascades(net, text), data)
            accepted += 1
        assert accepted >= 50 and refused >= 50
        net = Network(["h", "a,b", "d:e", "f(g"], [("h", "a,b"), ("a,b", "d:e"), ("d:e", "f(g")])
        with pytest.raises(DatasetError, match="^node label 'a,b' cannot be written"):
            write_cascades(net, generate_dataset(net, np.full(3, 0.5), 5, [0], 4, seed=1))

    def test_mask_spec_parsing(self):
        # the fields of a mask description, as the CLI reads them from a
        # mask file or flags; a random count never draws an excluded node
        net, _ = parse_edge_list("0\t1\n1\t2\n")
        spec = resolve_mask(1, [4, 2, 4], net, mask_seed=7, exclude=[0])
        assert len(spec.hidden_nodes) == 1 and 0 not in spec.hidden_nodes
        assert spec.snapshot_times == (2, 4)
        assert resolve_mask(2, "all", net, mask_seed=7, exclude=[0]).hidden_nodes == frozenset({1, 2})
        spec2 = resolve_mask(["0", "2"], "all", net)
        assert spec2.hidden_nodes == frozenset({0, 2})
        assert spec2.snapshot_times is None


class TestWriterMatchesReference:
    """``write_cascades`` against the writer it replaced: the same text
    from complete and observed tables and from lists of their rows, with
    the default block size and with blocks of a row or a few."""

    @staticmethod
    def _assert_same(net, datasets, monkeypatch):
        for block in (cascades._BLOCK_CELLS, 24, 1):
            monkeypatch.setattr(cascades, "_BLOCK_CELLS", block)
            for data in datasets:
                for rows in (data, list(data)):
                    assert write_cascades(net, rows) == _reference_write_cascades(net, rows)

    def test_random_cases(self, rng, monkeypatch):
        for net, data, mask in random_masked_cases(rng):
            self._assert_same(net, [data, apply_mask(data, mask)], monkeypatch)

    def test_all_hidden_lines_and_labels_with_brackets_commas_and_other_scripts(self, rng, monkeypatch):
        # labels with '(' or ',' would not read back, and the writer refuses them
        net = Network(["a(b", "c,d", "e"], [("a(b", "c,d"), ("c,d", "e")])
        with pytest.raises(DatasetError, match="^node label 'a\\(b' cannot be written"):
            write_cascades(net, generate_dataset(net, np.full(2, 0.5), 5, [0], 3, seed=1))
        labels = ["a)b", "c[d", "e]f", "é中", "ñ"]
        net = Network(labels, [("a)b", "c[d"), ("c[d", "e]f"), ("e]f", "é中"), ("é中", "ñ"), ("ñ", "a)b")])
        for T in (1, 2, 10):
            data = generate_dataset(net, rng.uniform(0.2, 0.9, net.n_edges), 40, "random", T, seed=T)
            masks = [MaskSpec(), MaskSpec(frozenset(range(5)), None), MaskSpec(frozenset({1, 3}), (T,))]
            observed = [apply_mask(data, mask) for mask in masks]
            every_other = [row for pair in zip(*observed[:2]) for row in pair]
            self._assert_same(net, [data, *observed, every_other, _random_windows(rng, 30, 5, T)], monkeypatch)


class TestParseErrors:
    """Each error of the cascade reader, with the line it names, through
    both of its entries: ``read_cascades`` of a string, and a file streamed
    into the summaries as ``cascade-recon fit`` streams it."""

    @staticmethod
    def _error(net, text, tmp_path):
        """The message of the error that ``text`` raises, the same through both entries."""
        messages = []
        for read in (read_cascades, lambda net, text: _streamed_summaries(net, text, tmp_path)):
            with pytest.raises(ParseError) as exc:
                read(net, text)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        return messages[0]

    @pytest.mark.parametrize("text, message", [
        ("0\t0:0\n", "cascade file must start with a 'T=<int>' line"),
        ("\n\n", "cascade file must start with a 'T=<int>' line"),
        ("T=x\n0\t0:0\n", "bad horizon line 'T=x'"),
        ("T=0\n0\t0:0\n", "horizon must be >= 1"),
        ("T=5\n0 0:0,1:1\n", "line 2: expected '<id>\\t<tokens>'"),
        ("T=5\n0\t0:0,1\n", "line 2: bad token '1'"),
        ("T=5\n0\t0:0,9:1\n", "line 2: unknown node '9'"),
        ("T=5\n0\t0:0,1:1,0:2\n", "line 2: node '0' listed twice"),
        ("T=5\n0\t0:0,1:(1,2\n", "line 2: bad interval token '1:(1,2'"),
        ("T=5\n0\t0:0,1:(1]\n", "line 2: bad interval token '1:(1]'"),
        ("T=5\n0\t0:0,1:4+\n", "line 2: censor token must use horizon 5"),
        ("T=5\n0\t0:0,1:5\n", "line 2: exact time 5 outside [0, 5)"),
        ("T=5\n0\t0:0,1:-1\n", "line 2: exact time -1 outside [0, 5)"),
        ("T=5\n0\t0:0,1:(3,2]\n", "line 2: interval bounds must satisfy -1 <= lo < hi <= T"),
        ("T=5\n0\t0:0,1:(1,6]\n", "line 2: interval bounds must satisfy -1 <= lo < hi <= T"),
        ("T=5\n0\t0:0,1:(-2,1]\n", "line 2: interval bounds must satisfy -1 <= lo < hi <= T"),
        # bounds beyond int64 are outside [-1, T] too
        ("T=5\n0\t0:0,1:(1,99999999999999999999]\n", "line 2: interval bounds must satisfy -1 <= lo < hi <= T"),
        ("T=5\n0\t0:0,1:(-99999999999999999999,2]\n", "line 2: interval bounds must satisfy -1 <= lo < hi <= T"),
        ("T=5\n# nothing\n\n", "cascade file contains no cascades"),
        ("T=5\n", "cascade file contains no cascades"),
    ])
    def test_message(self, chain3, text, message, tmp_path):
        assert self._error(chain3, text, tmp_path) == message

    @pytest.mark.parametrize("token", ["1:x", "1:(1,b]", "1:x+", "1:(a,2]", "1:"])
    def test_non_integer_time(self, chain3, token, tmp_path):
        assert self._error(chain3, f"T=5\n0\t0:0,{token}\n", tmp_path) == f"line 2: non-integer time in token '{token}'"

    def test_first_bad_token_of_a_line_wins(self, chain3, tmp_path):
        # an out-of-bounds window is reported only after the line's tokens
        assert self._error(chain3, "T=5\n0\t1:(3,2],9:1,2:x\n", tmp_path) == "line 2: unknown node '9'"
        assert self._error(chain3, "T=5\n0\t1:1,1:x\n", tmp_path) == "line 2: node '1' listed twice"

    def test_first_bad_line_wins(self, chain3, tmp_path):
        text = "T=5\n0\t0:0\n1\t0:0,1:(3,2]\n2\t0:0,9:1\n"
        assert self._error(chain3, text, tmp_path).startswith("line 3: interval bounds")

    def test_line_numbers_past_the_first_batch(self, chain3, tmp_path):
        good = "\n".join(f"{k}\t0:0,1:{1 + k % 3},2:5+" for k in range(1500))
        text = f"\n\nT=5\n# header\n{good}\n\n# a comment\n   \n1500\t0:0,1:(1,2],2:9\n1501\t0:0\n"
        assert self._error(chain3, text, tmp_path) == "line 1508: exact time 9 outside [0, 5)"
        assert self._error(chain3, text.replace("1500\t", "1500 "), tmp_path).startswith("line 1508: expected")

    def test_whitespace_around_tokens_and_numbers(self, chain3):
        text = "T=5\n  0\t 0:0 , 1:( 1 , 3 ] ,2:5+ ,\n1\t,0:0,,2: 4\t\n"
        back = read_cascades(chain3, text)
        assert _window(back[0], 1) == (1, 3)
        assert _window(back[0], 2) == (4, 5)
        assert back[1].hidden.tolist() == [[False, True, False]]
        assert _window(back[1], 2) == (3, 4)


    def test_errors_past_the_first_block(self, chain3, tmp_path):
        # about three blocks of lines; the first bad line wins across blocks,
        # a node listed twice against a bad token or a line without a tab
        line = "{}\t0:0,1:1,2:5+"
        n = 3 * cascades._READ_BLOCK_CHARS // len(line.format(0))
        lines = ["T=5", *(line.format(k) for k in range(n))]
        twice, bad = n // 2, 5 * n // 6
        n_blocks = [len(list(cascades._line_blocks("\n".join(lines[: k + 1])))) for k in (twice, bad)]
        assert 1 < n_blocks[0] < n_blocks[1]

        def read(edits):
            return self._error(chain3, "\n".join(edits.get(k, ln) for k, ln in enumerate(lines)) + "\n", tmp_path)

        assert read({bad: f"{bad}\t0:0,1:7"}) == f"line {bad + 1}: exact time 7 outside [0, 5)"
        assert read({bad: f"{bad} 0:0"}) == f"line {bad + 1}: expected '<id>\\t<tokens>'"
        for other in (f"{bad}\t0:0,1:7", f"{bad} 0:0"):
            assert read({twice: f"{twice}\t0:0,1:1,0:2", bad: other}) == f"line {twice + 1}: node '0' listed twice"


@pytest.fixture(scope="module")
def many_tokens():
    """A 3 000-node network and a text of 300 lines, each listing a third
    of the nodes in random order, each node with one of four windows of
    its own: about 12 000 distinct tokens of 7 to 22 bytes, some of whose
    labels hold NUL bytes."""
    rng = np.random.default_rng(3000)
    T = 10
    labels = ([f"n{k:04d}" for k in range(2000)] + [f"long-label-{k:04d}" for k in range(980)]
              + [f"z\0{k}" + "\0" * (k % 9) for k in range(20)])
    t = rng.integers(0, T, len(labels)).tolist()
    lo = rng.integers(-1, T - 1, (len(labels), 2))
    hi = (lo + 1 + rng.integers(0, T - 1 - lo)).tolist()
    lo = lo.tolist()
    specs = [[f"{t[v]}", f"{T}+", f"({lo[v][0]},{hi[v][0]}]", f"({lo[v][1]},{hi[v][1]}]"] for v in range(len(labels))]
    lines = [f"T={T}"]
    for r in range(300):
        nodes = rng.choice(len(labels), len(labels) // 3, replace=False).tolist()
        pick = rng.integers(0, 4, len(nodes)).tolist()
        lines.append(f"{r}\t" + ",".join(f"{labels[v]}:{specs[v][p]}" for v, p in zip(nodes, pick)))
    return Network(labels, []), "\n".join(lines) + "\n"


class TestReaderMatchesReference:
    """``read_cascades`` against the regex reader it replaced: the same
    arrays, dtypes included, or the same ``ParseError`` message, with the
    default block size and with blocks of a line or a few."""

    @staticmethod
    def _outcome(read, net, text):
        try:
            got = read(net, text)
        except ParseError as exc:
            return str(exc)
        return [(obs.horizon, *((a.dtype, a.tolist()) for a in (obs.lo, obs.hi, obs.hidden))) for obs in got]

    def _assert_same(self, net, texts, monkeypatch, tmp_path):
        """The reference's outcome from a string and from a file opened as
        ``Path.read_text`` opens it, a stream of blocks."""
        path = tmp_path / "cascades.txt"

        def read_file(net, text):
            path.write_text(text, encoding="utf-8", newline="")
            with open(path, encoding="utf-8") as fh:
                return read_cascades(net, fh)

        for block in (cascades._READ_BLOCK_CHARS, 24, 1):
            monkeypatch.setattr(cascades, "_READ_BLOCK_CHARS", block)
            for text in texts:
                want = self._outcome(_reference_read_cascades, net, text)
                assert self._outcome(read_cascades, net, text) == want, (block, text)
                assert self._outcome(read_file, net, text) == want, (block, text)

    @staticmethod
    def _text(rng, lines, header=("T=5",) * 6 + ("T=2", " \nT=3", "", "T=x")):
        ends = ["\n"] * 6 + ["\r\n", ""]
        return rng.choice(header) + "\n" + "\n".join(lines) + rng.choice(ends)

    def test_random_texts(self, chain3, rng, monkeypatch, tmp_path):
        alphabet = list("012:(],+-x \t")
        texts = []
        for _ in range(300):
            lines = []
            for _ in range(int(rng.integers(0, 5))):
                body = "".join(rng.choice(alphabet, size=int(rng.integers(0, 24))))
                lines.append((f"{int(rng.integers(0, 9))}\t" if rng.random() < 0.8 else "") + body)
            texts.append(self._text(rng, lines))
        self._assert_same(chain3, texts, monkeypatch, tmp_path)

    @staticmethod
    def _valid_biased(rng, labels, T=5):
        """Lines of mostly valid tokens, in random order and with random
        whitespace; one token in twenty has a defect."""
        space = ["", "", " ", "\t", "  "]

        def ws():
            return rng.choice(space)

        lines = []
        for k in range(int(rng.integers(1, 6))):
            tokens = []
            for label in rng.permutation(labels)[: int(rng.integers(0, len(labels) + 1))]:
                a = int(rng.integers(-1, T))
                b = int(rng.integers(a + 1, T + 1))
                spec = rng.choice([f"{ws()}{max(a, 0)}", f"{ws()}{T}+", f"({ws()}{a}{ws()},{ws()}{b}{ws()}]"])
                if rng.random() < 0.05:
                    label, spec = rng.choice([(label, ""), (label, f"{T}"), (label, f"{T - 1}+"), (label, f"({b},{a}]"),
                                              (label, f"({a},{b}"), (label, "x"), (rng.choice(labels), spec)])
                    tokens.append(f"{ws()}{label}:{spec}{ws()}")
                tokens.append(f"{ws()}{label}:{spec}{ws()}")
            if rng.random() < 0.3:
                tokens.insert(int(rng.integers(0, len(tokens) + 1)), rng.choice(["", " "]))
            lead = rng.choice([" ", "\t", "\u3000", "\xa0"]) if rng.random() < 0.2 else ""
            lines.append(f"{lead}{k}\t" + ",".join(tokens) + ("," if rng.random() < 0.2 else ""))
            if rng.random() < 0.2:
                lines.append(rng.choice(["# a comment, (with] brackets", "", "   ", "\u3000", " #x\t1:1"]))
        return lines

    def test_valid_biased_texts(self, chain3, rng, monkeypatch, tmp_path):
        texts = [self._text(rng, self._valid_biased(rng, ["0", "1", "2"]), header=["T=5"]) for _ in range(300)]
        self._assert_same(chain3, texts, monkeypatch, tmp_path)

    def test_nul_bytes_and_other_line_breaks(self, chain3, monkeypatch, tmp_path):
        texts = [
            "T=5\n0\t0:0,1:1\n1\t0:0,1:1\0\n",                 # '1:1' and '1:1\0' are different tokens
            "T=5\n0\t0:0,1:(1,2]\0\0,2:(1,2]\n",
            "T=5\r0\t0:0,1:1\r\n1\t0:0\x0b2\t2:4\x0c3\t0:0\x1c4\t0:0,1:9\n",
            "T=5\x85\u20280\t0:0,1:1\u20291\t0:0,\x1f2:3\x1f\n2\t0:0,0:1\n",
            # a NUL in an earlier block: '0:(1,2]', padded to its key's 8 bytes,
            # must not pass for '0:(1,2]\x07' in a later one
            "T=5\n# \0\n0\t0:(1,2],1:(1,3],2:(1,4]\n1\t0:(1,2]\x07\n",
        ]
        self._assert_same(chain3, texts, monkeypatch, tmp_path)

    def test_labels_with_brackets_commas_and_other_scripts(self, rng, monkeypatch, tmp_path):
        labels = ["a(b", "c,d", "e]f", "é中", "ñ"]
        net = Network(labels, [("a(b", "c,d"), ("c,d", "e]f"), ("e]f", "é中"), ("é中", "ñ")])
        texts = [self._text(rng, self._valid_biased(rng, labels), header=["T=5"]) for _ in range(300)]
        self._assert_same(net, texts, monkeypatch, tmp_path)

    def test_vocabulary_past_its_initial_slots(self, many_tokens, monkeypatch):
        # a token of L bytes is keyed by (L + 7) // 8 words; the key table of
        # one word count starts empty, is sized by its first put and grows
        # past that size as more distinct tokens come
        net, text = many_tokens
        distinct = {tok for line in text.splitlines()[1:] for tok in _REFERENCE_TOKEN.findall(line.partition("\t")[2])}
        assert np.bincount([(len(tok.encode()) + 7) // 8 for tok in distinct]).max() > cascades._GROUP_RUNS
        sizes = []
        allocate = cascades._KeyTable._allocate

        def spy(table, n_slots, width):
            sizes.append((width, n_slots))
            allocate(table, n_slots, width)

        monkeypatch.setattr(cascades._KeyTable, "_allocate", spy)
        want = self._outcome(_reference_read_cascades, net, text)
        for block in (cascades._READ_BLOCK_CHARS, 24):
            monkeypatch.setattr(cascades, "_READ_BLOCK_CHARS", block)
            sizes.clear()
            assert self._outcome(read_cascades, net, text) == want
            grown = [[n for w, n in sizes if w == width] for width in {w for w, _n in sizes}]
            assert all(n[0] == 0 for n in grown)
            assert max(len(n) for n in grown) > 2, sizes


class TestStreamedInput:
    """A cascade file streamed into the summaries, as ``cascade-recon fit``
    reads it, gives the summaries and the couplings of the table path byte
    for byte, whatever its line ends and the reader's block size."""

    @pytest.fixture(scope="class")
    def observed(self):
        rng = np.random.default_rng(34)
        net = random_loopy_net(12, 10, rng)
        alpha = random_couplings(net, rng, 0.1, 0.6)
        data = generate_dataset(net, alpha, 400, "random", 8, seed=5, exclude=[3, 7])
        return net, write_cascades(net, apply_mask(data, MaskSpec(frozenset({3, 7}), (2, 4, 8))))

    @staticmethod
    def _edited(text, end):
        """``text`` with ``end`` for its line ends, comment and blank lines
        after every 37th line, and a comment with a NUL byte two thirds in."""
        lines = []
        for k, line in enumerate(text.splitlines()):
            lines.append(line)
            if k % 37 == 5:
                lines += ["# a comment, (with] brackets", "", "   "]
        lines.insert(2 * len(lines) // 3, "# a NUL \0 byte")
        return end.join(lines) + end

    @pytest.mark.parametrize("block", [cascades._READ_BLOCK_CHARS, 300, 1])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\u2028"])
    def test_summaries_and_couplings_as_the_table_path(self, observed, end, block, tmp_path, monkeypatch):
        net, text = observed
        table = read_cascades(net, text)
        want = gradient.summarize_dataset(table)
        edited = self._edited(text, end)
        monkeypatch.setattr(cascades, "_READ_BLOCK_CHARS", block)
        assert read_cascades(net, edited) == table
        got = _streamed_summaries(net, edited, tmp_path)
        assert [summ.sources for summ in got] == [summ.sources for summ in want]
        for a, b in zip(got, want):
            for name in ("nodes", "lo", "hi", "counts"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), name
        config = FitConfig(max_iters=5)
        streamed, direct = _summaries_fit(got, net, table.horizon, config), dmprec_fit(table, net, config)
        assert streamed.couplings_hat.tobytes() == direct.couplings_hat.tobytes()
        assert streamed.free_energy_trajectory == direct.free_energy_trajectory

    def test_packed_runs_key_equal_bytes_alike(self, rng):
        # runs of UTF-8 text with NUL bytes, multi-byte characters and lone
        # surrogates, of every length from 1 to 40 bytes, each also with a
        # byte added or its last character dropped, met at many places: among
        # runs of one word count, keys are equal exactly when bytes are
        chars = ["a", "\0", "\x07", ":", "é", "中", "\U0001f600", "\ud800", "\udfff"]
        width = [len(c.encode("utf-8", "surrogatepass")) for c in chars]
        texts = []
        for length in list(range(1, 41)) * 5:
            text = ""
            while length:
                fits = [c for c, n in zip(chars, width) if n <= length]
                text += fits[int(rng.integers(len(fits)))]
                length -= width[chars.index(text[-1])]
            texts += [text, text + "\0", text + "\x07", text[:-1], text[:-1] + "\0"]
        pool = [t.encode("utf-8", "surrogatepass") for t in texts]
        pool = [run for run in pool if 1 <= len(run) <= 40]
        data, start, end = b"", [], []
        for k in rng.integers(0, len(pool), 4000).tolist():
            start.append(len(data))
            data += pool[k]
            end.append(len(data))
            data += chars[int(rng.integers(len(chars)))].encode("utf-8", "surrogatepass")
        start, end = np.array(start), np.array(end)
        data += bytes(7)                     # words are read in place, as _token_spans leaves its bytes
        key_of, run_of = {}, {}
        for runs, keys in cascades._packed_runs(data, start, end):
            for r, key in zip(np.arange(start.size)[runs].tolist(), zip(*(key.tolist() for key in keys))):
                run = data[start[r]:end[r]]
                assert len(key) == (len(run) + 7) // 8
                assert key_of.setdefault(run, key) == key, run
                assert run_of.setdefault(key, run) == run, (run, run_of[key])
        assert {len(run) for run in key_of} == set(range(1, 41))

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_line_blocks_cut_as_splitlines(self, rng, block, monkeypatch):
        # a string is cut as a stream of it is read, and both as
        # str.splitlines cuts the text: a "\r\n" split between two pieces is
        # one line end
        monkeypatch.setattr(cascades, "_READ_BLOCK_CHARS", block)
        alphabet = ["a", "b", " ", "\n", "\r", "\r\n", "\u2028", "\x1c", "\x85", "\0"]
        for _ in range(200):
            text = "".join(alphabet[k] for k in rng.integers(0, len(alphabet), int(rng.integers(0, 40))).tolist())
            blocks = list(cascades._line_blocks(text))
            assert list(cascades._line_blocks(io.StringIO(text, newline=""))) == blocks
            assert [line for _first, lines in blocks for line in lines] == text.splitlines()
            assert [first for first, _lines in blocks] == [1 + sum(len(lines) for _, lines in blocks[:k])
                                                           for k in range(len(blocks))]


class TestInputPathMemory:
    """The cascade reader and the summaries work a bounded block at a time
    on a 3 000-cascade, 120-node dataset with hidden nodes and snapshots."""

    @pytest.fixture(scope="class")
    def pa_data(self):
        net = preferential_attachment_net(120, 2, np.random.default_rng(150))
        alpha = np.random.default_rng(151).uniform(0.05, 0.3, net.n_edges)
        mask = MaskSpec(frozenset(range(60, 90)), (3, 6, 9))
        cascades = generate_dataset(net, alpha, 1500, [0], 10, seed=1)
        cascades += generate_dataset(net, alpha, 1500, [1], 10, seed=2)
        observed = [apply_mask(c, mask) for c in cascades]
        return net, observed, write_cascades(net, observed)

    @staticmethod
    def _traced(fn):
        import tracemalloc

        tracemalloc.start()
        try:
            result = fn()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak

    # The reader's ceilings are absolute: the table it returns is 2 bytes a
    # cell, so a ceiling relative to it would bound the transient work alone.
    # Each is its peak with int32 token spans and key words read in place
    # (numpy 2.4), plus 0.15 to 0.2 MiB.

    def test_read_peaks_near_the_dataset_size(self, pa_data):
        # peaks at 1.91 MiB
        net, observed, text = pa_data
        back, _held, peak = self._traced(lambda: read_cascades(net, text))
        assert len(back) == len(observed)
        assert peak <= 2.1 * 2**20

    def test_one_block_of_text_peaks_at_12_bytes_a_character(self, pa_data):
        # one full block read with an empty vocabulary, so that every token
        # misses: the block's bytes, spans, keys and codes take 11.7 bytes a
        # character of it at their peak (20.4 with int64 spans and a sort of
        # every token)
        net, _observed, text = pa_data
        first, lines = list(cascades._line_blocks(text))[1]
        chars = sum(map(len, lines)) + len(lines)
        assert chars > cascades._READ_BLOCK_CHARS - 1000
        codes, _held, peak = self._traced(lambda: cascades._TokenTable(net, 10).codes(first, lines))
        assert len(codes) == len(lines)
        assert peak <= 12 * chars

    @pytest.mark.parametrize("end", ["\r", "\r\n", "\u2028"])
    def test_read_of_other_line_ends_peaks_as_of_newlines(self, pa_data, end):
        # a block ends at any line end that str.splitlines honours, so the
        # text is still read a block at a time
        net, _observed, text = pa_data
        want = read_cascades(net, text)
        other = text.replace("\n", end)
        back, _held, peak = self._traced(lambda: read_cascades(net, other))
        assert back == want
        assert peak <= 2.1 * 2**20                 # peaks at 1.92 MiB

    def test_a_bad_line_is_quoted_from_its_block(self, pa_data):
        # a 40 MB text whose second line is bad: the error quotes that line
        # from the block being scanned, with no split of the whole text
        net, _observed, text = pa_data
        header, body = text.split("\n", 1)
        big = "\n".join([header, "0\t0:0,x:1", body * -(-40 * 2**20 // len(body))])

        def read():
            with pytest.raises(ParseError, match="^line 2: unknown node 'x'$"):
                read_cascades(net, big)

        _result, _held, peak = self._traced(read)
        assert peak <= 1.8 * 2**20                 # peaks at 1.60 MiB

    def test_read_with_many_distinct_tokens_peaks_near_the_dataset_size(self, many_tokens):
        net, text = many_tokens
        back, _held, peak = self._traced(lambda: read_cascades(net, text))
        assert len(back) == 300
        assert peak <= 5.5 * 2**20                 # peaks at 5.13 MiB

    def test_streamed_fit_input_peaks_alike_for_m_and_4m_cascades(self, pa_data, tmp_path):
        # the fit's input path, file to summaries, holds one block of text and
        # its codes besides the distinct keys, so a file of four times the
        # cascades (2.1 and 8.5 MB) peaks under the same ceiling, at 1.86 MiB
        # for both; reading a table and summarizing it peaks at 1.9 and 5.5
        # MiB on top of the whole text
        net, _observed, text = pa_data
        header, body = text.split("\n", 1)
        for copies in (1, 4):
            path = tmp_path / f"{copies}.txt"
            path.write_text(f"{header}\n{body * copies}", encoding="utf-8")
            summaries, _held, peak = self._traced(lambda: _file_summaries(net, path))
            assert len(summaries) == 2
            assert peak <= 2.0 * 2**20, copies

    def test_summarize_peaks_little_above_its_input(self, pa_data):
        from cascade_recon.gradient import summarize_dataset

        _net, observed, _text = pa_data
        summaries, _held, peak = self._traced(lambda: summarize_dataset(observed))
        assert len(summaries) == 2
        assert peak <= 2 << 20
