"""Edge-list parsing, dense indexing, and neighborhood queries."""

import itertools
import re
from collections import Counter

import numpy as np
import pytest

from cascade_recon import DatasetError, Network, ParseError, parse_edge_list, serialize_edge_list

from conftest import random_loopy_net, reference_incidence, sum_matrices


def test_two_edge_chain():
    net, alpha = parse_edge_list("0\t1\n1\t2\n")
    assert net.n_nodes == 3
    assert net.n_edges == 2
    assert alpha is None
    assert net.edge_id(0, 1) == 0
    assert net.edge_id(1, 2) == 1


def test_empty_file_rejected():
    with pytest.raises(ParseError, match="empty"):
        parse_edge_list("# only a comment\n\n")


def test_bundled_hub_network():
    from importlib.resources import files

    text = files("cascade_recon").joinpath("data/hub30.edges").read_text()
    net, alpha = parse_edge_list(text)
    assert net.n_nodes == 30
    assert net.n_edges == 210
    assert alpha is not None
    assert alpha.max() == 0.5
    assert alpha.min() > 0.0


def test_duplicate_edge_names_line():
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_edge_list("0\t1\n0\t1\n")


def test_self_loop_rejected_with_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("0\t1\n3\t3\n")


def test_coupling_out_of_range():
    with pytest.raises(ParseError, match=r"outside \[0, 1\]"):
        parse_edge_list("0\t1\t1.5\n")


def test_mixed_columns_rejected():
    with pytest.raises(ParseError, match="mixed"):
        parse_edge_list("0\t1\t0.3\n1\t2\n")


def test_comments_and_blank_lines():
    net, alpha = parse_edge_list("# header\n\n0\t1\t0.25  # trailing\n")
    assert net.n_edges == 1
    assert alpha[0] == 0.25


def test_neighbors_chain():
    net, _ = parse_edge_list("0\t1\n1\t2\n")
    assert net.in_neighbors(1) == [0]
    assert net.in_neighbors(0) == []
    assert net.out_neighbors(1) == [2]
    with pytest.raises(IndexError):
        net.in_neighbors(3)


@pytest.mark.parametrize("method", ["in_edges", "in_neighbors", "out_neighbors", "out_degree"])
def test_node_queries_take_one_index_rule(method):
    # every query takes a node index in [0, N), a numpy integer too, and
    # raises IndexError for any other, -1 included
    net, _ = parse_edge_list("0\t1\n1\t2\n2\t0\n")
    query = getattr(net, method)
    for i in range(3):
        assert np.array_equal(query(np.int64(i)), query(i))
    for i in (-1, -3, 3, np.int64(-1), np.int64(3)):
        with pytest.raises(IndexError, match=rf"^node index {i} out of range \[0, 3\)$"):
            query(i)


def test_neighbors_bidirectional_pair():
    net, _ = parse_edge_list("0\t1\n1\t0\n")
    assert net.in_neighbors(0) == [1]
    assert net.out_neighbors(0) == [1]


def test_edge_order_lexicographic():
    net, _ = parse_edge_list("2\t0\n0\t2\n1\t0\n")
    pairs = [net.edge_pair(e) for e in range(net.n_edges)]
    assert pairs == sorted(pairs)
    for e in range(net.n_edges):
        assert net.edge_id(*net.edge_pair(e)) == e


def test_integer_labels_sort_numerically():
    net, _ = parse_edge_list("10\t2\n2\t10\n")
    assert net.labels == ("2", "10")


def test_tied_integer_labels_order_by_text():
    # '1', '01' and '+1' are one integer; their text orders them, whatever
    # order they come in and whatever the string hash seed
    import itertools
    import os
    import subprocess
    import sys

    import cascade_recon

    script = (
        "import cascade_recon as cr\n"
        "net, alpha = cr.parse_edge_list('1\\t01\\t0.1\\n01\\t2\\t0.2\\n+1\\t2\\t0.3\\n')\n"
        "print(net.labels, alpha.tolist())\n"
    )
    root = os.path.dirname(os.path.dirname(cascade_recon.__file__))
    outs = set()
    for seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join([root, os.environ.get("PYTHONPATH", "")])}
        outs.add(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout)
    assert outs == {"('+1', '01', '1', '2') [0.3, 0.2, 0.1]\n"}
    for labels in itertools.permutations(["1", "01", "+1", "2", "a"]):
        assert Network(labels, []).labels == ("+1", "01", "1", "2", "a")


def test_every_network_the_writer_accepts_reads_back(rng):
    # labels drawn with the characters that the parser splits fields or cuts
    # comments at, and numbers that tie; a network with a label that would
    # not read back, or a node on no edge, is refused and one of them named
    plain, special = list("ab01+é"), list("# \t\r\n\x0b\x1c\x85\u3000")
    accepted = refused = 0
    for _ in range(300):
        labels = sorted({"".join(rng.choice(special) if rng.random() < 0.1 else rng.choice(plain)
                                 for _ in range(int(rng.integers(1, 4)))) for _ in range(4)})
        pairs = {(a, b) for a, b in rng.integers(0, len(labels), (int(rng.integers(2, 12)), 2)).tolist() if a != b}
        net = Network(labels, [(labels[a], labels[b]) for a, b in pairs])
        alpha = rng.uniform(0, 1, net.n_edges)
        try:
            text = serialize_edge_list(net, alpha)
        except DatasetError as exc:
            assert re.match(r"node (.*) cannot be written to an edge list", str(exc))[1] in map(repr, net.labels)
            refused += 1
            continue
        net2, alpha2 = parse_edge_list(text)
        assert net2 == net
        np.testing.assert_array_equal(alpha2, alpha)
        accepted += 1
    assert accepted >= 50 and refused >= 50, (accepted, refused)
    with pytest.raises(DatasetError, match="^node 'a b' cannot be written to an edge list"):
        serialize_edge_list(Network(["a b", "c#d", "e"], [("a b", "e"), ("c#d", "e")]), [0.5, 0.5])
    with pytest.raises(DatasetError, match="^node '' cannot be written"):
        serialize_edge_list(Network(["", "a"], [("", "a")]))
    with pytest.raises(DatasetError, match="^node 'c' cannot be written"):
        serialize_edge_list(Network(["a", "b", "c"], [("a", "b")]))


def test_roundtrip_random_graphs(rng):
    for _ in range(25):
        n = int(rng.integers(2, 12))
        net = random_loopy_net(n, int(rng.integers(0, 8)), rng)
        alpha = rng.uniform(0, 1, net.n_edges)
        text = serialize_edge_list(net, alpha)
        net2, alpha2 = parse_edge_list(text)
        assert net2 == net
        np.testing.assert_array_equal(alpha2, alpha)
        # second round trip is byte-identical
        assert serialize_edge_list(net2, alpha2) == text


def test_in_out_consistent_with_edge_list(rng):
    net = random_loopy_net(9, 10, rng)
    for e in range(net.n_edges):
        i, j = net.edge_pair(e)
        assert j in net.out_neighbors(i)
        assert i in net.in_neighbors(j)
    n_in = sum(len(net.in_neighbors(i)) for i in range(net.n_nodes))
    n_out = sum(len(net.out_neighbors(i)) for i in range(net.n_nodes))
    assert n_in == n_out == net.n_edges


def test_constructor_matches_the_reference_loop(rng):
    # random edge lists over integer-looking and text labels, some given as
    # ints, with labels on no edge, self-loops, repeated pairs and unknown
    # labels: the arrays hold what the loop over the edges gives, or the
    # first bad edge raises the same exception
    pool = ["0", "1", "2", "3", "10", "01", "+1", "a", "b", "é", "x#y"]
    outcomes = Counter()
    for _ in range(200):
        labels = rng.choice(pool, size=int(rng.integers(2, 8)), replace=False).tolist()
        ends = [int(x) if x.isdigit() and rng.random() < 0.3 else x for x in labels]
        picks = [tuple(rng.choice(len(ends), 2, replace=False)) for _ in range(int(rng.integers(0, 14)))]
        edges = [(ends[a], ends[b]) for a, b in dict.fromkeys(picks)]
        # a self-loop, a repeated pair and an unknown label, each in about a fifth of the lists
        for edge in [(ends[0], ends[0]), edges[0] if edges else None, (ends[-1], "zz"), ("zz", ends[0])]:
            if edge and rng.random() < 0.2:
                edges.insert(int(rng.integers(len(edges) + 1)), edge)
        try:
            want = reference_incidence(labels, edges)
        except (KeyError, ParseError) as exc:
            with pytest.raises(type(exc)) as got:
                Network(labels, iter(edges))
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            outcomes["unknown label" if type(exc) is KeyError else str(exc).split()[0]] += 1
            continue
        outcomes["built"] += 1
        net = Network(labels, iter(edges))
        n = net.n_nodes
        assert list(zip(net.edge_src.tolist(), net.edge_dst.tolist())) == want.pairs
        for i in range(n):
            assert net.in_edges(i).tolist() == want.ins[i] and not net.in_edges(i).flags.writeable
            assert net.out_degree(i) == len(want.outs[i])
            assert net.in_neighbors(i) == [want.pairs[e][0] for e in want.ins[i]]
            assert net.out_neighbors(i) == [want.pairs[e][1] for e in want.outs[i]]
        for pair in itertools.product(range(-1, n + 1), repeat=2):
            if pair in want.ids:
                assert net.edge_id(*pair) == want.ids[pair]
            else:
                with pytest.raises(KeyError, match=re.escape(str(pair))):
                    net.edge_id(*pair)
        assert [a.tolist() for a in net._cavity] == list(want.cavity)
    assert min(outcomes.values()) >= 10 and len(outcomes) == 4, outcomes


def _sequential_sums(mat, x):
    """``mat @ x`` for a 0/1 ``mat``, each output added in column order
    from 0.0."""
    out = np.zeros((mat.shape[0], x.shape[1]))
    for r in range(mat.shape[0]):
        for j in np.flatnonzero(mat[r]):
            out[r] += x[j]
    return out


def test_sums_over_in_edges_and_cavities(rng):
    complete = Network([str(i) for i in range(8)], [(str(i), str(j)) for i in range(8) for j in range(8) if i != j])
    nets = [
        random_loopy_net(8, 6, rng),
        complete,  # every cavity holds 6 edges: six slots per sum
        Network(["0", "1"], [("0", "1"), ("1", "0")]),  # 2-cycle: empty cavities
        Network(["0", "1", "2"], []),
    ]
    for net in nets:
        ins, cav = sum_matrices(net)
        for i in range(net.n_nodes):
            assert np.flatnonzero(ins[i]).tolist() == net.in_edges(i).tolist()
        for e in range(net.n_edges):
            k, i = net.edge_pair(e)
            expect = [f for f in net.in_edges(k) if int(net.edge_src[f]) != i]
            assert np.flatnonzero(cav[e]).tolist() == expect
        rows, cols = net._cavity
        assert np.array_equal(np.lexsort((cols, rows)), np.arange(rows.size))  # CSR order
        v = rng.standard_normal((net.n_edges, 3)) * np.exp(rng.uniform(-20, 20, (net.n_edges, 3)))
        w = rng.standard_normal((net.n_nodes, 3))
        for got, mat, x in [
            (net._in_sum(v), ins, v),
            (w[net.edge_dst], ins.T, w),
            (net._cavity_sum(v), cav, v),
            (net._cavity_sum(v, transpose=True), cav.T, v),
        ]:
            np.testing.assert_allclose(got, mat @ x, rtol=1e-12, atol=0.0)
            assert got.tobytes() == _sequential_sums(mat, x).tobytes()
    assert [len(slots) for _, slots in complete._cavity_slots] == [6, 6]
    assert nets[2]._cavity[0].size == 0


def test_pipeline_loads_no_scipy():
    # simulate, mask, a file round trip, a fit, a gradient and the brute-force
    # likelihood all run on numpy alone
    import os
    import subprocess
    import sys

    import cascade_recon

    script = (
        "import sys\n"
        "import cascade_recon as cr\n"
        "net = cr.Network(list('01234'), [('0', '1'), ('1', '2'), ('2', '1'), ('1', '3'), ('3', '4'), ('4', '0')])\n"
        "alpha = [0.5, 0.4, 0.3, 0.6, 0.7, 0.2]\n"
        "data = cr.generate_dataset(net, alpha, 30, [0], 5, seed=1)\n"
        "observed = [cr.apply_mask(c, cr.MaskSpec(frozenset({2}), None)) for c in data]\n"
        "table = cr.read_cascades(net, cr.write_cascades(net, observed))\n"
        "fit = cr.dmprec_fit(table, net, cr.FitConfig(max_iters=3))\n"
        "cr.free_energy_gradient(table, net, fit.couplings_hat)\n"
        "cr.marginalized_likelihood(observed[0], net, fit.couplings_hat)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    root = os.path.dirname(os.path.dirname(cascade_recon.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([root, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
