"""Edge-list parsing, dense indexing, and neighborhood queries."""

import numpy as np
import pytest

from cascade_recon import Network, ParseError, parse_edge_list, serialize_edge_list

from conftest import random_loopy_net


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
    assert net.neighbors(1, "in") == [0]
    assert net.neighbors(0, "in") == []
    assert net.neighbors(1, "out") == [2]
    with pytest.raises(IndexError):
        net.neighbors(3, "in")


def test_neighbors_bidirectional_pair():
    net, _ = parse_edge_list("0\t1\n1\t0\n")
    assert net.neighbors(0, "in") == [1]
    assert net.neighbors(0, "out") == [1]


def test_edge_order_lexicographic():
    net, _ = parse_edge_list("2\t0\n0\t2\n1\t0\n")
    pairs = [net.edge_pair(e) for e in range(net.n_edges)]
    assert pairs == sorted(pairs)
    for e in range(net.n_edges):
        assert net.edge_id(*net.edge_pair(e)) == e


def test_integer_labels_sort_numerically():
    net, _ = parse_edge_list("10\t2\n2\t10\n")
    assert net.labels == ("2", "10")


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


def test_sum_matrices(rng):
    nets = [
        random_loopy_net(8, 6, rng),
        Network(["0", "1"], [("0", "1"), ("1", "0")]),  # 2-cycle: empty cavities
        Network(["0", "1", "2"], []),
    ]
    for net in nets:
        ins, cav = net.in_edge_sum, net.cavity_sum
        assert ins.shape == (net.n_nodes, net.n_edges)
        assert cav.shape == (net.n_edges, net.n_edges)
        for mat in (ins, cav):
            assert np.all(mat.data == 1.0)  # 0/1 entries, no stored zeros
        ins, cav = ins.toarray(), cav.toarray()
        assert np.isin(ins, (0.0, 1.0)).all() and np.isin(cav, (0.0, 1.0)).all()
        for i in range(net.n_nodes):
            assert np.flatnonzero(ins[i]).tolist() == net.in_edges(i).tolist()
        for e in range(net.n_edges):
            k, i = net.edge_pair(e)
            expect = [f for f in net.in_edges(k) if int(net.edge_src[f]) != i]
            assert np.flatnonzero(cav[e]).tolist() == expect
    assert nets[1].cavity_sum.nnz == 0
