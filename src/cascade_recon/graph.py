"""Directed weighted graphs with stable dense edge indexing.

A :class:`Network` maps arbitrary node labels to dense indices ``0..N-1``
and directed edges to dense edge ids ``0..|E|-1``.  The edge ordering is
canonical: lexicographic by ``(src index, dst index)`` after sorting node
labels, so the same edge-list file always produces the same indexing.
Transmission probabilities ("couplings") are plain float64 arrays of
length ``|E|`` aligned with that edge order.
"""

from __future__ import annotations

import io
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError

__all__ = [
    "Network",
    "parse_edge_list",
    "serialize_edge_list",
    "validate_couplings",
]


def _label_key(label: str):
    # integer-looking labels sort numerically, everything else after, as text
    try:
        return (0, int(label), "")
    except ValueError:
        return (1, 0, label)


class Network:
    """Immutable directed graph over dense node and edge indices.

    Parameters
    ----------
    labels : sequence of str
        Node labels.  They are sorted (integers numerically, other tokens
        lexically) to fix the dense node indexing.
    edges : iterable of (str, str)
        Directed edges given as label pairs.  Self-loops and duplicate
        directed edges are rejected.
    """

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[str, str]]):
        labels = [str(x) for x in labels]
        if len(set(labels)) != len(labels):
            raise ParseError("duplicate node labels")
        self.labels: tuple[str, ...] = tuple(sorted(labels, key=_label_key))
        self.label_index: dict[str, int] = {s: i for i, s in enumerate(self.labels)}
        self.n_nodes = len(self.labels)

        pairs = []
        seen = set()
        for src, dst in edges:
            i, j = self.label_index[str(src)], self.label_index[str(dst)]
            if i == j:
                raise ParseError(f"self-loop at node {src!r}")
            if (i, j) in seen:
                raise ParseError(f"duplicate edge {src!r}->{dst!r}")
            seen.add((i, j))
            pairs.append((i, j))
        pairs.sort()
        self.n_edges = len(pairs)
        self.edge_src = np.array([p[0] for p in pairs], dtype=np.intp)
        self.edge_dst = np.array([p[1] for p in pairs], dtype=np.intp)
        self._edge_index = {p: e for e, p in enumerate(pairs)}

        self._in_edges = [[] for _ in range(self.n_nodes)]
        self._out_edges = [[] for _ in range(self.n_nodes)]
        for e, (i, j) in enumerate(pairs):
            self._out_edges[i].append(e)
            self._in_edges[j].append(e)
        self._in_edges = [np.array(v, dtype=np.intp) for v in self._in_edges]
        self._out_edges = [np.array(v, dtype=np.intp) for v in self._out_edges]

    # -- basic queries ---------------------------------------------------

    def edge_id(self, src: int, dst: int) -> int:
        """Dense id of the directed edge (src, dst); KeyError if absent."""
        return self._edge_index[(src, dst)]

    def edge_pair(self, e: int) -> tuple[int, int]:
        return int(self.edge_src[e]), int(self.edge_dst[e])

    def in_edges(self, i: int) -> np.ndarray:
        """Edge ids of edges (k, i), sorted by source index."""
        return self._in_edges[i]

    def out_edges(self, i: int) -> np.ndarray:
        return self._out_edges[i]

    def in_neighbors(self, i: int) -> list[int]:
        return [int(self.edge_src[e]) for e in self._in_edges[i]]

    def out_neighbors(self, i: int) -> list[int]:
        return [int(self.edge_dst[e]) for e in self._out_edges[i]]

    def neighbors(self, i: int, direction: str) -> list[int]:
        """Sorted in- or out-neighbor indices of node ``i``.

        ``direction`` is ``"in"`` or ``"out"``.
        """
        if not 0 <= i < self.n_nodes:
            raise IndexError(f"node index {i} out of range [0, {self.n_nodes})")
        if direction == "in":
            return self.in_neighbors(i)
        if direction == "out":
            return self.out_neighbors(i)
        raise ValueError(f"direction must be 'in' or 'out', got {direction!r}")

    def out_degree(self, i: int) -> int:
        return len(self._out_edges[i])

    # -- derived structure used by the message-passing code ---------------

    @cached_property
    def in_edge_sum(self) -> sparse.csr_matrix:
        """(N, |E|) 0/1 matrix: ``in_edge_sum @ v`` sums a per-edge array
        over each node's in-edges."""
        # imported here: only the message-passing code needs it, and loading it
        # with the package grows every process that never runs that code
        from scipy import sparse

        E = self.n_edges
        return sparse.csr_matrix((np.ones(E), (self.edge_dst, np.arange(E))), shape=(self.n_nodes, E))

    @cached_property
    def cavity_sum(self) -> sparse.csr_matrix:
        """(|E|, |E|) 0/1 matrix: ``cavity_sum @ v`` sums a per-edge array
        over each edge's cavity: for e = (k, i), the in-edges of k other
        than the reverse edge (i, k)."""
        cav = self.in_edge_sum[self.edge_src]
        row_dst = np.repeat(self.edge_dst, np.diff(cav.indptr))
        cav.data[self.edge_src[cav.indices] == row_dst] = 0.0
        cav.eliminate_zeros()
        return cav

    def __repr__(self):
        return f"Network(n_nodes={self.n_nodes}, n_edges={self.n_edges})"

    def __eq__(self, other):
        return (
            isinstance(other, Network)
            and self.labels == other.labels
            and np.array_equal(self.edge_src, other.edge_src)
            and np.array_equal(self.edge_dst, other.edge_dst)
        )

    def __hash__(self):
        return hash((self.labels, self.edge_src.tobytes(), self.edge_dst.tobytes()))


def validate_couplings(net: Network, values) -> np.ndarray:
    """Return couplings as a float64 array of length |E|, checked to [0, 1]."""
    alpha = np.asarray(values, dtype=np.float64)
    if alpha.shape != (net.n_edges,):
        raise ValueError(f"couplings must have shape ({net.n_edges},), got {alpha.shape}")
    if not np.all(np.isfinite(alpha)) or alpha.min(initial=0.0) < 0.0 or alpha.max(initial=0.0) > 1.0:
        raise ValueError("couplings must lie in [0, 1]")
    return alpha


def parse_edge_list(text) -> tuple[Network, np.ndarray | None]:
    """Parse an edge-list file into a Network and optional couplings.

    Format: one edge per line, ``src<TAB>dst`` or ``src<TAB>dst<TAB>alpha``
    (any whitespace separates fields); ``#`` starts a comment; blank lines
    are ignored.  Either every edge line carries an alpha or none does.
    Returns ``(net, alpha)`` with ``alpha`` aligned to the canonical edge
    order, or ``(net, None)`` when no third column is present.
    """
    if isinstance(text, str):
        stream = io.StringIO(text)
    else:
        stream = text
    rows: list[tuple[str, str, float | None]] = []
    n_cols = None
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 2 or 3 fields, got {len(fields)}")
        if n_cols is None:
            n_cols = len(fields)
        elif n_cols != len(fields):
            raise ParseError(f"line {lineno}: mixed 2- and 3-column edge lines")
        alpha = None
        if len(fields) == 3:
            try:
                alpha = float(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: bad coupling value {fields[2]!r}") from None
            if not 0.0 <= alpha <= 1.0:
                raise ParseError(f"line {lineno}: coupling {alpha} outside [0, 1]")
        if fields[0] == fields[1]:
            raise ParseError(f"line {lineno}: self-loop at node {fields[0]!r}")
        rows.append((fields[0], fields[1], alpha))

    if not rows:
        raise ParseError("empty edge list: no edges found")

    labels = sorted({s for s, _, _ in rows} | {d for _, d, _ in rows}, key=_label_key)
    net = Network(labels, [(s, d) for s, d, _ in rows])
    if n_cols == 2:
        return net, None
    alpha = np.empty(net.n_edges, dtype=np.float64)
    for src, dst, a in rows:
        alpha[net.edge_id(net.label_index[src], net.label_index[dst])] = a
    return net, alpha


def serialize_edge_list(net: Network, couplings=None) -> str:
    """Inverse of :func:`parse_edge_list`; edges in canonical order."""
    lines = []
    for e in range(net.n_edges):
        i, j = net.edge_pair(e)
        if couplings is None:
            lines.append(f"{net.labels[i]}\t{net.labels[j]}")
        else:
            lines.append(f"{net.labels[i]}\t{net.labels[j]}\t{float(couplings[e])!r}")
    return "\n".join(lines) + "\n"
