"""Directed weighted graphs with stable dense edge indexing.

A :class:`Network` maps arbitrary node labels to dense indices ``0..N-1``
and directed edges to dense edge ids ``0..|E|-1``, lexicographic by ``(src
index, dst index)`` after sorting node labels, so the same edge-list file
always produces the same indexing; couplings are float64 arrays of length
``|E|`` in that order.  The incidence is held once, in CSR form: node i's
out-edges are the ids ``_out_ptr[i]:_out_ptr[i+1]``, its in-edges the ids
at ``_in_ptr[i]:_in_ptr[i+1]`` of ``_in_order``, a stable argsort of ``edge_dst``.
"""

from __future__ import annotations

import io
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DatasetError, ParseError

__all__ = [
    "Network",
    "parse_edge_list",
    "serialize_edge_list",
    "validate_couplings",
]


def _label_key(label: str):
    # integer-looking labels sort numerically, equal ones ('1', '01', '+1')
    # by text; everything else after them, as text
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _ranges(start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The integers of the ranges ``[start, stop)``, in order."""
    size = stop - start
    if (size == 1).all():            # each range holds one integer
        return start
    filled = size > 0
    start, size = start[filled], size[filled]
    return np.repeat(start - np.cumsum(size) + size, size) + np.arange(size.sum())


class Network:
    """Immutable directed graph over dense node and edge indices.

    Parameters
    ----------
    labels : sequence of str
        Node labels.  They are sorted (integers numerically, equal integers
        and other tokens lexically) to fix the dense node indexing.
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
        self.n_nodes = N = len(self.labels)

        # the first edge with an unknown label (-1), a self-loop or a repeated
        # key is refused, with the error a loop over the edges would raise
        edges = [(src, dst) for src, dst in edges]
        ends = np.array([[self.label_index.get(str(s), -1) for s in pair] for pair in edges], dtype=np.intp).reshape(-1, 2)
        keys = ends[:, 0] * N + ends[:, 1]
        order = np.argsort(keys, kind="stable")
        bad = (ends < 0).any(axis=1) | (ends[:, 0] == ends[:, 1])
        bad[order[1:]] |= keys[order[1:]] == keys[order[:-1]]
        if bad.any():
            src, dst = edges[int(np.argmax(bad))]
            if self.label_index[str(src)] == self.label_index[str(dst)]:
                raise ParseError(f"self-loop at node {src!r}")
            raise ParseError(f"duplicate edge {src!r}->{dst!r}")
        self._edge_keys = keys[order]
        self.n_edges = self._edge_keys.size
        self.edge_src, self.edge_dst = np.divmod(self._edge_keys, max(N, 1))
        self._out_ptr = np.searchsorted(self.edge_src, np.arange(N + 1))
        self._in_order = _read_only(np.argsort(self.edge_dst, kind="stable"))
        self._in_ptr = np.searchsorted(self.edge_dst[self._in_order], np.arange(N + 1))

    # -- basic queries ---------------------------------------------------

    def edge_id(self, src: int, dst: int) -> int:
        """Dense id of the directed edge (src, dst); KeyError if absent."""
        e = int(np.searchsorted(self._edge_keys, src * self.n_nodes + dst))
        if e < self.n_edges and self.edge_pair(e) == (src, dst):
            return e
        raise KeyError((src, dst))

    def edge_pair(self, e: int) -> tuple[int, int]:
        return int(self.edge_src[e]), int(self.edge_dst[e])

    def in_edges(self, i: int) -> np.ndarray:
        """Edge ids of edges (k, i), sorted by source index; read-only."""
        i = self._node(i)
        return self._in_order[self._in_ptr[i]:self._in_ptr[i + 1]]

    def in_neighbors(self, i: int) -> list[int]:
        """Sorted in-neighbor indices of node ``i``."""
        return self.edge_src[self.in_edges(i)].tolist()

    def out_neighbors(self, i: int) -> list[int]:
        """Sorted out-neighbor indices of node ``i``."""
        i = self._node(i)
        return self.edge_dst[self._out_ptr[i]:self._out_ptr[i + 1]].tolist()

    def _node(self, i: int) -> int:
        """``i``, a node index in [0, N); any other is an IndexError."""
        if not 0 <= i < self.n_nodes:
            raise IndexError(f"node index {i} out of range [0, {self.n_nodes})")
        return i

    def out_degree(self, i: int) -> int:
        i = self._node(i)
        return int(self._out_ptr[i + 1] - self._out_ptr[i])

    # -- derived structure used by the message-passing code ---------------

    @cached_property
    def _cavity(self) -> tuple[np.ndarray, np.ndarray]:
        """The cavity as edge-id pairs in CSR order: row e = (k, i) holds
        the in-edges of k other than (i, k), ascending."""
        start, stop = self._in_ptr[self.edge_src], self._in_ptr[self.edge_src + 1]
        rows = np.repeat(np.arange(self.n_edges), stop - start)
        cols = self._in_order[_ranges(start, stop)]
        keep = self.edge_src[cols] != self.edge_dst[rows]
        return rows[keep], cols[keep]

    @cached_property
    def _cavity_slots(self) -> tuple:
        """The cavity and its transpose by slot: each row's place among the rows
        sorted longest first, and per s the s-th column of every row longer than s."""
        def layout(rows, cols):
            start = np.searchsorted(rows, np.arange(self.n_edges + 1))
            order = np.argsort(-np.diff(start), kind="stable")
            longer = self.n_edges - np.cumsum(np.bincount(np.diff(start)))[:-1]
            return np.argsort(order), [cols[start[order[:k]] + s] for s, k in enumerate(longer.tolist())]
        rows, cols = self._cavity
        by_col = np.argsort(cols, kind="stable")
        return layout(rows, cols), layout(cols[by_col], rows[by_col])

    def _in_sum(self, v: np.ndarray) -> np.ndarray:
        """Sums of an (|E|, G) array over each node's in-edges by one
        ``np.bincount``, each added in edge order from 0.0."""
        G = v.shape[1]
        return np.bincount((self.edge_dst[:, None] * G + np.arange(G)).ravel(), v.ravel(), self.n_nodes * G).reshape(-1, G)

    def _cavity_sum(self, v: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Sums of an (|E|, G) array over each edge's cavity, or over its
        transpose, a slot at a time, each added in CSR order from 0.0."""
        place, slots = self._cavity_slots[transpose]
        out = np.zeros_like(v)
        for cols in slots:
            out[:cols.size] += v.take(cols, axis=0)
        return out[place]

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
    stream = io.StringIO(text) if isinstance(text, str) else text
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

    net = Network({s for s, _, _ in rows} | {d for _, d, _ in rows}, [(s, d) for s, d, _ in rows])
    if n_cols == 2:
        return net, None
    # the canonical edge order is the rows' order by (src, dst) index
    order = np.lexsort([[net.label_index[row[k]] for row in rows] for k in (1, 0)])
    return net, np.array([a for _, _, a in rows], dtype=np.float64)[order]


def serialize_edge_list(net: Network, couplings=None) -> str:
    """Inverse of :func:`parse_edge_list`; edges in canonical order.  A
    network that would not read back, with a node on no edge or a label
    that is empty or holds whitespace or ``#``, is refused with a
    :class:`DatasetError` before anything is written."""
    degree = np.diff(net._out_ptr) + np.diff(net._in_ptr)
    bad = next((label for label, used in zip(net.labels, degree.tolist())
                if label.split() != [label] or "#" in label or not used), None)
    if bad is not None:
        raise DatasetError(f"node {bad!r} cannot be written to an edge list: a node there is on an edge, "
                           "and its label is not empty and holds no whitespace or '#'")
    lines = [f"{net.labels[i]}\t{net.labels[j]}" for i, j in zip(net.edge_src.tolist(), net.edge_dst.tolist())]
    if couplings is not None:
        lines = [f"{line}\t{float(couplings[e])!r}" for e, line in enumerate(lines)]
    return "\n".join(lines) + "\n"
