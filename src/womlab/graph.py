"""Undirected simple graphs and the summary statistics used to compare networks.

Graphs are immutable, live on dense integer node ids ``0..n-1`` and store
their edges once, as a CSR adjacency structure sorted by (source,
target).  All-pairs distances are computed by breadth-first search from
every node simultaneously, with reachability sets packed into uint64
bitset rows stored by descending degree: neighbor slots that many rows
share are ORed in over contiguous row blocks (ELL), the few hub rows left
over through one gather and reduce (CSR).  This keeps the distance
summary of a 1000-node graph at a few milliseconds, cheap enough to
measure every network of a large sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .rng import check_count


class GraphConstructionError(ValueError):
    """Edge list cannot form a valid simple graph (bad id or self-loop)."""


class MetricDomainError(ValueError):
    """Metric undefined for this input (fewer than 2 nodes)."""


@dataclass(frozen=True)
class GraphMetrics:
    """Summary statistics of one network.

    ``avg_path_length`` and ``diameter`` are ``None`` when the graph is
    disconnected; disconnection is reported loudly rather than averaged
    away per component.
    """

    node_count: int
    edge_count: int
    density: float
    avg_path_length: float | None
    global_clustering: float
    diameter: int | None
    connected: bool


class Graph:
    """Immutable undirected simple graph.

    Construction rejects self-loops and out-of-range ids and collapses
    duplicate pairs to a single edge.  Adjacency is symmetric by
    construction and neighbor lists are sorted ascending.
    """

    __slots__ = ("node_count", "edge_count", "_indptr", "_indices", "_distance_summary")

    def __init__(self, node_count: int, edge_list: Iterable[tuple[int, int]]):
        node_count = check_count("node_count", node_count, 0)
        if not isinstance(edge_list, np.ndarray):
            edge_list = list(edge_list)
        pairs = np.asarray(edge_list, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphConstructionError("edge list must contain (u, v) pairs")
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= node_count:
                raise GraphConstructionError(
                    f"edge endpoint out of range for node_count={node_count}")
            if (pairs[:, 0] == pairs[:, 1]).any():
                raise GraphConstructionError("self-loops are not allowed")
        # Both directions of every pair, encoded and sorted once: the CSR
        # order (source, then target), with repeats dropped.
        enc = np.sort(np.concatenate([pairs[:, 0] * node_count + pairs[:, 1],
                                      pairs[:, 1] * node_count + pairs[:, 0]]))
        keep = np.ones(len(enc), dtype=bool)
        np.not_equal(enc[1:], enc[:-1], out=keep[1:])
        src, indices = np.divmod(enc[keep], node_count)
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])

        self.node_count = node_count
        self.edge_count = len(indices) // 2
        self._indptr = indptr
        self._indices = indices
        self._distance_summary = None

    # -- queries ---------------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, sorted ascending."""
        src = np.repeat(np.arange(self.node_count), np.diff(self._indptr))
        upper = src < self._indices
        return list(zip(src[upper].tolist(), self._indices[upper].tolist()))

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._indptr, self._indices

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.node_count == other.node_count
                and np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices))

    def __repr__(self) -> str:
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


def build_graph(node_count: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build an undirected simple graph, validating ids and rejecting loops."""
    return Graph(node_count, edge_list)


# -- metrics ---------------------------------------------------------------


def density(g: Graph) -> float:
    """Fraction of realized node pairs: 2m / (n (n-1))."""
    n = g.node_count
    if n < 2:
        raise MetricDomainError("density undefined for graphs with fewer than 2 nodes")
    return 2.0 * g.edge_count / (n * (n - 1))


def _distance_summary(g: Graph) -> tuple[float | None, int | None, bool]:
    """(avg_path_length, diameter, connected) via batched bitset BFS.

    One BFS layer expands the reachability bitset of every node at once:
    OR each node's neighbor rows into a copy of the previous layer.  The
    number of still-unreached ordered pairs summed over layers equals the
    total of all shortest-path distances; a fixpoint short of full reach
    means the graph is disconnected.

    Rows are stored by descending degree, so the nodes having a ``j``-th
    neighbor form a contiguous prefix.  Every neighbor slot that at least
    ``n >> 4`` rows have is ORed in over its prefix with one row gather
    (the regular, ELL part); the few high-degree rows left over OR their
    remaining neighbors with a single gather and ``reduceat`` (the CSR
    part).  This is the hybrid sparse layout of Bell and Garland (SC'09),
    split where the degree sequence thins out.  Bits keep the original
    node ids, so the row order does not affect any count.
    """
    if g._distance_summary is not None:
        return g._distance_summary
    n = g.node_count
    if n == 0:
        result = (None, None, True)
    elif n == 1:
        result = (None, 0, True)
    else:
        indptr, indices = g._indptr, g._indices
        deg = np.diff(indptr)
        order = np.argsort(-deg, kind="stable")  # row -> node
        row_of = np.empty(n, dtype=np.intp)
        row_of[order] = np.arange(n)
        row_deg = deg[order]
        row_start = indptr[:-1][order]
        # rows_with[j]: how many rows have a j-th neighbor (a prefix).
        rows_with = n - np.searchsorted(row_deg[::-1], np.arange(row_deg[0]), side="right")
        ell = int(np.count_nonzero(rows_with >= max(n >> 4, 1)))
        slots = [row_of[indices[row_start[:rows] + j]]
                 for j, rows in enumerate(rows_with[:ell].tolist())]
        # Rows with neighbors beyond the ELL slots, flattened CSR-style.
        tail_rows = int(rows_with[ell]) if ell < len(rows_with) else 0
        tail_deg = row_deg[:tail_rows] - ell
        tail_starts = np.zeros(tail_rows, dtype=np.intp)
        np.cumsum(tail_deg[:-1], out=tail_starts[1:])
        within = np.arange(int(tail_deg.sum())) - np.repeat(tail_starts, tail_deg)
        tail = row_of[indices[np.repeat(row_start[:tail_rows] + ell, tail_deg) + within]]

        words = (n + 63) >> 6
        reach = np.zeros((n, words), dtype=np.uint64)
        reach[np.arange(n), order >> 6] = np.uint64(1) << (order & 63).astype(np.uint64)
        grown = np.empty_like(reach)
        total_pairs = n * n
        count = n
        dist_sum = 0
        layer = 0
        while count < total_pairs:
            dist_sum += total_pairs - count
            np.copyto(grown, reach)
            for nbr in slots:
                rows = len(nbr)
                grown[:rows] |= reach[nbr]
            if tail_rows:
                grown[:tail_rows] |= np.bitwise_or.reduceat(reach[tail], tail_starts, axis=0)
            new_count = int(np.bitwise_count(grown).sum())
            if new_count == count:
                result = (None, None, False)
                break
            reach, grown = grown, reach
            count = new_count
            layer += 1
        else:
            result = (dist_sum / (n * (n - 1)), layer, True)
    g._distance_summary = result
    return result


def is_connected(g: Graph) -> bool:
    """True when every node is reachable from node 0 (trivially true for n <= 1)."""
    return _distance_summary(g)[2]


def global_clustering(g: Graph) -> float:
    """Transitivity: 3 * triangles / connected triples, 0.0 when no triples exist.

    Triangles are counted with one uint64 adjacency bitset row per node:
    the common neighbors of every edge, summed over all edges, count each
    triangle once per side.  Edges are taken in blocks whose row gathers
    hold 64 KiB (512 edges at n = 1000), below glibc's default mmap
    threshold, so each block reuses freed heap memory instead of mapping
    fresh pages.
    """
    n = g.node_count
    deg = np.diff(g._indptr)
    triples2 = int((deg * (deg - 1)).sum())  # 2 * connected triples
    if triples2 == 0:
        return 0.0
    words = (n + 63) >> 6
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    bits = np.zeros(n * words, dtype=np.uint64)
    np.bitwise_or.at(bits, src * words + (g._indices >> 6),
                     np.uint64(1) << (g._indices & 63).astype(np.uint64))
    bits = bits.reshape(n, words)
    upper = src < g._indices
    u, v = src[upper], g._indices[upper]
    block = max(1, 8192 // words)
    common = 0  # 3 * triangles
    for start in range(0, g.edge_count, block):
        stop = start + block
        common += int(np.bitwise_count(bits[u[start:stop]] & bits[v[start:stop]]).sum())
    return 2 * common / triples2


def compute_metrics(g: Graph) -> GraphMetrics:
    """Bundle density, path statistics, clustering and connectivity."""
    dens = density(g)  # raises for n < 2
    apl, diam, connected = _distance_summary(g)
    return GraphMetrics(
        node_count=g.node_count,
        edge_count=g.edge_count,
        density=dens,
        avg_path_length=apl,
        global_clustering=global_clustering(g),
        diameter=diam,
        connected=connected,
    )
