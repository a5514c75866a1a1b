"""Graph construction and metric tests, checked against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from womlab.generators import MODEL_IDS, default_params, generate
from womlab.graph import (Graph, GraphConstructionError, MetricDomainError,
                          _distance_summary, build_graph, compute_metrics, density,
                          global_clustering, is_connected)

INF = math.inf


def complete_graph(n):
    return build_graph(n, itertools.combinations(range(n), 2))


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def ring_lattice(n, nei):
    return build_graph(n, [(i, (i + j) % n) for i in range(n) for j in range(1, nei + 1)])


# -- oracles ----------------------------------------------------------------


def floyd_warshall(n, edges):
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def oracle_path_stats(g):
    n = g.node_count
    dist = floyd_warshall(n, g.edges())
    finite = [dist[i][j] for i in range(n) for j in range(i + 1, n)]
    if any(d == INF for d in finite):
        return None, None, False
    if not finite:
        return None, 0 if n == 1 else None, True
    return sum(finite) / len(finite), int(max(finite)), True


def neighbors(g, u):
    indptr, indices = g.csr_arrays()
    return indices[indptr[u]:indptr[u + 1]].tolist()


def oracle_clustering(g):
    n = g.node_count
    adj = [set(neighbors(g, i)) for i in range(n)]
    # every triangle a < b < c once, with b and c found among a's neighbors
    triangles = sum(1 for a in range(n) for b, c in itertools.combinations(sorted(adj[a]), 2)
                    if a < b and c in adj[b])
    triples = sum(len(adj[i]) * (len(adj[i]) - 1) // 2 for i in range(n))
    return 3 * triangles / triples if triples else 0.0


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def reference_distance_summary(g):
    """The gather-and-reduceat form of ``_distance_summary``, kept as its reference."""
    n = g.node_count
    if n == 0:
        return None, None, True
    if n == 1:
        return None, 0, True
    indptr, indices = g.csr_arrays()
    words = (n + 63) >> 6
    reach = np.zeros((n, words), dtype=np.uint64)
    ids = np.arange(n)
    reach[ids, ids >> 6] = np.uint64(1) << (ids & 63).astype(np.uint64)
    nnz = len(indices)
    gathered = np.empty((nnz + 1, words), dtype=np.uint64)
    gathered[nnz] = 0
    starts = indptr[:-1].astype(np.intp).copy()
    empty = indptr[:-1] == indptr[1:]
    has_empty = bool(empty.any())
    if has_empty:
        starts[empty] = nnz  # point empty rows at the zero pad
    total_pairs = n * n
    count = int(np.bitwise_count(reach).sum())
    dist_sum = 0
    layer = 0
    while count < total_pairs:
        dist_sum += total_pairs - count
        if nnz:
            np.take(reach, indices, axis=0, out=gathered[:nnz])
            grown = np.bitwise_or.reduceat(gathered, starts, axis=0)
            if has_empty:
                grown[empty] = 0
            np.bitwise_or(grown, reach, out=grown)
        else:
            grown = reach
        new_count = int(np.bitwise_count(grown).sum())
        if new_count == count:
            return None, None, False
        reach = grown
        count = new_count
        layer += 1
    return dist_sum / (n * (n - 1)), layer, True


# -- construction -----------------------------------------------------------


def test_duplicate_pairs_collapse():
    g = build_graph(3, [(0, 1), (1, 2), (1, 0)])
    assert g.edge_count == 2
    assert g.edges() == [(0, 1), (1, 2)]


def test_self_loop_rejected():
    with pytest.raises(GraphConstructionError):
        build_graph(2, [(0, 0)])


def test_negative_node_count_and_non_pair_rows_rejected():
    with pytest.raises(ValueError, match="node_count must be >= 0, got -1"):
        Graph(-1, [])
    with pytest.raises(GraphConstructionError, match=r"\(u, v\) pairs"):
        Graph(3, [(0, 1, 2)])


def test_out_of_range_id_rejected():
    with pytest.raises(GraphConstructionError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphConstructionError):
        build_graph(3, [(-1, 2)])


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 130])
def test_construction_matches_set_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(8):
        pairs = []
        if n >= 2:
            # Some nodes stay isolated; repeats appear in both orientations.
            active = rng.choice(n, size=max(2, 3 * n // 4), replace=False).tolist()
            for _ in range(int(rng.integers(0, 3 * n))):
                u, v = rng.choice(active, size=2, replace=False).tolist()
                pairs.append((u, v))
                if rng.random() < 0.3:
                    pairs.append((v, u) if rng.random() < 0.5 else (u, v))
        edge_set = {(min(u, v), max(u, v)) for u, v in pairs}
        nbrs = {u: set() for u in range(n)}
        for u, v in edge_set:
            nbrs[u].add(v)
            nbrs[v].add(u)
        g = build_graph(n, pairs)
        indptr, indices = g.csr_arrays()
        assert len(indptr) == n + 1
        assert [indices[indptr[u]:indptr[u + 1]].tolist() for u in range(n)] == [
            sorted(nbrs[u]) for u in range(n)]
        assert g.edges() == sorted(edge_set)
        assert g.edge_count == len(edge_set)
        shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        rng.shuffle(shuffled)
        assert build_graph(n, shuffled) == g
        assert build_graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2)) == g
        if edge_set:
            assert build_graph(n, sorted(edge_set)[1:]) != g


def test_complete_graph_k5():
    g = complete_graph(5)
    assert g.edge_count == 10
    assert np.diff(g.csr_arrays()[0]).tolist() == [4] * 5


def test_adjacency_symmetric_and_sorted():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 15))
        g = random_graph(rng, n, float(rng.random()))
        for u in range(n):
            nbrs = neighbors(g, u)
            assert nbrs == sorted(nbrs)
            assert u not in nbrs
            for v in nbrs:
                assert u in neighbors(g, v)


# -- density ----------------------------------------------------------------


def test_density_examples():
    assert density(complete_graph(5)) == 1.0
    assert density(build_graph(10, [])) == 0.0
    lattice = ring_lattice(1000, 5)
    assert lattice.edge_count == 5000
    assert density(lattice) == pytest.approx(10 / 999, abs=1e-12)


def test_density_small_n_error():
    with pytest.raises(MetricDomainError):
        density(build_graph(1, []))


def test_density_complete_graphs_exhaustive():
    for n in range(2, 21):
        assert density(complete_graph(n)) == pytest.approx(1.0, abs=1e-12)


# -- path metrics -----------------------------------------------------------


def test_average_path_length_examples():
    assert _distance_summary(complete_graph(4))[0] == pytest.approx(1.0)
    assert _distance_summary(path_graph(3))[0] == pytest.approx(4 / 3)
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    assert _distance_summary(star)[0] == pytest.approx(1.6)


def test_diameter_examples():
    assert _distance_summary(complete_graph(4))[1] == 1
    assert _distance_summary(path_graph(5))[1] == 4
    assert _distance_summary(cycle_graph(10))[1] == 5


def test_is_connected_examples():
    assert is_connected(complete_graph(4))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(cycle_graph(10))
    assert is_connected(build_graph(0, []))
    assert is_connected(build_graph(1, []))


def test_disconnected_markers():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert _distance_summary(g) == (None, None, False)


# -- clustering ---------------------------------------------------------------


def test_clustering_examples():
    assert global_clustering(build_graph(0, [])) == 0.0
    assert global_clustering(build_graph(5, [])) == 0.0
    assert global_clustering(complete_graph(3)) == pytest.approx(1.0)
    assert global_clustering(path_graph(3)) == 0.0
    assert global_clustering(ring_lattice(10, 2)) == pytest.approx(0.5)


def test_clustering_closed_form_lattice():
    # 3 (nei - 1) / (2 (2 nei - 1)) for a ring lattice with n >= 4 nei
    for n, nei in ((30, 2), (40, 3), (50, 5)):
        expected = 3 * (nei - 1) / (2 * (2 * nei - 1))
        assert global_clustering(ring_lattice(n, nei)) == pytest.approx(expected)


# -- compute_metrics -----------------------------------------------------------


def test_compute_metrics_k5():
    m = compute_metrics(complete_graph(5))
    assert (m.density, m.avg_path_length, m.global_clustering, m.diameter) == (1.0, 1.0, 1.0, 1)
    assert m.connected and m.node_count == 5 and m.edge_count == 10


def test_compute_metrics_path3():
    m = compute_metrics(path_graph(3))
    assert m.density == pytest.approx(2 / 3)
    assert m.avg_path_length == pytest.approx(4 / 3)
    assert m.global_clustering == 0.0
    assert m.diameter == 2


def test_compute_metrics_disconnected():
    m = compute_metrics(build_graph(4, [(0, 1), (2, 3)]))
    assert not m.connected
    assert m.avg_path_length is None and m.diameter is None


def test_compute_metrics_small_n_error():
    with pytest.raises(MetricDomainError):
        compute_metrics(build_graph(1, []))


# -- oracle equivalence (property suite) ----------------------------------------


def test_path_metrics_match_floyd_warshall_oracle():
    rng = np.random.default_rng(12345)
    for trial in range(100):
        n = int(rng.integers(2, 13))
        g = random_graph(rng, n, float(rng.random()))
        apl, diam, connected = oracle_path_stats(g)
        got_apl, got_diam, got_connected = _distance_summary(g)
        assert is_connected(g) == got_connected == connected, trial
        if connected:
            assert got_apl == pytest.approx(apl, abs=1e-12), trial
            assert got_diam == diam, trial
        else:
            assert got_apl is None and got_diam is None, trial


def test_clustering_matches_enumeration_oracle():
    rng = np.random.default_rng(54321)
    for trial in range(100):
        n = int(rng.integers(2, 13))
        g = random_graph(rng, n, float(rng.random()))
        assert global_clustering(g) == pytest.approx(oracle_clustering(g), abs=1e-12), trial


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_clustering_exact_across_bitset_words(n):
    rng = np.random.default_rng(n)
    for p in (0.05, 0.3, 0.8, 1.0):
        g = random_graph(rng, n, p)
        assert global_clustering(g) == oracle_clustering(g), p


@pytest.mark.parametrize("model", MODEL_IDS)
def test_clustering_exact_on_default_networks(model):
    g = generate(model, default_params(model), 17)
    assert global_clustering(g) == oracle_clustering(g)


@pytest.mark.parametrize("n", [2, 63, 64, 65, 130])
def test_distance_summary_matches_reference_across_bitset_words(n):
    rng = np.random.default_rng(1000 + n)
    for p in (0.0, 0.02, 0.05, 0.3, 1.0):
        g = random_graph(rng, n, p)
        assert _distance_summary(g) == reference_distance_summary(g), p


def star_plus_ring(n):
    # the hub's neighbor slots beyond the first few are held by one row only
    return build_graph(n, [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)])


@pytest.mark.parametrize("g", [
    build_graph(200, [(0, i) for i in range(1, 200)]),
    star_plus_ring(300),
    build_graph(100, [(i, i + 1) for i in range(59)] + [(60, 61)]),  # isolated nodes
    build_graph(130, [(i, (i + 1) % 64) for i in range(64)]
                + [(64 + i, 64 + (i + 1) % 66) for i in range(66)]),  # two rings
    build_graph(70, []),
], ids=["star", "star-ring", "isolated", "disconnected", "edgeless"])
def test_distance_summary_matches_reference_on_shapes(g):
    assert _distance_summary(g) == reference_distance_summary(g)


@pytest.mark.parametrize("model", MODEL_IDS)
def test_distance_summary_matches_reference_on_default_networks(model):
    g = generate(model, default_params(model), 23)
    assert _distance_summary(g) == reference_distance_summary(g)


def test_connected_graph_metric_ordering():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 30))
        g = random_graph(rng, n, 0.4)
        if not is_connected(g):
            continue
        checked += 1
        apl, diam, _ = _distance_summary(g)
        assert 1 <= apl <= diam <= n - 1
