"""Generator contracts: determinism, structural counts, validation, retry."""

import numpy as np
import pytest

from womlab.generators import (FfParams, GenerationError, SiiParams, WsParams,
                               default_params, generate, generate_ff,
                               generate_sii, generate_validated, generate_ws)
from womlab.graph import build_graph, global_clustering, is_connected
from womlab.rng import make_rng


def test_params_validation():
    with pytest.raises(ValueError):
        WsParams(n=10, nei=5, p_rewire=0.1)   # n must exceed 2*nei
    with pytest.raises(ValueError):
        WsParams(n=10, nei=2, p_rewire=1.5)
    with pytest.raises(ValueError):
        FfParams(n=0)
    with pytest.raises(ValueError):
        FfParams(fw_prob=1.0)
    with pytest.raises(ValueError):
        FfParams(ambs=0)
    with pytest.raises(ValueError):
        SiiParams(n_inter=0)
    with pytest.raises(ValueError):
        SiiParams(p_in=-0.1)
    with pytest.raises(ValueError):
        SiiParams(island_size=3, n_inter=10)


@pytest.mark.parametrize("fw_prob,bw_factor", [(0.37, float("nan")), (0.0, float("inf"))],
                         ids=["nan", "zero-times-inf"])
def test_ff_params_reject_nan_burn_parameters(fw_prob, bw_factor):
    with pytest.raises(ValueError):
        FfParams(fw_prob=fw_prob, bw_factor=bw_factor)


@pytest.mark.parametrize("model,params", [
    ("ws", WsParams(n=60, nei=3, p_rewire=0.2)),
    ("ff", FfParams(n=60, fw_prob=0.3, bw_factor=0.9)),
    ("sii", SiiParams(n_islands=4, island_size=12, p_in=0.3, n_inter=2)),
])
def test_determinism_same_seed_same_edges(model, params):
    for seed in (0, 1, 987654321):
        g1 = generate(model, params, seed)
        g2 = generate(model, params, seed)
        assert g1.edges() == g2.edges()
        assert g1.node_count == g2.node_count
    assert generate(model, params, 1).edges() != generate(model, params, 2).edges()


def test_generate_dispatch_errors():
    with pytest.raises(ValueError):
        generate("erdos", WsParams(), 0)
    with pytest.raises(TypeError):
        generate("ws", FfParams(), 0)
    assert isinstance(default_params("ff"), FfParams)
    with pytest.raises(ValueError):
        default_params("nope")


# -- small-world rewiring -----------------------------------------------------


def test_ws_no_rewiring_is_lattice():
    g = generate_ws(WsParams(n=12, nei=2, p_rewire=0.0), seed=5)
    expected = sorted((min(i, (i + j) % 12), max(i, (i + j) % 12))
                      for i in range(12) for j in (1, 2))
    assert g.edges() == sorted(set(expected))
    assert np.diff(g.csr_arrays()[0]).tolist() == [4] * 12
    assert global_clustering(g) == pytest.approx(0.5)


def test_ws_lattice_clustering_closed_form():
    for nei in (2, 3, 5):
        g = generate_ws(WsParams(n=6 * nei, nei=nei, p_rewire=0.0), seed=1)
        expected = 3 * (nei - 1) / (2 * (2 * nei - 1))
        assert global_clustering(g) == pytest.approx(expected)


def test_ws_edge_count_invariant_under_rewiring():
    for seed in range(10):
        for p in (0.0, 0.055, 0.3, 1.0):
            g = generate_ws(WsParams(n=120, nei=4, p_rewire=p), seed)
            assert g.edge_count == 120 * 4
            assert g.node_count == 120


def reference_ws(params, seed):
    """The all-coins loop form of ``generate_ws``, kept as its draw-order reference."""
    n, nei, p = params.n, params.nei, params.p_rewire
    rng = make_rng(seed)
    m = n * nei
    u_list = [i for i in range(n) for _ in range(nei)]
    v_list = [(i + j) % n for i in range(n) for j in range(1, nei + 1)]
    adj = [set() for _ in range(n)]
    for k in range(m):
        adj[u_list[k]].add(v_list[k])
        adj[v_list[k]].add(u_list[k])
    coins = rng.random(2 * m)
    for k in range(m):
        for trial in (0, 1):
            if coins[2 * k + trial] >= p:
                continue
            if trial == 0:
                anchor, moved = u_list[k], v_list[k]
            else:
                anchor, moved = v_list[k], u_list[k]
            for _ in range(100):
                t = int(rng.integers(0, n))
                if t == anchor or t in adj[anchor]:
                    continue
                adj[anchor].remove(moved)
                adj[moved].remove(anchor)
                adj[anchor].add(t)
                adj[t].add(anchor)
                if trial == 0:
                    v_list[k] = t
                else:
                    u_list[k] = t
                break
    return build_graph(n, list(zip(u_list, v_list)))


@pytest.mark.parametrize("params", [
    WsParams(p_rewire=0.0),
    WsParams(),
    WsParams(p_rewire=0.5),
    WsParams(p_rewire=1.0),
    WsParams(n=11, nei=5, p_rewire=0.5),  # complete: every rewire exhausts its attempts
], ids=["p0", "defaults", "p0.5", "p1", "complete"])
def test_ws_matches_reference_draw_for_draw(params):
    for seed in range(30):
        assert generate_ws(params, seed) == reference_ws(params, seed), seed


def test_ws_default_size_density():
    g = generate_ws(WsParams(), seed=3)
    assert g.edge_count == 5000
    from womlab.graph import density
    assert f"{density(g):.6f}" == "0.010010"


# -- forest-fire growth -------------------------------------------------------


def test_ff_zero_burning_gives_tree():
    g = generate_ff(FfParams(n=50, fw_prob=0.0, bw_factor=0.0, ambs=1), seed=9)
    assert g.node_count == 50
    assert g.edge_count == 49
    assert is_connected(g)


def test_ff_connected_for_every_seed():
    for seed in range(30):
        g = generate_ff(FfParams(n=200), seed)
        assert g.node_count == 200
        assert is_connected(g)


def test_ff_multiple_ambassadors():
    g = generate_ff(FfParams(n=40, fw_prob=0.0, bw_factor=0.0, ambs=3), seed=2)
    # nodes 1 and 2 cannot reach 3 ambassadors yet; later nodes always do
    assert g.edge_count == 1 + 2 + 3 * 37
    assert is_connected(g)


def _geometric_minus_one(rng, p):
    if p <= 0.0:
        return 0
    return int(rng.geometric(1.0 - p)) - 1


class WholeWordStream:
    """A seed's numpy ``Generator`` with only ``bit_generator``, ``random``
    and ``geometric``: the draws that read whole raw words."""

    def __init__(self, seed):
        rng = make_rng(seed)
        self.bit_generator, self.random, self.geometric = (rng.bit_generator, rng.random,
                                                           rng.geometric)


def reference_ff(params, seed):
    """The original loop form of ``generate_ff``, kept as its draw-order reference."""
    n, p, ambs = params.n, params.fw_prob, params.ambs
    pb = p * params.bw_factor
    rng = make_rng(seed)
    edges = []
    out_adj = [[] for _ in range(n)]
    in_adj = [[] for _ in range(n)]
    visited = np.full(n, -1, dtype=np.int64)  # stamp of the arrival that burned the node
    for a in range(1, n):
        visited[a] = a
        k = min(ambs, a)
        queue = []
        while len(queue) < k:
            b = int(rng.integers(0, a))
            if visited[b] == a:
                continue
            visited[b] = a
            out_adj[a].append(b)
            in_adj[b].append(a)
            edges.append((a, b))
            queue.append(b)
        head = 0
        while head < len(queue):
            b = queue[head]
            head += 1
            n_fwd = _geometric_minus_one(rng, p)
            n_bwd = len(in_adj[b]) if pb >= 1.0 else _geometric_minus_one(rng, pb)
            for candidates, want in ((out_adj[b], n_fwd), (in_adj[b], n_bwd)):
                if want <= 0:
                    continue
                fresh = [w for w in candidates if visited[w] != a]
                if not fresh:
                    continue
                if want >= len(fresh):
                    chosen = fresh
                else:
                    picks = rng.choice(len(fresh), size=want, replace=False)
                    chosen = [fresh[int(i)] for i in picks]
                for w in chosen:
                    visited[w] = a
                    out_adj[a].append(w)
                    in_adj[w].append(a)
                    edges.append((a, w))
                    queue.append(w)
    return build_graph(n, edges)


@pytest.mark.parametrize("params", [
    FfParams(),
    FfParams(ambs=3, n=300),
    FfParams(fw_prob=0.0),
    FfParams(fw_prob=0.5, bw_factor=2.0, n=150),  # pb >= 1 burns every in-neighbor
    FfParams(n=1),
    FfParams(bw_factor=0.0),  # forward draws, no backward draw
    # Forward success 1 - 2/3 is one ulp above GEOMETRIC_SEARCH_MIN_P: still replayed.
    FfParams(fw_prob=2 / 3, n=150),
    # Geometric success below 1/3: counts come from numpy's own geometric.
    FfParams(fw_prob=0.8, n=150),
    FfParams(fw_prob=0.6, bw_factor=1.5, n=150),
], ids=["defaults", "ambs3", "tree", "burn-all-in", "n1", "no-bwd", "min-p-fwd",
        "numpy-fwd", "numpy-bwd"])
def test_ff_matches_reference_draw_for_draw(monkeypatch, params):
    # generate_ff gets a stream with no integers or choice: every such draw
    # is replayed, on every parameter set.
    monkeypatch.setattr("womlab.generators.make_rng", WholeWordStream)
    for seed in range(30):
        assert generate_ff(params, seed) == reference_ff(params, seed), seed


# -- interconnected islands -----------------------------------------------------


def reference_sii(params, seed):
    """The numpy-draw form of ``generate_sii``, kept as its draw-order reference."""
    k, size, p_in, n_inter = (params.n_islands, params.island_size,
                              params.p_in, params.n_inter)
    rng = make_rng(seed)
    iu, iv = np.triu_indices(size, k=1)
    edges = []
    for g in range(k):
        hit = rng.random(len(iu)) < p_in
        edges.extend(zip((iu[hit] + g * size).tolist(), (iv[hit] + g * size).tolist()))
    for g in range(k):
        for h in range(g + 1, k):
            seen = set()
            while len(seen) < n_inter:
                a = g * size + int(rng.integers(0, size))
                b = h * size + int(rng.integers(0, size))
                if (a, b) not in seen:
                    seen.add((a, b))
                    edges.append((a, b))
    return build_graph(k * size, edges)


@pytest.mark.parametrize("params", [
    SiiParams(),
    SiiParams(n_islands=6, island_size=5, p_in=0.5, n_inter=20),  # many resampled pairs
    SiiParams(n_islands=3, island_size=1, p_in=0.5, n_inter=1),   # integers(0, 1): no draw
    SiiParams(n_islands=1, island_size=30, p_in=0.3, n_inter=1),  # coins only
], ids=["defaults", "dense-inter", "singletons", "one-island"])
def test_sii_matches_reference_draw_for_draw(params):
    for seed in range(30):
        assert generate_sii(params, seed) == reference_sii(params, seed), seed


def test_sii_default_node_count():
    g = generate_sii(SiiParams(), seed=0)
    assert g.node_count == 1008


def test_sii_inter_island_edge_count_exact():
    params = SiiParams(n_islands=24, island_size=42, p_in=0.235, n_inter=1)
    for seed in (0, 5):
        g = generate_sii(params, seed)
        size = params.island_size
        inter = sum(1 for u, v in g.edges() if u // size != v // size)
        assert inter == 24 * 23 // 2


def test_sii_inter_count_multi_link():
    params = SiiParams(n_islands=3, island_size=6, p_in=0.0, n_inter=4)
    g = generate_sii(params, seed=7)
    assert g.edge_count == 3 * 4  # three island pairs, all links inter-island


def test_sii_full_islands_are_complete():
    g = generate_sii(SiiParams(n_islands=3, island_size=4, p_in=1.0, n_inter=1), seed=1)
    for island in range(3):
        base = island * 4
        for a in range(4):
            for b in range(a + 1, 4):
                assert base + b in g.neighbors(base + a)


# -- validated generation ---------------------------------------------------------


def test_generate_validated_first_try():
    g, metrics, attempts = generate_validated("sii", SiiParams(n_islands=3, island_size=8,
                                                               p_in=0.6, n_inter=2), seed=4)
    assert attempts == 1
    assert metrics.connected
    assert metrics.node_count == g.node_count == 24


def test_generate_validated_ws_defaults_succeed():
    for seed in range(0, 100, 10):
        g, metrics, attempts = generate_validated("ws", WsParams(), seed)
        assert metrics.connected
        assert attempts <= 10


def test_generate_validated_exhausts_retries():
    # Two islands of two nodes, no intra wiring, one inter link: always
    # leaves two isolated nodes, so every attempt is disconnected.
    params = SiiParams(n_islands=2, island_size=2, p_in=0.0, n_inter=1)
    with pytest.raises(GenerationError, match="sii"):
        generate_validated("sii", params, seed=0, max_retries=3)


def test_generate_validated_retry_counts_attempts():
    params = SiiParams(n_islands=2, island_size=30, p_in=0.05, n_inter=1)
    attempts_seen = set()
    failures = 0
    for seed in range(40):
        try:
            _, _, attempts = generate_validated("sii", params, seed, max_retries=10)
            attempts_seen.add(attempts)
        except GenerationError:
            failures += 1
    # sparse islands disconnect often enough that the retry path must fire
    assert failures or (attempts_seen and max(attempts_seen) > 1)


def test_generate_validated_bad_retries():
    with pytest.raises(ValueError):
        generate_validated("ws", WsParams(), 0, max_retries=0)
