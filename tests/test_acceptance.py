"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria 1-2 check the generator families against their statistical
envelopes; 3-6 check the qualitative diffusion claims on the frozen
model defaults; 7 bundles the always-on property suites; 8 is the
performance target for a full default grid.  Heavy shared artifacts
(30-seed generator statistics) are computed once per session.
"""

import resource
import time

import numpy as np
import pytest

from womlab.generators import FfParams, SiiParams, WsParams, generate, generate_validated
from womlab.graph import build_graph, is_connected
from womlab.model import IGNORANT, SEEKING, UNAWARE, SimConfig, init_population, step
from womlab.reporting import (read_graphml, read_records_csv, records_csv_string,
                              write_graphml, write_records_csv)
from womlab.sweep import SweepGrid, aggregate, run_sweep

from test_graph import oracle_clustering, oracle_path_stats, random_graph
from test_model import agent_lists

SEEDS = 30
BASE_SEED = 424242


def _verdict(cid: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} ({detail})")


def _mean(values):
    return float(np.mean(values))


@pytest.fixture(scope="session")
def generator_stats():
    """Metrics of 30 validated networks per family, plus the elapsed time."""
    start = time.perf_counter()
    stats = {}
    for model, params in (("ws", WsParams()), ("ff", FfParams()), ("sii", SiiParams())):
        metrics = []
        for i in range(SEEDS):
            _, m, _ = generate_validated(model, params, BASE_SEED + 1000 * i)
            metrics.append(m)
        stats[model] = metrics
    return stats, time.perf_counter() - start


def cell_grid(model, params, k, curious, enthusiastic, supporters, reps):
    return SweepGrid(network_model=model, params=params,
                     curious_values=(curious,), enthusiastic_values=(enthusiastic,),
                     supporter_values=(supporters,), k_values=(k,),
                     replications=reps, base_seed=BASE_SEED)


def cell_mean(model, params, k, curious, enthusiastic, supporters, reps=10):
    grid = cell_grid(model, params, k, curious, enthusiastic, supporters, reps)
    records = run_sweep(grid, worker_count=2)
    assert len(records) == grid.run_count()
    return _mean([r.final_both for r in records])


# -- criterion 1: generator envelopes -----------------------------------------


def test_c1_generator_envelopes(generator_stats):
    stats, elapsed = generator_stats
    ws, ff, sii = stats["ws"], stats["ff"], stats["sii"]

    ws_density_exact = all(f"{m.density:.6f}" == "0.010010" and m.edge_count == 5000
                           for m in ws)
    ws_apl = _mean([m.avg_path_length for m in ws])
    ws_clu = _mean([m.global_clustering for m in ws])

    sii_nodes = all(m.node_count == 1008 for m in sii)
    sii_density = _mean([m.density for m in sii])
    sii_apl = _mean([m.avg_path_length for m in sii])
    sii_clu = _mean([m.global_clustering for m in sii])

    ff_density = _mean([m.density for m in ff])
    ff_apl = _mean([m.avg_path_length for m in ff])
    ff_clu = _mean([m.global_clustering for m in ff])

    checks = {
        "ws density exact": ws_density_exact,
        "ws apl": 4.1 <= ws_apl <= 4.7,
        "ws clustering": 0.45 <= ws_clu <= 0.49,
        "sii 1008 nodes": sii_nodes,
        "sii density": 0.008 <= sii_density <= 0.012,
        "sii apl": 4.2 <= sii_apl <= 4.5,
        "sii clustering": 0.11 <= sii_clu <= 0.31,
        "ff density": 0.005 <= ff_density <= 0.015,
        "ff apl": 3.7 <= ff_apl <= 4.6,
        "ff clustering": 0.06 <= ff_clu <= 0.46,
        "runtime < 5 min": elapsed < 300,
    }
    detail = (f"ws apl {ws_apl:.2f} clu {ws_clu:.3f}; "
              f"sii dens {sii_density:.4f} apl {sii_apl:.2f} clu {sii_clu:.3f}; "
              f"ff dens {ff_density:.4f} apl {ff_apl:.2f} clu {ff_clu:.3f}; "
              f"{elapsed:.0f}s")
    _verdict("C1 generator envelopes", all(checks.values()), detail)
    assert all(checks.values()), {k: v for k, v in checks.items() if not v}


# -- criterion 2: diameter contrast ---------------------------------------------


def test_c2_diameter_contrast(generator_stats):
    stats, _ = generator_stats
    ws_diam = _mean([m.diameter for m in stats["ws"]])
    ff_diam = _mean([m.diameter for m in stats["ff"]])
    sii_diam = _mean([m.diameter for m in stats["sii"]])
    ok = (ff_diam >= ws_diam + 4 and ff_diam >= sii_diam + 4
          and 5 <= ws_diam <= 9 and 5 <= sii_diam <= 9)
    _verdict("C2 diameter contrast", ok,
             f"ws {ws_diam:.1f}, sii {sii_diam:.1f}, ff {ff_diam:.1f}")
    assert ok


# -- criterion 3: efficiency headline ---------------------------------------------


def test_c3_efficiency_headline():
    ws = cell_mean("ws", WsParams(), 0.01, 0.3, 0.3, 0.0)
    sii = cell_mean("sii", SiiParams(), 0.01, 0.3, 0.3, 0.0)
    ff = cell_mean("ff", FfParams(), 0.01, 0.3, 0.3, 0.0)
    ok = ws > 0.9 and sii > 0.9 and ff < ws
    _verdict("C3 efficiency headline", ok,
             f"ws {ws:.3f} > 0.9, sii {sii:.3f} > 0.9, ff {ff:.3f} < ws")
    assert ok


# -- criterion 4: threshold and asymmetry -----------------------------------------


def test_c4_threshold_and_asymmetry():
    worst = {}
    for model, params in (("ws", WsParams()), ("ff", FfParams()), ("sii", SiiParams())):
        grid = SweepGrid(network_model=model, params=params,
                         curious_values=(0.0,),
                         supporter_values=(0.0,), k_values=(0.01,),
                         replications=10, base_seed=BASE_SEED)
        records = run_sweep(grid, worker_count=2)
        assert len(records) == grid.run_count()
        cells = aggregate(records)
        assert len(cells) == 21
        worst[model] = max(c.mean_final_both for c in cells)
    dark = all(v < 0.1 for v in worst.values())

    ignition = cell_mean("ws", WsParams(), 0.01, 0.15, 1.0, 0.0)
    ok = dark and ignition > 0.8
    _verdict("C4 threshold and asymmetry", ok,
             f"curious=0 worst {max(worst.values()):.4f} < 0.1; "
             f"cell (0.15, 1.0) = {ignition:.3f} > 0.8")
    assert ok


# -- criterion 5: supporter regime -------------------------------------------------


def test_c5_supporter_regime():
    start = time.perf_counter()
    axis = (0.0, 0.25, 0.5, 0.75, 1.0)
    diffs = {}
    for k in (0.01, 0.5):
        grid = SweepGrid(network_model="ws", params=WsParams(),
                         curious_values=axis, enthusiastic_values=axis,
                         supporter_values=(0.0, 0.5), k_values=(k,),
                         replications=5, base_seed=BASE_SEED)
        records = run_sweep(grid, worker_count=2)
        assert len(records) == grid.run_count()
        means = {s: _mean([r.final_both for r in records if r.supporters == s])
                 for s in (0.0, 0.5)}
        diffs[k] = abs(means[0.5] - means[0.0])
    elapsed = time.perf_counter() - start
    ok = diffs[0.01] < 0.05 and diffs[0.5] > 0.05 and elapsed < 1800
    _verdict("C5 supporter regime", ok,
             f"|diff| k=0.01: {diffs[0.01]:.4f} < 0.05, k=0.5: {diffs[0.5]:.4f} > 0.05, "
             f"{elapsed:.0f}s")
    assert ok


# -- criterion 6: non-monotone k ----------------------------------------------------


def test_c6_nonmonotone_k():
    mid = cell_mean("ws", WsParams(), 0.1, 0.3, 0.3, 0.0)
    high = cell_mean("ws", WsParams(), 0.5, 0.3, 0.3, 0.0)
    ok = mid > high
    _verdict("C6 non-monotone k", ok, f"k=0.1 {mid:.3f} > k=0.5 {high:.3f}")
    assert ok


# -- criterion 7: property suites ----------------------------------------------------


def test_c7_property_suites(tmp_path, monkeypatch):
    rng = np.random.default_rng(1771)

    # graph metrics vs brute-force oracles, 100 random graphs <= 12 nodes
    from womlab.graph import _distance_summary, global_clustering
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 13)), float(rng.random()))
        apl, diam, connected = oracle_path_stats(g)
        assert is_connected(g) == connected
        if connected:
            got_apl, got_diam, _ = _distance_summary(g)
            assert got_apl == pytest.approx(apl, abs=1e-12)
            assert got_diam == diam
        assert global_clustering(g) == pytest.approx(oracle_clustering(g), abs=1e-12)

    # state machine legality/monotonicity/quiescence on 50-node graphs
    from womlab.generators import generate_ws
    for trial in range(200):
        g = generate_ws(WsParams(n=50, nei=2, p_rewire=0.2), int(rng.integers(0, 2**32)))
        cfg = SimConfig(k=float(rng.choice([0.0, 0.05, 0.3, 1.0])),
                        p_curious=float(rng.random()),
                        p_enthusiastic=float(rng.random()),
                        p_supporter=float(rng.random()),
                        ad_rounds=int(rng.integers(0, 4)), ad_share=0.05,
                        t_promote=int(rng.integers(0, 6)), max_rounds=300,
                        seed=int(rng.integers(0, 2**32)))
        w = init_population(g, cfg)
        aware_prev, expert_prev = set(), {i for i in range(50) if w.expertise[i] != IGNORANT}
        while w.round < cfg.max_rounds and not w.is_quiescent():
            step(w)
            aware_now = {i for i in range(50) if w.awareness[i] != UNAWARE}
            expert_now = {i for i in range(50) if w.expertise[i] != IGNORANT}
            assert aware_prev <= aware_now and expert_prev <= expert_now
            aware_prev, expert_prev = aware_now, expert_now
            for i in range(50):
                if w.awareness[i] == SEEKING:
                    assert w.curious[i] and w.expertise[i] == IGNORANT
        assert w.is_quiescent()
        snapshot = agent_lists(w)
        step(w)
        assert agent_lists(w) == snapshot

    # GraphML and records-CSV round-trips
    g = generate("ff", FfParams(n=80), 3)
    path = tmp_path / "net.graphml"
    write_graphml(g, path)
    assert read_graphml(path).edges() == g.edges()
    grid = SweepGrid(network_model="ws", params=WsParams(n=80, nei=3, p_rewire=0.1),
                     curious_values=(0.2, 0.8), enthusiastic_values=(0.2, 0.8),
                     supporter_values=(0.0,), k_values=(0.1,), replications=2,
                     base_seed=5)
    records = run_sweep(grid, worker_count=1)
    csv_path = tmp_path / "records.csv"
    write_records_csv(records, csv_path)
    back = read_records_csv(csv_path)
    assert records_csv_string(back) == records_csv_string(records)

    # scheduling invariance on the 4-cell grid, jobs=1 vs jobs=8; two
    # usable CPUs, so even a one-CPU machine runs the pool path
    monkeypatch.setattr("womlab.sweep._usable_cpus", lambda: 2)
    f1 = records_csv_string(run_sweep(grid, worker_count=1))
    f8 = records_csv_string(run_sweep(grid, worker_count=8))
    assert f1 == f8

    _verdict("C7 property suites", True,
             "oracle equivalence, state-machine invariants, round-trips, scheduling")


# -- criterion 8: performance --------------------------------------------------------


@pytest.mark.slow
def test_c8_full_grid_performance(tmp_path):
    grid = SweepGrid(network_model="ws", base_seed=BASE_SEED)
    assert grid.run_count() == 39690
    start = time.perf_counter()
    records = run_sweep(grid, worker_count=8)
    elapsed = time.perf_counter() - start
    assert len(records) == 39690
    write_records_csv(records, tmp_path / "ws_grid.csv")
    self_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 / 1024
    child_gb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 / 1024
    peak_gb = self_gb + 8 * child_gb
    ok = elapsed < 1800 and peak_gb < 2.0
    _verdict("C8 full grid performance", ok,
             f"39690 runs in {elapsed:.0f}s (< 1800), "
             f"peak rss bound {peak_gb:.2f} GB (< 2)")
    assert ok
