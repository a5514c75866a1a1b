"""Sweep enumeration, execution determinism and aggregation."""

import math

import pytest

import womlab.sweep
from womlab.generators import SiiParams, WsParams, generate_validated
from womlab.sweep import (SIM_SEED_XOR, CellSummary, RunRecord, SweepError,
                          SweepGrid, aggregate, enumerate_cells, execute_run,
                          failure_count, run_sweep)

SMALL_WS = WsParams(n=80, nei=3, p_rewire=0.1)


def small_grid(**overrides):
    kwargs = dict(network_model="ws", params=SMALL_WS,
                  curious_values=(0.2, 0.8), enthusiastic_values=(0.2, 0.8),
                  supporter_values=(0.0,), k_values=(0.1,),
                  replications=2, base_seed=5)
    kwargs.update(overrides)
    return SweepGrid(**kwargs)


def record(cell_value, **overrides):
    kwargs = dict(network_model="ws", network_seed=0, sim_seed=1, k=0.1,
                  curious=0.5, enthusiastic=0.5, supporters=0.0,
                  final_aware=cell_value, final_both=cell_value, rounds=10,
                  hit_max_rounds=False, nodes=10, edges=20, density=0.4,
                  avg_path_length=1.5, clustering=0.2, diameter=3)
    kwargs.update(overrides)
    return RunRecord(**kwargs)


# -- enumeration ---------------------------------------------------------------


def test_default_grid_run_count():
    grid = SweepGrid(network_model="ws")
    assert grid.run_count() == 21 * 21 * 3 * 3 * 10 == 39690
    assert len(enumerate_cells(grid)) == 39690


def test_single_cell_single_replicate():
    grid = small_grid(curious_values=(0.3,), enthusiastic_values=(0.3,),
                      replications=1)
    specs = enumerate_cells(grid)
    assert len(specs) == 1
    assert specs[0].network_seed == 5
    assert specs[0].sim_seed == 5 ^ SIM_SEED_XOR


def test_replicates_get_distinct_seed_pairs():
    grid = small_grid(curious_values=(0.3,), enthusiastic_values=(0.3,),
                      replications=10)
    specs = enumerate_cells(grid)
    assert len({(s.network_seed, s.sim_seed) for s in specs}) == 10


def test_enumeration_order_lexicographic():
    grid = small_grid(k_values=(0.01, 0.5), supporter_values=(0.0, 0.1),
                      curious_values=(0.0, 1.0), enthusiastic_values=(0.0, 1.0),
                      replications=2)
    specs = enumerate_cells(grid)
    keys = [(s.k, s.supporters, s.curious, s.enthusiastic) for s in specs]
    assert keys == sorted(keys)
    assert len(set(keys)) == 16 and keys[::2] == keys[1::2]  # a cell's 2 replicates adjacent
    assert [s.index for s in specs] == list(range(len(specs)))
    assert [s.network_seed for s in specs] == [5 + i for i in range(len(specs))]


def test_seed_injectivity_across_sweep():
    grid = small_grid(replications=5)
    specs = enumerate_cells(grid)
    pairs = {(s.network_seed, s.sim_seed) for s in specs}
    assert len(pairs) == len(specs)


def test_grid_validation():
    with pytest.raises(SweepError):
        small_grid(curious_values=())
    with pytest.raises(SweepError):
        small_grid(k_values=(1.5,))
    with pytest.raises(SweepError):
        small_grid(replications=0)
    with pytest.raises(ValueError):
        SweepGrid(network_model="unknown")


@pytest.mark.parametrize("axis", ["curious_values", "enthusiastic_values",
                                  "supporter_values", "k_values"])
@pytest.mark.parametrize("values", [(0.5, 0.5), (0.5, 0.2, 0.5000000001)],
                         ids=["exact", "near"])
def test_grid_rejects_axis_values_that_print_alike(axis, values):
    # Both would run as separate cells that aggregate merges into one.
    with pytest.raises(SweepError, match=rf"{axis} values 0\.5 and {values[-1]!r} both "
                                         r"print as 0\.500000"):
        small_grid(**{axis: values})
    small_grid(**{axis: (0.5, 0.500001)})  # 6 decimals apart is fine


# -- execution ------------------------------------------------------------------


def test_scheduling_invariance_one_vs_many_workers():
    grid = small_grid()
    sequential = run_sweep(grid, worker_count=1)
    parallel = run_sweep(grid, worker_count=2)
    assert sequential == parallel
    assert len(sequential) == grid.run_count() == 8


def test_records_follow_enumeration_order():
    grid = small_grid()
    records = run_sweep(grid, worker_count=1)
    specs = enumerate_cells(grid)
    for spec, rec in zip(specs, records):
        assert rec.network_seed == spec.network_seed
        assert rec.sim_seed == spec.sim_seed
        assert (rec.k, rec.supporters, rec.curious, rec.enthusiastic) == (
            spec.k, spec.supporters, spec.curious, spec.enthusiastic)
        assert not rec.failed
        assert rec.nodes == 80


def test_failed_generation_is_flagged_not_fatal():
    # islands that can never connect: every run fails but the sweep finishes
    grid = SweepGrid(network_model="sii",
                     params=SiiParams(n_islands=2, island_size=2, p_in=0.0, n_inter=1),
                     curious_values=(0.5,), enthusiastic_values=(0.5,),
                     supporter_values=(0.0,), k_values=(0.1,),
                     replications=3, base_seed=0, max_retries=2)
    records = run_sweep(grid, worker_count=1)
    assert len(records) == 3
    assert failure_count(records) == 3
    assert all(r.failed for r in records)


def test_retried_runs_never_share_a_network(monkeypatch):
    # Sparse islands disconnect often, so several runs retry; a retry seed
    # must not be the next run's seed, or both runs get one network.
    built = []

    def recording(model, params, seed, max_retries):
        graph, metrics, attempts = generate_validated(model, params, seed, max_retries)
        built.append((graph.edges(), attempts))
        return graph, metrics, attempts

    monkeypatch.setattr(womlab.sweep, "generate_validated", recording)
    grid = SweepGrid(network_model="sii",
                     params=SiiParams(n_islands=4, island_size=8, p_in=0.35, n_inter=1),
                     curious_values=(0.5,), enthusiastic_values=(0.5,),
                     supporter_values=(0.0,), k_values=(0.1,),
                     replications=20, base_seed=0)
    records = run_sweep(grid, worker_count=1)
    assert failure_count(records) == 0
    assert sum(attempts > 1 for _, attempts in built) >= 5
    edge_sets = [tuple(edges) for edges, _ in built]
    assert len(set(edge_sets)) == len(edge_sets) == 20


def test_pool_never_exceeds_the_run_count(monkeypatch):
    sizes = []

    class InlinePool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize):
            return map(func, iterable)

    monkeypatch.setattr(womlab.sweep.multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(womlab.sweep, "_WORKER_GRID", None)
    one_run = small_grid(curious_values=(0.3,), enthusiastic_values=(0.3,), replications=1)
    two_runs = small_grid(curious_values=(0.3,), enthusiastic_values=(0.3,))
    assert run_sweep(one_run, worker_count=4) == run_sweep(one_run, worker_count=1)
    assert sizes == []
    assert run_sweep(two_runs, worker_count=4) == run_sweep(two_runs, worker_count=1)
    assert sizes == [2]


def test_execute_run_is_pure():
    grid = small_grid()
    spec = enumerate_cells(grid)[3]
    assert execute_run(grid, spec) == execute_run(grid, spec)


# -- aggregation ------------------------------------------------------------------


def test_aggregate_mean_sd():
    records = [record(0.5), record(0.5, sim_seed=2)]
    [summary] = aggregate(records)
    assert summary.mean_final_both == pytest.approx(0.5)
    assert summary.sd_final_both == 0.0
    assert summary.n == 2


def test_aggregate_sd_formula():
    records = [record(0.0), record(1.0, sim_seed=2)]
    [summary] = aggregate(records)
    assert summary.mean_final_both == pytest.approx(0.5)
    assert summary.sd_final_both == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_aggregate_single_record_sd_zero():
    [summary] = aggregate([record(0.7)])
    assert summary.sd_final_both == 0.0
    assert summary.n == 1


def test_aggregate_empty():
    assert aggregate([]) == []


def test_aggregate_ragged_groups_error():
    records = [record(0.5), record(0.5, sim_seed=2), record(0.9, curious=0.9)]
    with pytest.raises(SweepError, match="ragged"):
        aggregate(records)


def test_aggregate_rejects_failed_records():
    with pytest.raises(SweepError, match="failed"):
        aggregate([record(0.5, failed=True)])


def test_aggregate_groups_by_model_and_cell():
    records = [record(0.2), record(0.4, sim_seed=2),
               record(0.6, network_model="ff"), record(0.8, network_model="ff", sim_seed=2)]
    summaries = aggregate(records)
    assert [s.network_model for s in summaries] == ["ff", "ws"]
    assert summaries[0].mean_final_both == pytest.approx(0.7)
    assert summaries[1].mean_final_both == pytest.approx(0.3)


def test_aggregate_cell_identity_and_input_order():
    # Two interleaved cells; cell a's k values print alike at 6 decimals.
    a_values, b_values = [0.1, 0.2, 0.3], [0.9, 0.4, 0.6]
    assert sum(a_values) != sum(reversed(a_values))  # the order shows in the bits
    records = []
    for i, (a, b) in enumerate(zip(a_values, b_values)):
        records.append(record(a, k=0.1 + (1e-12 if i % 2 else 0.0), sim_seed=2 * i))
        records.append(record(b, curious=0.9, sim_seed=2 * i + 1))
    cell_a, cell_b = aggregate(records)
    assert (cell_a.k, cell_a.curious, cell_b.curious) == (0.1, 0.5, 0.9)
    assert cell_a.n == cell_b.n == 3
    assert cell_a.mean_final_both == cell_a.mean_final_aware == sum(a_values) / 3
    assert cell_b.mean_final_both == cell_b.mean_final_aware == sum(b_values) / 3


def test_aggregate_keeps_signed_zeros_apart():
    # 0.0 == -0.0, but they print differently, so cell_key splits them.
    records = [record(0.2, curious=0.0), record(0.4, curious=-0.0),
               record(0.6, curious=0.0, sim_seed=2), record(0.8, curious=-0.0, sim_seed=2)]
    summaries = aggregate(records)
    assert [(str(s.curious), s.n, s.mean_final_both) for s in summaries] == [
        ("0.0", 2, (0.2 + 0.6) / 2), ("-0.0", 2, (0.4 + 0.8) / 2)]


def test_aggregate_output_sorted():
    records = []
    seed = 0
    for k in (0.5, 0.01):
        for cur in (1.0, 0.0):
            for rep in range(2):
                seed += 1
                records.append(record(0.5, k=k, curious=cur, sim_seed=seed))
    summaries = aggregate(records)
    keys = [(s.network_model, s.k, s.supporters, s.curious, s.enthusiastic)
            for s in summaries]
    assert keys == sorted(keys)
