"""Sweep enumeration, execution determinism and aggregation."""

import concurrent.futures.process
import dataclasses
import operator
from functools import reduce

import numpy as np
import pytest

import womlab.sweep
from womlab.generators import (FfParams, GenerationError, SiiParams, WsParams,
                               generate_validated)
from womlab.sweep import (SIM_SEED_XOR, RunRecord, SweepError, SweepGrid, aggregate,
                          enumerate_cells, execute_run, fmt6, run_sweep)

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
    with pytest.raises(ValueError, match="k_values"):
        small_grid(k_values=(1.5,))
    with pytest.raises(ValueError, match="replications"):
        small_grid(replications=0)
    with pytest.raises(ValueError, match="max_retries"):
        small_grid(max_retries=0)
    # Counts are integers, checked here rather than failing in run_sweep.
    with pytest.raises(ValueError, match="replications must be an integer, got 1.5"):
        small_grid(replications=1.5)
    with pytest.raises(ValueError, match="max_retries must be an integer, got 1.5"):
        small_grid(max_retries=1.5)
    grid = small_grid(replications=np.int64(2), max_retries=np.uint8(3))
    assert (type(grid.replications), type(grid.max_retries)) == (int, int)
    assert grid.run_count() == 8
    with pytest.raises(ValueError, match="worker_count"):
        run_sweep(small_grid(), 0)
    with pytest.raises(ValueError):
        SweepGrid(network_model="unknown")
    # The model and its params class too, not in the first run (a pool worker's).
    with pytest.raises(ValueError, match="unknown network model 'nope'"):
        SweepGrid("nope", params=WsParams(n=30, nei=2))
    with pytest.raises(TypeError, match="model 'ws' expects WsParams, got FfParams"):
        SweepGrid("ws", params=FfParams())


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


@pytest.mark.parametrize("axis", ["curious_values", "enthusiastic_values",
                                  "supporter_values", "k_values"])
def test_grid_writes_negative_zero_as_zero(axis):
    # -0.0 + 0.0 is 0.0, so a -0 axis value is the 0 cell, not a cell of its own.
    with pytest.raises(SweepError, match=rf"{axis} values 0\.0 and -0\.0 both print as 0\.000000"):
        small_grid(**{axis: (0.0, -0.0)})
    [value] = getattr(small_grid(**{axis: (-0.0,)}), axis)
    assert fmt6(value) == "0.000000"


# -- execution ------------------------------------------------------------------


def test_scheduling_invariance_one_vs_many_workers(monkeypatch):
    monkeypatch.setattr(womlab.sweep, "_usable_cpus", lambda: 2)  # the pool path on any machine
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
        assert rec.nodes == 80


def test_failed_generation_leaves_no_record_and_does_not_stop_the_sweep():
    # islands that can never connect: every run fails but the sweep finishes
    grid = SweepGrid(network_model="sii",
                     params=SiiParams(n_islands=2, island_size=2, p_in=0.0, n_inter=1),
                     curious_values=(0.5,), enthusiastic_values=(0.5,),
                     supporter_values=(0.0,), k_values=(0.1,),
                     replications=3, base_seed=0, max_retries=2)
    assert run_sweep(grid, worker_count=1) == []
    with pytest.raises(GenerationError):
        execute_run(grid, enumerate_cells(grid)[0])


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
    assert len(records) == grid.run_count()
    assert sum(attempts > 1 for _, attempts in built) >= 5
    edge_sets = [tuple(edges) for edges, _ in built]
    assert len(set(edge_sets)) == len(edge_sets) == 20


def inline_pool(monkeypatch, cpus):
    """Run the pool path in this process on ``cpus`` usable CPUs; returns
    the list of pool sizes requested."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(womlab.sweep, "_usable_cpus", lambda: cpus)
    return sizes


def test_pool_never_exceeds_the_run_count(monkeypatch):
    sizes = inline_pool(monkeypatch, cpus=8)
    one_run = small_grid(curious_values=(0.3,), enthusiastic_values=(0.3,), replications=1)
    two_runs = small_grid(curious_values=(0.3,), enthusiastic_values=(0.3,))
    assert run_sweep(one_run, worker_count=4) == run_sweep(one_run, worker_count=1)
    assert sizes == []
    assert run_sweep(two_runs, worker_count=4) == run_sweep(two_runs, worker_count=1)
    assert sizes == [2]


@pytest.mark.parametrize("cpus,expected", [(1, []), (3, [3])])
def test_pool_never_exceeds_the_usable_cpus(monkeypatch, cpus, expected):
    sizes = inline_pool(monkeypatch, cpus)
    grid = small_grid()
    assert run_sweep(grid, worker_count=5000) == run_sweep(grid, worker_count=1)
    assert sizes == expected


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(womlab.sweep.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(womlab.sweep.os, "cpu_count", lambda: 3)
    assert womlab.sweep._usable_cpus() == 3


def test_execute_run_is_pure():
    grid = small_grid()
    spec = enumerate_cells(grid)[3]
    assert execute_run(grid, spec) == execute_run(grid, spec)


# -- aggregation ------------------------------------------------------------------


# The panel and cell of ``record``'s defaults, as aggregate keys them.
WS_PANEL = ("ws", "0.100000", "0.000000")
MID_CELL = ("0.500000", "0.500000")


def test_aggregate_mean():
    records = [record(0.5), record(0.5, sim_seed=2)]
    [(panel, cells)] = aggregate(records)
    assert panel == WS_PANEL
    assert cells == {MID_CELL: pytest.approx(0.5)}


def test_aggregate_mean_of_distinct_values():
    records = [record(0.0), record(1.0, sim_seed=2)]
    [(_, cells)] = aggregate(records)
    assert cells == {MID_CELL: pytest.approx(0.5)}


def test_aggregate_single_record():
    assert aggregate([record(0.7)]) == [(WS_PANEL, {MID_CELL: 0.7})]


def test_aggregate_empty():
    assert aggregate([]) == []


def test_aggregate_ragged_groups_error():
    records = [record(0.5), record(0.5, sim_seed=2), record(0.9, curious=0.9)]
    with pytest.raises(SweepError, match="ragged"):
        aggregate(records)


def test_aggregate_groups_by_model_and_cell():
    records = [record(0.2), record(0.4, sim_seed=2),
               record(0.6, network_model="ff"), record(0.8, network_model="ff", sim_seed=2)]
    (ff_panel, ff_cells), (ws_panel, ws_cells) = aggregate(records)
    assert (ff_panel[0], ws_panel) == ("ff", WS_PANEL)
    assert ff_cells == {MID_CELL: pytest.approx(0.7)}
    assert ws_cells == {MID_CELL: pytest.approx(0.3)}


def test_aggregate_cell_identity_and_input_order():
    # Two interleaved cells; cell a's k values print alike at 6 decimals.
    a_values, b_values = [0.1, 0.2, 0.3], [0.9, 0.4, 0.6]

    def total(values):  # the README's rule: added in input order from 0
        return reduce(operator.add, values, 0)  # not sum(), compensated from Python 3.12

    assert total(a_values) != total(reversed(a_values))  # the order shows in the bits
    records = []
    for i, (a, b) in enumerate(zip(a_values, b_values)):
        records.append(record(a, k=0.1 + (1e-12 if i % 2 else 0.0), sim_seed=2 * i))
        records.append(record(b, curious=0.9, sim_seed=2 * i + 1))
    [(panel, cells)] = aggregate(records)
    assert panel == WS_PANEL
    assert cells == {MID_CELL: total(a_values) / 3,
                     ("0.900000", "0.500000"): total(b_values) / 3}


def test_aggregate_keeps_signed_zeros_apart():
    # 0.0 == -0.0, but they print differently, so cell_key splits them.
    records = [record(0.2, curious=0.0), record(0.4, curious=-0.0),
               record(0.6, curious=0.0, sim_seed=2), record(0.8, curious=-0.0, sim_seed=2)]
    [(_, cells)] = aggregate(records)
    assert cells == {("0.000000", "0.500000"): (0.2 + 0.6) / 2,
                     ("-0.000000", "0.500000"): (0.4 + 0.8) / 2}


def test_aggregate_output_sorted():
    records = []
    seed = 0
    for k in (0.5, 0.01):
        for cur in (1.0, 0.0):
            for rep in range(2):
                seed += 1
                records.append(record(0.5, k=k, curious=cur, sim_seed=seed))
    panels = aggregate(records)
    assert [panel for panel, _ in panels] == [("ws", "0.010000", "0.000000"),
                                              ("ws", "0.500000", "0.000000")]
    for _, cells in panels:
        assert list(cells) == [("0.000000", "0.500000"), ("1.000000", "0.500000")]


def test_aggregate_k_that_prints_alike_is_one_panel():
    records = [record(0.1 * i, curious=c, enthusiastic=e, sim_seed=i)
               for i, (c, e) in enumerate([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])]
    alike = records[:2] + [dataclasses.replace(r, k=0.1 + 1e-12) for r in records[2:]]
    assert aggregate(alike) == aggregate(records)
