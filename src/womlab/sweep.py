"""Deterministic parameter-grid execution and per-cell aggregation.

A sweep enumerates the Cartesian grid (k x supporters x curious x
enthusiastic) with a fixed number of replicates per cell.  Every run
gets its own derived seed pair, generates a fresh validated network,
simulates, and yields one flat :class:`RunRecord`; the output order is
the enumeration order no matter how many workers executed the runs, so
a sweep is bit-reproducible for any worker count.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .generators import GenerationError, _generator, default_params, generate_validated
from .graph import GraphMetrics
from .model import SimConfig, SimResult, run
from .rng import SEED_MASK, check_count, check_seed, check_share, store_counts

# XOR-ed onto the network seed to name the simulation stream of a run.
SIM_SEED_XOR = 0x9E3779B97F4A7C15

DEFAULT_TRAIT_AXIS = tuple(i / 20 for i in range(21))
DEFAULT_SUPPORTER_VALUES = (0.0, 0.1, 0.5)
DEFAULT_K_VALUES = (0.01, 0.1, 0.5)


class SweepError(ValueError):
    """Invalid sweep definition or aggregation input."""


@dataclass
class SweepGrid:
    """Experiment design for one network model.

    Axis defaults span the full exploration: curious and enthusiastic
    from 0 to 1 in steps of 0.05, supporters in {0, 0.1, 0.5}, initial
    expertise k in {0.01, 0.1, 0.5}, and 10 replicates per cell.
    """

    network_model: str
    params: object = None
    curious_values: tuple[float, ...] = DEFAULT_TRAIT_AXIS
    enthusiastic_values: tuple[float, ...] = DEFAULT_TRAIT_AXIS
    supporter_values: tuple[float, ...] = DEFAULT_SUPPORTER_VALUES
    k_values: tuple[float, ...] = DEFAULT_K_VALUES
    replications: int = 10
    base_seed: int = 0
    max_retries: int = 10

    def __post_init__(self):
        if self.params is None:
            self.params = default_params(self.network_model)
        _generator(self.network_model, type(self.params))  # fail here, not in a worker
        for name in ("curious_values", "enthusiastic_values", "supporter_values", "k_values"):
            given = tuple(getattr(self, name))
            values = tuple(check_share(name, v + 0.0) for v in given)  # -0.0 becomes 0.0
            if not values:
                raise SweepError(f"{name} must not be empty")
            # Values that print alike would run as one cell (see cell_key).
            seen: dict[str, float] = {}
            for g, v in zip(given, values):
                text = fmt6(v)
                if text in seen:
                    raise SweepError(f"{name} values {seen[text]!r} and {g!r} both print "
                                     f"as {text}, so they would run as one cell")
                seen[text] = g
            setattr(self, name, values)
        store_counts(self, replications=1, max_retries=1)
        self.base_seed = check_seed(self.base_seed)

    def run_count(self) -> int:
        return (len(self.k_values) * len(self.supporter_values)
                * len(self.curious_values) * len(self.enthusiastic_values)
                * self.replications)


class RunSpec(NamedTuple):
    """One scheduled run: its index, cell coordinates and derived seeds."""

    index: int
    k: float
    supporters: float
    curious: float
    enthusiastic: float
    network_seed: int
    sim_seed: int


@dataclass
class RunRecord:
    """Flat result row of one run: cell, outcome and network statistics."""

    network_model: str
    network_seed: int
    sim_seed: int
    k: float
    curious: float
    enthusiastic: float
    supporters: float
    final_aware: float
    final_both: float
    rounds: int
    hit_max_rounds: bool
    nodes: int
    edges: int
    density: float
    avg_path_length: float | None
    clustering: float
    diameter: int | None


def enumerate_cells(grid: SweepGrid) -> list[RunSpec]:
    """Schedule all runs in lexicographic (k, supporters, curious,
    enthusiastic, replicate) order.

    The network seed is ``base_seed`` plus the flat run index; the
    simulation seed is the network seed XOR a fixed 64-bit constant, so
    all seed pairs within a sweep are distinct and reconstructible.
    """
    specs = []
    index = 0
    for k in grid.k_values:
        for sup in grid.supporter_values:
            for cur in grid.curious_values:
                for enth in grid.enthusiastic_values:
                    for _ in range(grid.replications):
                        network_seed = (grid.base_seed + index) & SEED_MASK
                        specs.append(RunSpec(index, k, sup, cur, enth,
                                             network_seed, network_seed ^ SIM_SEED_XOR))
                        index += 1
    return specs


def execute_run(grid: SweepGrid, spec: RunSpec) -> RunRecord:
    """Generate one fresh network, simulate, and flatten the outcome.

    Raises ``GenerationError`` when no connected network turns up within
    the retry budget.
    """
    graph, metrics, _ = generate_validated(grid.network_model, grid.params,
                                           spec.network_seed, grid.max_retries)
    cfg = SimConfig(k=spec.k, p_curious=spec.curious, p_enthusiastic=spec.enthusiastic,
                    p_supporter=spec.supporters, seed=spec.sim_seed)
    return run_record(grid.network_model, spec.network_seed, cfg, run(graph, cfg), metrics)


def run_record(network_model: str, network_seed: int, cfg: SimConfig,
               result: SimResult, metrics: GraphMetrics) -> RunRecord:
    """Flatten one run's configuration, outcome and network statistics."""
    return RunRecord(
        network_model=network_model,
        network_seed=network_seed,
        sim_seed=cfg.seed,
        k=cfg.k,
        curious=cfg.p_curious,
        enthusiastic=cfg.p_enthusiastic,
        supporters=cfg.p_supporter,
        final_aware=result.final_aware_fraction,
        final_both=result.final_both_fraction,
        rounds=result.rounds_to_quiescence,
        hit_max_rounds=result.hit_max_rounds,
        nodes=metrics.node_count,
        edges=metrics.edge_count,
        density=metrics.density,
        avg_path_length=metrics.avg_path_length,
        clustering=metrics.global_clustering,
        diameter=metrics.diameter,
    )


def _run_or_none(grid: SweepGrid, spec: RunSpec) -> RunRecord | None:
    # execute_run is looked up at call time, so a rebinding of it (a
    # tracer, say) reaches forked pool workers too.
    try:
        return execute_run(grid, spec)
    except GenerationError:
        return None


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_sweep(grid: SweepGrid, worker_count: int = 1) -> list[RunRecord]:
    """Execute the whole grid; the records of the runs that found a
    connected network come back in enumeration order, so
    ``grid.run_count() - len(records)`` runs failed.

    Each run depends only on its own derived seeds, so the result is
    bit-identical for every ``worker_count``, which is capped at the run
    count and the usable CPUs; parallelism only changes the wall time.
    A worker that dies raises ``ChildProcessError``.
    """
    worker_count = check_count("worker_count", worker_count, 1)
    specs = enumerate_cells(grid)
    task = partial(_run_or_none, grid)
    worker_count = min(worker_count, len(specs), _usable_cpus())
    if worker_count == 1:
        return [r for r in map(task, specs) if r is not None]
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    chunk = max(1, len(specs) // (worker_count * 16))
    try:
        with ProcessPoolExecutor(worker_count) as pool:
            return [r for r in pool.map(task, specs, chunksize=chunk) if r is not None]
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a sweep worker died: {exc}") from exc


def fmt6(x: float) -> str:
    """A real as every CSV output writes it, and as ``cell_key`` compares it."""
    return f"{x:.6f}"


def cell_key(record: RunRecord) -> tuple[str, str, str, str, str]:
    """Identity of a record's grid cell: the model, then k, supporters,
    curious and enthusiastic as ``fmt6`` writes them, so values that
    print alike fall into one cell."""
    return (record.network_model, fmt6(record.k), fmt6(record.supporters),
            fmt6(record.curious), fmt6(record.enthusiastic))


def aggregate(records: Iterable[RunRecord]
              ) -> list[tuple[tuple[str, str, str], dict[tuple[str, str], float]]]:
    """Collapse records into heatmap panels of per-cell means of ``final_both``.

    Returns ``((network_model, k, supporters), {(curious, enthusiastic):
    mean_final_both})`` pairs in sorted panel order, each panel's cells in
    sorted order, every key part as ``cell_key`` writes it.  A cell is
    what ``cell_key`` names, so records whose values print alike fall
    into one cell; ``cell_key`` runs once per distinct value tuple.
    ``records`` may be any iterable, read once: only a running total and
    count per cell are kept, and each total adds its records'
    ``final_both`` one by one in input order, starting from 0.  Requires
    every cell value (k, supporters, curious, enthusiastic) in [0, 1],
    NaN excluded, checked as each new cell is seen, and complete cells:
    all cells must hold the same number of replicates.
    """
    cells: dict[tuple, list] = {}  # cell_key -> [total, count]
    by_values: dict[tuple, list] = {}
    for record in records:
        # ``x or str(x)`` keeps 0.0 and -0.0 apart, as cell_key does.
        values = (record.network_model, record.k or str(record.k),
                  record.supporters or str(record.supporters),
                  record.curious or str(record.curious),
                  record.enthusiastic or str(record.enthusiastic))
        cell = by_values.get(values)
        if cell is None:
            key = cell_key(record)
            if not all(0.0 <= v <= 1.0 for v in (record.k, record.supporters,
                                                  record.curious, record.enthusiastic)):
                raise SweepError(f"cell {key[0]} k={key[1]} supporters={key[2]} curious="
                                 f"{key[3]} enthusiastic={key[4]} lies outside [0, 1]")
            cell = by_values[values] = cells.setdefault(key, [0, 0])
        cell[0] += record.final_both
        cell[1] += 1
    sizes = {count for _, count in cells.values()}
    if len(sizes) > 1:
        raise SweepError(f"ragged cells: replicate counts {sorted(sizes)} differ")
    panels: dict[tuple[str, str, str], dict[tuple[str, str], float]] = {}
    for key in sorted(cells):
        total, count = cells[key]
        panels.setdefault(key[:3], {})[key[3:]] = total / count
    return list(panels.items())
