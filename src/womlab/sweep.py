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
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .generators import GenerationError, default_params, generate_validated
from .graph import GraphMetrics
from .model import SimConfig, SimResult, run
from .rng import SEED_MASK, check_seed

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
        for name in ("curious_values", "enthusiastic_values", "supporter_values", "k_values"):
            values = tuple(getattr(self, name))
            if not values:
                raise SweepError(f"{name} must not be empty")
            if any(not 0.0 <= v <= 1.0 for v in values):
                raise SweepError(f"{name} must lie in [0, 1]")
            # Values that print alike would run as one cell (see cell_key).
            seen: dict[str, float] = {}
            for v in values:
                text = fmt6(v)
                if text in seen:
                    raise SweepError(f"{name} values {seen[text]!r} and {v!r} both print "
                                     f"as {text}, so they would run as one cell")
                seen[text] = v
            setattr(self, name, values)
        if self.replications < 1:
            raise SweepError("replications must be >= 1")
        if self.max_retries < 1:
            raise SweepError("max_retries must be >= 1")
        check_seed(self.base_seed)

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


@dataclass(frozen=True)
class CellSummary:
    """One grid cell's mean final share holding awareness and expertise."""

    network_model: str
    k: float
    supporters: float
    curious: float
    enthusiastic: float
    mean_final_both: float


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
    if worker_count < 1:
        raise SweepError("worker_count must be >= 1")
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


def cell_key(cell: RunRecord | CellSummary) -> tuple[str, str, str, str, str]:
    """Identity of a record's or summary's grid cell: the model, then
    k, supporters, curious and enthusiastic as ``fmt6`` writes them, so
    values that print alike fall into one cell."""
    return (cell.network_model, fmt6(cell.k), fmt6(cell.supporters),
            fmt6(cell.curious), fmt6(cell.enthusiastic))


def aggregate(records: list[RunRecord]) -> list[CellSummary]:
    """Collapse records into one summary per cell: the mean of ``final_both``.

    A cell is what ``cell_key`` names, so records whose values print
    alike fall into one cell; ``cell_key`` runs once per distinct value
    tuple.  Each cell's sum runs over its records in input order, and its
    summary takes the cell values of its first record.  Requires complete
    cells: all cells must hold the same number of replicates.
    """
    groups: dict[tuple, list[RunRecord]] = {}
    by_values: dict[tuple, list[RunRecord]] = {}
    for record in records:
        # ``x or str(x)`` keeps 0.0 and -0.0 apart, as cell_key does.
        values = (record.network_model, record.k or str(record.k),
                  record.supporters or str(record.supporters),
                  record.curious or str(record.curious),
                  record.enthusiastic or str(record.enthusiastic))
        group = by_values.get(values)
        if group is None:
            group = by_values[values] = groups.setdefault(cell_key(record), [])
        group.append(record)
    if not groups:
        return []
    sizes = {len(g) for g in groups.values()}
    if len(sizes) != 1:
        raise SweepError(f"ragged cells: replicate counts {sorted(sizes)} differ")
    summaries = []
    for group in groups.values():
        first = group[0]
        summaries.append(CellSummary(
            network_model=first.network_model,
            k=first.k,
            supporters=first.supporters,
            curious=first.curious,
            enthusiastic=first.enthusiastic,
            mean_final_both=sum(r.final_both for r in group) / len(group),
        ))
    summaries.sort(key=lambda s: (s.network_model, s.k, s.supporters, s.curious, s.enthusiastic))
    return summaries
