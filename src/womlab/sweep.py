"""Deterministic parameter-grid execution and per-cell aggregation.

A sweep enumerates the Cartesian grid (k x supporters x curious x
enthusiastic) with a fixed number of replicates per cell.  Every run
gets its own derived seed pair, generates a fresh validated network,
simulates, and yields one flat :class:`RunRecord`; the output order is
the enumeration order no matter how many workers executed the runs, so
a sweep is bit-reproducible for any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
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
    failed: bool = False


@dataclass(frozen=True)
class CellSummary:
    """Per-cell statistics over all replicates."""

    network_model: str
    k: float
    supporters: float
    curious: float
    enthusiastic: float
    mean_final_both: float
    sd_final_both: float
    mean_final_aware: float
    mean_rounds: float
    n: int


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

    A generation failure (no connected network within the retry budget)
    yields a record flagged ``failed`` instead of aborting the sweep.
    """
    try:
        graph, metrics, _ = generate_validated(grid.network_model, grid.params,
                                               spec.network_seed, grid.max_retries)
    except GenerationError:
        return RunRecord(grid.network_model, spec.network_seed, spec.sim_seed,
                         spec.k, spec.curious, spec.enthusiastic, spec.supporters,
                         0.0, 0.0, 0, False, 0, 0, 0.0, None, 0.0, None, failed=True)
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


_WORKER_GRID: SweepGrid | None = None


def _worker_init(grid: SweepGrid) -> None:
    global _WORKER_GRID
    _WORKER_GRID = grid


def _worker_run(spec: RunSpec) -> RunRecord:
    return execute_run(_WORKER_GRID, spec)


def run_sweep(grid: SweepGrid, worker_count: int = 1) -> list[RunRecord]:
    """Execute the whole grid; records come back in enumeration order.

    Each run depends only on its own derived seeds, so the result is
    bit-identical for every ``worker_count``; parallelism only changes
    the wall-clock time.  At most one worker is started per run.
    """
    if worker_count < 1:
        raise SweepError("worker_count must be >= 1")
    specs = enumerate_cells(grid)
    worker_count = min(worker_count, len(specs))
    if worker_count == 1:
        return [execute_run(grid, spec) for spec in specs]
    chunk = max(1, len(specs) // (worker_count * 16))
    with multiprocessing.Pool(worker_count, initializer=_worker_init,
                              initargs=(grid,)) as pool:
        return list(pool.imap(_worker_run, specs, chunksize=chunk))


def failure_count(records: list[RunRecord]) -> int:
    return sum(1 for r in records if r.failed)


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
    """Collapse records into one summary per cell (sample sd, n-1).

    A cell is what ``cell_key`` names, so records whose values print
    alike fall into one cell; ``cell_key`` runs once per distinct value
    tuple.  Each cell's sums run over its records in input order, and its
    summary takes the cell values of its first record.  Requires complete
    cells: failed records are rejected, and all cells must hold the same
    number of replicates.
    """
    if any(r.failed for r in records):
        raise SweepError("cannot aggregate failed run records")
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
        n = len(group)
        both = [r.final_both for r in group]
        mean_both = sum(both) / n
        sd_both = (math.sqrt(sum((b - mean_both) ** 2 for b in both) / (n - 1))
                   if n > 1 else 0.0)
        summaries.append(CellSummary(
            network_model=first.network_model,
            k=first.k,
            supporters=first.supporters,
            curious=first.curious,
            enthusiastic=first.enthusiastic,
            mean_final_both=mean_both,
            sd_final_both=sd_both,
            mean_final_aware=sum(r.final_aware for r in group) / n,
            mean_rounds=sum(r.rounds for r in group) / n,
            n=n,
        ))
    summaries.sort(key=lambda s: (s.network_model, s.k, s.supporters, s.curious, s.enthusiastic))
    return summaries
