"""Command-line entry point chaining generation, analysis, simulation,
sweeps and reporting.

Every invocation is fully determined by its flags: the same command
line always produces byte-identical files and output.  Exit codes:
0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple
from pathlib import Path

from .generators import (MODEL_IDS, FfParams, GenerationError, SiiParams, WsParams,
                         default_params, generate_validated)
from .graph import compute_metrics
from .model import (AWARENESS_NAMES, EXPERTISE_NAMES, STATE_COMBOS, SimConfig, run)
from .reporting import (METRICS_HEADER, CsvFormatError, csv_row, iter_records, read_graphml,
                        records_csv_string, render_heatmap, write_graphml, write_records_csv)
# Not called here: perfbench reads a sweep's records back as womlab.cli.read_records_csv.
from .reporting import read_records_csv  # noqa: F401
from .sweep import SweepGrid, aggregate, run_record, run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# (flag, type, classes that read it, their field, help).  Defaults are None,
# so a flag that was given can be told from one that was not; the help
# prints the class default.  ws and ff share --n.
_MODEL_FLAGS = (
    ("--n", int, (WsParams, FfParams), "n", "node count for ws/ff"),
    ("--nei", int, (WsParams,), "nei", "ws: lattice neighbors per side"),
    ("--p-rewire", float, (WsParams,), "p_rewire", "ws: endpoint rewiring probability"),
    ("--fw-prob", float, (FfParams,), "fw_prob", "ff: forward burning probability"),
    ("--bw-factor", float, (FfParams,), "bw_factor", "ff: backward burning ratio"),
    ("--ambs", int, (FfParams,), "ambs", "ff: ambassadors per new node"),
    ("--islands", int, (SiiParams,), "n_islands", "sii: island count"),
    ("--island-size", int, (SiiParams,), "island_size", "sii: nodes per island"),
    ("--p-in", float, (SiiParams,), "p_in", "sii: intra-island edge probability"),
    ("--inter", int, (SiiParams,), "n_inter", "sii: links per island pair"),
)


def _model_params(args):
    cls = type(default_params(args.model))
    given = {}
    for flag, _, owners, field, _ in _MODEL_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            if cls not in owners:
                raise ValueError(f"{flag} does not apply to --model {args.model}")
            given[field] = value
    return cls(**given)


def _add_model_flags(parser: _Parser) -> None:
    parser.add_argument("--model", required=True, choices=MODEL_IDS,
                        help="network family to generate")
    for flag, kind, owners, field, text in _MODEL_FLAGS:
        parser.add_argument(flag, type=kind,
                            help=f"{text} (default {getattr(owners[0], field)})")
    parser.add_argument("--max-retries", type=int, default=SweepGrid.max_retries,
                        help="connectivity retries before giving up (default %(default)s)")


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="womlab",
                     description="Word-of-mouth diffusion laboratory over generated networks.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("generate", help="generate a validated network",
                           description="Generate a connected network and write it as GraphML; "
                                       "its metrics are printed as one CSV line.")
    _add_model_flags(p_gen)
    p_gen.add_argument("--seed", type=int, default=0,
                       help="generator seed (default %(default)s)")
    p_gen.add_argument("--out", required=True, help="output GraphML path")

    p_met = sub.add_parser("metrics", help="measure a GraphML network",
                           description="Read a GraphML file and print its metrics as CSV.")
    p_met.add_argument("--in", dest="infile", required=True, help="input GraphML path")

    p_sim = sub.add_parser("simulate", help="run one simulation over a stored network",
                           description="Load a GraphML network, run one simulation and print "
                                       "the run record as CSV.")
    p_sim.add_argument("--network", required=True, help="input GraphML path")
    p_sim.add_argument("--k", type=float, required=True, help="initial expertise share")
    p_sim.add_argument("--curious", type=float, required=True, help="curious trait share")
    p_sim.add_argument("--enthusiastic", type=float, required=True,
                       help="enthusiastic trait share")
    p_sim.add_argument("--supporters", type=float, required=True, help="supporter trait share")
    p_sim.add_argument("--seed", type=int, default=SimConfig.seed,
                       help="simulation seed (default %(default)s)")
    p_sim.add_argument("--trace", help="write per-round state counts to this CSV path")

    p_sweep = sub.add_parser("sweep", help="run a parameter grid",
                             description="Run the full replication grid for one network model "
                                         "and write all run records as CSV.")
    _add_model_flags(p_sweep)
    p_sweep.add_argument("--k", type=_comma_floats, default=SweepGrid.k_values,
                         help="comma list of k values (default "
                              + ",".join(map(str, SweepGrid.k_values)) + ")")
    p_sweep.add_argument("--supporters", type=_comma_floats, default=SweepGrid.supporter_values,
                         help="comma list of supporter shares (default "
                              + ",".join(map(str, SweepGrid.supporter_values)) + ")")
    p_sweep.add_argument("--curious", type=_comma_floats, default=SweepGrid.curious_values,
                         help="comma list of curious shares (default 0.00..1.00 step 0.05)")
    p_sweep.add_argument("--enthusiastic", type=_comma_floats,
                         default=SweepGrid.enthusiastic_values,
                         help="comma list of enthusiastic shares (default 0.00..1.00 step 0.05)")
    p_sweep.add_argument("--reps", type=int, default=SweepGrid.replications,
                         help="replicates per cell (default %(default)s)")
    p_sweep.add_argument("--base-seed", type=int, default=SweepGrid.base_seed,
                         help="seed of the first run (default %(default)s)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes, at most one per usable CPU "
                              "and per run (default %(default)s)")
    p_sweep.add_argument("--out", required=True, help="output records CSV path")

    p_rep = sub.add_parser("report", help="render heatmaps from run records",
                           description="Aggregate a records CSV and write one heatmap CSV and "
                                       "PPM image per (model, k, supporters) panel.")
    p_rep.add_argument("--in", dest="infile", required=True, help="input records CSV path")
    p_rep.add_argument("--out-dir", required=True, help="directory for heatmap files")
    return parser


def cmd_generate(args) -> int:
    params = _model_params(args)
    graph, metrics, _ = generate_validated(args.model, params, args.seed, args.max_retries)
    write_graphml(graph, args.out)
    print(csv_row(astuple(metrics)))  # GraphMetrics' fields are in METRICS_HEADER order
    return EXIT_OK


def cmd_metrics(args) -> int:
    graph = read_graphml(args.infile)
    print(METRICS_HEADER)
    print(csv_row(astuple(compute_metrics(graph))))
    return EXIT_OK


def cmd_simulate(args) -> int:
    graph = read_graphml(args.network)
    cfg = SimConfig(k=args.k, p_curious=args.curious, p_enthusiastic=args.enthusiastic,
                    p_supporter=args.supporters, seed=args.seed)
    result = run(graph, cfg)
    record = run_record("file", 0, cfg, result, compute_metrics(graph))
    if args.trace:  # before the record is printed, so a failed write prints nothing
        lines = [csv_row(("round", *(f"{AWARENESS_NAMES[aw]}_{EXPERTISE_NAMES[ex]}"
                                     for aw, ex in STATE_COMBOS)))]
        lines.extend(csv_row((i, *row)) for i, row in enumerate(result.time_series))
        Path(args.trace).write_text("\n".join(lines) + "\n", encoding="utf-8")
    sys.stdout.write(records_csv_string([record]))
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = SweepGrid(network_model=args.model, params=_model_params(args),
                     k_values=args.k, supporter_values=args.supporters,
                     curious_values=args.curious, enthusiastic_values=args.enthusiastic,
                     replications=args.reps, base_seed=args.base_seed,
                     max_retries=args.max_retries)
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():  # before the grid runs, not after
        raise OSError(f"--out {args.out} is not a file in an existing directory")
    records = run_sweep(grid, args.jobs)
    write_records_csv(records, args.out)
    failures = grid.run_count() - len(records)
    print(f"runs: {grid.run_count()}, failed: {failures}")
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_report(args) -> int:
    panels = aggregate(iter_records(args.infile))
    if not panels:
        raise CsvFormatError("records CSV contains no rows")
    # Render every panel before writing any, so a bad panel leaves no output.
    rendered = {}
    for (model, k, supporters), cells in panels:
        # aggregate keeps k and supporters on [0, 1], where :g names distinct
        # 6-decimal texts apart; beyond, it may not.
        stem = f"heatmap_{model}_k{float(k):g}_s{float(supporters):g}"
        rendered[stem] = render_heatmap(cells)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, (csv_text, ppm_text) in rendered.items():
        (out_dir / f"{stem}.csv").write_text(csv_text, encoding="utf-8")
        (out_dir / f"{stem}.ppm").write_text(ppm_text, encoding="utf-8")
        print(f"{stem}.csv {stem}.ppm")
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "metrics": cmd_metrics,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, GenerationError, OSError) as exc:
        print(f"womlab: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
