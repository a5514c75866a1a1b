"""Command-line interface: flags, exit codes, determinism, file outputs."""

import itertools
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import womlab
from womlab.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, _model_params, build_parser, main
from womlab.generators import (MODEL_IDS, FfParams, GenerationError, SiiParams, WsParams,
                               default_params, generate_validated)
from womlab.graph import build_graph
from womlab.reporting import write_graphml, write_records_csv
from womlab.sweep import SweepGrid, run_sweep
from test_golden import RETRY_NETWORK_FLAGS, RETRY_SWEEP_FLAGS
from test_sweep import record, small_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- generate -----------------------------------------------------------------


def test_generate_sii_writes_1008_nodes(tmp_path, capsys):
    out = tmp_path / "g.graphml"
    code, stdout, _ = run_cli(capsys, "generate", "--model", "sii", "--seed", "1",
                              "--out", str(out))
    assert code == EXIT_OK
    assert out.read_text().count("<node ") == 1008
    fields = stdout.strip().split(",")
    assert fields[0] == "1008"
    assert fields[6] == "true"


def test_generate_deterministic_bytes(tmp_path, capsys):
    paths = [tmp_path / f"g{i}.graphml" for i in range(3)]
    run_cli(capsys, "generate", "--model", "ws", "--n", "60", "--nei", "2",
            "--seed", "4", "--out", str(paths[0]))
    run_cli(capsys, "generate", "--model", "ws", "--n", "60", "--nei", "2",
            "--seed", "4", "--out", str(paths[1]))
    run_cli(capsys, "generate", "--model", "ws", "--n", "60", "--nei", "2",
            "--seed", "5", "--out", str(paths[2]))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_generate_missing_out_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "generate", "--model", "ws", "--seed", "1")
    assert code == EXIT_USAGE
    assert "--out" in err


def test_generate_impossible_params_runtime_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "generate", "--model", "sii", "--islands", "2",
                           "--island-size", "2", "--p-in", "0", "--inter", "1",
                           "--seed", "0", "--out", str(tmp_path / "x.graphml"))
    assert code == EXIT_RUNTIME
    assert "sii" in err


@pytest.mark.parametrize("flags", [("--bw-factor", "nan"), ("--fw-prob", "0", "--bw-factor", "inf")],
                         ids=["nan", "zero-times-inf"])
def test_generate_nan_burn_parameters_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "x.graphml"
    code, stdout, err = run_cli(capsys, "generate", "--model", "ff", *flags, "--seed", "1",
                                "--out", str(out))
    assert code == EXIT_RUNTIME
    assert "bw_factor" in err and stdout == "" and not out.exists()


FOREIGN_MODEL_FLAGS = [("sii", "--n", "500"), ("sii", "--nei", "3"), ("ws", "--islands", "3"),
                       ("ws", "--fw-prob", "0.3"), ("ff", "--p-rewire", "0.1"),
                       ("ff", "--inter", "2")]


@pytest.mark.parametrize("model,flag,value", FOREIGN_MODEL_FLAGS)
@pytest.mark.parametrize("command", ["generate", "sweep"])
def test_another_familys_flag_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                     command, model, flag, value):
    started = []
    monkeypatch.setattr("womlab.cli.generate_validated", lambda *args: started.append(args))
    monkeypatch.setattr("womlab.cli.run_sweep", lambda *args: started.append(args) or [])
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, command, "--model", model, flag, value,
                                "--out", str(out))
    assert code == EXIT_RUNTIME
    assert err == f"womlab: error: {flag} does not apply to --model {model}\n"
    assert started == [] and stdout == "" and not out.exists()


# -- metrics -------------------------------------------------------------------


def test_metrics_k5(tmp_path, capsys):
    path = tmp_path / "k5.graphml"
    write_graphml(build_graph(5, itertools.combinations(range(5), 2)), path)
    code, out, _ = run_cli(capsys, "metrics", "--in", str(path))
    header, row = out.strip().splitlines()
    assert header.startswith("nodes,edges,density")
    assert row.split(",")[2] == "1.000000"


def test_metrics_path3_diameter(tmp_path, capsys):
    path = tmp_path / "p3.graphml"
    write_graphml(build_graph(3, [(0, 1), (1, 2)]), path)
    _, out, _ = run_cli(capsys, "metrics", "--in", str(path))
    assert out.strip().splitlines()[1].split(",")[5] == "2"


def test_metrics_disconnected_na(tmp_path, capsys):
    path = tmp_path / "disc.graphml"
    write_graphml(build_graph(4, [(0, 1), (2, 3)]), path)
    _, out, _ = run_cli(capsys, "metrics", "--in", str(path))
    fields = out.strip().splitlines()[1].split(",")
    assert fields[3] == "NA" and fields[5] == "NA" and fields[6] == "false"


def test_metrics_unreadable_file(tmp_path, capsys):
    path = tmp_path / "broken.graphml"
    path.write_text("<graphml><graph edgedefault='directed'></graph></graphml>")
    code, _, err = run_cli(capsys, "metrics", "--in", str(path))
    assert code == EXIT_RUNTIME
    assert "directed" in err


# -- simulate ------------------------------------------------------------------


@pytest.fixture()
def ws_file(tmp_path, capsys):
    path = tmp_path / "net.graphml"
    run_cli(capsys, "generate", "--model", "ws", "--n", "120", "--nei", "3",
            "--p-rewire", "0.1", "--seed", "3", "--out", str(path))
    return path


def test_simulate_k0(ws_file, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--network", str(ws_file),
                           "--k", "0", "--curious", "0.5", "--enthusiastic", "0.5",
                           "--supporters", "0.5", "--seed", "2")
    assert code == EXIT_OK
    row = out.strip().splitlines()[1].split(",")
    assert row[8] == "0.000000"


def test_simulate_full_expertise_supporters(ws_file, capsys):
    _, out, _ = run_cli(capsys, "simulate", "--network", str(ws_file),
                        "--k", "1", "--curious", "0", "--enthusiastic", "0",
                        "--supporters", "1", "--seed", "2")
    row = out.strip().splitlines()[1].split(",")
    assert row[7] == row[8]  # final_aware == final_both


def test_simulate_trace_s_shape(ws_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "simulate", "--network", str(ws_file),
                           "--k", "0.05", "--curious", "0.4", "--enthusiastic", "0.4",
                           "--supporters", "0", "--seed", "5", "--trace", str(trace))
    assert code == EXIT_OK
    lines = trace.read_text().strip().splitlines()
    # The README's header, and one row per round after the initial state.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"`(round,[a-z_,]+)`", readme) == [lines[0]]
    assert len(lines) - 1 == int(out.splitlines()[1].split(",")[9]) + 1
    rows = [list(map(int, line.split(",")[1:])) for line in lines[1:]]
    n = sum(rows[0])
    aware = [n - (r[0] + r[1] + r[2]) for r in rows]
    both = [r[4] + r[5] + r[7] + r[8] for r in rows]
    assert aware == sorted(aware), "cumulative awareness must be non-decreasing"
    assert both == sorted(both), "cumulative both-holders must be non-decreasing"
    assert aware[0] == 0 and aware[-1] > 0


def test_simulate_deterministic_output(ws_file, capsys):
    args = ("simulate", "--network", str(ws_file), "--k", "0.05", "--curious", "0.4",
            "--enthusiastic", "0.4", "--supporters", "0.1", "--seed", "7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_simulate_unwritable_trace_prints_nothing(ws_file, tmp_path, capsys):
    code, out, err = run_cli(capsys, "simulate", "--network", str(ws_file),
                             "--k", "0.05", "--curious", "0.4", "--enthusiastic", "0.4",
                             "--supporters", "0", "--trace", str(tmp_path / "no" / "t.csv"))
    assert code == EXIT_RUNTIME
    assert out == "" and err.startswith("womlab: error:")


def test_simulate_missing_network(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--network", str(tmp_path / "no.graphml"),
                           "--k", "0", "--curious", "0", "--enthusiastic", "0",
                           "--supporters", "0")
    assert code == EXIT_RUNTIME


@pytest.mark.parametrize("flag", [("--ad-rounds", "0"), ("--ad-share", "0.5"),
                                  ("--t-promote", "0"), ("--max-rounds", "0"),
                                  ("--no-give-up",)], ids=lambda flag: flag[0])
def test_simulate_calibration_flags_are_usage_errors(ws_file, tmp_path, capsys, flag):
    # simulate runs SimConfig's calibration, the one every sweep runs.
    trace = tmp_path / "trace.csv"
    code, out, err = run_cli(capsys, "simulate", "--network", str(ws_file), "--k", "0.1",
                             "--curious", "0.5", "--enthusiastic", "0.5", "--supporters", "0",
                             "--trace", str(trace), *flag)
    assert code == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert out == "" and not trace.exists()


def assert_reproduced(tmp_path, capsys, network_flags, row):
    """Rerun one records row through ``generate`` and ``simulate`` alone."""
    _, network_seed, sim_seed, k, curious, enthusiastic, supporters = row.split(",")[:7]
    network = tmp_path / f"net_{network_seed}.graphml"
    code, _, _ = run_cli(capsys, "generate", *network_flags, "--seed", network_seed,
                         "--out", str(network))
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "simulate", "--network", str(network), "--k", k,
                           "--curious", curious, "--enthusiastic", enthusiastic,
                           "--supporters", supporters, "--seed", sim_seed)
    assert code == EXIT_OK
    # simulate names its network "file" with seed 0; the rest is the sweep's row.
    assert out.splitlines()[1].split(",")[2:] == row.split(",")[2:]


@pytest.mark.parametrize("network_flags", [
    ("--model", "ws", "--n", "60"),
    ("--model", "ff", "--n", "60"),
    ("--model", "sii", "--islands", "4", "--island-size", "12"),
], ids=lambda flags: flags[1])
def test_sweep_row_is_reproduced_by_generate_and_simulate(tmp_path, capsys, network_flags):
    out = tmp_path / "records.csv"
    code, _, _ = run_cli(capsys, "sweep", *network_flags, "--k", "0.1", "--supporters", "0.1",
                         "--curious", "0.5", "--enthusiastic", "0.5", "--reps", "1",
                         "--base-seed", "7", "--out", str(out))
    assert code == EXIT_OK
    [row] = out.read_text().splitlines()[1:]
    assert_reproduced(tmp_path, capsys, network_flags, row)


def test_retried_sweep_row_is_reproduced_by_generate_and_simulate(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code, _, _ = run_cli(capsys, "sweep", *RETRY_SWEEP_FLAGS, "--out", str(out))
    assert code == EXIT_OK
    params = _model_params(build_parser().parse_args(
        ["generate", *RETRY_NETWORK_FLAGS, "--out", "x"]))
    row = next(row for row in out.read_text().splitlines()[1:]
               if generate_validated("sii", params, int(row.split(",")[1]))[2] > 1)
    assert_reproduced(tmp_path, capsys, RETRY_NETWORK_FLAGS, row)


# -- sweep ----------------------------------------------------------------------


def sweep_args(out, jobs):
    return ("sweep", "--model", "ws", "--n", "80", "--nei", "3", "--p-rewire", "0.1",
            "--k", "0.1", "--supporters", "0", "--curious", "0.2,0.8",
            "--enthusiastic", "0.2,0.8", "--reps", "2", "--base-seed", "5",
            "--jobs", jobs, "--out", out)


def test_sweep_jobs_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("womlab.sweep._usable_cpus", lambda: 2)  # the pool path on any machine
    f1, f8 = tmp_path / "r1.csv", tmp_path / "r8.csv"
    code1, out1, _ = run_cli(capsys, *sweep_args(str(f1), "1"))
    code8, out8, _ = run_cli(capsys, *sweep_args(str(f8), "8"))
    assert code1 == code8 == EXIT_OK
    assert out1 == out8 == "runs: 8, failed: 0\n"
    assert f1.read_bytes() == f8.read_bytes()


def test_sweep_matches_library(tmp_path, capsys):
    out = tmp_path / "records.csv"
    run_cli(capsys, *sweep_args(str(out), "1"))
    from womlab.reporting import records_csv_string
    expected = records_csv_string(run_sweep(small_grid(), worker_count=1))
    assert out.read_text() == expected


def test_sweep_all_failed_exits_2(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code, stdout, _ = run_cli(capsys, "sweep", "--model", "sii", "--islands", "2",
                              "--island-size", "2", "--p-in", "0", "--inter", "1",
                              "--max-retries", "2", "--k", "0.1", "--supporters", "0",
                              "--curious", "0.5", "--enthusiastic", "0.5",
                              "--reps", "2", "--out", str(out))
    assert code == EXIT_RUNTIME
    assert "failed: 2" in stdout
    assert out.read_text().count("\n") == 1  # header only


def test_sweep_partly_failing_same_for_any_jobs(tmp_path, capsys, monkeypatch):
    # Sparse islands with one attempt per run: some runs find no connected network.
    monkeypatch.setattr("womlab.sweep._usable_cpus", lambda: 2)  # the pool path on any machine
    params = SiiParams(n_islands=4, island_size=8, p_in=0.35, n_inter=1)
    failed_seeds = set()
    for seed in range(20):
        try:
            generate_validated("sii", params, seed, max_retries=1)
        except GenerationError:
            failed_seeds.add(seed)
    assert 0 < len(failed_seeds) < 20
    flags = ("sweep", "--model", "sii", "--islands", "4", "--island-size", "8",
             "--p-in", "0.35", "--inter", "1", "--max-retries", "1", "--k", "0.1",
             "--supporters", "0", "--curious", "0.5", "--enthusiastic", "0.5",
             "--reps", "20", "--base-seed", "0")
    results = []
    for jobs in ("1", "2"):
        out = tmp_path / f"records{jobs}.csv"
        code, stdout, _ = run_cli(capsys, *flags, "--jobs", jobs, "--out", str(out))
        results.append((code, stdout, out.read_bytes()))
    assert results[0] == results[1]
    code, stdout, data = results[0]
    assert code == EXIT_RUNTIME
    assert stdout == f"runs: 20, failed: {len(failed_seeds)}\n"
    seeds = [int(line.split(",")[1]) for line in data.decode().splitlines()[1:]]
    assert seeds == sorted(set(range(20)) - failed_seeds)


# Run in a child interpreter: ``main`` with a sweep worker that dies at run 3.
DYING_WORKER_SWEEP = """
import os, sys
import womlab.sweep
from womlab.cli import main
execute_run = womlab.sweep.execute_run

def dying(grid, spec):
    if spec.index == 3:
        os._exit(1)
    return execute_run(grid, spec)

womlab.sweep.execute_run = dying
womlab.sweep._usable_cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


def test_sweep_dead_worker_exits_2_instead_of_hanging(tmp_path):
    # A subprocess with a timeout, so that a hung pool fails the test
    # instead of stalling the suite; 2 workers, 12 runs.
    out = tmp_path / "records.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run(
        [sys.executable, "-c", DYING_WORKER_SWEEP, "sweep", "--model", "ws", "--n", "60",
         "--nei", "2", "--k", "0.1", "--supporters", "0", "--curious", "0.2,0.8",
         "--enthusiastic", "0.2,0.5,0.8", "--reps", "2", "--jobs", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env)
    assert child.returncode == EXIT_RUNTIME, child.stderr
    assert child.stderr.startswith("womlab: error: a sweep worker died")
    assert child.stdout == "" and not out.exists()


@pytest.mark.parametrize("curious", ["0.5,0.5,0", "0.5,0.5000000001"])
def test_sweep_axis_values_that_print_alike_exit_2_before_any_run(tmp_path, capsys,
                                                                  monkeypatch, curious):
    started = []
    monkeypatch.setattr("womlab.cli.run_sweep", lambda *args: started.append(args))
    out = tmp_path / "records.csv"
    code, stdout, err = run_cli(capsys, "sweep", "--model", "ws", "--n", "30", "--nei", "2",
                                "--curious", curious, "--enthusiastic", "0",
                                "--supporters", "0", "--k", "0.1", "--reps", "2",
                                "--out", str(out))
    assert code == EXIT_RUNTIME
    assert "curious_values values 0.5 and" in err and "0.500000" in err
    assert started == [] and stdout == "" and not out.exists()


@pytest.mark.parametrize("k,code,k_column", [("-0", EXIT_OK, {"0.000000"}),
                                              ("0,-0", EXIT_RUNTIME, None)],
                         ids=["-0", "0,-0"])
def test_sweep_negative_zero_k_is_the_zero_panel(tmp_path, capsys, k, code, k_column):
    out = tmp_path / "records.csv"
    got, _, err = run_cli(capsys, "sweep", "--model", "ws", "--n", "30", "--nei", "2",
                          "--curious", "0.5", "--enthusiastic", "0.5", "--supporters", "0",
                          "--k", k, "--reps", "2", "--out", str(out))
    assert got == code, err
    if k_column is None:
        assert "both print as 0.000000" in err and not out.exists()
    else:
        assert {row.split(",")[3] for row in out.read_text().splitlines()[1:]} == k_column


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_sweep_unwritable_out_exits_2_before_any_run(tmp_path, capsys, monkeypatch, where):
    started = []
    monkeypatch.setattr("womlab.cli.run_sweep", lambda *args: started.append(args) or [])
    out = tmp_path / "nodir" / "records.csv" if where == "missing-parent" else tmp_path
    code, stdout, err = run_cli(capsys, "sweep", "--model", "ws", "--n", "30", "--nei", "2",
                                "--curious", "0.5", "--enthusiastic", "0.5",
                                "--supporters", "0", "--k", "0.1", "--reps", "3",
                                "--out", str(out))
    assert code == EXIT_RUNTIME
    assert str(out) in err
    assert started == [] and stdout == ""
    assert not (tmp_path / "nodir").exists() and list(tmp_path.iterdir()) == []


def test_sweep_without_axis_flags_runs_the_default_grid(tmp_path, capsys, monkeypatch):
    # A sweep that returns no records had every run fail.
    grids = []
    monkeypatch.setattr("womlab.cli.run_sweep", lambda grid, jobs: grids.append(grid) or [])
    code, stdout, _ = run_cli(capsys, "sweep", "--model", "ws",
                              "--out", str(tmp_path / "records.csv"))
    assert code == EXIT_RUNTIME and stdout == "runs: 39690, failed: 39690\n"
    assert grids == [SweepGrid("ws")]
    assert grids[0].run_count() == 39_690


# -- report ----------------------------------------------------------------------


def test_report_one_panel_two_files(tmp_path, capsys):
    records = run_sweep(small_grid(), worker_count=1)
    csv_path = tmp_path / "records.csv"
    write_records_csv(records, csv_path)
    out_dir = tmp_path / "heat"
    code, stdout, _ = run_cli(capsys, "report", "--in", str(csv_path),
                              "--out-dir", str(out_dir))
    assert code == EXIT_OK
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["heatmap_ws_k0.1_s0.csv", "heatmap_ws_k0.1_s0.ppm"]
    matrix = (out_dir / "heatmap_ws_k0.1_s0.csv").read_text().splitlines()
    assert matrix[0] == "enthusiastic,0.200000,0.800000"
    assert len(matrix) == 3


def test_report_empty_records_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "records.csv"
    write_records_csv([], csv_path)
    out_dir = tmp_path / "heat"
    code, stdout, err = run_cli(capsys, "report", "--in", str(csv_path),
                                "--out-dir", str(out_dir))
    assert code == EXIT_RUNTIME
    assert err == "womlab: error: records CSV contains no rows\n"
    assert stdout == "" and not out_dir.exists()


def test_report_incomplete_grid_exits_2(tmp_path, capsys):
    records = run_sweep(small_grid(), worker_count=1)
    # drop one whole cell to produce a hole while keeping groups even
    kept = [r for r in records if not (r.curious == 0.8 and r.enthusiastic == 0.8)]
    csv_path = tmp_path / "records.csv"
    write_records_csv(kept, csv_path)
    code, _, err = run_cli(capsys, "report", "--in", str(csv_path),
                           "--out-dir", str(tmp_path / "heat"))
    assert code == EXIT_RUNTIME
    assert "missing" in err


def test_report_bad_later_panel_writes_nothing(tmp_path, capsys):
    records = run_sweep(small_grid(k_values=(0.1, 0.5)), worker_count=1)
    kept = [r for r in records if not (r.k == 0.5 and r.curious == 0.8
                                       and r.enthusiastic == 0.8)]
    csv_path = tmp_path / "records.csv"
    write_records_csv(kept, csv_path)
    out_dir = tmp_path / "heat"
    code, stdout, err = run_cli(capsys, "report", "--in", str(csv_path),
                                "--out-dir", str(out_dir))
    assert code == EXIT_RUNTIME
    assert "missing" in err
    assert stdout == "" and list(out_dir.glob("heatmap_*")) == []


def test_report_names_each_file_after_its_six_decimal_panel(tmp_path, capsys):
    # Both k values print as 0.0123455 under :g, but as distinct 6-decimal panels.
    csv_path = tmp_path / "records.csv"
    write_records_csv([record(0.5)], csv_path)
    header, row = csv_path.read_text().splitlines()
    fields = row.split(",")
    rows = [",".join(fields[:3] + [k] + fields[4:]) for k in ("0.01234549", "0.01234551")]
    csv_path.write_text("\n".join([header, *rows]) + "\n")
    out_dir = tmp_path / "heat"
    code, stdout, _ = run_cli(capsys, "report", "--in", str(csv_path),
                              "--out-dir", str(out_dir))
    assert code == EXIT_OK
    stems = ["heatmap_ws_k0.012345_s0", "heatmap_ws_k0.012346_s0"]
    assert stdout == "".join(f"{s}.csv {s}.ppm\n" for s in stems)
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        f"{s}.{ext}" for s in stems for ext in ("csv", "ppm"))


@pytest.mark.parametrize("field,value", [("k", 10.000001), ("supporters", -0.5),
                                         ("k", float("nan")),
                                         ("curious", float("nan")), ("curious", 7.5),
                                         ("enthusiastic", float("nan")), ("enthusiastic", 7.5)])
def test_report_panel_outside_unit_interval_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                      field, value):
    # Beyond [0, 1] :g can name two panels alike: 10.000001 and 10.000002 both as k10;
    # a trait value there would head a heatmap column the model cannot produce.
    csv_path = tmp_path / "records.csv"
    write_records_csv([record(0.5), record(0.5, **{field: value})], csv_path)
    out_dir = tmp_path / "heat"
    code, stdout, err = run_cli(capsys, "report", "--in", str(csv_path),
                                "--out-dir", str(out_dir))
    assert code == EXIT_RUNTIME
    assert err.startswith("womlab: error: cell ws k=") and "outside [0, 1]" in err
    assert stdout == "" and not out_dir.exists()


def test_report_unknown_network_model_exits_2_and_writes_nothing(tmp_path, capsys):
    # "zz/b" sorts after "ws", so its panel would be written second.
    csv_path = tmp_path / "records.csv"
    write_records_csv([record(0.5), record(0.5, network_model="zz/b")], csv_path)
    out_dir = tmp_path / "heat"
    code, stdout, err = run_cli(capsys, "report", "--in", str(csv_path),
                                "--out-dir", str(out_dir))
    assert code == EXIT_RUNTIME
    assert err.startswith("womlab: error: records CSV line 3: network_model") and "'zz/b'" in err
    assert stdout == "" and list(out_dir.glob("**/*")) == []


@pytest.mark.parametrize("column,value", [(9, "ten"), (10, "maybe")],
                         ids=["rounds", "hit_max_rounds"])
def test_report_bad_field_exits_2(tmp_path, capsys, column, value):
    csv_path = tmp_path / "records.csv"
    write_records_csv([record(0.5)], csv_path)
    header, row = csv_path.read_text().splitlines()
    fields = row.split(",")
    fields[column] = value
    csv_path.write_text(f"{header}\n{','.join(fields)}\n")
    code, _, err = run_cli(capsys, "report", "--in", str(csv_path),
                           "--out-dir", str(tmp_path / "heat"))
    assert code == EXIT_RUNTIME
    assert err.startswith("womlab: error: records CSV line 2:")


# -- global behaviour ---------------------------------------------------------------


@pytest.mark.parametrize("sub", ["generate", "metrics", "simulate", "sweep", "report"])
def test_help_exits_zero(sub, capsys):
    code, out, _ = run_cli(capsys, sub, "--help")
    assert code == EXIT_OK
    assert "--" in out


def test_unknown_subcommand_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_sweep_unparsable_axis_value_usage_error(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, err = run_cli(capsys, "sweep", "--model", "ws", "--k", "0.1,x", "--out", str(out))
    assert code == EXIT_USAGE
    assert "not a comma-separated float list: '0.1,x'" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0.1,,0.5", "0.1,", ""])
def test_sweep_empty_axis_item_usage_error(tmp_path, capsys, value):
    out = tmp_path / "r.csv"
    code, _, err = run_cli(capsys, "sweep", "--model", "ws", "--n", "60", "--curious", "0.2",
                           "--enthusiastic", "0.2", "--supporters", "0", "--reps", "1",
                           "--k", value, "--out", str(out))
    assert code == EXIT_USAGE
    assert f"not a comma-separated float list: {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("model", MODEL_IDS)
def test_model_flag_defaults_are_default_params(model):
    args = build_parser().parse_args(["generate", "--model", model, "--out", "x"])
    assert _model_params(args) == default_params(model)


def test_ws_and_ff_share_node_count_default():
    assert WsParams.n == FfParams.n  # both read --n


def test_sweep_flag_defaults_are_class_defaults():
    sweep = build_parser().parse_args(["sweep", "--model", "ws", "--out", "x"])
    grid = SweepGrid(network_model="ws")
    assert (sweep.reps, sweep.base_seed, sweep.max_retries) == (
        grid.replications, grid.base_seed, grid.max_retries)


def test_package_exports_every_public_name():
    public = {name for name, value in vars(womlab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(womlab.__all__) == public
