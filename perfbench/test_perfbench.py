"""Tests of the benchmark itself: the determinism it relies on, its output
checks, its tracer and its command-line contract.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import womlab.cli as cli  # noqa: E402
from womlab.reporting import read_records_csv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sii_sweep(tmp_path_factory):
    """The sii-sweep-jobs grid at --jobs 1 and at --jobs nproc (at least 2)."""
    work = tmp_path_factory.mktemp("sii")
    workload = run.make_workload("sii-sweep-jobs", 7, work)
    outputs = {}
    for jobs in (1, workload.jobs):
        out = work / f"jobs{jobs}.csv"
        assert run.call(cli.main, workload.argv(jobs=jobs, out=out))[0] == 0
        outputs[jobs] = out
    return workload, outputs


def test_sii_records_identical_for_any_jobs(sii_sweep):
    workload, outputs = sii_sweep
    assert workload.jobs >= 2
    assert outputs[1].read_bytes() == outputs[workload.jobs].read_bytes()
    records = read_records_csv(outputs[1])
    assert checks.check_records(records, "sii", workload.specs, 1008) == []


def _rewrite(src: Path, dst: Path, edit) -> list:
    lines = src.read_text().splitlines()
    edit(lines)
    dst.write_text("\n".join(lines) + "\n")
    return read_records_csv(dst)


def _set_field(lines, row, field, value):
    parts = lines[row].split(",")
    parts[field] = value
    lines[row] = ",".join(parts)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines.__setitem__(slice(1, 3), lines[2:0:-1]), "enumeration order"),
    (lambda lines: lines.pop(), "rows, expected"),
    (lambda lines: _set_field(lines, 5, 8, "1.500000"), "outside [0, 1]"),
    (lambda lines: _set_field(lines, 5, 14, "NA"), "without path statistics"),
])
def test_check_records_rejects(sii_sweep, tmp_path, edit, message):
    workload, outputs = sii_sweep
    records = _rewrite(outputs[1], tmp_path / "bad.csv", edit)
    problems = checks.check_records(records, "sii", workload.specs, 1008)
    assert any(message in p for p in problems), problems


def test_report_output_checked_against_synthesised_means(tmp_path):
    workload = run.make_workload("report", 3, tmp_path)
    rc, _ = run.call(cli.main, workload.argv())
    assert rc == 0
    assert workload.check(cli, rc, "")[1] == []
    assert len(list(workload.out.iterdir())) == 2 * 9

    panel = workload.out / "heatmap_ws_k0.1_s0.5.csv"
    lines = panel.read_text().splitlines()
    parts = lines[3].split(",")
    parts[4] = f"{float(parts[4]) + 0.001:.6f}"
    lines[3] = ",".join(parts)
    panel.write_text("\n".join(lines) + "\n")
    assert any("heatmap_ws_k0.1_s0.5.csv" in p for p in workload.check(cli, 0, "")[1])
    (workload.out / "heatmap_ws_k0.01_s0.ppm").unlink()
    assert "expected" in workload.check(cli, 0, "")[1][0]


def _span(span_id, parent, start, end, name="x.y"):
    return tracing.Span(span_id, parent, name, start, end, 0, -1, None)


def test_self_time_subtracts_union_of_children():
    spans = [_span(1, 0, 0.0, 10.0), _span(2, 1, 1.0, 4.0), _span(3, 1, 3.0, 5.0),
             _span(4, 1, 9.0, 12.0), _span(5, 2, 1.0, 2.0)]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 3.0, 1.0])


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tracing.tail(list(range(1, 101))) == (90.0, 90)
    assert tracing.tail(list(range(1, 1001))) == (99.0, 990)
    assert tracing.tail(list(range(1, 21))) == (50.0, 10)
    assert tracing.tail([3.0, 1.0]) == (100.0, 3.0)
    assert tracing.tail([]) == (0.0, 0.0)


def test_tracer_collects_worker_spans_without_changing_output(sii_sweep, tmp_path):
    workload, outputs = sii_sweep
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = tmp_path / "traced.csv"
        rc, _ = run.call(cli.main, workload.argv(out=out), tracer, 0)
    finally:
        tracer.uninstall()
    assert rc == 0
    assert out.read_bytes() == outputs[1].read_bytes()
    assert cli.run_sweep.__module__ == "womlab.sweep"
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (sweep,) = by_name["sweep.run_sweep"]
    runs = by_name["sweep.execute_run"]
    assert sorted(s.run for s in runs) == list(range(workload.units))
    assert {s.parent_id for s in runs} == {sweep.span_id}
    assert all(s.span_id >> 32 != os.getpid() for s in runs)  # recorded in the workers
    metrics = tracing.layer_metrics(tracer.spans, [0], workload.jobs)
    assert metrics["model.run.n"] == workload.units
    assert metrics["generators.attempts_mean"] >= 1.0
    assert 0.0 < metrics["sweep.parallel_efficiency"] <= 1.0


def _checkout(tmp_path: Path, with_program: bool) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_program:
        shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _bench(root: Path, workload: str, trace: int):
    return subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=170)


def test_fails_without_the_program(tmp_path):
    done = _bench(_checkout(tmp_path, with_program=False), "report", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload, trace, spec_key", [
    ("report", 0, "end_to_end"),
    ("sii-sweep-jobs", 1, "per_layer"),
])
def test_result_line_matches_benchmark_json(tmp_path, workload, trace, spec_key):
    done = _bench(_checkout(tmp_path, with_program=True), workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[spec_key]}
    details = json.loads(done.stdout.splitlines()[-2])
    assert details["env"]["start_method"] and details["digests"]["heatmaps"]


def test_all_workloads_in_one_command(tmp_path):
    root = _checkout(tmp_path, with_program=True)
    done = _bench(root, "all", 0)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    assert list(results) == list(run.WORKLOADS)
    assert all(r["correct"] and set(r["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
               for r in results.values())
