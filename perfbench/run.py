"""Benchmark of womlab's ``sweep`` and ``report`` commands.

Run from the repository root:

    python3 perfbench/run.py --workload ws-sweep --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn, prints each metric with its
unit, and fails when any output check failed.

The workload's womlab command is called through ``womlab.cli.main`` in
this process, over and over for ``--seconds`` seconds, on inputs derived
from ``--seed``.  Every repetition's output is checked, and must be
byte-identical to the first.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it carries the environment,
the output digests and any problems found.  A full result file (and, when
traced, the span log) is written to ``.perfbench/results/``.

Exit codes: 0 when every output check passed, 1 when one failed, 2 when
the womlab sources are not present next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Strided subsample of the default 21x21x3x3 grid: every k and supporters
# value, curious and enthusiastic at 0, 0.5 and 1, one replicate.
K_VALUES = (0.01, 0.1, 0.5)
SUPPORTER_VALUES = (0.0, 0.1, 0.5)
TRAIT_VALUES = (0.0, 0.5, 1.0)
SWEEP_NODES = {"ws": 1000, "ff": 1000, "sii": 24 * 42}

# The report input has the default grid shape: 21x21 trait cells, 10 replicates.
REPORT_MODEL = "ws"
REPORT_TRAITS = tuple(i / 20 for i in range(21))
REPORT_REPS = 10

# Fresh interpreters started per run to time the CLI's start-up.
SETUP_PROBES = 5
PROBE_CODE = ("import time; t = time.perf_counter(); import womlab.cli; "
              "womlab.cli.build_parser(); print(time.perf_counter() - t)")

# Metric name -> unit, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]}

RECORDS_HEADER = ("network_model,network_seed,sim_seed,k,curious,enthusiastic,"
                  "supporters,final_aware,final_both,rounds,hit_max_rounds,"
                  "nodes,edges,density,avg_path_length,clustering,diameter")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _csv_list(values) -> str:
    return ",".join(f"{v:g}" for v in values)


class SweepWorkload:
    """``womlab sweep`` of one family on the subsampled grid."""

    def __init__(self, model: str, jobs: int, seed: int, work: Path):
        self.model = model
        self.jobs = jobs
        self.base_seed = random.Random(seed).getrandbits(48)
        self.work = work
        self.out = work / "records.csv"
        self.specs = checks.enumerate_specs(self.base_seed, K_VALUES, SUPPORTER_VALUES,
                                            TRAIT_VALUES, TRAIT_VALUES, 1)
        self.units = len(self.specs)
        self.digests: dict[str, str] = {}

    def argv(self, jobs=None, out=None) -> list[str]:
        return ["sweep", "--model", self.model, "--jobs", str(jobs or self.jobs),
                "--k", _csv_list(K_VALUES), "--supporters", _csv_list(SUPPORTER_VALUES),
                "--curious", _csv_list(TRAIT_VALUES), "--enthusiastic", _csv_list(TRAIT_VALUES),
                "--reps", "1", "--base-seed", str(self.base_seed), "--out", str(out or self.out)]

    def reset(self) -> None:
        self.out.unlink(missing_ok=True)

    def warm_up(self, cli) -> list[str]:
        """One single-cell sweep on the same code path (and pool size), so
        first-call costs inside numpy and scipy stay out of the timed loop."""
        argv = self.argv(out=self.work / "warm_up.csv")
        for flag in ("--k", "--supporters", "--curious", "--enthusiastic"):
            i = argv.index(flag) + 1
            argv[i] = argv[i].split(",")[0]
        rc, _ = call(cli.main, argv)
        return [] if rc == 0 else [f"warm-up sweep exited with {rc}"]

    def check(self, cli, rc: int, stdout: str) -> tuple[str, list[str]]:
        problems = []
        if rc != 0:
            problems.append(f"womlab sweep exited with {rc}")
        if stdout != f"runs: {self.units}, failed: 0\n":
            problems.append(f"womlab sweep printed {stdout!r}")
        if not self.out.is_file():
            return "", problems + ["no records CSV written"]
        records = cli.read_records_csv(self.out)
        problems += checks.check_records(records, self.model, self.specs, SWEEP_NODES[self.model])
        return checks.sha256_file(self.out), problems

    def finish(self, cli) -> list[str]:
        """Untimed checks after the timed loop: the report of the records and,
        for a parallel sweep, the byte-identical jobs=1 reference."""
        if not self.out.is_file():
            return ["no records CSV to report on"]
        self.digests["records_csv"] = checks.sha256_file(self.out)
        records = cli.read_records_csv(self.out)
        heatmaps = self.work / "heatmaps"
        rc, _ = call(cli.main, ["report", "--in", str(self.out), "--out-dir", str(heatmaps)])
        if rc != 0:
            return [f"womlab report exited with {rc}"]
        means = checks.cell_means((r.k, r.supporters, r.curious, r.enthusiastic, r.final_both)
                                  for r in records)
        problems = checks.check_heatmaps(heatmaps, self.model, means)
        self.digests["heatmaps"] = checks.sha256_dir(heatmaps)
        if self.jobs > 1:
            reference = self.work / "records_jobs1.csv"
            rc, _ = call(cli.main, self.argv(jobs=1, out=reference))
            if rc == 0 and reference.is_file():
                self.digests["records_csv_jobs1"] = checks.sha256_file(reference)
            if self.digests.get("records_csv_jobs1") != self.digests["records_csv"]:
                problems.append(f"records at --jobs {self.jobs} differ from --jobs 1")
        return problems


class ReportWorkload:
    """``womlab report`` on a synthesised records CSV of the default grid shape."""

    jobs = 1

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.records = work / "records.csv"
        self.out = work / "heatmaps"
        self.means = synthesise_records(seed, self.records)
        self.units = len(K_VALUES) * len(SUPPORTER_VALUES) * len(REPORT_TRAITS) ** 2 * REPORT_REPS
        self.digests = {"records_csv": checks.sha256_file(self.records)}

    def argv(self) -> list[str]:
        return ["report", "--in", str(self.records), "--out-dir", str(self.out)]

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def warm_up(self, cli) -> list[str]:
        # Each repetition reads and renders the whole file; the median over
        # the many repetitions absorbs the first one's extra cost.
        return []

    def check(self, cli, rc: int, stdout: str) -> tuple[str, list[str]]:
        problems = [] if rc == 0 else [f"womlab report exited with {rc}"]
        problems += checks.check_heatmaps(self.out, REPORT_MODEL, self.means)
        return checks.sha256_dir(self.out) if self.out.is_dir() else "", problems

    def finish(self, cli) -> list[str]:
        if not self.out.is_dir():
            return ["no heatmaps written"]
        self.digests["heatmaps"] = checks.sha256_dir(self.out)
        return []


def synthesise_records(seed: int, path: Path) -> dict:
    """Write a plausible records CSV in enumeration order and return
    the per-cell means of final_both that its report must show."""
    rng = random.Random(seed)
    base = rng.getrandbits(48)
    specs = checks.enumerate_specs(base, K_VALUES, SUPPORTER_VALUES, REPORT_TRAITS,
                                   REPORT_TRAITS, REPORT_REPS)
    lines = [RECORDS_HEADER]
    cells = []
    for net_seed, sim_seed, k, sup, cur, enth in specs:
        aware = f"{rng.random():.6f}"
        both = f"{float(aware) * rng.random():.6f}"
        lines.append(f"{REPORT_MODEL},{net_seed},{sim_seed},"
                     f"{k:.6f},{cur:.6f},{enth:.6f},{sup:.6f},{aware},{both},"
                     f"{rng.randint(10, 300)},false,1000,5000,0.010010,"
                     f"{rng.uniform(4.2, 4.8):.6f},{rng.uniform(0.45, 0.6):.6f},"
                     f"{rng.randint(7, 10)}")
        cells.append((k, sup, cur, enth, float(both)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return checks.cell_means(cells)


def call(main, argv, tracer=None, call_id=0) -> tuple[int, str]:
    """``main(argv)`` with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = tracer.call_main(main, argv, call_id) if tracer else main(argv)
    return rc, buf.getvalue()


def probe_setup() -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import womlab.cli and build its
    parser, and the import time each of them measured itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", PROBE_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        walls.append(time.perf_counter() - start)
        imports.append(float(done.stdout))
    return walls, imports


def environment(jobs: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": nproc(), "jobs": jobs, "start_method": multiprocessing.get_start_method(),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def peak_rss_mib() -> float:
    """Own peak RSS plus that of the largest child (pool worker or probe)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


WORKLOADS = ("ff-sweep", "ws-sweep", "sii-sweep-jobs", "report")


def make_workload(name: str, seed: int, work: Path):
    if name == "report":
        return ReportWorkload(seed, work)
    model = name.split("-")[0]
    jobs = max(2, nproc()) if name.endswith("-jobs") else 1
    return SweepWorkload(model, jobs, seed, work)


def measure(workload, cli, seconds: float, tracer):
    """Repeat the workload's command until ``seconds`` have passed.

    Returns ``(traced, wall_seconds, passed_checks)`` per repetition and the
    problems the output checks found.  With a tracer every second repetition
    is traced, so traced and untraced throughput come from the same stretch
    of time.
    """
    reps: list[tuple[bool, float, bool]] = []
    problems: list[str] = []
    first = None
    deadline = time.perf_counter() + seconds
    while len(reps) < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and len(reps) % 2 == 1
        workload.reset()
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            rc, stdout = call(cli.main, workload.argv(), tracer if traced else None, len(reps))
            wall = time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        digest, found = workload.check(cli, rc, stdout)
        first = first or digest
        if digest != first:
            found.append("output differs from the first repetition of this seed")
        problems += [f"repetition {len(reps)}: {p}" for p in found]
        reps.append((traced, wall, not found))
    return reps, problems


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in a process of its own and print all their metrics;
    the last line maps each workload to its result object."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        results[name] = (json.loads(lines[-1]) if done.returncode in (0, 1) and lines
                         else {"correct": False, "exit_code": done.returncode})
        for metric, m in results[name].get("metrics", {}).items():
            print(f"{name:15} {metric:36} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "womlab" / "__init__.py").is_file():
        print(f"perfbench: womlab sources not found in {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    import womlab.cli as cli

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    results = OUT / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)

    workload = make_workload(args.workload, args.seed, work)
    setup_walls, import_times = probe_setup()
    tracer = tracing.Tracer() if args.trace else None
    problems = workload.warm_up(cli)
    reps, found = measure(workload, cli, args.seconds, tracer)
    problems += found + workload.finish(cli)

    # Operations are run records (made by a sweep, read by a report); those of
    # a repetition whose output failed a check count as failed.
    attempted = workload.units * len(reps)
    failed = workload.units * sum(1 for _, _, ok in reps if not ok)
    untraced = [workload.units / wall for traced, wall, _ in reps if not traced]
    if tracer:
        traced_rps = [workload.units / wall for traced, wall, _ in reps if traced]
        calls = [i for i, (traced, _, _) in enumerate(reps) if traced]
        metrics = tracing.layer_metrics(tracer.spans, calls, workload.jobs)
        metrics["cli.import_s"] = statistics.median(import_times)
        metrics["trace.runs_per_s_untraced"] = statistics.median(untraced)
        metrics["trace.runs_per_s_traced"] = statistics.median(traced_rps)
        metrics["trace.overhead_share"] = 1.0 - (metrics["trace.runs_per_s_traced"]
                                                 / metrics["trace.runs_per_s_untraced"])
        with open(results / f"{tag}-spans.jsonl", "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span._asdict()) + "\n")
    else:
        metrics = {"runs_per_s": statistics.median(untraced),
                   "setup_s": statistics.median(setup_walls),
                   "peak_rss_mb": peak_rss_mib()}

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "env": environment(workload.jobs), "units_per_repetition": workload.units,
               "repetitions": [{"traced": t, "wall_s": w, "passed": ok} for t, w, ok in reps],
               "setup_probe_s": setup_walls, "import_s": import_times,
               "digests": workload.digests, "untraced_targets": tracer.missing if tracer else [],
               "problems": problems[:50]}
    full = json.dumps(dict(details, metrics=metrics), indent=1)
    (results / f"{tag}.json").write_text(full + "\n", encoding="utf-8")
    if not problems:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({k: details[k] for k in ("env", "digests", "problems")}))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": UNITS[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
