"""Output checks for the benchmark, written against the formats the README
fixes rather than against womlab's internals.

Every check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from pathlib import Path

# README: sim_seed = network_seed XOR this constant.
SIM_SEED_XOR = 0x9E3779B97F4A7C15
SEED_MASK = (1 << 64) - 1

# Cell values are written with 6 decimals; allow for that rounding twice.
VALUE_TOLERANCE = 2e-6


def enumerate_specs(base_seed, k_values, supporter_values, curious_values,
                    enthusiastic_values, reps):
    """Expected ``(network_seed, sim_seed, k, supporters, curious, enthusiastic)``
    of every run, in the documented enumeration order."""
    specs = []
    index = 0
    for k in k_values:
        for sup in supporter_values:
            for cur in curious_values:
                for enth in enthusiastic_values:
                    for _ in range(reps):
                        seed = (base_seed + index) & SEED_MASK
                        specs.append((seed, seed ^ SIM_SEED_XOR, k, sup, cur, enth))
                        index += 1
    return specs


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_dir(directory) -> str:
    """One digest over the names and bytes of every file in ``directory``."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_records(records, model: str, specs, nodes: int) -> list[str]:
    """Records re-read from a sweep's CSV against the scheduled runs."""
    problems = []
    if len(records) != len(specs):
        return [f"records CSV has {len(records)} rows, expected {len(specs)}"]
    for i, (r, spec) in enumerate(zip(records, specs)):
        got = (r.network_seed, r.sim_seed, f"{r.k:.6f}", f"{r.supporters:.6f}",
               f"{r.curious:.6f}", f"{r.enthusiastic:.6f}")
        want = spec[:2] + tuple(f"{v:.6f}" for v in spec[2:])
        if got != want:
            problems.append(f"row {i}: run {got} out of enumeration order, expected {want}")
        if r.network_model != model or r.nodes != nodes:
            problems.append(f"row {i}: model {r.network_model} with {r.nodes} nodes")
        for name in ("final_aware", "final_both", "density", "clustering"):
            if not 0.0 <= getattr(r, name) <= 1.0:
                problems.append(f"row {i}: {name}={getattr(r, name)} outside [0, 1]")
        # Every written network passed the connectivity check.
        if r.avg_path_length is None or r.diameter is None:
            problems.append(f"row {i}: connected network without path statistics")
        if len(problems) > 20:
            break
    return problems


def cell_means(rows) -> dict:
    """Mean final_both per ``(k, supporters, curious, enthusiastic)`` cell,
    from ``(k, supporters, curious, enthusiastic, final_both)`` tuples."""
    groups = defaultdict(list)
    for k, sup, cur, enth, both in rows:
        groups[(f"{k:.6f}", f"{sup:.6f}", f"{cur:.6f}", f"{enth:.6f}")].append(both)
    return {key: sum(values) / len(values) for key, values in groups.items()}


def check_heatmaps(out_dir, model: str, means: dict, cell_px: int = 10) -> list[str]:
    """``womlab report`` output: one CSV and one PPM per (k, supporters)
    panel, and CSV cells equal to the per-cell means."""
    panels = defaultdict(dict)
    for (k, sup, cur, enth), mean in means.items():
        panels[(k, sup)][(cur, enth)] = mean
    out_dir = Path(out_dir)
    expected = {}
    for k, sup in panels:
        stem = f"heatmap_{model}_k{float(k):g}_s{float(sup):g}"
        expected[f"{stem}.csv"] = expected[f"{stem}.ppm"] = (k, sup)
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if present != set(expected):
        return [f"report wrote {sorted(present)}, expected {sorted(expected)}"]
    problems = []
    for name, key in sorted(expected.items()):
        cells = panels[key]
        curious = sorted({c for c, _ in cells}, key=float)
        enth = sorted({e for _, e in cells}, key=float)
        lines = (out_dir / name).read_text(encoding="utf-8").split("\n")
        if lines[-1] != "":
            problems.append(f"{name}: no trailing newline")
        if name.endswith(".ppm"):
            width, height = len(curious) * cell_px, len(enth) * cell_px
            if lines[:3] != ["P3", f"{width} {height}", "255"] or len(lines) != 4 + width * height:
                problems.append(f"{name}: not a {width}x{height} P3 image")
            continue
        if lines[0] != "enthusiastic," + ",".join(curious) or len(lines) != len(enth) + 2:
            problems.append(f"{name}: header or row count wrong")
            continue
        for e, line in zip(enth, lines[1:]):
            parts = line.split(",")
            values = [float(v) for v in parts[1:]]
            want = [cells[(c, e)] for c in curious]
            if (parts[0] != e or len(values) != len(want)
                    or any(abs(a - b) > VALUE_TOLERANCE for a, b in zip(values, want))):
                problems.append(f"{name}: row enthusiastic={e} is {parts[1:]}, expected {want}")
    return problems
