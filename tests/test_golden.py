"""Golden digests: the exact output bytes of fixed CLI invocations.

The determinism contract says the same flags give the same bytes; these
pins hold that across code changes, not only within one process.  A
change that alters any digest below changes every downstream result and
must say why in CHANGES.md.
"""

import hashlib
import itertools
import random

import pytest

from womlab.cli import EXIT_OK, main
from womlab.reporting import RECORDS_HEADER

SWEEP_FLAGS = ("--k", "0.1", "--supporters", "0.1", "--curious", "0,0.5",
               "--enthusiastic", "0,1", "--reps", "2", "--base-seed", "20200207")

SWEEP_RECORDS_SHA256 = {
    "ws": "125f62ffd6daf64d1166a64dacd4adc007d37c1dd89320bb8eab7d4a52e0999b",
    "ff": "ed8111d04f614ab8796a5fad788a6ea4f0f42b2ddfca2b2f542c71ae4e6a692f",
    "sii": "3ea5ac8a3692e121d10a796f8ddd833ab4ad8e4de7188f4b90d57488ee8df515",
}

GENERATE_GRAPHML_SHA256 = "2b76c0335faa6dc735adc50054e8c33700d3209de9a66fdf5e9e8319d7b799d1"
GENERATE_STDOUT_SHA256 = "74e5eee7b8e4872cba9054429db4abbaa03416956c17d5ace9d284aeeb42d952"
SIMULATE_STDOUT_SHA256 = "a2939c4f32a5af6fbc6a0211a088b7ea950ed49efc453914ddf8338f9e58ff7a"
SIMULATE_TRACE_SHA256 = "87c72514cbb80a81eb44e3fb06b6588bba2a916b4f70004e5a43f4f924929e45"

# Sparse islands: several of these runs need connectivity retries, so the
# digest pins the retry seeds (see test_retried_runs_never_share_a_network).
RETRY_NETWORK_FLAGS = ("--model", "sii", "--islands", "4", "--island-size", "8",
                       "--p-in", "0.35", "--inter", "1")
RETRY_SWEEP_FLAGS = (*RETRY_NETWORK_FLAGS, "--k", "0.1", "--supporters", "0",
                     "--curious", "0.5", "--enthusiastic", "0.5", "--reps", "20",
                     "--base-seed", "0")
RETRY_SWEEP_RECORDS_SHA256 = "8add0207f29caccbe2c2a89b9017255a333e2571ad0f20bac3e415bd8ecbff87"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(capsys, *argv) -> bytes:
    assert main(list(argv)) == EXIT_OK
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("model", sorted(SWEEP_RECORDS_SHA256))
def test_sweep_records_digest(model, tmp_path, capsys):
    out = tmp_path / "records.csv"
    stdout = run_cli(capsys, "sweep", "--model", model, *SWEEP_FLAGS, "--out", str(out))
    assert stdout == b"runs: 8, failed: 0\n"
    assert sha256(out.read_bytes()) == SWEEP_RECORDS_SHA256[model]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_retried_sweep_records_digest(jobs, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("womlab.sweep._usable_cpus", lambda: 2)  # the pool path on any machine
    out = tmp_path / "records.csv"
    stdout = run_cli(capsys, "sweep", *RETRY_SWEEP_FLAGS, "--jobs", jobs, "--out", str(out))
    assert stdout == b"runs: 20, failed: 0\n"
    assert sha256(out.read_bytes()) == RETRY_SWEEP_RECORDS_SHA256


def test_generate_and_simulate_digests(tmp_path, capsys):
    network, trace = tmp_path / "ff.graphml", tmp_path / "trace.csv"
    stdout = run_cli(capsys, "generate", "--model", "ff", "--n", "300", "--seed", "11",
                     "--out", str(network))
    assert sha256(stdout) == GENERATE_STDOUT_SHA256
    assert sha256(network.read_bytes()) == GENERATE_GRAPHML_SHA256
    stdout = run_cli(capsys, "simulate", "--network", str(network), "--k", "0.05",
                     "--curious", "0.5", "--enthusiastic", "0.5", "--supporters", "0.1",
                     "--seed", "3", "--trace", str(trace))
    assert sha256(stdout) == SIMULATE_STDOUT_SHA256
    assert sha256(trace.read_bytes()) == SIMULATE_TRACE_SHA256


REPORT_STDOUT_SHA256 = "12ac9af6be581b293d95f301d433af1ca81c8053b6bf1f7842596a49f065bfa2"
REPORT_FILES_SHA256 = {
    "heatmap_ff_k0.01_s0.1.csv": "e03a53abb4c24f4aa1854de32214f4d99acff05ebcae2ae835784c86e784ca08",
    "heatmap_ff_k0.01_s0.1.ppm": "03e5a118c57724947fd087e5d91eedb9dd6c60143d9264171d012b1c31999ff5",
    "heatmap_ff_k0.01_s0.csv": "3ba164117a2b0e71cd22a6ee326d2d33490654e90afb165565e0d8b173b90035",
    "heatmap_ff_k0.01_s0.ppm": "d703816430bfbd839d298bc8abef40bdd1f00726ce1d1476d9a669bfb7aea813",
    "heatmap_ff_k0.5_s0.1.csv": "ce7e6cf9a08b9c76a7973e27065a6f5aff0514a29e2cbd65ec257025a55318f8",
    "heatmap_ff_k0.5_s0.1.ppm": "82f20b50ef30e511f93bd6c3a6d81fabf90b961c8fe4cdc9fa5ebf722cd57910",
    "heatmap_ff_k0.5_s0.csv": "bd983e2368df23df972c0e2a57482204034da887bc1b83424c9e132ee8170846",
    "heatmap_ff_k0.5_s0.ppm": "971cda9fb87e4c090139b1f78f272c6ad2cadabeec1b592cfeb4af761284f392",
    "heatmap_ws_k0.01_s0.1.csv": "ec42f48272f487d74c6a024d4d38f2defba00c778c39db75cee96259c31ec097",
    "heatmap_ws_k0.01_s0.1.ppm": "d0837cfe594c13f14b121e5c53f15ff44174db60616f9aed66a950134216f72c",
    "heatmap_ws_k0.01_s0.csv": "cca81613bbb725c6fa23a7a7a9de044e2656e4cc640d4ebdb29a796ce18fcb1a",
    "heatmap_ws_k0.01_s0.ppm": "2678dfdac602d6bf037a13c49d4739d3be2783e179e51742292e573d1b720afc",
    "heatmap_ws_k0.5_s0.1.csv": "6c6b9ee6bd18bdd70f758271e20c4986e009bb0bca47d1e478f0e1f0cb4d0345",
    "heatmap_ws_k0.5_s0.1.ppm": "927de649375c644ca259c98fe4aa152e8ff2a29ebd51db93aa52282a87fd1c73",
    "heatmap_ws_k0.5_s0.csv": "52cf31aec388b0151c1cbe91507b15f34aa7da94e072f61334ac71dc3da8355f",
    "heatmap_ws_k0.5_s0.ppm": "96e7314651ddc3856162c1835f72d15804f0eee92f6f50b2921cbef930ad034b",
}


def report_records_csv(path) -> None:
    """A records CSV with the default grid's shape in miniature: two
    models, two k and supporters values, a 3x3 trait grid, 3 replicates,
    some undefined path metrics, and k written three ways that print
    alike at 6 decimals."""
    rng = random.Random(20200207)
    rows = [RECORDS_HEADER]
    cells = itertools.product(("ws", "ff"), (0.01, 0.5), (0.0, 0.1), (0.0, 0.5, 1.0),
                              (0.0, 0.5, 1.0), range(3))
    for seed, (model, k, supporters, curious, enthusiastic, rep) in enumerate(cells, start=1):
        k_text = (("0.5", "0.500000", "0.5000000001")[rep]
                  if k == 0.5 and model == "ff" else f"{k:.6f}")
        aware = rng.random()
        both = aware * rng.random()
        connected = rng.random() < 0.8
        rows.append(",".join([
            model, str(seed), str(seed + 10_000), k_text,
            f"{curious:.6f}", f"{enthusiastic:.6f}", f"{supporters:.6f}",
            repr(aware), repr(both), str(rng.randint(1, 400)),
            "true" if rng.random() < 0.1 else "false",
            "1000", str(rng.randint(2000, 6000)), repr(rng.random() / 100),
            repr(2 + 4 * rng.random()) if connected else "NA",
            repr(rng.random()),
            str(rng.randint(4, 20)) if connected else "NA",
        ]))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_report_digest(tmp_path, capsys):
    records, out_dir = tmp_path / "records.csv", tmp_path / "heatmaps"
    report_records_csv(records)
    stdout = run_cli(capsys, "report", "--in", str(records), "--out-dir", str(out_dir))
    files = {p.name: sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())}
    assert sha256(stdout) == REPORT_STDOUT_SHA256
    assert files == REPORT_FILES_SHA256
