"""Golden digests: the exact output bytes of fixed CLI invocations.

The determinism contract says the same flags give the same bytes; these
pins hold that across code changes, not only within one process.  A
change that alters any digest below changes every downstream result and
must say why in CHANGES.md.
"""

import hashlib

import pytest

from womlab.cli import EXIT_OK, main

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
