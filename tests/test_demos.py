"""The demo scripts run end to end and write exactly their documented files."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# Every demo script, with the files it writes into the working directory.
WRITTEN = {
    "generate_networks.py": ["network_ff.graphml", "network_sii.graphml", "network_ws.graphml"],
    "single_simulation.py": [],
    "sweep_and_heatmap.py": ["demo_heatmap.csv", "demo_heatmap.ppm", "demo_records.csv"],
}


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert sorted(p.name for p in tmp_path.iterdir()) == WRITTEN[script]
    assert capsys.readouterr().out
