"""The layer seams that perfbench traces stay in place.

perfbench/tracing.py wraps the module attributes that womlab looks up at
call time.  A refactor that goes round one of them (a generator calling
``Graph(...)`` instead of ``build_graph``, say) would not fail any other
test; it would only empty that layer's benchmark metrics.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import womlab.cli
import womlab.generators
from womlab.cli import EXIT_OK, main
from womlab.generators import MODEL_IDS
from womlab.reporting import RECORDS_HEADER, write_records_csv
from test_sweep import record

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing_targets():
    path = PERFBENCH / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _tracing_targets()


@pytest.mark.parametrize("module,attribute", [target[:2] for target in TARGETS],
                         ids=[".".join(target[:2]) for target in TARGETS])
def test_traced_attribute_exists(module, attribute):
    assert hasattr(importlib.import_module(module), attribute)


@pytest.mark.parametrize("model", MODEL_IDS)
def test_every_run_builds_its_graph_through_build_graph(model, tmp_path, capsys, monkeypatch):
    calls = []
    build_graph = womlab.generators.build_graph
    monkeypatch.setattr(womlab.generators, "build_graph",
                        lambda *args: calls.append(args) or build_graph(*args))
    code = main(["sweep", "--model", model, "--k", "0.1", "--supporters", "0",
                 "--curious", "0.5", "--enthusiastic", "0.5", "--reps", "2",
                 "--out", str(tmp_path / "records.csv")])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "runs: 2, failed: 0\n"
    assert len(calls) >= 2


def test_benchmark_records_header_is_womlabs():
    # perfbench/run.py writes the report workload's input under its own
    # header literal; it is read with ast, since run.py imports scipy.
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    [literal] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["RECORDS_HEADER"]]
    assert ast.literal_eval(literal) == RECORDS_HEADER


def test_cli_read_records_csv_returns_a_list(tmp_path):
    # The sweep workload's check takes len() of what it returns.
    path = tmp_path / "records.csv"
    write_records_csv([record(0.5), record(0.25, sim_seed=2)], path)
    records = womlab.cli.read_records_csv(path)
    assert isinstance(records, list) and len(records) == 2
