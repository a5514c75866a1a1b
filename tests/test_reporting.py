"""GraphML round-trips, CSV schemas and heatmap rendering."""

import dataclasses
import itertools

import pytest

from womlab.generators import FfParams, SiiParams, WsParams, generate
from womlab.graph import build_graph
from womlab.reporting import (HEATMAP_CELL_PX, GraphMLError, CsvFormatError,
                              HeatmapError, RECORDS_HEADER, graphml_string, panels,
                              read_graphml, read_records_csv, records_csv_string,
                              render_heatmap, write_graphml, write_records_csv)
from womlab.sweep import CellSummary, RunRecord, SweepGrid, aggregate, run_sweep
from test_sweep import record, small_grid


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


# -- GraphML ------------------------------------------------------------------


def test_write_graphml_triangle(tmp_path):
    path = tmp_path / "k3.graphml"
    nbytes = write_graphml(triangle(), path)
    text = path.read_text()
    assert nbytes == len(text.encode())
    assert text.count("<node ") == 3
    assert text.count("<edge ") == 3
    assert 'edgedefault="undirected"' in text
    assert text.endswith("\n")


def test_graphml_round_trip_triangle(tmp_path):
    path = tmp_path / "k3.graphml"
    write_graphml(triangle(), path)
    g = read_graphml(path)
    assert g.node_count == 3
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def test_graphml_empty_graph(tmp_path):
    path = tmp_path / "empty.graphml"
    write_graphml(build_graph(2, []), path)
    g = read_graphml(path)
    assert g.node_count == 2
    assert g.edge_count == 0


def test_graphml_byte_stable(tmp_path):
    g = generate("ws", WsParams(n=40, nei=2, p_rewire=0.3), 5)
    assert graphml_string(g) == graphml_string(g)


@pytest.mark.parametrize("model,params", [
    ("ws", WsParams(n=60, nei=3, p_rewire=0.2)),
    ("ff", FfParams(n=60)),
    ("sii", SiiParams(n_islands=3, island_size=15, p_in=0.3, n_inter=2)),
])
def test_graphml_round_trip_all_generators(tmp_path, model, params):
    for seed in range(5):
        g = generate(model, params, seed)
        path = tmp_path / f"{model}_{seed}.graphml"
        write_graphml(g, path)
        back = read_graphml(path)
        assert back.node_count == g.node_count
        assert back.edges() == g.edges()


def test_graphml_rejects_directed(tmp_path):
    path = tmp_path / "directed.graphml"
    path.write_text('<graphml><graph edgedefault="directed">'
                    '<node id="n0"/><node id="n1"/>'
                    '<edge source="n0" target="n1"/></graph></graphml>')
    with pytest.raises(GraphMLError, match="directed"):
        read_graphml(path)


def test_graphml_tolerates_foreign_data(tmp_path):
    path = tmp_path / "foreign.graphml"
    path.write_text(
        '<?xml version="1.0"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="d0" for="node" attr.name="color" attr.type="string"/>\n'
        '  <graph id="G" edgedefault="undirected">\n'
        '    <node id="c"><data key="d0">red</data></node>\n'
        '    <node id="e"/>\n'
        '    <node id="a"/>\n'
        '    <node id="b"/>\n'
        '    <edge source="a" target="c" weight="2"><data key="d0">x</data></edge>\n'
        '    <edge source="c" target="b"/>\n'
        '  </graph>\n'
        '</graphml>\n')
    g = read_graphml(path)
    # Ids map in document order (c, e, a, b), not sorted (a, b, c, e).
    assert g.node_count == 4
    assert g.edges() == [(0, 2), (0, 3)]


def test_graphml_dangling_endpoint_reports_line(tmp_path):
    path = tmp_path / "dangling.graphml"
    path.write_text('<graphml>\n<graph edgedefault="undirected">\n'
                    '<node id="n0"/>\n'
                    '<edge source="n0" target="n9"/>\n'
                    '</graph>\n</graphml>\n')
    with pytest.raises(GraphMLError, match=r"n9.*line 4"):
        read_graphml(path)


def test_graphml_malformed_xml_reports_line(tmp_path):
    path = tmp_path / "broken.graphml"
    path.write_text("<graphml><graph edgedefault='undirected'>\n<node id='n0'\n")
    with pytest.raises(GraphMLError, match="line"):
        read_graphml(path)


def test_graphml_rejects_self_loop(tmp_path):
    path = tmp_path / "loop.graphml"
    path.write_text('<graphml><graph edgedefault="undirected">'
                    '<node id="n0"/><edge source="n0" target="n0"/></graph></graphml>')
    with pytest.raises(GraphMLError, match="self-loop"):
        read_graphml(path)


def test_graphml_rejects_duplicate_node_id(tmp_path):
    path = tmp_path / "dup.graphml"
    path.write_text('<graphml><graph edgedefault="undirected">'
                    '<node id="n0"/><node id="n0"/></graph></graphml>')
    with pytest.raises(GraphMLError, match="duplicate"):
        read_graphml(path)


def test_graphml_duplicate_edges_collapse(tmp_path):
    path = tmp_path / "dupedge.graphml"
    path.write_text('<graphml><graph edgedefault="undirected">'
                    '<node id="n0"/><node id="n1"/>'
                    '<edge source="n0" target="n1"/>'
                    '<edge source="n1" target="n0"/></graph></graphml>')
    assert read_graphml(path).edge_count == 1


# -- records CSV -----------------------------------------------------------------


def test_records_csv_empty_and_single(tmp_path):
    assert records_csv_string([]) == RECORDS_HEADER + "\n"
    text = records_csv_string([record(0.5)])
    assert len(text.splitlines()) == 2
    assert text.endswith("\n")


def test_records_csv_round_trip(tmp_path):
    grid = small_grid()
    records = run_sweep(grid, worker_count=1)
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    back = read_records_csv(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.network_seed == b.network_seed and a.sim_seed == b.sim_seed
        assert a.final_both == pytest.approx(b.final_both, abs=1e-6)
        assert a.rounds == b.rounds and a.diameter == b.diameter
    # aggregation over the re-read records matches the original aggregation
    orig = aggregate(records)
    reread = aggregate(back)
    assert len(orig) == len(reread)
    for x, y in zip(orig, reread):
        assert x.mean_final_both == pytest.approx(y.mean_final_both, abs=1e-6)


def test_run_record_fields_are_the_records_header_in_order():
    # read_records_csv builds each RunRecord from the row by position.
    assert [f.name for f in dataclasses.fields(RunRecord)] == RECORDS_HEADER.split(",")


def test_records_csv_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(CsvFormatError):
        read_records_csv(path)


def records_text(*rows):
    return "\n".join((RECORDS_HEADER, *rows)) + "\n"


def record_row(**overrides):
    return records_csv_string([record(0.5, **overrides)]).splitlines()[1]


def test_records_csv_short_row_names_file_line(tmp_path):
    # The blank line counts: the 16-field row is line 4 of the file.
    path = tmp_path / "short.csv"
    path.write_text(records_text(record_row(), "", record_row().rsplit(",", 1)[0]))
    with pytest.raises(CsvFormatError, match="line 4: expected 17 fields"):
        read_records_csv(path)


def test_records_csv_reads_hit_max_rounds(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(records_text(record_row(hit_max_rounds=True), record_row()))
    assert [r.hit_max_rounds for r in read_records_csv(path)] == [True, False]


@pytest.mark.parametrize("value", ["True", "1", "", "yes"])
def test_records_csv_rejects_bad_hit_max_rounds(tmp_path, value):
    fields = record_row().split(",")
    fields[10] = value
    path = tmp_path / "records.csv"
    path.write_text(records_text(record_row(), ",".join(fields)))
    with pytest.raises(CsvFormatError, match="line 3: hit_max_rounds"):
        read_records_csv(path)


@pytest.mark.parametrize("model", ["zz/b", "", "WS"])
def test_records_csv_rejects_unknown_network_model(tmp_path, model):
    path = tmp_path / "records.csv"
    path.write_text(records_text(record_row(), record_row(network_model=model)))
    with pytest.raises(CsvFormatError, match="line 3: network_model must be one of "
                                             "ff, file, sii, ws"):
        read_records_csv(path)


def test_records_csv_reads_every_network_model_written(tmp_path):
    models = ["ws", "ff", "sii", "file"]
    path = tmp_path / "records.csv"
    path.write_text(records_text(*(record_row(network_model=m) for m in models)))
    assert [r.network_model for r in read_records_csv(path)] == models


def test_records_csv_non_numeric_field_names_file_line(tmp_path):
    fields = record_row().split(",")
    fields[9] = "ten"  # rounds
    path = tmp_path / "records.csv"
    path.write_text(records_text(record_row(), ",".join(fields)))
    with pytest.raises(CsvFormatError, match="records CSV line 3: .*'ten'"):
        read_records_csv(path)


def test_csv_byte_stability():
    records = [record(0.25), record(0.75, sim_seed=2)]
    assert records_csv_string(records) == records_csv_string(records)


# -- heatmaps -----------------------------------------------------------------


def summary(curious, enthusiastic, value, model="ws", k=0.01, supporters=0.0):
    return CellSummary(network_model=model, k=k, supporters=supporters,
                       curious=curious, enthusiastic=enthusiastic,
                       mean_final_both=value)


def grid_summaries(values):
    # values[(c_idx, e_idx)] on a 2x2 grid with coordinates {0, 1}
    return [summary(c, e, values[(c, e)]) for c in (0.0, 1.0) for e in (0.0, 1.0)]


def pixel_rows(*cell_colors):
    # One image row of a row of cells, as HEATMAP_CELL_PX pixel rows.
    return [color for color in cell_colors for _ in range(HEATMAP_CELL_PX)] * HEATMAP_CELL_PX


def test_heatmap_uniform_dark():
    csv_text, ppm_text = render_heatmap(
        grid_summaries({(c, e): 0.0 for c in (0.0, 1.0) for e in (0.0, 1.0)}))
    assert csv_text.splitlines()[1:] == ["0.000000,0.000000,0.000000",
                                         "1.000000,0.000000,0.000000"]
    pixels = ppm_text.splitlines()[3:]
    assert pixels == ["0 0 64"] * (4 * HEATMAP_CELL_PX ** 2)


def test_heatmap_uniform_bright():
    _, ppm_text = render_heatmap(
        grid_summaries({(c, e): 1.0 for c in (0.0, 1.0) for e in (0.0, 1.0)}))
    assert ppm_text.splitlines()[3:] == ["255 255 255"] * (4 * HEATMAP_CELL_PX ** 2)


def test_heatmap_2x2_distinct_blocks():
    values = {(0.0, 0.0): 0.0, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 0.5}
    csv_text, ppm_text = render_heatmap(grid_summaries(values))
    side = 2 * HEATMAP_CELL_PX
    assert ppm_text == "\n".join([
        "P3", f"{side} {side}", "255",
        # top row is enthusiastic=1.0: both cells 0.5 -> (128, 128, 160) (half-up)
        *pixel_rows("128 128 160", "128 128 160"),
        # bottom row is enthusiastic=0.0: curious 0 -> dark, curious 1 -> bright
        *pixel_rows("0 0 64", "255 255 255"),
    ]) + "\n"
    rows = csv_text.splitlines()
    assert rows[0] == "enthusiastic,0.000000,1.000000"
    assert rows[1] == "0.000000,0.000000,1.000000"
    assert rows[2] == "1.000000,0.500000,0.500000"


def test_heatmap_block_size():
    values = {(0.0, 0.0): 0.0, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 0.5}
    summaries = grid_summaries(values) + [summary(0.5, e, 0.25) for e in (0.0, 1.0)]
    _, ppm_text = render_heatmap(summaries)
    lines = ppm_text.splitlines()
    assert lines[1] == f"{3 * HEATMAP_CELL_PX} {2 * HEATMAP_CELL_PX}"
    assert len(lines) == 3 + 6 * HEATMAP_CELL_PX ** 2


def test_heatmap_missing_cells_listed():
    values = {(0.0, 0.0): 0.0, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 0.5}
    summaries = grid_summaries(values)[:-1]
    with pytest.raises(HeatmapError, match="missing cells"):
        render_heatmap(summaries)


def test_heatmap_empty_panel():
    with pytest.raises(HeatmapError, match="no summaries"):
        render_heatmap([])


def test_heatmap_duplicate_cell():
    values = {(0.0, 0.0): 0.0, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 0.5}
    summaries = grid_summaries(values) + [summary(1.0, 1.0 + 1e-12, 0.5)]
    with pytest.raises(HeatmapError, match="duplicate cell"):
        render_heatmap(summaries)


def test_heatmap_value_out_of_range():
    values = {(0.0, 0.0): 0.0, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 1.5}
    with pytest.raises(HeatmapError, match=r"\[0, 1\]"):
        render_heatmap(grid_summaries(values))


def test_heatmap_byte_stable():
    values = {(0.0, 0.0): 0.123456, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 0.5}
    out1 = render_heatmap(grid_summaries(values))
    out2 = render_heatmap(grid_summaries(values))
    assert out1 == out2


def test_heatmap_rejects_mixed_panels():
    values = {(0.0, 0.0): 0.1, (1.0, 0.0): 0.9, (0.0, 1.0): 0.5, (1.0, 1.0): 0.3}
    panel = grid_summaries(values)
    for model, k, supporters in (("ff", 0.01, 0.0), ("ws", 0.5, 0.0), ("ws", 0.01, 0.1)):
        other = summary(0.5, 0.5, 0.7, model=model, k=k, supporters=supporters)
        with pytest.raises(HeatmapError, match="more than one panel"):
            render_heatmap(panel + [other])
    # A k that prints alike at 6 decimals is the same panel.
    alike = [dataclasses.replace(s, k=0.01 + 1e-12) for s in panel[2:]]
    assert render_heatmap(panel[:2] + alike) == render_heatmap(panel)


def test_panel_keys_sorted_distinct():
    summaries = [summary(0.0, 0.0, 0.1, model=m, k=k, supporters=s)
                 for m, k, s in itertools.product(("ws", "ff"), (0.01, 0.5), (0.0, 0.1))]
    # Two k values that print alike share a panel.
    summaries.append(summary(1.0, 0.0, 0.2, model="ff", k=0.5 + 1e-12, supporters=0.1))
    grouped = panels(summaries)
    keys = [key for key, _ in grouped]
    assert len(keys) == 8
    assert keys == sorted(keys)
    for (model, k, supporters), panel in grouped:
        assert {(s.network_model, f"{s.k:.6f}", s.supporters) for s in panel} == {
            (model, f"{k:.6f}", supporters)}
    assert grouped[3] == (("ff", 0.5 + 1e-12, 0.1), summaries[7:])
