"""GraphML round-trips, CSV schemas and heatmap rendering."""

import itertools
import re
import tracemalloc
from pathlib import Path

import pytest

from womlab.generators import FfParams, SiiParams, WsParams, generate
from womlab.graph import build_graph
from womlab.reporting import (HEATMAP_CELL_PX, GraphMLError, CsvFormatError,
                              HeatmapError, RECORDS_HEADER, csv_row, graphml_string,
                              iter_records, read_graphml, read_records_csv,
                              records_csv_string, render_heatmap, write_graphml,
                              write_records_csv)
from womlab.sweep import SweepGrid, aggregate, run_sweep
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


@pytest.mark.parametrize("body,message", [
    ('<graph edgedefault="undirected">\n<graph>\n</graph>\n</graph>',
     r"nested or repeated <graph> \(line 3\)"),
    ('<graph edgedefault="undirected">\n</graph>\n<graph>\n</graph>',
     r"nested or repeated <graph> \(line 4\)"),
    ('<graph edgedefault="undirected">\n<node/>\n</graph>', r"<node> without id \(line 3\)"),
    ('<graph edgedefault="undirected">\n<node id="n0"/>\n<edge source="n0"/>\n</graph>',
     r"<edge> without source/target \(line 4\)"),
    ('<graph edgedefault="undirected">\n<node id="n0"/>\n<edge target="n0"/>\n</graph>',
     r"<edge> without source/target \(line 4\)"),
    ('<graph edgedefault="undirected">\n<hyperedge/>\n</graph>',
     r"unsupported GraphML feature <hyperedge> \(line 3\)"),
    ('<graph edgedefault="undirected">\n<node id="n0">\n<port name="p"/>\n</node>\n</graph>',
     r"unsupported GraphML feature <port> \(line 4\)"),
    ('<key id="d0" for="node"/>', r"^no <graph> element found$"),
    ('<graph edgedefault="undirected">\n<node id="a"/>\n<node id="b"/>\n'
     '<edge source="a" target="b" directed="true"/>\n</graph>',
     r"directed edges are not supported \(line 5\)"),
], ids=["nested-graph", "repeated-graph", "node-without-id", "edge-without-target",
        "edge-without-source", "hyperedge", "port", "no-graph", "directed-edge"])
def test_graphml_rejects_unsupported_structure(tmp_path, body, message):
    path = tmp_path / "bad.graphml"
    path.write_text(f'<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n{body}\n'
                    '</graphml>\n')
    with pytest.raises(GraphMLError, match=message):
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
    [(panel, orig)] = aggregate(records)
    [(reread_panel, reread)] = aggregate(back)
    assert reread_panel == panel and list(reread) == list(orig)
    for cell, mean in orig.items():
        assert reread[cell] == pytest.approx(mean, abs=1e-6)


def test_records_header_is_the_readme_header():
    # The header is RunRecord's field list: renaming a field must not
    # silently change the documented file format.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    [documented] = re.findall(r"`(network_model,[a-z_,]+)`", readme)
    assert RECORDS_HEADER == documented


def test_csv_row_writes_each_kind_of_value():
    assert csv_row((True, False, None, 0.25, 7, "ws")) == "true,false,NA,0.250000,7,ws"


def test_records_csv_writes_real_fields_with_six_decimals_whatever_their_type():
    fields = records_csv_string([record(1, k=1, density=0, avg_path_length=None)]
                               ).splitlines()[1].split(",")
    named = dict(zip(RECORDS_HEADER.split(","), fields))
    assert [named[f] for f in ("k", "final_aware", "final_both", "density")] == [
        "1.000000", "1.000000", "1.000000", "0.000000"]
    assert (named["avg_path_length"], named["rounds"], named["nodes"]) == ("NA", "10", "10")


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


def test_streamed_fold_matches_the_list_path(tmp_path):
    # Three interleaved cells of three replicates, CRLF line endings: curious
    # written as 0.5 and as 0.500000 (one cell), and 0.000000 and -0.000000
    # (two cells).  The sum of 0.1, 0.2, 0.3 shows its order in the bits.
    fields = record_row().split(",")
    rows = []
    for rep, both in enumerate(("0.1", "0.2", "0.3")):
        for curious in (("0.5", "0.500000")[rep % 2], "0.000000", "-0.000000"):
            fields[4], fields[8], fields[2] = curious, both, str(rep)
            rows.append(",".join(fields))
    path = tmp_path / "records.csv"
    path.write_bytes(records_text(*rows).replace("\n", "\r\n").encode())
    streamed, listed = aggregate(iter_records(path)), aggregate(read_records_csv(path))
    assert streamed == listed
    [(_, cells)], [(_, list_cells)] = streamed, listed
    assert list(cells) == [("-0.000000", "0.500000"), ("0.000000", "0.500000"),
                           ("0.500000", "0.500000")]
    assert [m.hex() for m in cells.values()] == [m.hex() for m in list_cells.values()]
    assert cells[("0.500000", "0.500000")] == (0.1 + 0.2 + 0.3) / 3 != 0.6 / 3


def test_streamed_fold_holds_no_records_list(tmp_path):
    # 20 x 20 cells of 50 replicates: 20,000 rows.
    fields = record_row().split(",")
    rows = []
    for curious, enthusiastic in itertools.product(range(20), repeat=2):
        fields[4], fields[5] = f"{curious / 20:.6f}", f"{enthusiastic / 20:.6f}"
        rows.extend(",".join(fields) for _ in range(50))
    path = tmp_path / "records.csv"
    path.write_text(records_text(*rows))
    del rows

    def peak(fn):
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = fn(path)
        _, top = tracemalloc.get_traced_memory()
        return result, top - before

    tracemalloc.start()
    try:
        panels, stream_peak = peak(lambda p: aggregate(iter_records(p)))
        records, list_peak = peak(read_records_csv)
    finally:
        tracemalloc.stop()
    assert len(records) == 20_000 and len(panels[0][1]) == 400
    assert stream_peak < list_peak / 4


def test_csv_byte_stability():
    records = [record(0.25), record(0.75, sim_seed=2)]
    assert records_csv_string(records) == records_csv_string(records)


# -- heatmaps -----------------------------------------------------------------


def grid_cells(values):
    # values[(curious, enthusiastic)] on a 2x2 grid with coordinates {0, 1}
    return {(f"{c:.6f}", f"{e:.6f}"): values[(c, e)] for c in (0.0, 1.0) for e in (0.0, 1.0)}


def pixel_rows(*cell_colors):
    # One image row of a row of cells, as HEATMAP_CELL_PX pixel rows.
    return [color for color in cell_colors for _ in range(HEATMAP_CELL_PX)] * HEATMAP_CELL_PX


def test_heatmap_uniform_dark():
    csv_text, ppm_text = render_heatmap(
        grid_cells({(c, e): 0.0 for c in (0.0, 1.0) for e in (0.0, 1.0)}))
    assert csv_text.splitlines()[1:] == ["0.000000,0.000000,0.000000",
                                         "1.000000,0.000000,0.000000"]
    pixels = ppm_text.splitlines()[3:]
    assert pixels == ["0 0 64"] * (4 * HEATMAP_CELL_PX ** 2)


def test_heatmap_uniform_bright():
    _, ppm_text = render_heatmap(
        grid_cells({(c, e): 1.0 for c in (0.0, 1.0) for e in (0.0, 1.0)}))
    assert ppm_text.splitlines()[3:] == ["255 255 255"] * (4 * HEATMAP_CELL_PX ** 2)


def test_heatmap_2x2_distinct_blocks():
    values = {(0.0, 0.0): 0.0, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 0.5}
    csv_text, ppm_text = render_heatmap(grid_cells(values))
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
    cells = grid_cells(values) | {("0.500000", f"{e:.6f}"): 0.25 for e in (0.0, 1.0)}
    _, ppm_text = render_heatmap(cells)
    lines = ppm_text.splitlines()
    assert lines[1] == f"{3 * HEATMAP_CELL_PX} {2 * HEATMAP_CELL_PX}"
    assert len(lines) == 3 + 6 * HEATMAP_CELL_PX ** 2


def test_heatmap_missing_cells_listed():
    values = {(0.0, 0.0): 0.0, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 0.5}
    cells = grid_cells(values)
    del cells[("1.000000", "1.000000")]
    with pytest.raises(HeatmapError, match=r"missing cells: \(curious=1.000000, "
                                           r"enthusiastic=1.000000\)$"):
        render_heatmap(cells)


def test_heatmap_empty_panel():
    with pytest.raises(HeatmapError, match="no cells"):
        render_heatmap({})


def test_heatmap_value_out_of_range():
    values = {(0.0, 0.0): 0.0, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 1.5}
    with pytest.raises(HeatmapError, match=r"\[0, 1\]"):
        render_heatmap(grid_cells(values))


def test_heatmap_byte_stable():
    values = {(0.0, 0.0): 0.123456, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 0.5}
    out1 = render_heatmap(grid_cells(values))
    out2 = render_heatmap(grid_cells(values))
    assert out1 == out2


def test_panel_keys_sorted_distinct():
    records = [record(0.1, network_model=m, k=k, supporters=s)
               for m, k, s in itertools.product(("ws", "ff"), (0.01, 0.5), (0.0, 0.1))]
    # Two k values that print alike share a panel.
    records.append(record(0.2, network_model="ff", k=0.5 + 1e-12, supporters=0.1, curious=1.0))
    grouped = aggregate(records)
    keys = [key for key, _ in grouped]
    assert len(keys) == 8
    assert keys == sorted(keys)
    assert grouped[3] == (("ff", "0.500000", "0.100000"),
                          {("0.500000", "0.500000"): 0.1, ("1.000000", "0.500000"): 0.2})
