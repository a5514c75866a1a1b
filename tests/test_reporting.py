"""GraphML round-trips, CSV schemas and heatmap rendering."""

import itertools

import pytest

from womlab.generators import FfParams, SiiParams, WsParams, generate
from womlab.graph import build_graph
from womlab.reporting import (GraphMLError, CsvFormatError, HeatmapError,
                              RECORDS_HEADER, SUMMARIES_HEADER, graphml_string,
                              panels, read_graphml, read_records_csv,
                              read_summaries_csv, records_csv_string,
                              render_heatmap, summaries_csv_string,
                              write_graphml, write_records_csv,
                              write_summaries_csv)
from womlab.sweep import CellSummary, SweepGrid, aggregate, run_sweep
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
        '    <node id="a"><data key="d0">red</data></node>\n'
        '    <node id="b"/>\n'
        '    <edge source="a" target="b" weight="2"><data key="d0">x</data></edge>\n'
        '  </graph>\n'
        '</graphml>\n')
    g, mapping = read_graphml(path, return_mapping=True)
    assert g.node_count == 2
    assert g.edges() == [(0, 1)]
    assert mapping == {"a": 0, "b": 1}


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


# -- records / summaries CSV -----------------------------------------------------


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
        assert x.sd_final_both == pytest.approx(y.sd_final_both, abs=1e-6)
        assert x.n == y.n


def test_records_csv_rejects_failed():
    with pytest.raises(ValueError, match="failed"):
        records_csv_string([record(0.5, failed=True)])


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


def test_records_csv_non_numeric_field_names_file_line(tmp_path):
    fields = record_row().split(",")
    fields[9] = "ten"  # rounds
    path = tmp_path / "records.csv"
    path.write_text(records_text(record_row(), ",".join(fields)))
    with pytest.raises(CsvFormatError, match="records CSV line 3: .*'ten'"):
        read_records_csv(path)


def test_summaries_csv_non_numeric_field_names_file_line(tmp_path):
    rows = summaries_csv_string(aggregate([record(0.5)])).splitlines()
    fields = rows[1].split(",")
    fields[9] = "x"  # n
    path = tmp_path / "summaries.csv"
    path.write_text("\n".join((rows[0], rows[1], ",".join(fields))) + "\n")
    with pytest.raises(CsvFormatError, match="summaries CSV line 3: .*'x'"):
        read_summaries_csv(path)


def test_summaries_csv_round_trip(tmp_path):
    grid = small_grid()
    summaries = aggregate(run_sweep(grid, worker_count=1))
    path = tmp_path / "summaries.csv"
    write_summaries_csv(summaries, path)
    back = read_summaries_csv(path)
    assert len(back) == len(summaries)
    for a, b in zip(summaries, back):
        assert a.network_model == b.network_model
        assert a.mean_final_both == pytest.approx(b.mean_final_both, abs=1e-6)
        assert a.mean_rounds == pytest.approx(b.mean_rounds, abs=1e-6)
        assert a.n == b.n
    assert summaries_csv_string(back).startswith(SUMMARIES_HEADER)


def test_csv_byte_stability():
    records = [record(0.25), record(0.75, sim_seed=2)]
    assert records_csv_string(records) == records_csv_string(records)
    summaries = aggregate(records)
    assert summaries_csv_string(summaries) == summaries_csv_string(summaries)


# -- heatmaps -----------------------------------------------------------------


def summary(curious, enthusiastic, value, model="ws", k=0.01, supporters=0.0):
    return CellSummary(network_model=model, k=k, supporters=supporters,
                       curious=curious, enthusiastic=enthusiastic,
                       mean_final_both=value, sd_final_both=0.0,
                       mean_final_aware=value, mean_rounds=10.0, n=2)


def grid_summaries(values):
    # values[(c_idx, e_idx)] on a 2x2 grid with coordinates {0, 1}
    return [summary(c, e, values[(c, e)]) for c in (0.0, 1.0) for e in (0.0, 1.0)]


def test_heatmap_uniform_dark():
    csv_text, ppm_text = render_heatmap(
        grid_summaries({(c, e): 0.0 for c in (0.0, 1.0) for e in (0.0, 1.0)}),
        ("ws", 0.01, 0.0), cell_px=1)
    assert csv_text.splitlines()[1:] == ["0.000000,0.000000,0.000000",
                                         "1.000000,0.000000,0.000000"]
    pixels = ppm_text.splitlines()[3:]
    assert pixels == ["0 0 64"] * 4


def test_heatmap_uniform_bright():
    _, ppm_text = render_heatmap(
        grid_summaries({(c, e): 1.0 for c in (0.0, 1.0) for e in (0.0, 1.0)}),
        ("ws", 0.01, 0.0), cell_px=1)
    assert ppm_text.splitlines()[3:] == ["255 255 255"] * 4


def test_heatmap_2x2_distinct_blocks():
    values = {(0.0, 0.0): 0.0, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 0.5}
    csv_text, ppm_text = render_heatmap(grid_summaries(values), ("ws", 0.01, 0.0),
                                        cell_px=1)
    lines = ppm_text.splitlines()
    assert lines[:3] == ["P3", "2 2", "255"]
    # top row is enthusiastic=1.0: both cells 0.5 -> (128, 128, 160) (half-up)
    assert lines[3] == "128 128 160" and lines[4] == "128 128 160"
    # bottom row is enthusiastic=0.0: curious 0 -> dark, curious 1 -> bright
    assert lines[5] == "0 0 64" and lines[6] == "255 255 255"
    rows = csv_text.splitlines()
    assert rows[0] == "enthusiastic,0.000000,1.000000"
    assert rows[1] == "0.000000,0.000000,1.000000"
    assert rows[2] == "1.000000,0.500000,0.500000"


def test_heatmap_block_size():
    values = {(0.0, 0.0): 0.0, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 0.5}
    _, ppm_text = render_heatmap(grid_summaries(values), ("ws", 0.01, 0.0), cell_px=3)
    lines = ppm_text.splitlines()
    assert lines[1] == "6 6"
    assert len(lines) == 3 + 36


def test_heatmap_missing_cells_listed():
    values = {(0.0, 0.0): 0.0, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 0.5}
    summaries = grid_summaries(values)[:-1]
    with pytest.raises(HeatmapError, match="missing cells"):
        render_heatmap(summaries, ("ws", 0.01, 0.0))


def test_heatmap_empty_panel():
    with pytest.raises(HeatmapError, match="no summaries"):
        render_heatmap([summary(0.0, 0.0, 0.5)], ("ff", 0.01, 0.0))


def test_heatmap_byte_stable():
    values = {(0.0, 0.0): 0.123456, (1.0, 0.0): 1.0, (0.0, 1.0): 0.5, (1.0, 1.0): 0.5}
    out1 = render_heatmap(grid_summaries(values), ("ws", 0.01, 0.0))
    out2 = render_heatmap(grid_summaries(values), ("ws", 0.01, 0.0))
    assert out1 == out2


def test_heatmap_whole_list_equals_panel_only():
    values = {(0.0, 0.0): 0.1, (1.0, 0.0): 0.9, (0.0, 1.0): 0.5, (1.0, 1.0): 0.3}
    panel = grid_summaries(values)
    others = [summary(c, e, 0.7, model=m, k=k) for m, k in (("ff", 0.01), ("ws", 0.5))
              for c in (0.0, 1.0) for e in (0.0, 1.0)]
    whole = others[:4] + panel + others[4:]
    assert render_heatmap(whole, ("ws", 0.01, 0.0)) == render_heatmap(panel, ("ws", 0.01, 0.0))


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
