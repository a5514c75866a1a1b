"""Serialization: GraphML graphs, metrics and records CSV, heatmap panels.

All writers are byte-stable: serializing the same object twice yields
identical bytes, and every text format ends with a trailing newline.
The GraphML writer emits a minimal undirected subset; the reader is
tolerant (foreign keys, data and attributes are ignored) but rejects
directed graphs and structurally broken files with the offending line
number.  Heatmaps come out as a CSV matrix plus an ASCII PPM image,
formats chosen so the output is specifiable down to the byte without
any graphics dependency.
"""

from __future__ import annotations

import xml.parsers.expat
from collections.abc import Iterator
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

from .generators import MODEL_IDS
from .graph import Graph, build_graph
from .sweep import RunRecord, fmt6

RECORDS_HEADER = ",".join(f.name for f in fields(RunRecord))
_record_values = attrgetter(*RECORDS_HEADER.split(","))
METRICS_HEADER = "nodes,edges,density,avg_path_length,clustering,diameter,connected"

# One heatmap cell is rendered as a square block of this many pixels.
HEATMAP_CELL_PX = 10


class GraphMLError(ValueError):
    """Unreadable or unsupported GraphML input."""


class CsvFormatError(ValueError):
    """CSV input does not match the expected schema."""


class HeatmapError(ValueError):
    """Cells do not form one complete rectangular panel."""


def _csv_value(x) -> str:
    if isinstance(x, bool):  # first, since a bool is also an int
        return "true" if x else "false"
    return "NA" if x is None else (fmt6(x) if isinstance(x, float) else str(x))


def csv_row(values) -> str:
    """One CSV row (no newline), as every CSV output writes it: reals
    with 6 decimals, ``None`` as ``NA``, booleans as ``true``/``false``."""
    return ",".join(map(_csv_value, values))


# -- GraphML ---------------------------------------------------------------


def graphml_string(g: Graph) -> str:
    """Render a graph as minimal undirected GraphML.

    Nodes are ``n0..n{N-1}`` in order; edges carry the smaller endpoint
    as source and are sorted ascending, so output bytes are a pure
    function of the graph.
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
             '  <graph edgedefault="undirected">']
    lines.extend(f'    <node id="n{i}"/>' for i in range(g.node_count))
    lines.extend(f'    <edge source="n{u}" target="n{v}"/>' for u, v in g.edges())
    lines.append('  </graph>')
    lines.append('</graphml>')
    return "\n".join(lines) + "\n"


def write_graphml(g: Graph, destination) -> int:
    """Write GraphML to a path; returns the byte count."""
    data = graphml_string(g).encode("utf-8")
    Path(destination).write_bytes(data)
    return len(data)


def _parse_graphml(data: bytes):
    node_index: dict[str, int] = {}
    edges: list[tuple[str, str, int]] = []
    state = {"graph_depth": 0, "seen_graph": False}
    parser = xml.parsers.expat.ParserCreate(namespace_separator=" ")

    def start(name, attrs):
        local = name.rsplit(" ", 1)[-1]
        line = parser.CurrentLineNumber
        if local == "graph":
            state["graph_depth"] += 1
            if state["graph_depth"] > 1 or state["seen_graph"]:
                raise GraphMLError(f"nested or repeated <graph> (line {line})")
            state["seen_graph"] = True
            if attrs.get("edgedefault") == "directed":
                raise GraphMLError(f"directed graphs are not supported (line {line})")
        elif local == "node" and state["graph_depth"] == 1:
            node_id = attrs.get("id")
            if node_id is None:
                raise GraphMLError(f"<node> without id (line {line})")
            if node_id in node_index:
                raise GraphMLError(f"duplicate node id {node_id!r} (line {line})")
            node_index[node_id] = len(node_index)
        elif local == "edge" and state["graph_depth"] == 1:
            source = attrs.get("source")
            target = attrs.get("target")
            if source is None or target is None:
                raise GraphMLError(f"<edge> without source/target (line {line})")
            if attrs.get("directed") == "true":
                raise GraphMLError(f"directed edges are not supported (line {line})")
            edges.append((source, target, line))
        elif local in ("hyperedge", "port"):
            raise GraphMLError(f"unsupported GraphML feature <{local}> (line {line})")
        # keys, data and any foreign elements are ignored

    def end(name):
        if name.rsplit(" ", 1)[-1] == "graph":
            state["graph_depth"] -= 1

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise GraphMLError(f"malformed XML: {exc}") from exc
    if not state["seen_graph"]:
        raise GraphMLError("no <graph> element found")
    return node_index, edges


def read_graphml(source) -> Graph:
    """Parse the undirected GraphML subset back into a graph.

    Arbitrary node ids are remapped onto dense integers in document
    order.  Edges referencing undeclared nodes, self-loops, directed
    edges and directed graphs are rejected with their line number;
    duplicate undirected edges collapse silently.
    """
    data = Path(source).read_bytes()
    node_index, raw_edges = _parse_graphml(data)
    pairs = []
    for source_id, target_id, line in raw_edges:
        try:
            u = node_index[source_id]
            v = node_index[target_id]
        except KeyError as exc:
            raise GraphMLError(
                f"edge endpoint {exc.args[0]!r} is not a declared node (line {line})") from exc
        if u == v:
            raise GraphMLError(f"self-loop on node {source_id!r} (line {line})")
        pairs.append((u, v))
    return build_graph(len(node_index), pairs)


# -- metrics / records CSV ------------------------------------------------------


# The positions of RunRecord's real fields.  They are written with fmt6
# whatever the value's type, so a record built with k=1 writes 1.000000.
_REAL_FIELDS = tuple(i for i, f in enumerate(fields(RunRecord))
                     if f.type in ("float", "float | None"))


def _record_row(record: RunRecord) -> str:
    values = list(_record_values(record))
    for i in _REAL_FIELDS:
        if values[i] is not None:
            values[i] = fmt6(values[i])
    return csv_row(values)


def records_csv_string(records: list[RunRecord]) -> str:
    return "\n".join([RECORDS_HEADER, *map(_record_row, records)]) + "\n"


def write_records_csv(records: list[RunRecord], destination) -> int:
    data = records_csv_string(records).encode("utf-8")
    Path(destination).write_bytes(data)
    return len(data)


# The two spellings of ``hit_max_rounds``; anything else is a format error.
_BOOLS = {"true": True, "false": False}

# The network_model values written: a sweep's family, or simulate's "file".
_NETWORK_MODELS = frozenset((*MODEL_IDS, "file"))


class _Parsed(dict):
    """Values parsed from texts, each text parsed once."""

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, text):
        value = self[text] = self.parse(text)
        return value


def iter_records(source) -> Iterator[RunRecord]:
    """Parse a records CSV lazily, one validated record per row, so a
    caller that folds the rows holds one row at a time.

    Blank lines are skipped, and a row with the wrong field count, a
    ``network_model`` no sweep or simulation writes, a number that does
    not parse or a ``hit_max_rounds`` other than ``true`` or ``false`` is
    rejected with its line number in the file when the iteration reaches
    it.  Lines may end in ``\\n``, ``\\r\\n`` or ``\\r``."""
    # Grid axes, run lengths, node counts and diameters take few distinct
    # values, so parsing each distinct text once saves time and holds little.
    axes, counts = _Parsed(float), _Parsed(int)
    with open(source, encoding="utf-8") as lines:
        if lines.readline().rstrip("\n") != RECORDS_HEADER:
            raise CsvFormatError("records CSV header does not match the schema")
        for lineno, line in enumerate(lines, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 17:
                raise CsvFormatError(f"records CSV line {lineno}: expected 17 fields")
            (model, network_seed, sim_seed, k, curious, enthusiastic, supporters, final_aware,
             final_both, rounds, hit_max_rounds, nodes, edges, density, avg_path_length,
             clustering, diameter) = parts
            if model not in _NETWORK_MODELS:
                raise CsvFormatError(f"records CSV line {lineno}: network_model must be one "
                                     f"of {', '.join(sorted(_NETWORK_MODELS))}, not {model!r}")
            try:
                # The header is RunRecord's field list, so a row is in field order.
                record = RunRecord(
                    model, int(network_seed), int(sim_seed), axes[k], axes[curious],
                    axes[enthusiastic], axes[supporters], float(final_aware),
                    float(final_both), counts[rounds], _BOOLS[hit_max_rounds], counts[nodes],
                    int(edges), float(density),
                    None if avg_path_length == "NA" else float(avg_path_length),
                    float(clustering), None if diameter == "NA" else counts[diameter])
            except KeyError:
                raise CsvFormatError(f"records CSV line {lineno}: hit_max_rounds must be "
                                     f"true or false, not {hit_max_rounds!r}") from None
            except ValueError as exc:
                raise CsvFormatError(f"records CSV line {lineno}: {exc}") from None
            yield record


def read_records_csv(source) -> list[RunRecord]:
    """All of a records CSV's records, as ``iter_records`` parses them."""
    return list(iter_records(source))


# -- heatmaps ----------------------------------------------------------------


def _heat_color(v: float) -> tuple[int, int, int]:
    # Dark blue at 0 up to white at 1; round half-up for byte stability.
    return (int(255 * v + 0.5), int(255 * v + 0.5), int(64 + 191 * v + 0.5))


def render_heatmap(cells: dict[tuple[str, str], float]) -> tuple[str, str]:
    """Render one panel's cells, as ``aggregate`` returns them: the mean
    final share holding awareness and expertise per (curious,
    enthusiastic) text pair.

    Returns ``(csv_text, ppm_text)``.  The CSV matrix has curious values
    as columns and enthusiastic values as rows (ascending downward); the
    PPM image puts low enthusiastic at the bottom, like a plot, with one
    ``HEATMAP_CELL_PX`` square block per cell.  Cell values are mapped
    linearly from dark (0) to bright (1); every missing grid cell is
    reported.
    """
    if not cells:
        raise HeatmapError("no cells in the panel")
    curious_axis = sorted({c for c, _ in cells}, key=float)
    enth_axis = sorted({e for _, e in cells}, key=float)
    holes = [(c, e) for c in curious_axis for e in enth_axis if (c, e) not in cells]
    if holes:
        listing = ", ".join(f"(curious={c}, enthusiastic={e})" for c, e in holes[:20])
        more = "" if len(holes) <= 20 else f" and {len(holes) - 20} more"
        raise HeatmapError(f"incomplete panel, missing cells: {listing}{more}")

    if any(not 0.0 <= v <= 1.0 for v in cells.values()):
        raise HeatmapError("cell values must lie in [0, 1]")

    csv_lines = [csv_row(("enthusiastic", *curious_axis))]
    csv_lines.extend(csv_row((e, *(cells[(c, e)] for c in curious_axis))) for e in enth_axis)
    csv_text = "\n".join(csv_lines) + "\n"

    width = len(curious_axis) * HEATMAP_CELL_PX
    height = len(enth_axis) * HEATMAP_CELL_PX
    ppm_lines = ["P3", f"{width} {height}", "255"]
    for e in reversed(enth_axis):
        row_colors = [_heat_color(cells[(c, e)]) for c in curious_axis]
        # One image row's text, repeated for each pixel row of the block.
        pixel_row = "\n".join([f"{r} {g} {b}" for (r, g, b) in row_colors
                               for _ in range(HEATMAP_CELL_PX)])
        ppm_lines.extend([pixel_row] * HEATMAP_CELL_PX)
    ppm_text = "\n".join(ppm_lines) + "\n"
    return csv_text, ppm_text
