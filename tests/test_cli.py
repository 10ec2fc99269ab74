"""Config documents, result tables, sweeps, presets, and the CLI contract."""

import csv
import itertools
import json
import re
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omcool.cli import build_parser, main
from omcool.config_io import (
    axis_slot,
    config_from_dict,
    config_hash,
    config_to_dict,
    dump_config,
    edge_ids,
    parse_config,
)
from omcool.errors import ConfigError, ParseError, SolverError
from omcool.presets import (
    chain_config,
    get_preset,
    n_type_config,
    network4_config,
    preset_names,
)
from omcool.results import ResultTable, read_csv, table_to_csv, table_to_svg, write_csv
from omcool.sweep import (
    SweepAxis,
    run_atomic,
    run_solve,
    run_sweep,
    run_taxonomy,
    solve_record,
)


# ---------------------------------------------------------------------------
# config documents

# the smallest subnormal, a float near the top of the range, and one that
# binary cannot hold exactly
_edge_floats = st.sampled_from([5e-324, 1e308, 0.1])
_value = (st.floats(-2.0, 2.0, allow_nan=False) | st.sampled_from([0.0, -0.0]) | _edge_floats
          | _edge_floats.map(lambda x: -x))
_complex_value = _value | st.lists(_value, min_size=2, max_size=2)


@st.composite
def _documents(draw):
    """Config documents of 1-3 cavities and 1-3 mechanical modes in either
    parameter mode, any topology tag, and floats from 5e-324 to 1e308: no
    and zero drives, and in physical mode, the one mode that reads a drive,
    real and complex ones too; real, -0.0 and complex strengths; no edge or
    up to six; and every hop's endpoints in either order."""
    mode = draw(st.sampled_from(["effective", "physical"]))
    drives = st.none() | st.sampled_from([0, [0.0, -0.0]])
    if mode == "physical":
        drives |= _complex_value
    nc, nm = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cavities = []
    for _ in range(nc):
        cavity = {"detuning": draw(_value), "decay": draw(st.floats(0.0, 2.0) | _edge_floats)}
        drive = draw(drives)
        if drive is not None:
            cavity["drive_amplitude"] = drive
        cavities.append(cavity)
    mechanicals = [{"frequency": draw(st.floats(0.1, 2.0) | _edge_floats),
                    "damping": draw(st.floats(0.0, 1.0) | _edge_floats),
                    "thermal_occupation": draw(st.floats(0.0, 1e3) | _edge_floats)}
                   for _ in range(nm)]
    ids = [f"c{c}" for c in range(nc)] + [f"m{l}" for l in range(nm)]
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(ids, 2))),
                          unique=True, max_size=6))
    kinds = {"cm": "optomechanical", "cc": "photon_hop", "mm": "phonon_hop"}
    edges = []
    for a, b in pairs:  # a cavity comes before a mechanical mode in ids
        kind = kinds[a[0] + b[0]]
        ends = [b, a] if kind != "optomechanical" and draw(st.booleans()) else [a, b]
        edges.append({"kind": kind, "endpoints": ends, "strength": draw(_complex_value)})
    return {"parameter_mode": mode,
            "topology": draw(st.sampled_from(["n_type", "network4", "chain", "generic"])),
            "cavities": cavities, "mechanicals": mechanicals, "edges": edges}


@settings(max_examples=100, deadline=None)
@given(_documents())
@example(config_to_dict(network4_config()))
def test_config_round_trip_is_fixed_point(doc):
    cfg = config_from_dict(doc)
    text = dump_config(cfg)
    reparsed = config_from_dict(json.loads(text))
    assert dump_config(reparsed) == text
    for name in ("detuning", "decay", "drive", "frequency", "damping", "nbar",
                 "edge_i", "edge_j", "strength", "optomechanical"):
        assert np.array_equal(getattr(reparsed, name), getattr(cfg, name)), name
    assert (reparsed.topology, reparsed.parameter_mode) == (cfg.topology, cfg.parameter_mode)


def _json_dumps_text(model) -> str:
    """The canonical text by its definition, through json's own encoder."""
    return json.dumps(config_to_dict(model), indent=2, sort_keys=True) + "\n"


@settings(max_examples=200, deadline=None)
@given(_documents())
@example(config_to_dict(network4_config()))
def test_dump_config_is_json_dumps_text(doc):
    model = config_from_dict(doc)
    assert dump_config(model) == _json_dumps_text(model)


def test_dump_config_is_json_dumps_text_for_presets_and_chains():
    models = [config_from_dict(get_preset(name).document) for name in PRESET_HASHES]
    models += [chain_config(n) for n in range(2, 65)]
    for model in models:
        assert dump_config(model) == _json_dumps_text(model)


def test_signed_zero_reads_as_zero(tmp_path):
    # table1's photon hop J and c1's detuning written as -0.0 give the rows,
    # the text and the hash of the same document at 0.0
    csvs = []
    for zero in (0.0, -0.0):
        doc = get_preset("table1").document
        doc["edges"][4]["strength"] = zero
        doc["cavities"][1]["detuning"] = zero
        model = config_from_dict(doc)
        assert np.signbit(model.detuning).sum() == 0 and np.signbit(model.strength.real).sum() == 0
        out = tmp_path / f"{zero}.csv"
        assert main(["solve", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert json.dumps(doc).count("-0.0") == 2
    assert csvs[0] == csvs[1]
    assert b"# config_hash=4a5cec09ac871140\n" in csvs[1]


def test_unknown_key_rejected():
    doc = config_to_dict(n_type_config())
    doc["cavities"][0]["finesse"] = 1e6
    with pytest.raises(ParseError, match="finesse"):
        config_from_dict(doc)


def test_missing_field_rejected():
    doc = config_to_dict(n_type_config())
    del doc["mechanicals"][0]["thermal_occupation"]
    with pytest.raises(ParseError, match="thermal_occupation"):
        config_from_dict(doc)


def test_complex_strength_encoding():
    doc = config_to_dict(n_type_config())
    doc["edges"][0]["strength"] = [0.05, 0.01]
    text = dump_config(config_from_dict(doc))
    assert json.loads(text)["edges"][0]["strength"] == [0.05, 0.01]
    assert config_from_dict(json.loads(text)).strength[0] == 0.05 + 0.01j


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(dump_config(n_type_config()))
    assert dump_config(parse_config(path)) == dump_config(n_type_config())


def test_parse_config_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"cavities": [,]}')
    with pytest.raises(ParseError, match="line 1"):
        parse_config(path)


def test_config_hash_stable_and_distinct():
    assert config_hash(n_type_config()) == config_hash(n_type_config())
    assert config_hash(n_type_config()) != config_hash(n_type_config(kappa=0.2))


# the config_hash every CSV header of a preset carries; the two fig13 presets
# have no config
PRESET_HASHES = {
    "fig2a": "744088e3e23d123d", "fig2b": "744088e3e23d123d",
    "fig2c": "744088e3e23d123d", "fig2d": "744088e3e23d123d",
    "fig3a": "2ddad4665d3a4174", "fig3b": "2ddad4665d3a4174",
    "fig3c": "744088e3e23d123d", "fig3d": "744088e3e23d123d",
    "fig4a": "744088e3e23d123d", "fig4b": "744088e3e23d123d",
    "fig7a": "b082e4b735f36047", "fig7b": "b082e4b735f36047",
    "fig7c": "b082e4b735f36047", "fig7d": "b082e4b735f36047",
    "fig7e": "b082e4b735f36047", "fig7f": "b082e4b735f36047",
    "fig8a": "133edba4be091d68", "fig8b": "b082e4b735f36047",
    "fig11a": "d5844af3099914e5", "fig11b": "0c488f8208b6ac48",
    "fig11c": "d5844af3099914e5", "fig11d": "0c488f8208b6ac48",
    "table1": "b082e4b735f36047",
}


def test_preset_config_hashes_pinned():
    assert sorted(PRESET_HASHES) == sorted(n for n in preset_names() if not n.startswith("fig13"))
    for name, want in PRESET_HASHES.items():
        assert config_hash(config_from_dict(get_preset(name).document)) == want, name


# ---------------------------------------------------------------------------
# result tables

def test_csv_round_trip_preserves_floats():
    table = ResultTable(
        columns=["x", "flag", "value", "label"],
        rows=[[0.1, True, 1.0 / 3.0, "a"], [0.2, False, None, "b"]],
        metadata={"axes": "x"},
    )
    text = table_to_csv(table)
    assert "np.float64" not in text


def test_csv_file_round_trip(tmp_path):
    table = run_solve(n_type_config())
    table.rows = list(table.rows)
    path = tmp_path / "out.csv"
    write_csv(table, path)
    back = read_csv(path)
    assert back.columns == table.columns
    assert back.rows == table.rows
    assert back.metadata == table.metadata


def test_svg_line_chart_structure():
    table = run_sweep(n_type_config(), [SweepAxis("cavities.0.decay", 0.05, 1.0, 5)],
                      ["n_f_1", "n_f_2"])
    svg = table_to_svg(table)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2


def test_svg_heatmap_one_cell_per_point():
    table = run_sweep(n_type_config(), [SweepAxis("cavities.0.detuning", 0.8, 1.2, 3),
                                        SweepAxis("cavities.0.decay", 0.05, 0.5, 4)],
                      ["n_f_1"])
    svg = table_to_svg(table)
    # one background rect plus one cell per grid point
    assert svg.count("<rect") == 1 + 12


def test_svg_line_chart_breaks_its_lines_between_configurations(tmp_path):
    # a taxonomy's rows run through the decay axis once per configuration:
    # each configuration is its own line, so no line runs back along the axis
    csv_path, out = tmp_path / "fig7a.csv", tmp_path / "fig7a.svg"
    assert main(["preset", "fig7a", "--run", "--points", "3", "--out", str(csv_path)]) == 0
    assert main(["emit", "--in", str(csv_path), "--format", "svg", "--out", str(out)]) == 0
    lines = re.findall(r'<polyline points="([^"]*)"', out.read_text())
    assert len(lines) == 4 * 4  # four configurations, four numeric columns
    for points in lines:
        xs = [float(pair.split(",")[0]) for pair in points.split()]
        assert len(xs) == 3 and xs == sorted(set(xs))


@pytest.mark.parametrize("name", ["fig2a", "fig7a"], ids=["heatmap", "line-chart"])
def test_emitted_chart_of_a_run_csv_is_the_chart_of_its_table(tmp_path, name):
    # a run's CSV holds every cell a chart reads, so drawing the CSV read
    # back draws the chart of the run's own table: emit is the only drawer
    path = tmp_path / f"{name}.csv"
    assert main(["preset", name, "--run", "--points", "4", "--out", str(path)]) == 0
    table = get_preset(name, points=4).run(1)
    table.rows = list(table.rows)
    table.metadata["preset"] = name
    assert table_to_svg(read_csv(path)) == table_to_svg(table)


@pytest.mark.parametrize("argv", [
    ["solve", "--config", "c.json"],
    ["sweep", "--config", "c.json", "--axis", "cavities.0.decay:0.1:0.2:2"],
    ["taxonomy", "--config", "c.json"],
    ["atomic", "--levels", "3", "--ratio", "0:3:4"],
    ["preset", "fig2a", "--run"],
    ["preset", "fig2a", "--dump"],
], ids=["solve", "sweep", "taxonomy", "atomic", "preset", "preset-dump"])
def test_run_verbs_take_no_format(capsys, argv):
    # a run verb writes CSV only; a chart is drawn by emit
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "svg"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format svg" in capsys.readouterr().err


def test_empty_table_svg_rejected():
    with pytest.raises(SolverError):
        table_to_svg(ResultTable(columns=["x"], rows=[]))


def _emit_svg(tmp_path, capsys, text):
    """emit --format svg of the CSV ``text``: the exit code, the stderr, and
    the SVG written (None when no file was written)."""
    source, out = tmp_path / "t.csv", tmp_path / "t.svg"
    out.unlink(missing_ok=True)
    source.write_text(text)
    code = main(["emit", "--in", str(source), "--format", "svg", "--out", str(out)])
    return code, capsys.readouterr().err, out.read_text() if out.exists() else None


@pytest.mark.parametrize("text, message", [
    ("# axes=x\nx,y\n1,a\n2,b\n", "no numeric output column to render"),
    ("# axes=x,y\nx,y,v\n0,0,a\n0,1,b\n", "no numeric output column to render"),
    ("# axes=x\nx,y\n1,nan\na,2\n", "no finite values to render"),
    ("# axes=x,y\nx,y,v\n0,0,nan\na,1,2\n", "no finite values to render"),
    ("# axes=x\nx,y\n1,nan\n2,inf\n", "no numeric output column to render"),
    ("# axes=x,y\nx,y,v\n0,0,nan\n0,1,-inf\n", "no numeric output column to render"),
    ("# axes=q\nx,y\n1,2\n", "axis column 'q' missing from table"),
    ("# axes=q,r\nx,y\n1,2\n", "axis column 'q' missing from table"),
], ids=["line-text-outputs", "heatmap-text-outputs", "line-no-drawable-point",
        "heatmap-no-drawable-point", "line-non-finite-outputs", "heatmap-non-finite-outputs",
        "line-missing-axis", "heatmap-missing-axes"])
def test_cli_emit_svg_refusals(tmp_path, capsys, text, message):
    # every refusal exits 5 and writes no file; output cells that hold only
    # non-finite numbers are no drawable output column
    assert _emit_svg(tmp_path, capsys, text) == (5, f"error: {message}\n", None)


@pytest.mark.parametrize("text", [
    "# axes=x\nx,a<b&c\n0,1\n1,2\n",
    "# axes=x,y\nx,y,a<b&c\n0,0,1\n0,1,2\n1,0,3\n1,1,4\n",
], ids=["line", "heatmap"])
def test_cli_emit_svg_escapes_its_text(tmp_path, capsys, text):
    # a column name holding <, > or & is written escaped into the title,
    # legend and axis names, so the SVG stays well-formed XML
    code, err, svg = _emit_svg(tmp_path, capsys, text)
    assert (code, err) == (0, "")
    texts = ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")
    assert any(node.text.startswith("a<b&c") for node in texts)


@pytest.mark.parametrize("text, drawn", [
    ("# axes=x\nx,y\n0,1\n{},2\n1,3\n", 'points="70.00,450.00 650.00,70.00"'),
    ("# axes=x,y\nx,y,v\n0,0,1\n0,1,2\n{},0,5\n1,0,3\n1,1,4\n",
     '<rect x="360.00" y="70.00" width="290.50" height="190.50"'),
], ids=["line", "heatmap"])
def test_cli_emit_svg_skips_non_finite_axis_cells(tmp_path, capsys, text, drawn):
    # a nan or inf axis cell, or an int beyond float range, is skipped as a
    # text cell is; an axis column with no finite number is refused
    code, _, want = _emit_svg(tmp_path, capsys, text.format("a"))
    assert code == 0
    for cell in ("nan", "inf", "-inf", "1" + "0" * 400):
        assert _emit_svg(tmp_path, capsys, text.format(cell)) == (0, "", want)
    assert drawn in want and "nan" not in want and "inf" not in want
    for cell in ("nan", "inf"):
        no_axis = re.sub(r"^[01a]", cell, text.format("a"), flags=re.M)
        assert _emit_svg(tmp_path, capsys, no_axis) == (
            5, "error: axis column 'x' has no numeric value to draw against\n", None)


def test_cli_emit_heatmap_draws_first_output_column_with_a_drawable_cell(tmp_path, capsys):
    # a column of non-finite numbers is no output column, as in a line chart
    code, _, svg = _emit_svg(tmp_path, capsys, "# axes=x,y\nx,y,a,b\n0,0,nan,1\n0,1,inf,2\n")
    assert code == 0
    assert ">b over x x y</text>" in svg


def test_cli_emit_heatmap_skips_non_finite_output_cell(tmp_path, capsys):
    code, _, svg = _emit_svg(tmp_path, capsys, "# axes=x,y\nx,y,v\n0,0,1\n0,1,nan\n1,0,3\n1,1,4\n")
    assert code == 0
    assert svg.count("<rect") == 1 + 3
    assert "nan" not in svg


# ---------------------------------------------------------------------------
# sweeps

def test_axis_slot_paths():
    cfg = n_type_config()
    model = cfg.write([axis_slot(cfg, "cavities.1.decay", [0.7])], [0.7])
    assert model.decay[1] == 0.7
    model = model.write([axis_slot(cfg, "edges.2.strength", [0.12])], [0.12])
    assert model.strength[2] == 0.12
    with pytest.raises(ConfigError):
        axis_slot(cfg, "cavities.9.decay", [0.1])
    with pytest.raises(ConfigError):
        axis_slot(cfg, "cavities.0.flux", [0.1])
    with pytest.raises(ConfigError):
        axis_slot(cfg, "decay", [0.1])
    for field in ("kind", "endpoints"):
        with pytest.raises(ConfigError, match="not a numeric field"):
            axis_slot(cfg, f"edges.0.{field}", [0.1])
    with pytest.raises(ConfigError, match="mechanical m1: frequency must be > 0"):
        axis_slot(cfg, "mechanicals.1.frequency", [1.0, 0.0])


def test_single_point_sweep_equals_solve():
    base = n_type_config()
    sweep = run_sweep(base, [SweepAxis("cavities.0.decay", 0.1, 0.1, 1)])
    solve = run_solve(base)
    (sweep_row,), (solve_row,) = sweep.rows, solve.rows
    for col in solve.columns:
        assert sweep_row[sweep.columns.index(col)] == solve_row[solve.columns.index(col)]


def test_sweep_row_major_order():
    table = run_sweep(n_type_config(), [SweepAxis("cavities.0.detuning", 0.9, 1.1, 2),
                                        SweepAxis("cavities.0.decay", 0.1, 0.2, 2)],
                      ["stable"])
    points = [(row[0], row[1]) for row in table.rows]
    assert points == [(0.9, 0.1), (0.9, 0.2), (1.1, 0.1), (1.1, 0.2)]


def test_sweep_deterministic_across_parallelism():
    sweep = (n_type_config(), [SweepAxis("cavities.0.decay", 0.05, 1.0, 8)],
             ["n_f_1", "n_f_2", "stable"])
    serial = table_to_csv(run_sweep(*sweep, parallelism=1))
    parallel = table_to_csv(run_sweep(*sweep, parallelism=4))
    assert serial == parallel


def test_sweep_log_axis():
    values = SweepAxis("cavities.0.decay", 0.01, 1.0, 3, "log").values()
    assert values == pytest.approx([0.01, 0.1, 1.0])


@pytest.mark.parametrize("lo, hi, points", [(0.05, 1.0, 5), (0.3, 3.0, 4)])
def test_sweep_log_axis_hits_its_bounds_exactly(lo, hi, points):
    # 10 ** log10(0.05) is 0.049999999999999996: the ends are set to the bounds
    values = SweepAxis("cavities.0.decay", lo, hi, points, "log").values()
    assert (values[0], values[-1]) == (lo, hi)


def test_cli_sweep_negative_zero_bound_writes_positive_zero(tmp_path):
    cfg_path = _write_config(tmp_path, n_type_config())
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(out),
                 "--axis", "cavities.0.detuning:-1:-0:3"]) == 0
    assert out.read_text().splitlines()[-1].startswith("0.0,")


def test_unstable_points_flagged_not_dropped():
    # crank the coupling far past the stability boundary
    table = run_sweep(n_type_config(), [SweepAxis("edges.0.strength", 0.05, 5.0, 4)],
                      ["stable", "n_f_1"])
    table.rows = list(table.rows)
    assert len(table.rows) == 4
    stables = [row[table.columns.index("stable")] for row in table.rows]
    assert False in stables
    for row in table.rows:
        if row[table.columns.index("stable")] is False:
            assert row[table.columns.index("n_f_1")] is None


def test_taxonomy_table_shape():
    table = run_taxonomy(network4_config())
    table.rows = list(table.rows)
    assert len(table.rows) == 14
    assert sum(1 for row in table.rows if row[table.columns.index("dark")]) == 6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_taxonomy_sizes_equal_filtered_full_table(k):
    kappa = SweepAxis("cavities.0.decay", 0.05, 1.0, 3)
    full = run_taxonomy(network4_config(), kappa)
    kept = run_taxonomy(network4_config(), kappa, sizes=(k,))
    assert kept.columns == full.columns
    assert kept.metadata == full.metadata
    assert list(kept.rows) == [row for row in full.rows if len(row[0].split("+")) == k]


def test_atomic_table_dark_column():
    table = run_atomic(3, SweepAxis("ratio", 0.0, 3.0, 7))
    idx = [table.columns.index(f"lambda_{s}") for s in (1, 2, 3)]
    for row in table.rows:
        lambdas = [row[i] for i in idx]
        k = int(np.argmin(np.abs(lambdas)))
        assert row[table.columns.index(f"p_e_{k + 1}")] < 1e-12


# ---------------------------------------------------------------------------
# presets

def test_preset_names_cover_the_catalog():
    names = set(preset_names())
    expected = (
        {f"fig2{p}" for p in "abcd"} | {f"fig3{p}" for p in "abcd"}
        | {f"fig4{p}" for p in "ab"} | {f"fig7{p}" for p in "abcdef"}
        | {f"fig8{p}" for p in "ab"} | {f"fig11{p}" for p in "abcd"}
        | {f"fig13{p}" for p in "ab"} | {"table1"}
    )
    assert names == expected


def test_preset_caption_constants():
    base = config_from_dict(get_preset("fig2a").document)
    assert base.detuning[0] == 1.0
    assert base.decay[0] == 0.1
    assert base.damping[0] == 1e-5
    assert base.nbar[0] == 1000.0
    assert base.strength[0] == 0.05
    assert base.strength[2] == 0.08

    dark = config_from_dict(get_preset("fig3a").document)
    assert dark.strength[2] == 0.0

    net = config_from_dict(get_preset("fig7a").document)
    by_kind = {(kind, frozenset(ends)): s for (kind, ends), s in zip(edge_ids(net), net.strength)}
    assert by_kind[("photon_hop", frozenset(("c0", "c1")))] == 0.03
    assert by_kind[("phonon_hop", frozenset(("m0", "m1")))] == 0.03
    assert by_kind[("optomechanical", frozenset(("c1", "m1")))] == 0.08

    ch = config_from_dict(get_preset("fig11a").document)
    assert ch.topology == "chain" and ch.n_mechanicals == 3
    assert ch.strength[3] == 0.1  # auxiliary coupling
    assert ch.strength[4] == 0.06  # phonon hopping


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        get_preset("fig99z")


def test_preset_dump_round_trip_fixed_point(tmp_path):
    for name in preset_names():
        document = get_preset(name).document
        if "atomic" in document:
            continue
        text = dump_config(config_from_dict(document))
        assert dump_config(config_from_dict(json.loads(text))) == text


# ---------------------------------------------------------------------------
# CLI contract

def _write_config(tmp_path, cfg, name="cfg.json"):
    """Write a model's dump, or a document, as a config file."""
    path = tmp_path / name
    path.write_text(json.dumps(cfg) if isinstance(cfg, dict) else dump_config(cfg))
    return str(path)


def test_cli_solve_success(tmp_path, capsys):
    code = main(["solve", "--config", _write_config(tmp_path, n_type_config())])
    out = capsys.readouterr().out
    assert code == 0
    assert "n_f_1" in out and "true" in out


def test_cli_parser_shared_between_calls(tmp_path, capsys):
    # every call in a process parses with one parser, and each keeps its
    # own parsed values
    build_parser.cache_clear()
    cfg_path = _write_config(tmp_path, n_type_config())
    two, one = tmp_path / "two.csv", tmp_path / "one.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(two),
                 "--axis", "cavities.0.decay:0.1:0.2:2",
                 "--axis", "cavities.0.detuning:0.9:1.1:2"]) == 0
    assert main(["sweep", "--config", cfg_path, "--out", str(one),
                 "--axis", "cavities.0.detuning:0.9:1.1:3"]) == 0
    assert read_csv(two).metadata["axes"] == "cavities.0.decay,cavities.0.detuning"
    assert read_csv(one).metadata["axes"] == "cavities.0.detuning"
    assert len(read_csv(one).rows) == 3
    dump = tmp_path / "table1.json"
    assert main(["preset", "table1", "--dump", "--out", str(dump)]) == 0
    assert main(["preset", "table1", "--run", "--out", str(tmp_path / "table1.csv")]) == 0
    assert json.loads(dump.read_text()) == get_preset("table1").document
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert main(["solve", "--config", cfg_path]) == 0
    assert build_parser.cache_info().misses == 1


def test_cli_solve_unstable_exit_code(tmp_path):
    doc = config_to_dict(n_type_config(gamma=0.0))
    doc["edges"] = []
    code = main(["solve", "--config", _write_config(tmp_path, doc)])
    assert code == 4


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["solve", "--config", str(path)]) == 2
    # an edge kind that is not a string is refused by the schema, as a bad
    # endpoints pair is
    for kind in (["optomechanical"], {"name": "optomechanical"}, None):
        doc = config_to_dict(n_type_config())
        doc["edges"][0]["kind"] = kind
        capsys.readouterr()
        assert main(["solve", "--config", _write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            f"error: edges[0].kind: expected a string, got {kind!r}\n")


@pytest.mark.parametrize("verb", [
    ["solve"], ["sweep", "--axis", "cavities.0.decay:0.1:0.2:2"], ["taxonomy"]])
def test_cli_deeply_nested_config_exit_code(tmp_path, capsys, verb):
    # json's decoder recurses once per level, so this exceeds the recursion
    # limit inside json.loads
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([verb[0], "--config", str(path), *verb[1:]]) == 2
    assert capsys.readouterr().err == f"error: {path}: nested too deeply to parse\n"


def test_cli_validation_error_exit_code(tmp_path):
    doc = config_to_dict(n_type_config())
    doc["cavities"][0]["decay"] = -1.0
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(path)]) == 3


def test_cli_aliased_mode_id_exit_code(tmp_path):
    doc = config_to_dict(n_type_config())
    doc["edges"].append({"kind": "optomechanical", "endpoints": ["c0", "m00"],
                         "strength": 0.1})
    path = tmp_path / "alias.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(path)]) == 3


def test_cli_non_finite_exit_code(tmp_path, capsys):
    doc = config_to_dict(n_type_config())
    doc["cavities"][0]["decay"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # written as the JSON extension NaN
    assert main(["solve", "--config", str(path)]) == 3
    # an integer literal beyond float range reads as 1e400 does: infinite
    big = "1" + "0" * 400
    for section, field, literals, message in (
        ("cavities", "decay", (big, "1e400"), "cavity c0: decay must be finite"),
        ("edges", "strength", (f"[{big}, 0]", "[1e400, 0]", f"[0.05, -{big}]"),
         "optomechanical edge ('c0', 'm0'): strength must be finite"),
    ):
        for literal in literals:
            doc = config_to_dict(n_type_config())
            doc[section][0][field] = "LITERAL"
            path.write_text(json.dumps(doc).replace('"LITERAL"', literal))
            capsys.readouterr()
            assert main(["solve", "--config", str(path)]) == 3
            assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("edit, axis, code, message", [
    (lambda doc: doc["cavities"][0].update(decay="fast"), None, 2,
     "cavities[0].decay: expected a number, got 'fast'"),
    (lambda doc: doc["edges"][0].update(strength=[0.05, 0.0, 1.0]), None, 2,
     "edges[0].strength: expected a number or [re, im] pair, got [0.05, 0.0, 1.0]"),
    (lambda doc: doc["mechanicals"].__setitem__(0, 1.0), None, 2,
     "mechanicals[0]: expected an object"),
    (lambda doc: doc.update(edges={}), None, 2, "edges: expected a list"),
    (lambda doc: doc["edges"][0].update(endpoints=["c0", "m0", "m1"]), None, 2,
     "edges[0].endpoints: expected a pair of mode ids"),
    (lambda doc: doc.update(parameter_mode="linear"), None, 3,
     "unknown parameter_mode 'linear'"),
    (lambda doc: doc.update(topology="ring"), None, 3, "unknown topology 'ring'"),
    (lambda doc: doc["edges"][0].update(kind="tunnel"), None, 3, "unknown edge kind 'tunnel'"),
    (lambda doc: None, "bogus.0.decay:0:1:2", 3,
     "bad parameter path 'bogus.0.decay': unknown section 'bogus'"),
    (lambda doc: doc["cavities"][0].update(drive_amplitude=5.0), None, 3,
     "cavity c0: drive_amplitude must be 0 in effective mode"),
    (lambda doc: None, "cavities.0.drive_amplitude:0:10:3", 3,
     "cavity c0: drive_amplitude must be 0 in effective mode"),
], ids=["non-number-field", "bad-complex-pair", "item-not-object", "section-not-list",
        "endpoints-not-pair", "unknown-parameter-mode", "unknown-topology",
        "unknown-edge-kind", "unknown-axis-section", "effective-drive", "effective-drive-axis"])
def test_cli_config_rejection_exit_code_and_message(tmp_path, capsys, edit, axis, code, message):
    # through solve, or through sweep given an axis
    doc = config_to_dict(n_type_config())
    edit(doc)
    argv = ["solve", "--config", _write_config(tmp_path, doc)]
    if axis is not None:
        argv = ["sweep", *argv[1:], "--axis", axis]
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_sweep_and_emit(tmp_path):
    cfg_path = _write_config(tmp_path, n_type_config())
    out_csv = str(tmp_path / "sweep.csv")
    code = main(["sweep", "--config", cfg_path,
                 "--axis", "cavities.0.decay:0.05:1.0:4",
                 "--out", out_csv])
    assert code == 0
    out_svg = str(tmp_path / "sweep.svg")
    assert main(["emit", "--in", out_csv, "--format", "svg", "--out", out_svg]) == 0
    assert (tmp_path / "sweep.svg").read_text().startswith("<svg")


def test_cli_sweep_jobs_deterministic(tmp_path):
    cfg_path = _write_config(tmp_path, n_type_config())
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--config", cfg_path, "--axis", "cavities.0.decay:0.05:1.0:6"]
    assert main(args + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(args + ["--jobs", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_bad_axis_spec(tmp_path):
    cfg_path = _write_config(tmp_path, n_type_config())
    assert main(["sweep", "--config", cfg_path, "--axis", "cavities.0.decay"]) == 3


@pytest.mark.parametrize("axes", [
    ["cavities.0.decay:-1:1:5"],
    ["cavities.0.decay:nan:1:5"],
    ["cavities.0.flux:0:1:5"],
    ["cavities.0.decay:0.05:1.0:3", "cavities.0.decay:0.1:0.2:2"],
    ["cavities.1.decay:0.1:0.5:3", "cavities.-1.decay:0.2:0.6:2"],
    ["cavities.00.decay:0.1:0.5:3"],
    ["cavities.+0.detuning:0.5:1.5:3"],
    ["cavities.0.detuning:1:2:1:bogus"],
    ["cavities.0.detuning:-1:1:1:log"],
    ["cavities.0.detuning:0:inf:2"],
    ["cavities.0.detuning:-inf:1:3"],
    ["cavities.0.decay:0.1:inf:3:log"],
    ["cavities.0.detuning:1:0:5"],
    ["cavities.0.detuning:0:1:0"],
    ["cavities.0.detuning:0.8:1.2:2", "cavities.0.decay:0.05:0.5:2",
     "cavities.1.decay:0.05:0.5:2"],
], ids=["negative-decay", "nan-bound", "unknown-field", "duplicate-axis",
        "negative-index", "leading-zero-index", "signed-index",
        "one-point-unknown-scale", "one-point-log-nonpositive",
        "infinite-max", "infinite-min", "log-infinite-max",
        "min-above-max", "zero-points", "three-axes"])
def test_cli_sweep_input_error_exit_code(tmp_path, axes):
    cfg_path = _write_config(tmp_path, n_type_config())
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", cfg_path, "--out", str(out)]
    for axis in axes:
        argv += ["--axis", axis]
    assert main(argv) == 3
    assert not out.exists()


def _write_physical_n_type(tmp_path, **c0):
    """The physical n_type document, with cavity c0's fields ``c0`` written."""
    doc = config_to_dict(n_type_config())
    doc["parameter_mode"] = "physical"
    for cav, drive in zip(doc["cavities"], (60.0, 80.0)):
        cav["drive_amplitude"] = drive
    for edge, g in zip(doc["edges"], (5e-4, 5e-4, 8e-4)):
        edge["strength"] = g
    doc["cavities"][0].update(c0)
    cfg_path = tmp_path / "physical.json"
    cfg_path.write_text(json.dumps(doc))
    return str(cfg_path)


def test_cli_sweep_solver_failure_keeps_partial_table(tmp_path):
    # the amplitude iteration converges at drive 60 and gives up at 3000
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", _write_physical_n_type(tmp_path), "--out", str(out),
                 "--axis", "cavities.0.drive_amplitude:60:3000:2"]) == 5
    table = read_csv(out)
    assert [row[table.columns.index("cavities.0.drive_amplitude")] for row in table.rows] == [60.0]


def test_cli_failed_sweep_streams_its_rows_to_stdout(tmp_path, capsys):
    # the drive-60 row is written before the drive-3000 point fails
    assert main(["sweep", "--config", _write_physical_n_type(tmp_path),
                 "--axis", "cavities.0.drive_amplitude:60:3000:2"]) == 5
    out, err = capsys.readouterr()
    assert [line.split(",")[0] for line in out.splitlines()[-2:]] == \
        ["cavities.0.drive_amplitude", "60.0"]
    assert "did not converge" in err


def _count_solves(monkeypatch) -> list:
    solves = []
    monkeypatch.setattr("omcool.sweep.solve_record",
                        lambda *args: solves.append(args) or solve_record(*args))
    return solves


def test_run_rows_are_solved_as_they_are_read(monkeypatch):
    solves = _count_solves(monkeypatch)
    table = run_sweep(n_type_config(), [SweepAxis("cavities.0.decay", 0.05, 1.0, 6)])
    assert solves == []
    rows = iter(table.rows)
    for k in range(1, 4):
        next(rows)
        assert len(solves) == k


def test_pooled_rows_keep_two_chunks_per_worker_in_flight(monkeypatch):
    # a quarter of a worker's share of 100 x 100 points is 1250, capped at
    # 1000; the first row is read with four chunks submitted, not the grid
    from concurrent.futures import ProcessPoolExecutor

    chunks = []
    submit = ProcessPoolExecutor.submit

    def counting(self, fn, *args):
        chunks.append(len(args[-1]))
        return submit(self, fn, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting)
    axes = [SweepAxis("cavities.0.decay", 0.05, 1.0, 100),
            SweepAxis("cavities.0.detuning", 0.5, 1.5, 100)]
    rows = run_sweep(n_type_config(), axes, ["stable"], parallelism=2).rows
    next(rows)
    assert chunks == [1000] * 4
    rows.close()


def test_cli_sweep_unwritable_output_solves_nothing(tmp_path, monkeypatch):
    solves = _count_solves(monkeypatch)
    assert main(["sweep", "--config", _write_config(tmp_path, n_type_config()),
                 "--axis", "cavities.0.decay:0.05:1.0:6",
                 "--out", str(tmp_path / "no-such-dir" / "x.csv")]) == 5
    assert solves == []


@pytest.mark.parametrize("c0, message", [
    ({"decay": 0.0, "detuning": 0.0, "drive_amplitude": 10.0}, "step 1 divides by zero"),
    ({"drive_amplitude": 1e200}, "step 2 is not finite"),
    # |alpha| of the first step exceeds the float range, though both parts fit
    ({"decay": 1.0, "detuning": 0.0, "drive_amplitude": [1.5e308, 1.5e308]},
     "step 1 is not finite"),
], ids=["lossless-resonant", "drive-1e200", "drive-1.5e308"])
def test_cli_solve_non_finite_amplitudes_exit_code(tmp_path, capsys, c0, message):
    # the amplitude iteration stops at its first non-finite step, with no
    # numpy warning and no traceback
    out = tmp_path / "solve.csv"
    assert main(["solve", "--config", _write_physical_n_type(tmp_path, **c0),
                 "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert f"steady-state amplitude {message}" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


@pytest.mark.parametrize("axis, rows", [
    (None, 0),
    ("mechanicals.0.thermal_occupation:0:1e308:2", 1),
    ("cavities.0.decay:0.1:0.2:2", 0),
], ids=["solve", "nbar-sweep", "decay-sweep"])
def test_cli_noise_matrix_overflow_exit_code(tmp_path, capsys, axis, rows):
    # gamma (2 nbar + 1) overflows from finite fields at nbar = 1e308: the
    # point is refused with no numpy warning, after the rows before it
    doc = get_preset("table1").document
    doc["mechanicals"][0]["thermal_occupation"] = 1e308
    argv = ["--config", _write_config(tmp_path, doc), "--out", str(tmp_path / "out.csv")]
    argv = ["solve", *argv] if axis is None else ["sweep", *argv, "--axis", axis]
    assert main(argv) == 5
    assert capsys.readouterr().err == "error: noise matrix contains non-finite entries\n"
    if rows:
        assert len(read_csv(tmp_path / "out.csv").rows) == rows


@pytest.mark.parametrize("strength, axis, rows", [
    (1e308, None, 0),
    (None, "edges.0.strength:0:1e308:2", 1),
], ids=["solve", "strength-sweep"])
def test_cli_drift_matrix_overflow_exit_code(tmp_path, capsys, strength, axis, rows):
    # the drift overflows from finite fields at edge 0's strength 1e308 (E + F
    # in the build, x * coef in a sweep's assembled A): the point is refused
    # with no numpy warning, after the rows before it
    doc = get_preset("table1").document
    if strength is not None:
        doc["edges"][0]["strength"] = strength
    argv = ["--config", _write_config(tmp_path, doc), "--out", str(tmp_path / "out.csv")]
    argv = ["solve", *argv] if axis is None else ["sweep", *argv, "--axis", axis]
    assert main(argv) == 5
    assert capsys.readouterr().err == "error: drift matrix contains non-finite entries\n"
    if rows:
        assert len(read_csv(tmp_path / "out.csv").rows) == rows


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_sweep_partial_table_independent_of_jobs(tmp_path, jobs):
    # the amplitudes converge at the first four drives and not at the fifth;
    # at --jobs 2 the chunks hold three points, so the chunk that fails at the
    # fifth point has solved the fourth
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", _write_physical_n_type(tmp_path), "--out", str(out),
                 "--axis", "cavities.0.drive_amplitude:60:3000:30", "--jobs", jobs]) == 5
    drives = SweepAxis("cavities.0.drive_amplitude", 60.0, 3000.0, 30).values()
    table = read_csv(out)
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    assert [row["cavities.0.drive_amplitude"] for row in rows] == drives[:4].tolist()
    assert all(row["stable"] for row in rows)


def test_cli_taxonomy(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, network4_config())
    assert main(["taxonomy", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 14 + 1 + 3  # rows + header + metadata


def test_cli_taxonomy_requires_network4(tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = ["taxonomy", "--config", _write_config(tmp_path, n_type_config()), "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == \
        "error: configuration taxonomy requires topology 'network4'\n"
    assert not out.exists()


def test_cli_atomic(tmp_path, capsys):
    assert main(["atomic", "--levels", "4", "--ratio", "0:2:5"]) == 0
    out = capsys.readouterr().out
    assert "p_e_4" in out


def test_cli_preset_dump_reparses(tmp_path):
    out = tmp_path / "preset.json"
    assert main(["preset", "fig2a", "--dump", "--out", str(out)]) == 0
    want = config_from_dict(get_preset("fig2a").document)
    assert dump_config(parse_config(out)) == dump_config(want)


def test_cli_dump_and_svg_without_out_go_to_stdout(tmp_path, capsys):
    assert main(["preset", "fig2a", "--dump"]) == 0
    assert capsys.readouterr().out == \
        json.dumps(get_preset("fig2a").document, indent=2, sort_keys=True) + "\n"
    path = tmp_path / "fig8a.csv"
    assert main(["preset", "fig8a", "--run", "--points", "3", "--out", str(path)]) == 0
    assert main(["emit", "--in", str(path), "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")


def test_cli_preset_run(tmp_path):
    out = tmp_path / "table1.csv"
    assert main(["preset", "table1", "--run", "--out", str(out)]) == 0
    table = read_csv(out)
    assert table.metadata["preset"] == "table1"
    assert len(table.rows) == 1


def test_cli_preset_run_taxonomy_filter(tmp_path):
    out = tmp_path / "fig7a.csv"
    assert main(["preset", "fig7a", "--points", "2", "--out", str(out)]) == 0
    table = read_csv(out)
    labels = {row[0] for row in table.rows}
    assert labels == {"J", "eta", "Gs1", "Gs2"}


_FIG2 = "cavities.{0}.detuning,cavities.{0}.decay,{1},stable"
_FIG3 = "mechanicals.1.frequency,cavities.0.decay,{},stable"
_FIG7 = "closed_channels,kappa,dark,zeta_residual,gs_minus_residual,stable,n_f_1,n_f_2"
_FIG8 = "{},n_f_1,n_f_2,stable,dark"
_FIG11 = "cavities.0.{},n_f_1,n_f_2,n_f_3{},stable"
_FIG13 = "ratio,lambda_1,lambda_2,lambda_3{0},p_e_1,p_e_2,p_e_3{1}"
# header and row count of `preset NAME --run --points 2`
_PRESET_RUNS = {
    "fig2a": (_FIG2.format(0, "n_f_1"), 4), "fig2b": (_FIG2.format(0, "n_f_2"), 4),
    "fig2c": (_FIG2.format(1, "n_f_1"), 4), "fig2d": (_FIG2.format(1, "n_f_2"), 4),
    "fig3a": (_FIG3.format("n_f_1"), 4), "fig3b": (_FIG3.format("n_f_2"), 4),
    "fig3c": (_FIG3.format("n_f_1"), 4), "fig3d": (_FIG3.format("n_f_2"), 4),
    "fig4a": ("edges.2.strength,cavities.1.decay,n_f_1,stable", 6),
    "fig4b": ("edges.2.strength,cavities.1.decay,n_f_2,stable", 6),
    "fig7a": (_FIG7, 8), "fig7b": (_FIG7, 8), "fig7c": (_FIG7, 12),
    "fig7d": (_FIG7, 12), "fig7e": (_FIG7, 8), "fig7f": (_FIG7, 8),
    "fig8a": (_FIG8.format("cavities.0.decay"), 2),
    "fig8b": (_FIG8.format("edges.3.strength"), 2),
    "fig11a": (_FIG11.format("detuning", ""), 2), "fig11b": (_FIG11.format("detuning", ",n_f_4"), 2),
    "fig11c": (_FIG11.format("decay", ""), 2), "fig11d": (_FIG11.format("decay", ",n_f_4"), 2),
    "fig13a": (_FIG13.format("", ""), 2), "fig13b": (_FIG13.format(",lambda_4", ",p_e_4"), 2),
    "table1": ("stable,max_real_part,n_f_1,n_f_2,n_c_1,n_c_2,dark,zeta_residual,"
               "gs_minus_residual", 1),
}


@pytest.mark.parametrize("name", preset_names())
def test_cli_every_preset_runs_and_dumps(tmp_path, name):
    """--run writes the figure's columns and one row per grid point; --dump
    writes the config, or the atomic grid of fig13a/b."""
    header, rows = _PRESET_RUNS[name]
    out = tmp_path / "run.csv"
    assert main(["preset", name, "--run", "--points", "2", "--out", str(out)]) == 0
    table = read_csv(out)
    assert ",".join(table.columns) == header
    assert len(table.rows) == rows
    assert table.metadata["preset"] == name
    dump = tmp_path / "dump.json"
    assert main(["preset", name, "--dump", "--points", "2", "--out", str(dump)]) == 0
    doc = json.loads(dump.read_text())
    if name.startswith("fig13"):
        levels = 3 if name == "fig13a" else 4
        assert doc == {"atomic": {"levels": levels, "ratio": [0.0, 3.0], "points": 2}}
    else:
        assert dump_config(config_from_dict(doc)) == \
            dump_config(config_from_dict(get_preset(name).document))


def test_cli_solve_complex_strength_writes_empty_dark_cells(tmp_path):
    doc = config_to_dict(n_type_config())
    doc["edges"][2]["strength"] = [0.08, 0.01]
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "solve.csv"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    table = read_csv(out)
    assert table.columns[-3:] == ["dark", "zeta_residual", "gs_minus_residual"]
    assert table.rows[0][-3:] == [None, None, None]
    assert table.rows[0][table.columns.index("n_f_1")] is not None


def test_cli_solve_generic_topology_writes_no_dark_columns(tmp_path):
    doc = config_to_dict(n_type_config())
    doc["topology"] = "generic"
    out = tmp_path / "solve.csv"
    assert main(["solve", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
    columns = read_csv(out).columns
    assert "n_f_2" in columns
    assert not {"dark", "zeta_residual", "gs_minus_residual"} & set(columns)


def test_cli_zero_coupling_refusal(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, network4_config(G1=0.0, G2=0.0))
    out = tmp_path / "taxonomy.csv"
    assert main(["taxonomy", "--config", cfg_path, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: dark-mode analysis needs cavity c0 coupled to m0 or m1\n")
    assert not out.exists()
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
    table = read_csv(out)
    assert table.columns[-3:] == ["dark", "zeta_residual", "gs_minus_residual"]
    assert table.rows[0][-3:] == [None, None, None]


def test_cli_chain_solve(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, chain_config(3))
    assert main(["solve", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "n_f_3" in out


@pytest.mark.parametrize("argv", [
    ["preset", "fig13a", "--run", "--points", "-1"],
    ["preset", "fig7a", "--run", "--points", "-1"],
    ["preset", "fig7a", "--run", "--points", "0"],
    ["preset", "fig2a", "--points", "0"],
    ["preset", "table1", "--dump", "--points", "0"],
    ["atomic", "--levels", "3", "--ratio", "nan:1:3"],
    ["atomic", "--levels", "4", "--ratio", "0:inf:3"],
    ["preset", "fig2a", "--run", "--points", "2", "--jobs", "0"],
    ["taxonomy", "--config", None, "--kappa", "0.5:0.1:3"],
    ["atomic", "--levels", "3", "--ratio", "3:0:4"],
    ["atomic", "--levels", "3", "--ratio", "1:1:3"],
    ["sweep", "--config", None, "--axis", "cavities.0.decay:0.1:x:3"],
    ["atomic", "--levels", "3", "--ratio", "0:3:x"],
    ["taxonomy", "--config", None, "--kappa", "1:2"],
    ["taxonomy", "--config", None, "--kappa", "0.05:1:0"],
], ids=["fig13a-negative-points", "fig7a-negative-points", "fig7a-zero-points",
        "fig2a-zero-points", "dump-zero-points", "atomic-nan-min", "atomic-inf-max",
        "preset-zero-jobs", "taxonomy-descending-kappa", "atomic-descending-ratio",
        "atomic-equal-bounds", "sweep-text-max", "atomic-text-points",
        "taxonomy-two-part-kappa", "taxonomy-zero-point-kappa"])
def test_cli_bad_option_exit_code(tmp_path, capsys, argv):
    argv = [_write_config(tmp_path, network4_config()) if a is None else a for a in argv]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["atomic", "--levels", "3", "--ratio", "0:3:1000000000000000"],
    ["preset", "fig2a", "--run", "--points", "1000000000000000"],
], ids=["atomic-ratio", "preset-points"])
def test_cli_range_too_large_to_hold_exit_code(tmp_path, capsys, argv):
    # numpy refuses an array of 10^15 points before it allocates any of it:
    # the MemoryError exits 5 with one error line, and nothing is written
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("kappa", ["nan:1:3", "0.05:-inf:3"])
def test_cli_taxonomy_non_finite_kappa_exit_code(tmp_path, kappa):
    cfg_path = _write_config(tmp_path, network4_config())
    assert main(["taxonomy", "--config", cfg_path, "--kappa", kappa]) == 3


def test_cli_range_value_may_start_with_minus(tmp_path, capsys):
    out = tmp_path / "atomic.csv"
    assert main(["atomic", "--levels", "3", "--ratio", "-3:3:7", "--out", str(out)]) == 0
    table = read_csv(out)
    assert [row[table.columns.index("ratio")] for row in table.rows] == [
        -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    cfg_path = _write_config(tmp_path, network4_config())
    assert main(["taxonomy", "--config", cfg_path, "--kappa", "-1:1:3"]) == 3
    assert "decay must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, axis", [
    (["atomic", "--levels", "3", "--ratio=-1e308:1e308:3"], "ratio"),
    (["sweep", "--config", None, "--axis", "cavities.0.detuning:-1e308:1e308:3"],
     "cavities.0.detuning"),
], ids=["atomic", "sweep"])
def test_cli_range_span_overflow_exit_code(tmp_path, capsys, argv, axis):
    # finite bounds whose max - min overflows would give NaN and inf points
    argv = [_write_config(tmp_path, network4_config()) if a is None else a for a in argv]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: axis {axis}: max - min must be finite\n"


@pytest.mark.parametrize("jobs, argv", [
    ("0", None),
    ("-4", None),
    ("0", ["preset", "fig7a", "--run", "--points", "2"]),
    ("-3", ["preset", "table1", "--run"]),
    ("0", ["preset", "fig13a", "--run", "--points", "2"]),
    ("0", ["preset", "table1", "--dump"]),
], ids=["0", "-4", "preset-fig7a-0", "preset-table1--3", "preset-fig13a-0",
        "preset-table1-dump-0"])
def test_cli_sweep_bad_jobs_exit_code(tmp_path, jobs, argv):
    if argv is None:
        argv = ["sweep", "--config", _write_config(tmp_path, n_type_config()),
                "--axis", "cavities.0.decay:0.05:1.0:3"]
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("points", [0, -1])
def test_get_preset_rejects_points_below_one(points):
    for name in preset_names():
        with pytest.raises(ConfigError, match="points must be >= 1"):
            get_preset(name, points=points)


def test_run_sweep_rejects_parallelism_below_one():
    with pytest.raises(ConfigError, match="parallelism"):
        run_sweep(n_type_config(), [SweepAxis("cavities.0.decay", 0.1, 0.2, 2)], parallelism=0)


@pytest.mark.parametrize("paths, message", [
    ([], "a sweep needs one or two axes"),
    (["cavities.0.detuning", "cavities.0.decay", "cavities.1.decay"],
     "a sweep needs one or two axes"),
    (["cavities.0.decay", "cavities.0.decay"], "duplicate sweep axis 'cavities.0.decay'"),
], ids=["no-axis", "three-axes", "duplicate-axis"])
def test_run_sweep_rejects_axis_count_and_repeats(paths, message):
    axes = [SweepAxis(path, 0.1, 0.2, 2) for path in paths]
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_sweep(n_type_config(), axes)


def test_run_sweep_rejects_unknown_outputs():
    # a name that is no record column would be a column of empty cells
    axes = [SweepAxis("cavities.0.decay", 0.1, 0.2, 2)]
    with pytest.raises(ConfigError, match="^unknown sweep output 'n_f_9', 'stabel'$"):
        run_sweep(n_type_config(), axes, ["n_f_9", "stabel"])


@pytest.mark.parametrize("route", ["emit"])
def test_cli_svg_without_numeric_axis_exit_code(tmp_path, capsys, route):
    # a solve table has no axis, so its first column, stable, would be drawn
    # against; it holds bools, which are no numbers to the SVG: the chart is
    # refused and no file is written
    config = _write_config(tmp_path, get_preset("table1").document)
    out = tmp_path / "out.svg"
    assert main(["solve", "--config", config, "--out", str(tmp_path / "t.csv")]) == 0
    assert main(["emit", "--in", str(tmp_path / "t.csv"), "--format", "svg",
                 "--out", str(out)]) == 5
    assert capsys.readouterr().err == \
        "error: axis column 'stable' has no numeric value to draw against\n"
    assert not out.exists()


def test_cli_emit_unreadable_input_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["emit", "--in", str(missing), "--format", "csv"]) == 2
    assert "cannot read" in capsys.readouterr().err
    with pytest.raises(ParseError, match="cannot read"):
        read_csv(missing)


@pytest.mark.parametrize("verb", [["solve", "--config"], ["emit", "--format", "csv", "--in"]],
                         ids=["solve", "emit"])
def test_cli_non_utf8_file_exit_code(tmp_path, capsys, verb):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe\x00bad")
    assert main([*verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"cannot read {path}" in err
    assert "Traceback" not in err


def test_cli_emit_reads_crlf_csv(tmp_path):
    """A CSV with CRLF line ends emits what its LF copy does: no metadata
    value keeps a \\r, so the two-axis table still renders as a heatmap."""
    lf = tmp_path / "lf.csv"
    assert main(["preset", "fig2a", "--run", "--points", "3", "--out", str(lf)]) == 0
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    for fmt in ("svg", "csv"):
        for source in (lf, crlf):
            assert main(["emit", "--in", str(source), "--format", fmt,
                         "--out", str(tmp_path / f"{source.stem}_out.{fmt}")]) == 0
        outs = [(tmp_path / f"{stem}_out.{fmt}").read_bytes() for stem in ("lf", "crlf")]
        assert outs[0] == outs[1]
    assert (tmp_path / "crlf_out.svg").read_text().count("<rect") == 10


@pytest.mark.parametrize("text", ["", "# tool_version=0.1.0\n# axes=x\n"],
                         ids=["empty", "metadata-only"])
def test_cli_emit_no_header_row_exit_code(tmp_path, capsys, text):
    path = tmp_path / "headless.csv"
    path.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["emit", "--in", str(path), "--format", "csv", "--out", str(out)]) == 2
    assert "no header row" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ParseError, match="no header row"):
        read_csv(path)


def _fig8a_csv(tmp_path):
    path = tmp_path / "fig8a.csv"
    assert main(["preset", "fig8a", "--run", "--points", "4", "--out", str(path)]) == 0
    return path


def test_cli_emit_skips_blank_lines(tmp_path):
    clean = _fig8a_csv(tmp_path)
    padded = tmp_path / "padded.csv"
    padded.write_text(clean.read_text() + "\n")
    for source in (clean, padded):
        assert main(["emit", "--in", str(source), "--format", "svg",
                     "--out", str(tmp_path / f"{source.stem}.svg")]) == 0
    assert (tmp_path / "padded.svg").read_bytes() == (tmp_path / "fig8a.svg").read_bytes()
    assert read_csv(padded).rows == read_csv(clean).rows


@pytest.mark.parametrize("edit", [lambda r: r[:-1], lambda r: r + ["1.0"]], ids=["short", "long"])
def test_cli_emit_ragged_record_exit_code(tmp_path, capsys, edit):
    path = _fig8a_csv(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    last = next(csv.reader([lines[-1]]))
    lines[-1] = ",".join(edit(last)) + "\n"
    path.write_text("".join(lines))
    out = tmp_path / "out.svg"
    assert main(["emit", "--in", str(path), "--format", "svg", "--out", str(out)]) == 2
    assert f"{path}:{len(lines)}: {len(edit(last))} fields where the header has {len(last)}" \
        in capsys.readouterr().err
    assert not out.exists()


def test_cli_emit_oversized_field_exit_code(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text(f"x,y\n1,{'a' * (csv.field_size_limit() + 1)}\n")
    out = tmp_path / "out.csv"
    assert main(["emit", "--in", str(path), "--format", "csv", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:2: field larger than field limit ({csv.field_size_limit()})\n")
    assert not out.exists()


def test_cli_emit_unwritable_output_exit_code(tmp_path):
    cfg_path = _write_config(tmp_path, n_type_config())
    saved = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(saved),
                 "--axis", "cavities.0.decay:0.05:1.0:2"]) == 0
    assert main(["emit", "--in", str(saved), "--format", "svg",
                 "--out", str(tmp_path / "no-such-dir" / "out.svg")]) == 5
