"""Config documents, result tables, sweeps, presets, and the CLI contract."""

import dataclasses
import json

import numpy as np
import pytest

from omcool.cli import main
from omcool.config_io import (
    config_from_dict,
    config_hash,
    config_to_dict,
    dump_config,
    parse_config,
)
from omcool.errors import ConfigError, ParseError, SolverError
from omcool.model import axis_slot, compile_config
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
    SweepSpec,
    run_atomic,
    run_solve,
    run_sweep,
    run_taxonomy,
)


# ---------------------------------------------------------------------------
# config documents

def test_config_round_trip_is_fixed_point():
    cfg = network4_config()
    text = dump_config(cfg)
    reparsed = config_from_dict(json.loads(text))
    assert dump_config(reparsed) == text
    assert reparsed == cfg


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
    cfg = dataclasses.replace(
        n_type_config(),
        edges=(dataclasses.replace(n_type_config().edges[0], strength=0.05 + 0.01j),)
        + n_type_config().edges[1:],
    )
    reparsed = config_from_dict(json.loads(dump_config(cfg)))
    assert reparsed.edges[0].strength == 0.05 + 0.01j


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(dump_config(n_type_config()))
    assert parse_config(path) == n_type_config()


def test_parse_config_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"cavities": [,]}')
    with pytest.raises(ParseError, match="line 1"):
        parse_config(path)


def test_config_hash_stable_and_distinct():
    assert config_hash(n_type_config()) == config_hash(n_type_config())
    assert config_hash(n_type_config()) != config_hash(n_type_config(kappa=0.2))


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
    path = tmp_path / "out.csv"
    write_csv(table, path)
    back = read_csv(path)
    assert back.columns == table.columns
    assert back.rows == table.rows
    assert back.metadata == table.metadata


def test_svg_line_chart_structure():
    table = run_sweep(SweepSpec(
        base=n_type_config(),
        axes=(SweepAxis("cavities.0.decay", 0.05, 1.0, 5),),
        outputs=("n_f_1", "n_f_2"),
    ))
    svg = table_to_svg(table)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2


def test_svg_heatmap_one_cell_per_point():
    table = run_sweep(SweepSpec(
        base=n_type_config(),
        axes=(SweepAxis("cavities.0.detuning", 0.8, 1.2, 3),
              SweepAxis("cavities.0.decay", 0.05, 0.5, 4)),
        outputs=("n_f_1",),
    ))
    svg = table_to_svg(table)
    # one background rect plus one cell per grid point
    assert svg.count("<rect") == 1 + 12


def test_empty_table_svg_rejected():
    with pytest.raises(SolverError):
        table_to_svg(ResultTable(columns=["x"], rows=[]))


# ---------------------------------------------------------------------------
# sweeps

def test_axis_slot_paths():
    cfg = n_type_config()
    model = compile_config(cfg).write([axis_slot(cfg, "cavities.1.decay", [0.7])], [0.7])
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
    sweep = run_sweep(SweepSpec(base=base,
                                axes=(SweepAxis("cavities.0.decay", 0.1, 0.1, 1),)))
    solve = run_solve(base)
    for col in solve.columns:
        assert sweep.rows[0][sweep.columns.index(col)] == \
            solve.rows[0][solve.columns.index(col)]


def test_sweep_row_major_order():
    table = run_sweep(SweepSpec(
        base=n_type_config(),
        axes=(SweepAxis("cavities.0.detuning", 0.9, 1.1, 2),
              SweepAxis("cavities.0.decay", 0.1, 0.2, 2)),
        outputs=("stable",),
    ))
    points = [(row[0], row[1]) for row in table.rows]
    assert points == [(0.9, 0.1), (0.9, 0.2), (1.1, 0.1), (1.1, 0.2)]


def test_sweep_deterministic_across_parallelism():
    spec = SweepSpec(
        base=n_type_config(),
        axes=(SweepAxis("cavities.0.decay", 0.05, 1.0, 8),),
        outputs=("n_f_1", "n_f_2", "stable"),
    )
    serial = table_to_csv(run_sweep(spec, parallelism=1))
    parallel = table_to_csv(run_sweep(spec, parallelism=4))
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
    spec = SweepSpec(
        base=n_type_config(),
        axes=(SweepAxis("edges.0.strength", 0.05, 5.0, 4),),
        outputs=("stable", "n_f_1"),
    )
    table = run_sweep(spec)
    assert len(table.rows) == 4
    stables = table.column("stable")
    assert False in stables
    for row in table.rows:
        if row[table.columns.index("stable")] is False:
            assert row[table.columns.index("n_f_1")] is None


def test_taxonomy_table_shape():
    table = run_taxonomy(network4_config())
    assert len(table.rows) == 14
    assert sum(1 for row in table.rows if row[table.columns.index("dark")]) == 6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_taxonomy_sizes_equal_filtered_full_table(k):
    kappa = SweepAxis("cavities.0.decay", 0.05, 1.0, 3)
    full = run_taxonomy(network4_config(), kappa)
    kept = run_taxonomy(network4_config(), kappa, sizes=(k,))
    assert kept.columns == full.columns
    assert kept.metadata == full.metadata
    assert kept.rows == [row for row in full.rows if len(row[0].split("+")) == k]


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
    base = get_preset("fig2a").config
    assert base.cavities[0].detuning == 1.0
    assert base.cavities[0].decay == 0.1
    assert base.mechanicals[0].damping == 1e-5
    assert base.mechanicals[0].thermal_occupation == 1000.0
    assert base.edges[0].strength == 0.05
    assert base.edges[2].strength == 0.08

    dark = get_preset("fig3a").config
    assert dark.edges[2].strength == 0.0

    net = get_preset("fig7a").config
    by_kind = {(e.kind, frozenset(e.endpoints)): e.strength for e in net.edges}
    assert by_kind[("photon_hop", frozenset(("c0", "c1")))] == 0.03
    assert by_kind[("phonon_hop", frozenset(("m0", "m1")))] == 0.03
    assert by_kind[("optomechanical", frozenset(("c1", "m1")))] == 0.08

    ch = get_preset("fig11a").config
    assert ch.topology == "chain" and ch.n_mechanicals == 3
    assert ch.edges[3].strength == 0.1  # auxiliary coupling
    assert ch.edges[4].strength == 0.06  # phonon hopping


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        get_preset("fig99z")


def test_preset_dump_round_trip_fixed_point(tmp_path):
    for name in preset_names():
        preset = get_preset(name)
        if preset.config is None:
            continue
        text = dump_config(preset.config)
        assert dump_config(config_from_dict(json.loads(text))) == text


# ---------------------------------------------------------------------------
# CLI contract

def _write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(dump_config(cfg))
    return str(path)


def test_cli_solve_success(tmp_path, capsys):
    code = main(["solve", "--config", _write_config(tmp_path, n_type_config())])
    out = capsys.readouterr().out
    assert code == 0
    assert "n_f_1" in out and "true" in out


def test_cli_solve_unstable_exit_code(tmp_path):
    cfg = n_type_config(gamma=0.0)
    cfg = dataclasses.replace(cfg, edges=())
    code = main(["solve", "--config", _write_config(tmp_path, cfg)])
    assert code == 4


def test_cli_parse_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["solve", "--config", str(path)]) == 2


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


def test_cli_non_finite_exit_code(tmp_path):
    doc = config_to_dict(n_type_config())
    doc["cavities"][0]["decay"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # written as the JSON extension NaN
    assert main(["solve", "--config", str(path)]) == 3


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


def test_cli_sweep_solver_failure_keeps_partial_table(tmp_path):
    # the amplitude iteration converges at drive 60 and gives up at 3000
    doc = config_to_dict(n_type_config())
    doc["parameter_mode"] = "physical"
    for cav, drive in zip(doc["cavities"], (60.0, 80.0)):
        cav["drive_amplitude"] = drive
    for edge, g in zip(doc["edges"], (5e-4, 5e-4, 8e-4)):
        edge["strength"] = g
    cfg_path = tmp_path / "physical.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                 "--axis", "cavities.0.drive_amplitude:60:3000:2"]) == 5
    assert read_csv(out).column("cavities.0.drive_amplitude") == [60.0]


def test_cli_taxonomy(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, network4_config())
    assert main(["taxonomy", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 14 + 1 + 3  # rows + header + metadata


def test_cli_atomic(tmp_path, capsys):
    assert main(["atomic", "--levels", "4", "--ratio", "0:2:5"]) == 0
    out = capsys.readouterr().out
    assert "p_e_4" in out


def test_cli_preset_dump_reparses(tmp_path):
    out = tmp_path / "preset.json"
    assert main(["preset", "fig2a", "--dump", "--out", str(out)]) == 0
    assert parse_config(out) == get_preset("fig2a").config


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
        assert config_from_dict(doc) == get_preset(name).config


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
    cfg = dataclasses.replace(n_type_config(), topology="generic")
    out = tmp_path / "solve.csv"
    assert main(["solve", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
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
], ids=["fig13a-negative-points", "fig7a-negative-points", "fig7a-zero-points",
        "fig2a-zero-points", "dump-zero-points", "atomic-nan-min", "atomic-inf-max",
        "preset-zero-jobs", "taxonomy-descending-kappa", "atomic-descending-ratio",
        "atomic-equal-bounds"])
def test_cli_bad_option_exit_code(tmp_path, capsys, argv):
    argv = [_write_config(tmp_path, network4_config()) if a is None else a for a in argv]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("kappa", ["nan:1:3", "0.05:-inf:3"])
def test_cli_taxonomy_non_finite_kappa_exit_code(tmp_path, kappa):
    cfg_path = _write_config(tmp_path, network4_config())
    assert main(["taxonomy", "--config", cfg_path, "--kappa", kappa]) == 3


def test_cli_range_value_may_start_with_minus(tmp_path, capsys):
    out = tmp_path / "atomic.csv"
    assert main(["atomic", "--levels", "3", "--ratio", "-3:3:7", "--out", str(out)]) == 0
    assert read_csv(out).column("ratio") == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    cfg_path = _write_config(tmp_path, network4_config())
    assert main(["taxonomy", "--config", cfg_path, "--kappa", "-1:1:3"]) == 3
    assert "decay must be >= 0" in capsys.readouterr().err


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
    spec = SweepSpec(base=n_type_config(), axes=(SweepAxis("cavities.0.decay", 0.1, 0.2, 2),))
    with pytest.raises(ConfigError, match="parallelism"):
        run_sweep(spec, parallelism=0)


def test_cli_emit_unreadable_input_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["emit", "--in", str(missing), "--format", "csv"]) == 2
    assert "cannot read" in capsys.readouterr().err
    with pytest.raises(ParseError, match="cannot read"):
        read_csv(missing)


def test_cli_emit_unwritable_output_exit_code(tmp_path):
    cfg_path = _write_config(tmp_path, n_type_config())
    saved = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg_path, "--out", str(saved),
                 "--axis", "cavities.0.decay:0.05:1.0:2"]) == 0
    assert main(["emit", "--in", str(saved), "--format", "svg",
                 "--out", str(tmp_path / "no-such-dir" / "out.svg")]) == 5
