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
    default_jobs,
    run_atomic,
    run_solve,
    run_sweep,
    run_taxonomy,
    set_parameter,
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

def test_set_parameter_paths():
    cfg = set_parameter(n_type_config(), "cavities.1.decay", 0.7)
    assert cfg.cavities[1].decay == 0.7
    cfg = set_parameter(cfg, "edges.2.strength", 0.12)
    assert cfg.edges[2].strength == 0.12
    with pytest.raises(ConfigError):
        set_parameter(cfg, "cavities.9.decay", 0.1)
    with pytest.raises(ConfigError):
        set_parameter(cfg, "cavities.0.flux", 0.1)
    with pytest.raises(ConfigError):
        set_parameter(cfg, "decay", 0.1)


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


def test_atomic_table_dark_column():
    table = run_atomic(3, np.linspace(0.0, 3.0, 7))
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


def test_cli_jobs_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OMCOOL_JOBS", "2")
    cfg_path = _write_config(tmp_path, n_type_config())
    assert main(["sweep", "--config", cfg_path,
                 "--axis", "cavities.0.decay:0.05:1.0:4"]) == 0
    assert "n_f_1" in capsys.readouterr().out


def test_invalid_jobs_env_warns(monkeypatch):
    for raw in ("abc", "0", "-2", ""):
        monkeypatch.setenv("OMCOOL_JOBS", raw)
        with pytest.warns(RuntimeWarning, match="OMCOOL_JOBS"):
            assert default_jobs() == 1
    monkeypatch.setenv("OMCOOL_JOBS", "2")
    assert default_jobs() == 2


def test_cli_chain_solve(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, chain_config(3))
    assert main(["solve", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "n_f_3" in out
