"""One-shot solves, parameter sweeps, the 14-configuration taxonomy run,
and atomic ratio grids, all producing ResultTables."""

from __future__ import annotations

import dataclasses
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .atomic import four_level_eigensystem, three_level_eigensystem
from .config_io import config_hash
from .darkmode import TAXONOMY_SIZES, classify_configurations, dark_mode_condition
from .errors import ConfigError, OmcoolError
from .lyapunov import phonon_numbers, solve_lyapunov, stability
from .model import (
    SystemConfig,
    build_drift_matrix,
    build_noise_matrix,
    solve_steady_amplitudes,
    validate_config,
)
from .results import ResultTable


@dataclass(frozen=True)
class SweepAxis:
    path: str  # dotted parameter path, e.g. "cavities.0.decay"
    lo: float
    hi: float
    points: int
    scale: str = "linear"

    def values(self) -> np.ndarray:
        if self.points < 1:
            raise ConfigError("axis needs at least one point")
        if self.points == 1:
            return np.array([self.lo])
        if self.lo >= self.hi:
            raise ConfigError(f"axis {self.path}: min must be < max")
        if self.scale == "log":
            if self.lo <= 0:
                raise ConfigError(f"axis {self.path}: log scale needs min > 0")
            return np.logspace(np.log10(self.lo), np.log10(self.hi), self.points)
        if self.scale != "linear":
            raise ConfigError(f"axis {self.path}: unknown scale {self.scale!r}")
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class SweepSpec:
    base: SystemConfig
    axes: tuple[SweepAxis, ...]
    outputs: tuple[str, ...] = ()

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ConfigError("a sweep needs one or two axes")
        paths = [axis.path for axis in self.axes]
        if len(set(paths)) != len(paths):
            raise ConfigError(f"duplicate sweep axis {paths[0]!r}")


def set_parameter(config: SystemConfig, path: str, value: float) -> SystemConfig:
    """Return a copy of the config with one scalar replaced.  Paths look like
    'cavities.0.detuning', 'mechanicals.1.frequency', or 'edges.3.strength'."""
    parts = path.split(".")
    if len(parts) != 3:
        raise ConfigError(f"bad parameter path {path!r} (want section.index.field)")
    section, idx_s, fld = parts
    if section not in ("cavities", "mechanicals", "edges"):
        raise ConfigError(f"bad parameter path {path!r}: unknown section {section!r}")
    try:
        idx = int(idx_s)
        items = list(getattr(config, section))
        old = items[idx]
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad parameter path {path!r}: no element {idx_s}") from exc
    if fld not in {f.name for f in dataclasses.fields(old)}:
        raise ConfigError(f"bad parameter path {path!r}: unknown field {fld!r}")
    items[idx] = dataclasses.replace(old, **{fld: value})
    return dataclasses.replace(config, **{section: tuple(items)})


def solve_record(config: SystemConfig) -> dict:
    """Full pipeline for one configuration: stability, covariance, phonon
    numbers, and (for two-mechanical topologies) the dark-mode report.

    Unstable systems produce a flagged record with empty occupations instead
    of raising.  The config is validated here, once per point; the stages
    below take it as checked.
    """
    validate_config(config)
    if config.parameter_mode == "physical":
        amplitudes = solve_steady_amplitudes(config)
    else:
        amplitudes = None
    A = build_drift_matrix(config, amplitudes)
    Q = build_noise_matrix(config)
    report = stability(A)
    record: dict = {"stable": report.stable, "max_real_part": report.max_real_part}
    nm, nc = config.n_mechanicals, config.n_cavities
    if report.stable:
        V = solve_lyapunov(A, Q, report=report)
        phonons = phonon_numbers(V, config)
        for l in range(nm):
            record[f"n_f_{l + 1}"] = phonons.mechanical[l]
        for c in range(nc):
            record[f"n_c_{c + 1}"] = phonons.cavity[c]
    else:
        for l in range(nm):
            record[f"n_f_{l + 1}"] = None
        for c in range(nc):
            record[f"n_c_{c + 1}"] = None
    if nm == 2 and config.topology in ("n_type", "network4"):
        try:
            dm = dark_mode_condition(config)
            record["dark"] = dm.dark_present
            record["zeta_residual"] = dm.zeta_residual
            record["gs_minus_residual"] = dm.gs_minus_residual
        except ConfigError:
            pass
    return record


def _record_columns(config: SystemConfig) -> list[str]:
    cols = ["stable", "max_real_part"]
    cols += [f"n_f_{l + 1}" for l in range(config.n_mechanicals)]
    cols += [f"n_c_{c + 1}" for c in range(config.n_cavities)]
    if config.n_mechanicals == 2 and config.topology in ("n_type", "network4"):
        cols += ["dark", "zeta_residual", "gs_minus_residual"]
    return cols


def _base_metadata(config: SystemConfig, **extra: str) -> dict[str, str]:
    meta = {"tool_version": __version__, "config_hash": config_hash(config)}
    meta.update(extra)
    return meta


def run_solve(config: SystemConfig) -> ResultTable:
    record = solve_record(config)
    columns = _record_columns(config)
    return ResultTable(
        columns=columns,
        rows=[[record.get(c) for c in columns]],
        metadata=_base_metadata(config),
    )


def default_jobs() -> int:
    """Worker count from $OMCOOL_JOBS (default 1).  A value that is not a
    positive integer falls back to 1 with a RuntimeWarning on stderr."""
    raw = os.environ.get("OMCOOL_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        warnings.warn(f"ignoring OMCOOL_JOBS={raw!r}: not a positive integer; using 1 worker",
                      RuntimeWarning, stacklevel=2)
        return 1
    return jobs


def run_sweep(spec: SweepSpec, parallelism: int | None = None) -> ResultTable:
    """Row-major grid evaluation.  Each point is an independent solve; row
    order never depends on the parallelism level.  ``parallelism`` must be at
    least 1.  A hard failure aborts the sweep with the partial table attached
    to the exception."""
    if parallelism is not None and parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    validate_config(spec.base)
    jobs = parallelism if parallelism is not None else default_jobs()
    axis_values = [axis.values() for axis in spec.axes]
    points: list[tuple[float, ...]] = []
    configs: list[SystemConfig] = []
    if len(spec.axes) == 1:
        for x in axis_values[0]:
            points.append((float(x),))
            configs.append(set_parameter(spec.base, spec.axes[0].path, float(x)))
    else:
        for x in axis_values[0]:
            cfg_x = set_parameter(spec.base, spec.axes[0].path, float(x))
            for y in axis_values[1]:
                points.append((float(x), float(y)))
                configs.append(set_parameter(cfg_x, spec.axes[1].path, float(y)))

    record_cols = _record_columns(spec.base)
    out_cols = list(spec.outputs) if spec.outputs else record_cols
    columns = [axis.path for axis in spec.axes] + out_cols
    table = ResultTable(
        columns=columns,
        rows=[],
        metadata=_base_metadata(
            spec.base, axes=",".join(axis.path for axis in spec.axes)
        ),
    )
    if jobs > 1:
        executor = ProcessPoolExecutor(max_workers=jobs)
        chunk = max(1, len(configs) // (jobs * 4))
        iterator = executor.map(solve_record, configs, chunksize=chunk)
    else:
        executor = None
        iterator = map(solve_record, configs)
    try:
        for point, record in zip(points, iterator):
            table.rows.append(list(point) + [record.get(c) for c in out_cols])
    except OmcoolError as exc:
        exc.partial = table  # type: ignore[attr-defined]
        raise
    finally:
        if executor is not None:
            executor.shutdown()
    return table


def run_taxonomy(base: SystemConfig, kappa_values=None,
                 sizes: tuple[int, ...] = TAXONOMY_SIZES) -> ResultTable:
    """One row per closed-channel subset whose size is in ``sizes`` (all 14
    for the default TAXONOMY_SIZES), optionally crossed with a sweep of the
    intermediate-cavity decay rate.  Subsets of other sizes are never solved."""
    results = classify_configurations(base)
    columns = ["closed_channels", "kappa", "dark", "zeta_residual",
               "gs_minus_residual", "stable", "n_f_1", "n_f_2"]
    table = ResultTable(
        columns=columns, rows=[],
        metadata=_base_metadata(base, axes="kappa"),
    )
    kappas = [base.cavities[0].decay] if kappa_values is None else list(kappa_values)
    for closed, cfg, dm in results:
        if len(closed) not in sizes:
            continue
        label = "+".join(ch for ch in ("J", "eta", "Gs1", "Gs2") if ch in closed)
        for kappa in kappas:
            record = solve_record(set_parameter(cfg, "cavities.0.decay", float(kappa)))
            table.rows.append([
                label, float(kappa), dm.dark_present, dm.zeta_residual,
                dm.gs_minus_residual, record["stable"],
                record.get("n_f_1"), record.get("n_f_2"),
            ])
    return table


def run_atomic(levels: int, ratios) -> ResultTable:
    """Eigenvalues and excited-state probabilities over an amplitude-ratio
    grid for the three- or four-level system (unit reference amplitude)."""
    if levels not in (3, 4):
        raise ConfigError("levels must be 3 or 4")
    n = levels
    columns = (["ratio"] + [f"lambda_{s + 1}" for s in range(n)]
               + [f"p_e_{s + 1}" for s in range(n)])
    table = ResultTable(columns=columns, rows=[],
                        metadata={"tool_version": __version__, "axes": "ratio",
                                  "levels": str(levels)})
    for ratio in ratios:
        if levels == 3:
            rep = three_level_eigensystem(float(ratio), 1.0)
        else:
            rep = four_level_eigensystem(float(ratio), 1.0)
        table.rows.append([float(ratio)] + list(rep.eigenvalues)
                          + list(rep.excited_probabilities))
    return table
