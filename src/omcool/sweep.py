"""One-shot solves, parameter sweeps, the 14-configuration taxonomy run,
and atomic ratio grids, all producing ResultTables."""

from __future__ import annotations

import itertools
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .atomic import four_level_eigensystem, three_level_eigensystem
from .config_io import config_hash
from .darkmode import (
    TAXONOMY_SIZES,
    closed_channel_variants,
    dark_mode_applies,
    dark_mode_condition,
)
from .errors import ConfigError, OmcoolError
from .lyapunov import phonon_numbers, solve_lyapunov, stability
from .model import (
    Model,
    SystemConfig,
    axis_slot,
    build_drift_matrix,
    build_noise_matrix,
    compile_config,
    linearized,
    solve_steady_amplitudes,
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


def solve_record(model: Model) -> dict:
    """Full pipeline for one compiled point: stability, covariance, phonon
    numbers, and (for two-mechanical topologies) the dark-mode report, which
    in physical mode describes the single-photon couplings g.

    Unstable systems produce a flagged record with empty occupations instead
    of raising.  The model was checked where its config entered
    (compile_config) and each value written into it by axis_slot, so nothing
    here re-checks.
    """
    linear = model
    if model.parameter_mode == "physical":
        linear = linearized(model, solve_steady_amplitudes(model))
    A = build_drift_matrix(linear)
    Q = build_noise_matrix(model)
    report = stability(A)
    record: dict = {"stable": report.stable, "max_real_part": report.max_real_part}
    n_f, n_c = [None] * model.n_mechanicals, [None] * model.n_cavities
    if report.stable:
        phonons = phonon_numbers(solve_lyapunov(A, Q, report=report), model)
        n_f, n_c = phonons.mechanical, phonons.cavity
    record.update({f"n_f_{l + 1}": n for l, n in enumerate(n_f)})
    record.update({f"n_c_{c + 1}": n for c, n in enumerate(n_c)})
    if dark_mode_applies(model):
        try:
            dm = dark_mode_condition(model)
            record["dark"] = dm.dark_present
            record["zeta_residual"] = dm.zeta_residual
            record["gs_minus_residual"] = dm.gs_minus_residual
        except ConfigError:
            pass
    return record


def _record_columns(model: Model) -> list[str]:
    cols = ["stable", "max_real_part"]
    cols += [f"n_f_{l + 1}" for l in range(model.n_mechanicals)]
    cols += [f"n_c_{c + 1}" for c in range(model.n_cavities)]
    if dark_mode_applies(model):
        cols += ["dark", "zeta_residual", "gs_minus_residual"]
    return cols


def _base_metadata(config: SystemConfig, **extra: str) -> dict[str, str]:
    meta = {"tool_version": __version__, "config_hash": config_hash(config)}
    meta.update(extra)
    return meta


def run_solve(config: SystemConfig) -> ResultTable:
    model = compile_config(config)
    record = solve_record(model)
    columns = _record_columns(model)
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


def _solve_points(model: Model, slots, points) -> list[dict]:
    """Records of the grid points, each the model with its axis values
    written into the axis slots."""
    return [solve_record(model.write(slots, point)) for point in points]


def run_sweep(spec: SweepSpec, parallelism: int | None = None) -> ResultTable:
    """Row-major grid evaluation.  Each point is an independent solve; row
    order never depends on the parallelism level.  ``parallelism`` must be at
    least 1.  The base config is compiled once and each axis value checked
    once.  A hard failure aborts the sweep with the partial table attached
    to the exception."""
    if parallelism is not None and parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    model = compile_config(spec.base)
    jobs = parallelism if parallelism is not None else default_jobs()
    axis_values = [[float(x) for x in axis.values()] for axis in spec.axes]
    slots = [axis_slot(spec.base, axis.path, values)
             for axis, values in zip(spec.axes, axis_values)]
    points = list(itertools.product(*axis_values))

    record_cols = _record_columns(model)
    out_cols = list(spec.outputs) if spec.outputs else record_cols
    columns = [axis.path for axis in spec.axes] + out_cols
    table = ResultTable(
        columns=columns,
        rows=[],
        metadata=_base_metadata(
            spec.base, axes=",".join(axis.path for axis in spec.axes)
        ),
    )
    # a task is a chunk: the model is sent once per chunk, each point as its
    # axis values; serial chunks are single points, so a failure keeps every row before it
    if jobs > 1:
        executor = ProcessPoolExecutor(max_workers=jobs)
        size = max(1, len(points) // (jobs * 4))
        run = executor.map
    else:
        executor = None
        size = 1
        run = map
    chunks = [points[k:k + size] for k in range(0, len(points), size)]
    records = itertools.chain.from_iterable(
        run(_solve_points, itertools.repeat(model), itertools.repeat(slots), chunks))
    try:
        for point, record in zip(points, records):
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
    intermediate-cavity decay rate.  Subsets of other sizes are never solved.
    The dark-mode columns come from each row's solve_record: the decay rate
    does not enter the dark-mode condition."""
    variants = closed_channel_variants(compile_config(base), sizes)
    kappas = [float(k) for k in
              ([base.cavities[0].decay] if kappa_values is None else kappa_values)]
    slot = axis_slot(base, "cavities.0.decay", kappas)
    columns = ["closed_channels", "kappa", "dark", "zeta_residual",
               "gs_minus_residual", "stable", "n_f_1", "n_f_2"]
    table = ResultTable(
        columns=columns, rows=[],
        metadata=_base_metadata(base, axes="kappa"),
    )
    for label, model in variants:
        for kappa in kappas:
            record = solve_record(model.write((slot,), (kappa,)))
            if "dark" not in record:
                dark_mode_condition(model)  # raises the reason the report is missing
            table.rows.append([label, kappa] + [record.get(c) for c in columns[2:]])
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
