"""One-shot solves, parameter sweeps, the 14-configuration taxonomy run,
and atomic ratio grids, all producing ResultTables."""

from __future__ import annotations

import collections
import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import __version__
from .atomic import level_eigensystem
from .config_io import axis_slot, config_hash
from .darkmode import DARK_SLOTS, TAXONOMY_SIZES, closed_channel_variants, dark_cells, dark_columns
from .errors import ConfigError, OmcoolError
from .lyapunov import phonon_numbers, solve_lyapunov, stability
from .model import (
    Assembly,
    Model,
    assembly,
    build_drift_matrix,
    build_noise_matrix,
    linearized,
    solve_steady_amplitudes,
)
from .results import ResultTable


@dataclass(frozen=True)
class SweepAxis:
    """The one range type: ``points`` values from ``lo`` to ``hi`` of the
    parameter at ``path``, evenly spaced on a linear or log scale."""

    path: str  # dotted parameter path, e.g. "cavities.0.decay"
    lo: float
    hi: float
    points: int
    scale: str = "linear"

    @classmethod
    def parse(cls, spec: str, path: str | None = None) -> SweepAxis:
        """The axis of a ``PATH:MIN:MAX:POINTS[:log]`` spec, or, given
        ``path``, of a linear ``MIN:MAX:POINTS`` range on it."""
        parts = spec.split(":") if path is None else [path, *spec.split(":")]
        grammar = "PATH:MIN:MAX:POINTS[:log]" if path is None else "MIN:MAX:POINTS"
        if len(parts) not in ((4, 5) if path is None else (4,)):
            raise ConfigError(f"bad range spec {spec!r} (want {grammar})")
        try:
            return cls(parts[0], float(parts[1]), float(parts[2]), int(parts[3]), *parts[4:])
        except ValueError as exc:
            raise ConfigError(f"bad range spec {spec!r}: {exc}") from exc

    def values(self) -> np.ndarray:
        """The axis points, which start at min and end at max exactly; a
        zero is +0.0.  The bounds must be finite, and min < max with a
        finite max - min when there is more than one point; the scale and
        its bounds are checked for every point count, one point included."""
        if self.points < 1:
            raise ConfigError(f"axis {self.path}: needs at least one point")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ConfigError(f"axis {self.path}: min and max must be finite")
        if self.points > 1 and self.lo >= self.hi:
            raise ConfigError(f"axis {self.path}: min must be < max")
        if self.points > 1 and not math.isfinite(self.hi - self.lo):
            raise ConfigError(f"axis {self.path}: max - min must be finite")
        if self.scale == "log" and self.lo <= 0:
            raise ConfigError(f"axis {self.path}: log scale needs min > 0")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"axis {self.path}: unknown scale {self.scale!r}")
        if self.points == 1:
            values = np.array([self.lo])
        elif self.scale == "log":
            values = np.logspace(np.log10(self.lo), np.log10(self.hi), self.points)
            values[[0, -1]] = self.lo, self.hi  # 10 ** log10(x) can miss x
        else:
            values = np.linspace(self.lo, self.hi, self.points)
        return values + 0.0  # a -0.0 bound reads +0.0


@dataclass(frozen=True, eq=False)
class PointPlan:
    """The parts of a run's point solves that no point changes, made once
    per run by point_plan.  A point is the run's model with its values
    written into ``slots``.  ``drift`` and ``noise`` assemble the point's A
    and Q, and ``dark`` holds its dark_cells; each is None where it is made
    per point from the written model instead."""

    slots: tuple[tuple[str, int], ...]
    drift: Assembly | None
    noise: Assembly | None
    dark: tuple | None


def point_plan(model: Model, slots) -> PointPlan:
    """The plan of the points that write ``slots`` of ``model``.  What is
    made per point: the drift of a physical-mode model, whose linearisation
    is not affine in any slot; the noise under a thermal-occupation slot,
    which gamma (2 nbar + 1) reads with an offset; and the dark-mode cells
    under a slot of DARK_SLOTS, the only slots they read."""
    slots = tuple(slots)
    names = {name for name, _ in slots}
    with np.errstate(over="ignore", invalid="ignore"):  # as in _solve_points
        return PointPlan(
            slots=slots,
            drift=(None if model.parameter_mode == "physical"
                   else assembly(build_drift_matrix, model, slots)),
            noise=None if "nbar" in names else assembly(build_noise_matrix, model, slots),
            dark=None if names & DARK_SLOTS else dark_cells(model),
        )


def solve_record(model: Model, plan: PointPlan, point=()) -> list:
    """Full pipeline for one point, ``model`` with ``point`` written into
    the slots of ``plan``, the point_plan its run made once: stability,
    covariance, phonon numbers, and (for two-mechanical topologies) the
    dark-mode report, which in physical mode describes the single-photon
    couplings g.  The record is the point's row, one cell per
    _record_columns(model), in their order.

    Unstable systems produce a flagged record with empty occupations instead
    of raising.  The model was checked where its document entered
    (config_from_dict) and each value written into it by axis_slot, so
    nothing here re-checks.
    """
    written = model
    if plan.drift is None or plan.noise is None or plan.dark is None:
        written = model.write(plan.slots, point)
    if plan.drift is None:
        A = build_drift_matrix(linearized(written, solve_steady_amplitudes(written)))
    else:
        A = plan.drift.at(point)
    Q = build_noise_matrix(written) if plan.noise is None else plan.noise.at(point)
    report = stability(A)
    n_f, n_c = (None,) * model.n_mechanicals, (None,) * model.n_cavities
    if report.stable:
        n_f, n_c = phonon_numbers(solve_lyapunov(A, Q, report=report), model)
    dark = dark_cells(written) if plan.dark is None else plan.dark
    return [report.stable, report.max_real_part, *n_f, *n_c, *dark]


def _record_columns(model: Model) -> list[str]:
    """The columns of a solve_record row of ``model``, in its order."""
    return ["stable", "max_real_part", *(f"n_f_{l + 1}" for l in range(model.n_mechanicals)),
            *(f"n_c_{c + 1}" for c in range(model.n_cavities)), *dark_columns(model)]


def _solve_points(model: Model, plan: PointPlan, picks,
                  points) -> tuple[list[list], OmcoolError | None]:
    """Rows of the points, each its axis values and the cells at positions
    ``picks`` of their solve_record, up to the first point that raises an
    OmcoolError, returned with that error (None when every point solved).
    It and point_plan own the solve path's overflow: a matrix that
    overflows from finite fields fails the finiteness check of stability or
    solve_lyapunov, unwarned."""
    rows: list[list] = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for point in points:
                record = solve_record(model, plan, point)
                rows.append([*point, *(record[i] for i in picks)])
    except OmcoolError as exc:
        return rows, exc
    return rows, None


def _grid_rows(variants, base: Model, axes, head, out_cols,
               parallelism: int = 1) -> ResultTable:
    """The table of one row per variant and point of the axes' grid,
    row-major: the variant's label columns and the point's axis values,
    named by ``head``, then ``out_cols`` of its solve_record, picked by
    their positions among the record columns of ``base``, found once.  A
    variant is a (labels, Model) pair with one point_plan over the axes'
    slots of ``base``, each axis value checked once.  The metadata carry
    the base's config_hash and, given axes, the names of their columns, the
    last of ``head``.  All is checked here and nothing solved: the rows
    solve each chunk of points as it is read.  Row order never depends on
    ``parallelism``, which must be at least 1, nor do the rows read before
    a hard failure raises."""
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    metadata = {"tool_version": __version__, "config_hash": config_hash(base)}
    if axes:
        metadata["axes"] = ",".join(head[-len(axes):])
    axis_values = [[float(x) for x in axis.values()] for axis in axes]
    slots = [axis_slot(base, axis.path, values) for axis, values in zip(axes, axis_values)]
    columns = _record_columns(base)
    picks = [columns.index(name) for name in out_cols]
    rows = _solved_rows(variants, slots, axis_values, picks, parallelism)
    return ResultTable(columns=[*head, *out_cols], rows=rows, metadata=metadata)


# the most points of a pooled chunk, so the rows in flight do not grow with the grid
_MAX_CHUNK = 1000


def _solved_rows(variants, slots, axis_values, picks, parallelism: int):
    """The rows of _grid_rows.  A chunk is one point serially; in a pool made
    at the first read, it is a quarter of a worker's share of the grid, at
    most _MAX_CHUNK points, and each worker has at most two chunks in
    flight, so memory stays flat in the grid size at every parallelism."""
    if parallelism > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays its import

        executor = ProcessPoolExecutor(max_workers=parallelism)
        size = min(_MAX_CHUNK, max(1, math.prod(map(len, axis_values)) // (parallelism * 4)))
        run = functools.partial(_windowed_map, executor, 2 * parallelism)
    else:
        executor, size, run = None, 1, map
    try:
        for labels, model in variants:
            plan = point_plan(model, slots)
            points = itertools.product(*axis_values)
            # a task is a chunk, which sends the model and plan once for its points
            chunks = iter(lambda: list(itertools.islice(points, size)), [])
            solve = functools.partial(_solve_points, model, plan, picks)
            for rows, error in run(solve, chunks):
                yield from ([*labels, *row] for row in rows)
                if error is not None:
                    raise error
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)


def _windowed_map(executor, window: int, fn, items):
    """executor.map(fn, items), in order, with at most ``window`` items
    submitted and not yet read, where executor.map submits them all at once."""
    pending = collections.deque()
    for item in items:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(executor.submit(fn, item))
    while pending:
        yield pending.popleft().result()


def run_solve(model: Model) -> ResultTable:
    return _grid_rows([((), model)], model, (), [], _record_columns(model))


def run_sweep(base: Model, axes: Sequence[SweepAxis], outputs: Sequence[str] = (),
              parallelism: int = 1) -> ResultTable:
    """The grid of one or two ``axes`` over ``base``, row-major, with the
    ``outputs`` columns (default: every record column; a name that is not
    one is refused).  The run's point_plan is made once: an effective-mode
    point's A and Q are the plan's base plus its axis values times unit-slot
    steps, and the dark-mode cells come once per run unless an axis writes a
    slot they read."""
    if not 1 <= len(axes) <= 2:
        raise ConfigError("a sweep needs one or two axes")
    paths = [axis.path for axis in axes]
    if len(set(paths)) != len(paths):
        raise ConfigError(f"duplicate sweep axis {paths[0]!r}")
    columns = _record_columns(base)
    unknown = [name for name in outputs if name not in columns]
    if unknown:
        raise ConfigError(f"unknown sweep output {', '.join(map(repr, unknown))}")
    return _grid_rows([((), base)], base, axes, paths, list(outputs) or columns, parallelism)


def run_taxonomy(base: Model, kappa: SweepAxis | None = None,
                 sizes: tuple[int, ...] = TAXONOMY_SIZES) -> ResultTable:
    """One row per closed-channel subset whose size is in ``sizes`` (all 14
    for the default TAXONOMY_SIZES), crossed with ``kappa``, an axis of the
    intermediate-cavity decay rate cavities.0.decay (the base model's rate
    if None).  Subsets of other sizes are never solved.  Each variant's rows
    are solve_record points of one point_plan over the decay slot, so its A,
    Q and dark-mode report are made once: the decay rate does not enter the
    dark-mode condition."""
    variants = [((label,), model) for label, model in closed_channel_variants(base, sizes)]
    if kappa is None:
        decay = float(base.decay[0])
        kappa = SweepAxis("cavities.0.decay", decay, decay, 1)
    return _grid_rows(variants, base, (kappa,), ["closed_channels", "kappa"],
                      [*dark_columns(base), "stable", "n_f_1", "n_f_2"])


def run_atomic(levels: int, ratio: SweepAxis) -> ResultTable:
    """Eigenvalues and excited-state probabilities over the amplitude-ratio
    axis ``ratio`` for the three- or four-level system (unit reference
    amplitude).  The axis is checked here; each row is solved as it is read,
    and another level count is refused at the first."""
    columns = (["ratio"] + [f"lambda_{s + 1}" for s in range(levels)]
               + [f"p_e_{s + 1}" for s in range(levels)])
    values = ratio.values()
    rows = ([x, *rep.eigenvalues, *rep.excited_probabilities]
            for x in map(float, values) for rep in (level_eigensystem(levels, x),))
    return ResultTable(columns=columns, rows=rows,
                       metadata={"tool_version": __version__, "axes": "ratio",
                                 "levels": str(levels)})
