"""The benchmark's four workloads: seeded inputs, the omcool command lines
that consume them, and the rows each command must write.

Every workload is a closed loop with one client: the next ``omcool`` call
starts when the previous one has returned.  One pass is a fixed list of
calls; a run repeats the same pass.  Inputs depend only on the seed, so the
same seed gives the same inputs.

Why each workload is in the benchmark:

* ``grid`` -- ``omcool preset fig2a --run --points 50 --jobs 2``: the paper's
  n_type detuning x decay grid (Fig. 2a) at 50 x 50 points of dimension 8.  The
  per-point cost is small and spread over every stage, and it is the only
  workload that uses the process pool and writes a large CSV, so a batched
  sweep engine shows here.  The grid is fixed by the paper; the seed only
  picks the rows re-checked by the time-domain oracle.
* ``taxonomy`` -- ``omcool preset fig7a --run --points 25``, serial: the same small
  pipeline through the taxonomy loop, which solves all 14 closed-channel
  configurations and keeps the 4 with one closed channel, so it shows work
  that is thrown away.  Fixed by the paper; the seed picks oracle rows.
* ``chain`` -- ``omcool sweep`` over the auxiliary-cavity detuning of
  resonator chains with N = 4, 8, 16, 24 (dimension 12 to 52), serial.  The
  Lyapunov solve dominates (over 90% of a point at N = 24) and sets peak
  memory, so a faster solver shows in time and memory; per-point overhead
  does not.  The seed picks the detuning window.
* ``physical`` -- a seeded stream of physical-mode n_type / network4
  documents, one ``omcool solve`` each.  It is the only workload that solves
  the steady-state amplitude equations; points whose fixed-point iteration
  does not converge stay in the mix and count as failures (their single
  steady state is unstable, so a solver that finds it must report
  stable=false).  Drives are
  log-uniform over [10, 1e3] and detunings uniform over [0.8, 1.2], drawn
  once as a Latin hypercube; the seed perturbs every document slightly.
"""

from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference

# Output check: |got - want| <= RTOL |want| + ATOL (1 + n_th).  Round-off of a
# different correct Lyapunov solver is ~1e-13 relative; a change in the
# physics moves occupations by far more than 1e-7.
RTOL = 1e-7
ATOL = 1e-9
# max_real_part is checked on its own: it is the one quantitative column of an
# unstable row.  A change of 1e-4 in the amplitudes of a physical point moves
# it far outside this tolerance.
GROWTH_RTOL = 1e-6
GROWTH_ATOL = 1e-10
# Time-domain oracle: its own accuracy is ~1e-10 of the largest entry of V.
ORACLE_RTOL = 1e-6
ORACLE_ATOL = 1e-7
ORACLE_ROWS = 2

EXACT_COLUMNS = ("stable", "dark", "closed_channels")

# Sizes keep each call under ~1 s, so that a run repeats every call several
# times and its fastest repetition is well sampled.
GRID_POINTS = 50  # per axis
TAXONOMY_POINTS = 25
CHAIN_SIZES = (4, 8, 16, 24)
# Rows per chain size: chosen so that the median point sits among the N = 4
# rows and the 95th percentile among the N = 24 rows.  The N = 24 rows are
# one sweep call each (~1 s apiece).
CHAIN_POINTS = {4: 20, 8: 8, 16: 4, 24: 3}
CHAIN_SPLIT = {24}
# The N = 4 and N = 8 calls take ~30 and ~80 ms against ~4 s for the rest of a
# pass, so each runs several times in a pass: with one run per pass their
# fastest repetition, and so point_ms_p50, spread 20% over ten runs.
CHAIN_REPEAT = {4: 10, 8: 4, 16: 1, 24: 1}
PHYSICAL_DOCS = 128  # documents per run, half n_type and half network4
# The document set is one fixed Latin-hypercube draw, so that every run solves
# the same mix of converging and non-converging points: with a fresh draw per
# seed the number of non-converging points alone moved wall_s by ~15%.
PHYSICAL_DESIGN_SEED = 0
# Single-photon coupling: G = g0 |alpha| spans ~0.003 to ~0.3 over the drive
# range, the paper's weak- to strong-coupling span.
PHYSICAL_G0 = 2.5e-4


@dataclass
class Call:
    """One ``omcool`` invocation and the rows it must write to ``out``."""

    argv: list[str]
    out: Path
    points: int
    point: Callable[[int], tuple[dict, dict | None]]  # row -> (document, amplitudes)
    columns: tuple[str, ...]  # output columns checked against the reference
    tag: str = ""
    expected: list[dict | None] | None = None  # None entry: no first answer
    axes: dict = field(default_factory=dict)  # axis column -> values per row
    # row -> reference rows of every correct answer, where more than one can be
    # right; asked only for rows that differ from ``expected``
    answers: Callable[[int], list[dict]] | None = None


def _mech(n: int) -> list[dict]:
    return [{"frequency": 1.0, "damping": 1e-5, "thermal_occupation": 1000.0} for _ in range(n)]


def _om(cav: int, mech: int, g) -> dict:
    return {"kind": "optomechanical", "endpoints": [f"c{cav}", f"m{mech}"], "strength": g}


def n_type_doc() -> dict:
    """The n_type operating point of the paper (preset defaults)."""
    return {"parameter_mode": "effective", "topology": "n_type",
            "cavities": [{"detuning": 1.0, "decay": 0.1}, {"detuning": 1.0, "decay": 0.1}],
            "mechanicals": _mech(2),
            "edges": [_om(0, 0, 0.05), _om(0, 1, 0.05), _om(1, 0, 0.08)]}


def network4_doc() -> dict:
    """The fully network-coupled four-mode system (preset defaults)."""
    doc = n_type_doc()
    doc["topology"] = "network4"
    doc["edges"] += [_om(1, 1, 0.08),
                     {"kind": "photon_hop", "endpoints": ["c0", "c1"], "strength": 0.03},
                     {"kind": "phonon_hop", "endpoints": ["m0", "m1"], "strength": 0.03}]
    return doc


def chain_doc(N: int) -> dict:
    """Uniform N-resonator chain, as written by ``omcool`` for ``chain_config(N)``."""
    edges = [_om(0, l, 0.05) for l in range(N)] + [_om(1, 0, 0.1)]
    edges += [{"kind": "phonon_hop", "endpoints": [f"m{l}", f"m{l + 1}"], "strength": 0.06}
              for l in range(N - 1)]
    return {"parameter_mode": "effective", "topology": "chain",
            "cavities": [{"detuning": 1.0, "decay": 0.1}, {"detuning": 1.0, "decay": 0.1}],
            "mechanicals": _mech(N), "edges": edges}


def _with(doc: dict, **changes) -> dict:
    """Copy of a document with 'section.index.field' entries replaced."""
    out = copy.deepcopy(doc)
    for path, value in changes.items():
        section, idx, name = path.split(".")
        out[section][int(idx)][name] = value
    return out


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.rng = np.random.default_rng(seed)
        self._expected: dict[str, list[dict]] = {}  # call tag -> reference rows

    def make_pass(self, k: int, serial: bool = False) -> list[Call]:
        raise NotImplementedError

    def expect(self, calls: list[Call]) -> None:
        """Fill in the reference rows of each call (outside the timed region).
        Calls with the same tag run the same inputs, so their rows are shared."""
        for call in calls:
            if call.tag not in self._expected:
                rows = []
                for i in range(call.points):
                    row = reference.expected_record(*call.point(i))
                    row.update({col: vals[i] for col, vals in call.axes.items()})
                    rows.append({col: row[col] for col in call.columns})
                self._expected[call.tag] = rows
            call.expected = self._expected[call.tag]


class Grid(Workload):
    name = "grid"

    def make_pass(self, k, serial=False):
        x = np.linspace(0.5, 1.5, GRID_POINTS)
        y = np.linspace(0.05, 1.0, GRID_POINTS)
        xs, ys = np.repeat(x, len(y)), np.tile(y, len(x))
        base = n_type_doc()

        def point(i):
            return _with(base, **{"cavities.0.detuning": float(xs[i]),
                                  "cavities.0.decay": float(ys[i])}), None

        out = self.work / f"grid{k}.csv"
        argv = ["preset", "fig2a", "--run", "--points", str(GRID_POINTS),
                "--jobs", "1" if serial else "2", "--out", str(out)]
        return [Call(argv, out, len(xs), point,
                     ("cavities.0.detuning", "cavities.0.decay", "n_f_1", "stable"), tag="fig2a",
                     axes={"cavities.0.detuning": xs, "cavities.0.decay": ys})]


class Taxonomy(Workload):
    name = "taxonomy"
    # closed channel of each kept configuration -> edge index it zeroes
    KEPT = (("J", 4), ("eta", 5), ("Gs1", 2), ("Gs2", 3))

    def make_pass(self, k, serial=False):
        kappas = np.linspace(0.05, 1.0, TAXONOMY_POINTS)
        labels = [label for label, _ in self.KEPT for _ in kappas]

        def point(i):
            _, edge = self.KEPT[i // len(kappas)]
            doc = _with(network4_doc(), **{"cavities.0.decay": float(kappas[i % len(kappas)])})
            doc["edges"][edge]["strength"] = 0.0
            return doc, None

        out = self.work / f"taxonomy{k}.csv"
        argv = ["preset", "fig7a", "--run", "--points", str(TAXONOMY_POINTS), "--out", str(out)]
        columns = ("closed_channels", "kappa", "dark", "stable", "n_f_1", "n_f_2")
        return [Call(argv, out, len(labels), point, columns, tag="fig7a",
                     axes={"closed_channels": labels, "kappa": np.tile(kappas, len(self.KEPT))})]


class Chain(Workload):
    name = "chain"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.window = {N: (float(0.5 + 0.2 * self.rng.random()), float(1.3 + 0.2 * self.rng.random()))
                       for N in CHAIN_SIZES}
        for N in CHAIN_SIZES:
            (work / f"chain{N}.json").write_text(json.dumps(chain_doc(N), indent=2))

    def make_pass(self, k, serial=False):
        calls = []
        for N in CHAIN_SIZES:
            lo, hi = self.window[N]
            xs = np.linspace(lo, hi, CHAIN_POINTS[N])
            windows = [xs[j:j + 1] for j in range(len(xs))] if N in CHAIN_SPLIT else [xs]
            base = chain_doc(N)
            columns = (("cavities.0.detuning", "stable", "max_real_part")
                       + tuple(f"n_f_{l + 1}" for l in range(N)) + ("n_c_1", "n_c_2"))
            for j, x in enumerate(windows):
                axis = f"cavities.0.detuning:{float(x[0])!r}:{float(x[-1])!r}:{len(x)}"
                for r in range(CHAIN_REPEAT[N]):
                    out = self.work / f"chain{N}_{j}_{k}_{r}.csv"
                    argv = ["sweep", "--config", str(self.work / f"chain{N}.json"),
                            "--axis", axis, "--out", str(out)]
                    calls.append(Call(argv, out, len(x),
                                      lambda i, base=base, x=x: (
                                          _with(base, **{"cavities.0.detuning": float(x[i])}), None),
                                      columns, tag=f"N{N}.{j}", axes={"cavities.0.detuning": x}))
        return calls


class Physical(Workload):
    name = "physical"
    COLUMNS = ("stable", "max_real_part", "n_f_1", "n_f_2", "n_c_1", "n_c_2", "dark")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        design = np.random.default_rng(PHYSICAL_DESIGN_SEED)
        half = PHYSICAL_DOCS // 2
        per_topology = []
        for topology in ("n_type", "network4"):
            # Latin hypercube over (log drive c0, log drive c1, detuning c0, detuning c1)
            u = (np.array([design.permutation(half) for _ in range(4)]).T
                 + design.random((half, 4))) / half
            # the run's seed moves every point by at most 1e-4 of its range
            u = np.clip(u + 1e-4 * (2.0 * self.rng.random(u.shape) - 1.0), 0.0, 1.0)
            per_topology.append([
                self._document(topology, tuple(float(10.0 ** (1.0 + 2.0 * v)) for v in row[:2]),
                               tuple(float(0.8 + 0.4 * v) for v in row[2:]))
                for row in u])
        self.docs = [d for pair in zip(*per_topology) for d in pair]
        for i, doc in enumerate(self.docs):
            (work / f"phys{i}.json").write_text(json.dumps(doc))
        self.amplitudes = None
        self._answers: dict[int, list[dict]] = {}

    @staticmethod
    def _document(topology: str, drive: tuple, detuning: tuple) -> dict:
        g = PHYSICAL_G0
        edges = [_om(0, 0, g), _om(0, 1, g), _om(1, 0, 1.6 * g)]
        if topology == "network4":
            # Gs2 != Gs1 breaks the dark mode through the auxiliary cavity
            edges += [_om(1, 1, 0.8 * g),
                      {"kind": "photon_hop", "endpoints": ["c0", "c1"], "strength": 0.03},
                      {"kind": "phonon_hop", "endpoints": ["m0", "m1"], "strength": 0.03}]
        return {"parameter_mode": "physical", "topology": topology,
                "cavities": [{"detuning": detuning[c], "decay": 0.1, "drive_amplitude": drive[c]}
                             for c in range(2)],
                "mechanicals": _mech(2), "edges": edges}

    def make_pass(self, k, serial=False):
        calls = []
        for i in range(len(self.docs)):
            out = self.work / f"phys{i}_{k}.csv"
            argv = ["solve", "--config", str(self.work / f"phys{i}.json"), "--out", str(out)]
            calls.append(Call(argv, out, 1, lambda _, i=i: (self.docs[i], self.amplitudes[i]),
                              self.COLUMNS, tag=str(i), answers=lambda _, i=i: self.answers(i)))
        return calls

    def answers(self, i: int) -> list[dict]:
        """Reference rows of every steady state of document i."""
        if i not in self._answers:
            rows = [reference.expected_record(self.docs[i], amps)
                    for amps in reference.steady_states(self.docs[i])]
            self._answers[i] = [{col: row[col] for col in self.COLUMNS} for row in rows]
        return self._answers[i]

    def expect(self, calls):
        if self.amplitudes is None:
            self.amplitudes = reference.physical_amplitudes(self.docs)
        for call in calls:
            if call.tag not in self._expected:
                doc, amps = call.point(0)
                row = None if amps is None else reference.expected_record(doc, amps)
                self._expected[call.tag] = [None if row is None else
                                            {col: row[col] for col in call.columns}]
            call.expected = self._expected[call.tag]


WORKLOADS = {w.name: w for w in (Grid, Taxonomy, Chain, Physical)}


# ---------------------------------------------------------------------------
# Output checks


def _value(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def read_rows(path: Path) -> list[dict]:
    """Rows of an omcool CSV (metadata comments skipped) as column -> value."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("# ")]
    reader = csv.reader(lines)
    header = next(reader)
    return [dict(zip(header, map(_value, record))) for record in reader]


def _scale(doc: dict) -> float:
    return 1.0 + max(m["thermal_occupation"] for m in doc["mechanicals"])


def _close(got, want, rtol: float, atol: float) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return abs(got - want) <= rtol * abs(want) + atol


def row_matches(got: dict, want: dict, scale: float) -> bool:
    for col, value in want.items():
        if col not in got:
            return False
        if col in EXACT_COLUMNS:
            if got[col] != value:
                return False
        elif col == "max_real_part":
            if not _close(got[col], value, GROWTH_RTOL, GROWTH_ATOL):
                return False
        elif not _close(got[col], value, RTOL, ATOL * scale):
            return False
    return True


@dataclass
class Verdict:
    verified: int = 0
    wrong: int = 0
    rows: list = field(default_factory=list)  # (call, row index, program row) kept for the oracle


def check_call(call: Call, rc: int, verdict: Verdict, keep_rows: bool) -> None:
    """Compare a call's output file with its reference rows.

    Every row counts as failed unless it is verified.  The call must exit
    with 0 or 4 (4: unstable system, reported with stable=false).  Exit 5, a
    solver giving up, is a failure but not a wrong answer only where the
    reference's damped Picard iteration gives up as well (no first answer);
    anywhere else it makes the rows wrong, as does any other exit
    (usage, parse or validation error on a valid input, or a crash).  A
    written row is verified when it matches the first answer or, failing
    that, any other correct answer; otherwise it is wrong."""
    if rc == 5 and any(want is None for want in call.expected):
        return
    if rc not in (0, 4):
        verdict.wrong += call.points
        return
    if not call.out.exists():
        verdict.wrong += call.points
        return
    got_rows = read_rows(call.out)
    call.out.unlink()
    if len(got_rows) != call.points:
        verdict.wrong += call.points
        return
    for i, (got, want) in enumerate(zip(got_rows, call.expected)):
        scale = _scale(call.point(i)[0])
        if want is not None and row_matches(got, want, scale):
            verdict.verified += 1
            if keep_rows:
                verdict.rows.append((call, i, got))
        elif call.answers and any(row_matches(got, row, scale) for row in call.answers(i)):
            verdict.verified += 1
        else:
            verdict.wrong += 1


def oracle_check(verdict: Verdict, rng: np.random.Generator, integrate_covariance) -> int:
    """Re-check a few verified stable rows against the time-domain propagation
    oracle; returns the number of rows that disagree."""
    stable = [r for r in verdict.rows if r[2].get("stable")]
    wrong = 0
    if not stable:
        return 0
    for pick in rng.choice(len(stable), size=min(ORACLE_ROWS, len(stable)), replace=False):
        call, i, got = stable[pick]
        doc, amps = call.point(i)
        A, Q = reference.drift_noise(doc, amps)
        t_end = 25.0 / -reference.max_real_part(A)
        V = integrate_covariance(A, Q, t_end=t_end).entries
        want = reference.occupations(V, doc)
        if not all(_close(got[col], value, ORACLE_RTOL, ORACLE_ATOL * _scale(doc))
                   for col, value in want.items() if col in call.columns):
            wrong += 1
    return wrong
