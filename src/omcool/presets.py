"""Figure and table presets.

Fixed parameters match the source captions value-for-value; axis grid
resolutions are presentation choices and default to 100 points per axis.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .config_io import config_from_dict, config_to_dict
from .errors import ConfigError
from .model import Model
from .results import ResultTable
from .sweep import SweepAxis, run_atomic, run_solve, run_sweep, run_taxonomy

DEFAULT_POINTS = 100


def _two_cavity_model(topology, frequencies, edges, kappa=0.1, gamma=1e-5,
                      nbar=1000.0) -> Model:
    """The Model of an effective-mode document with the intermediate cavity
    c0 (decay kappa) and the auxiliary cavity c1 (decay 0.1), both at
    detuning 1.0, and one mechanical mode per frequency.  Each edge is
    (kind, endpoint, endpoint, strength)."""
    return config_from_dict({
        "parameter_mode": "effective",
        "topology": topology,
        "cavities": [{"detuning": 1.0, "decay": kappa}, {"detuning": 1.0, "decay": 0.1}],
        "mechanicals": [{"frequency": w, "damping": gamma, "thermal_occupation": nbar}
                        for w in frequencies],
        "edges": [{"kind": kind, "endpoints": [a, b], "strength": s}
                  for kind, a, b, s in edges],
    })


def n_type_config(
    kappa: float = 0.1,
    omega2: float = 1.0,
    gamma: float = 1e-5,
    nbar: float = 1000.0,
    G1: float = 0.05,
    G2: float = 0.05,
    Gs1: float = 0.08,
) -> Model:
    """Two cavities, two mechanical modes, auxiliary cavity coupled to m0
    only.  Edge order: G1, G2, Gs1."""
    edges = (("optomechanical", "c0", "m0", G1), ("optomechanical", "c0", "m1", G2),
             ("optomechanical", "c1", "m0", Gs1))
    return _two_cavity_model("n_type", (1.0, omega2), edges, kappa, gamma, nbar)


def network4_config(
    omega2: float = 1.0,
    G1: float = 0.05,
    G2: float = 0.05,
    Gs1: float = 0.08,
    Gs2: float = 0.08,
    J: float = 0.03,
    eta: float = 0.03,
) -> Model:
    """Fully network-coupled four-mode system.
    Edge order: G1, G2, Gs1, Gs2, J, eta."""
    edges = (("optomechanical", "c0", "m0", G1), ("optomechanical", "c0", "m1", G2),
             ("optomechanical", "c1", "m0", Gs1), ("optomechanical", "c1", "m1", Gs2),
             ("photon_hop", "c0", "c1", J), ("phonon_hop", "m0", "m1", eta))
    return _two_cavity_model("network4", (1.0, omega2), edges)


def chain_config(N: int, Gs: float = 0.1, eta: float = 0.06) -> Model:
    """Uniform N-resonator chain with intermediate cavity coupled to every
    mechanical mode (G = 0.05) and auxiliary cavity coupled to m0."""
    if N < 2:
        raise ConfigError("chain_config requires N >= 2")
    edges = [("optomechanical", "c0", f"m{l}", 0.05) for l in range(N)]
    edges.append(("optomechanical", "c1", "m0", Gs))
    edges += [("phonon_hop", f"m{l}", f"m{l + 1}", eta) for l in range(N - 1)]
    return _two_cavity_model("chain", [1.0] * N, edges)


@dataclass(frozen=True)
class Preset:
    """A figure or table of the paper, named only by its ``_BUILDERS`` key.
    ``document`` is the JSON object ``preset --dump`` writes: the config, or
    the atomic grid of fig13a/b.  ``run(jobs)`` computes the table ``preset
    --run`` writes, over the ranges and grid sizes its figure fixes; only the
    sweeps use ``jobs``."""

    document: dict
    run: Callable[[int], ResultTable]


def _preset(config: Model, run: Callable[[int], ResultTable]) -> Preset:
    return Preset(config_to_dict(config), run)


def _sweep_preset(base, axes, outputs) -> Preset:
    return _preset(base, lambda jobs: run_sweep(base, axes, outputs, jobs))


def get_preset(name: str, points: int | None = None) -> Preset:
    """Resolve a preset by name; ``points`` (at least 1) overrides the grid
    resolution."""
    pts = points if points is not None else DEFAULT_POINTS
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ConfigError(f"unknown preset {name!r} (choose from {', '.join(preset_names())})")
    if pts < 1:
        raise ConfigError(f"preset {name}: points must be >= 1, got {pts}")
    return builder(pts)


def preset_names() -> list[str]:
    return sorted(_BUILDERS)


def _fig2(panel: str, pts: int) -> Preset:
    """n_f_1 (a, c) or n_f_2 (b, d) over the driving-detuning x decay plane
    of the intermediate (a, b) or auxiliary (c, d) cavity, degenerate
    resonators."""
    base = n_type_config()
    if panel in "ab":
        axes = (SweepAxis("cavities.0.detuning", 0.5, 1.5, pts),
                SweepAxis("cavities.0.decay", 0.05, 1.0, pts))
    else:
        axes = (SweepAxis("cavities.1.detuning", 0.5, 1.5, pts),
                SweepAxis("cavities.1.decay", 0.05, 1.0, pts))
    out = "n_f_1" if panel in "ac" else "n_f_2"
    return _sweep_preset(base, axes, (out, "stable"))


def _fig3(panel: str, pts: int) -> Preset:
    """n_f_1 (a, c) or n_f_2 (b, d) over the frequency-ratio x decay plane,
    auxiliary coupling off (a, b) or on (c, d)."""
    base = n_type_config(Gs1=0.0 if panel in "ab" else 0.08)
    axes = (SweepAxis("mechanicals.1.frequency", 0.5, 1.5, pts),
            SweepAxis("cavities.0.decay", 0.05, 1.0, pts))
    out = "n_f_1" if panel in "ac" else "n_f_2"
    return _sweep_preset(base, axes, (out, "stable"))


def _fig4(panel: str, pts: int) -> Preset:
    """n_f_1 (a) or n_f_2 (b) vs auxiliary coupling strength at three decay
    rates."""
    base = n_type_config()
    axes = (SweepAxis("edges.2.strength", 0.0, 0.3, pts),
            SweepAxis("cavities.1.decay", 0.4, 1.2, 3))
    out = "n_f_1" if panel == "a" else "n_f_2"
    return _sweep_preset(base, axes, (out, "stable"))


def _fig7(panel: str, pts: int) -> Preset:
    """Taxonomy rows with one (a, b), two (c, d) or three (e, f) closed
    channels, swept over the intermediate-cavity decay in [0.05, 1]."""
    sizes = {"a": (1,), "b": (1,), "c": (2,), "d": (2,), "e": (3,), "f": (3,)}[panel]
    base = network4_config()
    kappa = SweepAxis("cavities.0.decay", 0.05, 1.0, pts)
    return _preset(base, lambda jobs: run_taxonomy(base, kappa, sizes))


def _fig8(panel: str, pts: int) -> Preset:
    """Phonon numbers (a) vs decay for Gs2 = 4 Gs1 = 0.08, the swapped case
    following by the exchange symmetry, or (b) vs Gs2 (ratio Gs2/Gs1 in
    [0, 3]) at Gs1 = 0.08."""
    if panel == "a":
        base = network4_config(Gs1=0.02, Gs2=0.08)
        axes = (SweepAxis("cavities.0.decay", 0.05, 1.0, pts),)
    else:
        base = network4_config(Gs1=0.08, Gs2=0.08)
        axes = (SweepAxis("edges.3.strength", 0.0, 0.24, pts),)
    return _sweep_preset(base, axes, ("n_f_1", "n_f_2", "stable", "dark"))


def _fig11(panel: str, pts: int) -> Preset:
    """Chain cooling with the dark modes broken, N = 3 (a, c) or 4 (b, d),
    over the intermediate cavity's detuning (a, b) or decay (c, d)."""
    N = {"a": 3, "b": 4, "c": 3, "d": 4}[panel]
    base = chain_config(N)
    if panel in "ab":
        axes = (SweepAxis("cavities.0.detuning", 0.5, 1.5, pts),)
    else:
        axes = (SweepAxis("cavities.0.decay", 0.05, 1.0, pts),)
    outputs = tuple(f"n_f_{l + 1}" for l in range(N)) + ("stable",)
    return _sweep_preset(base, axes, outputs)


def _fig13(panel: str, pts: int) -> Preset:
    """Excited-state probabilities of the three- (a) or four-level (b)
    system vs amplitude ratio in [0, 3]."""
    levels = 3 if panel == "a" else 4
    grid = {"atomic": {"levels": levels, "ratio": [0.0, 3.0], "points": pts}}
    return Preset(grid, lambda jobs: run_atomic(levels, SweepAxis("ratio", 0.0, 3.0, pts)))


def _table1(pts: int) -> Preset:
    """Scaled electromechanical parameter set, single solve."""
    config = network4_config(J=0.03, eta=0.03)
    return _preset(config, lambda jobs: run_solve(config))


_BUILDERS = {}
for _p in "abcd":
    _BUILDERS[f"fig2{_p}"] = (lambda pts, p=_p: _fig2(p, pts))
    _BUILDERS[f"fig3{_p}"] = (lambda pts, p=_p: _fig3(p, pts))
    _BUILDERS[f"fig11{_p}"] = (lambda pts, p=_p: _fig11(p, pts))
for _p in "ab":
    _BUILDERS[f"fig4{_p}"] = (lambda pts, p=_p: _fig4(p, pts))
    _BUILDERS[f"fig8{_p}"] = (lambda pts, p=_p: _fig8(p, pts))
    _BUILDERS[f"fig13{_p}"] = (lambda pts, p=_p: _fig13(p, pts))
for _p in "abcdef":
    _BUILDERS[f"fig7{_p}"] = (lambda pts, p=_p: _fig7(p, pts))
_BUILDERS["table1"] = _table1
