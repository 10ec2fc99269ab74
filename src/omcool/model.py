"""Mode-graph configuration, its compiled array model, steady-state
amplitudes, and matrix assembly.

All rates are dimensionless multiples of the first mechanical frequency
(omega_1 = 1 internally).  The canonical mode order is cavities first, then
mechanical modes.  The fluctuations are taken in the real quadrature basis:
first every x quadrature in that order, then every p quadrature, so the
vector is [dx_a0, ..., dx_b0, ..., dp_a0, ..., dp_b0, ...] with
x = (a + a^+)/sqrt2 and p = -i (a - a^+)/sqrt2.  The drift, noise and
covariance matrices are real.

A SystemConfig is validated and compiled once, where it enters, into a
Model of plain arrays.  Every later stage reads the Model, and every
variant of it (a sweep point, a closed taxonomy channel, the linearised
couplings of a physical-mode point) is a copy with slots written.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import re
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError

# edge kind -> the mode kinds its two endpoints must have
EDGE_KINDS = {"optomechanical": ("c", "m"), "photon_hop": ("c", "c"), "phonon_hop": ("m", "m")}
PARAMETER_MODES = ("effective", "physical")
TOPOLOGY_TAGS = ("n_type", "network4", "chain", "generic")

AMPLITUDE_TOL = 1e-12
AMPLITUDE_MAX_ITER = 10_000
AMPLITUDE_DAMPING = 0.5


@dataclass(frozen=True)
class CavityMode:
    """A cavity mode: effective detuning (or bare detuning in physical mode),
    decay rate, and drive amplitude (physical mode only)."""

    detuning: float
    decay: float
    drive_amplitude: complex = 0.0


@dataclass(frozen=True)
class MechanicalMode:
    frequency: float
    damping: float
    thermal_occupation: float = 0.0


@dataclass(frozen=True)
class CouplingEdge:
    """One coupling channel between two modes.

    Endpoints are mode ids "c<i>" (cavity) or "m<j>" (mechanical);
    optomechanical edges are ordered cavity -> mechanical.
    """

    kind: str
    endpoints: tuple[str, str]
    strength: complex


@dataclass(frozen=True)
class SystemConfig:
    cavities: tuple[CavityMode, ...]
    mechanicals: tuple[MechanicalMode, ...]
    edges: tuple[CouplingEdge, ...]
    parameter_mode: str = "effective"
    topology: str = "generic"

    @property
    def n_cavities(self) -> int:
        return len(self.cavities)

    @property
    def n_mechanicals(self) -> int:
        return len(self.mechanicals)


@dataclass(frozen=True, eq=False)
class Model:
    """A validated SystemConfig compiled into arrays, by compile_config.

    Slot layout, each array in config order: per cavity c ``detuning[c]``,
    ``decay[c]`` and ``drive[c]`` (complex); per mechanical mode l
    ``frequency[l]``, ``damping[l]`` and ``nbar[l]``; per edge e the
    canonical indices ``edge_i[e]``, ``edge_j[e]`` of its endpoints
    (cavities 0..C-1, then mechanical modes), ``strength[e]`` (complex) and
    ``optomechanical[e]`` (the other edges are hops).  ``write`` makes the
    variants; the index arrays are never written.
    """

    topology: str
    parameter_mode: str
    detuning: np.ndarray
    decay: np.ndarray
    drive: np.ndarray
    frequency: np.ndarray
    damping: np.ndarray
    nbar: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray
    strength: np.ndarray
    optomechanical: np.ndarray

    @property
    def n_cavities(self) -> int:
        return len(self.detuning)

    @property
    def n_mechanicals(self) -> int:
        return len(self.frequency)

    @property
    def n_modes(self) -> int:
        return len(self.detuning) + len(self.frequency)

    def write(self, slots, values) -> Model:
        """A copy with each value written into its (array name, index) slot;
        the arrays not written are shared with this model."""
        arrays: dict[str, np.ndarray] = {}
        for (name, index), value in zip(slots, values):
            if name not in arrays:
                arrays[name] = getattr(self, name).copy()
            arrays[name][index] = value
        return dataclasses.replace(self, **arrays)


@dataclass(frozen=True)
class SteadyAmplitudes:
    """Fixed point of the steady-state amplitude equations (physical mode).

    ``linearized_couplings`` follows the optomechanical edges of the config in
    edge order.
    """

    cavity_amplitudes: tuple[complex, ...]
    mechanical_displacements: tuple[complex, ...]
    effective_detunings: tuple[float, ...]
    linearized_couplings: tuple[complex, ...]
    iterations: int


# The one spelling of an index: no sign, no leading zero.
_INDEX = "0|[1-9][0-9]*"
_MODE_ID = re.compile(f"[cm]({_INDEX})")


def _split_mode_id(mode_id: str) -> tuple[str, int]:
    """Split "c<i>" / "m<j>" into kind and index.  Only the canonical
    spelling is accepted, so "m00" or "m+0" cannot alias "m0"."""
    if not isinstance(mode_id, str) or not _MODE_ID.fullmatch(mode_id):
        raise ConfigError(f"malformed mode id {mode_id!r}")
    return mode_id[0], int(mode_id[1:])


def _mode_index(config: SystemConfig, mode_id: str) -> int:
    """Canonical index of a mode id within the first (undaggered) block."""
    kind, idx = _split_mode_id(mode_id)
    if idx >= (config.n_cavities if kind == "c" else config.n_mechanicals):
        raise ConfigError(f"dangling edge endpoint {mode_id!r}")
    return idx if kind == "c" else config.n_cavities + idx


# The numeric fields of each config section and the Model array each one is
# compiled into; a sweep axis path names one of them.
_SLOTS = {
    "cavities": {"detuning": "detuning", "decay": "decay", "drive_amplitude": "drive"},
    "mechanicals": {"frequency": "frequency", "damping": "damping",
                    "thermal_occupation": "nbar"},
    "edges": {"strength": "strength"},
}
_COMPLEX_SLOTS = ("drive", "strength")
_BOUNDS = {"decay": ">= 0", "frequency": "> 0", "damping": ">= 0", "thermal_occupation": ">= 0"}


def _check_field(owner: str, name: str, value) -> None:
    """The rule of one numeric field, for validate_config and axis_slot:
    finite, and within its sign bound."""
    if not cmath.isfinite(value):
        raise ConfigError(f"{owner}: {name} must be finite")
    bound = _BOUNDS.get(name)
    if bound == "> 0" and value <= 0 or bound == ">= 0" and value < 0:
        raise ConfigError(f"{owner}: {name} must be {bound}")


def _owner(config: SystemConfig, section: str, index: int) -> str:
    if section == "cavities":
        return f"cavity c{index}"
    if section == "mechanicals":
        return f"mechanical m{index}"
    edge = config.edges[index]
    return f"{edge.kind} edge {edge.endpoints}"


def validate_config(config: SystemConfig) -> SystemConfig:
    """Check every structural invariant and return the config unchanged.

    Raises ConfigError on: empty mode lists, non-finite (NaN or infinite)
    numbers, negative rates, malformed or dangling endpoints, edge-kind
    mismatch, self-loops, and duplicate edges.  Called where a config
    enters: compile_config, which every run (solve, sweep, taxonomy,
    presets, scripts) calls once; nothing downstream re-checks.
    """
    if not config.cavities or not config.mechanicals:
        raise ConfigError("empty mode list: need at least one cavity and one mechanical mode")
    if config.parameter_mode not in PARAMETER_MODES:
        raise ConfigError(f"unknown parameter_mode {config.parameter_mode!r}")
    if config.topology not in TOPOLOGY_TAGS:
        raise ConfigError(f"unknown topology {config.topology!r}")
    for section, fields in _SLOTS.items():
        for index, item in enumerate(getattr(config, section)):
            for name in fields:
                _check_field(_owner(config, section, index), name, getattr(item, name))

    seen: set[tuple[str, frozenset[str]]] = set()
    for edge in config.edges:
        if edge.kind not in EDGE_KINDS:
            raise ConfigError(f"unknown edge kind {edge.kind!r}")
        kinds = (_split_mode_id(edge.endpoints[0])[0], _split_mode_id(edge.endpoints[1])[0])
        if kinds != EDGE_KINDS[edge.kind]:
            raise ConfigError(
                f"kind mismatch: {edge.kind} edge cannot join {edge.endpoints[0]!r}"
                f" and {edge.endpoints[1]!r}"
            )
        if edge.endpoints[0] == edge.endpoints[1]:
            raise ConfigError(f"self-loop on {edge.endpoints[0]!r}")
        for mode_id in edge.endpoints:
            _mode_index(config, mode_id)  # raises on a dangling endpoint
        key = (edge.kind, frozenset(edge.endpoints))
        if key in seen:
            raise ConfigError(f"duplicate {edge.kind} edge between {edge.endpoints}")
        seen.add(key)
    return config


def compile_config(config: SystemConfig) -> Model:
    """Validate a config and compile it into its Model (see Model for the
    slot layout); each mode id is resolved to its canonical index here."""
    validate_config(config)
    arrays = {slot: np.array([getattr(item, name) for item in getattr(config, section)],
                             dtype=complex if slot in _COMPLEX_SLOTS else float)
              for section, fields in _SLOTS.items() for name, slot in fields.items()}
    ends = np.array([[_mode_index(config, mode_id) for mode_id in edge.endpoints]
                     for edge in config.edges], dtype=np.intp).reshape(-1, 2)
    return Model(
        topology=config.topology, parameter_mode=config.parameter_mode,
        edge_i=ends[:, 0], edge_j=ends[:, 1],
        optomechanical=np.array([edge.kind == "optomechanical" for edge in config.edges],
                                dtype=bool),
        **arrays,
    )


def axis_slot(config: SystemConfig, path: str, values) -> tuple[str, int]:
    """Resolve a path such as 'cavities.0.detuning' or 'edges.3.strength'
    to its (array name, index) slot in the config's Model, and check each
    value against that field's rule.  Every rule concerns one field, so a
    point with these values written in is valid when the config and each
    value are.  The index must be spelled canonically, so that no two paths
    name one slot."""
    parts = path.split(".")
    if len(parts) != 3:
        raise ConfigError(f"bad parameter path {path!r} (want section.index.field)")
    section, idx_s, name = parts
    if section not in _SLOTS:
        raise ConfigError(f"bad parameter path {path!r}: unknown section {section!r}")
    if not re.fullmatch(_INDEX, idx_s) or int(idx_s) >= len(getattr(config, section)):
        raise ConfigError(f"bad parameter path {path!r}: no element {idx_s}")
    index = int(idx_s)
    if name not in _SLOTS[section]:
        raise ConfigError(f"bad parameter path {path!r}: {name!r} is not a numeric field")
    owner = _owner(config, section, index)
    for value in values:
        _check_field(owner, name, value)
    return _SLOTS[section][name], index


def coupling_matrix(model: Model) -> np.ndarray:
    """The Hermitian M x M coupling matrix K of the model's edges, in
    canonical mode order: K[i, j] = s and K[j, i] = conj(s) for an edge of
    strength s from mode i to mode j, zero elsewhere.  Its cavity block holds
    the photon hops J, its mechanical block the phonon hops eta, and the
    cavity x mechanical block K[:C, C:] the optomechanical g (physical mode)
    or G (effective mode).  The only reader of the edge arrays on the solve
    path."""
    K = np.zeros((model.n_modes, model.n_modes), dtype=complex)
    K[model.edge_i, model.edge_j] = model.strength
    K[model.edge_j, model.edge_i] = np.conj(model.strength)
    return K


def solve_steady_amplitudes(model: Model) -> SteadyAmplitudes:
    """Damped Picard iteration for the coupled steady-state amplitude equations.

    Physical mode only.  With K = coupling_matrix(model), g = K[:C, C:] and
    z = (alpha, beta), the cavity amplitudes alpha, displacements beta, and
    effective detunings satisfy

        alpha   = -i (Omega + K_cc alpha) / (kappa + i Delta')
        beta    = -i (g^T |alpha|^2 + K_mm beta) / (gamma + i omega)
        Delta'  = Delta + 2 Re(conj(g) beta)

    Each step updates all of z from the old iterate with one matrix product
    on w = (alpha, beta, |alpha|^2), keeping AMPLITUDE_DAMPING of the old
    iterate; the iteration stops once the largest update is below
    AMPLITUDE_TOL (absolute).  Raises ConvergenceError after
    AMPLITUDE_MAX_ITER steps (bistable or unstable drive regime).
    """
    if model.parameter_mode != "physical":
        raise ConfigError("solve_steady_amplitudes requires parameter_mode='physical'")

    nc, m = model.n_cavities, model.n_modes
    K = coupling_matrix(model)
    g = K[:nc, nc:]
    # rows :m give the force on z (hops, then g^T |alpha|^2), rows m: the
    # detuning shift of each cavity (zero for the mechanical modes)
    step = np.zeros((2 * m, m + nc), dtype=complex)
    step[:nc, :nc] = K[:nc, :nc]
    step[nc:m, nc:m] = K[nc:, nc:]
    step[nc:m, m:] = g.T
    step[m:m + nc, nc:m] = 2.0 * np.conj(g)
    drive = np.concatenate((model.drive, np.zeros(m - nc)))
    rates = (np.concatenate((model.decay, model.damping))
             + 1j * np.concatenate((model.detuning, model.frequency)))
    z = np.zeros(m, dtype=complex)

    for iterations in range(1, AMPLITUDE_MAX_ITER + 1):
        out = step @ np.concatenate((z, np.abs(z[:nc]) ** 2))
        z_new = -1j * (drive + out[:m]) / (rates + 1j * out[m:].real)
        residual = np.abs(z_new - z).max()
        z = AMPLITUDE_DAMPING * z + (1.0 - AMPLITUDE_DAMPING) * z_new
        if residual < AMPLITUDE_TOL:
            z = z_new
            break
    else:
        raise ConvergenceError(
            f"steady-state amplitudes did not converge within {AMPLITUDE_MAX_ITER} iterations"
        )

    alpha, beta = z[:nc], z[nc:]
    om = model.optomechanical
    return SteadyAmplitudes(
        cavity_amplitudes=tuple(alpha),
        mechanical_displacements=tuple(beta),
        effective_detunings=tuple(model.detuning + 2.0 * (np.conj(g) @ beta).real),
        linearized_couplings=tuple(model.strength[om] * alpha[model.edge_i[om]]),
        iterations=iterations,
    )


def linearized(model: Model, amplitudes: SteadyAmplitudes) -> Model:
    """The effective-mode model of a physical-mode point: Delta' written into
    the detuning slots and G = g * alpha into the optomechanical strength
    slots."""
    if model.parameter_mode != "physical":
        raise ConfigError("linearized expects a physical-mode model")
    written = model.write((("detuning", slice(None)), ("strength", model.optomechanical)),
                          (amplitudes.effective_detunings, amplitudes.linearized_couplings))
    return dataclasses.replace(written, parameter_mode="effective")


def build_drift_matrix(model: Model) -> np.ndarray:
    """Assemble the real 2M x 2M drift matrix of the (x, p) quadratures.

    In the ladder basis (da, da^+) the drift matrix is [[E, F], [F*, E*]]
    with K = coupling_matrix(model):

        E = -diag(kappa + i Delta', gamma + i omega) - i K
        F = -i G on the cavity x mechanical block K[:C, C:] = G and its
            transpose, zero elsewhere (the counter-rotating terms).

    In the quadrature basis the same dynamics read

        A = [[Re(E + F), Im(F - E)], [Im(E + F), Re(E - F)]].

    Edge strengths are used as-is, so a physical-mode model must first be
    translated by linearized with its SteadyAmplitudes.
    """
    if model.parameter_mode == "physical":
        raise ConfigError("physical mode requires steady-state amplitudes")
    m, nc = model.n_modes, model.n_cavities
    # -1j * K leaves -0.0 where a part of K is zero; + 0.0 makes it +0.0, so
    # A is bit-identical to the sum of the edge terms into zeros
    E = -1j * coupling_matrix(model) + 0.0
    np.fill_diagonal(E, np.concatenate((-(model.decay + 1j * model.detuning),
                                        -(model.damping + 1j * model.frequency))))
    F = np.zeros((m, m), dtype=complex)
    F[:nc, nc:] = E[:nc, nc:]
    F[nc:, :nc] = E[:nc, nc:].T
    plus, minus = E + F, E - F
    A = np.empty((2 * m, 2 * m))
    A[:m, :m], A[:m, m:] = plus.real, -minus.imag
    A[m:, :m], A[m:, m:] = plus.imag, minus.real
    return A


def build_noise_matrix(model: Model) -> np.ndarray:
    """Noise matrix Q = diag(D, D) of the (x, p) quadratures for Markovian
    baths: both quadratures of cavity c receive D = kappa_c (vacuum bath)
    and both of mechanical mode l receive D = gamma_l (2 nbar_l + 1), with
    no cross-correlations."""
    diag = np.concatenate((model.decay, model.damping * (2.0 * model.nbar + 1.0)))
    return np.diag(np.concatenate((diag, diag)))


@dataclass(frozen=True, eq=False)
class Assembly:
    """The matrix ``build(model.write(slots, point))`` of every point of a
    run, made by ``assembly``: ``base`` is the matrix with every slot at
    zero, and ``steps[k]`` holds the flat indices and values of the
    difference that a unit step in slot k makes."""

    build: Callable[[Model], np.ndarray]
    model: Model
    slots: tuple[tuple[str, int], ...]
    base: np.ndarray
    steps: tuple[tuple[np.ndarray, np.ndarray], ...]

    def at(self, point) -> np.ndarray:
        """The matrix with ``point[k]`` written into slot k.  A -0.0 value
        leaves signed zeros of the builder's own that no step records, so
        that point is built."""
        if any(x == 0.0 and math.copysign(1.0, x) < 0 for x in point):
            return self.build(self.model.write(self.slots, point))
        out = self.base.copy()
        flat = out.reshape(-1)
        for (index, coef), x in zip(self.steps, point):
            if x:  # at +0.0 the base entries are the builder's, signed zeros included
                flat[index] += x * coef
        return out


def assembly(build: Callable[[Model], np.ndarray], model: Model, slots) -> Assembly:
    """The Assembly of ``build`` over the slots, from len(slots) + 1 builds.

    It is bit-identical to the builder when every entry of the matrix reads
    at most one slot, linearly and with no offset: the entry at a point is
    then the builder's own product x * coef, added to a zero base entry.
    That holds for build_drift_matrix of an effective-mode model (each
    entry is +-1 or +-2 times one slot) and for build_noise_matrix while no
    slot is a thermal occupation (gamma (2 nbar + 1) reads nbar with an
    offset, and reads gamma too).
    """
    slots = tuple(slots)
    zeros = [0.0] * len(slots)
    base = build(model.write(slots, zeros))
    steps = []
    for k in range(len(slots)):
        unit = zeros.copy()
        unit[k] = 1.0
        diff = (build(model.write(slots, unit)) - base).reshape(-1)
        index = np.flatnonzero(diff)
        steps.append((index, diff[index]))
    return Assembly(build, model, slots, base, tuple(steps))
