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
import re
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


_MODE_ID = re.compile(r"[cm](0|[1-9][0-9]*)")


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
    value are."""
    parts = path.split(".")
    if len(parts) != 3:
        raise ConfigError(f"bad parameter path {path!r} (want section.index.field)")
    section, idx_s, name = parts
    if section not in _SLOTS:
        raise ConfigError(f"bad parameter path {path!r}: unknown section {section!r}")
    try:
        index = range(len(getattr(config, section)))[int(idx_s)]
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad parameter path {path!r}: no element {idx_s}") from exc
    if name not in _SLOTS[section]:
        raise ConfigError(f"bad parameter path {path!r}: {name!r} is not a numeric field")
    owner = _owner(config, section, index)
    for value in values:
        _check_field(owner, name, value)
    return _SLOTS[section][name], index


def solve_steady_amplitudes(model: Model) -> SteadyAmplitudes:
    """Damped Picard iteration for the coupled steady-state amplitude equations.

    Physical mode only.  The cavity amplitudes alpha, displacements beta, and
    effective detunings satisfy

        alpha_c = -i (Omega_c + sum_hops J alpha_c') / (kappa_c + i Delta'_c)
        beta_m  = -i (sum_c g_cm |alpha_c|^2 + sum_hops eta beta_m')
                  / (gamma_m + i omega_m)
        Delta'_c = Delta_c + 2 sum_m Re(conj(g_cm) beta_m)

    Each step keeps AMPLITUDE_DAMPING of the old iterate; the iteration stops
    once the largest update is below AMPLITUDE_TOL (absolute).  Raises
    ConvergenceError after AMPLITUDE_MAX_ITER steps (bistable or unstable
    drive regime).
    """
    if model.parameter_mode != "physical":
        raise ConfigError("solve_steady_amplitudes requires parameter_mode='physical'")

    nc, nm = model.n_cavities, model.n_mechanicals
    alpha = np.zeros(nc, dtype=complex)
    beta = np.zeros(nm, dtype=complex)

    om_edges = []  # (cav index, mech index, g)
    photon_hops = []  # (i, j, J)
    phonon_hops = []  # (i, j, eta)
    for i, j, s, om in zip(model.edge_i.tolist(), model.edge_j.tolist(),
                           model.strength.tolist(), model.optomechanical.tolist()):
        if om:
            om_edges.append((i, j - nc, s))
        elif i < nc:
            photon_hops.append((i, j, s))
        else:
            phonon_hops.append((i - nc, j - nc, s))
    cavities = list(zip(model.drive.tolist(), model.decay.tolist()))
    mechanicals = list(zip(model.damping.tolist(), model.frequency.tolist()))

    def detunings(beta_now: np.ndarray) -> np.ndarray:
        delta = model.detuning.copy()
        for c, m, g in om_edges:
            delta[c] += 2.0 * (np.conj(g) * beta_now[m]).real
        return delta

    for iterations in range(1, AMPLITUDE_MAX_ITER + 1):
        delta_eff = detunings(beta)
        alpha_new = np.zeros_like(alpha)
        for c, (drive, decay) in enumerate(cavities):
            for i, j, J in photon_hops:
                if i == c:
                    drive += J * alpha[j]
                elif j == c:
                    drive += np.conj(J) * alpha[i]
            alpha_new[c] = -1j * drive / (decay + 1j * delta_eff[c])
        beta_new = np.zeros_like(beta)
        force = np.zeros(nm, dtype=complex)
        for c, m, g in om_edges:
            force[m] += g * abs(alpha[c]) ** 2
        for i, j, eta in phonon_hops:
            force[i] += eta * beta[j]
            force[j] += np.conj(eta) * beta[i]
        for m, (damping, frequency) in enumerate(mechanicals):
            beta_new[m] = -1j * force[m] / (damping + 1j * frequency)

        residual = max(np.abs(alpha_new - alpha).max(initial=0.0),
                       np.abs(beta_new - beta).max(initial=0.0))
        alpha = AMPLITUDE_DAMPING * alpha + (1.0 - AMPLITUDE_DAMPING) * alpha_new
        beta = AMPLITUDE_DAMPING * beta + (1.0 - AMPLITUDE_DAMPING) * beta_new
        if residual < AMPLITUDE_TOL:
            alpha, beta = alpha_new, beta_new
            break
    else:
        raise ConvergenceError(
            f"steady-state amplitudes did not converge within {AMPLITUDE_MAX_ITER} iterations"
        )

    return SteadyAmplitudes(
        cavity_amplitudes=tuple(alpha),
        mechanical_displacements=tuple(beta),
        effective_detunings=tuple(detunings(beta)),
        linearized_couplings=tuple(g * alpha[c] for c, m, g in om_edges),
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

    In the ladder basis (da, da^+) the drift matrix is [[E, F], [F*, E*]]:
    E carries the diagonal decay+detuning terms -(kappa + i Delta') and
    -(gamma + i omega) plus the beam-splitter parts -iG, -iJ, -i eta; F
    carries only the counter-rotating optomechanical -iG entries.  In the
    quadrature basis the same dynamics read

        A = [[Re(E + F), Im(F - E)], [Im(E + F), Re(E - F)]].

    Edge strengths are used as-is, so a physical-mode model must first be
    translated by linearized with its SteadyAmplitudes.  The edge terms are
    added into zeros: validation leaves at most one edge per mode pair.
    """
    if model.parameter_mode == "physical":
        raise ConfigError("physical mode requires steady-state amplitudes")
    m = model.n_modes
    E = np.zeros((m, m), dtype=complex)
    F = np.zeros((m, m), dtype=complex)
    np.fill_diagonal(E, np.concatenate((-(model.decay + 1j * model.detuning),
                                        -(model.damping + 1j * model.frequency))))
    i, j, s, om = model.edge_i, model.edge_j, model.strength, model.optomechanical
    E[i, j] += -1j * s
    E[j, i] += -1j * np.conj(s)
    F[i[om], j[om]] += -1j * s[om]
    F[j[om], i[om]] += -1j * s[om]
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
