"""Mode-graph configuration, steady-state amplitudes, and matrix assembly.

All rates are dimensionless multiples of the first mechanical frequency
(omega_1 = 1 internally).  The canonical index order is cavities first,
then mechanical modes, then the same sequence daggered, so the fluctuation
vector is [da_0, ..., db_0, ..., da_0^+, ..., db_0^+, ...].
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError

EDGE_KINDS = ("optomechanical", "photon_hop", "phonon_hop")
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

    @property
    def n_modes(self) -> int:
        return len(self.cavities) + len(self.mechanicals)

    def mode_index(self, mode_id: str) -> int:
        """Canonical index of a mode id within the first (undaggered) block."""
        kind, idx = _split_mode_id(mode_id)
        if kind == "c":
            if idx >= self.n_cavities:
                raise ConfigError(f"dangling edge endpoint {mode_id!r}")
            return idx
        if idx >= self.n_mechanicals:
            raise ConfigError(f"dangling edge endpoint {mode_id!r}")
        return self.n_cavities + idx


@dataclass(frozen=True)
class SteadyAmplitudes:
    """Fixed point of the steady-state amplitude equations (physical mode).

    ``linearized_couplings`` follows the optomechanical edges of the config in
    edge order;
    ``coupling_phases`` holds, per coupling, the phase phi such that
    G * exp(-i phi) is real and non-negative.
    """

    cavity_amplitudes: tuple[complex, ...]
    mechanical_displacements: tuple[complex, ...]
    effective_detunings: tuple[float, ...]
    linearized_couplings: tuple[complex, ...]
    coupling_phases: tuple[float, ...]
    iterations: int


@dataclass(frozen=True)
class DriftMatrix:
    """Complex 2M x 2M coefficient matrix with block structure
    [[E, F], [conj(F), conj(E)]]."""

    entries: np.ndarray

    @property
    def half(self) -> int:
        return self.entries.shape[0] // 2

    @property
    def E(self) -> np.ndarray:
        m = self.half
        return self.entries[:m, :m]

    @property
    def F(self) -> np.ndarray:
        m = self.half
        return self.entries[:m, m:]


@dataclass(frozen=True)
class NoiseMatrix:
    """Real symmetric 2M x 2M diffusion matrix Q = (C + C^T) / 2."""

    entries: np.ndarray


_MODE_ID = re.compile(r"[cm](0|[1-9][0-9]*)")


def _split_mode_id(mode_id: str) -> tuple[str, int]:
    """Split "c<i>" / "m<j>" into kind and index.  Only the canonical
    spelling is accepted, so "m00" or "m+0" cannot alias "m0"."""
    if not isinstance(mode_id, str) or not _MODE_ID.fullmatch(mode_id):
        raise ConfigError(f"malformed mode id {mode_id!r}")
    return mode_id[0], int(mode_id[1:])


def _require_finite(owner: str, obj, names: tuple[str, ...]) -> None:
    for name in names:
        if not cmath.isfinite(getattr(obj, name)):
            raise ConfigError(f"{owner}: {name} must be finite")


def _endpoint_kinds(edge: CouplingEdge) -> tuple[str, str]:
    return _split_mode_id(edge.endpoints[0])[0], _split_mode_id(edge.endpoints[1])[0]


_EXPECTED_ENDPOINTS = {
    "optomechanical": ("c", "m"),
    "photon_hop": ("c", "c"),
    "phonon_hop": ("m", "m"),
}


def validate_config(config: SystemConfig) -> SystemConfig:
    """Check every structural invariant and return the config unchanged.

    Raises ConfigError on: empty mode lists, non-finite (NaN or infinite)
    numbers, negative rates, malformed or dangling endpoints, edge-kind
    mismatch, self-loops, and duplicate edges.  Called only where a config
    enters: parse_config, run_sweep and classify_configurations (the base
    config) and solve_record (every point); nothing downstream re-checks.
    """
    if not config.cavities or not config.mechanicals:
        raise ConfigError("empty mode list: need at least one cavity and one mechanical mode")
    if config.parameter_mode not in PARAMETER_MODES:
        raise ConfigError(f"unknown parameter_mode {config.parameter_mode!r}")
    if config.topology not in TOPOLOGY_TAGS:
        raise ConfigError(f"unknown topology {config.topology!r}")
    for i, cav in enumerate(config.cavities):
        _require_finite(f"cavity c{i}", cav, ("detuning", "decay", "drive_amplitude"))
        if cav.decay < 0:
            raise ConfigError(f"cavity c{i}: decay must be >= 0")
    for j, mech in enumerate(config.mechanicals):
        _require_finite(f"mechanical m{j}", mech,
                        ("frequency", "damping", "thermal_occupation"))
        if mech.frequency <= 0:
            raise ConfigError(f"mechanical m{j}: frequency must be > 0")
        if mech.damping < 0:
            raise ConfigError(f"mechanical m{j}: damping must be >= 0")
        if mech.thermal_occupation < 0:
            raise ConfigError(f"mechanical m{j}: thermal_occupation must be >= 0")

    seen: set[tuple[str, frozenset[str]]] = set()
    for edge in config.edges:
        if edge.kind not in EDGE_KINDS:
            raise ConfigError(f"unknown edge kind {edge.kind!r}")
        _require_finite(f"{edge.kind} edge {edge.endpoints}", edge, ("strength",))
        kinds = _endpoint_kinds(edge)
        if kinds != _EXPECTED_ENDPOINTS[edge.kind]:
            raise ConfigError(
                f"kind mismatch: {edge.kind} edge cannot join {edge.endpoints[0]!r}"
                f" and {edge.endpoints[1]!r}"
            )
        if edge.endpoints[0] == edge.endpoints[1]:
            raise ConfigError(f"self-loop on {edge.endpoints[0]!r}")
        # raises on dangling endpoints
        config.mode_index(edge.endpoints[0])
        config.mode_index(edge.endpoints[1])
        key = (edge.kind, frozenset(edge.endpoints))
        if key in seen:
            raise ConfigError(f"duplicate {edge.kind} edge between {edge.endpoints}")
        seen.add(key)
    return config


def solve_steady_amplitudes(config: SystemConfig) -> SteadyAmplitudes:
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
    drive regime).  The config must have passed validate_config.
    """
    if config.parameter_mode != "physical":
        raise ConfigError("solve_steady_amplitudes requires parameter_mode='physical'")

    nc, nm = config.n_cavities, config.n_mechanicals
    alpha = np.zeros(nc, dtype=complex)
    beta = np.zeros(nm, dtype=complex)

    om_edges = []  # (cav index, mech index, g)
    photon_hops = []  # (i, j, J)
    phonon_hops = []  # (i, j, eta)
    for edge in config.edges:
        i0 = int(edge.endpoints[0][1:])
        i1 = int(edge.endpoints[1][1:])
        if edge.kind == "optomechanical":
            om_edges.append((i0, i1, complex(edge.strength)))
        elif edge.kind == "photon_hop":
            photon_hops.append((i0, i1, complex(edge.strength)))
        else:
            phonon_hops.append((i0, i1, complex(edge.strength)))

    def detunings(beta_now: np.ndarray) -> np.ndarray:
        delta = np.array([cav.detuning for cav in config.cavities], dtype=float)
        for c, m, g in om_edges:
            delta[c] += 2.0 * (np.conj(g) * beta_now[m]).real
        return delta

    for iterations in range(1, AMPLITUDE_MAX_ITER + 1):
        delta_eff = detunings(beta)
        alpha_new = np.zeros_like(alpha)
        for c, cav in enumerate(config.cavities):
            drive = complex(cav.drive_amplitude)
            for i, j, J in photon_hops:
                if i == c:
                    drive += J * alpha[j]
                elif j == c:
                    drive += np.conj(J) * alpha[i]
            alpha_new[c] = -1j * drive / (cav.decay + 1j * delta_eff[c])
        beta_new = np.zeros_like(beta)
        force = np.zeros(nm, dtype=complex)
        for c, m, g in om_edges:
            force[m] += g * abs(alpha[c]) ** 2
        for i, j, eta in phonon_hops:
            force[i] += eta * beta[j]
            force[j] += np.conj(eta) * beta[i]
        for m, mech in enumerate(config.mechanicals):
            beta_new[m] = -1j * force[m] / (mech.damping + 1j * mech.frequency)

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

    delta_eff = detunings(beta)
    couplings = tuple(g * alpha[c] for c, m, g in om_edges)
    phases = tuple(cmath.phase(G) if G != 0 else 0.0 for G in couplings)
    return SteadyAmplitudes(
        cavity_amplitudes=tuple(alpha),
        mechanical_displacements=tuple(beta),
        effective_detunings=tuple(delta_eff),
        linearized_couplings=couplings,
        coupling_phases=phases,
        iterations=iterations,
    )


def build_drift_matrix(
    config: SystemConfig, amplitudes: SteadyAmplitudes | None = None
) -> DriftMatrix:
    """Assemble the 2M x 2M drift matrix A = [[E, F], [F*, E*]].

    E carries the diagonal decay+detuning terms -(kappa + i Delta') and
    -(gamma + i omega) plus the beam-splitter parts -iG, -iJ, -i eta;
    F carries only the counter-rotating optomechanical -iG entries.

    In effective mode edge strengths are used as-is; a physical-mode config
    is first translated by effective_config with its SteadyAmplitudes, which
    supply Delta' and G = g * alpha.  The config must have passed
    validate_config.
    """
    if config.parameter_mode == "physical":
        if amplitudes is None:
            raise ConfigError("physical mode requires steady-state amplitudes")
        config = effective_config(config, amplitudes)

    m = config.n_modes
    E = np.zeros((m, m), dtype=complex)
    F = np.zeros((m, m), dtype=complex)
    for c, cav in enumerate(config.cavities):
        E[c, c] = -(cav.decay + 1j * cav.detuning)
    for j, mech in enumerate(config.mechanicals):
        k = config.n_cavities + j
        E[k, k] = -(mech.damping + 1j * mech.frequency)
    for edge in config.edges:
        i = config.mode_index(edge.endpoints[0])
        j = config.mode_index(edge.endpoints[1])
        s = complex(edge.strength)
        E[i, j] += -1j * s
        E[j, i] += -1j * np.conj(s)
        if edge.kind == "optomechanical":
            F[i, j] += -1j * s
            F[j, i] += -1j * s

    A = np.block([[E, F], [np.conj(F), np.conj(E)]])
    return DriftMatrix(entries=A)


def build_noise_matrix(config: SystemConfig) -> NoiseMatrix:
    """Symmetrized noise matrix Q = (C + C^T)/2 for Markovian baths.

    The only nonzero entries of C sit on the off-diagonal blocks:
    2 kappa at (cavity, cavity+), 2 gamma (nbar + 1) at (mech, mech+) and
    2 gamma nbar at (mech+, mech), so Q couples each mode to its dagger.
    The config must have passed validate_config.
    """
    m = config.n_modes
    Q = np.zeros((2 * m, 2 * m), dtype=float)
    for c, cav in enumerate(config.cavities):
        Q[c, m + c] = Q[m + c, c] = cav.decay
    for j, mech in enumerate(config.mechanicals):
        k = config.n_cavities + j
        Q[k, m + k] = Q[m + k, k] = mech.damping * (2.0 * mech.thermal_occupation + 1.0)
    return NoiseMatrix(entries=Q)


def effective_config(config: SystemConfig, amplitudes: SteadyAmplitudes) -> SystemConfig:
    """Translate a physical-mode config plus its solved amplitudes into the
    equivalent effective-mode config (Delta' detunings, linearized G); the
    config must have passed validate_config."""
    if config.parameter_mode != "physical":
        raise ConfigError("effective_config expects a physical-mode config")
    cavities = tuple(
        CavityMode(detuning=amplitudes.effective_detunings[c], decay=cav.decay)
        for c, cav in enumerate(config.cavities)
    )
    om_iter = iter(amplitudes.linearized_couplings)
    edges = []
    for edge in config.edges:
        if edge.kind == "optomechanical":
            edges.append(CouplingEdge(edge.kind, edge.endpoints, next(om_iter)))
        else:
            edges.append(edge)
    return SystemConfig(
        cavities=cavities,
        mechanicals=config.mechanicals,
        edges=tuple(edges),
        parameter_mode="effective",
        topology=config.topology,
    )
