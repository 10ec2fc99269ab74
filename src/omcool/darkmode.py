"""Analytical dark-mode machinery: hybrid-mode transforms, dark-mode
existence and breaking conditions, and chain normal-mode decomposition."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import CouplingEdge, SystemConfig, validate_config

EPS_DARK = 1e-10

# Names of the four optional coupling channels of the network-coupled
# four-mode system (the two intermediate-cavity couplings stay open).
CHANNELS = ("J", "eta", "Gs1", "Gs2")
# Closed-channel subset sizes of the 14 taxonomy configurations.
TAXONOMY_SIZES = (1, 2, 3)


@dataclass(frozen=True)
class HybridModes:
    """Hybrid mechanical modes B+/- of a two-resonator system."""

    omega_plus: float
    omega_minus: float
    zeta: float
    g_plus: float
    gs_plus: float
    gs_minus: float
    transform: np.ndarray  # 2x2 orthogonal, (b1, b2) -> (B+, B-)


@dataclass(frozen=True)
class DarkModeReport:
    dark_present: bool
    zeta_residual: float
    gs_minus_residual: float
    breaking_channels: tuple[str, ...]


@dataclass(frozen=True)
class ChainModes:
    """Sine-transform normal modes of a uniform mechanical chain."""

    N: int
    frequencies: tuple[float, ...]
    transform: np.ndarray  # N x N, b_l = sum_k transform[l, k] B_k
    cavity_couplings: tuple[float, ...]
    aux_couplings: tuple[float, ...]
    dark_indices: tuple[int, ...]  # even k (1-based), dark w.r.t. cavity a


def hybridize(
    G1: float,
    G2: float,
    omega1: float,
    omega2: float,
    eta: float = 0.0,
    Gs1: float = 0.0,
    Gs2: float = 0.0,
) -> HybridModes:
    """Rotate (b1, b2) into the hybrid basis (B+, B-).

    All couplings must be real (non-negative by the phase convention of the
    presets); complex inputs are rejected rather than silently reduced to
    magnitudes.
    """
    for name, val in (("G1", G1), ("G2", G2), ("omega1", omega1), ("omega2", omega2),
                      ("eta", eta), ("Gs1", Gs1), ("Gs2", Gs2)):
        if isinstance(val, complex):
            raise ConfigError(f"{name} must be real for the hybrid transform")
    gp2 = G1 * G1 + G2 * G2
    if gp2 <= 0:
        raise ConfigError("hybridize requires G1^2 + G2^2 > 0")
    gp = float(np.sqrt(gp2))
    omega_plus = (omega1 * G1 * G1 + omega2 * G2 * G2 + 2.0 * eta * G1 * G2) / gp2
    omega_minus = (omega1 * G2 * G2 + omega2 * G1 * G1 - 2.0 * eta * G1 * G2) / gp2
    zeta = ((omega1 - omega2) * G1 * G2 + eta * (G2 * G2 - G1 * G1)) / gp2
    gs_plus = (Gs1 * G1 + Gs2 * G2) / gp
    gs_minus = (Gs1 * G2 - Gs2 * G1) / gp
    transform = np.array([[G1, G2], [G2, -G1]]) / gp
    return HybridModes(
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        zeta=zeta,
        g_plus=float(gp),
        gs_plus=gs_plus,
        gs_minus=gs_minus,
        transform=transform,
    )


def _two_mode_couplings(config: SystemConfig) -> dict[str, float]:
    """Extract (omega1, omega2, G1, G2, Gs1, Gs2, eta) from a two-mechanical
    effective config; absent edges count as zero strength.  The config must
    have passed validate_config."""
    if config.n_mechanicals != 2:
        raise ConfigError("dark-mode analysis needs exactly two mechanical modes")
    if config.topology not in ("n_type", "network4"):
        raise ConfigError(f"dark-mode analysis does not apply to topology {config.topology!r}")
    values = {"G1": 0.0, "G2": 0.0, "Gs1": 0.0, "Gs2": 0.0, "eta": 0.0}
    key_by_endpoints = {
        ("c0", "m0"): "G1",
        ("c0", "m1"): "G2",
        ("c1", "m0"): "Gs1",
        ("c1", "m1"): "Gs2",
    }
    for edge in config.edges:
        if edge.kind == "optomechanical":
            key = key_by_endpoints.get(edge.endpoints)
            if key is None:
                continue
        elif edge.kind == "phonon_hop":
            key = "eta"
        else:
            continue
        s = complex(edge.strength)
        if abs(s.imag) > 0:
            raise ConfigError("dark-mode analysis requires real coupling strengths")
        values[key] = s.real
    values["omega1"] = config.mechanicals[0].frequency
    values["omega2"] = config.mechanicals[1].frequency
    return values


def dark_mode_condition(config: SystemConfig) -> DarkModeReport:
    """Evaluate the algebraic dark-mode conditions

        (omega1 - omega2) G1 G2 + eta (G2^2 - G1^2) = 0
        Gs1 G2 - Gs2 G1 = 0

    Each residual counts as zero below EPS_DARK * max(1, G+).  The
    photon-hopping strength J never enters: it cannot break the dark mode.
    """
    p = _two_mode_couplings(config)
    h = hybridize(p["G1"], p["G2"], p["omega1"], p["omega2"], p["eta"], p["Gs1"], p["Gs2"])
    scale = max(1.0, h.g_plus)
    zeta_res = abs(h.zeta)
    gs_res = abs(h.gs_minus)
    channels = []
    if zeta_res >= EPS_DARK * scale:
        channels.append("hybrid-mode mixing (zeta != 0: frequency mismatch or phonon hopping)")
    if gs_res >= EPS_DARK * scale:
        channels.append("asymmetric auxiliary coupling (Gs- != 0)")
    return DarkModeReport(
        dark_present=not channels,
        zeta_residual=zeta_res,
        gs_minus_residual=gs_res,
        breaking_channels=tuple(channels),
    )


def close_channels(config: SystemConfig, closed: frozenset[str]) -> SystemConfig:
    """Return a copy of a network4 config with the given optional channels
    (subset of J, eta, Gs1, Gs2) zeroed out."""
    kill = set()
    if "J" in closed:
        kill.add(("photon_hop", frozenset(("c0", "c1"))))
    if "eta" in closed:
        kill.add(("phonon_hop", frozenset(("m0", "m1"))))
    if "Gs1" in closed:
        kill.add(("optomechanical", frozenset(("c1", "m0"))))
    if "Gs2" in closed:
        kill.add(("optomechanical", frozenset(("c1", "m1"))))
    edges = []
    for edge in config.edges:
        key = (edge.kind, frozenset(edge.endpoints))
        if key in kill:
            edges.append(CouplingEdge(edge.kind, edge.endpoints, 0.0))
        else:
            edges.append(edge)
    return SystemConfig(
        cavities=config.cavities,
        mechanicals=config.mechanicals,
        edges=tuple(edges),
        parameter_mode=config.parameter_mode,
        topology=config.topology,
    )


def classify_configurations(
    base: SystemConfig,
) -> list[tuple[frozenset[str], SystemConfig, DarkModeReport]]:
    """Enumerate the 14 coupling configurations (closed-channel subsets of
    {J, eta, Gs1, Gs2} of sizes 1..3) and evaluate the dark-mode condition
    for each.  Deterministic order: by subset size, then channel order."""
    validate_config(base)
    if base.topology != "network4":
        raise ConfigError("configuration taxonomy requires topology 'network4'")
    results = []
    for size in TAXONOMY_SIZES:
        for combo in itertools.combinations(CHANNELS, size):
            closed = frozenset(combo)
            cfg = close_channels(base, closed)
            results.append((closed, cfg, dark_mode_condition(cfg)))
    return results


def chain_modes(N: int, omega_m: float, eta: float, G: float, Gs: float) -> ChainModes:
    """Normal modes of a uniform N-resonator chain with nearest-neighbour
    hopping eta, uniform cavity coupling G, and auxiliary coupling Gs to b1.

    Frequencies: Omega_k = omega_m + 2 eta cos(k pi / (N+1)), k = 1..N.
    Transform: b_l = (1/D) sum_k sin(l k pi / (N+1)) B_k, D = sqrt((N+1)/2).
    The cavity coupling coefficient (G/D) sum_l sin(l k pi/(N+1)) vanishes
    for every even k; the auxiliary coefficient Gs sin(k pi/(N+1))/D never
    does, which is what breaks the chain dark modes.
    """
    if N < 2:
        raise ConfigError("chain_modes requires N >= 2")
    k = np.arange(1, N + 1)
    l = np.arange(1, N + 1)
    D = np.sqrt((N + 1) / 2.0)
    frequencies = omega_m + 2.0 * eta * np.cos(k * np.pi / (N + 1))
    transform = np.sin(np.outer(l, k) * np.pi / (N + 1)) / D
    cavity_couplings = (G / D) * np.sin(np.outer(l, k) * np.pi / (N + 1)).sum(axis=0)
    aux_couplings = Gs * np.sin(k * np.pi / (N + 1)) / D
    dark = tuple(int(kk) for kk in k if kk % 2 == 0)
    return ChainModes(
        N=N,
        frequencies=tuple(float(f) for f in frequencies),
        transform=transform,
        cavity_couplings=tuple(float(c) for c in cavity_couplings),
        aux_couplings=tuple(float(c) for c in aux_couplings),
        dark_indices=dark,
    )


def tridiagonal_chain_frequencies(omegas, etas) -> np.ndarray:
    """Numerical normal-mode frequencies of a (possibly non-uniform) chain:
    eigenvalues of the tridiagonal mechanical coupling block, ascending."""
    omegas = np.asarray(omegas, dtype=float)
    etas = np.asarray(etas, dtype=float)
    if len(etas) != len(omegas) - 1:
        raise ConfigError("need one hopping strength per neighbouring pair")
    H = np.diag(omegas) + np.diag(etas, 1) + np.diag(etas, -1)
    return np.linalg.eigvalsh(H)
