"""Analytical dark-mode machinery: hybrid-mode transforms, dark-mode
existence and breaking conditions, and chain normal-mode decomposition."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import Model, coupling_matrix

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


def _inapplicable(model: Model) -> str:
    """Why the two-resonator dark-mode analysis does not apply to a model,
    or "" when it does."""
    if model.n_mechanicals != 2:
        return "dark-mode analysis needs exactly two mechanical modes"
    if model.n_cavities > 2:
        return "dark-mode analysis needs at most two cavities"
    if model.topology not in ("n_type", "network4"):
        return f"dark-mode analysis does not apply to topology {model.topology!r}"
    return ""


def dark_mode_applies(model: Model) -> bool:
    """Whether dark_mode_condition applies: two mechanical modes and at most
    two cavities on an n_type or network4 topology."""
    return not _inapplicable(model)


def _two_mode_couplings(model: Model) -> dict[str, float]:
    """Read (omega1, omega2, G1, G2, Gs1, Gs2, eta) off the coupling matrix
    of a two-mechanical model: G1, G2 couple cavity c0 and Gs1, Gs2 cavity
    c1 to m0, m1; absent edges count as zero strength."""
    reason = _inapplicable(model)
    if reason:
        raise ConfigError(reason)
    nc = model.n_cavities
    K = coupling_matrix(model)
    G = np.zeros((2, 2), dtype=complex)  # rows c0, c1; a lone cavity leaves c1 at zero
    G[:nc] = K[:nc, nc:]
    strengths = np.append(G.ravel(), K[nc, nc + 1])
    if np.any(strengths.imag != 0):
        raise ConfigError("dark-mode analysis requires real coupling strengths")
    values = dict(zip(("G1", "G2", "Gs1", "Gs2", "eta"), strengths.real.tolist()))
    values["omega1"], values["omega2"] = model.frequency.tolist()
    return values


def dark_mode_condition(model: Model) -> DarkModeReport:
    """Evaluate the algebraic dark-mode conditions

        (omega1 - omega2) G1 G2 + eta (G2^2 - G1^2) = 0
        Gs1 G2 - Gs2 G1 = 0

    Each residual counts as zero below EPS_DARK * max(1, G+).  The
    photon-hopping strength J never enters: it cannot break the dark mode.
    """
    p = _two_mode_couplings(model)
    h = hybridize(p["G1"], p["G2"], p["omega1"], p["omega2"], p["eta"], p["Gs1"], p["Gs2"])
    tol = EPS_DARK * max(1.0, h.g_plus)
    zeta_res = abs(h.zeta)
    gs_res = abs(h.gs_minus)
    return DarkModeReport(
        dark_present=zeta_res < tol and gs_res < tol,
        zeta_residual=zeta_res,
        gs_minus_residual=gs_res,
    )


def closed_channel_variants(
    model: Model, sizes: tuple[int, ...] = TAXONOMY_SIZES,
) -> list[tuple[str, Model]]:
    """The taxonomy's configurations of a network4 model: for each subset of
    CHANNELS whose size is in ``sizes`` (all 14 by default), by size, then
    channel order, its label ("J+Gs2") and the model with the closed
    channels' strength slots zeroed."""
    if model.topology != "network4":
        raise ConfigError("configuration taxonomy requires topology 'network4'")
    nc = model.n_cavities
    ends = {"J": (False, {0, 1}), "eta": (False, {nc, nc + 1}),
            "Gs1": (True, {1, nc}), "Gs2": (True, {1, nc + 1})}
    edges = list(zip(model.optomechanical.tolist(), model.edge_i.tolist(),
                     model.edge_j.tolist()))
    slots = {ch: [("strength", e) for e, (om, i, j) in enumerate(edges)
                  if (om, {i, j}) == ends[ch]]
             for ch in CHANNELS}
    variants = []
    for size in TAXONOMY_SIZES:
        if size not in sizes:
            continue
        for closed in itertools.combinations(CHANNELS, size):
            cut = [slot for ch in closed for slot in slots[ch]]
            variants.append(("+".join(closed), model.write(cut, [0.0] * len(cut))))
    return variants


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
