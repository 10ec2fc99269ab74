"""Eigenanalysis of the driven three-level (Lambda) and four-level (N-type)
atomic systems: dark states and their breaking by an auxiliary level."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DARK_EPS = 1e-12
DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class AtomicEigenReport:
    """Eigenvalues (ascending), orthonormal eigenstates (columns, basis
    {e, f, g[, d]}), and per-eigenstate excited-level probabilities."""

    eigenvalues: tuple[float, ...]
    eigenstates: np.ndarray
    excited_probabilities: tuple[float, ...]
    dark_states: tuple[int, ...]


def _report(matrix: np.ndarray) -> AtomicEigenReport:
    evals, evecs = np.linalg.eigh(matrix)
    probs = np.abs(evecs[0, :]) ** 2
    # Within a degenerate cluster the individual eigenvectors are basis
    # dependent; share the eigenspace projection of |e> equally so the
    # reported probabilities are basis independent.
    scale = max(1.0, float(np.abs(evals).max()))
    n = len(evals)
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(evals[j] - evals[i]) <= DEGENERACY_RTOL * scale:
            j += 1
        if j - i > 1:
            probs[i:j] = probs[i:j].sum() / (j - i)
        i = j
    dark = tuple(int(s) for s in range(n) if probs[s] < DARK_EPS)
    return AtomicEigenReport(
        eigenvalues=tuple(float(v) for v in evals),
        eigenstates=evecs,
        excited_probabilities=tuple(float(p) for p in probs),
        dark_states=dark,
    )


def three_level_matrix(xi: float, Omega2: float) -> np.ndarray:
    """Resonant Lambda-system Hamiltonian in the basis {e, f, g},
    xi = Omega1 / Omega2."""
    return Omega2 * np.array([
        [0.0, 1.0, xi],
        [1.0, 0.0, 0.0],
        [xi, 0.0, 0.0],
    ])


def four_level_matrix(xi_prime: float, Omega_prime: float) -> np.ndarray:
    """Resonant four-level Hamiltonian in the basis {e, f, g, d} with
    Omega1 = Omega2 = Omega' and xi' = Omega3 / Omega'."""
    return Omega_prime * np.array([
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, xi_prime],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, xi_prime, 0.0, 0.0],
    ])


def three_level_eigensystem(xi: float, Omega2: float) -> AtomicEigenReport:
    """Eigenvalues {0, +-Omega2 sqrt(1 + xi^2)} and eigenstates of the
    resonant Lambda system.  The zero eigenstate has no excited-state
    component for any xi: it is the dark state."""
    if Omega2 <= 0:
        raise ConfigError("Omega2 must be > 0")
    return _report(three_level_matrix(xi, Omega2))


def four_level_eigensystem(xi_prime: float, Omega_prime: float) -> AtomicEigenReport:
    """Eigensystem of the resonant four-level scheme.  At xi' = 0 exactly two
    eigenstates are dark; any xi' > 0 gives all four a nonzero excited-state
    probability (the auxiliary level breaks the dark state)."""
    if Omega_prime <= 0:
        raise ConfigError("Omega_prime must be > 0")
    return _report(four_level_matrix(xi_prime, Omega_prime))

