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


def level_matrix(levels: int, ratio: float) -> np.ndarray:
    """Resonant Hamiltonian of the Lambda system (``levels`` 3, basis {e, f, g},
    ratio xi = Omega1 / Omega2, Omega2 = 1) or of the N-type scheme (4, basis
    {e, f, g, d}, Omega1 = Omega2 = Omega' = 1, ratio xi' = Omega3 / Omega')."""
    if levels == 3:
        return np.array([[0.0, 1.0, ratio],
                         [1.0, 0.0, 0.0],
                         [ratio, 0.0, 0.0]])
    if levels == 4:
        return np.array([[0.0, 1.0, 1.0, 0.0],
                         [1.0, 0.0, 0.0, ratio],
                         [1.0, 0.0, 0.0, 0.0],
                         [0.0, ratio, 0.0, 0.0]])
    raise ConfigError("levels must be 3 or 4")


def level_eigensystem(levels: int, ratio: float) -> AtomicEigenReport:
    """Eigensystem of level_matrix.  Three levels: eigenvalues
    {0, +-sqrt(1 + xi^2)}, and the zero eigenstate has no excited-state
    component for any xi: it is the dark state.  Four levels: at xi' = 0
    exactly two eigenstates are dark; any xi' > 0 gives all four a nonzero
    excited-state probability (the auxiliary level breaks the dark state)."""
    return _report(level_matrix(levels, ratio))
