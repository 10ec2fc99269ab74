"""The compiled array model of a mode-graph configuration, its
steady-state amplitudes, and matrix assembly.

All rates are dimensionless multiples of the first mechanical frequency
(omega_1 = 1 internally).  The canonical mode order is cavities first, then
mechanical modes.  The fluctuations are taken in the real quadrature basis:
first every x quadrature in that order, then every p quadrature, so the
vector is [dx_a0, ..., dx_b0, ..., dp_a0, ..., dp_b0, ...] with
x = (a + a^+)/sqrt2 and p = -i (a - a^+)/sqrt2.  The drift, noise and
covariance matrices are real.

A config document is parsed, validated and compiled once, where it
enters, into a Model of plain arrays (config_io.config_from_dict).  Every
later stage reads the Model, and every variant of it (a sweep point, a
closed taxonomy channel, the linearised couplings of a physical-mode
point) is a copy with slots written.  The document's schema and field
rules belong to config_io alone.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError

AMPLITUDE_TOL = 1e-12
AMPLITUDE_MAX_ITER = 10_000
AMPLITUDE_DAMPING = 0.5


@dataclass(frozen=True, eq=False)
class Model:
    """A validated config document compiled into arrays, by
    config_io.config_from_dict.

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

    Each step updates all of z from the old iterate w = (alpha, beta,
    |alpha|^2), keeping AMPLITUDE_DAMPING of the old iterate; the iteration
    stops once the largest update is below AMPLITUDE_TOL (absolute).  A
    step runs in Python complex scalars over the nonzeros of each row of
    the step matrix, which is cheaper than numpy calls on arrays this
    small; its cost grows with the nonzeros of K.  Raises ConvergenceError
    at the first step that divides by zero (a lossless cavity at zero
    effective detuning) or whose update is not finite, and after
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
    # per mode: its drive, its rate, and the (column, coefficient) nonzeros
    # of its force row and of its shift row
    drive = model.drive.tolist() + [0j] * (m - nc)
    rates = (np.concatenate((model.decay, model.damping))
             + 1j * np.concatenate((model.detuning, model.frequency))).tolist()
    nonzeros = [[(j, c) for j, c in enumerate(row) if c] for row in step.tolist()]
    rows = list(zip(drive, rates, nonzeros[:m], nonzeros[m:]))
    z = [0j] * m

    for iterations in range(1, AMPLITUDE_MAX_ITER + 1):
        try:
            w = z + [x * x for x in map(abs, z[:nc])]
            z_new = []
            for d, r, force, shift in rows:
                f = s = 0j
                for j, c in force:
                    f += c * w[j]
                for j, c in shift:
                    s += c * w[j]
                z_new.append(-1j * (d + f) / (r + 1j * s.real))
            updates = [abs(b - a) for a, b in zip(z, z_new)]
        except ZeroDivisionError:
            raise ConvergenceError(
                f"steady-state amplitude step {iterations} divides by zero"
                " (a lossless cavity at zero effective detuning)") from None
        except OverflowError:  # abs() of a complex beyond the float range
            updates = [math.inf]
        if not math.isfinite(sum(updates)):
            raise ConvergenceError(f"steady-state amplitude step {iterations} is not finite")
        if max(updates) < AMPLITUDE_TOL:
            z = z_new
            break
        z = [AMPLITUDE_DAMPING * a + (1.0 - AMPLITUDE_DAMPING) * b for a, b in zip(z, z_new)]
    else:
        raise ConvergenceError(
            f"steady-state amplitudes did not converge within {AMPLITUDE_MAX_ITER} iterations"
        )

    z = np.array(z)
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

    base: np.ndarray
    steps: tuple[tuple[np.ndarray, np.ndarray], ...]

    def at(self, point) -> np.ndarray:
        """The matrix with ``point[k]`` written into slot k.  A zero must be
        +0.0, as SweepAxis.values gives it: a -0.0 would leave signed zeros
        of the builder's own that no step records."""
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
    return Assembly(base, tuple(steps))
