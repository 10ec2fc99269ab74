"""Steady-state linear algebra: stability, Lyapunov solve, time-domain
oracle, and phonon-number extraction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, schur
from scipy.linalg.lapack import ztrsyl

from .errors import SolverError, UnstableSystemError
from .model import Model

STABILITY_MARGIN = 1e-9
RESIDUAL_RTOL = 1e-9
INTEGRATION_RTOL = 1e-10
IMAG_TOL = 1e-6


@dataclass(frozen=True)
class StabilityReport:
    """Eigenvalues and stability verdict of a drift matrix.

    ``schur`` holds the complex Schur factors (T, Z) with A = Z T Z^H that the
    eigenvalues were read from; solve_lyapunov reuses them.
    """

    eigenvalues: tuple[complex, ...]
    max_real_part: float
    stable: bool
    schur: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)


@dataclass(frozen=True)
class CovarianceMatrix:
    entries: np.ndarray


@dataclass(frozen=True)
class PhononReport:
    """Final occupations per mode; raw values keep the (tiny) negative
    round-off, the clamped ones are floored at zero for reporting."""

    mechanical: tuple[float, ...]
    mechanical_raw: tuple[float, ...]
    cavity: tuple[float, ...]


def stability(A: np.ndarray, margin: float = STABILITY_MARGIN) -> StabilityReport:
    """Eigenvalue stability test: stable iff max Re(lambda) < -margin.

    Equivalent to the Routh-Hurwitz criterion for this purpose and tractable
    for arbitrary dimension.  The eigenvalues are the diagonal of the complex
    Schur form A = Z T Z^H, which the report carries for solve_lyapunov.
    """
    if not np.all(np.isfinite(A)):
        raise SolverError("drift matrix contains non-finite entries")
    T, Z = schur(A, output="complex")
    eigvals = np.diag(T)
    max_real = float(eigvals.real.max())
    return StabilityReport(
        eigenvalues=tuple(eigvals),
        max_real_part=max_real,
        stable=max_real < -margin,
        schur=(T, Z),
    )


def solve_lyapunov(
    A: np.ndarray,
    Q: np.ndarray,
    report: StabilityReport | None = None,
) -> np.ndarray:
    """Solve A V + V A^T = -Q by Bartels-Stewart on the complex Schur form.

    With A = Z T Z^H and W = Z^H V conj(Z), the equation becomes the
    triangular Sylvester equation T W + W T^T = -Z^H Q conj(Z), solved by
    LAPACK ztrsyl in O(n^3); then V = Z W Z^T.  The Schur factors come from
    ``report`` (a stability(A) result, whose own margin then applies) or from
    a fresh stability(A) with STABILITY_MARGIN.  V is symmetrized after the
    solve and the residual is checked against RESIDUAL_RTOL * max(1, ||Q||_max).
    """
    a = np.asarray(A, dtype=complex)
    q = np.asarray(Q, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n) or q.shape != (n, n):
        raise SolverError("A and Q must be square matrices of equal dimension")
    if report is None:
        report = stability(a)
    if not report.stable:
        raise UnstableSystemError(
            f"drift matrix is not stable (max Re eigenvalue = {report.max_real_part:g})"
        )
    T, Z = report.schur
    # op(conj(T)) with tranb="C" is conj(T)^H = T^T
    w, w_scale, info = ztrsyl(T, T.conj(), -(Z.conj().T @ q @ Z.conj()), tranb="C")
    if info != 0:
        raise SolverError(f"singular Lyapunov system (marginal stability, info={info})")
    v = (Z @ w @ Z.T) / w_scale
    v = 0.5 * (v + v.T)
    scale = max(1.0, float(np.abs(q).max()))
    residual = float(np.abs(a @ v + v @ a.T + q).max())
    if residual > RESIDUAL_RTOL * scale:
        raise SolverError(f"Lyapunov residual {residual:g} exceeds tolerance")
    return v


def integrate_covariance(
    A: np.ndarray,
    Q: np.ndarray,
    t_end: float,
    v0: np.ndarray | None = None,
) -> CovarianceMatrix:
    """Propagate dV/dt = A V + V A^T + Q from V(0) = v0 (default 0) to t_end.

    Uses exact exponential propagation: the inhomogeneous term over a base
    step h is S(h) = int_0^h exp(As) Q exp(A^T s) ds, evaluated with the
    block-exponential identity, then step-doubled up to t_end.  The base step
    is refined until two successive refinements agree within INTEGRATION_RTOL
    (relative to max(1, ||V||_max)).
    This never touches the Lyapunov linear system, so it serves as an
    independent oracle for solve_lyapunov.
    """
    if t_end <= 0:
        raise SolverError("t_end must be > 0")
    a = np.asarray(A, dtype=complex)
    q = np.asarray(Q, dtype=complex)
    n = a.shape[0]
    if v0 is None:
        v0 = np.zeros((n, n), dtype=complex)
    v0 = np.asarray(v0, dtype=complex)

    norm_a = float(np.abs(a).max()) or 1.0
    k = max(0, int(np.ceil(np.log2(max(t_end * norm_a, 1.0) / 0.25))))
    prev = None
    while k <= 64:
        v = _propagate(a, q, v0, t_end, k)
        if prev is not None:
            diff = float(np.abs(v - prev).max())
            if diff <= INTEGRATION_RTOL * max(1.0, float(np.abs(v).max())):
                return CovarianceMatrix(entries=0.5 * (v + v.T))
        prev = v
        k += 1
    raise SolverError("step-size underflow in covariance integration")


def _propagate(a: np.ndarray, q: np.ndarray, v0: np.ndarray, t_end: float, k: int) -> np.ndarray:
    """V(t_end) with base step h = t_end / 2**k and k doublings."""
    n = a.shape[0]
    h = t_end / (2**k)
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = a * h
    block[:n, n:] = q * h
    block[n:, n:] = -a.T * h
    eb = expm(block)
    E = eb[:n, :n]  # exp(A h)
    S = eb[:n, n:] @ E.T  # int_0^h exp(As) Q exp(A^T s) ds
    for _ in range(k):
        S = E @ S @ E.T + S
        E = E @ E
    return E @ v0 @ E.T + S


def phonon_numbers(V: np.ndarray, model: Model) -> PhononReport:
    """Extract final occupations from the covariance matrix.

    With C cavities and canonical ordering, the l-th mechanical occupation is
    Re V[M + C + l, C + l] - 1/2 (the V_73 - 1/2 and V_84 - 1/2 elements of
    the four-mode case).  Cavity photon fluctuation occupations are reported
    as a diagnostic.  A second moment whose imaginary part exceeds IMAG_TOL
    raises SolverError.
    """
    m = model.n_modes
    if V.shape != (2 * m, 2 * m):
        raise SolverError("covariance dimension does not match config")
    nc = model.n_cavities

    def occupation(idx: int) -> float:
        moment = V[m + idx, idx]
        if abs(complex(moment).imag) > IMAG_TOL:
            raise SolverError(
                f"second moment at mode {idx} has imaginary part {complex(moment).imag:g}"
            )
        return float(complex(moment).real) - 0.5

    mech_raw = tuple(occupation(nc + l) for l in range(model.n_mechanicals))
    cavity_raw = tuple(occupation(c) for c in range(nc))
    return PhononReport(
        mechanical=tuple(max(0.0, x) for x in mech_raw),
        mechanical_raw=mech_raw,
        cavity=cavity_raw,
    )
