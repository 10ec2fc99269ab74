"""Steady-state linear algebra: stability, Lyapunov solve, time-domain
oracle, and phonon-number extraction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, UnstableSystemError
from .model import Model

STABILITY_MARGIN = 1e-9
RESIDUAL_RTOL = 1e-9
INTEGRATION_RTOL = 1e-10


@dataclass(frozen=True)
class StabilityReport:
    """Stability verdict of a drift matrix.

    ``eigen`` holds the eigendecomposition (lam, S) with A S = S diag(lam)
    that max_real_part was read from; solve_lyapunov solves in that basis.
    """

    max_real_part: float
    stable: bool
    eigen: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)


@dataclass(frozen=True)
class CovarianceMatrix:
    entries: np.ndarray


@dataclass(frozen=True)
class PhononReport:
    """Final occupations per mode; the mechanical ones are floored at zero
    for reporting, which drops the (tiny) negative round-off."""

    mechanical: tuple[float, ...]
    cavity: tuple[float, ...]


def stability(A: np.ndarray) -> StabilityReport:
    """Eigenvalue stability test: stable iff max Re(lambda) < -STABILITY_MARGIN.

    Equivalent to the Routh-Hurwitz criterion for this purpose and tractable
    for arbitrary dimension.  The eigenvalues and eigenvectors come from one
    np.linalg.eig, and the report carries both for solve_lyapunov.
    """
    if not np.all(np.isfinite(A)):
        raise SolverError("drift matrix contains non-finite entries")
    lam, S = np.linalg.eig(A)
    max_real = float(lam.real.max())
    return StabilityReport(
        max_real_part=max_real,
        stable=max_real < -STABILITY_MARGIN,
        eigen=(lam, S),
    )


def solve_lyapunov(
    A: np.ndarray,
    Q: np.ndarray,
    report: StabilityReport | None = None,
) -> np.ndarray:
    """Solve A V + V A^T = -Q in the eigenbasis of A.

    With A = S diag(lam) S^-1 and V = S W S^T, the equation decouples into
    W_ij = -(S^-1 Q S^-T)_ij / (lam_i + lam_j).  The eigenpairs and the
    stability verdict come from ``report`` (a stability(A) result) or from a
    fresh stability(A).  V is symmetrized, and is real when A and Q are.  It
    is returned only if its residual is within RESIDUAL_RTOL * max(1,
    ||Q||_max); a singular S or a failed residual (a defective or
    near-defective A) falls back to Bartels-Stewart on the Schur form, which
    checks its own residual.
    """
    a = np.asarray(A)
    q = np.asarray(Q)
    n = a.shape[0]
    if a.shape != (n, n) or q.shape != (n, n):
        raise SolverError("A and Q must be square matrices of equal dimension")
    if report is None:
        report = stability(a)
    if not report.stable:
        raise UnstableSystemError(
            f"drift matrix is not stable (max Re eigenvalue = {report.max_real_part:g})"
        )
    tol = RESIDUAL_RTOL * max(1.0, float(np.abs(q).max()))
    lam, S = report.eigen
    # overflow or NaN from an ill-conditioned S fails the residual check and
    # falls back, rather than warning
    with np.errstate(all="ignore"):
        try:
            s_inv = np.linalg.inv(S)
        except np.linalg.LinAlgError:
            return _schur_solve(a, q, tol)
        w = s_inv @ q @ s_inv.T
        w /= lam[:, None] + lam
        v = S @ w @ S.T
        if np.isrealobj(a) and np.isrealobj(q):
            v = v.real
        v = -0.5 * (v + v.T)
        av = a @ v  # v is symmetric, so v A^T = (A v)^T
        residual = np.abs(av + av.T + q).max()
    if not residual <= tol:
        return _schur_solve(a, q, tol)
    return v


def _schur_solve(a: np.ndarray, q: np.ndarray, tol: float) -> np.ndarray:
    """Bartels-Stewart on the Schur form A = Z T Z^H: the fallback of
    solve_lyapunov.

    With W = Z^H V conj(Z) the equation becomes the triangular Sylvester
    equation T W + W T^T = -Z^H Q conj(Z), solved by the LAPACK ?trsyl of the
    operands' dtype (dtrsyl on the real Schur form when A and Q are real,
    ztrsyl on the complex form otherwise); then V = Z W Z^T, symmetrized and
    checked against ``tol``.
    """
    from scipy.linalg import schur
    from scipy.linalg.lapack import get_lapack_funcs

    # ztrsyl needs a triangular T, so a complex Q takes the complex form
    T, Z = schur(a, output="real" if np.isrealobj(a) and np.isrealobj(q) else "complex")
    rhs = -(Z.conj().T @ q @ Z.conj())
    trsyl, = get_lapack_funcs(("trsyl",), (T, rhs))
    # op(conj(T)) with tranb="C" is conj(T)^H = T^T; for real T "C" is the transpose
    w, w_scale, info = trsyl(T, T.conj(), rhs, tranb="C")
    if info != 0:
        raise SolverError(f"singular Lyapunov system (marginal stability, info={info})")
    v = (Z @ w @ Z.T) / w_scale
    v = 0.5 * (v + v.T)
    residual = float(np.abs(a @ v + v @ a.T + q).max())
    if not residual <= tol:
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
    independent oracle for solve_lyapunov.  It runs in the dtype of its
    inputs, so a ladder-basis (complex) pair works as well as a real one.
    """
    if t_end <= 0:
        raise SolverError("t_end must be > 0")
    a = np.asarray(A)
    q = np.asarray(Q)
    n = a.shape[0]
    v0 = np.zeros((n, n)) if v0 is None else np.asarray(v0)

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
    from scipy.linalg import expm

    n = a.shape[0]
    h = t_end / (2**k)
    block = np.zeros((2 * n, 2 * n), dtype=np.result_type(a, q, float))
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
    """Extract final occupations from the quadrature covariance matrix.

    With M modes in canonical order, mode k has occupation
    n_k = (V[k, k] + V[M + k, M + k])/2 - 1/2, since <x^2> + <p^2> = 2n + 1.
    Cavity photon fluctuation occupations are reported as a diagnostic.
    """
    m = model.n_modes
    if V.shape != (2 * m, 2 * m):
        raise SolverError("covariance dimension does not match config")
    nc = model.n_cavities
    d = np.diag(V)
    occupations = ((d[:m] + d[m:]) / 2 - 0.5).tolist()
    return PhononReport(
        mechanical=tuple(max(0.0, x) for x in occupations[nc:]),
        cavity=tuple(occupations[:nc]),
    )
