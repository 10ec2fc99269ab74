"""Stability, Lyapunov solve, time-domain propagation, phonon extraction."""

import dataclasses

import numpy as np
import pytest

from omcool.errors import SolverError, UnstableSystemError
from omcool.lyapunov import (
    integrate_covariance,
    phonon_numbers,
    solve_lyapunov,
    stability,
)
from omcool.model import build_drift_matrix, build_noise_matrix, compile_config
from omcool.presets import chain_config, n_type_config, network4_config


def random_stable_system(rng, n, real=False):
    """Random stable (A, Q) pair, A complex unless ``real``; Q real symmetric
    positive semidefinite."""
    a = rng.standard_normal((n, n))
    if not real:
        a = a + 1j * rng.standard_normal((n, n))
    shift = max(np.linalg.eigvals(a).real.max(), 0.0) + rng.uniform(0.5, 2.0)
    a = a - shift * np.eye(n)
    b = rng.standard_normal((n, n))
    q = b @ b.T
    return a, q


def kronecker_lyapunov(a, q):
    """Reference solve of A V + V A^T = -Q through the n^2 x n^2 linear system
    (I (x) A + A (x) I) vec(V) = -vec(Q), column-major vec.  Small n only."""
    n = a.shape[0]
    eye = np.eye(n)
    vec_v = np.linalg.solve(np.kron(eye, a) + np.kron(a, eye), -q.flatten(order="F"))
    return vec_v.reshape((n, n), order="F")


# ---------------------------------------------------------------------------
# stability

def test_decoupled_system_stable():
    cfg = compile_config(dataclasses.replace(n_type_config(), edges=()))
    report = stability(build_drift_matrix(cfg))
    assert report.stable
    assert report.max_real_part == pytest.approx(-1e-5, rel=1e-6)


def test_base_point_stable():
    assert stability(build_drift_matrix(compile_config(n_type_config()))).stable


def test_undamped_oscillator_marginal():
    cfg = n_type_config(gamma=0.0)
    cfg = compile_config(dataclasses.replace(cfg, edges=()))
    report = stability(build_drift_matrix(cfg))
    assert report.max_real_part == pytest.approx(0.0, abs=1e-12)
    assert not report.stable


def test_nan_entries_rejected():
    a = np.full((2, 2), np.nan)
    with pytest.raises(SolverError):
        stability(a)


# ---------------------------------------------------------------------------
# Lyapunov solve

def test_scalar_balance():
    V = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
    assert V[0, 0] == pytest.approx(1.0)


def test_diagonal_balance():
    a = np.diag([-1.0, -2.0, -0.5])
    q = np.diag([2.0, 4.0, 1.0])
    V = solve_lyapunov(a, q)
    assert np.allclose(np.diag(V), -np.diag(q) / (2 * np.diag(a)))


def test_solution_is_symmetric():
    rng = np.random.default_rng(7)
    a, q = random_stable_system(rng, 6)
    V = solve_lyapunov(a, q)
    assert np.abs(V - V.T).max() < 1e-12


def test_unstable_system_raises():
    with pytest.raises(UnstableSystemError):
        solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


def test_residual_invariant_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        a, q = random_stable_system(rng, n)
        V = solve_lyapunov(a, q)
        residual = np.abs(a @ V + V @ a.T + q).max()
        assert residual <= 1e-9 * max(1.0, np.abs(q).max())


def test_agrees_with_kronecker_reference():
    rng = np.random.default_rng(3)
    systems = [random_stable_system(rng, n) for n in (1, 2, 3, 5, 8) for _ in range(4)]
    cfg = compile_config(n_type_config())
    systems.append((build_drift_matrix(cfg), build_noise_matrix(cfg)))
    # real pairs take the real Schur form and dtrsyl
    systems += [random_stable_system(rng, n, real=True) for n in (1, 2, 3, 5, 8) for _ in range(4)]
    for a, q in systems:
        V = solve_lyapunov(a, q)
        assert np.isrealobj(V) == np.isrealobj(a)
        ref = kronecker_lyapunov(a, q)
        assert np.abs(V - ref).max() <= 1e-12 * np.abs(ref).max()


def test_report_reuse_matches_fresh_solve():
    rng = np.random.default_rng(5)
    cfg = compile_config(network4_config())
    systems = [random_stable_system(rng, 6),
               (build_drift_matrix(cfg), build_noise_matrix(cfg))]
    for a, q in systems:
        fresh = solve_lyapunov(a, q)
        reused = solve_lyapunov(a, q, report=stability(a))
        assert np.array_equal(fresh, reused)


def test_unstable_report_raises():
    a = np.array([[1.0]])
    with pytest.raises(UnstableSystemError):
        solve_lyapunov(a, np.array([[1.0]]), report=stability(a))
    # the report's verdict is the one used: a stable A judged with a margin
    # beyond its decay rate is refused
    b = np.array([[-1.0]])
    with pytest.raises(UnstableSystemError):
        solve_lyapunov(b, np.array([[1.0]]), report=stability(b, margin=2.0))


def test_long_chain_solves():
    # n = 132: the Kronecker system would be 17424 x 17424 complex
    cfg = compile_config(chain_config(64))
    A, Q = build_drift_matrix(cfg), build_noise_matrix(cfg)
    assert A.shape == (132, 132)
    report = stability(A)
    assert report.stable
    V = solve_lyapunov(A, Q, report=report)
    residual = np.abs(A @ V + V @ A.T + Q).max()
    assert residual <= 1e-9 * max(1.0, np.abs(Q).max())
    n = phonon_numbers(V, cfg).mechanical
    assert n[0] == min(n)


# ---------------------------------------------------------------------------
# time-domain propagation

def test_scalar_closed_form_relaxation():
    # dV/dt = -2V + 2, V(0) = 0 -> V(t) = 1 - exp(-2t)
    for t in (0.1, 1.0, 5.0):
        V = integrate_covariance(np.array([[-1.0]]), np.array([[2.0]]), t_end=t)
        assert V.entries[0, 0] == pytest.approx(1.0 - np.exp(-2.0 * t), rel=1e-9)


def test_zero_noise_zero_initial_stays_zero():
    a = np.array([[-1.0, 0.2], [0.0, -0.5]])
    V = integrate_covariance(a, np.zeros((2, 2)), t_end=3.0)
    assert np.abs(V.entries).max() == 0.0


def test_initial_condition_propagates():
    # Q = 0: V(t) = exp(At) V0 exp(A^T t)
    a = np.array([[-0.3, 0.1], [-0.2, -0.7]])
    v0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    from scipy.linalg import expm
    t = 1.7
    V = integrate_covariance(a, np.zeros((2, 2)), t_end=t, v0=v0).entries
    E = expm(a * t)
    assert np.abs(V - E @ v0 @ E.T).max() < 1e-9


def test_nonpositive_horizon_rejected():
    with pytest.raises(SolverError):
        integrate_covariance(np.array([[-1.0]]), np.array([[1.0]]), t_end=0.0)


def test_oracle_agreement_base_point():
    cfg = compile_config(n_type_config())
    A, Q = build_drift_matrix(cfg), build_noise_matrix(cfg)
    V_direct = solve_lyapunov(A, Q)
    V_time = integrate_covariance(A, Q, t_end=50.0 / 1e-5).entries
    mask = np.abs(V_direct) > 1e-12
    rel = np.abs(V_time[mask] - V_direct[mask]) / np.abs(V_direct[mask])
    assert rel.max() < 1e-6


# ---------------------------------------------------------------------------
# phonon extraction

def test_thermal_equilibrium_occupations():
    cfg = compile_config(dataclasses.replace(n_type_config(nbar=123.0), edges=()))
    V = solve_lyapunov(build_drift_matrix(cfg), build_noise_matrix(cfg))
    report = phonon_numbers(V, cfg)
    assert report.mechanical == pytest.approx((123.0, 123.0), rel=1e-8)
    assert report.cavity == pytest.approx((0.0, 0.0), abs=1e-9)


def test_base_point_ground_state_cooling():
    cfg = compile_config(n_type_config())
    V = solve_lyapunov(build_drift_matrix(cfg), build_noise_matrix(cfg))
    n1, n2 = phonon_numbers(V, cfg).mechanical
    assert n1 < 1 and n2 < 1
    # frozen values from the independent time-integration run
    assert n1 == pytest.approx(0.26461637438881, rel=1e-6)
    assert n2 == pytest.approx(0.66126881747685, rel=1e-6)


def test_dimension_mismatch_rejected():
    cfg = compile_config(n_type_config())
    with pytest.raises(SolverError):
        phonon_numbers(np.zeros((4, 4)), cfg)


def test_occupations_clamped_but_raw_kept():
    cfg = compile_config(dataclasses.replace(n_type_config(nbar=0.0), edges=()))
    V = solve_lyapunov(build_drift_matrix(cfg), build_noise_matrix(cfg))
    report = phonon_numbers(V, cfg)
    assert all(n >= 0.0 for n in report.mechanical)
    assert all(n >= -1e-9 for n in report.mechanical_raw)


def test_relabeling_symmetry():
    # permuting two identical mechanical modes with their couplings permutes n_f
    cfg = compile_config(network4_config(Gs1=0.02, Gs2=0.08))
    swapped = compile_config(network4_config(Gs1=0.08, Gs2=0.02))
    n = phonon_numbers(
        solve_lyapunov(build_drift_matrix(cfg), build_noise_matrix(cfg)), cfg
    ).mechanical
    ns = phonon_numbers(
        solve_lyapunov(build_drift_matrix(swapped), build_noise_matrix(swapped)), swapped
    ).mechanical
    assert abs(n[0] - ns[1]) < 1e-10
    assert abs(n[1] - ns[0]) < 1e-10
