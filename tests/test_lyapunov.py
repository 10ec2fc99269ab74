"""Stability, Lyapunov solve, time-domain propagation, phonon extraction."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import omcool
from omcool import lyapunov
from omcool.config_io import config_from_dict, config_to_dict
from omcool.errors import SolverError, UnstableSystemError
from omcool.lyapunov import (
    StabilityReport,
    integrate_covariance,
    phonon_numbers,
    solve_lyapunov,
    stability,
)
from omcool.model import build_drift_matrix, build_noise_matrix
from omcool.presets import (
    chain_config,
    get_preset,
    n_type_config,
    network4_config,
    preset_names,
)


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


def _uncoupled(model):
    """The model with every edge removed, rebuilt through its document."""
    doc = config_to_dict(model)
    doc["edges"] = []
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# stability

def test_decoupled_system_stable():
    cfg = _uncoupled(n_type_config())
    report = stability(build_drift_matrix(cfg))
    assert report.stable
    assert report.max_real_part == pytest.approx(-1e-5, rel=1e-6)


def test_base_point_stable():
    assert stability(build_drift_matrix(n_type_config())).stable


def test_undamped_oscillator_marginal():
    cfg = _uncoupled(n_type_config(gamma=0.0))
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
    cfg = n_type_config()
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
    cfg = network4_config()
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
    # the report's verdict is the one used: a stable A handed the report of
    # an unstable matrix is refused
    b = np.array([[-1.0]])
    with pytest.raises(UnstableSystemError):
        solve_lyapunov(b, np.array([[1.0]]), report=stability(a))


def test_long_chain_solves():
    # n = 132: the Kronecker system would be 17424 x 17424 complex
    cfg = chain_config(64)
    A, Q = build_drift_matrix(cfg), build_noise_matrix(cfg)
    assert A.shape == (132, 132)
    report = stability(A)
    assert report.stable
    V = solve_lyapunov(A, Q, report=report)
    residual = np.abs(A @ V + V @ A.T + Q).max()
    assert residual <= 1e-9 * max(1.0, np.abs(Q).max())
    n, _ = phonon_numbers(V, cfg)
    assert n[0] == min(n)


def test_complex_noise_gives_complex_solution():
    # V is real exactly when A and Q are: a real A with a dense complex
    # symmetric Q stays complex
    rng = np.random.default_rng(13)
    a, _ = random_stable_system(rng, 5, real=True)
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    q = b @ b.T
    ref = kronecker_lyapunov(a, q)
    # the Schur fallback takes the complex form here: ztrsyl on the real
    # form's 2x2 blocks would solve the wrong equation
    for V in (solve_lyapunov(a, q), lyapunov._schur_solve(a, q, 1e-9 * np.abs(q).max())):
        assert np.iscomplexobj(V)
        assert np.abs(V - ref).max() <= 1e-12 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# eigenbasis solve and its Schur fallback

@pytest.fixture
def fallbacks(monkeypatch):
    """The argument tuples of every call solve_lyapunov makes to its Schur
    fallback."""
    calls = []
    schur_solve = lyapunov._schur_solve

    def counted(*args):
        calls.append(args)
        return schur_solve(*args)

    monkeypatch.setattr(lyapunov, "_schur_solve", counted)
    return calls


def _solve_without_warnings(a, q, report=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solve_lyapunov(a, q, report=report)


def test_non_symmetric_noise_is_refused_by_name(fallbacks):
    # A V + V A^T is symmetric for every V, so a Hermitian but non-symmetric
    # Q (b b^H with complex b, the ladder-basis form) has no solution: the
    # eigenbasis result fails its residual check, and the fallback names Q
    # before it solves
    rng = np.random.default_rng(5)
    a, _ = random_stable_system(rng, 5, real=True)
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    with pytest.raises(SolverError, match="noise matrix Q is not symmetric"):
        solve_lyapunov(a, b @ b.conj().T)
    assert len(fallbacks) == 1


@pytest.mark.parametrize("a", [
    -np.eye(2) + np.eye(2, k=1),
    -np.eye(4) + np.eye(4, k=1),
    -np.eye(8) + np.eye(8, k=1),
    np.array([[-1.0, 1.0], [0.0, -1.0 - 1e-8]]),
], ids=["jordan2", "jordan4", "jordan8", "near_defective2"])
def test_defective_drift_falls_back_to_schur(fallbacks, a):
    # the eigenvectors of a (near-)Jordan block are (nearly) parallel, so the
    # eigenbasis result fails the residual check and the Schur path answers
    q = np.eye(a.shape[0])
    V = _solve_without_warnings(a, q)
    assert len(fallbacks) == 1
    ref = kronecker_lyapunov(a, q)
    assert np.abs(V - ref).max() <= 1e-12 * np.abs(ref).max()


def test_singular_or_non_finite_eigenbasis_falls_back(fallbacks):
    a = np.array([[-1.0, 0.5], [0.0, -2.0]])
    q = np.eye(2)
    ref = kronecker_lyapunov(a, q)
    singular = StabilityReport(-1.0, True, (np.array([-1.0, -2.0]), np.zeros((2, 2))))
    # lambda_i + lambda_j = 0 turns the eigenbasis result into inf and NaN
    zero_sum = StabilityReport(-1.0, True, (np.zeros(2), np.eye(2)))
    for report in (singular, zero_sum):
        V = _solve_without_warnings(a, q, report=report)
        assert np.abs(V - ref).max() <= 1e-12 * np.abs(ref).max()
    assert len(fallbacks) == 2


def test_mismatched_sizes_rejected():
    with pytest.raises(SolverError, match="^A and Q must be square matrices of equal dimension$"):
        solve_lyapunov(-np.eye(2), np.eye(3))


def test_schur_solve_refuses_marginal_drift():
    # eigenvalues +-i: lambda_i + lambda_j = 0 makes the Sylvester system singular
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(SolverError,
                       match=r"^singular Lyapunov system \(marginal stability, info=1\)$"):
        lyapunov._schur_solve(a, np.eye(2), 1e-9)


def test_schur_fallback_refuses_a_failed_residual(fallbacks):
    # a rotated Jordan-like block with a large coupling is stable (max Re
    # lambda about -0.994), but its eigenbasis is so ill-conditioned that the
    # eigenbasis result fails its residual check, and so does the Schur one
    j = -np.eye(4) + 100.0 * np.eye(4, k=1)
    rotation, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    a = rotation @ j @ rotation.T
    report = stability(a)
    assert report.stable
    with pytest.raises(SolverError, match=r"^Lyapunov residual \S+ exceeds tolerance$"):
        _solve_without_warnings(a, np.eye(4), report=report)
    assert len(fallbacks) == 1


def _preset_base_points():
    for name in preset_names():
        document = get_preset(name).document
        if "atomic" not in document:
            yield pytest.param(config_from_dict(document), 1e-12, id=name)
    # the chain's nearly dark modes make its steady state ill-conditioned:
    # against a solution refined with long-double residuals, both paths are
    # off by about 3e-12 relative, so they can differ by more than 1e-12
    yield pytest.param(chain_config(64), 1e-11, id="chain64")


@pytest.mark.parametrize("model, rtol", _preset_base_points())
def test_eigen_and_schur_paths_agree(fallbacks, model, rtol):
    A, Q = build_drift_matrix(model), build_noise_matrix(model)
    V = solve_lyapunov(A, Q)
    assert not fallbacks
    ref = lyapunov._schur_solve(A, Q, lyapunov.RESIDUAL_RTOL * max(1.0, np.abs(Q).max()))
    assert np.abs(V - ref).max() <= rtol * np.abs(ref).max()


NO_SCIPY_RUN = """
import json, sys
from omcool.cli import main
serial, pooled = json.loads(sys.argv[1])
assert "concurrent.futures" not in sys.modules
for argv in serial:
    assert main(argv) == 0, argv
    assert "concurrent.futures" not in sys.modules, argv
for argv in pooled:
    assert main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_cli_runs_never_import_scipy(tmp_path):
    """Solves, sweeps, presets and the taxonomy stay on the eigenbasis path,
    so a fresh interpreter that runs them never loads scipy.  The process
    pool is imported only by a run with workers: importing omcool.cli and
    the serial runs leave concurrent.futures unloaded."""
    physical = config_to_dict(n_type_config())
    physical["parameter_mode"] = "physical"
    for cav, drive in zip(physical["cavities"], (60.0, 80.0)):
        cav["drive_amplitude"] = drive
    for edge, g in zip(physical["edges"], (5e-4, 5e-4, 8e-4)):
        edge["strength"] = g
    docs = {"effective": config_to_dict(n_type_config()), "physical": physical,
            "chain24": config_to_dict(chain_config(24)),
            "network4": config_to_dict(network4_config())}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    serial = [
        ["solve", "--config", "effective.json", "--out", "solve_effective.csv"],
        ["solve", "--config", "physical.json", "--out", "solve_physical.csv"],
        ["preset", "fig7a", "--run", "--points", "3", "--out", "fig7a.csv"],
        ["sweep", "--config", "chain24.json", "--axis", "cavities.0.detuning:0.5:1.5:2",
         "--out", "chain24.csv"],
        ["taxonomy", "--config", "network4.json", "--out", "taxonomy.csv"],
    ]
    pooled = [["preset", "fig2a", "--run", "--points", "6", "--jobs", "2", "--out", "fig2a.csv"]]
    src = str(Path(omcool.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, json.dumps([serial, pooled])],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    for argv in serial + pooled:
        assert (tmp_path / argv[-1]).exists()


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


def test_unsettled_refinement_raises_after_the_last_step(monkeypatch):
    # a propagation that moves with every refinement never settles: the
    # integration refines through k = 64 and then gives up by name
    ks = []

    def unsettled(a, q, v0, t_end, k):
        ks.append(k)
        return np.full((1, 1), float(k))

    monkeypatch.setattr(lyapunov, "_propagate", unsettled)
    with pytest.raises(SolverError, match="step-size underflow in covariance integration"):
        integrate_covariance(np.array([[-1.0]]), np.array([[2.0]]), t_end=1.0)
    assert ks == list(range(2, 65))


def test_oracle_agreement_base_point():
    cfg = n_type_config()
    A, Q = build_drift_matrix(cfg), build_noise_matrix(cfg)
    V_direct = solve_lyapunov(A, Q)
    V_time = integrate_covariance(A, Q, t_end=50.0 / 1e-5).entries
    mask = np.abs(V_direct) > 1e-12
    rel = np.abs(V_time[mask] - V_direct[mask]) / np.abs(V_direct[mask])
    assert rel.max() < 1e-6


# ---------------------------------------------------------------------------
# phonon extraction

def test_thermal_equilibrium_occupations():
    cfg = _uncoupled(n_type_config(nbar=123.0))
    V = solve_lyapunov(build_drift_matrix(cfg), build_noise_matrix(cfg))
    mechanical, cavity = phonon_numbers(V, cfg)
    assert mechanical == pytest.approx((123.0, 123.0), rel=1e-8)
    assert cavity == pytest.approx((0.0, 0.0), abs=1e-9)


def test_base_point_ground_state_cooling():
    cfg = n_type_config()
    V = solve_lyapunov(build_drift_matrix(cfg), build_noise_matrix(cfg))
    (n1, n2), _ = phonon_numbers(V, cfg)
    assert n1 < 1 and n2 < 1
    # frozen values from the independent time-integration run
    assert n1 == pytest.approx(0.26461637438881, rel=1e-6)
    assert n2 == pytest.approx(0.66126881747685, rel=1e-6)


def test_dimension_mismatch_rejected():
    cfg = n_type_config()
    with pytest.raises(SolverError):
        phonon_numbers(np.zeros((4, 4)), cfg)


def test_occupations_clamped_but_raw_kept():
    cfg = _uncoupled(n_type_config(nbar=0.0))
    V = solve_lyapunov(build_drift_matrix(cfg), build_noise_matrix(cfg))
    mechanical, _ = phonon_numbers(V, cfg)
    assert all(n >= 0.0 for n in mechanical)


def test_relabeling_symmetry():
    # permuting two identical mechanical modes with their couplings permutes n_f
    cfg = network4_config(Gs1=0.02, Gs2=0.08)
    swapped = network4_config(Gs1=0.08, Gs2=0.02)
    n, _ = phonon_numbers(
        solve_lyapunov(build_drift_matrix(cfg), build_noise_matrix(cfg)), cfg
    )
    ns, _ = phonon_numbers(
        solve_lyapunov(build_drift_matrix(swapped), build_noise_matrix(swapped)), swapped
    )
    assert abs(n[0] - ns[1]) < 1e-10
    assert abs(n[1] - ns[0]) < 1e-10
