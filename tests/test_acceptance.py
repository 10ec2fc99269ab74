"""End-to-end acceptance checks for the cooling toolkit.

Each test prints one PASS line on success so a full run reads as a
nine-line scorecard.  All quantitative targets are either inequality
anchors at the preset parameter points or oracle-pinned agreement bounds.
"""

import time

import numpy as np
import pytest

from omcool.atomic import four_level_eigensystem, four_level_matrix, three_level_eigensystem
from omcool.config_io import config_from_dict, dump_config
from omcool.darkmode import dark_mode_condition
from omcool.lyapunov import integrate_covariance, phonon_numbers, solve_lyapunov
from omcool.model import build_drift_matrix, build_noise_matrix, coupling_matrix
from omcool.presets import (
    chain_config,
    get_preset,
    n_type_config,
    network4_config,
    preset_names,
)
from omcool.results import table_to_csv
from omcool.sweep import SweepAxis, run_sweep, run_taxonomy

import json


def _solve(model):
    V = solve_lyapunov(build_drift_matrix(model), build_noise_matrix(model))
    return phonon_numbers(V, model).mechanical


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_ground_state_cooling():
    start = time.perf_counter()
    n1, n2 = _solve(n_type_config())
    elapsed = time.perf_counter() - start
    assert n1 < 1.0
    assert n2 < 1.0
    assert n1 < n2
    assert elapsed < 0.1
    _report(1, f"broken dark mode cools both modes: n1={n1:.4f} < n2={n2:.4f} < 1 "
               f"({elapsed * 1e3:.1f} ms/point)")


def test_criterion_2_dark_mode_blockade():
    n1, n2 = _solve(n_type_config(Gs1=0.0))
    assert 400.0 <= n1 <= 600.0
    assert 400.0 <= n2 <= 600.0
    _report(2, f"dark-mode blockade pins occupations near nbar/2: "
               f"n1={n1:.1f}, n2={n2:.1f} in [400, 600]")


def test_criterion_3_taxonomy():
    base = network4_config()
    start = time.perf_counter()
    table = run_taxonomy(base, SweepAxis("cavities.0.decay", 0.05, 1.0, 100))
    rows = list(table.rows)  # the rows are solved as they are read
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert len(rows) == 14 * 100

    at_base = run_taxonomy(base)  # kappa = 0.1 from the base config
    at_base.rows = list(at_base.rows)
    dark_labels = {row[0] for row in at_base.rows
                   if row[at_base.columns.index("dark")]}
    assert dark_labels == {"J", "eta", "J+eta", "Gs1+Gs2", "J+Gs1+Gs2", "eta+Gs1+Gs2"}
    assert len(at_base.rows) - len(dark_labels) == 8
    for row in at_base.rows:
        dark = row[at_base.columns.index("dark")]
        n1 = row[at_base.columns.index("n_f_1")]
        n2 = row[at_base.columns.index("n_f_2")]
        if dark:
            assert n1 > 100 and n2 > 100
        else:
            assert n1 < 1 and n2 < 1
    _report(3, f"taxonomy: 6 dark / 8 broken; broken cool below 1, dark stay "
               f"above 100; 100-point kappa sweep in {elapsed:.2f} s")


def test_criterion_4_exchange_symmetry():
    a = _solve(network4_config(Gs1=0.02, Gs2=0.08))
    b = _solve(network4_config(Gs1=0.08, Gs2=0.02))
    diff = max(abs(a[0] - b[1]), abs(a[1] - b[0]))
    assert diff < 1e-8
    _report(4, f"swapping the auxiliary couplings swaps the occupations "
               f"(max difference {diff:.2e})")


def test_criterion_5_lyapunov_correctness():
    rng = np.random.default_rng(2026)
    worst_residual = 0.0
    worst_rel = 0.0
    for _ in range(50):
        n = 2 * int(rng.integers(1, 9))  # 2M with M <= 8
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        shift = max(np.linalg.eigvals(a).real.max(), 0.0) + rng.uniform(0.5, 2.0)
        a -= shift * np.eye(n)
        slowest = -np.linalg.eigvals(a).real.max()
        b = rng.standard_normal((n, n))
        q = b @ b.T
        V = solve_lyapunov(a, q)
        residual = np.abs(a @ V + V @ a.T + q).max() / max(1.0, np.abs(q).max())
        worst_residual = max(worst_residual, residual)
        assert residual <= 1e-9
        V_time = integrate_covariance(a, q, t_end=25.0 / slowest).entries
        mask = np.abs(V) > 1e-12
        rel = (np.abs(V_time[mask] - V[mask]) / np.abs(V[mask])).max()
        worst_rel = max(worst_rel, rel)
        assert rel < 1e-6
    _report(5, f"50 random stable systems: worst residual {worst_residual:.1e}, "
               f"worst oracle disagreement {worst_rel:.1e}")


def _sine_modes(N):
    """The normal modes of a uniform chain: T[l, k] = sin(l k pi / (N+1)) / D,
    D = sqrt((N+1)/2), with frequencies omega + 2 eta cos(k pi / (N+1))."""
    l = np.arange(1, N + 1)
    return np.sin(np.outer(l, l) * np.pi / (N + 1)) / np.sqrt((N + 1) / 2.0)


def test_criterion_6_hybrid_and_chain_identities():
    rng = np.random.default_rng(6)
    for _ in range(200):
        G1, G2, Gs1, Gs2 = rng.uniform(0.01, 1.0, 4)
        w1, w2 = rng.uniform(0.1, 2.0, 2)
        eta = rng.uniform(-2.0, 2.0)
        base = network4_config(omega2=w2, G1=G1, G2=G2, Gs1=Gs1, Gs2=Gs2, eta=eta)
        model = base.write([("frequency", 0)], [w1])
        report = dark_mode_condition(model)
        T = np.array([[G1, G2], [G2, -G1]]) / np.hypot(G1, G2)
        H_m = np.diag(model.frequency) + coupling_matrix(model)[2:, 2:].real  # 2 cavities
        assert abs(report.zeta_residual - abs((T @ H_m @ T.T)[0, 1])) < 1e-12
        assert abs(report.gs_minus_residual - abs((T @ [Gs1, Gs2])[1])) < 1e-12
    for N in range(2, 51):
        l = np.arange(1, N + 1)
        for k in range(2, N + 1, 2):
            assert abs(np.sin(l * k * np.pi / (N + 1)).sum()) < 1e-12
    for N in (2, 3, 5, 10, 25, 50):
        model = chain_config(N)
        H_m = np.diag(model.frequency) + coupling_matrix(model)[2:, 2:].real
        closed = 1.0 + 2 * 0.06 * np.cos(np.arange(1, N + 1) * np.pi / (N + 1))
        assert np.abs(np.linalg.eigvalsh(H_m) - np.sort(closed)).max() < 1e-14
    worst_dark, worst_broken = 0.0, 0.0
    for N in (2, 3, 4, 5, 10):
        T = _sine_modes(N)
        for Gs in (0.0, 0.1):
            model = chain_config(N, Gs=Gs)
            V = solve_lyapunov(build_drift_matrix(model), build_noise_matrix(model))
            m = N + 2  # the two cavities come first in each quadrature block
            x, p = V[2:m, 2:m], V[m + 2:, m + 2:]
            n = (np.diag(T.T @ x @ T) + np.diag(T.T @ p @ T)) / 2 - 0.5
            if Gs:
                worst_broken = max(worst_broken, n.max())
            else:
                worst_dark = max(worst_dark, np.abs(n[1::2] / 1000.0 - 1.0).max())
    assert worst_dark < 1e-9
    assert worst_broken < 0.01 * 1000.0
    _report(6, "dark-mode residuals match the hybrid rotation to 1e-12; chain "
               "parity sums vanish for N <= 50; chain mechanical blocks have the "
               "closed-form sine-mode frequencies to 1e-14; even sine modes stay "
               f"at nbar to {worst_dark:.0e} without the auxiliary cavity, every "
               f"mode below {worst_broken:.1f} with it (N = 2..10)")


def test_criterion_7_chain_cooling():
    for N in (3, 4):
        broken = _solve(chain_config(N))
        assert all(n < 1.0 for n in broken)
        assert broken[0] == min(broken)
        unbroken = _solve(chain_config(N, Gs=0.0, eta=0.0))
        assert all(n > 100.0 for n in unbroken)
    _report(7, "chains N=3,4 cool every mode below 1 (first mode coldest) with "
               "the auxiliary cavity and hopping on, stay above 100 without them")


def three_level_closed_form(xi, Omega2):
    """Closed-form eigenvalues of the resonant Lambda system, ascending."""
    r = Omega2 * np.sqrt(1.0 + xi * xi)
    return np.array([-r, 0.0, r])


def four_level_closed_form(xi_prime, Omega_prime):
    """Closed-form eigenvalues +-Omega' sqrt((2 + xi'^2 +- sqrt((2 + xi'^2)^2
    - 4 xi'^2)) / 2), ascending."""
    s = 2.0 + xi_prime * xi_prime
    root = np.sqrt(max(s * s - 4.0 * xi_prime * xi_prime, 0.0))
    lam_outer = Omega_prime * np.sqrt((s + root) / 2.0)
    lam_inner = Omega_prime * np.sqrt(max((s - root) / 2.0, 0.0))
    return np.array([-lam_outer, -lam_inner, lam_inner, lam_outer])


def test_criterion_8_atomic_eigenstructure():
    for xi in np.logspace(-3, 3, 61):
        rep = three_level_eigensystem(float(xi), 1.0)
        i0 = int(np.argmin(np.abs(rep.eigenvalues)))
        assert rep.excited_probabilities[i0] < 1e-12
        assert np.abs(np.sort(rep.eigenvalues)
                      - three_level_closed_form(float(xi), 1.0)).max() < 1e-12
    rng = np.random.default_rng(8)
    for _ in range(100):
        xi = float(rng.uniform(0.0, 6.0))
        numeric = np.linalg.eigvalsh(four_level_matrix(xi, 1.0))
        assert np.abs(numeric - four_level_closed_form(xi, 1.0)).max() < 1e-10
    assert len(four_level_eigensystem(0.0, 1.0).dark_states) == 2
    for xi in (1e-2, 0.5, 1.0, 5.0):
        assert four_level_eigensystem(xi, 1.0).dark_states == ()
    _report(8, "three-level dark state survives over xi in [1e-3, 1e3]; "
               "four-level closed forms verified; auxiliary level kills every "
               "dark state for xi' > 0")


def test_criterion_9_determinism_and_round_trip():
    axes = [SweepAxis("cavities.0.detuning", 0.8, 1.2, 4),
            SweepAxis("cavities.0.decay", 0.05, 0.5, 3)]
    bodies = {table_to_csv(run_sweep(n_type_config(), axes, ["n_f_1", "n_f_2", "stable"], j))
              for j in (1, 2, 4)}
    assert len(bodies) == 1
    for name in preset_names():
        document = get_preset(name).document
        if "atomic" in document:
            continue
        text = dump_config(config_from_dict(document))
        assert dump_config(config_from_dict(json.loads(text))) == text
    _report(9, "sweeps byte-identical at 1/2/4 workers; every preset dump is a "
               "parse/dump fixed point")
