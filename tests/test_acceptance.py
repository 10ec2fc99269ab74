"""End-to-end acceptance checks for the cooling toolkit.

Each test prints one PASS line on success so a full run reads as a
nine-line scorecard.  All quantitative targets are either inequality
anchors at the preset parameter points or oracle-pinned agreement bounds.
"""

import time

import numpy as np
import pytest

from omcool.atomic import (
    four_level_closed_form,
    four_level_eigensystem,
    four_level_matrix,
    three_level_closed_form,
    three_level_eigensystem,
)
from omcool.config_io import config_from_dict, dump_config
from omcool.darkmode import chain_modes, hybridize, tridiagonal_chain_frequencies
from omcool.lyapunov import integrate_covariance, phonon_numbers, solve_lyapunov
from omcool.model import build_drift_matrix, build_noise_matrix, compile_config
from omcool.presets import (
    chain_config,
    get_preset,
    n_type_config,
    network4_config,
    preset_names,
)
from omcool.results import table_to_csv
from omcool.sweep import SweepAxis, SweepSpec, run_sweep, run_taxonomy

import json


def _solve(config):
    model = compile_config(config)
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
    table = run_taxonomy(base, np.linspace(0.05, 1.0, 100))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0

    at_base = run_taxonomy(base)  # kappa = 0.1 from the base config
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


def test_criterion_6_hybrid_and_chain_identities():
    rng = np.random.default_rng(6)
    for _ in range(200):
        G1, G2 = rng.uniform(0.01, 1.0, 2)
        Gs1, Gs2 = rng.uniform(0.0, 1.0, 2)
        w1, w2, eta = rng.uniform(-2.0, 2.0, 3)
        h = hybridize(G1, G2, w1, w2, eta, Gs1, Gs2)
        assert abs(h.omega_plus + h.omega_minus - (w1 + w2)) < 1e-12
        assert abs(h.gs_plus**2 + h.gs_minus**2 - (Gs1**2 + Gs2**2)) < 1e-12
    for N in range(2, 51):
        l = np.arange(1, N + 1)
        for k in range(2, N + 1, 2):
            assert abs(np.sin(l * k * np.pi / (N + 1)).sum()) < 1e-12
    for N in (2, 3, 5, 10, 25, 50):
        ch = chain_modes(N, 1.0, 0.06, 0.05, 0.1)
        numeric = tridiagonal_chain_frequencies([1.0] * N, [0.06] * (N - 1))
        assert np.abs(np.sort(ch.frequencies) - numeric).max() < 1e-10
    _report(6, "hybrid conservation laws to 1e-12; chain parity sums vanish for "
               "N <= 50; closed-form chain frequencies match tridiagonal "
               "diagonalization to 1e-10")


def test_criterion_7_chain_cooling():
    for N in (3, 4):
        broken = _solve(chain_config(N))
        assert all(n < 1.0 for n in broken)
        assert broken[0] == min(broken)
        unbroken = _solve(chain_config(N, Gs=0.0, eta=0.0))
        assert all(n > 100.0 for n in unbroken)
    _report(7, "chains N=3,4 cool every mode below 1 (first mode coldest) with "
               "the auxiliary cavity and hopping on, stay above 100 without them")


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
    spec = SweepSpec(
        base=n_type_config(),
        axes=(SweepAxis("cavities.0.detuning", 0.8, 1.2, 4),
              SweepAxis("cavities.0.decay", 0.05, 0.5, 3)),
        outputs=("n_f_1", "n_f_2", "stable"),
    )
    bodies = {table_to_csv(run_sweep(spec, parallelism=j)) for j in (1, 2, 4)}
    assert len(bodies) == 1
    for name in preset_names():
        preset = get_preset(name)
        if preset.config is None:
            continue
        text = dump_config(preset.config)
        assert dump_config(config_from_dict(json.loads(text))) == text
    _report(9, "sweeps byte-identical at 1/2/4 workers; every preset dump is a "
               "parse/dump fixed point")
