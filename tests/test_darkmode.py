"""Hybrid-mode transform, dark-mode conditions, taxonomy, chain modes."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omcool.darkmode import (
    chain_modes,
    closed_channel_variants,
    dark_mode_condition,
    hybridize,
    tridiagonal_chain_frequencies,
)
from omcool.errors import ConfigError
from omcool.model import CavityMode, CouplingEdge, compile_config
from omcool.presets import n_type_config, network4_config
from omcool.sweep import run_solve, run_taxonomy

finite = st.floats(-2.0, 2.0, allow_nan=False)
coupling = st.floats(0.01, 1.0)


# ---------------------------------------------------------------------------
# hybridize

def test_symmetric_reduction():
    h = hybridize(G1=0.05, G2=0.05, omega1=1.0, omega2=1.0, Gs1=0.08)
    assert h.zeta == pytest.approx(0.0, abs=1e-15)
    assert h.omega_plus == pytest.approx(1.0)
    assert h.omega_minus == pytest.approx(1.0)
    assert h.g_plus == pytest.approx(np.sqrt(2) * 0.05)
    assert h.gs_plus == pytest.approx(0.08 / np.sqrt(2))
    assert h.gs_minus == pytest.approx(0.08 / np.sqrt(2))


def test_frequency_mismatch_mixing():
    h = hybridize(G1=0.05, G2=0.05, omega1=1.0, omega2=1.1)
    assert h.zeta == pytest.approx(-0.05)


def test_symmetric_network_defaults_dark():
    h = hybridize(G1=0.05, G2=0.05, omega1=1.0, omega2=1.0,
                  eta=0.03, Gs1=0.08, Gs2=0.08)
    assert h.zeta == pytest.approx(0.0, abs=1e-15)
    assert h.gs_minus == pytest.approx(0.0, abs=1e-15)


def test_zero_couplings_rejected():
    with pytest.raises(ConfigError):
        hybridize(0.0, 0.0, 1.0, 1.0)


def test_complex_couplings_rejected():
    with pytest.raises(ConfigError):
        hybridize(0.05 + 0.01j, 0.05, 1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(coupling, coupling, coupling, coupling, finite, finite, finite)
def test_hybrid_conservation_laws(G1, G2, Gs1, Gs2, omega1, omega2, eta):
    h = hybridize(G1, G2, omega1, omega2, eta, Gs1, Gs2)
    # frequency sum and coupling norm are preserved by the rotation
    assert h.omega_plus + h.omega_minus == pytest.approx(omega1 + omega2, abs=1e-12)
    assert h.gs_plus**2 + h.gs_minus**2 == pytest.approx(Gs1**2 + Gs2**2, abs=1e-12)
    assert h.g_plus == pytest.approx(np.hypot(G1, G2), abs=1e-12)
    T = h.transform
    assert np.abs(T.T @ T - np.eye(2)).max() < 1e-14


# ---------------------------------------------------------------------------
# dark-mode condition

def test_proportional_couplings_dark():
    cfg = n_type_config(G1=0.04, G2=0.08, Gs1=0.03)
    # add Gs2 with Gs1/Gs2 = G1/G2
    cfg = network4_config(G1=0.04, G2=0.08, Gs1=0.03, Gs2=0.06, J=0.0, eta=0.0)
    report = dark_mode_condition(compile_config(cfg))
    assert report.dark_present


def test_asymmetric_auxiliary_coupling_breaks():
    cfg = network4_config(Gs1=0.02, Gs2=0.08, J=0.0, eta=0.03)
    report = dark_mode_condition(compile_config(cfg))
    assert not report.dark_present
    assert report.gs_minus_residual > 1e-10
    assert report.zeta_residual < 1e-15


def test_phonon_hop_with_unequal_couplings_breaks():
    cfg = network4_config(G1=0.04, G2=0.06, Gs1=0.0, Gs2=0.0, J=0.0, eta=0.03)
    report = dark_mode_condition(compile_config(cfg))
    assert not report.dark_present
    assert report.zeta_residual > 1e-10


def test_photon_hop_never_enters():
    for J in (0.0, 0.03, 0.3):
        cfg = network4_config(Gs1=0.0, Gs2=0.0, J=J, eta=0.0)
        assert dark_mode_condition(compile_config(cfg)).dark_present


def test_n_type_with_auxiliary_broken():
    assert not dark_mode_condition(compile_config(n_type_config())).dark_present


def test_wrong_topology_rejected():
    from omcool.presets import chain_config
    with pytest.raises(ConfigError):
        dark_mode_condition(compile_config(chain_config(3)))
    # a third cavity on m1 cools both modes (n_f 0.66, 0.26), so the
    # two-cavity conditions, which read only c0 and c1, do not apply
    for base in (n_type_config(Gs1=0.0), network4_config()):
        three = dataclasses.replace(
            base, cavities=base.cavities + (CavityMode(1.0, 0.1),),
            edges=base.edges + (CouplingEdge("optomechanical", ("c2", "m1"), 0.08),))
        with pytest.raises(ConfigError, match="at most two cavities"):
            dark_mode_condition(compile_config(three))
        assert "dark" not in run_solve(three).columns
    with pytest.raises(ConfigError, match="at most two cavities"):
        run_taxonomy(three)


# ---------------------------------------------------------------------------
# taxonomy

def _taxonomy(base):
    """(closed-channel set, dark flag) of each row of the taxonomy at the base
    decay rate, in row order."""
    table = run_taxonomy(base)
    return [(frozenset(label.split("+")), dark)
            for label, dark in zip(table.column("closed_channels"), table.column("dark"))]


def test_taxonomy_enumerates_fourteen():
    results = _taxonomy(network4_config())
    assert len(results) == 14
    sizes = [len(closed) for closed, _ in results]
    assert sizes == sorted(sizes)
    assert {tuple(sorted(c)) for c, _ in results} == {
        tuple(sorted(c))
        for c in map(frozenset, (
            {"J"}, {"eta"}, {"Gs1"}, {"Gs2"},
            {"J", "eta"}, {"J", "Gs1"}, {"J", "Gs2"},
            {"eta", "Gs1"}, {"eta", "Gs2"}, {"Gs1", "Gs2"},
            {"J", "eta", "Gs1"}, {"J", "eta", "Gs2"},
            {"J", "Gs1", "Gs2"}, {"eta", "Gs1", "Gs2"},
        ))
    }


def test_taxonomy_default_split():
    results = _taxonomy(network4_config())
    dark = {tuple(sorted(c)) for c, d in results if d}
    assert dark == {
        ("J",), ("eta",), ("J", "eta"),
        ("Gs1", "Gs2"), ("Gs1", "Gs2", "J"), ("Gs1", "Gs2", "eta"),
    }
    assert sum(not d for _, d in results) == 8


def test_taxonomy_unequal_couplings_eta_open_always_broken():
    base = network4_config(G1=0.04, G2=0.06)
    for closed, dark in _taxonomy(base):
        if "eta" not in closed:
            assert not dark


def test_taxonomy_no_auxiliary_all_dark():
    base = network4_config(Gs1=0.0, Gs2=0.0)
    # symmetric G1 = G2 and no auxiliary coupling: zeta and Gs- vanish
    # for every subset
    for _, dark in _taxonomy(base):
        assert dark


def test_closed_channels_zero_strength_slots():
    base = network4_config()
    model = dict(closed_channel_variants(compile_config(base)))["J+Gs2"]
    by_key = {(e.kind, frozenset(e.endpoints)): s for e, s in zip(base.edges, model.strength)}
    assert by_key[("photon_hop", frozenset(("c0", "c1")))] == 0.0
    assert by_key[("optomechanical", frozenset(("c1", "m1")))] == 0.0
    assert by_key[("optomechanical", frozenset(("c1", "m0")))] == 0.08


# ---------------------------------------------------------------------------
# chain modes

def test_chain_two_resonators():
    ch = chain_modes(2, omega_m=1.0, eta=0.06, G=0.05, Gs=0.1)
    assert ch.frequencies[0] == pytest.approx(1.06)
    assert ch.frequencies[1] == pytest.approx(0.94)
    assert ch.cavity_couplings[0] == pytest.approx(np.sqrt(2) * 0.05)
    assert ch.cavity_couplings[1] == pytest.approx(0.0, abs=1e-14)
    assert ch.dark_indices == (2,)


def test_chain_three_resonators():
    ch = chain_modes(3, omega_m=1.0, eta=0.06, G=0.05, Gs=0.1)
    assert ch.frequencies[1] == pytest.approx(1.0)  # cos(pi/2) = 0
    assert ch.cavity_couplings[1] == pytest.approx(0.0, abs=1e-14)
    # k=1 coupling: (G / sqrt(2)) (1 + sqrt(2))
    assert ch.cavity_couplings[0] == pytest.approx(0.05 / np.sqrt(2) * (1 + np.sqrt(2)))


def test_chain_auxiliary_coupling_never_vanishes():
    for N in (2, 3, 5, 10):
        ch = chain_modes(N, 1.0, 0.06, 0.05, 0.1)
        assert min(abs(c) for c in ch.aux_couplings) > 1e-6


def test_chain_transform_orthogonal_and_trace():
    for N in (2, 3, 7, 12):
        ch = chain_modes(N, 1.0, 0.06, 0.05, 0.1)
        T = ch.transform
        assert np.abs(T.T @ T - np.eye(N)).max() < 1e-12
        assert sum(ch.frequencies) == pytest.approx(N * 1.0, abs=1e-10)


def test_chain_parity_sums():
    for N in range(2, 51):
        l = np.arange(1, N + 1)
        for k in range(2, N + 1, 2):
            assert abs(np.sin(l * k * np.pi / (N + 1)).sum()) < 1e-12


def test_chain_frequencies_match_tridiagonal():
    for N in (2, 3, 5, 11):
        ch = chain_modes(N, 1.0, 0.06, 0.05, 0.1)
        numeric = tridiagonal_chain_frequencies([1.0] * N, [0.06] * (N - 1))
        assert np.abs(np.sort(ch.frequencies) - numeric).max() < 1e-10


def test_chain_minimum_size():
    with pytest.raises(ConfigError):
        chain_modes(1, 1.0, 0.06, 0.05, 0.1)


def test_tridiagonal_shape_check():
    with pytest.raises(ConfigError):
        tridiagonal_chain_frequencies([1.0, 1.0], [0.1, 0.1])
