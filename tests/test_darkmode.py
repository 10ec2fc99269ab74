"""Dark-mode conditions against the hybrid rotation, taxonomy, and chain
dark modes against the sine transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omcool.config_io import config_from_dict, config_to_dict, edge_ids
from omcool.darkmode import (
    DARK_COLUMNS,
    closed_channel_variants,
    dark_cells,
    dark_columns,
    dark_mode_condition,
)
from omcool.errors import ConfigError
from omcool.lyapunov import solve_lyapunov
from omcool.model import build_drift_matrix, build_noise_matrix, coupling_matrix
from omcool.presets import chain_config, n_type_config, network4_config
from omcool.sweep import run_solve, run_taxonomy

finite = st.floats(-2.0, 2.0, allow_nan=False)
frequency = st.floats(0.1, 2.0)
coupling = st.floats(0.01, 1.0)


def _mechanical_block(model):
    """H_m = diag(omega) + K[C:, C:]: the frequencies plus phonon hopping."""
    nc = model.n_cavities
    return np.diag(model.frequency) + coupling_matrix(model)[nc:, nc:].real


# ---------------------------------------------------------------------------
# residuals against the hybrid rotation (b1, b2) -> (B+, B-)

def test_symmetric_reduction():
    # G1 = G2 and omega1 = omega2: zeta vanishes, Gs- = Gs1 / sqrt(2)
    report = dark_mode_condition(n_type_config(Gs1=0.08))
    assert report["zeta_residual"] == pytest.approx(0.0, abs=1e-15)
    assert report["gs_minus_residual"] == pytest.approx(0.08 / np.sqrt(2))
    assert not report["dark"]


def test_frequency_mismatch_mixing():
    report = dark_mode_condition(n_type_config(omega2=1.1, Gs1=0.0))
    assert report["zeta_residual"] == pytest.approx(0.05)
    assert report["gs_minus_residual"] == 0.0
    assert not report["dark"]


def test_symmetric_network_defaults_dark():
    report = dark_mode_condition(network4_config())
    assert report["zeta_residual"] == pytest.approx(0.0, abs=1e-15)
    assert report["gs_minus_residual"] == pytest.approx(0.0, abs=1e-15)
    assert report["dark"]


def test_zero_couplings_rejected():
    model = network4_config(G1=0.0, G2=0.0)
    with pytest.raises(ConfigError, match="cavity c0 coupled to m0 or m1"):
        dark_mode_condition(model)


def test_complex_couplings_rejected():
    model = network4_config().write([("strength", 0)], [0.05 + 0.01j])
    with pytest.raises(ConfigError, match="real coupling strengths"):
        dark_mode_condition(model)


def test_report_cells_are_its_columns():
    # the report is its columns' cells, one per column in their order; a
    # refused analysis keeps its columns and leaves their cells empty, and
    # an inapplicable one has neither
    model = network4_config()
    assert tuple(dark_mode_condition(model)) == dark_columns(model) == DARK_COLUMNS
    assert dark_cells(model) == tuple(dark_mode_condition(model).values())
    for refused in (network4_config(G1=0.0, G2=0.0),
                    model.write([("strength", 0)], [0.05 + 0.01j])):
        assert dark_columns(refused) == DARK_COLUMNS
        assert dark_cells(refused) == (None,) * len(DARK_COLUMNS)
    assert dark_columns(chain_config(3)) == ()
    assert dark_cells(chain_config(3)) == ()


@settings(max_examples=100, deadline=None)
@given(coupling, coupling, coupling, coupling, frequency, frequency, finite)
def test_residuals_match_hybrid_rotation(G1, G2, Gs1, Gs2, omega1, omega2, eta):
    base = network4_config(omega2=omega2, G1=G1, G2=G2, Gs1=Gs1, Gs2=Gs2, eta=eta)
    model = base.write([("frequency", 0)], [omega1])
    report = dark_mode_condition(model)
    # B+ = (G1 b1 + G2 b2)/G+ carries the whole c0 coupling; zeta couples B-
    # to B+ and Gs- couples B- to the auxiliary cavity c1
    T = np.array([[G1, G2], [G2, -G1]]) / np.hypot(G1, G2)
    assert np.abs(T @ T.T - np.eye(2)).max() < 1e-14
    zeta = (T @ _mechanical_block(model) @ T.T)[0, 1]
    gs_minus = (T @ np.array([Gs1, Gs2]))[1]
    assert report["zeta_residual"] == pytest.approx(abs(zeta), abs=1e-12)
    assert report["gs_minus_residual"] == pytest.approx(abs(gs_minus), abs=1e-12)


# ---------------------------------------------------------------------------
# dark-mode condition

def test_proportional_couplings_dark():
    cfg = n_type_config(G1=0.04, G2=0.08, Gs1=0.03)
    # add Gs2 with Gs1/Gs2 = G1/G2
    cfg = network4_config(G1=0.04, G2=0.08, Gs1=0.03, Gs2=0.06, J=0.0, eta=0.0)
    report = dark_mode_condition(cfg)
    assert report["dark"]


def test_asymmetric_auxiliary_coupling_breaks():
    cfg = network4_config(Gs1=0.02, Gs2=0.08, J=0.0, eta=0.03)
    report = dark_mode_condition(cfg)
    assert not report["dark"]
    assert report["gs_minus_residual"] > 1e-10
    assert report["zeta_residual"] < 1e-15


def test_phonon_hop_with_unequal_couplings_breaks():
    cfg = network4_config(G1=0.04, G2=0.06, Gs1=0.0, Gs2=0.0, J=0.0, eta=0.03)
    report = dark_mode_condition(cfg)
    assert not report["dark"]
    assert report["zeta_residual"] > 1e-10


def test_photon_hop_never_enters():
    for J in (0.0, 0.03, 0.3):
        cfg = network4_config(Gs1=0.0, Gs2=0.0, J=J, eta=0.0)
        assert dark_mode_condition(cfg)["dark"]


def test_n_type_with_auxiliary_broken():
    assert not dark_mode_condition(n_type_config())["dark"]


def test_wrong_topology_rejected():
    with pytest.raises(ConfigError):
        dark_mode_condition(chain_config(3))
    # a third cavity on m1 cools both modes (n_f 0.66, 0.26), so the
    # two-cavity conditions, which read only c0 and c1, do not apply
    for base in (n_type_config(Gs1=0.0), network4_config()):
        doc = config_to_dict(base)
        doc["cavities"].append({"detuning": 1.0, "decay": 0.1})
        doc["edges"].append({"kind": "optomechanical", "endpoints": ["c2", "m1"],
                             "strength": 0.08})
        three = config_from_dict(doc)
        with pytest.raises(ConfigError, match="at most two cavities"):
            dark_mode_condition(three)
        assert "dark" not in run_solve(three).columns
    with pytest.raises(ConfigError, match="at most two cavities"):
        run_taxonomy(three)


# ---------------------------------------------------------------------------
# taxonomy

def _taxonomy(base):
    """(closed-channel set, dark flag) of each row of the taxonomy at the base
    decay rate, in row order."""
    table = run_taxonomy(base)
    rows = [dict(zip(table.columns, row)) for row in table.rows]
    return [(frozenset(row["closed_channels"].split("+")), row["dark"]) for row in rows]


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
    model = dict(closed_channel_variants(base))["J+Gs2"]
    by_key = {(kind, frozenset(ends)): s for (kind, ends), s in zip(edge_ids(base), model.strength)}
    assert by_key[("photon_hop", frozenset(("c0", "c1")))] == 0.0
    assert by_key[("optomechanical", frozenset(("c1", "m1")))] == 0.0
    assert by_key[("optomechanical", frozenset(("c1", "m0")))] == 0.08


# ---------------------------------------------------------------------------
# chain dark modes: the sine transform of a uniform chain

def _sine_modes(N):
    """T[l, k] = sin(l k pi / (N+1)) / sqrt((N+1)/2), l, k = 1..N: the normal
    modes B_k = sum_l T[l, k] b_l of a uniform chain with nearest-neighbour
    hopping eta, of frequency omega + 2 eta cos(k pi / (N+1))."""
    l = np.arange(1, N + 1)
    return np.sin(np.outer(l, l) * np.pi / (N + 1)) / np.sqrt((N + 1) / 2.0)


def _chain_frequencies(N, omega=1.0, eta=0.06):
    return omega + 2.0 * eta * np.cos(np.arange(1, N + 1) * np.pi / (N + 1))


def _sine_mode_occupations(model):
    """Occupations of the sine modes, projected from the product's covariance V."""
    V = solve_lyapunov(build_drift_matrix(model), build_noise_matrix(model))
    nc, m = model.n_cavities, model.n_modes
    T = _sine_modes(m - nc)
    x = T.T @ V[nc:m, nc:m] @ T
    p = T.T @ V[m + nc:, m + nc:] @ T
    return (np.diag(x) + np.diag(p)) / 2 - 0.5


def _cavity_couplings(N, cavity):
    """The couplings of cavity ``cavity`` to the sine modes of chain_config(N)."""
    model = chain_config(N)
    return _sine_modes(N).T @ coupling_matrix(model)[cavity, model.n_cavities:].real


def test_chain_two_resonators():
    H = _mechanical_block(chain_config(2))
    assert np.linalg.eigvalsh(H) == pytest.approx([0.94, 1.06])
    c0 = _cavity_couplings(2, 0)
    assert c0[0] == pytest.approx(np.sqrt(2) * 0.05)
    assert c0[1] == pytest.approx(0.0, abs=1e-14)


def test_chain_three_resonators():
    H = _mechanical_block(chain_config(3))
    assert np.linalg.eigvalsh(H)[1] == pytest.approx(1.0)  # cos(pi/2) = 0
    c0 = _cavity_couplings(3, 0)
    assert c0[1] == pytest.approx(0.0, abs=1e-14)
    # k=1 coupling: (G / sqrt(2)) (1 + sqrt(2))
    assert c0[0] == pytest.approx(0.05 / np.sqrt(2) * (1 + np.sqrt(2)))


def test_chain_auxiliary_coupling_never_vanishes():
    for N in (2, 3, 5, 10):
        assert np.abs(_cavity_couplings(N, 1)).min() > 1e-6
        # ... so the auxiliary cavity cools every sine mode, the dark ones too
        assert _sine_mode_occupations(chain_config(N)).max() < 0.01 * 1000.0


def test_chain_even_sine_modes_dark():
    for N in (2, 3, 4, 5, 10):
        assert np.abs(_cavity_couplings(N, 0)[1::2]).max() < 1e-14
        n = _sine_mode_occupations(chain_config(N, Gs=0.0))
        assert np.abs(n[1::2] / 1000.0 - 1.0).max() < 1e-9


def test_chain_transform_orthogonal_and_trace():
    for N in (2, 3, 7, 12):
        T = _sine_modes(N)
        H = _mechanical_block(chain_config(N))
        assert np.abs(T.T @ T - np.eye(N)).max() < 1e-12
        assert np.trace(H) == pytest.approx(N * 1.0, abs=1e-10)
        assert np.abs(T.T @ H @ T - np.diag(_chain_frequencies(N))).max() < 1e-12


def test_chain_parity_sums():
    for N in range(2, 51):
        l = np.arange(1, N + 1)
        for k in range(2, N + 1, 2):
            assert abs(np.sin(l * k * np.pi / (N + 1)).sum()) < 1e-12


def test_chain_frequencies_match_tridiagonal():
    for N in (2, 3, 5, 11, 50):
        H = _mechanical_block(chain_config(N))
        assert np.abs(np.linalg.eigvalsh(H) - np.sort(_chain_frequencies(N))).max() < 1e-14


def test_chain_minimum_size():
    with pytest.raises(ConfigError):
        chain_config(1)
