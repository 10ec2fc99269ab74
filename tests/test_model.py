"""Configuration validation, steady-state amplitudes, and matrix assembly."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import fsolve

from omcool.errors import ConfigError
from omcool.lyapunov import phonon_numbers, solve_lyapunov
from omcool.model import (
    CavityMode,
    CouplingEdge,
    MechanicalMode,
    SystemConfig,
    build_drift_matrix,
    build_noise_matrix,
    effective_config,
    solve_steady_amplitudes,
    validate_config,
)
from omcool.presets import chain_config, n_type_config, network4_config


# ---------------------------------------------------------------------------
# validation

def test_n_type_config_is_valid():
    cfg = n_type_config()
    assert validate_config(cfg) is cfg
    assert cfg.topology == "n_type"
    assert cfg.n_cavities == 2 and cfg.n_mechanicals == 2


def test_kind_mismatch_rejected():
    cfg = dataclasses.replace(
        n_type_config(),
        edges=(CouplingEdge("phonon_hop", ("c0", "m0"), 0.1),),
    )
    with pytest.raises(ConfigError, match="kind mismatch"):
        validate_config(cfg)


def test_empty_mode_list_rejected():
    cfg = SystemConfig(cavities=(CavityMode(1.0, 0.1),), mechanicals=(), edges=())
    with pytest.raises(ConfigError, match="empty mode list"):
        validate_config(cfg)


def test_dangling_endpoint_rejected():
    cfg = dataclasses.replace(
        n_type_config(),
        edges=(CouplingEdge("optomechanical", ("c0", "m7"), 0.1),),
    )
    with pytest.raises(ConfigError, match="dangling"):
        validate_config(cfg)


def test_self_loop_rejected():
    cfg = dataclasses.replace(
        network4_config(),
        edges=(CouplingEdge("photon_hop", ("c0", "c0"), 0.1),),
    )
    with pytest.raises(ConfigError, match="self-loop"):
        validate_config(cfg)


def test_duplicate_edge_rejected():
    cfg = dataclasses.replace(
        n_type_config(),
        edges=(
            CouplingEdge("optomechanical", ("c0", "m0"), 0.1),
            CouplingEdge("optomechanical", ("c0", "m0"), 0.2),
        ),
    )
    with pytest.raises(ConfigError, match="duplicate"):
        validate_config(cfg)


def test_negative_rates_rejected():
    with pytest.raises(ConfigError, match="decay"):
        validate_config(SystemConfig(
            cavities=(CavityMode(1.0, -0.1),),
            mechanicals=(MechanicalMode(1.0, 1e-5),), edges=()))
    with pytest.raises(ConfigError, match="frequency"):
        validate_config(SystemConfig(
            cavities=(CavityMode(1.0, 0.1),),
            mechanicals=(MechanicalMode(0.0, 1e-5),), edges=()))


@pytest.mark.parametrize("mode_id", ["m00", "m+0", "m-0", "m 0", "m0 ", "m0\n", "m\u0660", "c01", "m"])
def test_noncanonical_mode_id_rejected(mode_id):
    cfg = dataclasses.replace(
        n_type_config(),
        edges=(CouplingEdge("optomechanical", ("c0", mode_id), 0.1),),
    )
    with pytest.raises(ConfigError, match="malformed mode id"):
        validate_config(cfg)


def test_aliased_mode_id_cannot_duplicate_edge():
    # "m00" once parsed as m0, so c0-m0 and c0-m00 added silently in A
    cfg = dataclasses.replace(
        n_type_config(),
        edges=(
            CouplingEdge("optomechanical", ("c0", "m0"), 0.1),
            CouplingEdge("optomechanical", ("c0", "m00"), 0.2),
        ),
    )
    with pytest.raises(ConfigError, match="malformed mode id 'm00'"):
        validate_config(cfg)


_NUMERIC_FIELDS = [
    ("cavities", "detuning"),
    ("cavities", "decay"),
    ("cavities", "drive_amplitude"),
    ("mechanicals", "frequency"),
    ("mechanicals", "damping"),
    ("mechanicals", "thermal_occupation"),
    ("edges", "strength"),
]


@pytest.mark.parametrize(
    "section, field, value",
    [(sec, fld, v) for sec, fld in _NUMERIC_FIELDS
     for v in (float("nan"), float("inf"), float("-inf"))]
    + [("cavities", "drive_amplitude", complex(60.0, float("nan"))),
       ("edges", "strength", complex(0.05, float("inf")))],
)
def test_non_finite_input_rejected(section, field, value):
    base = n_type_config()
    items = list(getattr(base, section))
    items[-1] = dataclasses.replace(items[-1], **{field: value})
    cfg = dataclasses.replace(base, **{section: tuple(items)})
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        validate_config(cfg)


def test_canonical_mode_index_order():
    cfg = n_type_config()
    assert [cfg.mode_index(m) for m in ("c0", "c1", "m0", "m1")] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# steady-state amplitudes (physical mode)

def _physical_n_type(omega_c=1.0, omega_s=1.0, g=5e-4, gs=8e-4, drive=60.0, drive_s=80.0):
    return SystemConfig(
        cavities=(CavityMode(omega_c, 0.1, drive), CavityMode(omega_s, 0.1, drive_s)),
        mechanicals=(MechanicalMode(1.0, 1e-5, 1000.0), MechanicalMode(1.0, 1e-5, 1000.0)),
        edges=(
            CouplingEdge("optomechanical", ("c0", "m0"), g),
            CouplingEdge("optomechanical", ("c0", "m1"), g),
            CouplingEdge("optomechanical", ("c1", "m0"), gs),
        ),
        parameter_mode="physical",
        topology="n_type",
    )


def test_no_drive_gives_zero_amplitudes():
    cfg = _physical_n_type(drive=0.0, drive_s=0.0)
    amps = solve_steady_amplitudes(cfg)
    assert all(a == 0 for a in amps.cavity_amplitudes)
    assert all(b == 0 for b in amps.mechanical_displacements)
    assert amps.effective_detunings == (1.0, 1.0)


def test_single_driven_cavity_closed_form():
    # alpha = -i Omega / (kappa + i Delta) with Delta = 0, kappa = 1, Omega = 1
    cfg = SystemConfig(
        cavities=(CavityMode(0.0, 1.0, 1.0),),
        mechanicals=(MechanicalMode(1.0, 1e-5),),
        edges=(),
        parameter_mode="physical",
    )
    amps = solve_steady_amplitudes(cfg)
    assert amps.cavity_amplitudes[0] == pytest.approx(-1j, abs=1e-12)


def test_amplitudes_match_root_finding_oracle():
    cfg = _physical_n_type()
    amps = solve_steady_amplitudes(cfg)

    g, gs = 5e-4, 8e-4

    def equations(x):
        a0 = x[0] + 1j * x[1]
        a1 = x[2] + 1j * x[3]
        b0 = x[4] + 1j * x[5]
        b1 = x[6] + 1j * x[7]
        d0 = 1.0 + 2.0 * (g * b0).real + 2.0 * (g * b1).real
        d1 = 1.0 + 2.0 * (gs * b0).real
        r = [
            (0.1 + 1j * d0) * a0 + 1j * 60.0,
            (0.1 + 1j * d1) * a1 + 1j * 80.0,
            (1e-5 + 1j) * b0 + 1j * (g * abs(a0) ** 2 + gs * abs(a1) ** 2),
            (1e-5 + 1j) * b1 + 1j * g * abs(a0) ** 2,
        ]
        return [w for z in r for w in (z.real, z.imag)]

    sol = fsolve(equations, np.zeros(8), xtol=1e-13)
    alpha_oracle = (sol[0] + 1j * sol[1], sol[2] + 1j * sol[3])
    beta_oracle = (sol[4] + 1j * sol[5], sol[6] + 1j * sol[7])
    for got, want in zip(amps.cavity_amplitudes, alpha_oracle):
        assert abs(got - want) < 1e-10
    for got, want in zip(amps.mechanical_displacements, beta_oracle):
        assert abs(got - want) < 1e-10


def test_linearized_couplings_and_phases():
    cfg = _physical_n_type()
    amps = solve_steady_amplitudes(cfg)
    for G, phi in zip(amps.linearized_couplings, amps.coupling_phases):
        rotated = G * np.exp(-1j * phi)
        assert rotated.imag == pytest.approx(0.0, abs=1e-12)
        assert rotated.real >= 0


def test_effective_mode_rejects_amplitude_solve():
    with pytest.raises(ConfigError):
        solve_steady_amplitudes(n_type_config())


def test_physical_effective_consistency():
    cfg = _physical_n_type()
    amps = solve_steady_amplitudes(cfg)
    A_phys = build_drift_matrix(cfg, amps).entries
    A_eff = build_drift_matrix(effective_config(cfg, amps)).entries
    assert np.abs(A_phys - A_eff).max() < 1e-10


# ---------------------------------------------------------------------------
# drift matrix

def test_decoupled_drift_matrix_is_diagonal():
    cfg = dataclasses.replace(n_type_config(), edges=())
    A = build_drift_matrix(cfg).entries
    expected = np.diag([
        -(0.1 + 1j), -(0.1 + 1j), -(1e-5 + 1j), -(1e-5 + 1j),
        -(0.1 - 1j), -(0.1 - 1j), -(1e-5 - 1j), -(1e-5 - 1j),
    ])
    assert np.abs(A - expected).max() < 1e-14


def test_photon_hop_entry():
    A = build_drift_matrix(network4_config(J=0.03))
    assert A.E[0, 1] == pytest.approx(-0.03j, abs=1e-15)
    assert A.E[1, 0] == pytest.approx(-0.03j, abs=1e-15)


def test_counter_rotating_block_positions():
    # 0-based first-block positions of the N-type F block:
    # (0,2),(0,3),(1,2),(2,0),(2,1),(3,0)
    F = build_drift_matrix(n_type_config()).F
    nonzero = set(zip(*np.nonzero(np.abs(F) > 0)))
    assert nonzero == {(0, 2), (0, 3), (1, 2), (2, 0), (2, 1), (3, 0)}


def test_optomechanical_entries():
    A = build_drift_matrix(n_type_config(G1=0.05))
    assert A.E[0, 2] == pytest.approx(-0.05j)
    assert A.E[2, 0] == pytest.approx(-0.05j)
    assert A.F[0, 2] == pytest.approx(-0.05j)
    assert A.F[2, 0] == pytest.approx(-0.05j)


@st.composite
def random_configs(draw):
    nc = draw(st.integers(1, 3))
    nm = draw(st.integers(1, 3))
    rate = st.floats(0.01, 2.0)
    strength = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)
    cavities = tuple(CavityMode(draw(rate), draw(rate)) for _ in range(nc))
    mechanicals = tuple(MechanicalMode(draw(rate), draw(rate), draw(rate)) for _ in range(nm))
    pairs = [("optomechanical", (f"c{i}", f"m{j}")) for i in range(nc) for j in range(nm)]
    pairs += [("photon_hop", (f"c{i}", f"c{j}")) for i in range(nc) for j in range(i + 1, nc)]
    pairs += [("phonon_hop", (f"m{i}", f"m{j}")) for i in range(nm) for j in range(i + 1, nm)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique_by=lambda p: p[1], max_size=len(pairs)))
    edges = tuple(CouplingEdge(kind, ep, draw(strength)) for kind, ep in chosen)
    return SystemConfig(cavities=cavities, mechanicals=mechanicals, edges=edges)


@settings(max_examples=50, deadline=None)
@given(random_configs())
def test_block_conjugation_property(cfg):
    A = build_drift_matrix(cfg)
    m = A.half
    assert np.abs(A.entries[m:, m:] - np.conj(A.entries[:m, :m])).max() < 1e-14
    assert np.abs(A.entries[m:, :m] - np.conj(A.entries[:m, m:])).max() < 1e-14


@settings(max_examples=50, deadline=None)
@given(random_configs())
def test_noise_matrix_symmetric(cfg):
    Q = build_noise_matrix(cfg).entries
    assert np.array_equal(Q, Q.T)


def test_hop_symmetry_real_strengths():
    A = build_drift_matrix(network4_config())
    assert A.E[0, 1] == A.E[1, 0]  # photon hop
    assert A.E[2, 3] == A.E[3, 2]  # phonon hop


# ---------------------------------------------------------------------------
# noise matrix

def test_noise_matrix_four_mode_values():
    Q = build_noise_matrix(n_type_config()).entries
    # mechanical m0 sits at index 2, its dagger at 6: gamma (2 nbar + 1)
    assert Q[2, 6] == pytest.approx(1e-5 * 2001.0)
    assert Q[6, 2] == pytest.approx(1e-5 * 2001.0)
    assert Q[0, 4] == pytest.approx(0.1)  # cavity decay
    # everything else zero
    mask = np.ones_like(Q, dtype=bool)
    for i in (0, 1, 2, 3):
        mask[i, i + 4] = mask[i + 4, i] = False
    assert np.abs(Q[mask]).max() == 0.0


def test_noise_matrix_vacuum_bath():
    cfg = SystemConfig(
        cavities=(CavityMode(1.0, 0.1),),
        mechanicals=(MechanicalMode(1.0, 1e-3, 0.0),),
        edges=(),
    )
    Q = build_noise_matrix(cfg).entries
    assert Q[1, 3] == pytest.approx(1e-3)
    assert Q[3, 1] == pytest.approx(1e-3)


def test_noise_matrix_chain_block_structure():
    cfg = chain_config(3)
    Q = build_noise_matrix(cfg).entries
    m = 5
    assert np.abs(Q[:m, :m]).max() == 0.0
    assert np.abs(Q[m:, m:]).max() == 0.0
    assert np.array_equal(Q[:m, m:], np.diag(np.diag(Q[:m, m:])))


def test_zero_coupling_thermal_equilibrium():
    cfg = dataclasses.replace(n_type_config(), edges=())
    V = solve_lyapunov(build_drift_matrix(cfg), build_noise_matrix(cfg))
    report = phonon_numbers(V, cfg)
    for n in report.mechanical:
        assert n == pytest.approx(1000.0, rel=1e-8)
