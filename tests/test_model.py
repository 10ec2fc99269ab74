"""Configuration validation, the compiled model and its write path,
steady-state amplitudes, and matrix assembly."""

import copy
import json
import itertools
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import fsolve

from omcool import config_io
from omcool.cli import main
from omcool.config_io import axis_slot, config_from_dict, config_to_dict, dump_config
from omcool.errors import ConfigError, ConvergenceError
from omcool.lyapunov import phonon_numbers, solve_lyapunov
from omcool.model import (
    AMPLITUDE_DAMPING,
    AMPLITUDE_MAX_ITER,
    AMPLITUDE_TOL,
    assembly,
    build_drift_matrix,
    build_noise_matrix,
    coupling_matrix,
    linearized,
    solve_steady_amplitudes,
)
from omcool.darkmode import dark_mode_condition
from omcool.presets import chain_config, get_preset, n_type_config, network4_config
from omcool.sweep import SweepAxis, point_plan, run_solve, run_sweep, solve_record


# ---------------------------------------------------------------------------
# config documents given as tuples

def _number(value):
    """A number as a document writes it: a complex one as [re, im]."""
    return [value.real, value.imag] if isinstance(value, complex) else value


def _document(cavities, mechanicals, edges=(), **top) -> dict:
    """A config document: (detuning, decay[, drive]) per cavity, (frequency,
    damping, thermal_occupation) per mechanical mode and (kind, endpoints,
    strength) per edge; ``top`` sets parameter_mode and topology."""
    return {
        "cavities": [dict(zip(("detuning", "decay", "drive_amplitude"), map(_number, cav)))
                     for cav in cavities],
        "mechanicals": [dict(zip(("frequency", "damping", "thermal_occupation"), mech))
                        for mech in mechanicals],
        "edges": [{"kind": kind, "endpoints": list(ends), "strength": _number(strength)}
                  for kind, ends, strength in edges],
        **top,
    }


def _with_edges(model, *edges) -> dict:
    """The document of ``model`` with its edges replaced."""
    doc = config_to_dict(model)
    doc["edges"] = _document((), (), edges)["edges"]
    return doc


# ---------------------------------------------------------------------------
# validation

def test_n_type_config_is_valid():
    cfg = n_type_config()  # a preset enters through config_from_dict, as a file does
    assert dump_config(config_from_dict(config_to_dict(cfg))) == dump_config(cfg)
    assert cfg.topology == "n_type"
    assert cfg.n_cavities == 2 and cfg.n_mechanicals == 2


def test_kind_mismatch_rejected():
    doc = _with_edges(n_type_config(), ("phonon_hop", ("c0", "m0"), 0.1))
    with pytest.raises(ConfigError, match="kind mismatch"):
        config_from_dict(doc)


def test_empty_mode_list_rejected():
    doc = _document([(1.0, 0.1)], [])
    with pytest.raises(ConfigError, match="empty mode list"):
        config_from_dict(doc)


def test_dangling_endpoint_rejected():
    doc = _with_edges(n_type_config(), ("optomechanical", ("c0", "m7"), 0.1))
    with pytest.raises(ConfigError, match="dangling"):
        config_from_dict(doc)


def test_self_loop_rejected():
    doc = _with_edges(network4_config(), ("photon_hop", ("c0", "c0"), 0.1))
    with pytest.raises(ConfigError, match="self-loop"):
        config_from_dict(doc)


def test_duplicate_edge_rejected():
    doc = _with_edges(n_type_config(), ("optomechanical", ("c0", "m0"), 0.1),
                      ("optomechanical", ("c0", "m0"), 0.2))
    with pytest.raises(ConfigError, match="duplicate"):
        config_from_dict(doc)


def test_negative_rates_rejected():
    with pytest.raises(ConfigError, match="decay"):
        config_from_dict(_document([(1.0, -0.1)], [(1.0, 1e-5, 0.0)]))
    with pytest.raises(ConfigError, match="frequency"):
        config_from_dict(_document([(1.0, 0.1)], [(0.0, 1e-5, 0.0)]))


@pytest.mark.parametrize("mode_id", ["m00", "m+0", "m-0", "m 0", "m0 ", "m0\n", "m\u0660", "c01", "m"])
def test_noncanonical_mode_id_rejected(mode_id):
    doc = _with_edges(n_type_config(), ("optomechanical", ("c0", mode_id), 0.1))
    with pytest.raises(ConfigError, match="malformed mode id"):
        config_from_dict(doc)


def test_aliased_mode_id_cannot_duplicate_edge():
    # "m00" once parsed as m0, so c0-m0 and c0-m00 added silently in A
    doc = _with_edges(n_type_config(), ("optomechanical", ("c0", "m0"), 0.1),
                      ("optomechanical", ("c0", "m00"), 0.2))
    with pytest.raises(ConfigError, match="malformed mode id 'm00'"):
        config_from_dict(doc)


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
    doc = config_to_dict(n_type_config())
    doc[section][-1][field] = _number(value)
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        config_from_dict(doc)


def test_canonical_mode_index_order():
    edges = [("optomechanical", ("c1", "m1"), 0.1), ("photon_hop", ("c1", "c0"), 0.1),
             ("phonon_hop", ("m1", "m0"), 0.1), ("optomechanical", ("c0", "m0"), 0.1)]
    model = config_from_dict(_document([(1.0, 0.1)] * 2, [(1.0, 1e-5, 0.0)] * 2, edges))
    index = {}
    for (_, ends, _), i, j in zip(edges, model.edge_i, model.edge_j):
        index[ends[0]], index[ends[1]] = i, j
    assert [index[m] for m in ("c0", "c1", "m0", "m1")] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# steady-state amplitudes (physical mode)

def _physical_n_type(omega_c=1.0, omega_s=1.0, g=5e-4, gs=8e-4, drive=60.0, drive_s=80.0):
    return config_from_dict(_document(
        [(omega_c, 0.1, drive), (omega_s, 0.1, drive_s)],
        [(1.0, 1e-5, 1000.0), (1.0, 1e-5, 1000.0)],
        [("optomechanical", ("c0", "m0"), g), ("optomechanical", ("c0", "m1"), g),
         ("optomechanical", ("c1", "m0"), gs)],
        parameter_mode="physical", topology="n_type",
    ))


def test_no_drive_gives_zero_amplitudes():
    cfg = _physical_n_type(drive=0.0, drive_s=0.0)
    amps = solve_steady_amplitudes(cfg)
    assert all(a == 0 for a in amps.cavity_amplitudes)
    assert all(b == 0 for b in amps.mechanical_displacements)
    assert amps.effective_detunings == (1.0, 1.0)


def test_single_driven_cavity_closed_form():
    # alpha = -i Omega / (kappa + i Delta) with Delta = 0, kappa = 1, Omega = 1
    cfg = config_from_dict(_document([(0.0, 1.0, 1.0)], [(1.0, 1e-5, 0.0)],
                                     parameter_mode="physical"))
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


def test_effective_mode_rejects_amplitude_solve():
    with pytest.raises(ConfigError):
        solve_steady_amplitudes(n_type_config())


def test_amplitude_iteration_gives_up_at_the_cap():
    # the drive at which the CLI sweep tests reach exit 5
    with pytest.raises(ConvergenceError, match="within 10000 iterations"):
        solve_steady_amplitudes(_physical_n_type(drive=3000.0))


def _dense_amplitudes(model, steps=0):
    """Oracle for the scalar step: the same damped iteration, with each step
    one dense product of the step matrix and w = (alpha, beta, |alpha|^2).
    Returns z = (alpha, beta) at the stop, the number of steps taken, and
    the largest update of every step; with steps, it iterates on past the
    stop to record the updates of at least that many steps."""
    nc, m = model.n_cavities, model.n_modes
    K = coupling_matrix(model)
    g = K[:nc, nc:]
    step = np.zeros((2 * m, m + nc), dtype=complex)
    step[:nc, :nc] = K[:nc, :nc]
    step[nc:m, nc:m] = K[nc:, nc:]
    step[nc:m, m:] = g.T
    step[m:m + nc, nc:m] = 2.0 * np.conj(g)
    drive = np.concatenate((model.drive, np.zeros(m - nc)))
    rates = (np.concatenate((model.decay, model.damping))
             + 1j * np.concatenate((model.detuning, model.frequency)))
    z = np.zeros(m, dtype=complex)
    stop, updates = None, []
    for iterations in range(1, AMPLITUDE_MAX_ITER + 1):
        out = step @ np.concatenate((z, np.abs(z[:nc]) ** 2))
        z_new = -1j * (drive + out[:m]) / (rates + 1j * out[m:].real)
        updates.append(np.abs(z_new - z).max())
        if stop is None and updates[-1] < AMPLITUDE_TOL:
            stop = z_new, iterations
        if stop is not None and iterations >= steps:
            return *stop, updates
        z = AMPLITUDE_DAMPING * z + (1.0 - AMPLITUDE_DAMPING) * z_new
    raise ConvergenceError(f"did not converge within {AMPLITUDE_MAX_ITER} iterations")


def _phasor(magnitude):
    """A complex number of the drawn magnitude and a drawn phase."""
    return st.builds(lambda r, phi: complex(r * np.cos(phi), r * np.sin(phi)),
                     magnitude, st.floats(0.0, 2.0 * np.pi))


_PHYSICAL_SHAPES = [n_type_config(), network4_config(), *map(chain_config, range(3, 7))]


@st.composite
def physical_documents(draw):
    """An n_type, network4 or 3-6 resonator chain document in physical mode,
    with complex drives of magnitude 10-10^2.5, complex hops, and
    single-photon couplings of order 1e-3."""
    doc = config_to_dict(draw(st.sampled_from(_PHYSICAL_SHAPES)))
    doc["parameter_mode"] = "physical"
    for cav in doc["cavities"]:
        cav["detuning"] = draw(st.floats(0.8, 1.2))
        cav["drive_amplitude"] = _number(draw(_phasor(st.floats(1.0, 2.5).map(lambda e: 10.0 ** e))))
    for edge in doc["edges"]:
        size = 1e-3 if edge["kind"] == "optomechanical" else 0.03
        edge["strength"] = _number(draw(_phasor(st.floats(0.1 * size, size))))
    return doc


@settings(max_examples=40, deadline=None)
@given(physical_documents())
@example(config_to_dict(_physical_n_type(drive=3000.0)))  # neither converges
def test_scalar_step_matches_dense_step_oracle(doc):
    model = config_from_dict(doc)
    try:
        amps = solve_steady_amplitudes(model)
    except ConvergenceError as exc:
        assert "did not converge" in str(exc)
        with pytest.raises(ConvergenceError):
            _dense_amplitudes(model)
        return
    want, want_iterations, updates = _dense_amplitudes(model, steps=amps.iterations)
    got = np.array(amps.cavity_amplitudes + amps.mechanical_displacements)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-12 * scale
    # the two solvers round each step differently, by a few eps |z|; the
    # stops may differ only by steps whose update that puts on either side
    # of AMPLITUDE_TOL (a slowly contracting iteration can have several)
    first, last = sorted((amps.iterations, want_iterations))
    slack = 16 * np.finfo(float).eps * scale
    assert all(abs(u - AMPLITUDE_TOL) <= slack for u in updates[first - 1:last - 1])


def _effective_translation(model, amps):
    """Reference for linearized: the effective-mode model of a solved
    physical-mode point (Delta' detunings, G = g * alpha), rebuilt through
    its document."""
    doc = config_to_dict(model)
    for cav, d in zip(doc["cavities"], amps.effective_detunings):
        cav.pop("drive_amplitude", None)
        cav["detuning"] = d
    couplings = iter(amps.linearized_couplings)
    for edge in doc["edges"]:
        if edge["kind"] == "optomechanical":
            edge["strength"] = _number(next(couplings))
    doc["parameter_mode"] = "effective"
    return config_from_dict(doc)


def test_physical_effective_consistency():
    model = _physical_n_type()
    amps = solve_steady_amplitudes(model)
    A_phys = build_drift_matrix(linearized(model, amps))
    A_eff = build_drift_matrix(_effective_translation(model, amps))
    assert np.abs(A_phys - A_eff).max() < 1e-10
    with pytest.raises(ConfigError, match="requires steady-state amplitudes"):
        build_drift_matrix(model)
    with pytest.raises(ConfigError, match="physical-mode model"):
        linearized(n_type_config(), amps)


# Network-coupled four-mode system with complex hops and a complex drive.
_NET4_G = {("c0", "m0"): 5e-4, ("c0", "m1"): 4e-4, ("c1", "m0"): 8e-4, ("c1", "m1"): 6e-4}
_NET4_J = 0.02 + 0.015j
_NET4_ETA = 0.01 - 0.012j


def _hop(kind, ends, strength, reverse):
    """A hop edge written forward, or reversed with the conjugate strength:
    both describe the same coupling."""
    if reverse:
        return kind, ends[::-1], strength.conjugate()
    return kind, ends, strength


def _physical_network4(reverse_j=False, reverse_eta=False):
    return config_from_dict(_document(
        [(1.0, 0.1, 60.0), (0.9, 0.15, 30.0 + 25.0j)],
        [(1.0, 1e-5, 1000.0), (1.05, 1e-5, 1000.0)],
        [("optomechanical", ends, g) for ends, g in _NET4_G.items()]
        + [_hop("photon_hop", ("c0", "c1"), _NET4_J, reverse_j),
           _hop("phonon_hop", ("m0", "m1"), _NET4_ETA, reverse_eta)],
        parameter_mode="physical", topology="network4",
    ))


# the direction each of the two hops is written in
_HOP_DIRECTIONS = pytest.mark.parametrize("reverse_j, reverse_eta", [
    (False, False), (True, False), (False, True), (True, True),
], ids=["c0c1-m0m1", "c1c0-m0m1", "c0c1-m1m0", "c1c0-m1m0"])


@_HOP_DIRECTIONS
def test_network4_amplitudes_match_root_finding_oracle(reverse_j, reverse_eta):
    cfg = _physical_network4(reverse_j, reverse_eta)
    amps = solve_steady_amplitudes(cfg)
    g = {(int(c[1]), int(m[1])): v for (c, m), v in _NET4_G.items()}

    def equations(x):
        a = (x[0] + 1j * x[1], x[2] + 1j * x[3])
        b = (x[4] + 1j * x[5], x[6] + 1j * x[7])
        d = [cfg.detuning[c] + 2.0 * sum((np.conj(g[c, m]) * b[m]).real for m in (0, 1))
             for c in (0, 1)]
        photon = (_NET4_J * a[1], np.conj(_NET4_J) * a[0])
        phonon = (_NET4_ETA * b[1], np.conj(_NET4_ETA) * b[0])
        r = [(cfg.decay[c] + 1j * d[c]) * a[c] + 1j * (cfg.drive[c] + photon[c])
             for c in (0, 1)]
        r += [(cfg.damping[m] + 1j * cfg.frequency[m]) * b[m]
              + 1j * (sum(g[c, m] * abs(a[c]) ** 2 for c in (0, 1)) + phonon[m])
              for m in (0, 1)]
        return [w for z in r for w in (z.real, z.imag)]

    sol = fsolve(equations, np.zeros(8), xtol=1e-13)
    assert np.abs(equations(sol)).max() < 1e-9
    oracle = sol[0::2] + 1j * sol[1::2]
    for got, want in zip(amps.cavity_amplitudes + amps.mechanical_displacements, oracle):
        assert abs(got - want) < 1e-10


@_HOP_DIRECTIONS
def test_network4_physical_drift_matrix_is_effective_translation(reverse_j, reverse_eta):
    model = _physical_network4(reverse_j, reverse_eta)
    amps = solve_steady_amplitudes(model)
    A_phys = build_drift_matrix(linearized(model, amps))
    A_eff = build_drift_matrix(_effective_translation(model, amps))
    assert np.array_equal(A_phys, A_eff)
    forward = _physical_network4()
    A_forward = build_drift_matrix(linearized(forward, solve_steady_amplitudes(forward)))
    assert A_phys.tobytes() == A_forward.tobytes()


@pytest.mark.parametrize("physical", [False, True], ids=["effective", "physical"])
def test_solve_record_rejects_invalid_config(physical):
    bad = config_to_dict(_physical_n_type() if physical else n_type_config())
    bad["cavities"][0]["decay"] = -1.0
    with pytest.raises(ConfigError, match="decay must be >= 0"):
        config_from_dict(bad)  # refused where it enters, so no solve_record sees it


def _count_calls(monkeypatch, fn) -> list:
    """Route every module-level binding of ``fn`` in omcool through one
    counting wrapper; the returned list grows by the first argument of each
    call."""
    calls = []

    def counting(first, *rest):
        calls.append(first)
        return fn(first, *rest)

    for name, module in list(sys.modules.items()):
        if name.startswith("omcool") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


@pytest.mark.parametrize("physical", [False, True], ids=["effective", "physical"])
def test_solve_record_validates_once(monkeypatch, physical):
    doc = config_to_dict(_physical_n_type() if physical else n_type_config())
    calls = _count_calls(monkeypatch, config_from_dict)
    model = config_io.config_from_dict(doc)
    record = solve_record(model, point_plan(model, ()))
    assert "dark" in record  # the dark-mode stage ran too
    assert calls == [doc]


def test_serial_sweep_validates_base_and_each_point_once(monkeypatch):
    k = 4
    calls = _count_calls(monkeypatch, config_from_dict)
    table = run_sweep(n_type_config(), [SweepAxis("cavities.0.decay", 0.05, 1.0, k)],
                      parallelism=1)
    assert len(list(table.rows)) == k
    assert len(calls) == 1  # the base, where it enters; no point re-validates
    assert calls[0]["topology"] == "n_type"


@pytest.mark.parametrize("physical", [False, True], ids=["effective", "physical"])
def test_solve_verb_validates_document_once(monkeypatch, tmp_path, physical):
    path = tmp_path / "config.json"
    path.write_text(dump_config(_physical_n_type() if physical else n_type_config()))
    calls = _count_calls(monkeypatch, config_from_dict)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    assert calls == [json.loads(path.read_text())]  # by parse_config, where it enters


# ---------------------------------------------------------------------------
# drift matrix

def _ladder(M, noise=False):
    """A quadrature-basis matrix read in the ladder basis (da, da^+): U^-1 A U
    for a drift matrix, U^-1 Q U^-T for a noise matrix, where
    U = [[I, I], [-iI, iI]]/sqrt2 maps (a, a^+) to (x, p).  U is unitary, so
    U^-1 = U^H and U^-T = conj(U); the sqrt2 factors are applied as one
    final /2 so that every product with an entry of U is exact."""
    m = M.shape[0] // 2
    eye = np.eye(m)
    u = np.block([[eye, eye], [-1j * eye, 1j * eye]])
    return u.conj().T @ M @ (u.conj() if noise else u) / 2


def test_decoupled_drift_matrix_is_diagonal():
    A = build_drift_matrix(config_from_dict(_with_edges(n_type_config())))
    assert np.isrealobj(A)
    A = _ladder(A)
    expected = np.diag([
        -(0.1 + 1j), -(0.1 + 1j), -(1e-5 + 1j), -(1e-5 + 1j),
        -(0.1 - 1j), -(0.1 - 1j), -(1e-5 - 1j), -(1e-5 - 1j),
    ])
    assert np.abs(A - expected).max() < 1e-14


def test_photon_hop_entry():
    A = build_drift_matrix(network4_config(J=0.03))
    assert np.isrealobj(A)
    A = _ladder(A)
    assert A[:4, :4][0, 1] == pytest.approx(-0.03j, abs=1e-15)
    assert A[:4, :4][1, 0] == pytest.approx(-0.03j, abs=1e-15)


def test_counter_rotating_block_positions():
    # 0-based first-block positions of the N-type F block:
    # (0,2),(0,3),(1,2),(2,0),(2,1),(3,0)
    A = build_drift_matrix(n_type_config())
    assert np.isrealobj(A)
    F = _ladder(A)[:4, 4:]
    nonzero = set(zip(*np.nonzero(np.abs(F) > 0)))
    assert nonzero == {(0, 2), (0, 3), (1, 2), (2, 0), (2, 1), (3, 0)}


def test_optomechanical_entries():
    A = build_drift_matrix(n_type_config(G1=0.05))
    assert np.isrealobj(A)
    A = _ladder(A)
    assert A[:4, :4][0, 2] == pytest.approx(-0.05j)
    assert A[:4, :4][2, 0] == pytest.approx(-0.05j)
    assert A[:4, 4:][0, 2] == pytest.approx(-0.05j)
    assert A[:4, 4:][2, 0] == pytest.approx(-0.05j)


@st.composite
def random_configs(draw):
    nc = draw(st.integers(1, 3))
    nm = draw(st.integers(1, 3))
    rate = st.floats(0.01, 2.0)
    strength = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)
    cavities = [(draw(rate), draw(rate)) for _ in range(nc)]
    mechanicals = [(draw(rate), draw(rate), draw(rate)) for _ in range(nm)]
    pairs = [("optomechanical", (f"c{i}", f"m{j}")) for i in range(nc) for j in range(nm)]
    pairs += [("photon_hop", (f"c{i}", f"c{j}")) for i in range(nc) for j in range(i + 1, nc)]
    pairs += [("phonon_hop", (f"m{i}", f"m{j}")) for i in range(nm) for j in range(i + 1, nm)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique_by=lambda p: p[1], max_size=len(pairs)))
    return _document(cavities, mechanicals, [(kind, ep, draw(strength)) for kind, ep in chosen])


@settings(max_examples=50, deadline=None)
@given(random_configs())
def test_block_conjugation_property(cfg):
    A = build_drift_matrix(config_from_dict(cfg))
    assert np.isrealobj(A)
    A = _ladder(A)
    m = A.shape[0] // 2
    assert np.abs(A[m:, m:] - np.conj(A[:m, :m])).max() < 1e-14
    assert np.abs(A[m:, :m] - np.conj(A[:m, m:])).max() < 1e-14


@settings(max_examples=50, deadline=None)
@given(random_configs())
def test_noise_matrix_symmetric(cfg):
    Q = build_noise_matrix(config_from_dict(cfg))
    assert np.array_equal(Q, Q.T)


# ---------------------------------------------------------------------------
# write path: a slot written into the compiled model against the rebuilt document

def _rebuilt(doc, path, value):
    """Reference for the write path: a copy of the document with the field
    at ``path`` replaced."""
    section, index, name = path.split(".")
    doc = copy.deepcopy(doc)
    doc[section][int(index)][name] = _number(value)
    return doc


_PATH_FIELDS = {
    "cavities": ("detuning", "decay", "drive_amplitude"),
    "mechanicals": ("frequency", "damping", "thermal_occupation"),
    "edges": ("strength",),
}


@settings(max_examples=50, deadline=None)
@given(random_configs(), st.floats(-2.0, 2.0))
def test_written_slot_matches_rebuilt_config(cfg, value):
    model = config_from_dict(cfg)
    for section, fields in _PATH_FIELDS.items():
        for index in range(len(cfg[section])):
            for name in fields:
                path = f"{section}.{index}.{name}"
                try:
                    reference = config_from_dict(_rebuilt(cfg, path, value))
                except ConfigError as exc:
                    # the axis check gives the verdict and message of validation
                    with pytest.raises(ConfigError, match=re.escape(str(exc))):
                        axis_slot(model, path, [value])
                    continue
                written = model.write([axis_slot(model, path, [value])], [value])
                assert (build_drift_matrix(written).tobytes()
                        == build_drift_matrix(reference).tobytes())
                assert (build_noise_matrix(written).tobytes()
                        == build_noise_matrix(reference).tobytes())


# n_type with a complex auxiliary coupling: its base has no dark-mode report,
# while every point of a real edges.2.strength axis has one
_COMPLEX_N_TYPE = config_from_dict(
    _rebuilt(config_to_dict(n_type_config()), "edges.2.strength", 0.03 + 0.02j))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("base, axes", [
    (network4_config(), (SweepAxis("cavities.1.detuning", 0.8, 1.2, 3),
                         SweepAxis("edges.4.strength", -0.05, 0.05, 2))),
    (_physical_n_type(), (SweepAxis("cavities.0.drive_amplitude", 50.0, 70.0, 2),
                          SweepAxis("edges.0.strength", 4e-4, 6e-4, 2))),
    (n_type_config(), (SweepAxis("cavities.0.detuning", -1.0, 1.0, 3),)),
    (n_type_config(), (SweepAxis("cavities.1.decay", 0.0, 1.0, 3),)),
    (n_type_config(), (SweepAxis("mechanicals.1.frequency", 0.5, 1.5, 3),)),
    (n_type_config(), (SweepAxis("mechanicals.0.damping", 0.0, 2e-5, 3),)),
    (n_type_config(), (SweepAxis("mechanicals.1.thermal_occupation", 0.0, 2000.0, 3),)),
    (_COMPLEX_N_TYPE, (SweepAxis("edges.2.strength", -0.1, 0.1, 3),)),
    (n_type_config(), (SweepAxis("cavities.0.drive_amplitude", 0.0, 1.0, 3),)),
    (n_type_config(), (SweepAxis("mechanicals.0.damping", 0.0, 2e-5, 3),
                       SweepAxis("mechanicals.0.thermal_occupation", 0.0, 2000.0, 2))),
], ids=["network4", "physical", "detuning", "decay", "frequency", "damping",
        "thermal-occupation", "complex-strength", "effective-drive", "damping-x-occupation"])
def test_sweep_equals_solve_of_rebuilt_points(base, axes, jobs):
    # each row of a planned sweep equals the one-shot solve of its point
    # rebuilt as a document, dark-mode columns included
    rows = list(run_sweep(base, axes, parallelism=jobs).rows)
    assert len(rows) == np.prod([axis.points for axis in axes])
    for row in rows:
        point = config_to_dict(base)
        for axis, x in zip(axes, row):
            point = _rebuilt(point, axis.path, x)
        (solved,) = run_solve(config_from_dict(point)).rows
        assert row[len(axes):] == solved


@pytest.mark.parametrize("model", [
    n_type_config(), network4_config(J=0.03, eta=0.02), _COMPLEX_N_TYPE, chain_config(3),
], ids=["n_type", "network4", "complex-strength", "chain3"])
def test_assembly_is_bit_identical_to_the_builder(model):
    # every pair of slots, at values that include +0.0: the
    # assembled A and Q have the builder's bytes, so a planned sweep solves
    # the very matrices a per-point build would give.  gamma (2 nbar + 1) is
    # not of the assembly's form, so Q under an occupation slot is built per
    # point instead
    doc = config_to_dict(model)
    paths = [f"{section}.{index}.{name}" for section, fields in _PATH_FIELDS.items()
             for index in range(len(doc[section])) for name in fields]
    for pair in itertools.combinations(paths, 2):
        slots = [axis_slot(model, path, []) for path in pair]
        drift = assembly(build_drift_matrix, model, slots)
        noise = assembly(build_noise_matrix, model, slots)
        for point in itertools.product((0.0, 0.7, -1.5), repeat=2):
            written = model.write(slots, point)
            assert drift.at(point).tobytes() == build_drift_matrix(written).tobytes(), (pair, point)
            if "nbar" not in {name for name, _ in slots}:
                assert (noise.at(point).tobytes()
                        == build_noise_matrix(written).tobytes()), (pair, point)


@pytest.mark.parametrize("name, dark_calls, drift_builds", [
    ("fig2a", 1, 3),      # detuning x decay: one dark report per run
    ("fig3a", 16, 3),     # a frequency axis: one report per point
    ("fig8b", 4, 2),      # a strength axis: one report per point
    ("fig7a", 1 + 4, 4 * 2),  # the base's report, then four taxonomy variants,
    ("fig7c", 1 + 6, 6 * 2),  # each a plan over the decay slot
])
def test_runs_plan_drift_and_dark_report_once(monkeypatch, name, dark_calls, drift_builds):
    # at 4 points per axis, a run builds A at most (axes + 1) times per plan,
    # and reads the dark-mode condition per point only where an axis
    # writes a slot it reads
    preset = get_preset(name, points=4)
    dark = _count_calls(monkeypatch, dark_mode_condition)
    drift = _count_calls(monkeypatch, build_drift_matrix)
    list(preset.run(1).rows)  # the rows are solved as they are read
    assert len(dark) == dark_calls
    assert len(drift) == drift_builds


def test_hop_symmetry_real_strengths():
    A = build_drift_matrix(network4_config())
    assert np.isrealobj(A)
    A = _ladder(A)
    assert A[:4, :4][0, 1] == A[:4, :4][1, 0]  # photon hop
    assert A[:4, :4][2, 3] == A[:4, :4][3, 2]  # phonon hop


# ---------------------------------------------------------------------------
# noise matrix

def test_noise_matrix_four_mode_values():
    Q = build_noise_matrix(n_type_config())
    assert np.isrealobj(Q)
    Q = _ladder(Q, noise=True)
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
    Q = build_noise_matrix(config_from_dict(_document([(1.0, 0.1)], [(1.0, 1e-3, 0.0)])))
    assert np.isrealobj(Q)
    Q = _ladder(Q, noise=True)
    assert Q[1, 3] == pytest.approx(1e-3)
    assert Q[3, 1] == pytest.approx(1e-3)


def test_noise_matrix_chain_block_structure():
    Q = build_noise_matrix(chain_config(3))
    assert np.isrealobj(Q)
    Q = _ladder(Q, noise=True)
    m = 5
    assert np.abs(Q[:m, :m]).max() == 0.0
    assert np.abs(Q[m:, m:]).max() == 0.0
    assert np.array_equal(Q[:m, m:], np.diag(np.diag(Q[:m, m:])))


def test_zero_coupling_thermal_equilibrium():
    cfg = config_from_dict(_with_edges(n_type_config()))
    V = solve_lyapunov(build_drift_matrix(cfg), build_noise_matrix(cfg))
    report = phonon_numbers(V, cfg)
    for n in report.mechanical:
        assert n == pytest.approx(1000.0, rel=1e-8)
