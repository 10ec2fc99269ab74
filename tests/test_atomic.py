"""Three- and four-level eigenanalysis: dark states and their breaking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omcool.atomic import level_eigensystem, level_matrix
from omcool.errors import ConfigError
from omcool.sweep import SweepAxis, run_atomic

ratios = st.floats(0.0, 10.0, allow_nan=False)

# ---------------------------------------------------------------------------
# the closed-form eigenvalues at unit reference amplitude: oracles of the
# diagonalisations

def three_level_closed_form(xi):
    """Closed-form eigenvalues {0, +-sqrt(1 + xi^2)} of the resonant Lambda
    system at Omega2 = 1, ascending."""
    r = np.sqrt(1.0 + xi * xi)
    return np.array([-r, 0.0, r])


def four_level_closed_form(xi_prime):
    """Closed-form eigenvalues +-sqrt((2 + xi'^2 +- sqrt((2 + xi'^2)^2
    - 4 xi'^2)) / 2) of the resonant four-level scheme at Omega' = 1,
    ascending."""
    s = 2.0 + xi_prime * xi_prime
    root = np.sqrt(max(s * s - 4.0 * xi_prime * xi_prime, 0.0))
    lam_outer = np.sqrt((s + root) / 2.0)
    lam_inner = np.sqrt(max((s - root) / 2.0, 0.0))
    return np.array([-lam_outer, -lam_inner, lam_inner, lam_outer])


# ---------------------------------------------------------------------------
# three-level system

def test_three_level_zero_eigenvalue_is_dark():
    for xi in (0.0, 0.3, 1.0, 5.0):
        rep = level_eigensystem(3, xi)
        i0 = int(np.argmin(np.abs(rep.eigenvalues)))
        assert rep.eigenvalues[i0] == pytest.approx(0.0, abs=1e-12)
        assert rep.excited_probabilities[i0] < 1e-12
        assert i0 in rep.dark_states


def test_three_level_equal_amplitudes():
    rep = level_eigensystem(3, 1.0)
    assert sorted(rep.eigenvalues) == pytest.approx([-np.sqrt(2), 0.0, np.sqrt(2)])
    probs = sorted(rep.excited_probabilities)
    assert probs == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)


def test_three_level_dark_state_components():
    # dark state is proportional to (0, -xi, 1): at xi = 0 it is |g>
    rep = level_eigensystem(3, 0.0)
    i0 = int(np.argmin(np.abs(rep.eigenvalues)))
    vec = rep.eigenstates[:, i0]
    assert abs(vec[0]) < 1e-12  # no |e> component
    assert abs(vec[1]) < 1e-12  # no |f> component
    assert abs(abs(vec[2]) - 1.0) < 1e-12


def test_three_level_closed_form_matches_diagonalization():
    rng = np.random.default_rng(3)
    for _ in range(50):
        xi = float(rng.uniform(0, 8))
        numeric = np.linalg.eigvalsh(level_matrix(3, xi))
        assert np.abs(numeric - three_level_closed_form(xi)).max() < 1e-12


def test_three_level_dark_across_log_grid():
    for xi in np.logspace(-3, 3, 31):
        rep = level_eigensystem(3, float(xi))
        i0 = int(np.argmin(np.abs(rep.eigenvalues)))
        assert rep.excited_probabilities[i0] < 1e-12


# ---------------------------------------------------------------------------
# four-level system

def test_four_level_decoupled_auxiliary_two_dark_states():
    rep = level_eigensystem(4, 0.0)
    assert sorted(rep.eigenvalues) == pytest.approx(
        [-np.sqrt(2), 0.0, 0.0, np.sqrt(2)], abs=1e-12)
    assert len(rep.dark_states) == 2


def test_four_level_auxiliary_breaks_dark_state():
    for xi in (0.1, 1.0, 5.0):
        rep = level_eigensystem(4, xi)
        assert min(rep.excited_probabilities) > 0
        assert rep.dark_states == ()


def test_four_level_closed_form_unit_ratio():
    want = np.array([
        -np.sqrt((3 + np.sqrt(5)) / 2), -np.sqrt((3 - np.sqrt(5)) / 2),
        np.sqrt((3 - np.sqrt(5)) / 2), np.sqrt((3 + np.sqrt(5)) / 2),
    ])
    assert np.abs(four_level_closed_form(1.0) - want).max() < 1e-12
    numeric = np.linalg.eigvalsh(level_matrix(4, 1.0))
    assert np.abs(numeric - want).max() < 1e-12


def test_four_level_closed_form_matches_diagonalization():
    rng = np.random.default_rng(4)
    for _ in range(50):
        xi = float(rng.uniform(0, 8))
        numeric = np.linalg.eigvalsh(level_matrix(4, xi))
        assert np.abs(numeric - four_level_closed_form(xi)).max() < 1e-10


# ---------------------------------------------------------------------------
# shared structural properties

@settings(max_examples=100, deadline=None)
@given(ratios)
def test_three_level_spectrum_symmetric_and_complete(xi):
    rep = level_eigensystem(3, xi)
    assert sum(rep.eigenvalues) == pytest.approx(0.0, abs=1e-12)
    assert sum(rep.excited_probabilities) == pytest.approx(1.0, abs=1e-12)
    V = rep.eigenstates
    assert np.abs(V.T @ V - np.eye(3)).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(ratios)
def test_four_level_spectrum_symmetric_and_complete(xi_prime):
    rep = level_eigensystem(4, xi_prime)
    assert sum(rep.eigenvalues) == pytest.approx(0.0, abs=1e-12)
    assert sum(rep.excited_probabilities) == pytest.approx(1.0, abs=1e-12)
    V = rep.eigenstates
    assert np.abs(V.T @ V - np.eye(4)).max() < 1e-12


def test_degenerate_probabilities_basis_independent():
    # at xi' = 0 the two zero eigenvalues form a degenerate cluster; the
    # reported probabilities must be the equal share of the eigenspace
    # projection of |e>, not arbitrary basis-dependent values
    rep = level_eigensystem(4, 0.0)
    evals = np.array(rep.eigenvalues)
    probs = np.array(rep.excited_probabilities)
    zero = np.abs(evals) < 1e-12
    assert np.ptp(probs[zero]) == 0.0


@pytest.mark.parametrize("levels", [2, 5])
def test_level_count_other_than_three_or_four_refused(levels):
    # the one owner of the refusal is level_matrix; a run meets it at its
    # first point, when its first row is read
    with pytest.raises(ConfigError, match="levels must be 3 or 4"):
        level_matrix(levels, 1.0)
    with pytest.raises(ConfigError, match="levels must be 3 or 4"):
        level_eigensystem(levels, 1.0)
    with pytest.raises(ConfigError, match="levels must be 3 or 4"):
        list(run_atomic(levels, SweepAxis("ratio", 0.0, 3.0, 4)).rows)


def test_atomic_rows_are_solved_as_they_are_read(monkeypatch):
    # the ratio axis is checked when the run is made, but no point is solved
    # until its row is read, so memory stays flat in the point count
    calls = []

    def counted(levels, ratio):
        calls.append(ratio)
        return level_eigensystem(levels, ratio)

    monkeypatch.setattr("omcool.sweep.level_eigensystem", counted)
    with pytest.raises(ConfigError, match="needs at least one point"):
        run_atomic(3, SweepAxis("ratio", 0.0, 3.0, 0))
    rows = iter(run_atomic(3, SweepAxis("ratio", 0.0, 3.0, 4)).rows)
    assert calls == []
    assert next(rows)[0] == 0.0
    assert calls == [0.0]
