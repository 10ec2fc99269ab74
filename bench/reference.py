"""Reference answers for the benchmark's inputs, computed without omcool.

The physics is a transcription of the pipeline as it stood when the
benchmark was written, working directly on JSON config documents:

* index order: cavities, then mechanical modes, then the same daggered;
* drift matrix A = [[E, F], [conj F, conj E]] with E holding -(kappa + i Delta),
  -(gamma + i omega) and the beam-splitter terms, F the counter-rotating
  optomechanical terms;
* noise matrix Q coupling each mode to its dagger (kappa for cavities,
  gamma (2 nbar + 1) for mechanical modes);
* stable iff max Re(eig A) < -1e-9; occupation of mode k is Re V[M+k, k] - 1/2,
  floored at 0 for mechanical modes;
* dark-mode flag from the closed-form hybrid-mode residuals of the document's
  own coupling strengths;
* physical mode, first answer: the damped Picard iteration for the
  steady-state amplitudes (absolute tolerance 1e-12, 10 000 iterations,
  damping 1/2), run on a whole batch of documents at once.  Where it
  converges, the program's own iteration converges too and must give this
  answer or another steady state.
* physical mode, every answer: all steady states of the amplitude equations,
  found without iterating them (``steady_states``).  Where the equations have
  several (radiation-pressure bistability), any of them is a correct answer.
  This is the check for a program that solves a point on which the Picard
  iteration gives up.

The Lyapunov equation A V + V A^T = -Q is solved with scipy's Bartels-Stewart
Sylvester solver, not with a Kronecker system, so the reference shares no
solver with the program; the two agree to round-off.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_sylvester

STABILITY_MARGIN = 1e-9
EPS_DARK = 1e-10
PICARD_TOL = 1e-12
PICARD_MAX_ITER = 10_000
PICARD_DAMPING = 0.5
STEADY_GRID_STEP = 0.02  # grid step in asinh(detuning / kappa)
STEADY_TOL = 1e-11  # residual of a steady state, relative to its detunings
STEADY_SAME = 1e-8  # two roots closer than this are one steady state


def _complex(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def _index(doc: dict, mode_id: str) -> int:
    idx = int(mode_id[1:])
    return idx if mode_id[0] == "c" else len(doc["cavities"]) + idx


def drift_noise(doc: dict, amplitudes: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Complex drift matrix A and real noise matrix Q of a config document.

    ``amplitudes`` (physical mode) holds the effective detunings and the
    linearized couplings, the latter aligned with the optomechanical edges.
    """
    cavities, mechanicals = doc["cavities"], doc["mechanicals"]
    nc = len(cavities)
    m = nc + len(mechanicals)
    if amplitudes is None:
        detunings = [cav["detuning"] for cav in cavities]
        om = iter([_complex(e["strength"]) for e in doc["edges"] if e["kind"] == "optomechanical"])
    else:
        detunings = amplitudes["detunings"]
        om = iter(amplitudes["couplings"])
    E = np.zeros((m, m), dtype=complex)
    F = np.zeros((m, m), dtype=complex)
    for c, cav in enumerate(cavities):
        E[c, c] = -(cav["decay"] + 1j * detunings[c])
    for j, mech in enumerate(mechanicals):
        E[nc + j, nc + j] = -(mech["damping"] + 1j * mech["frequency"])
    for edge in doc["edges"]:
        i, j = _index(doc, edge["endpoints"][0]), _index(doc, edge["endpoints"][1])
        s = next(om) if edge["kind"] == "optomechanical" else _complex(edge["strength"])
        E[i, j] += -1j * s
        E[j, i] += -1j * np.conj(s)
        if edge["kind"] == "optomechanical":
            F[i, j] += -1j * s
            F[j, i] += -1j * s
    A = np.block([[E, F], [np.conj(F), np.conj(E)]])
    Q = np.zeros((2 * m, 2 * m))
    for c, cav in enumerate(cavities):
        Q[c, m + c] = Q[m + c, c] = cav["decay"]
    for j, mech in enumerate(mechanicals):
        k = nc + j
        Q[k, m + k] = Q[m + k, k] = mech["damping"] * (2.0 * mech["thermal_occupation"] + 1.0)
    return A, Q


def max_real_part(A: np.ndarray) -> float:
    return float(np.linalg.eigvals(A).real.max())


def occupations(V: np.ndarray, doc: dict) -> dict[str, float]:
    """Output columns n_f_* (floored at 0) and n_c_* from a covariance matrix."""
    nc, nm = len(doc["cavities"]), len(doc["mechanicals"])
    m = nc + nm
    out = {f"n_f_{l + 1}": max(0.0, float(V[m + nc + l, nc + l].real) - 0.5) for l in range(nm)}
    out.update({f"n_c_{c + 1}": float(V[m + c, c].real) - 0.5 for c in range(nc)})
    return out


def dark_flag(doc: dict) -> bool | None:
    """Closed-form dark-mode test; None where it does not apply."""
    if len(doc["mechanicals"]) != 2 or doc.get("topology") not in ("n_type", "network4"):
        return None
    p = {"G1": 0.0, "G2": 0.0, "Gs1": 0.0, "Gs2": 0.0, "eta": 0.0}
    names = {("c0", "m0"): "G1", ("c0", "m1"): "G2", ("c1", "m0"): "Gs1", ("c1", "m1"): "Gs2"}
    for edge in doc["edges"]:
        if edge["kind"] == "optomechanical":
            key = names.get(tuple(edge["endpoints"]))
        elif edge["kind"] == "phonon_hop":
            key = "eta"
        else:
            key = None
        if key is not None:
            p[key] = _complex(edge["strength"]).real
    w1, w2 = doc["mechanicals"][0]["frequency"], doc["mechanicals"][1]["frequency"]
    gp2 = p["G1"] ** 2 + p["G2"] ** 2
    gp = float(np.sqrt(gp2))
    zeta = ((w1 - w2) * p["G1"] * p["G2"] + p["eta"] * (p["G2"] ** 2 - p["G1"] ** 2)) / gp2
    gs_minus = (p["Gs1"] * p["G2"] - p["Gs2"] * p["G1"]) / gp
    scale = max(1.0, gp)
    return abs(zeta) < EPS_DARK * scale and abs(gs_minus) < EPS_DARK * scale


def expected_record(doc: dict, amplitudes: dict | None = None) -> dict:
    """The output columns the program should write for one solved point."""
    A, Q = drift_noise(doc, amplitudes)
    growth = max_real_part(A)
    stable = growth < -STABILITY_MARGIN
    record = {"stable": stable, "max_real_part": growth}
    if stable:
        record.update(occupations(solve_sylvester(A, A.T, -Q), doc))
    else:
        nc, nm = len(doc["cavities"]), len(doc["mechanicals"])
        record.update({f"n_f_{l + 1}": None for l in range(nm)})
        record.update({f"n_c_{c + 1}": None for c in range(nc)})
    dark = dark_flag(doc)
    if dark is not None:
        record["dark"] = dark
    return record


# ---------------------------------------------------------------------------
# Physical mode: steady-state amplitudes


class _Structure:
    """Edge lists of a group of documents that share one mode graph, with
    every parameter stacked along a leading batch axis."""

    def __init__(self, docs: list[dict]):
        first = docs[0]
        self.nc, self.nm = len(first["cavities"]), len(first["mechanicals"])
        self.om, self.photon, self.phonon = [], [], []
        for k, edge in enumerate(first["edges"]):
            i0, i1 = int(edge["endpoints"][0][1:]), int(edge["endpoints"][1][1:])
            strength = np.array([_complex(d["edges"][k]["strength"]) for d in docs])
            {"optomechanical": self.om, "photon_hop": self.photon,
             "phonon_hop": self.phonon}[edge["kind"]].append((i0, i1, strength))

        def stack(section, key, convert=float):
            return np.array([[convert(item.get(key, 0.0)) for item in d[section]] for d in docs])

        self.delta = stack("cavities", "detuning")
        self.kappa = stack("cavities", "decay")
        self.drive = stack("cavities", "drive_amplitude", _complex)
        self.omega = stack("mechanicals", "frequency")
        self.gamma = stack("mechanicals", "damping")

    def detunings(self, beta):
        delta = self.delta.copy()
        for c, m, g in self.om:
            delta[:, c] += 2.0 * (np.conj(g) * beta[:, m]).real
        return delta

    def update(self, alpha, beta):
        """One undamped sweep of the amplitude equations."""
        delta = self.detunings(beta)
        drive = self.drive.copy()
        for i, j, J in self.photon:
            drive[:, i] = drive[:, i] + J * alpha[:, j]
            drive[:, j] = drive[:, j] + np.conj(J) * alpha[:, i]
        alpha_new = -1j * drive / (self.kappa + 1j * delta)
        force = np.zeros_like(beta)
        for c, m, g in self.om:
            force[:, m] += g * np.abs(alpha[:, c]) ** 2
        for i, j, eta in self.phonon:
            force[:, i] += eta * beta[:, j]
            force[:, j] += np.conj(eta) * beta[:, i]
        beta_new = -1j * force / (self.gamma + 1j * self.omega)
        return alpha_new, beta_new


def _picard(s: _Structure):
    """The damped fixed-point iteration, on every document of the group."""
    batch = s.delta.shape[0]
    alpha = np.zeros((batch, s.nc), dtype=complex)
    beta = np.zeros((batch, s.nm), dtype=complex)
    active = np.ones(batch, dtype=bool)
    for _ in range(PICARD_MAX_ITER):
        alpha_new, beta_new = s.update(alpha, beta)
        residual = np.maximum(np.abs(alpha_new - alpha).max(axis=1),
                              np.abs(beta_new - beta).max(axis=1))
        done = active & (residual < PICARD_TOL)
        damped_a = PICARD_DAMPING * alpha + (1.0 - PICARD_DAMPING) * alpha_new
        damped_b = PICARD_DAMPING * beta + (1.0 - PICARD_DAMPING) * beta_new
        alpha = np.where(active[:, None], np.where(done[:, None], alpha_new, damped_a), alpha)
        beta = np.where(active[:, None], np.where(done[:, None], beta_new, damped_b), beta)
        active &= ~done
        if not active.any():
            break
    return alpha, beta, ~active


def physical_amplitudes(docs: list[dict]) -> list[dict | None]:
    """Effective detunings and linearized couplings for each physical-mode
    document, or None where the iteration does not converge."""
    groups: dict[tuple, list[int]] = {}
    for k, doc in enumerate(docs):
        key = tuple((e["kind"], tuple(e["endpoints"])) for e in doc["edges"])
        groups.setdefault(key + (len(doc["cavities"]), len(doc["mechanicals"])), []).append(k)
    out: list[dict | None] = [None] * len(docs)
    for members in groups.values():
        s = _Structure([docs[k] for k in members])
        alpha, beta, converged = _picard(s)
        delta = s.detunings(beta)
        for row, k in enumerate(members):
            if converged[row]:
                couplings = [g[row] * alpha[row, c] for c, m, g in s.om]
                out[k] = {"detunings": list(delta[row]), "couplings": couplings}
    return out


def _shift_matrix(s: _Structure) -> np.ndarray:
    """L with effective detunings = detunings + L I, where I holds the cavity
    intensities |alpha_c|^2: the displacements are linear in I."""
    mech = np.diag(s.gamma[0] + 1j * s.omega[0])
    for i, j, eta in s.phonon:
        mech[i, j] += 1j * eta[0]
        mech[j, i] += 1j * np.conj(eta[0])
    L = np.zeros((s.nc, s.nc))
    for c in range(s.nc):
        force = np.zeros(s.nm, dtype=complex)
        for c2, m, g in s.om:
            if c2 == c:
                force[m] += g[0]
        beta = np.linalg.solve(mech, -1j * force)
        for c2, m, g in s.om:
            L[c2, c] += 2.0 * (np.conj(g[0]) * beta[m]).real
    return L


def _cavity_amplitudes(s: _Structure, delta: np.ndarray) -> np.ndarray:
    """alpha for each row of effective detunings ``delta`` (P, nc)."""
    K = np.zeros(delta.shape + (s.nc,), dtype=complex)
    idx = np.arange(s.nc)
    K[:, idx, idx] = s.kappa[0] + 1j * delta
    for i, j, J in s.photon:
        K[:, i, j] += 1j * J[0]
        K[:, j, i] += 1j * np.conj(J[0])
    rhs = np.broadcast_to(-1j * s.drive[0][:, None], delta.shape + (1,))
    return np.linalg.solve(K, rhs)[..., 0]


def steady_states(doc: dict) -> list[dict]:
    """Every steady state of a physical-mode document, as amplitudes for
    ``expected_record``.

    A steady state is fixed by its effective detunings d: the intensities are
    then I(d) = |alpha(d)|^2 and d must equal detunings + L I(d).  The roots of
    that residual are bracketed on a grid in asinh(d / kappa), which is fine
    near resonance and coarse far from it, and polished with a root finder.
    Every intensity is at most |drive|^2 / min(kappa)^2, which bounds the
    grid.
    """
    from scipy.optimize import root

    s = _Structure([doc])
    L = _shift_matrix(s)
    i_max = 1.1 * float(np.sum(np.abs(s.drive[0]) ** 2)) / float(s.kappa[0].min()) ** 2
    corners = np.array(np.meshgrid(*[[0.0, i_max]] * s.nc)).reshape(s.nc, -1)
    shifts = L @ corners
    width = float(s.kappa[0].min())
    axes = []
    for c in range(s.nc):
        lo, hi = s.delta[0, c] + shifts[c].min() - width, s.delta[0, c] + shifts[c].max() + width
        t = np.arange(np.arcsinh(lo / width), np.arcsinh(hi / width) + STEADY_GRID_STEP,
                      STEADY_GRID_STEP)
        axes.append(width * np.sinh(t))

    def residual(d: np.ndarray) -> np.ndarray:
        intensity = np.abs(_cavity_amplitudes(s, d)) ** 2
        return s.delta[0] + intensity @ L.T - d

    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    sign = np.sign(residual(mesh.reshape(-1, s.nc))).reshape(mesh.shape)
    # cells of the grid whose corners see both signs of every residual component
    cell = np.ones(tuple(len(a) - 1 for a in axes), dtype=bool)
    for c in range(s.nc):
        corner_signs = [sign[tuple(slice(o, o + len(a) - 1) for o, a in zip(offset, axes))][..., c]
                        for offset in np.ndindex(*(2,) * s.nc)]
        cell &= np.min(corner_signs, axis=0) < np.max(corner_signs, axis=0)
    found: list[np.ndarray] = []
    for index in zip(*np.nonzero(cell)):
        start = np.array([(a[k] + a[k + 1]) / 2 for a, k in zip(axes, index)])
        sol = root(lambda d: residual(d[None, :])[0], start, method="hybr", options={"xtol": 1e-14})
        d = sol.x
        if np.abs(residual(d[None, :])[0]).max() > STEADY_TOL * (1.0 + np.abs(d).max()):
            continue
        if not any(np.abs(d - e).max() <= STEADY_SAME * (1.0 + np.abs(e).max()) for e in found):
            found.append(d)
    out = []
    for d in found:
        alpha = _cavity_amplitudes(s, d[None, :])[0]
        out.append({"detunings": list(d), "couplings": [g[0] * alpha[c] for c, m, g in s.om]})
    return out
