"""Analytical dark-mode machinery: the two-resonator dark-mode existence
and breaking conditions, the report of them that tables write (its
columns, cells and the slots it reads), and the network4 channel
taxonomy's configurations."""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ConfigError
from .model import Model, coupling_matrix

EPS_DARK = 1e-10
# the dark-mode report's columns, in the order every table writes them
DARK_COLUMNS = ("dark", "zeta_residual", "gs_minus_residual")
# the Model slots the report reads: a point that writes one needs its own
DARK_SLOTS = frozenset({"frequency", "strength"})

# Names of the four optional coupling channels of the network-coupled
# four-mode system (the two intermediate-cavity couplings stay open).
CHANNELS = ("J", "eta", "Gs1", "Gs2")
# Closed-channel subset sizes of the 14 taxonomy configurations.
TAXONOMY_SIZES = (1, 2, 3)


def _inapplicable(model: Model) -> str:
    """Why the two-resonator dark-mode analysis does not apply to a model,
    or "" when it does."""
    if model.n_mechanicals != 2:
        return "dark-mode analysis needs exactly two mechanical modes"
    if model.n_cavities > 2:
        return "dark-mode analysis needs at most two cavities"
    if model.topology not in ("n_type", "network4"):
        return f"dark-mode analysis does not apply to topology {model.topology!r}"
    return ""


def dark_columns(model: Model) -> tuple[str, ...]:
    """The dark-mode columns of a table of ``model``: DARK_COLUMNS where
    dark_mode_condition applies (two mechanical modes and at most two
    cavities on an n_type or network4 topology), else none."""
    return () if _inapplicable(model) else DARK_COLUMNS


def dark_cells(model: Model) -> tuple:
    """The cells of a point's dark_columns, in their order: none where the
    analysis does not apply, and all None where it refuses the point
    (complex strengths, or cavity c0 uncoupled), which leaves the point's
    dark-mode columns empty."""
    try:
        return _condition_cells(model) if dark_columns(model) else ()
    except ConfigError:
        return (None,) * len(DARK_COLUMNS)


def dark_mode_condition(model: Model) -> dict:
    """The dark-mode conditions of a two-mechanical model, "dark" and the
    residuals of zeta and Gs-, keyed by their DARK_COLUMNS:

        zeta = ((omega1 - omega2) G1 G2 + eta (G2^2 - G1^2)) / G+^2 = 0
        Gs-  = (Gs1 G2 - Gs2 G1) / G+ = 0,   G+ = sqrt(G1^2 + G2^2)

    read off the coupling matrix: G1, G2 couple cavity c0 and Gs1, Gs2
    cavity c1 to m0, m1, eta is the phonon hop, and absent edges count as
    zero strength.  zeta and Gs- are what the rotation (b1, b2) ->
    (B+, B-) = (G1 b1 + G2 b2, G2 b1 - G1 b2) / G+ leaves coupling B- to
    B+ and to cavity c1; B- is dark when both vanish.  Each residual counts
    as zero below EPS_DARK * max(1, G+).  The photon-hopping strength J
    never enters: it cannot break the dark mode.
    """
    return dict(zip(DARK_COLUMNS, _condition_cells(model)))


def _condition_cells(model: Model) -> tuple:
    """dark_mode_condition's cells in DARK_COLUMNS order; raises ConfigError
    where the analysis does not apply to the model or refuses it."""
    reason = _inapplicable(model)
    if reason:
        raise ConfigError(reason)
    nc = model.n_cavities
    K = coupling_matrix(model)
    G = np.zeros((2, 2), dtype=complex)  # rows c0, c1; a lone cavity leaves c1 at zero
    G[:nc] = K[:nc, nc:]
    strengths = np.append(G.ravel(), K[nc, nc + 1])
    if np.any(strengths.imag != 0):
        raise ConfigError("dark-mode analysis requires real coupling strengths")
    G1, G2, Gs1, Gs2, eta = strengths.real.tolist()
    omega1, omega2 = model.frequency.tolist()
    gp2 = G1 * G1 + G2 * G2
    if gp2 <= 0:
        raise ConfigError("dark-mode analysis needs cavity c0 coupled to m0 or m1")
    gp = float(np.sqrt(gp2))
    tol = EPS_DARK * max(1.0, gp)
    zeta_res = abs(((omega1 - omega2) * G1 * G2 + eta * (G2 * G2 - G1 * G1)) / gp2)
    gs_res = abs((Gs1 * G2 - Gs2 * G1) / gp)
    return zeta_res < tol and gs_res < tol, zeta_res, gs_res


def closed_channel_variants(
    model: Model, sizes: tuple[int, ...] = TAXONOMY_SIZES,
) -> list[tuple[str, Model]]:
    """The taxonomy's configurations of a network4 model: for each subset of
    CHANNELS whose size is in ``sizes`` (all 14 by default), by size, then
    channel order, its label ("J+Gs2") and the model with the closed
    channels' strength slots zeroed.

    Raises the reason the base model has no dark-mode report: closing
    channels adds no strength the report reads, and each channel stays open
    in some variant of every size, so the base lacks a report exactly when
    some variant does."""
    if model.topology != "network4":
        raise ConfigError("configuration taxonomy requires topology 'network4'")
    dark_mode_condition(model)
    nc = model.n_cavities
    ends = {"J": (False, {0, 1}), "eta": (False, {nc, nc + 1}),
            "Gs1": (True, {1, nc}), "Gs2": (True, {1, nc + 1})}
    edges = list(zip(model.optomechanical.tolist(), model.edge_i.tolist(),
                     model.edge_j.tolist()))
    slots = {ch: [("strength", e) for e, (om, i, j) in enumerate(edges)
                  if (om, {i, j}) == ends[ch]]
             for ch in CHANNELS}
    variants = []
    for size in TAXONOMY_SIZES:
        if size not in sizes:
            continue
        for closed in itertools.combinations(CHANNELS, size):
            cut = [slot for ch in closed for slot in slots[ch]]
            variants.append(("+".join(closed), model.write(cut, [0.0] * len(cut))))
    return variants
