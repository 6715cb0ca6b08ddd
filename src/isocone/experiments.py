"""Experiment drivers: sharpness and stability sweeps, translation diagnostics.

All drivers are deterministic given their inputs and emit rows sorted by
their parameter key; ``geometry.emit_csv`` keeps 12 significant digits so
repeated runs are byte-identical.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .analysis import ball_volume_growth, shifted_weight_separation
from .cone_weight import Cone, HomWeight, decompose_subspaces
from .geometry import StarSet, asymmetry, deficit, emit_csv


# a set within 1e-8 of the minimal deficit must have asymmetry at most this
MINIMIZER_ASYM_TOL = 1e-4


class FitRejectedError(ValueError):
    """Too few sweep points for a meaningful least-squares exponent fit."""


@dataclasses.dataclass
class SweepResult:
    columns: tuple
    rows: list
    manifest: dict

    def column(self, name):
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows], dtype=float)

    def to_csv(self, path) -> None:
        emit_csv(path, self.columns, self.rows)


def _stability_row(param, star: StarSet, weight: HomWeight):
    """(param, delta_w, A_w, A_w / sqrt(delta_w)); the ratio is NaN unless
    the deficit exceeds 1e-9."""
    rep = deficit(star, weight)
    a, _x0 = asymmetry(star, weight, rep)
    ratio = a / math.sqrt(rep.deficit) if rep.deficit > 1e-9 else float("nan")
    return (param, rep.deficit, a, ratio)


def eta_fourier_cos(cone: Cone, mode: int):
    """Angular profile cos(m * (theta - angle_lo)) used for perturbed balls."""
    lo = 0.0 if cone.full_plane else cone.angle_lo

    def eta(thetas):
        return np.cos(mode * (np.asarray(thetas) - lo))

    return eta


def sharpness_sweep(weight: HomWeight, eta_fn, eps_list, n_theta: int = 4096):
    """Deficit/asymmetry scaling of the perturbed-ball family r = 1 + eps*eta.

    eta is projected to zero weighted mean with the volume quadrature, so
    w(E_eps) and Per_w(E_eps) deviate from the ball only at second order
    while the asymmetry is first order; the fitted slope of log A_w against
    log delta_w is 1/2 for smooth nonvanishing profiles.

    Returns (SweepResult, fitted slope).
    """
    eps_list = sorted(float(e) for e in eps_list)
    if len(eps_list) < 3:
        raise FitRejectedError("need at least 3 epsilon values for the fit")
    if max(eps_list) > 0.25:
        raise ValueError("epsilon must stay at or below 0.25")

    rows = [_stability_row(eps, StarSet.perturbed_ball(weight, n_theta, eps, eta_fn),
                           weight) for eps in eps_list]
    deltas = np.array([r[1] for r in rows])
    asyms = np.array([r[2] for r in rows])
    if np.any(deltas <= 0) or np.any(asyms <= 0):
        raise FitRejectedError("degenerate sweep values; increase eps or resolution")
    slope = float(np.polyfit(np.log(deltas), np.log(asyms), 1)[0])
    result = SweepResult(
        ("param", "delta_w", "asym", "ratio"), rows,
        {"slope": slope, "n_theta": n_theta, "eps_list": eps_list},
    )
    return result, slope


def default_corpus(weight: HomWeight, n_theta: int = 4096):
    """Thirty deterministic star sets on the weight's cone: perturbed, dilated,
    and bumped balls."""
    cone = weight.cone
    members = []
    for mode in (2, 3, 4, 5, 6):
        for eps in (0.02, 0.05, 0.1, 0.2):
            star = StarSet.perturbed_ball(weight, n_theta, eps, eta_fourier_cos(cone, mode))
            members.append((f"fourier_m{mode}_e{eps}", star))
    for r in (0.5, 1.0, 2.0):
        members.append((f"ball_r{r}", StarSet.ball(cone, n_theta, r=r)))
    opening = cone.opening
    lo = cone.angle_lo
    bumps = [(0.25, 0.06, 0.10), (0.50, 0.06, 0.10), (0.75, 0.06, 0.10),
             (0.35, 0.10, 0.15), (0.65, 0.10, 0.15), (0.50, 0.15, 0.05),
             (0.50, 0.04, 0.20)]
    for c, s, amp in bumps:

        def r_fn(thetas, c=c, s=s, amp=amp):
            t_hat = (np.asarray(thetas) - lo) / opening
            return 1.0 + amp * np.exp(-(((t_hat - c) / s) ** 2))

        members.append((f"bump_c{c}_s{s}_a{amp}", StarSet.from_radial(cone, n_theta, r_fn)))
    return members


def stability_sweep(corpus, weight: HomWeight):
    """Max asymmetry-over-root-deficit ratio across a corpus of sets.

    Rows are sorted by label; the ratio column is filled only where the
    deficit exceeds 1e-9.  The manifest records the max ratio and the
    minimizer probe: the largest asymmetry among members with deficit
    <= 1e-8, and whether each is at most MINIMIZER_ASYM_TOL.
    """
    rows = sorted((_stability_row(label, star, weight) for label, star in corpus),
                  key=lambda r: r[0])
    ratios = [r[3] for r in rows if not math.isnan(r[3])]
    near_minimizers = [r[2] for r in rows if r[1] <= 1e-8]
    manifest = {
        "max_ratio": max(ratios) if ratios else float("nan"),
        "probe_ok": all(a <= MINIMIZER_ASYM_TOL for a in near_minimizers),
        "probe_max_asym": max(near_minimizers, default=0.0),
    }
    return SweepResult(("param", "delta_w", "asym", "ratio"), rows, manifest)


def translation_diagnostics(weight: HomWeight, t_list, box=None):
    """Ball-growth and weight-shift columns for the constancy/rest directions.

    For each basis direction d of the constancy and remaining subspaces and
    each magnitude t, reports w(B1(t d) cap cone) - w(B1 cap cone) and the
    weight-shift separation over the box.  Constancy directions give exact
    zeros in the separation column; directions near the cone give
    nonnegative, approximately linear growth.
    """
    bases = decompose_subspaces(weight)
    directions = [("C", d) for d in bases.basis_C] + [("E", d) for d in bases.basis_E]
    if box is None:
        # deep enough inside the cone that shifts up to max(t_list) stay
        # admissible (|xi| <= dist(Q, boundary) / 2)
        cone = weight.cone
        mid = 0.5 * (cone.angle_lo + cone.angle_hi)
        t_max = max(t_list)
        depth = max(0.35, (2.0 * t_max + 0.13) / math.sin(cone.opening / 2.0))
        center = depth * np.array([math.cos(mid), math.sin(mid)])
        box = ((center[0] - 0.08, center[0] + 0.08), (center[1] - 0.08, center[1] + 0.08))
    rows = []
    for tag, d in directions:
        name = f"{tag}({d[0]:+.6f},{d[1]:+.6f})"
        for t in sorted(t_list):
            g = ball_volume_growth(weight, t * d) if t > 0 else 0.0
            sep = shifted_weight_separation(weight, box, t * d) if t > 0 else 0.0
            rows.append((name, t, g, sep))
    rows.sort(key=lambda r: (r[0], r[1]))
    return SweepResult(("direction", "t", "growth", "separation"), rows, {"box": box})
