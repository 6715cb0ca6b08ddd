"""Supporting quantitative lemmas: AM-GM, 1-D stability, translation and
Cheeger/trace/Poincare toolkit.

The one-dimensional pieces work on the weighted half-line (0, infinity) with
weight t^alpha; effective dimension is D = 1 + alpha there.  The convention
for the measure-theoretic boundary of an interval set excludes an endpoint
sitting exactly at 0 (a set containing [0, delta) has density 1 at the
origin relative to the half-line).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cone_weight import Cone, HomWeight
from .geometry import (
    _BLOCK,
    StarSet,
    boundary_element,
    boundary_weighted_integral,
    deficit,
    deficit_value,
    power_mass,
    symdiff_with_ball,
    weighted_volume,
)


class InadmissibleInputError(ValueError):
    """Input violates the hypothesis of the inequality being checked."""


class HypothesisFailure(ValueError):
    """A proposition's hypothesis fails, so its conclusion is not tested."""


# ---------------------------------------------------------------------------
# Quantitative AM-GM
# ---------------------------------------------------------------------------

def amgm_sides(lam, x, c):
    """Both sides of the quantitative AM-GM bound over leading axes.

    ``lam`` and ``x`` hold the weights and points along the last axis and
    ``c`` one center per leading index; returns (lhs, rhs) with

        lhs = sum lambda_i (x_i - c)^2,
        rhs = (8/3) * c^(2-s) * s^3 / min(lambda)^2 * (c^s - prod x_i^lambda_i).
    """
    c = np.asarray(c, dtype=float)
    s = lam.sum(axis=-1)
    lhs = (lam * (x - c[..., None]) ** 2).sum(axis=-1)
    geo = np.prod(x ** lam, axis=-1)
    rhs = (8.0 / 3.0) * c ** (2.0 - s) * s ** 3 / lam.min(axis=-1) ** 2 * (c ** s - geo)
    return lhs, rhs


def quantitative_amgm_check(lambdas, xs, c: float):
    """Check the quantitative weighted AM-GM bound.

    With s = sum(lambda_i) >= 1 and sum(lambda_i x_i) <= c s, the weighted
    variance around c is controlled by the AM-GM gap:

        sum lambda_i (x_i - c)^2
            <= (8/3) * c^(2-s) * s^3 / min(lambda)^2 * (c^s - prod x_i^lambda_i).

    Returns (lhs, rhs, holds).
    """
    lam = np.asarray(lambdas, dtype=float)
    x = np.asarray(xs, dtype=float)
    if np.any(lam <= 0) or np.any(x < 0) or c <= 0:
        raise InadmissibleInputError("need lambda_i > 0, x_i >= 0, c > 0")
    s = float(lam.sum())
    if s < 1.0 - 1e-15:
        raise InadmissibleInputError(f"need sum(lambda) >= 1, got {s}")
    if float(lam @ x) > c * s * (1.0 + 1e-15):
        raise InadmissibleInputError("hypothesis sum(lambda_i x_i) <= c*s fails")
    lhs, rhs = (float(v) for v in amgm_sides(lam, x, c))
    holds = lhs <= rhs + 1e-12 * max(1.0, rhs)
    return lhs, rhs, holds


_AMGM_MAX_M = 6  # largest number of weights in one tuple of the audit


def quantitative_amgm_batch(n: int, seed: int = 0):
    """Vectorized random audit of the AM-GM bound; returns worst relative slack.

    Draws admissible (lambda, x, c) tuples with m <= 6 weights and s in [1, 10]
    and reports max(lhs - rhs) normalized by max(1, rhs); nonpositive (up to
    1e-12) when the inequality holds throughout.
    """
    rng = np.random.default_rng(seed)
    worst = -np.inf
    per_m = n // _AMGM_MAX_M + 1
    for m in range(1, _AMGM_MAX_M + 1):
        lam = rng.uniform(0.05, 3.0, size=(per_m, m))
        scale = rng.uniform(1.0, 10.0, size=per_m) / lam.sum(axis=1)
        lam *= scale[:, None]
        s = lam.sum(axis=1)
        c = rng.uniform(0.2, 5.0, size=per_m)
        x = rng.uniform(0.0, 2.0, size=(per_m, m))
        cap = c * s / np.maximum((lam * x).sum(axis=1), 1e-300)
        x *= (cap * rng.uniform(0.0, 1.0, size=per_m))[:, None]
        lhs, rhs = amgm_sides(lam, x, c)
        rel = (lhs - rhs) / np.maximum(1.0, rhs)
        worst = max(worst, float(rel.max()))
    return worst


# ---------------------------------------------------------------------------
# Interval sets on the half-line
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class IntervalSet:
    """Disjoint sorted intervals in [0, infinity), at most 16 of them."""

    intervals: tuple

    def __post_init__(self):
        iv = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", iv)
        if len(iv) > 16:
            raise ValueError("at most 16 intervals supported")
        prev = -np.inf
        for a, b in iv:
            if a < 0 or b <= a:
                raise ValueError("intervals must be positive-length subsets of [0, inf)")
            if a < prev:
                raise ValueError("intervals must be sorted and disjoint")
            prev = b

    def measure(self, power: float = 0.0) -> float:
        """integral over E of t^power dt."""
        return sum(power_mass(a, b, power + 1.0) for a, b in self.intervals)

    def boundary(self):
        """Sorted endpoint multiset; an endpoint at 0 is no boundary point."""
        pts = []
        for a, b in self.intervals:
            if a > 0:
                pts.append(a)
            pts.append(b)
        return sorted(pts)

    def overlap(self, lo: float, hi: float, power: float = 0.0) -> float:
        """integral of t^power over E cap [lo, hi]."""
        return sum(power_mass(max(a, lo), min(b, hi), power + 1.0)
                   for a, b in self.intervals if min(b, hi) > max(a, lo))


def one_dim_stability_check(E: IntervalSet, l: float, gamma: float):
    """One-dimensional stability of [0, l] under the weight t^gamma.

    Returns (lhs, denominator, ratio) where

        lhs          = integral over E symdiff [0, l] of t^gamma dt,
        denominator  = integral over [0, 1/2] \\ E of t^gamma dt
                       + sum over boundary points t of t^gamma |l - t|,

    all in closed form per interval.  The constant-free ratio is bounded
    uniformly over interval sets for each gamma.
    """
    if not 0.75 <= l <= 1.25:
        raise InadmissibleInputError("l must lie in [3/4, 5/4]")
    if gamma < 0:
        raise InadmissibleInputError("gamma must be nonnegative")
    p = gamma + 1.0
    lhs = E.measure(gamma) + power_mass(0.0, l, p) - 2.0 * E.overlap(0.0, l, gamma)
    den = power_mass(0.0, 0.5, p) - E.overlap(0.0, 0.5, gamma)
    den += sum(t ** gamma * abs(l - t) for t in E.boundary())
    ratio = 0.0 if lhs == 0.0 else (math.inf if den == 0.0 else lhs / den)
    return lhs, den, ratio


def one_dim_stability_batch(endpoints: np.ndarray, l: float, gamma: float):
    """Vectorized (lhs, denominator) for arrays of interval-set endpoints.

    ``endpoints`` has shape (n, 2k) with columns (a1, b1, ..., ak, bk),
    sorted and disjoint per row; rows describe interval sets with k pieces.
    """
    p = gamma + 1.0
    a = endpoints[:, 0::2]
    b = endpoints[:, 1::2]
    measure = power_mass(a, b, p).sum(axis=1)
    inter = np.where(a < l, power_mass(np.minimum(a, l), np.minimum(b, l), p), 0.0)
    lhs = measure + power_mass(0.0, l, p) - 2.0 * inter.sum(axis=1)
    covered = np.where(a < 0.5, power_mass(np.minimum(a, 0.5), np.minimum(b, 0.5), p), 0.0)
    den = power_mass(0.0, 0.5, p) - covered.sum(axis=1)
    bd_a = np.where(a > 0, np.where(a > 0, a, 1.0) ** gamma * np.abs(l - a), 0.0)
    bd_b = b ** gamma * np.abs(l - b)
    den = den + bd_a.sum(axis=1) + bd_b.sum(axis=1)
    return lhs, den


# ---------------------------------------------------------------------------
# Shift lower bound for scalar functions
# ---------------------------------------------------------------------------

def shift_lower_bound(eta_breaks, eta_values, a: float, b: float, eps: float):
    """Both sides of the shift inequality for a piecewise-linear function.

    Returns (lhs, rhs) with

        lhs = integral over [a, b] of |eta(t + eps) - eta(t)| dt,
        rhs = eps * ( inf over |t-b| <= eps of eta  -  sup over |t-a| <= eps of eta ),

    computed exactly from the breakpoint representation.
    """
    if eps <= 0 or b <= a:
        raise InadmissibleInputError("need eps > 0 and a < b")
    xb = np.asarray(eta_breaks, dtype=float)
    yb = np.asarray(eta_values, dtype=float)

    def eta(t):
        return np.interp(t, xb, yb)

    knots = set()
    for x in xb:
        if a <= x <= b:
            knots.add(float(x))
        if a <= x - eps <= b:
            knots.add(float(x - eps))
    knots.update((a, b))
    grid = np.array(sorted(knots))
    lhs = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        d_lo = eta(lo + eps) - eta(lo)
        d_hi = eta(hi + eps) - eta(hi)
        if d_lo * d_hi < 0:
            t_cross = lo + (hi - lo) * abs(d_lo) / (abs(d_lo) + abs(d_hi))
            lhs += 0.5 * abs(d_lo) * (t_cross - lo) + 0.5 * abs(d_hi) * (hi - t_cross)
        else:
            lhs += 0.5 * (abs(d_lo) + abs(d_hi)) * (hi - lo)

    def extremum(center, sign):
        lo, hi = center - eps, center + eps
        cand = [eta(lo), eta(hi)]
        cand.extend(eta(x) for x in xb if lo <= x <= hi)
        return max(cand) if sign > 0 else min(cand)

    rhs = eps * (extremum(b, -1) - extremum(a, +1))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Translation diagnostics (ball growth and weight-shift separation)
# ---------------------------------------------------------------------------

def _column_weight_integral(weight: HomWeight, xs, lo, hi):
    """integral of w over each vertical segment {xs[i]} x [lo[i], hi[i]],
    with lo < hi.

    Closed form for monomial weights (a power of y times a constant there),
    8-point Gauss-Legendre otherwise, with one weight call for all columns.
    """
    if weight.exponents is not None:
        a_x, a_y = weight.exponents
        if a_y > 0:  # a positive power is 0 below 0
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        return np.maximum(xs, 0.0) ** a_x * power_mass(lo, hi, a_y + 1.0)
    nodes, gw = np.polynomial.legendre.leggauss(8)
    pts = np.empty((len(xs), len(nodes), 2))
    pts[:, :, 0] = xs[:, None]
    pts[:, :, 1] = 0.5 * (lo + hi)[:, None] + 0.5 * nodes[None, :] * (hi - lo)[:, None]
    vals = weight(pts.reshape(-1, 2)).reshape(-1, len(nodes))
    return 0.5 * (hi - lo) * (vals @ gw)


def _cone_vertical_slices(cone: Cone, xs):
    """The y-interval (lo, hi) of each vertical line {x} x R inside the
    closed cone; lines that miss the cone get lo = inf."""
    lo = np.full(len(xs), -np.inf)
    hi = np.full(len(xs), np.inf)
    for n in cone.inward_normals():
        if abs(n[1]) < 1e-15:
            lo = np.where(n[0] * xs < 0, np.inf, lo)
        elif n[1] > 0:
            lo = np.maximum(lo, -n[0] * xs / n[1])
        else:
            hi = np.minimum(hi, -n[0] * xs / n[1])
    return lo, hi


_BALL_COLUMN_H = 1e-3  # column width of the shifted-ball quadrature


def shifted_ball_volume(weight: HomWeight, center) -> float:
    """w(B_1(center) cap cone) on the weight's cone by column quadrature
    (midpoint in x, exact in y).

    The shifted ball is generally not star-shaped about the origin, so the
    polar formulas do not apply; each vertical slab of width 1e-3 contributes
    an interval in y on which the weight integrates in closed form.
    """
    h = _BALL_COLUMN_H
    cx, cy = float(center[0]), float(center[1])
    xs = np.arange(cx - 1.0 + h / 2.0, cx + 1.0, h)
    dx2 = 1.0 - (xs - cx) ** 2
    inside = dx2 > 0
    xs, half = xs[inside], np.sqrt(dx2[inside])
    clo, chi = _cone_vertical_slices(weight.cone, xs)
    lo = np.maximum(cy - half, clo)
    hi = np.minimum(cy + half, chi)
    cut = hi > lo
    return float(_column_weight_integral(weight, xs[cut], lo[cut], hi[cut]).sum()) * h


def ball_volume_growth(weight: HomWeight, xi) -> float:
    """w(B_1(xi) cap cone) - w(B_1 cap cone), both by the same column quadrature."""
    xi = np.asarray(xi, dtype=float)
    if float(np.linalg.norm(xi)) > 0.5 + 1e-12:
        raise InadmissibleInputError("growth is probed only for |xi| <= 0.5")
    if not np.any(xi):
        return 0.0
    return shifted_ball_volume(weight, xi) - shifted_ball_volume(weight, (0.0, 0.0))


def shifted_weight_separation(weight: HomWeight, box, xi, h: float = 2e-3) -> float:
    """integral over the box Q of |w^(1/a)(x + xi) - w^(1/a)(x)| dx (midpoint rule).

    Zero exactly when xi points along a constancy direction of the weight;
    otherwise grows linearly in |xi| for small shifts.
    """
    (x0, x1), (y0, y1) = box
    xi = np.asarray(xi, dtype=float)
    d_box = weight.cone.box_margin(box)
    if d_box < 0:
        raise InadmissibleInputError("box must lie inside the cone")
    # the boundary distance is 1-Lipschitz, so the shifted box stays inside too
    if float(np.linalg.norm(xi)) > 0.5 * d_box + 1e-12:
        raise InadmissibleInputError("|xi| must be at most dist(Q, boundary)/2")
    xs = np.arange(x0 + h / 2.0, x1, h)
    ys = np.arange(y0 + h / 2.0, y1, h)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = np.abs(weight.root(pts + xi) - weight.root(pts))
    return float(vals.sum()) * h * h


def translated_ball_control_check(star: StarSet, weight: HomWeight, x0):
    """Compare w(E symdiff B_1(x0)) with the boundary integral of ||x-x0|-1| w.

    Requires w(E cap B_1/2) >= w(B_1/2 cap cone)/2 and |x0| <= 0.2.  Returns
    (lhs, rhs, ratio); the ratio is reported as inf when rhs vanishes (the
    exact-ball degenerate case).
    """
    x0 = np.asarray(x0, dtype=float)
    if float(np.linalg.norm(x0)) > 0.2 + 1e-12:
        raise InadmissibleInputError("|x0| must be at most 0.2")
    capped = StarSet(star.cone, star.thetas, np.minimum(star.radii, 0.5))
    w_half = deficit(star, weight).unit_volume * 0.5 ** weight.D
    if weighted_volume(capped, weight) < 0.5 * w_half - 1e-12:
        raise HypothesisFailure("set holds less than half the small ball's mass")
    lhs = symdiff_with_ball(star, weight, x0, 1.0)
    rhs = boundary_weighted_integral(
        star, weight, lambda p: np.abs(np.hypot(p[:, 0] - x0[0], p[:, 1] - x0[1]) - 1.0)
    )
    ratio = math.inf if rhs <= 1e-14 else lhs / rhs
    return lhs, rhs, ratio


# ---------------------------------------------------------------------------
# Cheeger constants
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CheegerResult:
    """The least ratio tau and a subset F attaining it.

    ``best_subset`` is a tuple of (a, b) intervals, left to right, or None
    when no candidate has a finite ratio.
    """

    tau: float
    best_subset: tuple | None


def _atoms(ts, ia, ib, alpha: float, e_bound):
    """Intervals [ts[ia], ts[ib]] as arrays (a, b, w(F), p_a, p_b, s_a, s_b).

    p and s are each endpoint's perimeter weight t^alpha and its part on dE;
    an endpoint at t <= 1e-14 carries none.  Powers and rounding are taken
    once per value of ts, as scalars, and gathered: an array power may round
    differently, and the ratio sums must not depend on it.
    """
    mass, per, shared = [], [], []
    for t in ts:
        w = 0.0 if t <= 1e-14 else t ** alpha
        mass.append(t ** (alpha + 1.0))
        per.append(w)
        shared.append(w if round(t, 12) in e_bound else 0.0)
    mass, per, shared = np.array(mass), np.array(per), np.array(shared)
    vol = (mass[ib] - mass[ia]) / (alpha + 1.0)  # power_mass(a, b, alpha + 1)
    return ts[ia], ts[ib], vol, per[ia], per[ib], shared[ia], shared[ib]


def _cheeger_ratios(parts, half: float):
    """Per_w(F) / H_w(dF cap dE) for each candidate F, inf where F is excluded.

    ``parts`` holds one (atoms, index) pair per component position, left to
    right.  The sums fold left over the components and, within one, over a
    then b, so each ratio is the one a per-candidate loop computes.  F is
    excluded unless 1e-14 < w(F) <= half (1 + 1e-12) and its boundary
    shares weight with dE.
    """
    vol = per = shared = 0.0
    for (_a, _b, w, p_a, p_b, s_a, s_b), idx in parts:
        vol = vol + w[idx]
        per = per + p_a[idx] + p_b[idx]
        shared = shared + s_a[idx] + s_b[idx]
    ok = (vol > 1e-14) & (vol <= half * (1.0 + 1e-12)) & (shared > 0)
    return np.divide(per, shared, out=np.full(ok.shape, math.inf), where=ok)


def _first_min(best, ratios, subset):
    """(ratios[k], subset(k)) for the first least ratio k if it beats best[0]."""
    if ratios.size:
        k = int(np.argmin(ratios))
        if ratios[k] < best[0]:
            return ratios[k], subset(k)
    return best


_CHEEGER_GRID = 48  # endpoints per interval of the 1-D search grid
_CHEEGER_REFINE = 2  # rounds of local refinement around the best subset


def cheeger_bruteforce(E: IntervalSet, alpha: float, max_components: int = 2) -> CheegerResult:
    """Cheeger constant tau(E) = inf Per_w(F) / H_w(dF cap dE) by brute force.

    E is an interval set on (0, infinity) with weight t^alpha, and F runs
    over unions of at most ``max_components`` intervals with
    0 < w(F) <= w(E)/2; candidates whose boundary shares nothing with the
    boundary of E have ratio infinity.

    The endpoints lie on per-interval grids.  The candidates are each
    interval [g_i, g_j], i < j, of one interval's grid, interval by
    interval, then, with two components, each disjoint pair of those, rows
    i < j in the same order; the first candidate of least ratio wins.  Each
    refinement round then moves the free endpoints of the winner over 65
    points each, on a grid 32 times finer.
    """
    alpha = float(alpha)
    half = E.measure(alpha) / 2.0
    e_bound = {round(t, 12) for t in E.boundary()}
    ts = np.concatenate([np.linspace(a, b, _CHEEGER_GRID) for a, b in E.intervals])
    iu, ju = np.triu_indices(_CHEEGER_GRID, 1)
    offsets = _CHEEGER_GRID * np.arange(len(E.intervals))[:, None]
    atoms = _atoms(ts, (offsets + iu).ravel(), (offsets + ju).ravel(), alpha, e_bound)
    a, b = atoms[:2]
    best = _first_min((math.inf, None), _cheeger_ratios([(atoms, slice(None))], half),
                      lambda k: ((a[k], b[k]),))
    if max_components >= 2:
        n = len(a)
        cols = np.arange(n)
        gap = a - 1e-14
        rows = max(1, _BLOCK // n)
        for r0 in range(0, n, rows):
            i = np.arange(r0, min(r0 + rows, n))[:, None]
            before = b[i] < gap  # atom i ends left of atom j
            ri, j = np.nonzero((cols > i) & (before | (b < gap[i])))
            i = ri + r0
            left = np.where(before[ri, j], i, j)
            right = i + j - left
            best = _first_min(best, _cheeger_ratios([(atoms, left), (atoms, right)], half),
                              lambda k: ((a[left[k]], b[left[k]]), (a[right[k]], b[right[k]])))

    lo = np.array([iv[0] for iv in E.intervals]) - 1e-12
    hi = np.array([iv[1] for iv in E.intervals]) + 1e-12
    locked = {round(t, 12) for iv in E.intervals for t in iv}
    step = max(y - x for x, y in E.intervals) / (_CHEEGER_GRID - 1)
    for _ in range(_CHEEGER_REFINE):
        if best[1] is None:
            break
        step /= 32.0
        parts, inside = [], []
        for end_a, end_b in best[1]:
            opts_a, opts_b = (
                np.array([t]) if round(t, 12) in locked
                else np.linspace(t - 32 * step, t + 32 * step, 65)
                for t in (end_a, end_b))
            ia, ib = np.nonzero(opts_b > opts_a[:, None] + 1e-14)
            comp = _atoms(np.concatenate([opts_a, opts_b]), ia, len(opts_a) + ib,
                          alpha, e_bound)
            parts.append(comp)
            inside.append(((lo <= comp[0][:, None]) & (comp[1][:, None] <= hi)).any(axis=1))
        shape = tuple(len(comp[0]) for comp in parts)
        total = math.prod(shape)
        for start in range(0, total, _BLOCK):
            idx = np.unravel_index(np.arange(start, min(start + _BLOCK, total)), shape)
            keep = np.logical_and.reduce([ok[k] for ok, k in zip(inside, idx)])
            for c in range(len(parts) - 1):
                keep &= parts[c][1][idx[c]] < parts[c + 1][0][idx[c + 1]] + 1e-14
            idx = [k[keep] for k in idx]
            best = _first_min(best, _cheeger_ratios(list(zip(parts, idx)), half),
                              lambda k: tuple((comp[0][i[k]], comp[1][i[k]])
                                              for comp, i in zip(parts, idx)))
    return CheegerResult(best[0], best[1])


# ---------------------------------------------------------------------------
# Psi / k(D) constants
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class FmpConstants:
    """Effective dimension D, the constant k(D), and the profile Psi."""

    D: float
    k: float

    def psi(self, t):
        e = (self.D - 1.0) / self.D
        t = np.asarray(t, dtype=float)
        return t ** e + (1.0 - t) ** e - 1.0


def psi_k(D: float) -> FmpConstants:
    """k(D) = (2 - 2^((D-1)/D)) / 3 and the concave profile Psi on [0, 1].

    Psi(t) = t^((D-1)/D) + (1-t)^((D-1)/D) - 1 satisfies Psi(0) = Psi(1) = 0,
    Psi(1/2) = 2^(1/D) - 1, and Psi(t) >= 3 k(D) t^((D-1)/D) on [0, 1/2].
    """
    if D <= 1:
        raise InadmissibleInputError("effective dimension must exceed 1")
    k = (2.0 - 2.0 ** ((D - 1.0) / D)) / 3.0
    return FmpConstants(D, k)


# ---------------------------------------------------------------------------
# Removal of critical sector subsets
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RemovalReport:
    applicable: bool
    hypothesis_margin: float
    volume_ok: bool | None
    perimeter_ok: bool | None
    deficit_ok: bool | None
    details: dict


def _sector_cut_weight(star: StarSet, weight: HomWeight, theta: float) -> float:
    """H^1_w of the radial segment {t*u(theta): 0 < t < r(theta)}."""
    r = float(star.radius_at(theta))
    w_arc = float(weight.arc_values(np.array([theta]))[0])
    return w_arc * power_mass(0.0, r, weight.D - 1.0)


def _partial_quadrature(star: StarSet, weight: HomWeight, mask):
    """(volume, outer-boundary weight) of the star restricted to masked angles."""
    thetas = star.thetas[mask]
    if len(thetas) < 2:
        return 0.0, 0.0
    sub_qw = np.gradient(thetas)
    sub_qw[0] = (thetas[1] - thetas[0]) / 2.0
    sub_qw[-1] = (thetas[-1] - thetas[-2]) / 2.0
    wv = weight.arc_values(thetas)
    vol = float(sub_qw @ (star.radii[mask] ** weight.D * wv)) / weight.D
    outer = float(sub_qw @ boundary_element(star, weight)[mask])
    return vol, outer


def removal_lemma_check(star: StarSet, weight: HomWeight, theta_a: float,
                        theta_b: float) -> RemovalReport:
    """Removal estimates for the sector subset F = E cap {theta in [a, b]}.

    Hypothesis: 0 < w(F) < w(E)/2 and Per_w(F) <= (1 + k(D)) H_w(dE cap dF),
    where dF consists of the shared outer boundary plus the two radial cuts.
    When it holds, the conclusions are checked:

        (i)   w(F) <= (delta(E)/k(D))^(D/(D-1)) w(E),
        (ii)  Per_w(E \\ F) <= Per_w(E),
        (iii) delta(E \\ F) <= (3/k(D)) delta(E)   [only when delta(E) <= k(D)].
    """
    cone = star.cone
    if not (cone.angle_lo - 1e-12 <= theta_a < theta_b <= cone.angle_hi + 1e-12):
        raise ValueError("sector must lie within the cone's arc")
    D = weight.D
    k = psi_k(D).k
    rep = deficit(star, weight)
    w_E, per_E, delta_E = rep.w_volume, rep.w_perimeter, rep.deficit

    mask = (star.thetas >= theta_a - 1e-14) & (star.thetas <= theta_b + 1e-14)
    vol_F, outer_F = _partial_quadrature(star, weight, mask)
    cuts = 0.0
    for theta in (theta_a, theta_b):
        if cone.angle_lo + 1e-12 < theta < cone.angle_hi - 1e-12:
            cuts += _sector_cut_weight(star, weight, theta)
    per_F = outer_F + cuts
    shared = outer_F

    hyp_volume = 0.0 < vol_F < w_E / 2.0
    hyp_margin = (1.0 + k) * shared - per_F
    applicable = hyp_volume and hyp_margin >= 0.0
    details = {
        "w_E": w_E, "per_E": per_E, "delta_E": delta_E,
        "w_F": vol_F, "per_F": per_F, "shared": shared, "cuts": cuts,
        "k": k,
    }
    if not applicable:
        return RemovalReport(False, hyp_margin, None, None, None, details)

    vol_bound = (max(delta_E, 0.0) / k) ** (D / (D - 1.0)) * w_E
    volume_ok = vol_F <= vol_bound + 1e-12 * max(1.0, vol_bound)

    vol_rest = w_E - vol_F
    per_rest = (per_E - outer_F) + cuts
    perimeter_ok = per_rest <= per_E + 1e-12 * max(1.0, per_E)
    details["per_E_minus_F"] = per_rest

    deficit_ok = None
    if delta_E <= k:
        delta_rest = deficit_value(per_rest, vol_rest, rep.unit_volume, D)
        deficit_ok = delta_rest <= (3.0 / k) * delta_E + 1e-12
        details["delta_E_minus_F"] = delta_rest
    return RemovalReport(True, hyp_margin, volume_ok, perimeter_ok, deficit_ok, details)


# ---------------------------------------------------------------------------
# Trace and Sobolev-Poincare inequalities on the weighted half-line
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TracePoincareReport:
    median: float
    lhs: float
    trace_rhs: float
    poincare_rhs: float

    @property
    def trace_holds(self) -> bool:
        return self.lhs >= self.trace_rhs - 1e-12 * max(1.0, self.trace_rhs)

    @property
    def poincare_holds(self) -> bool:
        return self.lhs >= self.poincare_rhs - 1e-12 * max(1.0, self.poincare_rhs)


def trace_poincare_check_1d(E: IntervalSet, pieces, alpha: float,
                            tau: float) -> TracePoincareReport:
    """Trace and Poincare inequalities for a piecewise-constant f on E.

    ``pieces`` is a list of ((lo, hi), value) covering E.  With weight
    t^alpha, D = 1 + alpha, and c the weighted median of f on E:

        lhs          = sum over interior jumps of |jump| * w(t),
        trace rhs    = (tau - 1) * sum over dE of |trace f - c| * w(t),
        poincare rhs = D (1 - 1/tau) * ( integral |f-c|^(D/(D-1)) w )^((D-1)/D).
    """
    D = 1.0 + alpha
    items = sorted(((iv, v) for iv, v in pieces), key=lambda t: t[0][0])
    total = sum(power_mass(lo, hi, D) for (lo, hi), _v in items)
    by_value = {}
    for (lo, hi), v in items:
        by_value[v] = by_value.get(v, 0.0) + power_mass(lo, hi, D)
    acc = 0.0
    median = items[-1][1]
    for v in sorted(by_value):
        acc += by_value[v]
        if acc >= total / 2.0 - 1e-15:
            median = v
            break

    lhs = 0.0
    for ((_lo1, hi1), v1), ((lo2, _hi2), v2) in zip(items[:-1], items[1:]):
        if abs(hi1 - lo2) > 1e-12:
            continue
        interior = any(a + 1e-12 < hi1 < b - 1e-12 for a, b in E.intervals)
        if interior:
            lhs += abs(v2 - v1) * hi1 ** alpha

    def piece_value_at(t):
        # one-sided value from inside E at a boundary point
        for (lo, hi), v in items:
            if lo - 1e-12 <= t <= hi + 1e-12:
                return v
        return None

    trace_sum = 0.0
    for t in E.boundary():
        val = piece_value_at(t)
        if val is not None:
            trace_sum += abs(val - median) * t ** alpha
    trace_rhs = (tau - 1.0) * trace_sum

    q = D / (D - 1.0)
    integral = sum(abs(v - median) ** q * power_mass(lo, hi, D) for (lo, hi), v in items)
    poincare_rhs = D * (1.0 - 1.0 / tau) * integral ** ((D - 1.0) / D)
    return TracePoincareReport(median, lhs, trace_rhs, poincare_rhs)
