"""Star-shaped sets in a cone and their weighted measure-theoretic functionals.

A set is stored as a sampled radial function r(theta) over the cone's unit
arc.  In polar coordinates the weighted volume and perimeter of the region
{t*u(theta): 0 < t < r(theta)} are

    w(E)     = (1/D) * integral r^D * w(theta) dtheta,
    Per_w(E) = integral r^(D-1) * sqrt(1 + (r'/r)^2) * w(theta) dtheta,

with D the effective dimension carried by the weight.  Only the part of the
boundary inside the open cone contributes to the perimeter, which the polar
parametrization encodes automatically.  Quadrature is trapezoidal on the
uniform angular grid (periodic rectangle rule for full-plane sets).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cone_weight import TWO_PI, Cone, HomWeight, unit


class ZeroVolumeError(ValueError):
    """The set has no weighted mass."""


class UnsupportedTranslationError(ValueError):
    """symdiff_with_ball needs the origin strictly inside the translated ball."""


_RADIUS_CAP = 64.0  # the largest radius a star set may carry
# float64 entries of a kernel's scratch block (2^18, 2 MB): a kernel's passes
# then stay in a core's L2 cache, not in main memory as tens of MB would, and
# its scratch does not grow with its input.
_BLOCK = 1 << 18
# emit_csv writes _BLOCK / _CELL_FLOATS cells per block: a cell's text and its
# formatting passes take about 12 float64s (96 B), so a block stays under 2 MB
_CELL_FLOATS = 16


@dataclasses.dataclass(frozen=True)
class StarSet:
    """Region of the cone sampled as radii over a uniform angular grid."""

    cone: Cone
    thetas: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        if len(self.thetas) != len(self.radii):
            raise ValueError("angular grid and radii lengths differ")
        if not np.all(np.isfinite(self.radii)):
            raise ValueError("radii must be finite")
        if np.any(self.radii <= 0):
            raise ValueError("radii must be strictly positive")
        if np.any(self.radii > _RADIUS_CAP):
            raise ValueError("radii exceed the declared cap")

    @property
    def periodic(self) -> bool:
        return self.cone.full_plane

    def quad_weights(self) -> np.ndarray:
        return self.cone.arc_quad_weights(self.thetas)

    def radial_derivative(self) -> np.ndarray:
        """dr/dtheta by central differences (wrapping for full-plane sets)."""
        r = self.radii
        if self.periodic:
            h = self.thetas[1] - self.thetas[0]
            return (np.roll(r, -1) - np.roll(r, 1)) / (2.0 * h)
        return np.gradient(r, self.thetas, edge_order=2)

    def radius_at(self, theta):
        """Radial function at arbitrary angles, linear between nodes; full-plane
        sets wrap with period 2pi, and wedges read each angle in the cone's
        frame (:meth:`Cone.frame_angle`) and hold the end radii beyond the grid."""
        if self.periodic:
            return np.interp(theta, self.thetas, self.radii, period=TWO_PI)
        return np.interp(self.cone.frame_angle(theta), self.thetas, self.radii)

    def boundary_points(self) -> np.ndarray:
        return self.radii[:, None] * unit(self.thetas)

    def contains(self, pts, tol: float = 1e-12) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.hypot(pts[:, 0], pts[:, 1])
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        inside_cone = self.cone.contains(pts, tol=tol)
        return inside_cone & (r <= self.radius_at(theta) * (1.0 + 1e-12) + tol)

    # -- factories ----------------------------------------------------------

    @staticmethod
    def ball(cone: Cone, n_theta: int, r: float = 1.0, center=(0.0, 0.0)) -> "StarSet":
        """B_r(center) cap cone; the center must satisfy |center| < r."""
        center = np.asarray(center, dtype=float)
        if np.linalg.norm(center) >= r:
            raise ValueError("ball star representation needs |center| < r")
        thetas = cone.arc_grid(n_theta)
        return StarSet(cone, thetas, _ball_ray_interval(unit(thetas), center, r)[1])

    @staticmethod
    def from_radial(cone: Cone, n_theta: int, fn) -> "StarSet":
        thetas = cone.arc_grid(n_theta)
        return StarSet(cone, thetas, np.asarray(fn(thetas), dtype=float))

    @staticmethod
    def perturbed_ball(weight: HomWeight, n_theta: int, eps: float, eta_fn) -> "StarSet":
        """r = 1 + eps * eta on the weight's cone, with eta projected to zero
        weighted mean.

        The projection uses the same trapezoidal quadrature as the volume so
        that the first-order volume variation cancels exactly in the discrete
        functionals as well.
        """
        cone = weight.cone
        thetas = cone.arc_grid(n_theta)
        eta = np.asarray(eta_fn(thetas), dtype=float)
        qw = cone.arc_quad_weights(thetas)
        wv = weight.arc_values(thetas)
        total = float(qw @ wv)
        if total <= 0:
            raise ZeroVolumeError("weight has no mass on the arc")
        eta = eta - float(qw @ (wv * eta)) / total
        if np.max(np.abs(eta)) <= 1e-14:
            raise ValueError("perturbation profile vanishes after projection")
        return StarSet(cone, thetas, 1.0 + eps * eta)


@dataclasses.dataclass(frozen=True)
class MeasureReport:
    """Weighted volume, perimeter, isoperimetric deficit, equivalent radius,
    and w(B1 cap cone) at the set's own angular quadrature."""

    w_volume: float
    w_perimeter: float
    deficit: float
    r_eq: float
    unit_volume: float


def _require_weighted(star: StarSet, weight: HomWeight):
    if star.cone.full_plane:
        raise ValueError("weighted functionals need a wedge or half-plane cone, "
                         "not the full plane")
    if not star.cone.same_as(weight.cone):
        raise ValueError("set and weight live on different cones")


def weighted_volume(star: StarSet, weight: HomWeight) -> float:
    """w(E) by polar quadrature of r^D * w(theta) / D."""
    _require_weighted(star, weight)
    return _volume(star, weight.D, star.quad_weights(), weight.arc_values(star.thetas))


def _volume(star: StarSet, D: float, qw, wv) -> float:
    """w(E) from the quadrature weights ``qw`` and angular weight ``wv``."""
    return float(qw @ (star.radii ** D * wv)) / D


def boundary_element(star: StarSet, weight: HomWeight) -> np.ndarray:
    """Weighted arc element r^(D-1) sqrt(1 + (r'/r)^2) w(theta) at each angular node."""
    return _arc_element(star, weight.D, weight.arc_values(star.thetas))


def _arc_element(star: StarSet, D: float, wv) -> np.ndarray:
    """``boundary_element`` from the angular weight ``wv``."""
    r = star.radii
    dr = star.radial_derivative()
    return r ** (D - 1.0) * np.sqrt(1.0 + (dr / r) ** 2) * wv


def deficit(star: StarSet, weight: HomWeight) -> MeasureReport:
    """Scale-invariant weighted isoperimetric deficit report.

    delta = Per_w(E) / (c_star * w(E)^((D-1)/D)) - 1 with c_star evaluated at
    the set's own quadrature so that balls about the origin report exactly
    zero in floating point.  The quadrature weights and the angular weight
    are computed once, for the volume, the perimeter and w(B1 cap cone).
    """
    _require_weighted(star, weight)
    D = weight.D
    qw = star.quad_weights()
    wv = weight.arc_values(star.thetas)
    vol = _volume(star, D, qw, wv)
    if vol <= 0:
        raise ZeroVolumeError("set has zero weighted volume")
    per = float(qw @ _arc_element(star, D, wv))
    w1 = float(qw @ wv) / D
    r_eq = (vol / w1) ** (1.0 / D)
    return MeasureReport(vol, per, deficit_value(per, vol, w1, D), r_eq, w1)


def deficit_value(per: float, vol: float, unit_volume: float, D: float) -> float:
    """Per / (c_star * vol^((D-1)/D)) - 1 with c_star = D * unit_volume^(1/D).

    ``unit_volume`` is the measure of the unit ball (of the Wulff shape K in
    the anisotropic case, where D = 2), so balls score zero.
    """
    c_star = D * unit_volume ** (1.0 / D)
    return per / (c_star * vol ** ((D - 1.0) / D)) - 1.0


def emit_csv(path, columns, rows) -> None:
    """Header line, then one line per row of ``rows``, a 2-D float array or a
    sequence of tuples.  A column of strings (every row's entry a str) is
    written as it is; the columns of numbers go through ``_number_cells``
    together, to 12 significant digits as ``np.savetxt(fmt="%.12g")`` writes
    them and NaN as an empty cell.  The column kinds are decided once for
    the whole table; the rows are then formatted and written in blocks of
    about ``_BLOCK / _CELL_FLOATS`` cells, so the scratch text stays near one
    block whatever the table's length."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        if not len(rows):
            return
        width = len(rows[0])
        numeric = [j for j in range(width) if not all(isinstance(row[j], str) for row in rows)]
        step = max(1, _BLOCK // (_CELL_FLOATS * width))
        for r0 in range(0, len(rows), step):
            block = rows[r0:r0 + step]
            cols = list(block.T) if isinstance(block, np.ndarray) else list(zip(*block))
            cells = _number_cells(np.array([cols[j] for j in numeric], dtype=float))
            for j, col in zip(numeric, cells):
                cols[j] = col
            fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


def _number_cells(block: np.ndarray) -> list:
    """The "%.12g" cells of a float64 array, "" for NaN, as nested lists of
    its shape, each distinct bit pattern formatted once: an envelope grid
    repeats each x per row and each y per column, and its slopes are
    samples of the body.  Bit patterns, not values, keep -0.0 apart from
    0.0."""
    bits = np.ravel(block).view(np.uint64)
    order = np.argsort(bits)
    ranked = bits[order]
    first = np.ones(len(bits), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    values = ranked[first].view(np.float64)
    texts = np.array(["%.12g" % v for v in values.tolist()], dtype=object)
    texts[np.isnan(values)] = ""
    inverse = np.empty(len(bits), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return texts[inverse].reshape(np.shape(block)).tolist()


def power_mass(a, b, p):
    """(b^p - a^p) / p, the integral of t^(p-1) over [a, b] (elementwise)."""
    return (b ** p - a ** p) / p


def _ball_ray_interval(u, x0, r):
    """Intersection (t-, t+) of the rays along the unit vectors ``u`` with the
    ball B_r(x0); empty -> t-=t+=0.

    With disc = (b^2 + r^2) - |x0|^2 and b = u . x0, a ray that meets the ball
    (disc > 0) gets t-+ = max(b -+ sqrt(disc), 0).  A ray that misses it has
    b zeroed and sqrt(max(disc, 0)) = 0, so both ends come out +0.
    """
    x0 = np.asarray(x0, dtype=float)
    b = u @ x0
    disc = b * b
    disc += r * r
    disc -= float(np.dot(x0, x0))
    np.copyto(b, 0.0, where=disc <= 0.0)
    root = np.sqrt(np.maximum(disc, 0.0, out=disc), out=disc)
    t_minus = np.maximum(b - root, 0.0)
    t_plus = np.maximum(np.add(b, root, out=root), 0.0, out=root)
    return t_minus, t_plus


def _power_of_positive(t, D):
    """t^D with +0 where t is 0; only the positive entries go to ``np.power``."""
    positive = t > 0.0
    if positive.all():
        return np.power(t, D)
    return np.power(t, D, out=np.zeros_like(t), where=positive)


def _symdiff_with_balls(star: StarSet, weight: HomWeight):
    """(x0, r) -> w(E symdiff (B_r(x0) cap cone)) by per-ray interval algebra,
    valid for any center (rays may miss the ball).

    The arrays that depend on the set alone (ray directions, angular weight,
    quadrature weights, rE^D and w(E) per ray) are computed here once; each
    call computes only the ray intervals and the two masses that depend on
    x0.  On a ray the ball covers [t-, t+] and E covers [0, rE], so with
    hi = max(min(rE, t+), t-) the ray's share is
    m_e + m_b - 2 m_i = rE^D/D + (t+^D - t-^D)/D - 2 (hi^D - t-^D)/D.  Four
    facts let one call take at most two powers, of positive radii only, and
    still give every ray the bits of the direct formula:

    - t+ >= t- on every ray (b + root >= b - root, max(., 0) is monotone, and
      both are 0 on a ray that misses), so max(t+, t-)^D is t+^D;
    - hi is exactly one of rE, t+ and t-, so hi^D is picked from rE^D, t+^D
      and t-^D;
    - 0^D = +0 for D = 2 + alpha > 0, so a zero radius needs no power, and
      t- is 0 on every ray whenever the origin lies inside the ball;
    - ``np.power`` rounds each element on its own, so powering the positive
      entries alone gives each of them the same bits.

    Zeros are kept out of ``np.power`` because 0 is the slowest input of its
    vectorized loop (several times the cost of a positive one), and most
    radii are 0: t- on every ray while the origin is inside the ball, and
    both ends on the rays that miss it.  When t- is 0 on every ray its
    subtraction is skipped (x - 0 is x), and the in-place ``-=``, ``/=`` and
    ``*=`` round as the direct expression does.
    """
    _require_weighted(star, weight)
    D = weight.D
    u = unit(star.thetas)
    rE = star.radii
    qw = star.quad_weights()
    wv = weight.arc_values(star.thetas)
    rE_D = rE ** D
    m_e = rE_D / D  # power_mass(0.0, rE, D): rE^D - 0^D is rE^D

    def symdiff(x0, r: float) -> float:
        t_minus, t_plus = _ball_ray_interval(u, x0, r)
        m_b = _power_of_positive(t_plus, D)
        m_i = np.where(rE < t_plus, rE_D, m_b)  # hi^D where t- <= rE
        if t_minus.any():
            tm_D = _power_of_positive(t_minus, D)
            np.copyto(m_i, tm_D, where=rE < t_minus)
            m_b -= tm_D
            m_i -= tm_D
        m_b /= D
        m_i /= D
        m_b += m_e
        m_i *= 2.0
        m_b -= m_i
        m_b *= wv
        return float(qw @ m_b)

    return symdiff


def symdiff_with_ball(star: StarSet, weight: HomWeight, x0, r: float) -> float:
    """w(E symdiff (B_r(x0) cap cone)) for |x0| < r.

    Each ray then meets the ball in a segment containing the origin, as in
    the star representation of :meth:`StarSet.ball`.
    """
    symdiff = _symdiff_with_balls(star, weight)
    x0 = np.asarray(x0, dtype=float)
    if float(np.linalg.norm(x0)) >= r:
        raise UnsupportedTranslationError("need |x0| < r so every ray meets the ball")
    return symdiff(x0, r)


def asymmetry(star: StarSet, weight: HomWeight, rep: MeasureReport):
    """Asymmetry A_w(E) and the best translation along the cone's line subspace.

    A_w is the weighted symmetric difference to the equivalent-radius ball,
    normalized by w(E); ``rep`` is the set's :func:`deficit` report, which
    gives w(E) and the radius.  Translations range over the line subspace
    only.  For a half-plane the translation is located by a 65-point scan
    followed by golden-section refinement to 1e-6 on |t| <= 2 r_eq, about 93
    evaluations of w(E symdiff B); the set's own arrays are computed once per
    search, so each evaluation costs only the terms that depend on the
    translation.
    """
    vol, r_eq = rep.w_volume, rep.r_eq
    symdiff = _symdiff_with_balls(star, weight)  # rejects the full plane (k = 2)
    if star.cone.k == 0:
        return symdiff(np.zeros(2), r_eq) / vol, np.zeros(2)

    direction, = star.cone.basis_L()

    def objective(t):
        return symdiff(t * direction, r_eq) / vol

    span = 2.0 * r_eq
    ts = np.linspace(-span, span, 65)
    vals = [objective(t) for t in ts]
    i = int(np.argmin(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, len(ts) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > 1e-6:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = objective(d)
    t_best = 0.5 * (a + b)
    return objective(t_best), t_best * direction


def boundary_weighted_integral(star: StarSet, weight: HomWeight, integrand) -> float:
    """integral over the boundary curve inside the cone of g * w dH^1.

    ``integrand`` is vectorized over an (n, 2) array of boundary points.  The
    arc-length element in polar form factors as r^(D-1) sqrt(1 + (r'/r)^2)
    times the angular weight.
    """
    _require_weighted(star, weight)
    g = np.asarray(integrand(star.boundary_points()), dtype=float)
    return float(star.quad_weights() @ (g * boundary_element(star, weight)))
