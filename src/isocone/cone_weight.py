"""Planar convex cones and homogeneous weights with a concave root.

A cone is an open angular sector with vertex at the origin and opening at
most pi (a half-plane when the opening equals pi, in which case it contains
exactly one line).  Weights are alpha-homogeneous, nonnegative on the closed
cone, and admissible when their alpha-th root is concave.  The admission
criterion is sampled, not proved symbolically: for interior points x, z the
inequality

    alpha * (w(z)/w(x))^(1/alpha)  <=  grad w(x) . z / w(x)

characterizes concavity of w^(1/alpha).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

TWO_PI = 2.0 * math.pi

ADMISSION_PAIRS = 10_000
ADMISSION_TOL = 1e-10
_SAME_CONE_TOL = 1e-12  # wedge angles this close give the same cone
_CONSTANCY_TOL = 1e-10  # relative weight change still constant along a direction


class InadmissibleWeightError(ValueError):
    """The weight fails homogeneity or the concavity admission check."""


def unit(theta):
    """Unit vector(s) at polar angle theta, shape (..., 2)."""
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


@dataclasses.dataclass(frozen=True)
class Cone:
    """Open convex planar cone {r*u(theta): r > 0, angle_lo < theta < angle_hi}.

    ``full_plane`` marks the degenerate all-of-R^2 case used only by the
    anisotropic (unweighted) pipeline; weighted functionals reject it.
    """

    angle_lo: float
    angle_hi: float
    full_plane: bool = False

    def __post_init__(self):
        if self.full_plane:
            return
        opening = self.angle_hi - self.angle_lo
        if not 0.0 < opening <= math.pi + 1e-12:
            raise ValueError(f"cone opening must lie in (0, pi], got {opening}")

    @property
    def opening(self) -> float:
        return TWO_PI if self.full_plane else self.angle_hi - self.angle_lo

    @property
    def k(self) -> int:
        """Number of independent line directions contained in the cone."""
        if self.full_plane:
            return 2
        return 1 if abs(self.opening - math.pi) <= 1e-12 else 0

    def basis_L(self) -> tuple[np.ndarray, ...]:
        """Orthonormal basis of the subspace of lines contained in the cone."""
        if self.full_plane:
            return (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        if self.k == 0:
            return ()
        d = unit(self.angle_lo)
        if d[0] < 0 or (d[0] == 0 and d[1] < 0):
            d = -d
        return (d,)

    def inward_normals(self):
        """Inward unit normals of the two boundary rays (one pair per ray)."""
        lo, hi = self.angle_lo, self.angle_hi
        n_lo = np.array([-math.sin(lo), math.cos(lo)])
        n_hi = np.array([math.sin(hi), -math.cos(hi)])
        return n_lo, n_hi

    def boundary_distance(self, pts):
        """Signed distance to the cone boundary (positive inside)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.full_plane:
            return np.full(pts.shape[0], np.inf)
        n_lo, n_hi = self.inward_normals()
        return np.minimum(pts @ n_lo, pts @ n_hi)

    def contains(self, pts, tol: float = 1e-12):
        """Membership in the closed cone, with absolute slack ``tol``."""
        return self.boundary_distance(pts) >= -tol

    def box_margin(self, box) -> float:
        """Least signed boundary distance over the corners of the box
        [[x_lo, x_hi], [y_lo, y_hi]]; the box lies in the cone with that much
        room to spare, since the distance is concave."""
        corners = np.array([(x, y) for x in box[0] for y in box[1]])
        return float(np.min(self.boundary_distance(corners)))

    def arc_grid(self, n: int) -> np.ndarray:
        """Uniform angular grid on the unit arc.

        Wedges include both endpoints; the full plane uses a periodic grid
        on [0, 2pi) without the duplicate endpoint.
        """
        if self.full_plane:
            return np.linspace(0.0, TWO_PI, n, endpoint=False)
        return np.linspace(self.angle_lo, self.angle_hi, n)

    def arc_step(self, n: int) -> float:
        """Angle between neighbouring nodes of ``arc_grid(n)``."""
        return self.opening / (n if self.full_plane else n - 1)

    def arc_quad_weights(self, thetas: np.ndarray) -> np.ndarray:
        """Trapezoidal weights matching :meth:`arc_grid`."""
        w = np.full(len(thetas), self.arc_step(len(thetas)))
        if not self.full_plane:
            w[0] = w[-1] = w[0] / 2.0
        return w

    def same_as(self, other: "Cone") -> bool:
        if self.full_plane or other.full_plane:
            return self.full_plane == other.full_plane
        return (
            abs(self.angle_lo - other.angle_lo) <= _SAME_CONE_TOL
            and abs(self.angle_hi - other.angle_hi) <= _SAME_CONE_TOL
        )

    @staticmethod
    def quadrant() -> "Cone":
        return Cone(0.0, math.pi / 2.0)

    @staticmethod
    def half_plane() -> "Cone":
        return Cone(0.0, math.pi)

    @staticmethod
    def sector(opening: float, angle_lo: float = 0.0) -> "Cone":
        return Cone(angle_lo, angle_lo + opening)

    @staticmethod
    def plane() -> "Cone":
        return Cone(0.0, TWO_PI, full_plane=True)


class HomWeight:
    """Alpha-homogeneous weight on a cone with concave alpha-th root.

    Two forms are supported.  Monomial weights ``x^a1 * y^a2`` are evaluated
    analytically.  Spherical-profile weights carry samples of the angular
    profile p with ``w(r*u(theta)) = r^alpha * p(theta)``; the profile is
    interpolated linearly in angle and differentiated by central differences
    with step equal to one grid cell.

    Construction admits the weight (nonnegative, not identically zero,
    alpha-homogeneous, sampled concave root) or raises
    :class:`InadmissibleWeightError`; no later code tests these again.

    Carries the effective dimension ``D = 2 + alpha``.  w(B1 cap cone) comes
    from ``geometry.MeasureReport.unit_volume``, at each set's own angular
    quadrature, so that discrete identities hold exactly.
    """

    def __init__(self, cone, alpha, exponents=None, profile_thetas=None,
                 profile_values=None):
        if alpha <= 0:
            raise InadmissibleWeightError("homogeneity degree must be positive")
        if cone.full_plane:
            raise InadmissibleWeightError("weights require a wedge or half-plane cone")
        self.cone = cone
        self.alpha = float(alpha)
        self.exponents = None if exponents is None else tuple(float(a) for a in exponents)
        self.profile_thetas = self.profile_values = self._profile_slopes = None
        if profile_thetas is not None:
            self.profile_thetas = np.asarray(profile_thetas, dtype=float)
            self.profile_values = np.asarray(profile_values, dtype=float)
            t, v = self.profile_thetas, self.profile_values
            if t.ndim != 1 or len(t) < 2 or v.shape != t.shape or not np.all(np.diff(t) > 0):
                raise InadmissibleWeightError("profile needs two or more strictly increasing "
                                              f"angles, one value each: thetas {t.tolist()}, "
                                              f"values {v.tolist()}")
            self._profile_slopes = np.gradient(self.profile_values, self.profile_thetas)
        self.D = 2.0 + self.alpha
        self._check_admissible()

    @staticmethod
    def monomial(cone, a1, a2) -> "HomWeight":
        """Weight x^a1 * y^a2 with a1, a2 >= 0, not both zero."""
        if a1 < 0 or a2 < 0 or a1 + a2 <= 0:
            raise InadmissibleWeightError("monomial exponents must be >= 0 with positive sum")
        return HomWeight(cone, a1 + a2, exponents=(a1, a2))

    @staticmethod
    def from_profile(cone, thetas, values, alpha) -> "HomWeight":
        """Weight r^alpha * p(theta) from samples of the angular profile p."""
        return HomWeight(cone, alpha, profile_thetas=thetas, profile_values=values)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        p = np.atleast_2d(pts)
        if self.exponents is not None:
            a1, a2 = self.exponents
            x = np.clip(p[:, 0], 0.0, None)
            y = np.clip(p[:, 1], 0.0, None)
            vals = x ** a1 * y ** a2
        else:
            r = np.hypot(p[:, 0], p[:, 1])
            theta = np.arctan2(p[:, 1], p[:, 0])
            vals = r ** self.alpha * self._profile(theta)
        return float(vals[0]) if single else vals

    def root(self, pts) -> np.ndarray:
        """w^(1/alpha) at the rows of ``pts``, with w clipped at 0."""
        return self.root_of(self(pts))

    def root_of(self, w) -> np.ndarray:
        """w^(1/alpha) of the weight values ``w``, clipped at 0."""
        return np.clip(w, 0.0, None) ** (1.0 / self.alpha)

    def arc_values(self, thetas) -> np.ndarray:
        """Profile w(u(theta)) on the unit arc."""
        if self.exponents is not None:
            a1, a2 = self.exponents
            c = np.clip(np.cos(thetas), 0.0, None)
            s = np.clip(np.sin(thetas), 0.0, None)
            return c ** a1 * s ** a2
        return self._profile(thetas)

    def _profile(self, theta):
        return np.interp(theta, self.profile_thetas, self.profile_values)

    def grad(self, pts):
        pts = np.asarray(pts, dtype=float)
        single = pts.ndim == 1
        p = np.atleast_2d(pts)
        if self.exponents is not None:
            a1, a2 = self.exponents
            x = np.clip(p[:, 0], 0.0, None)
            y = np.clip(p[:, 1], 0.0, None)
            gx = a1 * x ** (a1 - 1.0) * y ** a2 if a1 > 0 else np.zeros(len(p))
            gy = x ** a1 * a2 * y ** (a2 - 1.0) if a2 > 0 else np.zeros(len(p))
            g = np.stack([gx, gy], axis=-1)
        else:
            r = np.hypot(p[:, 0], p[:, 1])
            theta = np.arctan2(p[:, 1], p[:, 0])
            pr = self._profile(theta)
            ps = np.interp(theta, self.profile_thetas, self._profile_slopes)
            u_r = unit(theta)
            u_t = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
            rad = r ** (self.alpha - 1.0)
            g = rad[:, None] * (self.alpha * pr[:, None] * u_r + ps[:, None] * u_t)
        return g[0] if single else g

    # -- admission ----------------------------------------------------------

    def _interior_samples(self, n, rng):
        margin = 0.02 * self.cone.opening
        thetas = rng.uniform(self.cone.angle_lo + margin, self.cone.angle_hi - margin, n)
        radii = rng.uniform(0.3, 2.5, n)
        return radii[:, None] * unit(thetas)

    def _check_admissible(self):
        rng = np.random.default_rng(0)
        pts = self._interior_samples(256, rng)
        base = self(pts)
        if np.any(base < 0):
            raise InadmissibleWeightError("weight is negative inside the cone")
        if np.all(base <= 0):
            raise InadmissibleWeightError("weight vanishes identically")
        for t in (0.5, 2.0, 7.0):
            ref = t ** self.alpha * base
            if np.max(np.abs(self(t * pts) - ref)) > 1e-12 * max(1.0, np.max(np.abs(ref))):
                raise InadmissibleWeightError("weight is not alpha-homogeneous")
        x = self._interior_samples(ADMISSION_PAIRS, rng)
        z = self._interior_samples(ADMISSION_PAIRS, rng)
        lhs, rhs = concavity_sides(self, x, z)
        worst = np.min(rhs - lhs)
        tol = ADMISSION_TOL
        if self.profile_thetas is not None:
            # linear interpolation is only quadratically concave between nodes
            tol = max(tol, float(np.max(np.diff(self.profile_thetas))) ** 2)
        if worst < -tol * max(1.0, np.max(np.abs(rhs))):
            raise InadmissibleWeightError(
                f"concavity condition fails at sampled pairs (worst residual {worst:.3e})"
            )


def concavity_sides(weight: HomWeight, x, z):
    """Both sides of the concave-root criterion for point pairs (x, z).

    Returns (lhs, rhs) = (alpha (w(z)/w(x))^(1/alpha), grad w(x) . z / w(x))
    over the rows of the (n, 2) arrays with w(x) > 0; the criterion is
    lhs <= rhs.
    """
    wx = weight(x)
    ok = wx > 0
    wx, z = wx[ok], z[ok]
    lhs = weight.alpha * (weight(z) / wx) ** (1.0 / weight.alpha)
    rhs = np.einsum("ij,ij->i", weight.grad(x[ok]), z) / wx
    return lhs, rhs


@dataclasses.dataclass(frozen=True)
class SubspaceBases:
    """Orthonormal bases of the line / constancy / remaining subspaces."""

    basis_L: tuple
    basis_C: tuple
    basis_E: tuple


def _canonical_direction(d):
    d = d / np.linalg.norm(d)
    if d[0] < 0 or (abs(d[0]) < 1e-15 and d[1] < 0):
        d = -d
    return d


def decompose_subspaces(cone: Cone, weight: HomWeight) -> SubspaceBases:
    """Split the plane into line directions, weight-constancy directions, and the rest.

    The line subspace is nontrivial exactly for the half-plane.  Constancy
    directions (orthogonal to the line subspace) are detected from the null
    space of sampled weight gradients and then verified by a direct sampled
    constancy test at tolerance 1e-10.
    """
    if not cone.same_as(weight.cone):
        raise ValueError("cone and weight disagree")
    pts = weight._interior_samples(128, np.random.default_rng(1))

    basis_L = cone.basis_L()
    grads = weight.grad(pts)
    _, svals, vt = np.linalg.svd(grads, full_matrices=False)
    candidates = [vt[i] for i in range(len(svals)) if svals[i] <= 1e-10 * max(svals[0], 1e-300)]

    basis_C = []
    for d in candidates:
        if basis_L and abs(float(d @ basis_L[0])) > 1e-8:
            continue
        if _constancy_holds(cone, weight, d):
            basis_C.append(_canonical_direction(d))

    span = list(basis_L) + basis_C
    basis_E = []
    if len(span) == 0:
        basis_E = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    elif len(span) == 1:
        v = span[0]
        basis_E = [_canonical_direction(np.array([-v[1], v[0]]))]
    return SubspaceBases(tuple(basis_L), tuple(basis_C), tuple(basis_E))


def _constancy_holds(cone, weight, direction):
    thetas = np.linspace(cone.angle_lo + 0.05, cone.angle_hi - 0.05, 17)
    pts = np.concatenate([r * unit(thetas) for r in (0.5, 1.0, 1.9)])
    vals = weight(pts)
    scale = max(1.0, float(np.max(np.abs(vals))))
    for t in (-0.3, 0.11, 0.4):
        shifted = pts + t * direction
        inside = cone.contains(shifted, tol=0.0)
        if not np.any(inside):
            continue
        if np.max(np.abs(weight(shifted[inside]) - vals[inside])) > _CONSTANCY_TOL * scale:
            return False
    return True
