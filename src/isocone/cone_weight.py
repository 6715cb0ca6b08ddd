"""Planar convex cones and homogeneous weights with a concave root.

A cone is an open angular sector with vertex at the origin and opening at
most pi (a half-plane when the opening equals pi, in which case it contains
exactly one line).  Weights are alpha-homogeneous, nonnegative on the closed
cone, and admissible when their root G = w^(1/alpha) is concave; G >= 0 is
1-homogeneous, so it is concave exactly when {G >= 1} is convex
(Rockafellar, *Convex Analysis*, section 15).  Each weight is admitted from
its closed form, with no sampling (see :class:`HomWeight`).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

TWO_PI = 2.0 * math.pi

_SAME_CONE_TOL = 1e-12  # wedge angles this close give the same cone
_KINK_TOL = 1e-12  # relative rounding allowance of the profile kink test


class InadmissibleWeightError(ValueError):
    """The weight is negative, vanishes, or has a root that is not concave."""


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

    def frame_angle(self, theta):
        """theta moved by whole turns to within pi of the bisector, so the closed
        cone's angles fall in [angle_lo, angle_hi]; those are returned unchanged."""
        mid = 0.5 * (self.angle_lo + self.angle_hi)
        return theta + TWO_PI * np.round((mid - theta) / TWO_PI)

    def spanned_by(self, thetas) -> bool:
        """True when the angles run from angle_lo to angle_hi (within the
        same-cone tolerance) with every gap in (0, pi)."""
        gaps = np.diff(thetas)
        return bool(abs(thetas[0] - self.angle_lo) <= _SAME_CONE_TOL
                    and abs(thetas[-1] - self.angle_hi) <= _SAME_CONE_TOL
                    and np.all(gaps > 0) and np.all(gaps < math.pi))

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
    """Alpha-homogeneous weight on a cone with concave alpha-th root G.

    Both forms are admitted in closed form when built, or construction raises
    :class:`InadmissibleWeightError`; no later code tests them again.

    A monomial ``x^a1 * y^a2`` has alpha = a1 + a2 and the root
    x^(a1/alpha) y^(a2/alpha), a weighted geometric mean (linear when an
    exponent is 0), concave where positive.  It is admitted exactly when
    w > 0 on the open cone: both rays and the bisector lie in {x >= 0} if
    a1 > 0, and in {y >= 0} if a2 > 0.

    A profile weight carries samples p_i of w at angles angle_lo = t_0 < ...
    < t_n = angle_hi, each gap below pi.  Its root is linear in x between
    consecutive sample rays: with G_i = p_i^(1/alpha), G(x) = c_i . x on the
    wedge [t_i, t_(i+1)], where c_i . u(t_i) = G_i and c_i . u(t_(i+1)) =
    G_(i+1); the end wedges extend past the rays, and a point's wedge comes
    from its angle in the cone's frame (:meth:`Cone.frame_angle`).  So
    w = max(G, 0)^alpha is alpha-homogeneous and grad w = alpha G^(alpha-1) c_i.

    Interpolation error.  On the arc, g_h = G(u(theta)) solves g'' + g = 0
    in each wedge, so e = g - g_h solves e'' + e = g'' + g with e = 0 at the
    ends, and M (sec(h/2) cos(theta - mid) - 1), which solves v'' + v = -M,
    bounds it on a wedge of angle h where the sampled root g is C^2:

        |g - g_h| <= (sec(h/2) - 1) max |g'' + g|  ~  h^2/8 max |g'' + g|.

    For x^a1 y^a2, g'' + g = -(a1 a2/alpha^2) g / (sin cos)^2.  It is 0 for a
    linear root, whose profile is exact, and unbounded at an axis ray, where
    g grows as the angle from the ray to the power a/alpha; volumes,
    perimeters and deficits then differ by O(h^min(2, 1 + a/alpha)), with a
    the smallest positive exponent.

    Admission of a profile is the kink test.  A piecewise linear G is concave
    on the convex cone exactly when it bends down across every interior ray,
    c_(i-1) . u_(i+1) >= G_(i+1).  By sin(t_i - t_(i-1)) u_(i+1) =
    sin(t_(i+1) - t_(i-1)) u_i - sin(t_(i+1) - t_i) u_(i-1), that reads

        sin(t_i - t_(i-1)) G_(i+1) + sin(t_(i+1) - t_i) G_(i-1) <= sin(t_(i+1) - t_(i-1)) G_i,

    the discrete g'' + g <= 0, or the turning test on the points u_i / G_i of
    the boundary of {G >= 1}.  It is exact for the interpolant, linear roots
    are its equality case, and it grants only a relative rounding allowance
    (``_KINK_TOL``).

    Carries the effective dimension ``D = 2 + alpha``.  w(B1 cap cone) comes
    from ``geometry.MeasureReport.unit_volume``, at each set's own angular
    quadrature, so that discrete identities hold exactly.
    """

    def __init__(self, cone, alpha, exponents=None, profile_thetas=None, profile_values=None):
        if alpha <= 0:
            raise InadmissibleWeightError("homogeneity degree must be positive")
        if cone.full_plane:
            raise InadmissibleWeightError("weights require a wedge or half-plane cone")
        self.cone = cone
        self.alpha = float(alpha)
        self.D = 2.0 + self.alpha
        self.exponents = self.profile_thetas = self._slopes = None
        if exponents is not None:
            self.exponents = tuple(float(a) for a in exponents)
            self._admit_monomial()
        else:
            self._admit_profile(np.asarray(profile_thetas, dtype=float),
                                np.asarray(profile_values, dtype=float))

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

    def _admit_monomial(self):
        lo, hi = self.cone.angle_lo, self.cone.angle_hi
        rays = unit([lo, 0.5 * (lo + hi), hi])
        for axis, a in enumerate(self.exponents):
            if a > 0 and np.any(rays[:, axis] < -_SAME_CONE_TOL):
                raise InadmissibleWeightError(f"monomial with exponents {self.exponents} "
                                              f"vanishes on part of the cone [{lo}, {hi}]")

    def _admit_profile(self, t, v):
        if (t.ndim != 1 or len(t) < 2 or v.shape != t.shape or not self.cone.spanned_by(t)
                or not np.all(np.isfinite(v))):
            raise InadmissibleWeightError(
                "profile needs two or more increasing angles from angle_lo to angle_hi, "
                f"each gap below pi, one finite value each: thetas {t.tolist()}, "
                f"values {v.tolist()}")
        if np.any(v < 0):
            raise InadmissibleWeightError("weight is negative inside the cone")
        if np.all(v == 0):
            raise InadmissibleWeightError("weight vanishes identically")
        g = v ** (1.0 / self.alpha)
        u = unit(t)
        rays = np.stack([u[:-1], u[1:]], axis=1)
        self._slopes = np.linalg.solve(rays, np.stack([g[:-1], g[1:]], axis=1)[..., None])[..., 0]
        self.profile_thetas = t
        gap = np.sin(np.diff(t))
        lhs = gap[:-1] * g[2:] + gap[1:] * g[:-2]
        rhs = np.sin(t[2:] - t[:-2]) * g[1:-1]
        bent_up = lhs - rhs > _KINK_TOL * (lhs + rhs)
        if np.any(bent_up):
            raise InadmissibleWeightError("concavity condition fails: the root bends up at "
                                          f"theta {t[1 + np.argmax(bent_up)]:.12g}")

    # -- evaluation ---------------------------------------------------------

    def _profile_root(self, p):
        """(G, c_i) at the rows of ``p``, G clipped at 0."""
        theta = self.cone.frame_angle(np.arctan2(p[:, 1], p[:, 0]))
        i = np.searchsorted(self.profile_thetas, theta, side="right") - 1
        c = self._slopes[np.clip(i, 0, len(self._slopes) - 1)]
        return np.maximum(np.einsum("ij,ij->i", c, p), 0.0), c

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
            vals = self._profile_root(p)[0] ** self.alpha
        return float(vals[0]) if single else vals

    def root(self, pts) -> np.ndarray:
        """w^(1/alpha) at the rows of ``pts``, with w clipped at 0."""
        return self.root_of(self(pts))

    def root_of(self, w) -> np.ndarray:
        """w^(1/alpha) of the weight values ``w``, clipped at 0."""
        return np.clip(w, 0.0, None) ** (1.0 / self.alpha)

    def arc_values(self, thetas) -> np.ndarray:
        """Profile w(u(theta)) on the unit arc."""
        return self(unit(thetas))

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
            root, c = self._profile_root(p)
            g = (self.alpha * root ** (self.alpha - 1.0))[:, None] * c
        return g[0] if single else g

    def gradient_rows(self) -> np.ndarray:
        """Rows whose span holds every gradient of w: the axes of the positive
        exponents of a monomial, the wedge slopes c_i of a profile."""
        if self.exponents is not None:
            return np.eye(2)[[a > 0 for a in self.exponents]]
        return self._slopes


@dataclasses.dataclass(frozen=True)
class SubspaceBases:
    """Orthonormal bases of the line / constancy / remaining subspaces."""

    basis_L: tuple
    basis_C: tuple
    basis_E: tuple


def _canonical_direction(d):
    """d at unit length, pointing right, or up if vertical to within 1e-12."""
    d = d / np.linalg.norm(d)
    if d[0] < -1e-12 or (abs(d[0]) <= 1e-12 and d[1] < 0):
        d = -d
    return d


def decompose_subspaces(weight: HomWeight) -> SubspaceBases:
    """Split the plane into line directions, weight-constancy directions, and the rest.

    The line subspace is nontrivial exactly for the half-plane, where an
    admitted weight can be constant only along the line (a linear root >= 0
    on a half-plane vanishes on its line).  In a wedge, w is constant along
    d exactly when every gradient is orthogonal to d: the null vector of
    :meth:`HomWeight.gradient_rows` (relative singular value at most 1e-10).
    """
    basis_L = weight.cone.basis_L()
    _, svals, vt = np.linalg.svd(weight.gradient_rows())
    basis_C = ()
    if not basis_L and (len(svals) < 2 or svals[1] <= 1e-10 * svals[0]):
        basis_C = (_canonical_direction(vt[-1]),)
    span = basis_L + basis_C
    if span:
        basis_E = (_canonical_direction(np.array([-span[0][1], span[0][0]])),)
    else:
        basis_E = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    return SubspaceBases(basis_L, basis_C, basis_E)
