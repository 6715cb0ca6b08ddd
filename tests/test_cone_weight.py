"""Cones, homogeneous weights and their concavity admission."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocone.cone_weight import (
    Cone,
    HomWeight,
    InadmissibleWeightError,
    decompose_subspaces,
    unit,
)
from isocone.experiments import eta_fourier_cos
from isocone.geometry import StarSet, deficit

QUADRANT = Cone.quadrant()
HALF = Cone.half_plane()
W_XY = HomWeight.monomial(QUADRANT, 1, 1)
W_X = HomWeight.monomial(QUADRANT, 1, 0)
W_Y_HALF = HomWeight.monomial(HALF, 0, 1)


class TestCone:
    def test_opening_bounds(self):
        with pytest.raises(ValueError):
            Cone(0.0, 4.0)
        with pytest.raises(ValueError):
            Cone(1.0, 1.0)

    def test_line_count(self):
        assert QUADRANT.k == 0
        assert HALF.k == 1
        assert Cone.sector(1e-3).k == 0

    def test_half_plane_line_direction(self):
        (d,) = HALF.basis_L()
        assert np.allclose(d, [1.0, 0.0])

    def test_membership(self):
        pts = np.array([[1.0, 1.0], [1.0, 0.0], [-0.1, 1.0], [0.0, 0.0]])
        assert QUADRANT.contains(pts).tolist() == [True, True, False, True]

    def test_boundary_distance_inside(self):
        assert QUADRANT.boundary_distance(np.array([[0.3, 0.5]]))[0] == pytest.approx(0.3)

    def test_box_margin_is_the_worst_corner(self):
        assert QUADRANT.box_margin(((0.2, 0.6), (0.3, 0.5))) == pytest.approx(0.2)
        assert HALF.box_margin(((-5.0, 5.0), (0.1, 0.4))) == pytest.approx(0.1)
        assert QUADRANT.box_margin(((-0.1, 0.6), (0.3, 0.5))) == pytest.approx(-0.1)

    # wedges keep both end nodes at half weight, the plane wraps without a duplicate
    @pytest.mark.parametrize("cone, n", [(QUADRANT, 17), (HALF, 16), (Cone.plane(), 16)],
                             ids=["quadrant", "half_plane", "plane"])
    def test_arc_quadrature_sums_to_opening(self, cone, n):
        thetas = cone.arc_grid(n)
        step = cone.arc_step(n)
        assert np.allclose(np.diff(thetas), step, rtol=0, atol=1e-15)
        assert thetas[-1] + (step if cone.full_plane else 0.0) == pytest.approx(
            cone.angle_lo + cone.opening, abs=1e-15)
        assert cone.arc_quad_weights(thetas).sum() == pytest.approx(cone.opening, rel=1e-15)

    def test_same_as_within_angle_tolerance(self):
        assert QUADRANT.same_as(Cone(5e-13, math.pi / 2 - 5e-13))
        assert not QUADRANT.same_as(Cone(1e-9, math.pi / 2))
        assert not QUADRANT.same_as(Cone.plane())
        assert Cone.plane().same_as(Cone.plane())


class TestHomWeight:
    def test_homogeneity_sampled(self):
        rng = np.random.default_rng(3)
        thetas = rng.uniform(0.05, math.pi / 2 - 0.05, 100)
        pts = rng.uniform(0.3, 2.0, 100)[:, None] * unit(thetas)
        base = W_XY(pts)
        for t in (0.5, 2.0, 7.0):
            assert np.max(np.abs(W_XY(t * pts) - t ** 2 * base)) <= 1e-12 * np.max(np.abs(base)) * t ** 2

    def test_monomial_values(self):
        assert W_XY((2.0, 3.0)) == pytest.approx(6.0)
        assert np.allclose(W_XY.grad((2.0, 3.0)), [3.0, 2.0])

    def test_boundary_zero_gradient(self):
        assert W_X((0.0, 1.0)) == 0.0
        assert np.allclose(W_X.grad((0.0, 1.0)), [1.0, 0.0])

    def test_scaling_value(self):
        assert W_XY((1.0, 1.5)) == pytest.approx(0.25 * 6.0)

    def test_euler_relation_random(self):
        rng = np.random.default_rng(7)
        for weight in (W_XY, W_X, W_Y_HALF):
            lo, hi = weight.cone.angle_lo, weight.cone.angle_hi
            thetas = rng.uniform(lo + 0.02, hi - 0.02, 100)
            pts = rng.uniform(0.2, 3.0, 100)[:, None] * unit(thetas)
            vals = weight(pts)
            grads = weight.grad(pts)
            euler = np.einsum("ij,ij->i", grads, pts)
            assert np.max(np.abs(euler - weight.alpha * vals)) <= 1e-9 * max(1.0, vals.max())

    def test_profile_weight_matches_monomial(self):
        thetas = QUADRANT.arc_grid(2048)
        prof = HomWeight.from_profile(QUADRANT, thetas, W_XY.arc_values(thetas), alpha=2.0)
        pts = np.array([[0.3, 0.7], [1.2, 0.4]])
        assert np.allclose(prof(pts), W_XY(pts), rtol=1e-6)
        euler = np.einsum("ij,ij->i", prof.grad(pts), pts)
        assert np.allclose(euler, 2.0 * prof(pts), rtol=1e-9)

    def test_inadmissible_rejected(self):
        thetas = QUADRANT.arc_grid(512)
        # (cos^2 + sin^2) = 1 profile with alpha=2: sqrt(w) = r, fine; make it wavy
        values = 1.0 + 0.5 * np.cos(8 * thetas)
        with pytest.raises(InadmissibleWeightError):
            HomWeight.from_profile(QUADRANT, thetas, values, alpha=2.0)

    @pytest.mark.parametrize("thetas, values", [
        ([], []),  # no samples
        ([0.7], [1.0]),  # one sample
        ([0.0, 0.7, 1.5], [1.0, 1.0]),  # unequal lengths
        ([1.5, 0.7, 0.0], [1.0, 1.0, 1.0]),  # decreasing angles
        ([0.0, 0.7, 0.7, 1.5], [1.0, 1.0, 1.0, 1.0]),  # a repeated angle
    ])
    def test_malformed_profile_samples_rejected(self, thetas, values):
        with pytest.raises(InadmissibleWeightError, match="profile needs") as err:
            HomWeight.from_profile(QUADRANT, thetas, values, alpha=2.0)
        assert f"thetas {[float(t) for t in thetas]}," in str(err.value)

    def test_negative_exponents_rejected(self):
        with pytest.raises(InadmissibleWeightError):
            HomWeight.monomial(QUADRANT, -1, 2)

    def test_root_clips_negative_values(self):
        assert W_XY.root_of(np.array([-1.0, 0.0, 4.0])).tolist() == [0.0, 0.0, 2.0]
        assert W_XY.root(np.array([[2.0, 8.0], [-1.0, 3.0]])).tolist() == [4.0, 0.0]


def concavity_sides(weight, x, z):
    """Both sides of the concave-root criterion for point pairs (x, z), the
    oracle of the admission tests.

    For interior points x, z, w^(1/alpha) is concave exactly when
    alpha (w(z)/w(x))^(1/alpha) <= grad w(x) . z / w(x).  Returns
    (lhs, rhs) over the rows of the (n, 2) arrays with w(x) > 0.
    """
    wx = weight(x)
    ok = wx > 0
    wx, z = wx[ok], z[ok]
    lhs = weight.alpha * (weight(z) / wx) ** (1.0 / weight.alpha)
    rhs = np.einsum("ij,ij->i", weight.grad(x[ok]), z) / wx
    return lhs, rhs


def concavity_residual(weight, x, z):
    """rhs - lhs of the concave-root criterion at one pair, as an array."""
    lhs, rhs = concavity_sides(weight, np.array([x]), np.array([z]))
    return rhs - lhs


class TestConcavityCondition:
    def test_equality_at_same_point(self):
        res = concavity_residual(W_XY, (1.0, 1.0), (1.0, 1.0))
        assert res.shape == (1,) and res[0] == pytest.approx(0.0, abs=1e-12)

    def test_strict_slack(self):
        assert concavity_residual(W_XY, (1.0, 1.0), (2.0, 0.5))[0] == pytest.approx(0.5)

    def test_rejects_nonconcave_root(self):
        class Sphere:
            """w = |x|^2, whose square root |x| is convex; no HomWeight admits it."""

            alpha = 2.0

            def __call__(self, pts):
                return np.sum(pts * pts, axis=-1)

            def grad(self, pts):
                return 2.0 * pts

        assert concavity_residual(Sphere(), (1.0, 0.01), (0.01, 1.0))[0] < -1.0

    def test_degenerate_point(self):
        # w(x) = 0: the criterion divides by w(x), so the pair is left out
        lhs, rhs = concavity_sides(W_X, np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]]))
        assert lhs.shape == rhs.shape == (0,)

    def test_residual_nonnegative_random_pairs(self):
        rng = np.random.default_rng(11)
        for weight in (W_XY, HomWeight.monomial(QUADRANT, 0.5, 1.5)):
            thetas = rng.uniform(0.02, math.pi / 2 - 0.02, (10_000, 2))
            radii = rng.uniform(0.2, 3.0, (10_000, 2))
            worst = 0.0
            x = radii[:, 0, None] * unit(thetas[:, 0])
            z = radii[:, 1, None] * unit(thetas[:, 1])
            wx = weight(x)
            lhs = weight.alpha * (weight(z) / wx) ** (1.0 / weight.alpha)
            rhs = np.einsum("ij,ij->i", weight.grad(x), z) / wx
            worst = float(np.min(rhs - lhs))
            assert worst >= -1e-12


class MinOfLinearRoots:
    """w = (min_i a_i x + b_i y)^alpha with its exact gradient; the root is concave."""

    def __init__(self, slopes, alpha):
        self.slopes = np.asarray(slopes, dtype=float)
        self.alpha = alpha

    def __call__(self, pts):
        return np.min(pts @ self.slopes.T, axis=-1) ** self.alpha

    def grad(self, pts):
        lin = pts @ self.slopes.T
        active = self.slopes[np.argmin(lin, axis=-1)]
        return self.alpha * np.min(lin, axis=-1)[:, None] ** (self.alpha - 1.0) * active


class MaxOfLinearRoots(MinOfLinearRoots):
    """w = (max_i a_i x + b_i y)^alpha with its exact gradient; the root is convex."""

    def __call__(self, pts):
        return np.max(pts @ self.slopes.T, axis=-1) ** self.alpha

    def grad(self, pts):
        lin = pts @ self.slopes.T
        active = self.slopes[np.argmax(lin, axis=-1)]
        return self.alpha * np.max(lin, axis=-1)[:, None] ** (self.alpha - 1.0) * active


class TestConcavityAdmission:
    """The admission criterion on concave roots: linear ones, minima and rotations."""

    @pytest.mark.parametrize("exponents", [(1, 0), (2, 0), (0, 3)])
    def test_linear_root_is_the_equality_case(self, exponents):
        weight = HomWeight.monomial(QUADRANT, *exponents)
        rng = np.random.default_rng(13)
        thetas = rng.uniform(0.05, math.pi / 2 - 0.05, (2000, 2))
        radii = rng.uniform(0.3, 2.5, (2000, 2))
        lhs, rhs = concavity_sides(weight, radii[:, 0, None] * unit(thetas[:, 0]),
                                   radii[:, 1, None] * unit(thetas[:, 1]))
        assert np.max(np.abs(rhs - lhs)) <= 1e-12 * np.max(np.abs(rhs))

    # 32 nodes are coarser than the sampled pairs, 256 finer
    @pytest.mark.parametrize("n", [256, 32])
    def test_sampled_admissible_profile_admitted(self, n):
        thetas = QUADRANT.arc_grid(n)
        weight = HomWeight.from_profile(QUADRANT, thetas, W_XY.arc_values(thetas), alpha=2.0)
        # linear interpolation of sin(2 theta) / 2 is off by at most h^2 / 4
        assert weight(np.array([0.6, 0.8])) == pytest.approx(
            0.48, abs=QUADRANT.arc_step(n) ** 2 / 4.0)

    def test_oscillatory_profile_rejected_at_coarse_grid(self):
        thetas = QUADRANT.arc_grid(128)
        with pytest.raises(InadmissibleWeightError, match="concavity condition"):
            HomWeight.from_profile(QUADRANT, thetas, 1.0 + 0.5 * np.cos(8 * thetas), alpha=2.0)

    def test_rotated_profile_admitted(self):
        cone = Cone(0.7, 0.7 + math.pi / 2)
        thetas = cone.arc_grid(128)
        weight = HomWeight.from_profile(cone, thetas, W_XY.arc_values(thetas - 0.7), alpha=2.0)
        assert weight(unit(0.7 + math.pi / 4)) == pytest.approx(0.5, rel=1e-3)

    def test_min_with_linear_root_admitted(self):
        thetas = QUADRANT.arc_grid(128)
        root = np.minimum(W_XY.arc_values(thetas) ** 0.5, 0.45 * np.cos(thetas - 0.9))
        HomWeight.from_profile(QUADRANT, thetas, root ** 2, alpha=2.0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
                    min_size=2, max_size=5),
           st.sampled_from([0.5, 1.0, 2.0]))
    def test_min_of_linear_roots_meets_criterion(self, slopes, alpha):
        weight = MinOfLinearRoots(slopes, alpha)
        rng = np.random.default_rng(17)
        thetas = rng.uniform(0.02, math.pi / 2 - 0.02, (2000, 2))
        radii = rng.uniform(0.3, 2.5, (2000, 2))
        x = radii[:, 0, None] * unit(thetas[:, 0])
        z = radii[:, 1, None] * unit(thetas[:, 1])
        lhs, rhs = concavity_sides(weight, x, z)
        assert np.min(rhs - lhs) >= -1e-12 * np.max(np.abs(rhs))
        # the exact test agrees: it admits the samples, and the admitted
        # interpolant meets the oracle too
        nodes = QUADRANT.arc_grid(96)
        profile = HomWeight.from_profile(QUADRANT, nodes, weight(unit(nodes)), alpha)
        lhs, rhs = concavity_sides(profile, x, z)
        assert np.min(rhs - lhs) >= -1e-12 * np.max(np.abs(rhs))


SECTOR60 = Cone.sector(math.pi / 3)
ANGLES01 = Cone(0.0, 1.0)
# every monomial that the test files admit, on its cone
ADMITTED_MONOMIALS = [(QUADRANT, (1, 1)), (QUADRANT, (1, 0)), (QUADRANT, (0, 1)),
                      (QUADRANT, (2, 0)), (QUADRANT, (0, 3)), (QUADRANT, (2, 1)),
                      (QUADRANT, (0.5, 1.5)), (QUADRANT, (3, 3)), (HALF, (0, 1)),
                      (HALF, (0, 3)), (SECTOR60, (2, 1)), (ANGLES01, (1, 1))]
MONOMIAL_IDS = [f"{c.angle_lo:g}-{c.angle_hi:.3g}-x{a}y{b}" for c, (a, b) in ADMITTED_MONOMIALS]


def sampled(weight, n):
    """The profile weight of ``weight``'s values at n nodes of its arc."""
    thetas = weight.cone.arc_grid(n)
    return HomWeight.from_profile(weight.cone, thetas, weight.arc_values(thetas), weight.alpha)


class TestArcValues:
    @pytest.mark.parametrize("cone, exponents", ADMITTED_MONOMIALS, ids=MONOMIAL_IDS)
    def test_the_weight_on_the_unit_arc_bit_for_bit(self, cone, exponents):
        weight = HomWeight.monomial(cone, *exponents)
        # the cone's grids, and a full turn, where the monomial clips x and y
        thetas = np.concatenate([cone.arc_grid(1001), cone.arc_grid(7),
                                 np.linspace(-math.pi, math.pi, 101)])
        for w in (weight, sampled(weight, 64)):
            assert np.array_equal(w.arc_values(thetas), w(unit(thetas)))
        # the monomial's own formula on the arc
        a1, a2 = (float(a) for a in exponents)
        closed = np.clip(np.cos(thetas), 0.0, None) ** a1 * np.clip(np.sin(thetas), 0.0, None) ** a2
        assert np.array_equal(weight.arc_values(thetas), closed)


class TestExactAdmission:
    """Admission from each weight's closed form: the kink test of a profile's
    interpolated root and the sign rule of a monomial."""

    @pytest.mark.parametrize("n", [16, 64, 256, 2048])
    @pytest.mark.parametrize("cone, exponents", ADMITTED_MONOMIALS, ids=MONOMIAL_IDS)
    def test_admitted_monomial_admitted_as_profile(self, cone, exponents, n):
        weight = HomWeight.monomial(cone, *exponents)
        thetas = cone.arc_grid(n)
        profile = sampled(weight, n)
        assert np.allclose(profile.arc_values(thetas), weight.arc_values(thetas),
                           rtol=1e-13, atol=1e-15)

    # (1.3 cos(theta - 0.4))^2 and cos^2 theta have linear roots, the
    # equality case; a spacing-scaled sampled check refused all of these
    @pytest.mark.parametrize("values, alpha, n", [
        *[(lambda t: (1.3 * np.cos(t - 0.4)) ** 2, 2.0, n) for n in (64, 256, 2048)],
        (lambda t: np.cos(t) ** 2, 2.0, 64),
        *[(lambda t: 1.3 * np.cos(t - 0.4), 1.0, n) for n in (16, 32)],
    ])
    def test_linear_roots_admitted(self, values, alpha, n):
        thetas = QUADRANT.arc_grid(n)
        weight = HomWeight.from_profile(QUADRANT, thetas, values(thetas), alpha)
        theta = np.linspace(0.0, math.pi / 2, 301)
        assert np.allclose(weight(2.0 * unit(theta)), 2.0 ** alpha * values(theta),
                           rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("n", [16, 128, 2048])
    def test_convex_root_rejected(self, n):
        # w = |x|^2: the root |x| is convex, its interpolant bends up at every ray
        thetas = QUADRANT.arc_grid(n)
        with pytest.raises(InadmissibleWeightError, match="concavity condition"):
            HomWeight.from_profile(QUADRANT, thetas, np.ones(n), alpha=2.0)

    def test_convex_kink_rejected_as_by_the_oracle(self):
        # the root max(x, y) bends up at 45 degrees
        thetas = QUADRANT.arc_grid(64)
        roots = np.maximum(np.cos(thetas), np.sin(thetas))
        with pytest.raises(InadmissibleWeightError, match="concavity condition"):
            HomWeight.from_profile(QUADRANT, thetas, roots, alpha=1.0)
        oracle = MaxOfLinearRoots([[1.0, 0.0], [0.0, 1.0]], 1.0)
        assert concavity_residual(oracle, (1.0, 0.2), (0.2, 1.0))[0] == pytest.approx(-0.8)

    @pytest.mark.parametrize("cone, exponents", [
        (HALF, (1, 1)), (HALF, (1, 0)), (Cone(0.0, 2.0), (1, 1)), (Cone(-0.2, 1.2), (1, 1)),
        (Cone(math.pi / 2, math.pi), (1, 0))])
    def test_monomial_vanishing_on_part_of_the_cone_rejected(self, cone, exponents):
        with pytest.raises(InadmissibleWeightError, match="vanishes on part of the cone"):
            HomWeight.monomial(cone, *exponents)

    def test_monomial_on_a_cone_given_a_turn_later(self):
        later = Cone(2.0 * math.pi, 2.5 * math.pi)  # unit(2 pi) has y = -2.4e-16
        assert HomWeight.monomial(later, 1, 1)(np.array([0.6, 0.8])) == pytest.approx(0.48)

    @pytest.mark.parametrize("cone, thetas, values, match", [
        (QUADRANT, [0.0, 0.7, 1.5], [1.0, 1.0, 1.0], "profile needs"),  # short of the arc
        (QUADRANT, [0.1, 0.7, math.pi / 2], [1.0, 1.0, 1.0], "profile needs"),
        (HALF, [0.0, math.pi], [0.0, 0.0], "profile needs"),  # a gap of pi
        (QUADRANT, [0.0, 0.7, math.pi / 2], [0.0, -1e-3, 0.0], "negative"),
        (QUADRANT, [0.0, 0.7, math.pi / 2], [0.0, 0.0, 0.0], "vanishes identically"),
        (QUADRANT, [0.0, 0.7, math.pi / 2], [0.0, np.nan, 0.0], "one finite value each"),
    ])
    def test_bad_profile_samples_rejected(self, cone, thetas, values, match):
        with pytest.raises(InadmissibleWeightError, match=match):
            HomWeight.from_profile(cone, np.array(thetas), np.array(values), alpha=1.0)

    def test_half_plane_three_rays(self):
        # two gaps of pi/2: the root y is exact, the root 1 is refused since
        # G(x) + G(-x) <= 2 G(0) = 0 fails
        thetas = np.array([0.0, math.pi / 2, math.pi])
        weight = HomWeight.from_profile(HALF, thetas, np.array([0.0, 1.0, 0.0]), alpha=1.0)
        assert weight(np.array([-0.3, 0.7])) == pytest.approx(0.7, abs=1e-15)
        with pytest.raises(InadmissibleWeightError, match="concavity condition"):
            HomWeight.from_profile(HALF, thetas, np.ones(3), alpha=1.0)

    @pytest.mark.parametrize("n", [16, 2048])
    def test_exact_gradient(self, n):
        weight = sampled(W_XY, n)
        pts = np.array([[0.3, 0.7], [1.2, 0.4], [0.5, 0.5]])
        eps = 1e-6
        for i in range(2):
            step = np.zeros(2)
            step[i] = eps
            fd = (weight(pts + step) - weight(pts - step)) / (2.0 * eps)
            assert np.allclose(weight.grad(pts)[:, i], fd, rtol=1e-6)

    @pytest.mark.parametrize("cone, exponents", [(QUADRANT, (1, 0)), (QUADRANT, (0, 1)),
                                                 (HALF, (0, 1))], ids=["x", "y", "half_y"])
    @pytest.mark.parametrize("n", [16, 2048])
    def test_profile_bases_match_the_monomial(self, cone, exponents, n):
        weight = HomWeight.monomial(cone, *exponents)
        want = decompose_subspaces(weight)
        got = decompose_subspaces(sampled(weight, n))
        for field in ("basis_L", "basis_C", "basis_E"):
            a, b = getattr(got, field), getattr(want, field)
            assert len(a) == len(b) and all(np.allclose(u, v, atol=1e-12) for u, v in zip(a, b))


def root_curvature_defect(exponents, theta):
    """|g'' + g| of the monomial root g = cos^A sin^B (A + B = 1): A B g / (sin cos)^2."""
    a1, a2 = exponents
    A, B = a1 / (a1 + a2), a2 / (a1 + a2)
    c, s = np.cos(theta), np.sin(theta)
    return A * B * c ** A * s ** B / (s * c) ** 2


class TestInterpolationError:
    """The error the ``HomWeight`` docstring states for the interpolated root."""

    @pytest.mark.parametrize("exponents", [(1, 1), (2, 1), (0.5, 1.5), (3, 3)])
    @pytest.mark.parametrize("n", [16, 256])
    def test_root_error_within_the_stated_bound(self, exponents, n):
        # |g - g_h| <= (sec(h/2) - 1) max |g'' + g| on each wedge whose g is
        # C^2 there: all but the two wedges at the axis rays
        weight = HomWeight.monomial(QUADRANT, *exponents)
        profile = sampled(weight, n)
        nodes, h = QUADRANT.arc_grid(n), QUADRANT.arc_step(n)
        for lo, hi in zip(nodes[1:-2], nodes[2:-1]):
            theta = np.linspace(lo, hi, 33)
            err = np.abs(profile.root(unit(theta)) - weight.root(unit(theta)))
            bound = (1.0 / math.cos(h / 2.0) - 1.0) * root_curvature_defect(exponents, theta).max()
            assert err.max() <= bound * (1.0 + 1e-6) + 1e-15

    @pytest.mark.parametrize("cone, exponents", [(QUADRANT, (1, 0)), (QUADRANT, (0, 1)),
                                                 (HALF, (0, 1)), (HALF, (0, 3))])
    @pytest.mark.parametrize("n", [16, 2048])
    def test_linear_root_gives_the_monomial_deficit(self, cone, exponents, n):
        weight = HomWeight.monomial(cone, *exponents)
        star = StarSet.perturbed_ball(weight, 4096, 0.1, eta_fourier_cos(cone, 3))
        assert deficit(star, sampled(weight, n)).deficit == pytest.approx(
            deficit(star, weight).deficit, abs=1e-12)

    @pytest.mark.parametrize("cone, exponents", [(QUADRANT, (1, 1)), (QUADRANT, (2, 1)),
                                                 (QUADRANT, (0.5, 1.5)), (SECTOR60, (2, 1))])
    def test_deficit_converges_at_the_stated_order(self, cone, exponents):
        # order min(2, 1 + a/alpha) for the smallest positive exponent a
        weight = HomWeight.monomial(cone, *exponents)
        star = StarSet.perturbed_ball(weight, 4096, 0.1, eta_fourier_cos(cone, 3))
        exact = deficit(star, weight).deficit
        gap = {n: abs(deficit(star, sampled(weight, n)).deficit - exact) for n in (64, 2048)}
        order = min(2.0, 1.0 + min(a for a in exponents if a > 0) / weight.alpha)
        shrink = (cone.arc_step(2048) / cone.arc_step(64)) ** order
        assert 0.0 < gap[2048] <= 2.0 * shrink * gap[64]


class TestDecomposeSubspaces:
    def test_quadrant_xy(self):
        b = decompose_subspaces(W_XY)
        assert b.basis_L == () and b.basis_C == ()
        assert len(b.basis_E) == 2

    def test_quadrant_x(self):
        b = decompose_subspaces(W_X)
        assert b.basis_L == ()
        assert len(b.basis_C) == 1 and np.allclose(b.basis_C[0], [0.0, 1.0])
        assert len(b.basis_E) == 1 and np.allclose(np.abs(b.basis_E[0]), [1.0, 0.0])

    def test_half_plane_y(self):
        b = decompose_subspaces(W_Y_HALF)
        assert len(b.basis_L) == 1 and np.allclose(b.basis_L[0], [1.0, 0.0])
        assert b.basis_C == ()
        assert len(b.basis_E) == 1 and np.allclose(np.abs(b.basis_E[0]), [0.0, 1.0])

    def test_orthonormal_span(self):
        for cone, weight in ((QUADRANT, W_XY), (QUADRANT, W_X), (HALF, W_Y_HALF)):
            b = decompose_subspaces(weight)
            vecs = list(b.basis_L) + list(b.basis_C) + list(b.basis_E)
            M = np.array(vecs)
            assert M.shape == (2, 2)
            assert np.allclose(M @ M.T, np.eye(2), atol=1e-12)
