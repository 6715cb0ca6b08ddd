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
    concavity_sides,
    decompose_subspaces,
    unit,
)

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
        lhs, rhs = concavity_sides(weight, radii[:, 0, None] * unit(thetas[:, 0]),
                                   radii[:, 1, None] * unit(thetas[:, 1]))
        assert np.min(rhs - lhs) >= -1e-12 * np.max(np.abs(rhs))


class TestDecomposeSubspaces:
    def test_quadrant_xy(self):
        b = decompose_subspaces(QUADRANT, W_XY)
        assert b.basis_L == () and b.basis_C == ()
        assert len(b.basis_E) == 2

    def test_quadrant_x(self):
        b = decompose_subspaces(QUADRANT, W_X)
        assert b.basis_L == ()
        assert len(b.basis_C) == 1 and np.allclose(b.basis_C[0], [0.0, 1.0])
        assert len(b.basis_E) == 1 and np.allclose(np.abs(b.basis_E[0]), [1.0, 0.0])

    def test_half_plane_y(self):
        b = decompose_subspaces(HALF, W_Y_HALF)
        assert len(b.basis_L) == 1 and np.allclose(b.basis_L[0], [1.0, 0.0])
        assert b.basis_C == ()
        assert len(b.basis_E) == 1 and np.allclose(np.abs(b.basis_E[0]), [0.0, 1.0])

    def test_orthonormal_span(self):
        for cone, weight in ((QUADRANT, W_XY), (QUADRANT, W_X), (HALF, W_Y_HALF)):
            b = decompose_subspaces(cone, weight)
            vecs = list(b.basis_L) + list(b.basis_C) + list(b.basis_E)
            M = np.array(vecs)
            assert M.shape == (2, 2)
            assert np.allclose(M @ M.T, np.eye(2), atol=1e-12)

    def test_cone_and_weight_disagree(self):
        with pytest.raises(ValueError, match="cone and weight disagree"):
            decompose_subspaces(HALF, W_XY)
