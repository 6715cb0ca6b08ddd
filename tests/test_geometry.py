"""Star-set functionals: volume, perimeter, deficit, asymmetry."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocone import geometry
from isocone.cone_weight import Cone, HomWeight, unit
from isocone.experiments import eta_fourier_cos
from isocone.geometry import (
    StarSet,
    UnsupportedTranslationError,
    asymmetry,
    boundary_weighted_integral,
    deficit,
    deficit_value,
    power_mass,
    symdiff_with_ball,
    weighted_volume,
)

QUADRANT = Cone.quadrant()
HALF = Cone.half_plane()
W_XY = HomWeight.monomial(QUADRANT, 1, 1)
W_X = HomWeight.monomial(QUADRANT, 1, 0)
W_Y = HomWeight.monomial(HALF, 0, 1)


def eta4(thetas):
    return np.cos(4.0 * np.asarray(thetas))


class TestStarSetValidation:
    def test_nan_radius_rejected(self):
        radii = np.ones(64)
        radii[10] = np.nan
        with pytest.raises(ValueError, match="finite"):
            StarSet(QUADRANT, QUADRANT.arc_grid(64), radii)


class TestVolume:
    def test_quadrant_xy_unit_ball(self):
        # oracle: (1/4) * int_0^{pi/2} cos sin = 1/8
        star = StarSet.ball(QUADRANT, 4096)
        assert weighted_volume(star, W_XY) == pytest.approx(0.125, abs=1e-8)

    def test_quadrant_x_unit_ball(self):
        star = StarSet.ball(QUADRANT, 4096)
        assert weighted_volume(star, W_X) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_unit_volume_reference(self):
        # w(B1 cap cone) at the set's own quadrature; quadrant xy has 1/8
        star = StarSet.ball(QUADRANT, 8192)
        assert deficit(star, W_XY).unit_volume == pytest.approx(0.125, rel=1e-6)

    def test_dilation_scaling(self):
        star = StarSet.ball(QUADRANT, 1024, r=2.0)
        base = StarSet.ball(QUADRANT, 1024)
        assert weighted_volume(star, W_XY) == pytest.approx(
            2.0 ** W_XY.D * weighted_volume(base, W_XY), rel=1e-12)

    def test_quadrature_order(self):
        # doubling n_theta changes smooth results below 1e-6
        star1 = StarSet.perturbed_ball(W_XY, 4096, 0.1, eta4)
        star2 = StarSet.perturbed_ball(W_XY, 8192, 0.1, eta4)
        assert abs(weighted_volume(star1, W_XY) - weighted_volume(star2, W_XY)) < 1e-6


class TestPerimeter:
    def test_ball_identity_quadrant(self):
        # Per_w(B1) = D w(B1): the discrete quadratures agree to roundoff and
        # both sit within trapezoid error of the closed forms 1/2 and 1/8.
        star = StarSet.ball(QUADRANT, 4096)
        per = deficit(star, W_XY).w_perimeter
        vol = weighted_volume(star, W_XY)
        assert per == pytest.approx(W_XY.D * vol, abs=1e-10)
        assert per == pytest.approx(0.5, abs=1e-7)

    def test_ball_identity_half_plane(self):
        star = StarSet.ball(HALF, 4096)
        per = deficit(star, W_Y).w_perimeter
        assert per == pytest.approx(W_Y.D * weighted_volume(star, W_Y), abs=1e-10)
        assert per == pytest.approx(2.0, abs=1e-6)

    def test_scaled_ball_identity(self):
        # r * Per_w(B_r) = D * w(B_r) by homogeneity (the unit-ball identity scaled)
        for r in (0.5, 1.0, 2.0):
            star = StarSet.ball(QUADRANT, 4096, r=r)
            per = deficit(star, W_XY).w_perimeter
            vol = weighted_volume(star, W_XY)
            assert r * per == pytest.approx(W_XY.D * vol, rel=1e-10)

    def test_perturbed_above_ball_and_matches_fine_oracle(self):
        # zero-weighted-mean bump: volume grows at second order, so the
        # isoperimetric inequality pushes the perimeter strictly above 1/2
        star = StarSet.perturbed_ball(W_XY, 4096, 0.1, eta4)
        per = deficit(star, W_XY).w_perimeter
        assert per > 0.5
        fine = StarSet.perturbed_ball(W_XY, 2 ** 16, 0.1, eta4)
        oracle = deficit(fine, W_XY).w_perimeter
        assert per == pytest.approx(oracle, abs=1e-7)


class TestDeficit:
    def test_ball_and_dilates_are_minimizers(self):
        for r in (0.5, 1.0, 3.0):
            rep = deficit(StarSet.ball(QUADRANT, 4096, r=r), W_XY)
            assert abs(rep.deficit) <= 1e-9
            assert rep.r_eq == pytest.approx(r, rel=1e-12)

    def test_eps_family_quadratic(self):
        ratios = []
        for eps in (0.05, 0.1, 0.2):
            star = StarSet.perturbed_ball(W_XY, 4096, eps, eta4)
            ratios.append(deficit(star, W_XY).deficit / eps ** 2)
        assert max(ratios) / min(ratios) - 1.0 < 0.2
        assert min(ratios) > 0

    def test_scale_invariance(self):
        star = StarSet.perturbed_ball(W_XY, 2048, 0.1, eta4)
        d0 = deficit(star, W_XY).deficit
        a0, _ = asymmetry(star, W_XY, deficit(star, W_XY))
        for lam in (0.5, 3.0):
            scaled = StarSet(star.cone, star.thetas, lam * star.radii)
            rep = deficit(scaled, W_XY)
            assert abs(rep.deficit - d0) <= 1e-12
            a1, _ = asymmetry(scaled, W_XY, rep)
            assert abs(a1 - a0) <= 1e-9

    def test_nonnegative_on_random_sets(self):
        rng = np.random.default_rng(0)
        n_theta = 4096
        for _ in range(50):
            coefs = rng.uniform(-1, 1, (2, 8))
            coefs *= 0.45 / max(np.abs(coefs).sum(), 1.0)

            def r_fn(th):
                t = (th - QUADRANT.angle_lo)
                out = np.ones_like(th)
                for m in range(8):
                    out = out + coefs[0, m] * np.cos((m + 1) * t) \
                        + coefs[1, m] * np.sin((m + 1) * t)
                return out

            star = StarSet.from_radial(QUADRANT, n_theta, r_fn)
            assert deficit(star, W_XY).deficit >= -5.0 / n_theta


    @pytest.mark.parametrize("cone, weight", [(QUADRANT, W_XY), (HALF, W_Y)])
    def test_report_equals_the_public_functions_bit_for_bit(self, cone, weight):
        star = StarSet.perturbed_ball(weight, 2048, 0.1, eta4)
        rep = deficit(star, weight)
        # the polar quadratures the report shares its arrays between
        qw = star.quad_weights()
        vol = weighted_volume(star, weight)
        per = float(qw @ geometry.boundary_element(star, weight))
        w1 = float(qw @ weight.arc_values(star.thetas)) / weight.D
        assert (rep.w_volume, rep.w_perimeter) == (vol, per)
        assert rep.deficit == deficit_value(per, vol, w1, weight.D)
        assert rep.r_eq == (vol / w1) ** (1.0 / weight.D)
        assert rep.unit_volume == w1

    def test_arc_arrays_built_once_per_deficit(self, monkeypatch):
        # the volume, the perimeter and w(B1 cap cone) share one angular
        # weight and one set of quadrature weights
        counts = {"arc_values": 0, "quad_weights": 0}
        arc_values, quad_weights = HomWeight.arc_values, StarSet.quad_weights

        def counted_arc_values(weight, thetas):
            counts["arc_values"] += 1
            return arc_values(weight, thetas)

        def counted_quad_weights(star):
            counts["quad_weights"] += 1
            return quad_weights(star)

        star = StarSet.perturbed_ball(W_Y, 2048, 0.1, eta_fourier_cos(HALF, 4))
        monkeypatch.setattr(HomWeight, "arc_values", counted_arc_values)
        monkeypatch.setattr(StarSet, "quad_weights", counted_quad_weights)
        deficit(star, W_Y)
        assert counts == {"arc_values": 1, "quad_weights": 1}


class TestSymdiff:
    def test_identical_sets(self):
        star = StarSet.ball(QUADRANT, 1024)
        assert symdiff_with_ball(star, W_XY, (0.0, 0.0), 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_nested_balls(self):
        star = StarSet.ball(QUADRANT, 4096)
        got = symdiff_with_ball(star, W_XY, (0.0, 0.0), 1.1)
        w1 = weighted_volume(star, W_XY)
        assert got == pytest.approx((1.1 ** 4 - 1.0) * w1, rel=1e-9)

    def test_translation_against_2d_tensor_oracle(self):
        star = StarSet.ball(QUADRANT, 8192)
        got = symdiff_with_ball(star, W_XY, (0.05, 0.05), 1.0)
        # midpoint tensor oracle over the bounding box
        h = 5e-4
        xs = np.arange(h / 2, 1.1, h)
        total = 0.0
        for x in xs:
            ys = np.arange(h / 2, 1.1, h)
            in_a = x * x + ys * ys < 1.0
            in_b = (x - 0.05) ** 2 + (ys - 0.05) ** 2 < 1.0
            diff = in_a ^ in_b
            total += float(np.sum(x * ys[diff])) * h * h
        assert got == pytest.approx(total, abs=1e-4)

    def test_center_outside_ball_rejected(self):
        star = StarSet.ball(QUADRANT, 256)
        with pytest.raises(UnsupportedTranslationError):
            symdiff_with_ball(star, W_XY, (1.5, 0.0), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.4, 2.0))
    def test_symdiff_identity_concentric(self, r):
        star = StarSet.perturbed_ball(W_XY, 1024, 0.15, eta4)
        sd = symdiff_with_ball(star, W_XY, (0.0, 0.0), r)
        w_e = weighted_volume(star, W_XY)
        w_f = r ** W_XY.D * weighted_volume(StarSet.ball(QUADRANT, 1024), W_XY)
        inter = weighted_volume(
            StarSet(QUADRANT, star.thetas, np.minimum(star.radii, r)), W_XY)
        assert sd == pytest.approx(w_e + w_f - 2.0 * inter, abs=1e-9)


class TestAsymmetry:
    def test_ball_is_symmetric(self):
        star = StarSet.ball(QUADRANT, 2048)
        a, x0 = asymmetry(star, W_XY, deficit(star, W_XY))
        assert a <= 1e-9 and np.allclose(x0, 0.0)

    def test_dilated_ball(self):
        star = StarSet.ball(QUADRANT, 2048, r=2.0)
        a, _ = asymmetry(star, W_XY, deficit(star, W_XY))
        assert a <= 1e-9

    def test_translated_ball_found_on_half_plane(self):
        star = StarSet.ball(HALF, 4096, r=1.0, center=(0.3, 0.0))
        a, x0 = asymmetry(star, W_Y, deficit(star, W_Y))
        assert a <= 2e-3
        assert abs(x0[0] - 0.3) <= 5e-3 and x0[1] == 0.0

    def test_range(self):
        star = StarSet.perturbed_ball(W_XY, 1024, 0.2, eta4)
        a, _ = asymmetry(star, W_XY, deficit(star, W_XY))
        assert 0.0 <= a <= 2.0

    # a mode-1 star on the half-plane y > 0 is, to first order, the ball moved
    # by eps along the line; the search takes that move out, so A is O(eps^2)
    @pytest.mark.parametrize("eps, a_over_eps, shift", [
        (0.04, 0.015335, 0.039957), (0.02, 0.0076903, 0.019995), (0.01, 0.0038480, 0.0099993)])
    def test_half_plane_search_removes_the_translation_mode(self, eps, a_over_eps, shift):
        star = StarSet.perturbed_ball(W_Y, 2048, eps, eta_fourier_cos(HALF, 1))
        a, x0 = asymmetry(star, W_Y, deficit(star, W_Y))
        assert a / eps == pytest.approx(a_over_eps, rel=1e-3)
        assert x0[0] == pytest.approx(shift, rel=1e-3) and x0[1] == 0.0

    # for contrast, mode 2 is not a translation: A/eps stays near 1.55
    @pytest.mark.parametrize("eps", [0.04, 0.02, 0.01])
    def test_half_plane_mode_two_is_not_removed(self, eps):
        star = StarSet.perturbed_ball(W_Y, 2048, eps, eta_fourier_cos(HALF, 2))
        a, _ = asymmetry(star, W_Y, deficit(star, W_Y))
        assert a / eps == pytest.approx(1.55, rel=0.01)

    def test_full_plane_is_rejected(self):
        # the plane translates in two directions; the search covers one line
        star = StarSet.ball(Cone.plane(), 256)
        rep = deficit(StarSet.ball(HALF, 256), W_Y)
        with pytest.raises(ValueError, match="not the full plane"):
            asymmetry(star, W_Y, rep)


def _ray_interval_per_call(thetas, x0, r):
    """Reference: (t-, t+) of the rays at ``thetas`` through B_r(x0), 0 where
    a ray misses the ball."""
    b = unit(thetas) @ np.asarray(x0, dtype=float)
    disc = b * b + r * r - float(np.dot(x0, x0))
    has = disc > 0
    root = np.sqrt(np.where(has, disc, 0.0))
    t_minus = np.where(has, np.maximum(b - root, 0.0), 0.0)
    t_plus = np.where(has, np.maximum(b + root, 0.0), 0.0)
    return t_minus, t_plus


def _symdiff_per_call(star, weight, x0, r):
    """Reference: w(E symdiff B_r(x0)) rebuilding every array on each call,
    with three powers of the ray ends, zeros included."""
    t_minus, t_plus = _ray_interval_per_call(star.thetas, x0, r)
    D = weight.D
    rE = star.radii
    m_e = power_mass(0.0, rE, D)
    m_b = power_mass(t_minus, np.maximum(t_plus, t_minus), D)
    m_i = power_mass(t_minus, np.maximum(np.minimum(rE, t_plus), t_minus), D)
    qw = star.quad_weights()
    wv = weight.arc_values(star.thetas)
    return float(qw @ (wv * (m_e + m_b - 2.0 * m_i)))


def _asymmetry_per_call(star, weight):
    """Reference: the 65-point scan and golden-section search over
    :func:`_symdiff_per_call`."""
    rep = deficit(star, weight)
    vol, r_eq = rep.w_volume, rep.r_eq
    if star.cone.k == 0:
        return _symdiff_per_call(star, weight, np.zeros(2), r_eq) / vol, np.zeros(2)
    direction = star.cone.basis_L()[0]

    def objective(t):
        return _symdiff_per_call(star, weight, t * direction, r_eq) / vol

    ts = np.linspace(-2.0 * r_eq, 2.0 * r_eq, 65)
    i = int(np.argmin([objective(t) for t in ts]))
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
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


_PROFILE_ARC = np.linspace(0.0, np.pi, 257)
W_Y_PROFILE = HomWeight.from_profile(HALF, _PROFILE_ARC, np.sin(_PROFILE_ARC), 1.0)
SEARCH_CASES = {
    **{f"half_ball_r{r}": (StarSet.ball(HALF, 2048, r=r), W_Y) for r in (0.5, 1.0, 2.0)},
    "half_ball_shifted": (StarSet.ball(HALF, 2048, r=1.0, center=(0.3, 0.0)), W_Y),
    **{f"half_fourier_m{m}_e{eps}": (
        StarSet.perturbed_ball(W_Y, 2048, eps, eta_fourier_cos(HALF, m)), W_Y)
       for m, eps in ((2, 0.05), (5, 0.2), (6, 0.1))},
    "half_profile": (StarSet.perturbed_ball(W_Y_PROFILE, 2048, 0.1,
                                            eta_fourier_cos(HALF, 3)), W_Y_PROFILE),
    "quadrant_fourier": (StarSet.perturbed_ball(W_XY, 2048, 0.1, eta4), W_XY),
}
# the evaluation kernel also sees a half-plane whose line is not an axis and a
# wedge narrower than the quadrant
ROTATED_HALF = Cone(0.4, 0.4 + math.pi)
_ROTATED_ARC = np.linspace(0.4, 0.4 + np.pi, 257)
W_ROTATED_PROFILE = HomWeight.from_profile(ROTATED_HALF, _ROTATED_ARC,
                                           np.sin(_ROTATED_ARC - 0.4), 1.0)
WEDGE = Cone(0.2, 1.2)
W_WEDGE = HomWeight.monomial(WEDGE, 1, 1)
KERNEL_CASES = {
    **SEARCH_CASES,
    "rotated_half_profile": (
        StarSet.perturbed_ball(W_ROTATED_PROFILE, 2048, 0.1,
                               eta_fourier_cos(ROTATED_HALF, 3)), W_ROTATED_PROFILE),
    "wedge_fourier": (StarSet.perturbed_ball(W_WEDGE, 1024, 0.15,
                                             eta_fourier_cos(WEDGE, 2)), W_WEDGE),
}


def _kernel_centres(star, r):
    """Centres on the cone's middle ray at |x0| = 0, r/2, r, 3r/2 and 3r,
    then the 65 centres of the translation scan when the cone has a line."""
    cone = star.cone
    mid = unit(0.5 * (cone.angle_lo + cone.angle_hi))
    centres = [f * r * mid for f in (0.0, 0.5, 1.0, 1.5, 3.0)]
    if cone.k == 1:
        direction, = cone.basis_L()
        centres += [t * direction for t in np.linspace(-2.0 * r, 2.0 * r, 65)]
    return centres


class TestAngleFrame:
    """A cone given one turn later is the same cone: its sets read every
    angle in the cone's frame, not at the raw arctan2."""

    LATER = Cone(2.0 * math.pi, 2.5 * math.pi)

    def _star(self, cone):
        return StarSet.perturbed_ball(HomWeight.monomial(cone, 1, 1), 2048, 0.2,
                                      eta_fourier_cos(cone, 4))

    def test_radius_and_membership_agree(self):
        star, later = self._star(QUADRANT), self._star(self.LATER)
        assert later.radius_at(0.3) == pytest.approx(star.radius_at(0.3), abs=1e-12)
        assert later.radius_at(0.3) == pytest.approx(1.1391, abs=1e-4)
        xs = np.linspace(-0.3, 1.4, 81)
        pts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
        inside = star.contains(pts)
        assert 0 < inside.sum() < len(pts)
        assert np.array_equal(later.contains(pts), inside)

    def test_deficits_agree(self):
        rep = deficit(self._star(QUADRANT), W_XY)
        later = deficit(self._star(self.LATER), HomWeight.monomial(self.LATER, 1, 1))
        assert later.deficit == pytest.approx(rep.deficit, abs=1e-12)


class TestTranslationSearch:
    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_matches_per_call_search_bit_for_bit(self, case):
        star, weight = SEARCH_CASES[case]
        a, x0 = asymmetry(star, weight, deficit(star, weight))
        a_ref, x0_ref = _asymmetry_per_call(star, weight)
        assert a == a_ref and x0.tobytes() == x0_ref.tobytes()
        for x, r in (((0.0, 0.0), 0.9), ((0.2, 0.1), 1.0), ((-0.4, 0.3), 1.3)):
            assert symdiff_with_ball(star, weight, x, r) == _symdiff_per_call(
                star, weight, np.asarray(x), r)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_kernel_matches_per_call_formula_bit_for_bit(self, case):
        star, weight = KERNEL_CASES[case]
        r = deficit(star, weight).r_eq
        symdiff = geometry._symdiff_with_balls(star, weight)
        for x0 in _kernel_centres(star, r):
            assert symdiff(x0, r) == _symdiff_per_call(star, weight, x0, r)

    @pytest.mark.parametrize("case", ["half_profile", "quadrant_fourier",
                                      "rotated_half_profile", "wedge_fourier"])
    def test_far_centre_reaches_zero_radii(self, case):
        # at |x0| = 3r some rays start inside the set (t- > 0) and an arc misses
        # the ball (t+ = 0): the rays whose zero radii skip np.power
        star, weight = KERNEL_CASES[case]
        r = deficit(star, weight).r_eq
        t_minus, t_plus = _ray_interval_per_call(star.thetas, _kernel_centres(star, r)[4], r)
        assert np.any(t_minus > 0.0) and np.any(t_plus == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["half_fourier_m5_e0.2", "quadrant_fourier",
                            "rotated_half_profile", "wedge_fourier"]),
           st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.01, 3.0))
    def test_kernel_matches_per_call_formula_at_random_balls(self, case, x, y, r):
        star, weight = KERNEL_CASES[case]
        got = geometry._symdiff_with_balls(star, weight)((x, y), r)
        assert got == _symdiff_per_call(star, weight, np.array([x, y]), r)

    @pytest.mark.parametrize("cone", [HALF, QUADRANT, ROTATED_HALF, WEDGE, Cone.plane()],
                             ids=["half", "quadrant", "rotated_half", "wedge", "plane"])
    def test_ray_interval_and_ball_radii_match_per_call_formula(self, cone):
        thetas = cone.arc_grid(1024)
        mid = unit(0.5 * (cone.angle_lo + cone.angle_hi))
        for x0, r in ((np.zeros(2), 0.7), (0.3 * mid, 1.0), (mid, 1.0), (2.0 * mid, 1.0),
                      (np.array([-1.1, 0.4]), 0.6), (np.array([0.3, -0.2]), 1e-3),
                      (np.array([0.2, 0.1]), 0.8), (np.array([-0.3, 0.25]), 1.4)):
            got = geometry._ball_ray_interval(unit(thetas), x0, r)
            want = _ray_interval_per_call(thetas, x0, r)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            if float(np.linalg.norm(x0)) < r:
                ball = StarSet.ball(cone, 1024, r=r, center=x0)
                assert ball.radii.tobytes() == want[1].tobytes()

    def test_set_arrays_built_once_per_search(self, monkeypatch):
        # the set's arrays, rE^D among them, must not be rebuilt for each of the
        # 93 evaluations (91, 93 and 94 for the half-plane balls of radius 0.5,
        # 1 and 2), and an evaluation powers at most t+ and t-
        counts = {"arc_values": 0, "unit": 0, "radii_pow": 0, "evaluations": 0, "powers": 0}
        arc_values, unit_fn = HomWeight.arc_values, geometry.unit
        interval, power = geometry._ball_ray_interval, geometry._power_of_positive

        def counted_arc_values(weight, thetas):
            counts["arc_values"] += 1
            return arc_values(weight, thetas)

        def counted_unit(theta):
            counts["unit"] += 1
            return unit_fn(theta)

        def counted_interval(u, x0, r):
            counts["evaluations"] += 1
            return interval(u, x0, r)

        def counted_power(t, D):
            counts["powers"] += 1
            return power(t, D)

        class CountedRadii(np.ndarray):
            def __pow__(self, p):
                counts["radii_pow"] += 1
                return np.asarray(self) ** p

        star = StarSet.perturbed_ball(W_Y, 2048, 0.1, eta_fourier_cos(HALF, 4))
        rep = deficit(star, W_Y)
        want = asymmetry(star, W_Y, rep)
        star = dataclasses.replace(star, radii=star.radii.view(CountedRadii))
        monkeypatch.setattr(HomWeight, "arc_values", counted_arc_values)
        monkeypatch.setattr(geometry, "unit", counted_unit)
        monkeypatch.setattr(geometry, "_ball_ray_interval", counted_interval)
        monkeypatch.setattr(geometry, "_power_of_positive", counted_power)
        a, x0 = asymmetry(star, W_Y, rep)
        assert a == want[0] and x0.tobytes() == want[1].tobytes()
        assert counts["evaluations"] == 93 and counts["powers"] <= 2 * 93
        del counts["evaluations"], counts["powers"]
        assert counts == {"arc_values": 1, "unit": 1, "radii_pow": 1}


class TestBoundaryIntegral:
    def test_constant_recovers_perimeter(self):
        star = StarSet.perturbed_ball(W_XY, 2048, 0.1, eta4)
        got = boundary_weighted_integral(star, W_XY, lambda p: np.ones(len(p)))
        assert got == pytest.approx(deficit(star, W_XY).w_perimeter, rel=1e-12)

    def test_radial_distance_zero_on_ball(self):
        star = StarSet.ball(QUADRANT, 2048)
        got = boundary_weighted_integral(
            star, W_XY, lambda p: np.abs(np.hypot(p[:, 0], p[:, 1]) - 1.0))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_radial_distance_on_perturbed_set(self):
        star = StarSet.perturbed_ball(W_XY, 4096, 0.1, eta4)
        got = boundary_weighted_integral(
            star, W_XY, lambda p: np.abs(np.hypot(p[:, 0], p[:, 1]) - 1.0))
        oracle = boundary_weighted_integral(
            StarSet.perturbed_ball(W_XY, 2 ** 16, 0.1, eta4), W_XY,
            lambda p: np.abs(np.hypot(p[:, 0], p[:, 1]) - 1.0))
        assert got == pytest.approx(oracle, abs=1e-6)
        assert 0.01 < got < 0.2  # roughly eps * perimeter scale


def midpoint_volume(star, weight, box, h):
    """w(E) as a midpoint sum over the square cells of side h tiling ``box``."""
    xs = np.arange(box[0][0] + h / 2, box[0][1], h)
    ys = np.arange(box[1][0] + h / 2, box[1][1], h)
    mids = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    inside = star.contains(mids, tol=0.0)
    return float(weight(mids[inside]).sum()) * h * h


class TestMidpointVolumeOracle:
    # cells cut by the curved boundary leave an O(h) error
    @pytest.mark.parametrize("make_star, weight, box", [
        (lambda: StarSet.ball(QUADRANT, 2048), W_XY, ((0.0, 1.2), (0.0, 1.2))),
        (lambda: StarSet.perturbed_ball(W_XY, 2048, 0.15, eta4), W_XY,
         ((0.0, 1.4), (0.0, 1.4))),
        (lambda: StarSet.ball(HALF, 2048, center=(0.3, 0.2)), W_Y, ((-0.8, 1.4), (0.0, 1.3))),
    ], ids=["quadrant_ball", "perturbed_ball", "half_plane_shifted_ball"])
    def test_polar_quadrature_matches_cell_sum(self, make_star, weight, box):
        star = make_star()
        pts = star.boundary_points()
        assert np.all((pts >= [box[0][0], box[1][0]]) & (pts <= [box[0][1], box[1][1]]))
        got = midpoint_volume(star, weight, box, 2e-3)
        assert got == pytest.approx(weighted_volume(star, weight), rel=1e-3)


class TestRadialDerivative:
    @pytest.mark.parametrize("cone", [QUADRANT, Cone.plane()], ids=["quadrant", "plane"])
    def test_matches_analytic_derivative(self, cone):
        star = StarSet.from_radial(cone, 512, lambda t: 1.0 + 0.2 * np.cos(3.0 * t))
        exact = -0.6 * np.sin(3.0 * star.thetas)
        # second-order differences, one-sided at the ends of a wedge
        assert np.max(np.abs(star.radial_derivative() - exact)) <= 0.6 * 9.0 * (
            cone.arc_step(512) ** 2)


class TestPolarSlicing:
    def test_per_ray_measures_reproduce_volume(self):
        star = StarSet.perturbed_ball(W_XY, 2048, 0.15, eta4)
        qw = star.quad_weights()
        wv = W_XY.arc_values(star.thetas)
        per_ray = star.radii ** W_XY.D / W_XY.D  # integral of t^(D-1) over the slice
        assert float(qw @ (wv * per_ray)) == pytest.approx(
            weighted_volume(star, W_XY), abs=1e-10)
