"""Quantitative lemma checkers: AM-GM, 1-D stability, translations, Cheeger."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocone import analysis
from isocone.analysis import (
    HypothesisFailure,
    InadmissibleInputError,
    IntervalSet,
    _column_weight_integral,
    ball_volume_growth,
    cheeger_bruteforce,
    one_dim_stability_batch,
    one_dim_stability_check,
    psi_k,
    quantitative_amgm_batch,
    quantitative_amgm_check,
    removal_lemma_check,
    shift_lower_bound,
    shifted_ball_volume,
    shifted_weight_separation,
    trace_poincare_check_1d,
    translated_ball_control_check,
)
from isocone.cone_weight import Cone, HomWeight
from isocone.expectations import EXPECTATIONS
from isocone.geometry import StarSet, power_mass

QUADRANT = Cone.quadrant()
W_XY = HomWeight.monomial(QUADRANT, 1, 1)
W_X = HomWeight.monomial(QUADRANT, 1, 0)
ARC = QUADRANT.arc_grid(257)


class TestQuantitativeAmgm:
    def test_equality_at_mean(self):
        lhs, rhs, holds = quantitative_amgm_check([1.0], [2.5], 2.5)
        assert lhs == 0.0 and rhs == pytest.approx(0.0, abs=1e-14) and holds

    def test_worked_pair(self):
        lhs, rhs, holds = quantitative_amgm_check([1.0, 1.0], [1.2, 0.8], 1.0)
        assert lhs == pytest.approx(0.08)
        assert rhs == pytest.approx(8.0 / 3.0 * 8.0 * (1.0 - 0.96))
        assert holds

    def test_all_at_mean_many_weights(self):
        lhs, rhs, holds = quantitative_amgm_check([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], 1.0)
        assert lhs == 0.0 and abs(rhs) <= 1e-14 and holds

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(InadmissibleInputError):
            quantitative_amgm_check([1.0, 1.0], [3.0, 3.0], 1.0)

    def test_subunit_weight_sum_rejected(self):
        with pytest.raises(InadmissibleInputError):
            quantitative_amgm_check([0.4], [0.1], 1.0)

    def test_bulk_random_audit(self):
        assert quantitative_amgm_batch(100_000, seed=1) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6),
           st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
           st.floats(0.2, 4.0), st.floats(0.0, 1.0))
    def test_random_admissible_cases(self, lam, xs, c, shrink):
        lam = np.asarray(lam)
        if lam.sum() < 1.0:
            lam = lam / lam.sum()
        x = np.asarray(xs[: len(lam)])
        total = float((lam * x).sum())
        cap = c * lam.sum()
        if total > cap:
            x = x * (cap / total) * shrink
        lhs, rhs, holds = quantitative_amgm_check(lam, x, c)
        assert holds


class TestIntervalSet:
    E = IntervalSet(((0.0, 1.0), (2.0, 3.0)))

    def test_measure_integrates_powers(self):
        assert self.E.measure() == pytest.approx(2.0, abs=1e-15)
        assert self.E.measure(1.0) == pytest.approx(0.5 + 2.5, abs=1e-15)
        assert self.E.measure(2.0) == pytest.approx(1.0 / 3.0 + 19.0 / 3.0, abs=1e-15)

    def test_boundary_keeps_interior_endpoints(self):
        assert self.E.boundary() == [1.0, 2.0, 3.0]
        assert IntervalSet(((0.5, 1.0),)).boundary() == [0.5, 1.0]

    def test_overlap_clips_to_the_window(self):
        assert self.E.overlap(0.5, 2.5) == pytest.approx(1.0, abs=1e-15)
        assert self.E.overlap(0.5, 2.5, 1.0) == pytest.approx(0.375 + 1.125, abs=1e-15)
        assert self.E.overlap(1.0, 2.0) == 0.0  # the window touches E only at points
        assert self.E.overlap(0.0, 5.0, 2.0) == pytest.approx(self.E.measure(2.0), abs=1e-15)

    @pytest.mark.parametrize("intervals, match", [
        (((-0.1, 1.0),), "positive-length"),
        (((0.5, 0.5),), "positive-length"),
        (((0.0, 1.0), (0.9, 2.0)), "sorted and disjoint"),
        (tuple((k, k + 0.5) for k in range(17)), "at most 16"),
    ], ids=["negative", "empty", "overlapping", "seventeen"])
    def test_malformed_intervals_rejected(self, intervals, match):
        with pytest.raises(ValueError, match=match):
            IntervalSet(intervals)


class TestOneDimStability:
    def test_exact_interval_zero(self):
        E = IntervalSet(((0.0, 1.0),))
        lhs, den, ratio = one_dim_stability_check(E, 1.0, 2.0)
        assert lhs == pytest.approx(0.0, abs=1e-15) and ratio == 0.0

    def test_worked_truncation(self):
        E = IntervalSet(((0.0, 0.8),))
        lhs, den, ratio = one_dim_stability_check(E, 1.0, 2.0)
        assert lhs == pytest.approx((1.0 - 0.512) / 3.0, abs=1e-12)
        assert den == pytest.approx(0.128, abs=1e-12)
        assert ratio == pytest.approx(61.0 / 48.0, abs=1e-12)

    def test_worked_outlier_component(self):
        E = IntervalSet(((0.0, 1.0), (2.0, 2.1)))
        lhs, den, ratio = one_dim_stability_check(E, 1.0, 0.0)
        assert lhs == pytest.approx(0.1, abs=1e-12)
        assert den == pytest.approx(2.1, abs=1e-12)
        assert ratio == pytest.approx(0.1 / 2.1, abs=1e-12)

    def test_l_out_of_range(self):
        with pytest.raises(InadmissibleInputError):
            one_dim_stability_check(IntervalSet(((0.0, 1.0),)), 0.5, 1.0)

    def test_origin_endpoint_excluded_from_boundary(self):
        E = IntervalSet(((0.0, 0.8),))
        assert E.boundary() == [0.8]

    def test_batch_agrees_with_scalar_checker(self):
        rng = np.random.default_rng(5)
        rows = np.sort(rng.uniform(0.0, 3.0, (64, 4)), axis=1)
        for l in (0.8, 1.0, 1.2):
            for gamma in (0.0, 1.0, 2.0):
                lhs_b, den_b = one_dim_stability_batch(rows, l, gamma)
                for row, lb, db in zip(rows, lhs_b, den_b):
                    E = IntervalSet(((row[0], row[1]), (row[2], row[3])))
                    lhs, den, _ratio = one_dim_stability_check(E, l, gamma)
                    assert lb == pytest.approx(lhs, abs=1e-12)
                    assert db == pytest.approx(den, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(0.01, 3.0), min_size=2, max_size=6),
           st.sampled_from([0.8, 1.0, 1.2]), st.sampled_from([0.0, 1.0, 2.0]))
    def test_ratio_bounded_random_intervals(self, pts, l, gamma):
        pts = sorted(set(round(p, 6) for p in pts))
        if len(pts) % 2:
            pts = pts[:-1]
        if len(pts) < 2:
            return
        E = IntervalSet(tuple(zip(pts[0::2], pts[1::2])))
        lhs, den, ratio = one_dim_stability_check(E, l, gamma)
        if lhs > 0:
            assert den > 0
            # worst case: E vanishing near the origin gives lhs/den close to
            # (l / (1/2))^(gamma+1) <= 2.5^3; assert with slack
            assert ratio <= 16.0


class TestShiftLowerBound:
    def test_worked_piecewise_linear(self):
        lhs, rhs = shift_lower_bound([0, 1, 2, 3], [0, 2, 1, 3], 0.5, 2.5, 0.3)
        assert lhs >= rhs - 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=9),
           st.floats(0.05, 0.8), st.floats(0.2, 2.0), st.floats(0.3, 2.5))
    def test_random_piecewise_linear(self, vals, eps, a, width):
        breaks = np.linspace(-1.0, 4.0, len(vals))
        lhs, rhs = shift_lower_bound(breaks, vals, a, a + width, eps)
        assert lhs >= rhs - 1e-9

    def test_bulk_random_audit(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = rng.integers(4, 10)
            breaks = np.sort(rng.uniform(-1.0, 4.0, n))
            if len(np.unique(breaks)) < n:
                continue
            vals = rng.uniform(-2.0, 2.0, n)
            a = rng.uniform(0.0, 1.5)
            b = a + rng.uniform(0.3, 2.0)
            eps = rng.uniform(0.05, 0.8)
            lhs, rhs = shift_lower_bound(breaks, vals, a, b, eps)
            assert lhs >= rhs - 1e-9


def loop_shifted_ball_volume(cone, weight, center, r=1.0, h=1e-3):
    """The column-by-column loop that ``shifted_ball_volume`` vectorizes."""
    cx, cy = center
    nodes, gw = np.polynomial.legendre.leggauss(8)
    total = 0.0
    for x in np.arange(cx - r + h / 2.0, cx + r, h):
        dx2 = r * r - (x - cx) ** 2
        if dx2 <= 0:
            continue
        lo, hi = cy - math.sqrt(dx2), cy + math.sqrt(dx2)
        for n in cone.inward_normals():
            if abs(n[1]) < 1e-15:
                hi = lo if n[0] * x < 0 else hi
            elif n[1] > 0:
                lo = max(lo, -n[0] * x / n[1])
            else:
                hi = min(hi, -n[0] * x / n[1])
        if hi <= lo:
            continue
        if weight.exponents is not None:
            a1, a2 = weight.exponents
            total += max(x, 0.0) ** a1 * (hi ** (a2 + 1.0) - lo ** (a2 + 1.0)) / (a2 + 1.0)
        else:
            ys = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
            total += 0.5 * (hi - lo) * float(gw @ weight(np.column_stack([np.full(8, x), ys])))
    return total * h


class TestTranslationOps:
    def test_growth_zero_shift(self):
        assert ball_volume_growth(W_X, (0.0, 0.0)) == 0.0

    def test_growth_constancy_direction_linear(self):
        vals = {t: ball_volume_growth(W_X, (0.0, t)) for t in (0.05, 0.1, 0.2)}
        assert all(v > 0 for v in vals.values())
        slopes = [vals[t] / t for t in vals]
        assert max(slopes) / min(slopes) - 1.0 <= 0.15

    def test_growth_against_midpoint_tensor_oracle(self):
        got = ball_volume_growth(W_X, (0.0, 0.1))
        h = 5e-4

        def oracle_volume(center):
            xs = np.arange(h / 2, center[0] + 1.0, h)
            total = 0.0
            for x in xs:
                ys = np.arange(h / 2, center[1] + 1.0, h)
                inside = (x - center[0]) ** 2 + (ys - center[1]) ** 2 < 1.0
                total += x * np.count_nonzero(inside) * h * h
            return total

        oracle = oracle_volume((0.0, 0.1)) - oracle_volume((0.0, 0.0))
        assert got == pytest.approx(oracle, abs=1e-3)

    def test_growth_out_of_cone_negative(self):
        assert ball_volume_growth(W_XY, (-0.1, -0.1)) < 0

    def test_shifted_volume_matches_polar_at_origin(self):
        from isocone.geometry import weighted_volume
        star = StarSet.ball(QUADRANT, 8192)
        polar = weighted_volume(star, W_XY)
        tensor = shifted_ball_volume(W_XY, (0.0, 0.0))
        assert tensor == pytest.approx(polar, abs=1e-6)

    @pytest.mark.parametrize("weight", [
        W_XY, W_X, HomWeight.monomial(Cone.half_plane(), 0, 1),
        HomWeight.from_profile(QUADRANT, ARC, np.cos(ARC) * np.sin(ARC), 2.0),
        HomWeight.monomial(Cone.sector(math.pi / 3), 1, 1),  # upper ray bounds y above
    ], ids=["quadrant_xy", "quadrant_x", "half_y", "quadrant_profile", "sector60_xy"])
    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.2, -0.1), (-0.3, 0.25)])
    def test_shifted_volume_matches_column_loop(self, weight, center):
        got = shifted_ball_volume(weight, center)
        oracle = loop_shifted_ball_volume(weight.cone, weight, center)
        assert got == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_separation_zero_shift(self):
        assert shifted_weight_separation(W_XY, ((0.2, 0.4), (0.2, 0.4)), (0.0, 0.0)) == 0.0

    def test_separation_constancy_direction_exact_zero(self):
        sep = shifted_weight_separation(W_X, ((0.2, 0.4), (0.2, 0.4)), (0.0, 0.05))
        assert sep == 0.0

    def test_separation_locally_linear(self):
        d = np.array([1.0, -1.0]) / math.sqrt(2.0)
        s1 = shifted_weight_separation(W_XY, ((0.2, 0.4), (0.2, 0.4)), 0.05 * d)
        s2 = shifted_weight_separation(W_XY, ((0.2, 0.4), (0.2, 0.4)), 0.025 * d)
        assert s1 > 0
        assert abs(2.0 * s2 / s1 - 1.0) <= 0.1

    def test_separation_box_escape_rejected(self):
        with pytest.raises(InadmissibleInputError):
            shifted_weight_separation(W_XY, ((0.05, 0.25), (0.05, 0.25)), (-0.1, 0.0))


def column(weight, x, lo, hi):
    """The integral of ``weight`` over the one column {x} x [lo, hi]."""
    return float(_column_weight_integral(weight, np.array([x]), np.array([lo]),
                                         np.array([hi]))[0])


class TestColumnWeightIntegral:
    def test_xy_column(self):
        # w = xy along x = 0.4 from y = 0.1 to 0.9
        exact = 0.4 * (0.9 ** 2 - 0.1 ** 2) / 2.0
        assert column(W_XY, 0.4, 0.1, 0.9) == pytest.approx(exact, rel=1e-14)
        # the same weight given by profile samples takes the Gauss branch
        thetas = QUADRANT.arc_grid(2049)
        profile = HomWeight.from_profile(QUADRANT, thetas, np.cos(thetas) * np.sin(thetas), 2.0)
        assert column(profile, 0.4, 0.1, 0.9) == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("a_x, a_y, exact", [
        (1, 1, 0.5 * 0.2 ** 2 / 2.0),
        (1, 2, 0.5 * 0.2 ** 3 / 3.0),
        (1.5, 0.5, 0.5 ** 1.5 * 0.2 ** 1.5 / 1.5),
    ])
    def test_side_leaving_the_quadrant_is_clipped(self, a_x, a_y, exact):
        # a positive power of y is 0 at y < 0: only y in [0, 0.2] counts
        weight = HomWeight.monomial(QUADRANT, a_x, a_y)
        assert column(weight, 0.5, -0.1, 0.2) == pytest.approx(exact, rel=1e-14)

    def test_zeroth_power_is_not_clipped(self):
        # x on the right half-plane does not vanish at y < 0: the whole column counts
        weight = HomWeight.monomial(Cone.sector(math.pi, -math.pi / 2), 1, 0)
        assert column(weight, 0.5, -0.1, 0.2) == pytest.approx(0.5 * 0.3, rel=1e-14)


class TestTranslatedBallControl:
    def test_exact_ball_degenerate(self):
        star = StarSet.ball(QUADRANT, 2048)
        lhs, rhs, ratio = translated_ball_control_check(star, W_XY, (0.0, 0.0))
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert math.isinf(ratio)

    def test_interior_shift_bounded_ratio(self):
        star = StarSet.ball(QUADRANT, 8192)
        lhs, rhs, ratio = translated_ball_control_check(star, W_XY, (0.05, 0.05))
        assert lhs > 0 and rhs > 0
        assert ratio <= EXPECTATIONS["translated_ball_ratio_bound"]

    def test_perturbed_set_finite(self):
        star = StarSet.perturbed_ball(W_XY, 4096, 0.1,
                                      lambda th: np.cos(4 * th))
        lhs, rhs, ratio = translated_ball_control_check(star, W_XY, (0.0, 0.0))
        assert np.isfinite(ratio) and rhs > 0

    def test_hypothesis_failure_signalled(self):
        tiny = StarSet(QUADRANT, QUADRANT.arc_grid(512),
                       np.full(512, 0.05))
        with pytest.raises(HypothesisFailure):
            translated_ball_control_check(tiny, W_XY, (0.0, 0.0))

    def test_shift_size_precondition(self):
        star = StarSet.ball(QUADRANT, 512)
        with pytest.raises(InadmissibleInputError):
            translated_ball_control_check(star, W_XY, (0.3, 0.0))


def _loop_ratio(F_endpoints, E, alpha):
    """(w(F), Per_w(F), shared boundary weight) for one candidate subset."""
    e_bound = set()
    for t in E.boundary():
        e_bound.add(round(t, 12))
    vol = per = shared = 0.0
    for a, b in F_endpoints:
        vol += power_mass(a, b, alpha + 1.0)
        for t in (a, b):
            if t <= 1e-14:
                continue
            per += t ** alpha
            if round(t, 12) in e_bound:
                shared += t ** alpha
    return vol, per, shared


def _loop_cheeger_1d(E, alpha, max_components):
    """The 1-D Cheeger search as a loop over candidate tuples, one at a time."""
    grid = analysis._CHEEGER_GRID
    half = E.measure(alpha) / 2.0

    def evaluate(candidates):
        best = (math.inf, None)
        for cand in candidates:
            vol, per, shared = _loop_ratio(cand, E, alpha)
            if vol <= 1e-14 or vol > half * (1.0 + 1e-12):
                continue
            if shared <= 0:
                continue
            ratio = per / shared
            if ratio < best[0]:
                best = (ratio, cand)
        return best

    atoms = []
    for a, b in E.intervals:
        g = np.linspace(a, b, grid)
        for i in range(len(g)):
            for j in range(i + 1, len(g)):
                atoms.append(((g[i], g[j]),))
    candidates = list(atoms)
    if max_components >= 2:
        singles = [c[0] for c in atoms]
        for i in range(len(singles)):
            for j in range(i + 1, len(singles)):
                a1, b1 = singles[i]
                a2, b2 = singles[j]
                if b1 < a2 - 1e-14:
                    candidates.append(((a1, b1), (a2, b2)))
                elif b2 < a1 - 1e-14:
                    candidates.append(((a2, b2), (a1, b1)))
    best_ratio, best = evaluate(candidates)

    step = max(b - a for a, b in E.intervals) / (grid - 1)
    for _ in range(analysis._CHEEGER_REFINE):
        if best is None:
            break
        step /= 32.0
        locked = {round(t, 12) for iv in E.intervals for t in iv}
        variants = [()]
        for a, b in best:
            opts_a = [a] if round(a, 12) in locked else list(
                np.linspace(a - 32 * step, a + 32 * step, 65))
            opts_b = [b] if round(b, 12) in locked else list(
                np.linspace(b - 32 * step, b + 32 * step, 65))
            pairs = [(aa, bb) for aa in opts_a for bb in opts_b if bb > aa + 1e-14]
            variants = [v + (pq,) for v in variants for pq in pairs]
        inside = []
        for cand in variants:
            ok = all(
                any(iv[0] - 1e-12 <= a and b <= iv[1] + 1e-12 for iv in E.intervals)
                for a, b in cand
            )
            disjoint = all(cand[i][1] < cand[i + 1][0] + 1e-14 for i in range(len(cand) - 1))
            if ok and disjoint:
                inside.append(cand)
        r2, b2 = evaluate(inside)
        if r2 < best_ratio:
            best_ratio, best = r2, b2
    return best_ratio, best


LIGHT_PIECE = ((0.001, 0.001000005), (1.0, 2.0))


class TestCheeger1d:
    @pytest.mark.parametrize("block", [7, analysis._BLOCK])
    @pytest.mark.parametrize("grid", [4, 10])
    @pytest.mark.parametrize("max_components", [1, 2])
    @pytest.mark.parametrize("intervals, alpha", [
        (((1.0, 2.0),), 2.0),
        (((0.75, 2.8),), 2.5),  # array powers would move tau by an ulp here
        (((0.0, 0.8),), 2.0),
        (((0.5, 1.0), (1.5, 2.5)), 2.0),
        (((0.0, 0.5), (0.7, 1.1)), 0.5),
        (((0.2, 0.9), (1.0, 1.3), (1.6, 2.4)), 1.5),
        (LIGHT_PIECE, 2.0),
        (((0.3, 0.4), (0.5, 0.6)), 0.0),  # first piece above half by an ulp
    ])
    def test_matches_loop_oracle(self, monkeypatch, intervals, alpha, max_components,
                                 grid, block):
        # same candidates in the same order with the same sums: tau and the
        # winner repeat the loop bit for bit, block boundaries included
        monkeypatch.setattr(analysis, "_CHEEGER_GRID", grid)
        monkeypatch.setattr(analysis, "_BLOCK", block)
        E = IntervalSet(intervals)
        tau, best = _loop_cheeger_1d(E, alpha, max_components)
        res = cheeger_bruteforce(E, alpha, max_components)
        assert repr(res.tau) == repr(tau)
        assert res.best_subset == best
        assert repr(res.best_subset) == repr(best)

    def test_light_piece_rides_along(self, monkeypatch):
        # a piece lighter than 1e-14 is no candidate alone, yet its boundary
        # is all on dE, so adding it lowers any ratio above 1: the winner
        # has two components
        monkeypatch.setattr(analysis, "_CHEEGER_GRID", 10)
        E = IntervalSet(LIGHT_PIECE)
        assert len(_loop_cheeger_1d(E, 2.0, 2)[1]) == 2
        assert cheeger_bruteforce(E, 2.0).best_subset[0] == LIGHT_PIECE[0]

    def test_two_intervals_full_grid(self):
        E = IntervalSet(((0.5, 1.0), (1.5, 2.5)))
        res = cheeger_bruteforce(E, 2.0)
        assert res.tau >= 1.0
        ends = [t for f in res.best_subset for t in f]
        assert any(abs(t - e) <= 1e-12 for t in ends for e in E.boundary())
        assert all(any(a - 1e-12 <= lo and hi <= b + 1e-12 for a, b in E.intervals)
                   for lo, hi in res.best_subset)

    def test_interval_reduction_value(self):
        # analytic reduction: F = (c, 2) with c^3 = 4.5 gives (c^2 + 4)/4
        E = IntervalSet(((1.0, 2.0),))
        res = cheeger_bruteforce(E, 2.0)
        exact = (4.5 ** (2.0 / 3.0) + 4.0) / 4.0
        assert res.tau == pytest.approx(exact, abs=1e-3)

    def test_interior_candidates_are_infinite(self):
        # a strictly interior F shares no boundary with E: ratio infinity;
        # the minimizer must touch dE, so tau stays finite
        E = IntervalSet(((1.0, 2.0),))
        res = cheeger_bruteforce(E, 2.0)
        (a, b), = res.best_subset
        assert abs(b - 2.0) <= 1e-9 or abs(a - 1.0) <= 1e-9

    def test_disconnected_competitors_never_win(self):
        E = IntervalSet(((1.0, 2.0),))
        one = cheeger_bruteforce(E, 2.0, max_components=1)
        two = cheeger_bruteforce(E, 2.0, max_components=2)
        assert two.tau == pytest.approx(one.tau, abs=1e-9)
        assert len(two.best_subset) == 1


class TestPsiK:
    def test_k_formula(self):
        assert psi_k(3.0).k == pytest.approx((2.0 - 2.0 ** (2.0 / 3.0)) / 3.0, rel=1e-12)

    def test_psi_endpoint_values(self):
        fc = psi_k(4.0)
        samples = fc.psi(np.linspace(0.0, 1.0, 1001))
        assert samples[0] == pytest.approx(0.0, abs=1e-14)
        assert samples[-1] == pytest.approx(0.0, abs=1e-14)
        assert fc.psi(0.5) == pytest.approx(2.0 ** 0.25 - 1.0, rel=1e-12)

    @pytest.mark.parametrize("D", [2.5, 3.0, 4.0, 7.2])
    def test_psi_minorant(self, D):
        fc = psi_k(D)
        t = np.linspace(0.0, 0.5, 1000)
        margin = fc.psi(t) - 3.0 * fc.k * t ** ((D - 1.0) / D)
        assert np.min(margin) >= -1e-12

    def test_psi_strictly_concave(self):
        fc = psi_k(3.5)
        second = np.diff(fc.psi(np.linspace(0.0, 1.0, 1001)), 2)
        assert np.max(second) < 0

    def test_dimension_precondition(self):
        with pytest.raises(InadmissibleInputError):
            psi_k(1.0)


SPIKE = dict(amp=1.5, s=0.012, halfwidth=0.036)


def spike_star(n_theta=8192, amp=SPIKE["amp"], s=SPIKE["s"]):
    c = math.pi / 4.0
    return StarSet.from_radial(
        QUADRANT, n_theta, lambda th: 1.0 + amp * np.exp(-(((th - c) / s) ** 2)))


class TestRemovalLemma:
    def test_spike_sector_is_applicable_and_conclusions_hold(self):
        star = spike_star()
        c, hw = math.pi / 4.0, SPIKE["halfwidth"]
        rep = removal_lemma_check(star, W_XY, c - hw, c + hw)
        assert rep.applicable
        assert rep.volume_ok and rep.perimeter_ok
        # deficit conclusion is conditional on delta <= k(D); spiky sets exceed it
        assert rep.deficit_ok is None
        assert rep.details["delta_E"] > rep.details["k"]

    def test_thin_sector_of_ball_inapplicable(self):
        ball = StarSet.ball(QUADRANT, 8192)
        rep = removal_lemma_check(ball, W_XY, math.pi / 4 - 0.025, math.pi / 4 + 0.025)
        assert not rep.applicable
        assert rep.hypothesis_margin < 0

    def test_majority_sector_inapplicable(self):
        star = spike_star()
        rep = removal_lemma_check(star, W_XY, 0.0, math.pi / 2 - 0.02)
        assert not rep.applicable  # w(F) > w(E)/2

    def test_spike_family_parameters(self):
        for amp, s, hw in ((1.5, 0.010, 0.030), (1.2, 0.015, 0.045)):
            star = spike_star(amp=amp, s=s)
            c = math.pi / 4.0
            rep = removal_lemma_check(star, W_XY, c - hw, c + hw)
            assert rep.applicable
            assert rep.volume_ok and rep.perimeter_ok


class TestTracePoincare1d:
    E = IntervalSet(((1.0, 2.0),))
    TAU = (4.5 ** (2.0 / 3.0) + 4.0) / 4.0

    def test_constant_function_all_zero(self):
        rep = trace_poincare_check_1d(self.E, [((1.0, 2.0), 3.0)], alpha=2.0, tau=self.TAU)
        assert rep.lhs == 0.0 and rep.trace_rhs == 0.0 and rep.poincare_rhs == 0.0

    def test_worked_step_function(self):
        rep = trace_poincare_check_1d(
            self.E, [((1.0, 1.5), 0.0), ((1.5, 2.0), 1.0)], alpha=2.0, tau=self.TAU)
        assert rep.median == 1.0  # w((1.5, 2)) exceeds half the mass
        assert rep.lhs == pytest.approx(2.25, abs=1e-12)
        assert rep.trace_rhs == pytest.approx((self.TAU - 1.0) * 1.0, abs=1e-9)
        poincare_exact = 3.0 * (1.0 - 1.0 / self.TAU) * ((1.5 ** 3 - 1.0) / 3.0) ** (2.0 / 3.0)
        assert rep.poincare_rhs == pytest.approx(poincare_exact, rel=1e-9)
        assert rep.trace_holds and rep.poincare_holds

    def test_negated_function_symmetry(self):
        rep_pos = trace_poincare_check_1d(
            self.E, [((1.0, 1.5), 0.0), ((1.5, 2.0), 1.0)], alpha=2.0, tau=self.TAU)
        rep_neg = trace_poincare_check_1d(
            self.E, [((1.0, 1.5), 0.0), ((1.5, 2.0), -1.0)], alpha=2.0, tau=self.TAU)
        assert rep_neg.lhs == pytest.approx(rep_pos.lhs)
        assert rep_neg.poincare_rhs == pytest.approx(rep_pos.poincare_rhs, rel=1e-9)
        assert rep_neg.trace_holds and rep_neg.poincare_holds
