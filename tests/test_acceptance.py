"""Acceptance suite: one test per headline criterion, with pinned tolerances.

Each test prints a single PASS line (visible with pytest -s) after its
assertions; tolerances are fixed here, not computed at run time, except
where a criterion is explicitly defined against a pinned pilot constant
from isocone.expectations.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from isocone.analysis import (
    IntervalSet,
    cheeger_bruteforce,
    one_dim_stability_batch,
    one_dim_stability_check,
    psi_k,
    quantitative_amgm_batch,
    removal_lemma_check,
    shifted_weight_separation,
    trace_poincare_check_1d,
)
from isocone.cone_weight import Cone, HomWeight
from isocone.coupling import (
    Resolutions,
    abp_chain_check,
    anisotropic_deficit,
    build_coupling,
    star_area,
    verify_coupling_estimates,
)
from isocone.envelope import SlopeBody
from isocone.expectations import EXPECTATIONS
from isocone.experiments import (
    default_corpus,
    eta_fourier_cos,
    sharpness_sweep,
    stability_sweep,
    translation_diagnostics,
)
from isocone.geometry import StarSet, asymmetry, deficit
from isocone.pde import AnisotropicMode, WeightedMode, fan_triangulate, solve_neumann, \
    triangulate_polygon, weighted_h1_error

QUADRANT = Cone.quadrant()
HALF = Cone.half_plane()
W_XY = HomWeight.monomial(QUADRANT, 1, 1)
W_X = HomWeight.monomial(QUADRANT, 1, 0)
W_Y = HomWeight.monomial(HALF, 0, 1)
CONFIGS = [(QUADRANT, W_XY), (QUADRANT, W_X), (HALF, W_Y)]
Q_BOX = ((0.2, 0.6), (0.2, 0.6))


def report(line):
    print(f"\nACCEPTANCE {line}")


def random_star(cone, rng, n_theta):
    coefs = rng.uniform(-1.0, 1.0, (2, 8))
    coefs *= rng.uniform(0.05, 0.45) / max(np.abs(coefs).sum(), 1.0)

    def r_fn(th):
        t = np.asarray(th) - cone.angle_lo
        out = np.ones_like(t)
        for m in range(8):
            out = out + coefs[0, m] * np.cos((m + 1) * t) \
                + coefs[1, m] * np.sin((m + 1) * t)
        return out

    return StarSet.from_radial(cone, n_theta, r_fn)


def test_criterion_01_isoperimetric_nonnegativity():
    n_theta = 4096
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = math.inf
    for cone, weight in CONFIGS:
        for _ in range(200):
            star = random_star(cone, rng, n_theta)
            worst = min(worst, deficit(star, weight).deficit)
    elapsed = time.perf_counter() - t0
    assert worst >= -5.0 / n_theta
    assert elapsed < 60.0
    report(f"1 PASS isoperimetric nonnegativity: min deficit {worst:.3e} "
           f"over 600 sets in {elapsed:.1f}s")


def test_criterion_02_minimizer_exactness():
    for r in (0.5, 1.0, 2.0):
        star = StarSet.ball(QUADRANT, 4096, r=r)
        rep = deficit(star, W_XY)
        assert abs(rep.deficit) <= 1e-9
        a, _ = asymmetry(star, W_XY, rep)
        assert a <= 1e-6
    star = StarSet.ball(HALF, 4096, r=1.0, center=(0.3, 0.0))
    a, x0 = asymmetry(star, W_Y, deficit(star, W_Y))
    assert a <= 2e-3
    assert abs(x0[0] - 0.3) <= 5e-3 and x0[1] == 0.0
    report(f"2 PASS minimizer exactness: translated-ball A_w {a:.2e}, "
           f"x0 offset {abs(x0[0] - 0.3):.2e}")


def test_criterion_03_sharpness_exponent():
    t0 = time.perf_counter()
    eps_list = [0.02, 0.04, 0.08, 0.16]
    slopes = []
    for cone, weight, mode in ((QUADRANT, W_XY, 4), (HALF, W_Y, 2)):
        res, slope = sharpness_sweep(weight, eta_fourier_cos(cone, mode),
                                     eps_list)
        assert 0.45 <= slope <= 0.55
        ratios = res.column("delta_w") / res.column("param") ** 2
        assert max(ratios) / min(ratios) - 1.0 <= 0.2
        slopes.append(slope)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(f"3 PASS sharpness exponent: slopes {slopes[0]:.3f}, {slopes[1]:.3f} "
           f"in {elapsed:.1f}s")


def test_criterion_04_stability_bound():
    base = stability_sweep(default_corpus(W_XY, 4096), W_XY)
    fine = stability_sweep(default_corpus(W_XY, 8192), W_XY)
    c_base = base.manifest["max_ratio"]
    c_fine = fine.manifest["max_ratio"]
    pinned = EXPECTATIONS["stability_Cmax_quadrant_xy"]
    assert np.isfinite(c_base) and base.manifest["probe_ok"]
    assert abs(c_fine / c_base - 1.0) < 0.25
    assert abs(c_base - pinned) / pinned <= 0.25
    report(f"4 PASS stability bound: empirical C {c_base:.4f} "
           f"(pinned {pinned}), doubling drift {abs(c_fine / c_base - 1.0):.2%}")


def test_criterion_05_coupling_pipeline():
    t0 = time.perf_counter()
    # recovered potential matches |x|^2/2 at first order, gaining >= 1.8x per halving
    star = StarSet.ball(QUADRANT, 4096)
    errs = []
    for h in (0.08, 0.04, 0.02):
        mesh = fan_triangulate(star, h)
        field = solve_neumann(mesh, WeightedMode(W_XY))
        errs.append(weighted_h1_error(field, lambda p: p, W_XY))
    assert errs[-1] <= 0.2 * 0.02
    assert errs[0] / errs[1] >= 1.8 and errs[1] / errs[2] >= 1.8

    sup_c = EXPECTATIONS["coupling_sup_violation_C"]
    family = [(StarSet.ball(QUADRANT, 4096), W_XY),
              (StarSet.ball(QUADRANT, 4096), W_X),
              (StarSet.ball(HALF, 4096), W_Y)]
    for eps in (0.05, 0.1, 0.2):
        family.append((StarSet.perturbed_ball(W_XY, 4096, eps,
                                              eta_fourier_cos(QUADRANT, 4)), W_XY))
    ratios_seen = []
    for star, weight in family:
        rep = build_coupling(star, WeightedMode(weight))
        tol = sup_c * (rep.resolutions.mesh_h + rep.slope_spacing)
        assert rep.sup_violation <= tol
        assert rep.grad_range_hausdorff <= 2.0 * rep.slope_spacing
        if rep.delta > 1e-10:
            ratios = verify_coupling_estimates(rep, Q_BOX)
            bounds = EXPECTATIONS["ratio_bounds"]
            assert ratios["hessian_ratio"] <= bounds["hessian"]
            assert ratios["boundary_ratio"] <= bounds["boundary"]
            assert ratios["weight_ratio"] <= bounds["weight"]
            ratios_seen.append(ratios["hessian_ratio"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(f"5 PASS coupling pipeline: H1 orders {errs[0]/errs[1]:.2f}/"
           f"{errs[1]/errs[2]:.2f}, hessian ratios "
           f"{min(ratios_seen):.3f}..{max(ratios_seen):.3f} in {elapsed:.0f}s")


def test_criterion_06_abp_chain():
    ball = StarSet.ball(QUADRANT, 4096)
    rep = build_coupling(ball, WeightedMode(W_XY), Resolutions(mesh_h=0.01))
    chain = abp_chain_check(rep)
    worst_gap = max(abs(v - chain.terminal) / chain.terminal for v in chain.values())
    assert worst_gap <= 1e-2
    assert chain.ordered
    for eps in (0.05, 0.1, 0.2):
        star = StarSet.perturbed_ball(W_XY, 4096, eps,
                                      eta_fourier_cos(QUADRANT, 4))
        rep = build_coupling(star, WeightedMode(W_XY))
        assert abp_chain_check(rep).ordered
    report(f"6 PASS ABP chain: ball equality gap {worst_gap:.2%}, "
           f"family links ordered")


def test_criterion_07_quantitative_amgm():
    t0 = time.perf_counter()
    worst = quantitative_amgm_batch(100_000, seed=7)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    report(f"7 PASS quantitative AM-GM: worst relative slack {worst:.2e} "
           f"over 1e5 samples in {elapsed:.1f}s")


def test_criterion_08_one_dim_stability():
    # worked ratio first
    lhs, den, ratio = one_dim_stability_check(IntervalSet(((0.0, 0.8),)), 1.0, 2.0)
    assert ratio == pytest.approx(61.0 / 48.0, abs=1e-6)

    grid = np.round(np.arange(0.0, 3.0001, 0.05), 10)
    pairs2 = np.array(list(combinations(grid, 2)))
    pairs4 = np.array(list(combinations(grid, 4)))
    coarse = np.round(np.arange(0.0, 3.0001, 0.15), 10)
    pairs6 = np.array(list(combinations(coarse, 6)))
    worst_by_gamma = {}
    for gamma in (0.0, 1.0, 2.0):
        worst = 0.0
        for l in (0.8, 1.0, 1.2):
            for family in (pairs2, pairs4, pairs6):
                lhs_v, den_v = one_dim_stability_batch(family, l, gamma)
                mask = lhs_v > 1e-14
                assert np.all(den_v[mask] > 0)
                worst = max(worst, float(np.max(lhs_v[mask] / den_v[mask])))
        worst_by_gamma[gamma] = worst
        pinned = EXPECTATIONS["one_dim_Cgamma"][str(int(gamma))]
        assert worst == pytest.approx(pinned, rel=1e-3)
    report(f"8 PASS 1-D stability: worked ratio {ratio:.6f}, empirical "
           f"C_gamma {worst_by_gamma}")


def test_criterion_09_fmp_toolkit():
    for D in (2.5, 3.0, 4.0, 7.2):
        fc = psi_k(D)
        t = np.linspace(0.0, 0.5, 1000)
        assert np.min(fc.psi(t) - 3.0 * fc.k * t ** ((D - 1.0) / D)) >= -1e-12

    E = IntervalSet(((1.0, 2.0),))
    tau = cheeger_bruteforce(E, 2.0).tau
    tau_exact = (4.5 ** (2.0 / 3.0) + 4.0) / 4.0
    assert abs(tau - tau_exact) <= 1e-3

    rep = trace_poincare_check_1d(E, [((1.0, 1.5), 0.0), ((1.5, 2.0), 1.0)],
                                  alpha=2.0, tau=tau)
    assert rep.lhs == pytest.approx(2.25, abs=1e-3)
    assert rep.trace_rhs == pytest.approx(0.6815, abs=1e-3)
    assert rep.poincare_rhs == pytest.approx(1.0405, abs=1e-3)
    assert rep.lhs >= max(rep.trace_rhs, rep.poincare_rhs)

    applicable = 0
    c = math.pi / 4.0
    for amp, s, hw in ((1.5, 0.012, 0.036), (1.5, 0.010, 0.030), (1.2, 0.015, 0.045)):
        star = StarSet.from_radial(
            QUADRANT, 8192, lambda th: 1.0 + amp * np.exp(-(((th - c) / s) ** 2)))
        out = removal_lemma_check(star, W_XY, c - hw, c + hw)
        if out.applicable:
            applicable += 1
            assert out.volume_ok and out.perimeter_ok
            assert out.deficit_ok in (None, True)
    assert applicable >= 2
    ball_rep = removal_lemma_check(StarSet.ball(QUADRANT, 8192), W_XY,
                                   c - 0.025, c + 0.025)
    assert not ball_rep.applicable
    report(f"9 PASS FMP toolkit: tau {tau:.5f} (analytic {tau_exact:.5f}), "
           f"{applicable} applicable removal subsets")


def test_criterion_10_wulff_equality():
    def square_r(th):
        return 1.0 / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))

    verts = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    star = StarSet.from_radial(Cone.plane(), 4096, square_r)
    body = SlopeBody.polygon(verts, n_samples=20_000)
    per = 2.0 * math.sqrt(body.area()) * math.sqrt(star_area(star))
    assert per == pytest.approx(8.0, abs=1e-9)
    delta = anisotropic_deficit(star, body)
    assert abs(delta) <= 1e-9

    mesh = triangulate_polygon(verts, 0.025)
    rep = build_coupling(star, AnisotropicMode(body), Resolutions(eval_h=0.012),
                         mesh=mesh)
    assert rep.grad_range_hausdorff <= 2.0 * rep.slope_spacing
    report(f"10 PASS Wulff equality: deficit {delta:.2e}, gradient range gap "
           f"{rep.grad_range_hausdorff:.4f} <= {2 * rep.slope_spacing:.4f}")


def test_criterion_11_translation_diagnostics():
    h_oracle = 5e-4

    def oracle_volume(weight, center):
        xs = np.arange(h_oracle / 2, center[0] + 1.0, h_oracle)
        total = 0.0
        for x in xs:
            ys = np.arange(h_oracle / 2, center[1] + 1.0, h_oracle)
            inside = (x - center[0]) ** 2 + (ys - center[1]) ** 2 < 1.0
            total += float(np.sum(weight(np.column_stack(
                [np.full(np.count_nonzero(inside), x), ys[inside]])))) * h_oracle ** 2
        return total

    table = translation_diagnostics(W_X, [0.05, 0.1])
    box = table.manifest["box"]
    for name, t, growth, sep in table.rows:
        if t == 0:
            continue
        if name.startswith("C"):
            assert sep == 0.0  # w = x is constant along (0, 1): exact zero
            oracle = oracle_volume(W_X, (0.0, t)) - oracle_volume(W_X, (0.0, 0.0))
            assert growth == pytest.approx(oracle, abs=1e-3)
            assert growth >= 0.0
        else:
            # separation column against a midpoint oracle at half the step
            d = np.array([1.0, 0.0])
            oracle = shifted_weight_separation(W_X, box, t * d, h=1e-3)
            assert sep == pytest.approx(oracle, abs=1e-3)
    report("11 PASS translation diagnostics: growth/separation match oracles, "
           "constancy zeros exact")
