"""The coupling pipeline and its quantitative control estimates."""

import numpy as np
import pytest

from isocone.cone_weight import Cone, HomWeight
from isocone.coupling import (
    MinimizerDegenerateError,
    Resolutions,
    abp_chain_check,
    anisotropic_deficit,
    anisotropic_perimeter,
    build_coupling,
    star_area,
    verify_coupling_estimates,
    weight_shift_term,
)
from isocone.envelope import SlopeBody
from isocone.expectations import EXPECTATIONS
from isocone.geometry import StarSet
from isocone.pde import AnisotropicMode, WeightedMode, triangulate_polygon

SUP_C = EXPECTATIONS["coupling_sup_violation_C"]  # the pointwise-bound constant
QUADRANT = Cone.quadrant()
W_XY = HomWeight.monomial(QUADRANT, 1, 1)
Q_BOX = ((0.2, 0.6), (0.2, 0.6))
SQUARE_VERTS = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]


def eta4(thetas):
    return np.cos(4.0 * np.asarray(thetas))


@pytest.fixture(scope="module")
def ball_report():
    star = StarSet.ball(QUADRANT, 4096)
    return build_coupling(star, WeightedMode(W_XY))


@pytest.fixture(scope="module")
def eps_reports():
    out = {}
    for eps in (0.05, 0.1, 0.2):
        star = StarSet.perturbed_ball(QUADRANT, W_XY, 4096, eps, eta4)
        out[eps] = build_coupling(star, WeightedMode(W_XY))
    return out


class TestBallCoupling:
    def test_exact_minimizer_quantities(self, ball_report):
        rep = ball_report
        assert abs(rep.delta) <= 1e-9
        assert rep.hessian_l1 <= 1e-2
        assert rep.convexity_violation <= 1e-12

    def test_pointwise_bound_within_calibration(self, ball_report):
        rep = ball_report
        tol = SUP_C * (rep.resolutions.mesh_h + rep.slope_spacing)
        assert rep.sup_violation <= tol

    def test_gradient_range_covers_body(self, ball_report):
        rep = ball_report
        assert rep.grad_range_hausdorff <= 2.0 * rep.slope_spacing

    def test_hessian_lipschitz_surrogate(self, ball_report):
        rep = ball_report
        assert rep.lip_grad <= 2.0 * rep.b_E

    def test_minimizer_degenerate_signal(self, ball_report):
        with pytest.raises(MinimizerDegenerateError):
            verify_coupling_estimates(ball_report, Q_BOX)


class TestEpsFamily:
    def test_all_measured_quantities_finite_nonnegative(self, eps_reports):
        for rep in eps_reports.values():
            assert rep.delta > 1e-10
            assert rep.hessian_l1 >= 0 and rep.boundary_term >= -1e-12
            assert np.isfinite(rep.sup_violation)

    def test_pointwise_bound_family(self, eps_reports):
        for rep in eps_reports.values():
            tol = SUP_C * (rep.resolutions.mesh_h + rep.slope_spacing)
            assert rep.sup_violation <= tol

    def test_gradient_range_family(self, eps_reports):
        for rep in eps_reports.values():
            assert rep.grad_range_hausdorff <= 2.0 * rep.slope_spacing

    def test_ratio_table_bounded(self, eps_reports):
        bounds = EXPECTATIONS["ratio_bounds"]
        for rep in eps_reports.values():
            ratios = verify_coupling_estimates(rep, Q_BOX)
            assert ratios["hessian_ratio"] <= bounds["hessian"]
            assert ratios["boundary_ratio"] <= bounds["boundary"]
            assert ratios["weight_ratio"] <= bounds["weight"]

    def test_hessian_ratio_stable_across_family(self, eps_reports):
        vals = [verify_coupling_estimates(rep, Q_BOX)["hessian_ratio"]
                for rep in eps_reports.values()]
        assert max(vals) / min(vals) <= 3.0

    def test_resolution_doubling_drift(self):
        star = StarSet.perturbed_ball(QUADRANT, W_XY, 4096, 0.1, eta4)
        base = build_coupling(star, WeightedMode(W_XY))
        fine = build_coupling(star, WeightedMode(W_XY),
                              Resolutions(mesh_h=0.01, eval_h=0.004))
        r0 = verify_coupling_estimates(base, Q_BOX)["hessian_ratio"]
        r1 = verify_coupling_estimates(fine, Q_BOX)["hessian_ratio"]
        assert abs(r1 - r0) / r0 < 0.35

    def test_q_box_must_be_interior(self, eps_reports):
        rep = eps_reports[0.1]
        with pytest.raises(ValueError):
            weight_shift_term(rep, ((0.0, 0.5), (0.0, 0.5)))


class TestAbpChain:
    def test_equality_on_exact_ball(self):
        star = StarSet.ball(QUADRANT, 4096)
        rep = build_coupling(star, WeightedMode(W_XY), Resolutions(mesh_h=0.01))
        chain = abp_chain_check(rep)
        for value in chain.values():
            assert abs(value - chain.terminal) / chain.terminal <= 1e-2
        assert chain.ordered

    def test_strict_ordering_on_perturbed_sets(self, eps_reports):
        for rep in eps_reports.values():
            chain = abp_chain_check(rep)
            assert chain.ordered
            assert chain.amgm_field_violation <= 1e-9

    def test_amgm_gap_tracks_hessian_defect(self, eps_reports):
        rep = eps_reports[0.1]
        chain = abp_chain_check(rep)
        gap = chain.amgm_integral - chain.jacobian_integral
        assert gap >= -chain.tol_chain
        # the equality case is the identity map; the gap scales like the
        # squared L1 Hessian defect up to the family constant
        assert gap <= 50.0 * max(rep.hessian_l1 ** 2, 1e-4)

    def test_halved_resolution_still_ordered(self):
        star = StarSet.perturbed_ball(QUADRANT, W_XY, 4096, 0.2, eta4)
        res = Resolutions(mesh_h=0.04, n_slope=(256, 96), eval_h=0.012)
        rep = build_coupling(star, WeightedMode(W_XY), res)
        chain = abp_chain_check(rep)
        assert chain.ordered

    def test_chain_rejects_anisotropic(self):
        star = StarSet.ball(Cone.plane(), 1024)
        body = SlopeBody.disk(1.0, 64, 64)
        rep = build_coupling(star, AnisotropicMode(body),
                             Resolutions(mesh_h=0.05, eval_h=0.02))
        with pytest.raises(ValueError):
            abp_chain_check(rep)


class TestAnisotropic:
    def test_unit_disk_coupling(self):
        star = StarSet.ball(Cone.plane(), 4096)
        body = SlopeBody.disk(1.0, 512, 192)
        rep = build_coupling(star, AnisotropicMode(body), Resolutions(eval_h=0.008))
        assert rep.b_E == pytest.approx(2.0, abs=5e-3)
        assert rep.sup_violation <= SUP_C * (rep.resolutions.mesh_h + rep.slope_spacing)
        assert rep.grad_range_hausdorff <= 2.0 * rep.slope_spacing

    def test_mode_dispatch_replaces_ratio_table(self):
        star = StarSet.ball(Cone.plane(), 1024)
        body = SlopeBody.disk(1.0, 64, 64)
        rep = build_coupling(star, AnisotropicMode(body),
                             Resolutions(mesh_h=0.05, eval_h=0.02))
        table = verify_coupling_estimates(rep)
        assert set(table) == {"hessian_l1", "b_E"}

    def test_wulff_square_exact_equality(self):
        def square_r(th):
            return 1.0 / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))

        star = StarSet.from_radial(Cone.plane(), 4096, square_r)
        body = SlopeBody.polygon(SQUARE_VERTS, n_samples=20_000)
        assert anisotropic_perimeter(star, body) == pytest.approx(8.0, abs=1e-9)
        assert star_area(star) == pytest.approx(4.0, abs=1e-12)
        assert abs(anisotropic_deficit(star, body)) <= 1e-9

    def test_zero_area_body_rejected(self):
        star = StarSet.ball(Cone.plane(), 256)
        for verts in ([(-1.0, 0.0), (1.0, 0.0)], [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]):
            with pytest.raises(ValueError, match="positive area"):
                anisotropic_deficit(star, SlopeBody.polygon(verts))

    def test_wulff_square_coupling(self):
        def square_r(th):
            return 1.0 / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))

        star = StarSet.from_radial(Cone.plane(), 4096, square_r)
        body = SlopeBody.polygon(SQUARE_VERTS, n_samples=20_000)
        mesh = triangulate_polygon(SQUARE_VERTS, 0.025)
        rep = build_coupling(star, AnisotropicMode(body),
                             Resolutions(eval_h=0.012), mesh=mesh)
        assert rep.b_E == pytest.approx(2.0, abs=1e-10)
        assert rep.grad_range_hausdorff <= 2.0 * rep.slope_spacing
        assert rep.sup_violation <= SUP_C * (0.025 + rep.slope_spacing)
