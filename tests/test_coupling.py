"""The coupling pipeline and its quantitative control estimates."""

import numpy as np
import pytest

from isocone import envelope
from isocone.analysis import amgm_sides
from isocone.cone_weight import Cone, HomWeight
from isocone.coupling import (
    ChainRecord,
    MinimizerDegenerateError,
    Resolutions,
    _positive_part_eigen,
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
from isocone.pde import AnisotropicMode, TriMesh, WeightedMode, triangulate_polygon

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
        star = StarSet.perturbed_ball(W_XY, 4096, eps, eta4)
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
        star = StarSet.perturbed_ball(W_XY, 4096, 0.1, eta4)
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
        star = StarSet.perturbed_ball(W_XY, 4096, 0.2, eta4)
        res = Resolutions(mesh_h=0.04, n_slope=(256, 96), eval_h=0.012)
        rep = build_coupling(star, WeightedMode(W_XY), res)
        chain = abp_chain_check(rep)
        assert chain.ordered

    def test_chain_rejects_anisotropic(self):
        star = StarSet.ball(Cone.plane(), 1024)
        body = SlopeBody.sector_disk(Cone.plane(), 1.0, 64, 64)
        rep = build_coupling(star, AnisotropicMode(body),
                             Resolutions(mesh_h=0.05, eval_h=0.02))
        with pytest.raises(ValueError):
            abp_chain_check(rep)


class TestAnisotropic:
    def test_unit_disk_coupling(self):
        star = StarSet.ball(Cone.plane(), 4096)
        body = SlopeBody.sector_disk(Cone.plane(), 1.0, 512, 192)
        rep = build_coupling(star, AnisotropicMode(body), Resolutions(eval_h=0.008))
        assert rep.b_E == pytest.approx(2.0, abs=5e-3)
        assert rep.sup_violation <= SUP_C * (rep.resolutions.mesh_h + rep.slope_spacing)
        assert rep.grad_range_hausdorff <= 2.0 * rep.slope_spacing

    def test_mode_dispatch_replaces_ratio_table(self):
        star = StarSet.ball(Cone.plane(), 1024)
        body = SlopeBody.sector_disk(Cone.plane(), 1.0, 64, 64)
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

    def test_wedge_sets_rejected(self):
        star = StarSet.ball(QUADRANT, 256)
        with pytest.raises(ValueError, match="full-plane"):
            star_area(star)
        with pytest.raises(ValueError, match="full-plane"):
            anisotropic_perimeter(star, SlopeBody.polygon(SQUARE_VERTS))

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


# -- the midpoint quantities are computed once per op ------------------------

SHARING_RES = Resolutions(mesh_h=0.05, n_slope=(128, 48), eval_h=0.02)
SHARING_CASES = {
    "quadrant-xy": (W_XY, Q_BOX),
    "quadrant-x": (HomWeight.monomial(QUADRANT, 1, 0), Q_BOX),
    "half-plane-y": (HomWeight.monomial(Cone.half_plane(), 0, 1), ((-0.2, 0.2), (0.2, 0.6))),
}


def _per_call_quantities(rep, Q):
    """hessian_l1, the weight-shift term and the chain's integrands as each
    call computed them before the coupling kept its midpoint quantities:
    every call interpolates at its own midpoints and evaluates w there."""
    weight, res, field = rep.weight, rep.resolutions, rep.field
    mesh = rep.u.mesh
    mids = mesh.edge_midpoints().reshape(-1, 2)
    areas3 = np.repeat(mesh.areas() / 3.0, 3)

    dev = field.interp_hessian(rep.hessians, mids) - np.eye(2)[None, :, :]
    frob = np.sqrt(np.einsum("ijk,ijk->i", dev, dev))
    hessian_l1 = float(np.sum(areas3 * weight(mids) * frob))

    (x0, x1), (y0, y1) = Q
    inside = ((mids[:, 0] >= x0) & (mids[:, 0] <= x1)
              & (mids[:, 1] >= y0) & (mids[:, 1] <= y1))
    xi_q = field.interp_xi(mids[inside])
    shift = float(np.sum(areas3[inside]
                         * np.abs(weight.root(xi_q) - weight.root(mids[inside]))))

    band_ok = weight.cone.boundary_distance(mids) > res.eval_h
    mids_b = mids[band_ok]
    lam1, lam2 = _positive_part_eigen(field.interp_hessian(rep.hessians, mids_b))
    w_m = np.clip(weight(mids_b), 1e-300, None)
    w_xi = np.clip(weight(field.interp_xi(mids_b)), 0.0, None)
    t_term = (w_xi / w_m) ** (1.0 / weight.alpha)
    return hessian_l1, shift, (areas3[band_ok], lam1, lam2, w_m, w_xi, t_term)


def _per_call_chain(rep, integrands):
    """The ChainRecord of the chain check's per-call formulas."""
    areas_b, lam1, lam2, w_m, w_xi, t_term = integrands
    alpha, D = rep.weight.alpha, rep.weight.D
    jacobian = float(np.sum(areas_b * lam1 * lam2 * w_xi))
    amgm_integrand = ((lam1 + lam2 + alpha * t_term) / D) ** D * w_m
    amgm = float(np.sum(areas_b * amgm_integrand))
    terminal = (1.0 + max(rep.delta, 0.0)) ** D * rep.reference_volume
    lam_vec = np.array([1.0, 1.0, alpha])
    c = rep.b_E / D
    x_stack = np.stack([lam1, lam2, t_term], axis=1)
    pre_ok = (x_stack @ lam_vec) <= c * float(lam_vec.sum()) * (1.0 + 1e-12)
    lhs, rhs = amgm_sides(lam_vec, x_stack[pre_ok], c)
    res = rep.resolutions
    tol = EXPECTATIONS["coupling_chain_C"] * (res.mesh_h + rep.slope_spacing) * terminal
    violations = (max(0.0, rep.reference_volume - jacobian), max(0.0, jacobian - amgm),
                  max(0.0, amgm - terminal))
    return ChainRecord(rep.reference_volume, jacobian, amgm, terminal, tol, violations,
                       float(np.max(lhs - rhs)) if len(lhs) else 0.0, int(np.sum(~pre_ok)),
                       len(pre_ok))


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` into a list that fills as the test runs."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestMidpointSharing:
    @pytest.fixture(scope="class", params=sorted(SHARING_CASES))
    def case(self, request):
        weight, Q = SHARING_CASES[request.param]
        star = StarSet.perturbed_ball(weight, 2048, 0.1, eta4)
        return build_coupling(star, WeightedMode(weight), SHARING_RES), Q

    def test_same_bits_as_per_call_formulas(self, case):
        rep, Q = case
        hessian_l1, shift, integrands = _per_call_quantities(rep, Q)
        assert rep.hessian_l1 == hessian_l1
        assert weight_shift_term(rep, Q) == shift
        # every ChainRecord field, the AM-GM audit among them
        assert abp_chain_check(rep) == _per_call_chain(rep, integrands)

    def test_midpoint_rule_is_read_only(self, case):
        rep, _Q = case
        mids, weights = rep.u.mesh.midpoint_rule()
        for array in (mids, weights, rep.u.mesh.areas()):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_weighted_op_interpolates_twice_and_builds_one_rule(self, monkeypatch):
        bilinear = _count_calls(monkeypatch, envelope, "_bilinear")
        midpoints = _count_calls(monkeypatch, TriMesh, "edge_midpoints")
        star = StarSet.perturbed_ball(W_XY, 2048, 0.1, eta4)
        rep = build_coupling(star, WeightedMode(W_XY), SHARING_RES)
        verify_coupling_estimates(rep, Q_BOX)
        abp_chain_check(rep)
        assert len(bilinear) == 2  # H and xi, each at every midpoint
        assert len(midpoints) == 1

    def test_anisotropic_op_interpolates_the_hessian_only(self, monkeypatch):
        bilinear = _count_calls(monkeypatch, envelope, "_bilinear")
        star = StarSet.ball(Cone.plane(), 1024)
        body = SlopeBody.sector_disk(Cone.plane(), 1.0, 64, 64)
        rep = build_coupling(star, AnisotropicMode(body), Resolutions(mesh_h=0.05, eval_h=0.02))
        verify_coupling_estimates(rep)
        assert len(bilinear) == 1
        assert rep.mid_eigen is None and rep.mid_w is None and rep.mid_w_xi is None
