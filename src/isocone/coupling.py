"""Convex coupling between a set and the minimizing ball sector, with checks.

The pipeline solves the Neumann problem on the set, takes the restricted
convex envelope of the solution with slopes in K (the closed unit ball
sector in weighted mode, a given convex body in anisotropic mode), and
measures every quantity the coupling is supposed to control:

  * the pointwise bound  tr(D2 phi) + alpha (w(grad phi)/w)^(1/alpha) <= b_E
    (anisotropic: tr(D2 phi) <= b_E), reported as a sup of violations;
  * the L1 Hessian defect  integral |D2 phi - id| w;
  * the boundary defect    integral (1 - |grad phi|) w over the free boundary;
  * the weight-shift term  integral over E cap Q of |w(grad phi)^(1/a) - w^(1/a)|;
  * the chain  w(K) <= int det+ (D2 phi) w(grad phi)
               <= int ((tr+ + alpha (w(grad phi)/w)^(1/a)) / D)^D w
               <= (1 + deficit)^D w(B1 cap cone).

Evaluation nodes within one eval step of the cone's boundary rays (the
band) are excluded from sup and chain quantities (the weight may vanish
there).  The integrals use the mesh's edge-midpoint rule.  In weighted mode
the midpoint quantities they share (the positive parts of the Hessian's
eigenvalues, w and w(grad phi)) are computed once, at every midpoint, by
``build_coupling``; the chain and the weight-shift term select their
midpoints from them, which gives the same bits as evaluating at those
midpoints alone, since every step acts point by point.  The envelope
Hessian is the masked 5 x 5 least-squares fit of the maximizing-slope
field (EnvelopeField.hessian_field).  The mode, a
``pde.WeightedMode`` or ``pde.AnisotropicMode``, goes to the solve as is.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .analysis import amgm_sides
from .cone_weight import HomWeight
from .envelope import EnvelopeField, SlopeBody, k_envelope, restricted_conjugate
from .expectations import EXPECTATIONS
from .geometry import StarSet, deficit, deficit_value
from .pde import (
    AnisotropicMode,
    NodalField,
    TriMesh,
    WeightedMode,
    fan_triangulate,
    solve_neumann,
)


class MinimizerDegenerateError(ValueError):
    """Deficit too small: coupling ratios are undefined on exact minimizers."""


@dataclasses.dataclass
class Resolutions:
    """Discretization knobs: mesh size, slope grid (radial, angular), eval grid.

    The radial slope count controls how closely the gradient image reaches
    the outer arc, and the angular count sets the reported slope spacing.
    The conjugate scores every slope sample, so it pays for both counts; the
    structured argmax is logarithmic in the radial one.  The eval step is
    also the width of the band along the cone's rays.
    """

    mesh_h: float = 0.02
    n_slope: tuple = (512, 192)
    eval_h: float = 0.006

    def __post_init__(self):
        if not (self.mesh_h > 0 and self.eval_h > 0):
            raise ValueError("mesh_h and eval_h must be positive")
        if len(self.n_slope) != 2 or min(self.n_slope) < 2:
            raise ValueError("n_slope needs two counts, each at least 2")


@dataclasses.dataclass
class CouplingReport:
    mode: str
    weight: HomWeight | None
    u: NodalField
    field: EnvelopeField
    hessians: np.ndarray
    delta: float
    b_E: float
    sup_violation: float
    hessian_l1: float
    boundary_term: float
    grad_range_hausdorff: float
    lip_grad: float
    convexity_violation: float
    slope_spacing: float
    resolutions: Resolutions
    reference_volume: float
    interior: np.ndarray  # eval nodes in E and outside the band, flat
    # weighted mode, at the nodes of u.mesh.midpoint_rule(): the positive
    # parts (2, 3T) of the envelope Hessian's eigenvalues, w and w(grad phi)
    mid_eigen: np.ndarray | None
    mid_w: np.ndarray | None
    mid_w_xi: np.ndarray | None


def anisotropic_perimeter(star: StarSet, body: SlopeBody) -> float:
    """Per_K(E) of a full-plane star set from its boundary polyline.

    Each polyline edge contributes the support function of its unnormalized
    outward normal, so polygonal sets whose corners sit on the angular grid
    (the Wulff shape among them) are measured exactly.
    """
    if not star.periodic:
        raise ValueError("anisotropic perimeter expects a full-plane star set")
    pts = star.boundary_points()
    nxt = np.roll(pts, -1, axis=0)
    edges = nxt - pts
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])  # outward for ccw
    return float(np.sum(body.support(normals)))


def star_area(star: StarSet) -> float:
    """Area of the boundary polyline of a full-plane star set (shoelace over
    the origin fan)."""
    if not star.periodic:
        raise ValueError("star area expects a full-plane star set")
    pts = star.boundary_points()
    nxt = np.roll(pts, -1, axis=0)
    return 0.5 * float(np.sum(pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0]))


def anisotropic_deficit(star: StarSet, body: SlopeBody) -> float:
    """Per_K(E) / (n |K|^(1/n) |E|^((n-1)/n)) - 1 in the plane (n = 2)."""
    if not body.area() > 0:
        raise ValueError("the anisotropic deficit needs a body of positive area")
    return deficit_value(anisotropic_perimeter(star, body), star_area(star), body.area(), 2.0)


def _positive_part_eigen(H):
    """Eigenvalues of symmetric 2x2 fields clamped at zero: (l1+, l2+)."""
    a = H[..., 0, 0]
    b = H[..., 0, 1]
    c = H[..., 1, 1]
    mean = 0.5 * (a + c)
    rad = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b ** 2, 0.0))
    return np.maximum(mean + rad, 0.0), np.maximum(mean - rad, 0.0)


def _weight_ratio(alpha: float, w_x, w_xi):
    """(w(x) floored at 1e-300, w(xi) clipped at 0, (w(xi) / w(x))^(1/alpha))
    from the values w(x) and w(xi)."""
    w_x = np.clip(w_x, 1e-300, None)
    w_xi = np.clip(w_xi, 0.0, None)
    return w_x, w_xi, (w_xi / w_x) ** (1.0 / alpha)


def build_coupling(star: StarSet, mode: WeightedMode | AnisotropicMode,
                   res: Resolutions | None = None, mesh: TriMesh | None = None) -> CouplingReport:
    """Run the full coupling pipeline on the set ``star`` and measure its
    control quantities.

    The set gives the deficit and the eval nodes inside E.  ``mesh``
    defaults to the fan mesh of the set at ``res.mesh_h``; a prebuilt mesh
    of the same set (a polygon lattice, say) may be passed instead.
    """
    if res is None:
        res = Resolutions()
    weighted = isinstance(mode, WeightedMode)

    if mesh is None:
        mesh = fan_triangulate(star, res.mesh_h)
    if weighted:
        weight = mode.weight
        body = SlopeBody.sector_disk(weight.cone, 1.0, *res.n_slope)
        rep = deficit(star, weight)
        delta = rep.deficit
        ref_volume = rep.unit_volume
    else:
        weight = None
        body = mode.body
        delta = anisotropic_deficit(star, body)
        ref_volume = body.area()

    u = solve_neumann(mesh, mode)

    conj = restricted_conjugate(mesh.vertices, u.values, body)
    vmin = mesh.vertices.min(axis=0)
    vmax = mesh.vertices.max(axis=0)
    margin = 3.0 * res.eval_h
    box = ((vmin[0] - margin, vmax[0] + margin), (vmin[1] - margin, vmax[1] + margin))
    # the boundary term's slopes at the free-edge Gauss nodes, in the grid's argmax pass
    gauss, half_len, _t = mesh.free_edge_gauss() if weighted else (None,) * 3
    field = k_envelope(conj, box, res.eval_h, gauss)

    nodes = field.grid_points()
    in_E = star.contains(nodes)
    if weighted:
        band_dist = weight.cone.boundary_distance(nodes)
        in_E &= band_dist > 1e-12  # the set lives in the open cone
    else:
        band_dist = np.full(len(nodes), np.inf)
    interior = in_E & (band_dist > res.eval_h)

    hess = field.hessian_field(in_E.reshape(field.phi.shape))

    lam1, lam2 = _positive_part_eigen(hess.reshape(-1, 2, 2))
    tr_plus = lam1 + lam2
    xi_nodes = field.xi.reshape(-1, 2)
    if weighted:
        _w_nodes, _w_xi, t_term = _weight_ratio(weight.alpha, weight(nodes), weight(xi_nodes))
        violation = tr_plus + weight.alpha * t_term - u.b_E
    else:
        violation = tr_plus - u.b_E
    sup_violation = float(violation[interior].max()) if interior.any() else -math.inf

    # L1 Hessian defect over E by mesh quadrature; envelope data interpolated
    mids, areas3 = mesh.midpoint_rule()
    H_mid = field.interp_hessian(hess, mids)
    dev = H_mid - np.eye(2)[None, :, :]
    frob = np.sqrt(np.einsum("ijk,ijk->i", dev, dev))
    mid_eigen = mid_w = mid_w_xi = None
    if weighted:  # what the chain and the weight-shift term read
        mid_eigen = np.stack(_positive_part_eigen(H_mid))
        del H_mid, dev  # (3T, 2, 2) each, freed before the slopes' (3T, 2)
        mid_w = weight(mids)
        mid_w_xi = weight(field.interp_xi(mids))
    hessian_l1 = float(np.sum(areas3 * (mid_w if weighted else 1.0) * frob))

    boundary_term = 0.0
    if weighted:
        _phi_g, xi_g, _idx_g = field.at_probes
        boundary_term = float(np.sum(
            half_len * weight(gauss) * (1.0 - np.linalg.norm(xi_g, axis=1))))

    grad_range_hausdorff, _n_slopes = field.range_hausdorff(in_E)

    return CouplingReport(
        mode="weighted" if weighted else "anisotropic",
        weight=weight, u=u, field=field,
        hessians=hess, delta=float(delta), b_E=u.b_E, sup_violation=sup_violation,
        hessian_l1=hessian_l1, boundary_term=boundary_term,
        grad_range_hausdorff=grad_range_hausdorff, lip_grad=field.lip_grad(),
        convexity_violation=field.convexity_violation(),
        slope_spacing=body.spacing, resolutions=res, reference_volume=ref_volume,
        interior=interior, mid_eigen=mid_eigen, mid_w=mid_w, mid_w_xi=mid_w_xi,
    )


def weight_shift_term(report: CouplingReport, Q) -> float:
    """integral over E cap Q of |w(grad phi)^(1/a) - w^(1/a)| (Lebesgue measure)."""
    if report.mode != "weighted":
        raise ValueError("the weight-shift term exists only in weighted mode")
    weight = report.weight
    (x0, x1), (y0, y1) = Q
    if weight.cone.box_margin(Q) <= 0:
        raise ValueError("Q must be compactly inside the cone")
    mids, areas3 = report.u.mesh.midpoint_rule()
    inside = ((mids[:, 0] >= x0) & (mids[:, 0] <= x1)
              & (mids[:, 1] >= y0) & (mids[:, 1] <= y1))
    if not inside.any():
        return 0.0
    vals = np.abs(weight.root_of(report.mid_w_xi[inside])
                  - weight.root_of(report.mid_w[inside]))
    return float(np.sum(areas3[inside] * vals))


def verify_coupling_estimates(report: CouplingReport, Q=None) -> dict:
    """Deficit-normalized ratios of the measured coupling quantities.

    Weighted mode returns {hessian_ratio, boundary_ratio, weight_ratio};
    anisotropic mode reports the Hessian defect against the datum scale.
    Raises MinimizerDegenerateError when the deficit is below 1e-10.
    """
    if report.mode != "weighted":
        return {"hessian_l1": report.hessian_l1, "b_E": report.b_E}
    if report.delta <= 1e-10:
        raise MinimizerDegenerateError("deficit below threshold: ratios undefined")
    if Q is None:
        raise ValueError("weighted ratios need the compact box Q")
    sqrt_d = math.sqrt(report.delta)
    return {
        "hessian_ratio": report.hessian_l1 / sqrt_d,
        "boundary_ratio": report.boundary_term / report.delta,
        "weight_ratio": weight_shift_term(report, Q) / sqrt_d,
    }


@dataclasses.dataclass
class ChainRecord:
    """Numbers along the area-formula/AM-GM chain and their link violations."""

    image_volume: float  # w(K): the image's volume once K subset grad phi(Gamma)
    jacobian_integral: float
    amgm_integral: float
    terminal: float
    tol_chain: float
    link_violations: tuple
    amgm_field_violation: float
    n_precondition_failures: int
    n_midpoints: int  # band-interior midpoints the precondition was tested on

    @property
    def ordered(self) -> bool:
        return all(v <= self.tol_chain for v in self.link_violations)

    def values(self):
        return (self.image_volume, self.jacobian_integral, self.amgm_integral,
                self.terminal)


def abp_chain_check(report: CouplingReport) -> ChainRecord:
    """Evaluate each link of the chain on the band-interior part of E.

    The first link is w(K) <= int det+ (D2 phi) w(grad phi), with w(K) the
    set's own quadrature of w(B1 cap cone) (``reference_volume``, the one
    the terminal scales).  It rests on the covering K subset grad phi(Gamma),
    which ``grad_range_hausdorff`` checks.  The link tolerance is the pinned
    ``coupling_chain_C`` times (mesh_h + slope spacing), relative to the
    terminal value.
    """
    if report.mode != "weighted":
        raise ValueError("the chain check applies to weighted mode")
    weight = report.weight
    alpha = weight.alpha
    D = weight.D
    res = report.resolutions

    mids, areas3 = report.u.mesh.midpoint_rule()
    band_ok = weight.cone.boundary_distance(mids) > res.eval_h
    areas_b = areas3[band_ok]

    lam1, lam2 = report.mid_eigen[:, band_ok]
    w_m, w_xi, t_term = _weight_ratio(alpha, report.mid_w[band_ok], report.mid_w_xi[band_ok])

    jacobian_integral = float(np.sum(areas_b * lam1 * lam2 * w_xi))
    amgm_integrand = ((lam1 + lam2 + alpha * t_term) / D) ** D * w_m
    amgm_integral = float(np.sum(areas_b * amgm_integrand))
    terminal = (1.0 + max(report.delta, 0.0)) ** D * report.reference_volume

    # fieldwise quantitative AM-GM audit where the pointwise bound holds
    lam_vec = np.array([1.0, 1.0, alpha])
    c = report.b_E / D
    x_stack = np.stack([lam1, lam2, t_term], axis=1)
    pre_ok = (x_stack @ lam_vec) <= c * float(lam_vec.sum()) * (1.0 + 1e-12)
    n_pre_fail = int(np.sum(~pre_ok))
    lhs_f, rhs_f = amgm_sides(lam_vec, x_stack[pre_ok], c)
    amgm_violation = float(np.max(lhs_f - rhs_f)) if len(lhs_f) else 0.0

    tol = EXPECTATIONS["coupling_chain_C"] * (res.mesh_h + report.slope_spacing) * terminal
    violations = (
        max(0.0, report.reference_volume - jacobian_integral),
        max(0.0, jacobian_integral - amgm_integral),
        max(0.0, amgm_integral - terminal),
    )
    return ChainRecord(report.reference_volume, jacobian_integral, amgm_integral, terminal,
                       tol, violations, amgm_violation, n_pre_fail, len(pre_ok))
