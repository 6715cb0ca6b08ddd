"""Slope bodies, restricted conjugates, envelopes, contact sets."""

import functools
import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial import cKDTree

from isocone import envelope
from isocone.cone_weight import Cone, HomWeight, unit
from isocone.envelope import (
    RestrictedConjugate,
    SlopeBody,
    check_c11,
    contact_data,
    k_envelope,
    restricted_conjugate,
)
from isocone.geometry import StarSet
from isocone.pde import WeightedMode, fan_triangulate, solve_neumann

DISK = SlopeBody.sector_disk(Cone.plane(), 1.0, 128, 256)
SQUARE = SlopeBody.polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])


def quad_cloud(radius=2.0, n_ang=180, n_rad=81):
    th = np.linspace(0.0, 2.0 * math.pi, n_ang, endpoint=False)
    rr = np.linspace(0.0, radius, n_rad)[1:]
    pts = (rr[:, None, None] * np.stack([np.cos(th), np.sin(th)], -1)[None]).reshape(-1, 2)
    return np.vstack([[[0.0, 0.0]], pts])


def _scan_all(sites, f, queries):
    """The untiled elementwise scan that ``_dense_min`` reproduces bit for
    bit: each score f - (q_0 p_0 + q_1 p_1), the lowest index among minima."""
    vals, idx = [], []
    for q in np.array_split(queries, max(1, len(queries) // 64)):
        score = q[:, :1] * sites[:, 0]
        for d in range(1, sites.shape[1]):
            score = score + q[:, d:d + 1] * sites[:, d]
        score = f - score
        loc = np.argmin(score, axis=1)
        vals.append(score[np.arange(len(q)), loc])
        idx.append(loc)
    return np.concatenate(vals), np.concatenate(idx)


class TestSupportFunction:
    def test_disk(self):
        assert DISK.support((3.0, 4.0)) == pytest.approx(5.0)

    def test_square_is_l1_norm(self):
        assert SQUARE.support((3.0, 4.0)) == pytest.approx(7.0)

    def test_segment(self):
        seg = SlopeBody.polygon([(0.0, 0.0), (1.0, 0.0)])
        assert seg.support((-2.0, 5.0)) == pytest.approx(0.0)

    def test_sector_disk_matches_vertex_enumeration_oracle(self):
        body = SlopeBody.sector_disk(Cone.quadrant(), 1.0, 64, 129)
        rng = np.random.default_rng(5)
        vs = rng.normal(size=(200, 2))
        got = body.support(vs)
        oracle = np.max(vs @ body.samples.T, axis=1)  # dense max over samples
        assert np.all(got >= oracle - 1e-12)
        assert np.max(got - oracle) <= 1e-4  # sample-hull gap

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 5.0))
    def test_homogeneity_and_subadditivity(self, vx, vy, t):
        v = np.array([vx, vy])
        w = np.array([0.7, -1.3])
        for body in (DISK, SQUARE):
            assert body.support(t * v) == pytest.approx(t * body.support(v), rel=1e-12, abs=1e-12)
            assert body.support(v + w) <= body.support(v) + body.support(w) + 1e-12

    def test_polygon_ccw_required(self):
        with pytest.raises(ValueError):
            SlopeBody.polygon([(0, 0), (0, 1), (1, 0)])  # clockwise

    @pytest.mark.parametrize("vertices", [[(0.5, 0.5), (0.5, 0.5)], [(1, 2), (1, 2), (1, 2)]])
    def test_polygon_of_one_point_rejected(self, vertices):
        # a point has no slope spacing; the error names where the vertices sit
        with pytest.raises(ValueError, match=r"polygon vertices all coincide at \[") as err:
            SlopeBody.polygon(vertices)
        assert str(list(map(float, vertices[0]))) in str(err.value)


SEGMENT = SlopeBody.polygon([(-1.0, 0.0), (1.0, 0.0)])
QUADRANT_DISK = SlopeBody.sector_disk(Cone.quadrant(), 1.0, 32, 48)


class TestNormalCone:
    @pytest.mark.parametrize("body, xi, want", [
        (SQUARE, (1.0, 1.0), [(1.0, 0.0), (0.0, 1.0)]),  # vertex: both edge normals
        (SQUARE, (1.0, 0.0), [(1.0, 0.0)]),  # edge midpoint: one normal
        (SQUARE, (0.2, -0.3), np.zeros((0, 2))),  # interior: {0}
        (SEGMENT, (-1.0, 0.0), [(0.0, 1.0), (0.0, -1.0), (-1.0, 0.0)]),
        (SEGMENT, (1.0, 0.0), [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0)]),
        (QUADRANT_DISK, (0.0, 0.0), [(0.0, -1.0), (-1.0, 0.0)]),  # origin: both rays
        (QUADRANT_DISK, (0.5, 0.0), [(0.0, -1.0)]),  # on the ray at angle 0
        (QUADRANT_DISK, (0.0, 0.5), [(-1.0, 0.0)]),  # on the ray at angle pi/2
        (QUADRANT_DISK, (1.0, 0.0), [(0.0, -1.0), (1.0, 0.0)]),  # corner of ray and arc
    ])
    def test_generators(self, body, xi, want):
        got = body.normal_cone(xi)
        want = np.asarray(want, dtype=float).reshape(-1, 2)
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-12)

    def test_polygon_contains(self):
        pts = [(0.2, -0.3), (1.0 + 1e-12, 0.5), (1.01, 0.0)]
        assert SQUARE.contains(pts).tolist() == [True, True, False]


class TestRestrictedConjugate:
    def test_single_point(self):
        conj = restricted_conjugate([[0.0, 0.0]], [0.0], DISK)
        assert np.allclose(conj.intercepts, 0.0)

    def test_linear_function(self):
        pts = quad_cloud()
        xi0 = np.array([0.4, 0.2])
        conj = restricted_conjugate(pts, pts @ xi0, DISK)
        # at xi = xi0 the best intercept is 0
        i_near = np.argmin(np.linalg.norm(DISK.samples - xi0, axis=1))
        assert conj.intercepts[i_near] == pytest.approx(0.0, abs=2e-2)

    def test_quadratic_conjugate(self):
        pts = quad_cloud()
        vals = 0.5 * np.einsum("ij,ij->i", pts, pts)
        conj = restricted_conjugate(pts, vals, DISK)
        r = np.linalg.norm(DISK.samples, axis=1)
        assert np.max(np.abs(conj.intercepts + 0.5 * r ** 2)) <= 1e-3

    def test_intercepts_concave_along_rays(self):
        pts = quad_cloud()
        vals = pts[:, 0] ** 4 + pts[:, 1] ** 2
        body = SlopeBody.sector_disk(Cone.plane(), 1.0, 64, 32)
        conj = restricted_conjugate(pts, vals, body)
        A = conj.intercepts[1:].reshape(32, 63)  # one row per angle
        mid = A[:, 1:-1]
        assert np.all(A[:, :-2] + A[:, 2:] <= 2.0 * mid + 1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            restricted_conjugate(np.zeros((0, 2)), np.zeros(0), DISK)


def _loop_sector_argmax(conj, pts):
    """The sector-disk argmax as a sequential scan over every angle."""
    body = conj.body
    n_r, n_ang = body.polar_shape
    radii = np.linspace(0.0, body.rho, n_r)
    dr = radii[1] - radii[0]
    thetas = body.cone.arc_grid(n_ang)
    U = unit(thetas)
    a0 = conj.intercepts[0]
    A = conj.intercepts[1:].reshape(n_ang, n_r - 1)
    n = len(pts)
    best_val = np.full(n, a0)
    best_idx = np.zeros(n, dtype=np.int64)
    idx_all = np.arange(n)
    for j in range(n_ang):
        col = np.empty(n_r)
        col[0] = a0
        col[1:] = A[j]
        gain = np.maximum.accumulate((col[:-1] - col[1:]) / dr)
        c = pts[:, 0] * U[j, 0] + pts[:, 1] * U[j, 1]
        pos = np.searchsorted(gain, c, side="right")
        cand = np.stack([np.clip(pos - 1, 0, n_r - 1),
                         np.clip(pos, 0, n_r - 1),
                         np.clip(pos + 1, 0, n_r - 1)])
        scores = col[cand] + radii[cand] * c[None, :]
        pick = np.argmax(scores, axis=0)
        k = cand[pick, idx_all]
        val = scores[pick, idx_all]
        better = val > best_val
        gidx = np.where(k == 0, 0, 1 + j * (n_r - 1) + (k - 1))
        best_val = np.where(better, val, best_val)
        best_idx = np.where(better, gidx, best_idx)
    return best_val, body.samples[best_idx], best_idx


def _neumann_cloud(mesh_h=0.05):
    """Mesh nodes and the Neumann solution of the x y weight on the quadrant ball."""
    weight = HomWeight.monomial(Cone.quadrant(), 1, 1)
    mesh = fan_triangulate(StarSet.ball(Cone.quadrant(), 1024), mesh_h)
    return mesh.vertices, solve_neumann(mesh, WeightedMode(weight)).values


def _with_values(pts, f):
    return pts, f(pts)


def _paraboloid(pts):
    return 0.5 * np.einsum("ij,ij->i", pts, pts) + 0.3 * pts[:, 0]


SMALL = quad_cloud(n_ang=60, n_rad=21)
QUADRANT_BODY = SlopeBody.sector_disk(Cone.quadrant(), 1.0, 48, 33)
# 60 cloud rays 6 degrees apart; the disk's odd rays bisect two of them, so
# the edges between their rings' neighbours run across those rays
BISECTING_DISK = SlopeBody.sector_disk(Cone.plane(), 1.0, 40, 120)
# u = x / 2 on the five inner nodes, so at angle 0 and radius 1/2 (slope
# index 1 + 1) their scores tie exactly at 0, node 0 among them
FLAT_FACET = np.array([
    [-0.5625, -0.625], [-2.1875, 1.25], [-2.1875, -1.25], [0.0, -2.5], [0.0, 2.5],
    [-2.5, 0.0], [1.25, -2.1875], [-1.25, 2.1875], [0.6875, 0.4375], [-1.25, -2.1875],
    [2.1875, -1.25], [0.8125, 0.1875], [1.25, 2.1875], [-0.625, -0.5625],
    [-0.8125, 0.1875], [2.1875, 1.25], [2.5, 0.0]])
SECTOR_CASES = {
    "fan-mesh-neumann": (_neumann_cloud, SlopeBody.sector_disk(Cone.quadrant(), 1.0, 96, 40)),
    "quad_cloud": (lambda: _with_values(quad_cloud(), _paraboloid), DISK),
    "1201": (lambda: _with_values(SMALL, _paraboloid), QUADRANT_BODY),
    "1": (lambda: _with_values(SMALL[:1], _paraboloid), QUADRANT_BODY),
    "2": (lambda: _with_values(SMALL[:2], _paraboloid), QUADRANT_BODY),
    "3-collinear": (lambda: _with_values(np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]),
                                         _paraboloid), QUADRANT_BODY),
    "15": (lambda: _with_values(SMALL[:15], _paraboloid), QUADRANT_BODY),
    "linear": (lambda: _with_values(SMALL, lambda p: p @ np.array([0.3, -0.2])), DISK),
    "bisecting-rays": (lambda: _with_values(SMALL, _paraboloid), BISECTING_DISK),
    # 1,801 nodes: over _TILE_MIN_SITES, so the conjugate takes the tile bound
    "1801": (lambda: _with_values(quad_cloud(n_ang=60, n_rad=31), _paraboloid),
             SlopeBody.sector_disk(Cone.plane(), 1.0, 256, 120)),
    "flat-facet": (lambda: _with_values(
        FLAT_FACET, lambda p: 0.5 * p[:, 0] + (np.hypot(p[:, 0], p[:, 1]) > 2.0)),
        SlopeBody.sector_disk(Cone.quadrant(), 1.0, 5, 3)),
}


class TestSectorKernelsMatchLoops:
    @pytest.fixture(scope="class", params=sorted(SECTOR_CASES))
    def case(self, request):
        make, body = SECTOR_CASES[request.param]
        pts, vals = make()
        return request.param, pts, vals, body

    def test_conjugate_bitwise(self, case):
        _name, pts, vals, body = case
        conj = restricted_conjugate(pts, vals, body)
        want, want_argmin = _scan_all(pts, vals, body.samples)
        assert np.array_equal(conj.intercepts, want)
        assert np.array_equal(conj.argmin_index, want_argmin)

    def test_argmax_bitwise(self, case):
        _name, pts, vals, body = case
        conj = restricted_conjugate(pts, vals, body)
        lo, hi = pts.min(axis=0) - 0.1, pts.max(axis=0) + 0.1
        grid = np.stack(np.meshgrid(np.linspace(lo[0], hi[0], 41),
                                    np.linspace(lo[1], hi[1], 37)), -1).reshape(-1, 2)
        for probe in (grid, pts):
            phi, xi, idx = conj.envelope_at(probe)
            want_phi, want_xi, want_idx = _loop_sector_argmax(conj, probe)
            assert np.array_equal(phi, want_phi)
            assert np.array_equal(idx, want_idx)
            assert np.array_equal(xi, want_xi)

    @pytest.mark.parametrize("block", [2, 3, 7, 10 ** 6])
    def test_angle_block_does_not_change_results(self, case, monkeypatch, block):
        # the argmax's bounds come in angle blocks; no block size, ragged or
        # not, moves a bit
        _name, pts, vals, body = case
        want = restricted_conjugate(pts, vals, body)
        want_phi, _xi, want_idx = want.envelope_at(pts)
        monkeypatch.setattr(envelope, "_ANGLE_BLOCK", block)
        got = restricted_conjugate(pts, vals, body)
        phi, _xi, idx = got.envelope_at(pts)
        assert np.array_equal(got.intercepts, want.intercepts)
        assert np.array_equal(got.argmin_index, want.argmin_index)
        assert np.array_equal(phi, want_phi)
        assert np.array_equal(idx, want_idx)

    def test_point_blocks_do_not_change_results(self, case, monkeypatch):
        # the argmax picks each point's most promising angle block a few
        # points at a time once _BLOCK is tiny; no bit moves
        _name, pts, vals, body = case
        conj = restricted_conjugate(pts, vals, body)
        want_phi, _xi, want_idx = conj.envelope_at(pts)
        monkeypatch.setattr(envelope, "_BLOCK", 7)
        phi, _xi, idx = conj.envelope_at(pts)
        assert np.array_equal(phi, want_phi)
        assert np.array_equal(idx, want_idx)

    def test_flat_facet_tie_goes_to_lowest_index(self):
        pts, vals = SECTOR_CASES["flat-facet"][0]()
        conj = restricted_conjugate(pts, vals, SECTOR_CASES["flat-facet"][1])
        assert conj.intercepts[1 + 1] == 0.0 and conj.argmin_index[1 + 1] == 0


class TestSectorArgmaxTies:
    """Each tie class of the argmax rule at x = 0, where every score is a
    column entry: value first, then the lowest slope index, which is the
    origin, then the lowest angle, then the lowest radius.  Three radii (0,
    1/2, 1) and 64 angles in four blocks of 16, so angle j holds indices
    1 + 2 j and 2 + 2 j; the intercepts are -1 except where a case sets a
    column."""

    BODY = SlopeBody.sector_disk(Cone.plane(), 1.0, 3, 64)

    def argmax(self, columns):
        intercepts = np.full(1 + 2 * 64, -1.0)
        intercepts[0] = 0.0
        for j, (a1, a2) in columns.items():
            intercepts[1 + 2 * j] = a1
            intercepts[2 + 2 * j] = a2
        conj = RestrictedConjugate(self.BODY, np.zeros((1, 2)), np.zeros(1), intercepts,
                                   np.zeros(len(intercepts), dtype=np.int64))
        origin = np.zeros((1, 2))
        got = conj.envelope_at(origin)
        want = _loop_sector_argmax(conj, origin)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        return float(got[0][0]), int(got[2][0])

    def test_value_first(self):
        assert self.argmax({5: (1.0, 0.0), 40: (2.0, 0.0)}) == (2.0, 1 + 2 * 40)

    def test_origin_wins_a_tie(self):
        # angle 7 reaches the origin's intercept 0 at both radii
        assert self.argmax({7: (0.0, 0.0)}) == (0.0, 0)

    def test_lowest_angle_wins_across_blocks(self):
        # angle 45 lifts its block's bound to 5, so block 2 is scored first,
        # but its search stops at radius 0 and angle 40 ties angle 5 at 1
        got = self.argmax({5: (1.0, 0.0), 40: (1.0, 0.0), 45: (-1.0, 5.0)})
        assert got == (1.0, 1 + 2 * 5)

    def test_lowest_radius_wins_within_an_angle(self):
        assert self.argmax({9: (1.0, 1.0)}) == (1.0, 1 + 2 * 9)

    def test_origin_best_scores_no_angle(self, monkeypatch):
        # every other radius scores below the origin's 0, so no block's
        # bound, which leaves radius 0 out, reaches the best so far
        passes = _count_block_passes(monkeypatch)
        assert self.argmax({5: (-0.5, -0.25), 40: (-1e-9, -1e-9)}) == (0.0, 0)
        assert passes == []


def _all_slope_scores(conj, pts):
    """(points, slopes) scores a_m + r_k (x . u_j) of every slope sample,
    each formed as the sector argmax forms it."""
    body = conj.body
    n_r, n_ang = body.polar_shape
    radii = np.linspace(0.0, body.rho, n_r)
    U = unit(body.cone.arc_grid(n_ang))
    A = conj.intercepts[1:].reshape(n_ang, n_r - 1)
    scores = np.empty((len(pts), len(body.samples)))
    scores[:, 0] = conj.intercepts[0]
    for j in range(n_ang):
        c = pts[:, 0] * U[j, 0] + pts[:, 1] * U[j, 1]
        scores[:, 1 + j * (n_r - 1):1 + (j + 1) * (n_r - 1)] = A[j] + radii[1:] * c[:, None]
    return scores


class TestSectorSampleOrder:
    def test_origin_first_then_angle_major(self):
        body = SlopeBody.sector_disk(Cone.quadrant(), 1.0, 5, 7)
        radii = np.linspace(0.0, 1.0, 5)
        U = unit(Cone.quadrant().arc_grid(7))
        want = [[0.0, 0.0]] + [radii[k] * U[j] for j in range(7) for k in range(1, 5)]
        assert body.polar_shape == (5, 7)
        assert np.array_equal(body.samples, np.array(want))

    @pytest.mark.parametrize("cone", [Cone.quadrant(), Cone.half_plane(), Cone.plane(),
                                      Cone(0.3, 2.5)],
                             ids=["quadrant", "half_plane", "plane", "wedge"])
    @pytest.mark.parametrize("shape", [(2, 2), (5, 7), (48, 33), (256, 512)])
    def test_samples_are_the_stacked_products(self, cone, shape):
        # the samples are written in place; each is the r * u float of the
        # (n_ang, n_r - 1, 2) product stacked under the origin, -0.0 included
        n_r, n_ang = shape
        radii = np.linspace(0.0, 1.5, n_r)
        want = np.vstack([[[0.0, 0.0]], (radii[None, 1:, None]
                                         * unit(cone.arc_grid(n_ang))[:, None, :]).reshape(-1, 2)])
        got = SlopeBody.sector_disk(cone, 1.5, n_r, n_ang).samples
        assert got.tobytes() == want.tobytes()

    def test_samples_need_no_scratch(self):
        tracemalloc.start()
        try:
            body = SlopeBody.sector_disk(Cone.plane(), 1.0, 256, 512)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 2.1 MB samples; a product array stacked under the origin doubled it
        assert peak < 1.25 * body.samples.nbytes

    def test_flat_facet_ties_go_to_the_lowest_scored_index(self):
        make, body = SECTOR_CASES["flat-facet"]
        pts, vals = make()
        conj = restricted_conjugate(pts, vals, body)
        g = np.linspace(-3.0, 3.0, 25)
        probes = np.vstack([pts, np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)])
        phi, _xi, idx = conj.envelope_at(probes)
        scores = _all_slope_scores(conj, probes)
        optima = scores == scores.max(axis=1, keepdims=True)
        assert np.array_equal(phi, scores.max(axis=1))
        assert np.all(optima[np.arange(len(probes)), idx])
        # the origin, then the lowest ray among the exact optima; index i
        # lies on ray (i - 1) // (n_r - 1), which is -1 for the origin
        n_r = body.polar_shape[0]
        lowest = np.argmax(optima, axis=1)
        assert np.array_equal((idx - 1) // (n_r - 1), (lowest - 1) // (n_r - 1))
        assert np.count_nonzero(optima.sum(axis=1) > 1) == 3
        # within a ray, the lowest of the radii its search scores: on the
        # facet node (0.8125, 0.1875) radii 1/2, 3/4 and 1 of angle 0 tie,
        # and the search, at the gains' last crossing, scores 3/4 and 1
        node = np.flatnonzero((probes == (0.8125, 0.1875)).all(axis=1))[0]
        assert np.flatnonzero(optima[node]).tolist() == [2, 3, 4] and idx[node] == 3


def _count_block_passes(monkeypatch):
    """The number of points of each block pass of the sector argmax, as a
    list that fills while the test runs."""
    sizes = []
    block_best = envelope._block_best

    def counted(cols, gains, radii, c):
        sizes.append(c.shape[1])
        return block_best(cols, gains, radii, c)

    monkeypatch.setattr(envelope, "_block_best", counted)
    return sizes


class TestSectorArgmaxPruning:
    def test_envelope_verb_quadrant_scores_few_blocks(self, monkeypatch):
        # the `envelope` verb's quadrant input: a 60 x 60 quadratic cloud on
        # [-2, 2]^2, its 81 x 81 grid and the cloud as probes.  The origin is
        # the best slope at 26% of these nodes; with radius 0 in the bounds,
        # a node scored 9.3 blocks of 16 angles on average, and 0.99 without
        pts = _lattice(60, -2.0, 2.0)
        body = SlopeBody.sector_disk(Cone.quadrant(), 1.0)
        conj = restricted_conjugate(pts, 0.5 * np.einsum("ij,ij->i", pts, pts), body)
        passes = _count_block_passes(monkeypatch)
        field = k_envelope(conj, ((-2.0, 2.0), (-2.0, 2.0)), 0.05, pts)
        nodes = np.vstack([field.grid_points(), pts])
        assert sum(passes) / len(nodes) <= 1.5
        phi, _xi, idx = _loop_sector_argmax(conj, nodes)
        probe_phi, _xi, probe_idx = field.at_probes
        assert np.array_equal(np.concatenate([field.phi.ravel(), probe_phi]), phi)
        assert np.array_equal(np.concatenate([field.slope_index.ravel(), probe_idx]), idx)


# blocks of 16 angles: 40 angles leave a ragged block, and the disk's
# blocks meet across the periodic seam
BOUND_BODIES = {
    "quadrant": SlopeBody.sector_disk(Cone.quadrant(), 1.0, 24, 40),
    "half-plane": SlopeBody.sector_disk(Cone.half_plane(), 1.0, 24, 37),
    "disk": SlopeBody.sector_disk(Cone.plane(), 1.0, 24, 48),
}


def _angle_probes(body):
    """Points exactly on every sample angle (the block edges and the cone's
    rays among them), between neighbouring sample angles, an ulp-scale step
    off each, just outside the cone's rays, and the origin."""
    thetas = body.cone.arc_grid(body.polar_shape[1])
    mids = 0.5 * (thetas[:-1] + thetas[1:])
    angles = np.concatenate([thetas, mids, thetas + 1e-15, thetas - 1e-15,
                             [thetas[0] - 1e-3, thetas[-1] + 1e-3]])
    rays = unit(angles)
    return np.vstack([[[0.0, 0.0]], 0.35 * rays, 1.3 * rays, unit(thetas) * 2.0 ** -40])


class TestBlockMaxProjection:
    @pytest.mark.parametrize("name", sorted(BOUND_BODIES))
    def test_equals_the_max_over_every_angle_of_the_block(self, name):
        body = BOUND_BODIES[name]
        thetas = body.cone.arc_grid(body.polar_shape[1])
        U = unit(thetas)
        pts = np.vstack([_angle_probes(body),
                         np.random.default_rng(3).normal(size=(500, 2))])
        blocks = [slice(b0, b0 + envelope._ANGLE_BLOCK)
                  for b0 in range(0, len(thetas), envelope._ANGLE_BLOCK)]
        got = list(envelope._block_max_projection(thetas, U, blocks, pts))
        assert len(got) == len(blocks)
        for block, c in zip(blocks, got):
            assert np.array_equal(c, envelope._projections(U[block], pts).max(axis=0))

    @pytest.mark.parametrize("name", sorted(BOUND_BODIES))
    def test_argmax_bitwise_on_sample_angles_block_edges_and_rays(self, name):
        body = BOUND_BODIES[name]
        conj = restricted_conjugate(SMALL, _paraboloid(SMALL), body)
        probes = _angle_probes(body)
        got = conj.envelope_at(probes)
        for g, w in zip(got, _loop_sector_argmax(conj, probes)):
            assert np.array_equal(g, w)


def _polygon_reference_calls():
    """The (sites, f, queries) of both ``_dense_min`` calls, conjugate then
    argmax, of the two polygon ``couple`` configs of tests/test_reference.py."""
    import json
    import os

    from test_reference import CASES

    from isocone.cli import main

    calls = []
    kernel = envelope._dense_min

    def record(sites, f, queries):
        calls.append((sites, f, queries))
        return kernel(sites, f, queries)

    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(envelope, "_dense_min", record)
        for name in ("polygon_couple_coarse", "polygon_couple_fine_eval"):
            verb, config = CASES[name]
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            main([verb, "--config", path, "--out", os.path.join(tmp, name)])
    return calls


def _lattice(n, lo=-1.0, hi=1.0):
    """n x n points of a square lattice on [lo, hi]^2, row-major."""
    xs = np.linspace(lo, hi, n)
    return np.stack(np.meshgrid(xs, xs), -1).reshape(-1, 2)


@functools.lru_cache(maxsize=None)
def _kernel_cases():
    """Named (sites, f, queries) problems for the kernel; callers copy to mutate."""
    rng = np.random.default_rng(11)
    sites = _lattice(65)  # steps of 1/32: every score below is exact
    cone_cloud, cone_vals = _neumann_cloud()
    radii = np.linspace(0.0, 1.0, 256)[1:, None]
    fine = _lattice(61)  # steps of 1/30: scores that tie exactly differ by rounding
    return {
        # u linear: the lifting is flat, and the tiles around xi0 tie throughout
        "linear": (sites, sites @ np.array([0.25, -0.5]), _lattice(129, -0.75, 0.25)),
        "linear-rounded": (fine, fine @ np.array([0.3, -0.7]), _lattice(121, -0.7, 1.3)),
        # grid points on the sites and halfway between: exact two- and four-way ties
        "coinciding-grid": (sites, 0.5 * np.einsum("ij,ij->i", sites, sites),
                            _lattice(129)),
        "coinciding-grid-rounded": (fine, 0.5 * np.einsum("ij,ij->i", fine, fine)
                                    + 0.1 * fine[:, 0], _lattice(121, -0.9, 1.1)),
        # every site twice, and random scores with near ties
        "duplicated-sites": (np.vstack([sites, sites]), np.tile(rng.normal(size=len(sites)), 2),
                             rng.uniform(-2.0, 2.0, (3000, 2))),
        # 1-D sites, one angle's projections, with the radii as queries
        "radii": (cone_cloud[:, :1], cone_vals, radii),
        # a lone far query gets a tile of its own
        "lone-query": (sites, sites[:, 0] ** 2 + sites[:, 1] ** 4,
                       np.vstack([rng.uniform(-0.5, 0.5, (600, 2)), [[7.0, -3.0]]])),
    }


def _product_tile_keys(queries):
    """The tile keys of (d, m) queries formed as one (d, m) float expression."""
    lo = queries.min(axis=1)
    side = np.max(queries.max(axis=1) - lo) / envelope._TILE_SPLIT
    cell = np.minimum((queries - lo[:, None]) / side,
                      envelope._TILE_SPLIT - 1).astype(np.uint8)
    tile = cell[0]
    for c in cell[1:]:
        tile = tile * np.uint8(envelope._TILE_SPLIT) + c
    return tile


class TestTileMembers:
    @pytest.mark.parametrize("case", sorted(_kernel_cases()) + ["sector-disk", "3-d"])
    def test_groups_are_those_of_the_product_keys(self, case):
        # the keys are formed a coordinate at a time, from the same floats
        if case == "sector-disk":
            queries = SlopeBody.sector_disk(Cone.half_plane(), 1.0, 256, 512).samples
        elif case == "3-d":
            queries = np.random.default_rng(5).uniform(-1.0, 3.0, (5000, 3))
        else:
            queries = _kernel_cases()[case][2]
        queries = np.ascontiguousarray(queries.T)
        keys = _product_tile_keys(queries)
        order = np.argsort(keys, kind="stable")
        want = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
        got = envelope._tile_members(queries)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert all(len(np.unique(keys[g])) == 1 for g in got)


class TestDenseMin:
    @pytest.fixture(scope="class")
    def reference_calls(self):
        return _polygon_reference_calls()

    @pytest.mark.parametrize("call", range(4))
    def test_polygon_reference_clouds_match_untiled_scan(self, reference_calls, call):
        sites, f, queries = reference_calls[call]
        assert len(sites) >= envelope._TILE_MIN_SITES
        vals, idx = envelope._dense_min(sites, f, queries)
        want_vals, want_idx = _scan_all(sites, f, queries)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(idx, want_idx)

    @pytest.mark.parametrize("case", sorted(_kernel_cases()))
    @pytest.mark.parametrize("block", [1, envelope._BLOCK])
    def test_matches_untiled_scan(self, monkeypatch, case, block):
        # block 1 splits the queries down to tiles of one query each
        sites, f, queries = _kernel_cases()[case]
        monkeypatch.setattr(envelope, "_BLOCK", block)
        vals, idx = envelope._dense_min(sites, f, queries)
        want_vals, want_idx = _scan_all(sites, f, queries)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(idx, want_idx)

    def test_tiles_split_until_a_scan_fits_one_block(self, monkeypatch, reference_calls):
        # a tile scans untiled once m queries times the n sites it kept fit
        # one block, or when it cannot split: one query, or zero width
        stack, done = [], []  # [m, n, width, calls made] of open and finished calls
        tiled_min = envelope._tiled_min

        def record(sites, f, queries, slack):  # (d, n) sites, (d, m) queries
            call = [queries.shape[1], sites.shape[1], np.ptp(queries, axis=1).max(), 0]
            if stack:
                stack[-1][3] += 1
            stack.append(call)
            out = tiled_min(sites, f, queries, slack)
            done.append(stack.pop())
            return out

        monkeypatch.setattr(envelope, "_tiled_min", record)
        readme = SlopeBody.sector_disk(Cone.quadrant(), 1.0, 512, 192)
        pts, vals = _neumann_cloud(0.02)
        sites, f, queries = reference_calls[0]
        for problem in ((pts, vals, readme.samples), (sites, f, queries)):
            done.clear()
            envelope._dense_min(*problem)
            split = [(m, n) for m, n, _w, children in done if children]
            scanned = [(m, n, w) for m, n, w, children in done if not children]
            assert len(split) > 1 and all(m * n > envelope._BLOCK for m, n in split)
            assert all(m * n <= envelope._BLOCK or m == 1 or w == 0 for m, n, w in scanned)

    @pytest.mark.parametrize("body, xi0", [
        (SQUARE, (1.0, -1.0)), (SEGMENT, (1.0, 0.0)),
        (QUADRANT_BODY, (1.0, 0.0)), (DISK, (1.0, 0.0))],
        ids=["square", "segment", "quadrant", "disk"])
    def test_conjugate_is_the_scan_over_all_slopes(self, body, xi0):
        # on 33 x 33 sites of step 1/16 the linear u ties every site exactly at
        # its slope xi0, where the lowest index must win
        sites = _lattice(33)
        at = np.flatnonzero((body.samples == xi0).all(axis=1))
        assert at.size == 1
        for vals in (_paraboloid(sites), sites @ np.array(xi0)):
            conj = restricted_conjugate(sites, vals, body)
            want_vals, want_idx = _scan_all(sites, vals, body.samples)
            assert np.array_equal(conj.intercepts, want_vals)
            assert np.array_equal(conj.argmin_index, want_idx)
        assert conj.intercepts[at[0]] == 0.0 and conj.argmin_index[at[0]] == 0  # linear u

    @pytest.mark.parametrize("block", [1, 10 ** 9])
    def test_ties_go_to_lowest_site_index(self, monkeypatch, block):
        monkeypatch.setattr(envelope, "_BLOCK", block)
        sites, f, queries = _kernel_cases()["duplicated-sites"]
        _vals, idx = envelope._dense_min(sites, f, queries)
        assert np.all(idx < len(sites) // 2)
        # the linear u ties every site at xi0 = (1/4, -1/2), a query here
        sites, f, queries = _kernel_cases()["linear"]
        at = np.flatnonzero((queries == [0.25, -0.5]).all(axis=1))
        vals, idx = envelope._dense_min(sites, f, queries)
        assert at.size == 1 and vals[at[0]] == 0.0 and idx[at[0]] == 0

    @pytest.mark.parametrize("case", ["coinciding-grid", "duplicated-sites", "radii"])
    def test_a_query_does_not_depend_on_the_others(self, case):
        sites, f, queries = _kernel_cases()[case]
        vals, idx = envelope._dense_min(sites, f, queries)
        rng = np.random.default_rng(3)
        perm = rng.permutation(len(queries))
        got_vals, got_idx = envelope._dense_min(sites, f, queries[perm])
        assert np.array_equal(got_vals, vals[perm])
        assert np.array_equal(got_idx, idx[perm])
        for sub in (perm[:300], perm[:129], np.sort(perm[: len(perm) // 2])):
            got_vals, got_idx = envelope._dense_min(sites, f, queries[sub])
            assert np.array_equal(got_vals, vals[sub])
            assert np.array_equal(got_idx, idx[sub])

    @pytest.mark.parametrize("where", ["f", "sites", "queries"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_scanned_untiled(self, monkeypatch, where, bad):
        sites, f, queries = (a.copy() for a in _kernel_cases()["coinciding-grid"])
        queries = queries[:300]
        {"f": f, "sites": sites[:, 1], "queries": queries[:, 0]}[where][7] = bad

        def refuse(*_args):
            raise AssertionError("a non-finite input reached the tile bound")

        monkeypatch.setattr(envelope, "_tile_members", refuse)
        with np.errstate(invalid="ignore"):  # inf * 0 in a score
            vals, idx = envelope._dense_min(sites, f, queries)
            want_vals, want_idx = _scan_all(sites, f, queries)
        assert np.array_equal(vals, want_vals, equal_nan=True)
        assert np.array_equal(idx, want_idx)

    def test_block_size_does_not_change_results(self, monkeypatch):
        # one-row blocks, also where one row exceeds the block, and 7-row blocks
        sites, f, queries = _kernel_cases()["duplicated-sites"]
        want_vals, want_idx = envelope._dense_min(sites, f, queries)
        for block in (1, 7 * len(sites)):
            monkeypatch.setattr(envelope, "_BLOCK", block)
            for m in (1, 2, 200, len(queries)):
                vals, idx = envelope._dense_min(sites, f, queries[:m])
                assert np.array_equal(vals, want_vals[:m])
                assert np.array_equal(idx, want_idx[:m])

    def test_scratch_memory_stays_near_one_block(self):
        rng = np.random.default_rng(11)
        sites, f = rng.uniform(-1.0, 1.0, (20_000, 2)), rng.normal(size=20_000)
        queries = rng.uniform(-2.0, 2.0, (2_000, 2))
        tracemalloc.start()
        try:
            envelope._dense_min(sites, f, queries)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 2 MB block (scores and a product term), the tile bound's site
        # arrays and the outputs; a full 2,000 x 20,000 score matrix would be 320 MB
        assert peak < 16 * 2 ** 20


class TestKEnvelope:
    def test_quadratic_saturation(self):
        pts = quad_cloud()
        vals = 0.5 * np.einsum("ij,ij->i", pts, pts)
        conj = restricted_conjugate(pts, vals, DISK)
        phi, xi, _ = conj.envelope_at(np.array([[2.0, 0.0], [0.5, 0.0]]))
        assert phi[0] == pytest.approx(1.5, abs=2e-3)
        assert phi[1] == pytest.approx(0.125, abs=2e-3)

    def test_structured_argmax_matches_dense_on_grid(self):
        pts = quad_cloud(n_ang=90, n_rad=31)
        vals = 0.5 * np.einsum("ij,ij->i", pts, pts)
        body = SlopeBody.sector_disk(Cone.quadrant(), 1.0, 64, 65)
        conj = restricted_conjugate(pts, vals, body)
        probe = np.array([[0.3, 0.4], [1.5, 0.2], [0.05, 0.9], [-0.5, -0.5]])
        phi_s, xi_s, _ = conj.envelope_at(probe)
        dense = probe @ body.samples.T + conj.intercepts[None, :]
        assert np.allclose(phi_s, dense.max(axis=1), atol=1e-12)

    def test_linear_function_recovered(self):
        pts = quad_cloud()
        xi0 = np.array([0.4, 0.2])
        vals = pts @ xi0
        conj = restricted_conjugate(pts, vals, DISK)
        field = k_envelope(conj, ((-1.0, 1.0), (-1.0, 1.0)), 0.1)
        # probe strictly inside the sample hull: at its boundary the argmax
        # ties along a ray of slopes and any of them is a valid maximizer
        probe = pts[np.hypot(pts[:, 0], pts[:, 1]) < 1.9][::37]
        probe_vals, xi, _ = conj.envelope_at(probe)
        assert np.max(np.abs(probe_vals - probe @ xi0)) <= 2e-2
        assert np.max(np.linalg.norm(xi - xi0, axis=1)) <= 2e-2
        assert field.convexity_violation() <= 1e-12

    def test_double_well_flat_bottom(self):
        seg = SlopeBody.polygon([(-1.0, 0.0), (1.0, 0.0)], n_samples=800)
        xs = np.linspace(-2.0, 2.0, 1601)
        pts = np.column_stack([xs, np.zeros_like(xs)])
        vals = xs ** 4 - xs ** 2
        conj = restricted_conjugate(pts, vals, seg)
        phi0, _, _ = conj.envelope_at(np.array([[0.0, 0.0]]))
        assert phi0[0] == pytest.approx(-0.25, abs=1e-5)

    def test_phi_below_samples(self):
        pts = quad_cloud()
        vals = np.abs(pts[:, 0]) + 0.5 * pts[:, 1] ** 2
        conj = restricted_conjugate(pts, vals, DISK)
        phi, _, _ = conj.envelope_at(pts)
        assert np.all(phi <= vals + 1e-12)

    def test_slopes_live_in_body(self):
        pts = quad_cloud()
        vals = 0.5 * np.einsum("ij,ij->i", pts, pts)
        conj = restricted_conjugate(pts, vals, DISK)
        field = k_envelope(conj, ((-1.5, 1.5), (-1.5, 1.5)), 0.05)
        flat = field.xi.reshape(-1, 2)
        assert bool(np.all(DISK.contains(flat)))

    def test_monotone_in_body_with_nested_grids(self):
        pts = quad_cloud()
        vals = 0.5 * np.einsum("ij,ij->i", pts, pts)
        small = SlopeBody.sector_disk(Cone.plane(), 0.5, 65, 64)
        # the large radial grid contains the small one
        large = SlopeBody.sector_disk(Cone.plane(), 1.0, 129, 64)
        phi_small, _, _ = restricted_conjugate(pts, vals, small).envelope_at(pts[::29])
        phi_large, _, _ = restricted_conjugate(pts, vals, large).envelope_at(pts[::29])
        assert np.all(phi_small <= phi_large + 1e-12)

    def test_recovery_of_convex_quadratics(self):
        pts = quad_cloud()
        A = np.array([[0.8, 0.2], [0.2, 0.6]])
        vals = 0.5 * np.einsum("ij,jk,ik->i", pts, A, pts)
        body = SlopeBody.sector_disk(Cone.plane(), 2.0, 256, 256)
        conj = restricted_conjugate(pts, vals, body)
        phi, _, _ = conj.envelope_at(pts)
        h_pts = 2.0 / 80
        assert np.max(np.abs(phi - vals)) <= 2.0 * (h_pts + body.spacing)


class TestProbePass:
    """``k_envelope``'s probes ride in the grid's argmax pass and move no bit."""

    BOX = ((-1.5, 1.5), (-1.2, 1.4))

    @pytest.fixture(scope="class", params=["sector", "polygon"])
    def conj(self, request):
        pts = quad_cloud(n_ang=60, n_rad=31)
        body = {"sector": SlopeBody.sector_disk(Cone.quadrant(), 1.0, 96, 40),
                "polygon": SQUARE}[request.param]
        return restricted_conjugate(pts, _paraboloid(pts), body)

    @staticmethod
    def probes(conj):
        # the samples, and points on both sides of the grid's box
        rng = np.random.default_rng(7)
        return np.vstack([conj.points, rng.uniform(-3.0, 3.0, (200, 2))])

    def test_grid_fields_equal_a_probe_less_call(self, conj):
        plain = k_envelope(conj, self.BOX, 0.05)
        field = k_envelope(conj, self.BOX, 0.05, self.probes(conj))
        for name in ("xs", "ys", "phi", "xi", "slope_index"):
            assert np.array_equal(getattr(field, name), getattr(plain, name))
        assert plain.at_probes is None

    def test_probe_triple_equals_envelope_at(self, conj):
        probes = self.probes(conj)
        field = k_envelope(conj, self.BOX, 0.05, probes)
        for got, want in zip(field.at_probes, conj.envelope_at(probes), strict=True):
            assert np.array_equal(got, want)

    def test_one_argmax_pass_per_envelope_op_and_weighted_coupling(self, monkeypatch,
                                                                    tmp_path):
        import json

        from isocone.cli import main
        from isocone.coupling import Resolutions, build_coupling

        calls = []
        argmax = envelope._argmax

        def counted(conj, pts):
            calls.append(len(pts))
            return argmax(conj, pts)

        monkeypatch.setattr(envelope, "_argmax", counted)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cone": {"angles": [0.0, math.pi / 2]},
                                      "weight": {"monomial": [1, 1]},
                                      "envelope": {"h": 0.2, "n_points": 20}}))
        assert main(["envelope", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert calls == [21 * 21 + 20 * 20]
        calls.clear()
        weight = HomWeight.monomial(Cone.quadrant(), 1, 1)
        star = StarSet.perturbed_ball(weight, 512, 0.1,
                                      lambda th: np.cos(4.0 * th))
        rep = build_coupling(star, WeightedMode(weight),
                             Resolutions(mesh_h=0.08, n_slope=(64, 32), eval_h=0.04))
        assert len(calls) == 1
        # the boundary term reads the same slopes a separate pass would give
        monkeypatch.setattr(envelope, "_argmax", argmax)
        gauss, half_len, _t = rep.u.mesh.free_edge_gauss()
        _phi, xi, _idx = rep.field.conj.envelope_at(gauss)
        assert rep.boundary_term == float(np.sum(
            half_len * weight(gauss) * (1.0 - np.linalg.norm(xi, axis=1))))


class TestHessianField:
    def test_linear_slope_field_fit_exactly_inside_mask(self):
        # xi = A x with A symmetric: a node whose whole 5 x 5 window is masked
        # recovers A; a node whose window holds one masked point gets zero
        A = np.array([[1.3, -0.4], [-0.4, 0.7]])
        h = 0.05
        xs, ys = h * np.arange(20), h * np.arange(16)
        gx, gy = np.meshgrid(xs, ys)
        xi = np.stack([A[0, 0] * gx + A[0, 1] * gy, A[1, 0] * gx + A[1, 1] * gy], axis=-1)
        field = envelope.EnvelopeField(xs, ys, np.zeros(gx.shape), xi,
                                       np.zeros(gx.shape, dtype=np.int64), None, h)
        mask = np.zeros(gx.shape, dtype=bool)
        mask[2:12, 3:15] = True
        mask[14, 18] = True
        H = field.hessian_field(mask)
        whole = np.lib.stride_tricks.sliding_window_view(np.pad(mask, 2), (5, 5)).all(
            axis=(-2, -1))
        assert whole.sum() == 6 * 8
        assert np.max(np.abs(H[whole] - A)) <= 1e-12
        assert np.all(H[14, 18] == 0.0)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 4), (3, 4), (4, 3), (16, 21)])
    @pytest.mark.parametrize("h", [0.05, 0.0123, 1e-8])
    def test_window_sum_is_ndimage_correlate_bit_for_bit(self, shape, h):
        # the six kernels of hessian_field; at h 1e-8 the corner weights of
        # ox * ox fall to DBL_EPSILON and below, which ndimage leaves out
        offs = np.arange(-2, 3) * h
        ox = np.tile(offs, (5, 1))
        oy = ox.T
        kernels = [np.ones((5, 5)), ox, oy, ox * ox, ox * oy, oy * oy]
        rng = np.random.default_rng(sum(shape))
        mask = (rng.random(shape) < 0.6).astype(float)
        # masked values of mixed sign and scale, with -0.0 both where the
        # mask drops a negative value and among the kept ones
        f = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape) * mask
        f[rng.random(shape) < 0.2] = -0.0
        for field in (mask, f, -f):
            for kernel in kernels:
                want = ndimage.correlate(field, kernel, mode="constant", cval=0.0)
                got = envelope._window_sum(field, kernel)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestAchievedSlopes:
    @pytest.mark.parametrize("body", [SlopeBody.sector_disk(Cone.quadrant(), 1.0, 32, 48),
                                      SlopeBody.polygon([(-1.0, 0.0), (1.0, -0.5),
                                                         (0.5, 1.0)], n_samples=2000)])
    def test_matches_unique_slope_rows(self, body):
        pts = quad_cloud(radius=1.5, n_ang=60, n_rad=21)
        vals = 0.5 * np.einsum("ij,ij->i", pts, pts) + 0.2 * pts[:, 0] ** 3
        field = k_envelope(restricted_conjugate(pts, vals, body), ((-1.0, 1.0), (-1.0, 1.0)),
                           0.05)
        xi = field.xi.reshape(-1, 2)
        mask = field.grid_points()[:, 1] > 0.3
        index = field.slope_index.copy()
        for m in (None, mask, mask.reshape(field.phi.shape)):
            got = body.samples[field.achieved_indices(m)]
            want = np.unique(xi if m is None else xi[m.ravel()], axis=0)
            assert len(got) == len(want)
            assert np.array_equal(np.unique(got, axis=0), want)
        assert np.array_equal(field.slope_index, index)  # sorted on a copy, not in place
        assert field.achieved_indices(np.zeros_like(mask)).shape == (0,)


def _all_samples_hausdorff(field, mask):
    """range_hausdorff's value and count from a query of every sample."""
    idx = field.slope_index.ravel()
    hit = np.unique(idx if mask is None else idx[mask.ravel()])
    d, _ = cKDTree(field.body.samples[hit]).query(field.body.samples)
    return float(d.max()), len(hit)


class TestRangeHausdorff:
    @pytest.mark.parametrize("body", [SlopeBody.sector_disk(Cone.quadrant(), 1.0, 32, 48),
                                      SlopeBody.polygon([(-1.0, 0.0), (1.0, -0.5),
                                                         (0.5, 1.0)], n_samples=2000)])
    def test_equals_the_query_of_every_sample(self, body):
        pts = quad_cloud(radius=1.5, n_ang=60, n_rad=21)
        field = k_envelope(restricted_conjugate(pts, _paraboloid(pts), body),
                           ((-1.0, 1.0), (-1.0, 1.0)), 0.05)
        mask = field.grid_points()[:, 1] > 0.3
        for m in (None, mask, mask.reshape(field.phi.shape), np.zeros_like(mask)):
            got = field.range_hausdorff(m)
            assert got == _all_samples_hausdorff(field, m)

    def test_full_coverage_is_zero(self):
        # seven slopes (the origin and radii 1/2, 1 on three rays), each the
        # gradient of |x|^2 / 2 near its own grid node
        body = SlopeBody.sector_disk(Cone.quadrant(), 1.0, 3, 3)
        pts = quad_cloud(radius=1.5, n_ang=60, n_rad=21)
        vals = 0.5 * np.einsum("ij,ij->i", pts, pts)
        field = k_envelope(restricted_conjugate(pts, vals, body), ((-1.0, 1.2), (-1.0, 1.2)),
                           0.05)
        got = field.range_hausdorff()
        assert got == (0.0, len(body.samples))
        assert got == _all_samples_hausdorff(field, None)


def _brute_farthest_nearest(sites, queries):
    """The pairwise minimum in the kernel's operations: dx*dx + dy*dy with
    dx = q - s in float64, one sqrt of the largest minimum."""
    dx = queries[:, None, 0] - sites[None, :, 0]
    dy = queries[:, None, 1] - sites[None, :, 1]
    return math.sqrt(float((dx * dx + dy * dy).min(axis=1).max()))


def _tree_farthest_nearest(sites, queries):
    d, _ = cKDTree(sites).query(queries)
    return float(d.max())


def _split(points, frac, seed):
    """(hit, missed) rows of points, each kept as a hit with probability frac."""
    hit = np.random.default_rng(seed).random(len(points)) < frac
    return points[hit], points[~hit]


class TestFarthestNearest:
    def assert_exact(self, sites, queries):
        got = envelope._farthest_nearest(sites, queries)
        assert got == _brute_farthest_nearest(sites, queries)
        assert got == _tree_farthest_nearest(sites, queries)
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        scale, offset = [(1.0, 0.0), (1e-6, 3.0), (1e3, -50.0)][seed % 3]
        pts = rng.random((int(rng.integers(50, 600)), 2)) * scale + offset
        self.assert_exact(*_split(pts, [0.02, 0.3][seed % 2], seed))
        self.assert_exact(pts[:40], rng.random((300, 2)) * 3 * scale + offset - scale)

    @pytest.mark.parametrize("cone", [Cone.quadrant(), Cone.half_plane(), Cone.plane()],
                             ids=["quadrant", "half_plane", "plane"])
    @pytest.mark.parametrize("frac", [0.01, 0.2, 0.7])
    def test_sector_lattices(self, cone, frac):
        # the plane's arc grid is periodic: its last angle neighbours the first
        body = SlopeBody.sector_disk(cone, 1.0, 24, 64)
        self.assert_exact(*_split(body.samples, frac, 7))

    @pytest.mark.parametrize("vertices", [[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                                          [(-1.0, 0.0), (1.0, -0.5), (0.5, 1.0)],
                                          [(0.0, 0.0), (1.0, 2.0)],
                                          [(0.0, 1.0), (0.0, 2.0)]],
                             ids=["square", "triangle", "segment", "vertical_segment"])
    @pytest.mark.parametrize("frac", [0.05, 0.5])
    def test_polygon_and_segment_lattices(self, vertices, frac):
        body = SlopeBody.polygon(vertices, n_samples=1500)
        self.assert_exact(*_split(body.samples, frac, 3))

    def test_duplicates_and_a_single_hit(self):
        pts = np.random.default_rng(1).integers(0, 6, (400, 2)).astype(float)
        self.assert_exact(*_split(pts, 0.1, 2))
        assert self.assert_exact(pts[:1], pts) > 0.0
        assert envelope._farthest_nearest(pts[:1], np.repeat(pts[:1], 5, axis=0)) == 0.0

    def test_all_hit_and_no_hit(self):
        body = SlopeBody.sector_disk(Cone.quadrant(), 1.0, 8, 8)
        assert envelope._farthest_nearest(body.samples, body.samples[:0]) == 0.0
        assert envelope._farthest_nearest(body.samples[:0], body.samples) == math.inf
        pts = quad_cloud(radius=1.5, n_ang=60, n_rad=21)
        field = k_envelope(restricted_conjugate(pts, _paraboloid(pts), body),
                           ((-1.0, 1.0), (-1.0, 1.0)), 0.05)
        assert field.range_hausdorff(np.zeros(field.phi.shape, dtype=bool)) == (math.inf, 0)

    @pytest.mark.parametrize("queries_per_block, pairs", [(1, 1), (7, 50), (64, 10 ** 6)])
    def test_blocks_do_not_change_results(self, monkeypatch, queries_per_block, pairs):
        # ragged query blocks in the bound pass and in every batch, and
        # batches cut at as few as one (query, site) pair
        monkeypatch.setattr(envelope, "_NEAREST_QUERIES", queries_per_block)
        monkeypatch.setattr(envelope, "_BLOCK", pairs)
        body = SlopeBody.sector_disk(Cone.plane(), 1.0, 24, 64)
        for frac, seed in ((0.01, 7), (0.2, 8)):
            self.assert_exact(*_split(body.samples, frac, seed))
        pts = np.random.default_rng(4).random((500, 2))
        self.assert_exact(*_split(pts, 0.05, 4))

    def test_scratch_memory_at_130k_queries(self):
        # the `envelope` verb's plane body, split as range_hausdorff splits
        # it: about 130k unachieved samples and 700 achieved ones
        body = SlopeBody.sector_disk(Cone.plane(), 1.0, 256, 512)
        sites, queries = _split(body.samples, 0.005, 6)
        tracemalloc.start()
        try:
            envelope._farthest_nearest(sites, queries)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the bounds take 1 MB and each pass a few arrays of 2^14 queries or
        # 2^18 pairs; with copies of the queries and a bound pass over all
        # of them at once the peak was 11 MB
        assert peak < 4 * 2 ** 20

    def test_sparse_hits_far_apart(self):
        # 40 hits among 40k samples: the answer is many spacings
        body = SlopeBody.sector_disk(Cone.quadrant(), 1.0, 160, 256)
        sites, queries = _split(body.samples, 1e-3, 5)
        assert self.assert_exact(sites, queries) >= 10 * body.spacing


class TestContactData:
    @staticmethod
    def grid_samples():
        xs = np.linspace(-1.5, 1.5, 61)
        gx, gy = np.meshgrid(xs, xs)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        vals = 0.5 * np.einsum("ij,ij->i", pts, pts)
        hess = np.tile(np.eye(2), (len(pts), 1, 1))
        return pts, vals, hess

    def test_interior_slope(self):
        pts, vals, hess = self.grid_samples()
        cd = contact_data(pts, vals, DISK, (0.3, 0.4), x=(0.3, 0.4), hessians=hess)
        assert len(cd.contact_points) == 1
        assert np.linalg.norm(cd.contact_points[0] - [0.3, 0.4]) <= 0.05
        assert len(cd.normal_generators) == 0  # interior: N = {0}
        assert np.allclose(cd.witness.hessian, np.eye(2))

    def test_boundary_slope_with_normal_ray(self):
        pts, vals, hess = self.grid_samples()
        cd = contact_data(pts, vals, DISK, (1.0, 0.0), x=(2.0, 0.0), hessians=hess)
        assert np.allclose(cd.contact_points[0], [1.0, 0.0], atol=0.05)
        assert np.allclose(cd.normal_generators, [[1.0, 0.0]])
        assert cd.witness.feasible
        assert np.allclose(cd.witness.normal_part, [1.0, 0.0], atol=0.05)
        assert cd.witness.lambdas[0] == pytest.approx(1.0)

    def test_double_well_symmetric_pair(self):
        seg = SlopeBody.polygon([(-1.0, 0.0), (1.0, 0.0)], n_samples=800)
        xs = np.linspace(-2.0, 2.0, 1601)
        pts = np.column_stack([xs, np.zeros_like(xs)])
        vals = xs ** 4 - xs ** 2
        hess = np.zeros((len(pts), 2, 2))
        hess[:, 0, 0] = 12 * xs ** 2 - 2.0
        cd = contact_data(pts, vals, seg, (0.0, 0.0), x=(0.0, 0.0), hessians=hess,
                          tol_contact=1e-9)
        touched = np.sort(cd.contact_points[:, 0])
        assert touched[0] == pytest.approx(-1.0 / math.sqrt(2.0), abs=2e-3)
        assert touched[-1] == pytest.approx(1.0 / math.sqrt(2.0), abs=2e-3)
        assert cd.witness.feasible
        assert np.allclose(np.sort(cd.witness.lambdas), [0.5, 0.5], atol=1e-6)

    def test_hypothesis_failure_reported_not_raised(self):
        # linear u: for slopes other than xi0 the contact sits on the far
        # boundary of the sample cloud and no witness reproduces interior x
        pts, _, hess = self.grid_samples()
        vals = pts @ np.array([0.4, 0.0])
        cd = contact_data(pts, vals, DISK, (0.0, 0.5), x=(0.0, 0.0), hessians=hess)
        assert cd.witness is not None
        assert not cd.witness.feasible

    def test_slope_outside_body_rejected(self):
        pts, vals, _ = self.grid_samples()
        with pytest.raises(ValueError):
            contact_data(pts, vals, DISK, (2.0, 0.0))


class TestCheckC11:
    def test_quadratic_lipschitz_bound(self):
        # analytic envelope has Lipschitz gradient constant 1; a fine slope
        # grid keeps the discrete quotient within the 1 + 5h budget
        pts = quad_cloud(radius=2.0, n_ang=240, n_rad=101)
        vals = 0.5 * np.einsum("ij,ij->i", pts, pts)
        body = SlopeBody.sector_disk(Cone.plane(), 1.0, 512, 2048)
        conj = restricted_conjugate(pts, vals, body)
        h = 0.1
        field = k_envelope(conj, ((-1.8, 1.8), (-1.8, 1.8)), h)
        rep = check_c11(field)
        assert rep.lip_grad <= 1.0 + 5.0 * h
        assert rep.range_hausdorff <= 2.0 * max(body.spacing, h)
        assert rep.convexity_violation <= 1e-12

    def test_linear_degenerate_range_flagged(self):
        pts = quad_cloud()
        vals = pts @ np.array([0.3, 0.1])
        conj = restricted_conjugate(pts, vals, DISK)
        field = k_envelope(conj, ((-1.0, 1.0), (-1.0, 1.0)), 0.1)
        rep = check_c11(field)
        assert rep.n_distinct_slopes <= 4
        # single-point gradient range: distance to the far side of the disk
        assert rep.range_hausdorff >= 0.5

    def test_field_dump_columns(self, tmp_path):
        pts = quad_cloud(n_ang=40, n_rad=11)
        vals = 0.5 * np.einsum("ij,ij->i", pts, pts)
        body = SlopeBody.sector_disk(Cone.plane(), 1.0, 16, 16)
        conj = restricted_conjugate(pts, vals, body)
        field = k_envelope(conj, ((-0.5, 0.5), (-0.5, 0.5)), 0.25)
        out = tmp_path / "field.csv"
        field.dump_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "x,y,phi,xi1,xi2"
