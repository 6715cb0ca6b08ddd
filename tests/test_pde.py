"""Fan meshes and the weighted / anisotropic Neumann solves."""

import numpy as np
import pytest

from isocone.cone_weight import Cone, HomWeight
from isocone.envelope import SlopeBody
from isocone.geometry import StarSet
from isocone.pde import (
    AnisotropicMode,
    MeshQualityError,
    SolverError,
    TriMesh,
    WeightedMode,
    fan_lattice,
    fan_triangulate,
    solve_neumann,
    triangulate_polygon,
    weighted_h1_error,
)

QUADRANT = Cone.quadrant()
HALF = Cone.half_plane()
W_XY = HomWeight.monomial(QUADRANT, 1, 1)
W_Y = HomWeight.monomial(HALF, 0, 1)


def eta4(thetas):
    return np.cos(4.0 * np.asarray(thetas))


class TestFanTriangulate:
    def test_cone_edges_on_axes(self):
        mesh = fan_triangulate(StarSet.ball(QUADRANT, 1024), 0.05)
        pts = mesh.vertices[np.unique(mesh.cone_edges.ravel())]
        on_axis = (np.abs(pts[:, 0]) <= 1e-12) | (np.abs(pts[:, 1]) <= 1e-12)
        assert bool(np.all(on_axis))

    def test_half_plane_cone_edges_on_line(self):
        mesh = fan_triangulate(StarSet.ball(HALF, 1024), 0.05)
        pts = mesh.vertices[np.unique(mesh.cone_edges.ravel())]
        assert np.max(np.abs(pts[:, 1])) <= 1e-12

    def test_quality_and_size(self):
        star = StarSet.perturbed_ball(QUADRANT, W_XY, 4096, 0.1, eta4)
        mesh = fan_triangulate(star, 0.02)
        assert mesh.min_angle_deg() >= 20.0
        assert mesh.max_diameter() <= 0.02 * (1.0 + 1e-9)

    def test_conforming_positive_orientation(self):
        mesh = fan_triangulate(StarSet.ball(QUADRANT, 512), 0.05)
        assert np.all(mesh.areas() > 0)

    def test_full_plane_mesh_has_no_cone_edges(self):
        mesh = fan_triangulate(StarSet.ball(Cone.plane(), 1024), 0.05)
        assert len(mesh.cone_edges) == 0
        # free edges form one closed loop over the outer ring
        assert len(mesh.free_edges) == len(np.unique(mesh.free_edges.ravel()))

    def test_infeasible_angle_bound_raises(self):
        # steep shear (mode-6 bump at amplitude 0.2) cannot meet 20 degrees
        star = StarSet.perturbed_ball(QUADRANT, W_XY, 4096, 0.2,
                                      lambda th: np.cos(6.0 * np.asarray(th)))
        with pytest.raises(MeshQualityError):
            fan_triangulate(star, 0.02, min_angle_deg=20.0)
        mesh = fan_triangulate(star, 0.02, min_angle_deg=15.0)
        assert mesh.min_angle_deg() >= 15.0

    @pytest.mark.parametrize("h", [0.1, 0.05])
    @pytest.mark.parametrize("periodic", [True, False])
    def test_strip_rule_matches_loop(self, periodic, h):
        # triangle order fixes the sparse assembly order and the factorization's rounding
        if periodic:
            star = StarSet.ball(Cone.plane(), 1024)
        else:
            star = StarSet.perturbed_ball(QUADRANT, W_XY, 1024, 0.1, eta4)
        mesh = fan_triangulate(star, h)
        rings = mesh.rings
        first = rings[1]
        n0 = len(first) if periodic else len(first) - 1
        tris = [(0, first[j], first[(j + 1) % len(first)]) for j in range(n0)]
        for i in range(1, len(rings) - 1):
            inner, outer = rings[i], rings[i + 1]
            for s in range(n0):
                a = [inner[(s * i + j) % len(inner)] for j in range(i + 1)]
                b = [outer[(s * (i + 1) + j) % len(outer)] for j in range(i + 2)]
                tris += [(a[j], b[j], b[j + 1]) for j in range(i + 1)]
                tris += [(a[j], b[j + 1], a[j + 1]) for j in range(i)]
        assert np.array_equal(mesh.triangles, np.array(tris))

    def test_polygon_mesh_square(self):
        mesh = triangulate_polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)], 0.05)
        assert mesh.min_angle_deg() >= 44.9
        assert len(mesh.cone_edges) == 0
        assert np.all(mesh.areas() > 0)
        on_boundary = mesh.vertices[np.unique(mesh.free_edges.ravel())]
        assert np.allclose(np.max(np.abs(on_boundary), axis=1), 1.0, atol=1e-12)


def _third_vertices(mesh, edges):
    """The vertex opposite each boundary edge in its one triangle."""
    tri = np.sort(mesh.triangles, axis=1)
    out = []
    for a, b in edges:
        rows = tri[np.isin(tri, [a, b]).sum(axis=1) == 2]
        assert len(rows) == 1
        out.append(next(v for v in rows[0] if v not in (a, b)))
    return np.array(out)


def _assert_outward(mesh, edges, normals):
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-14)
    mid = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    away = np.einsum("ij,ij->i", mesh.vertices[_third_vertices(mesh, edges)] - mid, normals)
    assert np.all(away < 0)


class TestBoundaryNormals:
    @pytest.mark.parametrize("cone", [QUADRANT, Cone.sector(np.pi / 3, 0.3)])
    def test_wedge_fan_mesh(self, cone):
        mesh = fan_triangulate(StarSet.ball(cone, 1024), 0.05)
        for edges in (mesh.free_edges, mesh.cone_edges, mesh.cone_edges[:, ::-1]):
            _assert_outward(mesh, edges, mesh.boundary_outward_normals(edges))
        n_lo, n_hi = cone.inward_normals()
        ends = mesh.vertices[mesh.cone_edges]
        on_lo = np.all(np.abs(ends @ n_lo) <= 1e-12, axis=1)
        expected = np.where(on_lo[:, None], -n_lo, -n_hi)
        assert 0 < on_lo.sum() < len(on_lo)
        assert np.allclose(mesh.boundary_outward_normals(mesh.cone_edges), expected,
                           atol=1e-14)

    def test_polygon_mesh(self):
        mesh = triangulate_polygon([(0.0, -1.0), (1.2, 0.1), (0.3, 1.0), (-0.9, 0.4)], 0.1)
        _assert_outward(mesh, mesh.free_edges, mesh.boundary_outward_normals(mesh.free_edges))


class TestPolygonLattice:
    @pytest.mark.parametrize("k", [1, 2, 7])
    @pytest.mark.parametrize("verts", [[(-1, -1), (1, -1), (1, 1), (-1, 1)],
                                       [(0.1, -1.0), (1.2, 0.1), (0.3, 1.0), (-0.9, 0.4),
                                        (-0.7, -0.6)]])
    def test_fan_lattice_matches_loop(self, verts, k):
        v = np.asarray(verts, dtype=float)
        c = v.mean(axis=0)
        node_points = {}  # first appearance order, keyed by exact coordinates
        for s in range(len(v)):
            ea, eb = v[s] - c, v[(s + 1) % len(v)] - c
            for i in range(k + 1):
                for j in range(k + 1 - i):
                    p = c + (i / k) * ea + (j / k) * eb
                    node_points.setdefault(tuple(p), []).append((s, i, j))
        points, ids = fan_lattice(v, k)
        assert np.array_equal(points, np.array(list(node_points)))
        for n, nodes in enumerate(node_points.values()):
            assert all(ids[node] == n for node in nodes)
        assert np.sum(ids >= 0) == sum(len(nodes) for nodes in node_points.values())

    def test_free_edges_close_one_ccw_loop(self):
        verts = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
        mesh = triangulate_polygon(verts, 0.1)
        free = mesh.free_edges
        # each edge starts where the previous one ends, and the last closes the loop
        assert np.array_equal(free[:, 0], np.roll(free[:, 1], 1))
        assert len(np.unique(free[:, 0])) == len(free)
        p = mesh.vertices[free[:, 0]]
        q = mesh.vertices[free[:, 1]]
        assert 0.5 * np.sum(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]) == pytest.approx(4.0)
        # each free edge is a side of exactly one triangle
        tri = mesh.triangles
        sides = np.sort(np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]), axis=1)
        keys, counts = np.unique(sides, axis=0, return_counts=True)
        owners = {tuple(k): c for k, c in zip(keys.tolist(), counts)}
        assert all(owners[tuple(e)] == 1 for e in np.sort(free, axis=1).tolist())
        assert sum(c == 1 for c in counts) == len(free)


class TestWeightedSolve:
    def test_exact_ball_solution_and_datum(self):
        star = StarSet.ball(QUADRANT, 4096)
        mesh = fan_triangulate(star, 0.04)
        field = solve_neumann(mesh, WeightedMode(W_XY))
        assert field.b_E == pytest.approx(W_XY.D, abs=5e-3)
        err = weighted_h1_error(field, lambda p: p, W_XY)
        assert err <= 0.2 * 0.04  # C * h with a generous constant

    def test_h_refinement_order(self):
        star = StarSet.ball(QUADRANT, 4096)
        errs = []
        for h in (0.08, 0.04, 0.02):
            mesh = fan_triangulate(star, h)
            field = solve_neumann(mesh, WeightedMode(W_XY))
            errs.append(weighted_h1_error(field, lambda p: p, W_XY))
        assert errs[0] / errs[1] >= 1.8
        assert errs[1] / errs[2] >= 1.8

    def test_compatibility_audit(self):
        star = StarSet.perturbed_ball(QUADRANT, W_XY, 2048, 0.1, eta4)
        mesh = fan_triangulate(star, 0.03)
        # reassemble the right-hand side exactly as the solver does
        field = solve_neumann(mesh, WeightedMode(W_XY))
        assert field.residual <= 1e-12

    def test_weighted_mean_zero_gauge(self):
        star = StarSet.ball(QUADRANT, 1024)
        mesh = fan_triangulate(star, 0.05)
        field = solve_neumann(mesh, WeightedMode(W_XY))
        mids = mesh.edge_midpoints()
        w_mid = W_XY(mids.reshape(-1, 2)).reshape(-1, 3)
        u_mid = field.values[mesh.triangles][:, [1, 2, 0]] / 2.0 \
            + field.values[mesh.triangles][:, [2, 0, 1]] / 2.0
        integral = float(np.sum((mesh.areas() / 3.0)[:, None] * w_mid * u_mid))
        assert abs(integral) <= 1e-10

    def test_symmetry_of_symmetric_data(self):
        star = StarSet.ball(QUADRANT, 4096)
        mesh = fan_triangulate(star, 0.04)
        field = solve_neumann(mesh, WeightedMode(W_XY))
        # mirror across the bisector theta -> pi/2 - theta maps the
        # structured rings onto themselves with reversed angular index
        for ids in mesh.rings[1:]:
            vals = field.values[ids]
            assert np.max(np.abs(vals - vals[::-1])) <= 1e-8

    @pytest.mark.parametrize("n_verts, tris, free", [
        (6, [[0, 1, 2], [3, 4, 5]], [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]),
        (4, [[0, 1, 2]], [[0, 1], [1, 2], [2, 0]]),  # vertex 3 is in no triangle
    ], ids=["two_triangles", "unused_vertex"])
    def test_disconnected_mesh_rejected(self, n_verts, tris, free):
        verts = np.array([[0.3, 0.3], [0.5, 0.3], [0.3, 0.5],
                          [1.0, 1.0], [1.3, 1.0], [1.0, 1.3]])[:n_verts]
        mesh = TriMesh(verts, np.array(tris), np.array(free), np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(SolverError):
            solve_neumann(mesh, WeightedMode(W_XY))

    def test_half_plane_ball(self):
        star = StarSet.ball(HALF, 4096)
        mesh = fan_triangulate(star, 0.04)
        field = solve_neumann(mesh, WeightedMode(W_Y))
        err = weighted_h1_error(field, lambda p: p, W_Y)
        assert err <= 0.25 * 0.04


class TestAnisotropicSolve:
    def test_unit_disk_radial_solution(self):
        star = StarSet.ball(Cone.plane(), 4096)
        mesh = fan_triangulate(star, 0.04)
        body = SlopeBody.disk(1.0, 64, 128)
        field = solve_neumann(mesh, AnisotropicMode(body))
        assert field.b_E == pytest.approx(2.0, abs=5e-3)
        err = weighted_h1_error(field, lambda p: p)
        assert err <= 0.5 * 0.04

    def test_square_wulff_solution(self):
        body = SlopeBody.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
        mesh = triangulate_polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)], 0.05)
        field = solve_neumann(mesh, AnisotropicMode(body))
        assert field.b_E == pytest.approx(2.0, abs=1e-12)
        err = weighted_h1_error(field, lambda p: p)
        assert err <= 0.8 * 0.05

    def test_mesh_csv_dump(self, tmp_path):
        mesh = fan_triangulate(StarSet.ball(QUADRANT, 256), 0.2)
        field = solve_neumann(mesh, WeightedMode(W_XY))
        mesh.dump_csv(tmp_path, field.values)
        assert (tmp_path / "mesh_vertices.csv").exists()
        assert (tmp_path / "mesh_triangles.csv").exists()
        assert (tmp_path / "mesh_values.csv").exists()
