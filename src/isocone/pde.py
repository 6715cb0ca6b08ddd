"""Piecewise-linear finite elements for the Neumann problems seeding the coupling.

Weighted form on a set E inside the cone (outer normal nu):

    div(w grad u) = w * b_E  in E,   w du/dnu = w on dE inside the cone,
                                     w du/dnu = 0 on dE on the cone boundary,

with b_E = Per_w(E)/w(E).  The anisotropic form replaces the weight by 1 and
the boundary datum by the support function of the outer normal.  In both
cases b_E is recomputed from the mesh's own quadrature so the discrete
right-hand side is orthogonal to constants to solver precision; solutions
are gauge-fixed to weighted mean zero.  The problem is named by its mode,
``WeightedMode`` or ``AnisotropicMode``, which the coupling passes through.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .cone_weight import HomWeight, unit
from .geometry import StarSet, emit_csv

if TYPE_CHECKING:
    from .envelope import SlopeBody


class MeshQualityError(RuntimeError):
    """The requested resolution cannot meet the minimum-angle bound."""


class CompatibilityError(RuntimeError):
    """The assembled right-hand side is not orthogonal to constants."""


class SolverError(RuntimeError):
    """The stiffness matrix is singular beyond the constant gauge (disconnected mesh)."""


_GAUSS2 = ((0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)))


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, rounded as np.linalg.norm rounds one vector."""
    return np.sqrt(d[:, None, :] @ d[:, :, None]).reshape(-1)


@dataclasses.dataclass
class TriMesh:
    """Conforming triangle mesh with tagged boundary edges.

    ``free_edges`` lie on the part of the boundary inside the open cone;
    ``cone_edges`` lie on the cone's boundary rays (empty for full-plane
    sets).  ``rings`` records the structured vertex layout of fan meshes
    (list of vertex-id arrays, innermost first) when available.  Triangles
    are reordered counterclockwise on construction, so every area is
    positive.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    free_edges: np.ndarray
    cone_edges: np.ndarray
    rings: list | None = None

    def __post_init__(self):
        flip = self.areas() < 0
        self.triangles = np.where(flip[:, None], self.triangles[:, [0, 2, 1]], self.triangles)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def edge_midpoints(self) -> np.ndarray:
        """(T, 3, 2) midpoints of the edges opposite each local vertex."""
        p = self.vertices[self.triangles]
        return 0.5 * np.stack([p[:, 1] + p[:, 2], p[:, 0] + p[:, 2], p[:, 0] + p[:, 1]],
                              axis=1)

    def midpoint_rule(self):
        """Edge-midpoint triangle quadrature (exact for quadratics).

        Returns nodes (3T, 2), triangle by triangle in the order of
        :meth:`edge_midpoints`, and weights (3T,), a third of the area each.
        """
        return self.edge_midpoints().reshape(-1, 2), np.repeat(self.areas() / 3.0, 3)

    def free_edge_gauss(self):
        """Two-point Gauss quadrature on the free edges.

        Returns nodes (2E, 2), edge by edge, with weights (2E,), half the
        edge length each, and t (2E,), the node's fraction of the way from
        the edge's first vertex to its second.
        """
        pa = self.vertices[self.free_edges[:, 0]]
        pb = self.vertices[self.free_edges[:, 1]]
        t = np.tile(_GAUSS2, len(pa))
        d = np.repeat(pb - pa, 2, axis=0)
        nodes = np.repeat(pa, 2, axis=0) + t[:, None] * d
        return nodes, 0.5 * np.linalg.norm(d, axis=1), t

    def min_angle_deg(self) -> float:
        p = self.vertices[self.triangles]
        angles = []
        for i in range(3):
            a = p[:, (i + 1) % 3] - p[:, i]
            b = p[:, (i + 2) % 3] - p[:, i]
            na = np.linalg.norm(a, axis=1)
            nb = np.linalg.norm(b, axis=1)
            cosang = np.clip(np.einsum("ij,ij->i", a, b) / (na * nb), -1.0, 1.0)
            angles.append(np.degrees(np.arccos(cosang)))
        return float(np.min(angles))

    def max_diameter(self) -> float:
        p = self.vertices[self.triangles]
        e = [np.linalg.norm(p[:, (i + 1) % 3] - p[:, i], axis=1) for i in range(3)]
        return float(np.max(e))

    def boundary_outward_normals(self, edges: np.ndarray) -> np.ndarray:
        """Unit outward normals for the given boundary edges.

        Triangles are counterclockwise, so a boundary edge (a, b) that some
        triangle traverses from a to b has the interior on its left and the
        outward normal (t_y, -t_x) / |t| with t = b - a; an edge given the
        other way round gets the opposite normal.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        t = self.vertices[edges[:, 1]] - self.vertices[edges[:, 0]]
        n = np.column_stack([t[:, 1], -t[:, 0]])
        n /= _row_norms(n)[:, None]
        nv = self.n_vertices
        directed = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        forward = np.isin(edges[:, 0] * nv + edges[:, 1], directed[:, 0] * nv + directed[:, 1])
        return np.where(forward[:, None], n, -n)

    def dump_csv(self, directory, values=None) -> None:
        """Write mesh_vertices.csv, mesh_triangles.csv and mesh_values.csv."""
        emit_csv(os.path.join(directory, "mesh_vertices.csv"), ("x", "y"),
                 self.vertices.tolist())
        emit_csv(os.path.join(directory, "mesh_triangles.csv"), ("v0", "v1", "v2"),
                 self.triangles.tolist())
        if values is not None:
            emit_csv(os.path.join(directory, "mesh_values.csv"), ("u",),
                     np.asarray(values)[:, None].tolist())


def _strip_triangles(inner, outer, n_wedges, ring):
    """Mirror-symmetric triangulation of the strip between rings ``ring`` and
    ``ring + 1`` of a graded fan mesh (the outer ring carries one extra node
    per super-wedge; ring 0 is the origin alone).  Wedge s pairs inner nodes
    a_j = inner[s ring + j] with outer nodes b_j = outer[s (ring + 1) + j],
    indices taken cyclically, and gives first the ``ring + 1`` triangles
    (a_j, b_j, b_j+1), then the ``ring`` triangles (a_j, b_j+1, a_j+1).  The
    pattern maps onto itself under angular reflection, so symmetric data
    produce symmetric discrete solutions.  Returns an (n, 3) int64 array.
    """
    s = np.arange(n_wedges)[:, None]
    j = np.arange(ring + 2)
    a = inner[(s * ring + j[:-1]) % len(inner)]
    b = outer[(s * (ring + 1) + j) % len(outer)]
    up = np.stack([a, b[:, :-1], b[:, 1:]], axis=-1)
    down = np.stack([a[:, :-1], b[:, 1:-1], a[:, 1:]], axis=-1)
    return np.concatenate([up, down], axis=1).reshape(-1, 3)


def fan_triangulate(star: StarSet, target_h: float, min_angle_deg: float = 20.0) -> TriMesh:
    """Graded fan/annular triangulation of a star-shaped set from the origin.

    Ring i carries proportionally more angular nodes, which keeps cells
    roughly isotropic all the way to the vertex.  Ring 0 is the origin, and
    every strip between rings i and i + 1, the center fan included, is
    triangulated by :func:`_strip_triangles`.  Boundary edges on the outer
    polar curve are tagged FREE; for wedge cones the two radial chains (the
    first and the last node of each ring) are tagged CONE (they lie on the
    boundary rays exactly).
    """
    cone = star.cone
    r_max = float(star.radii.max())
    periodic = star.periodic
    qw = star.quad_weights()
    dr_b = star.radial_derivative()
    arc_len = float(qw @ np.sqrt(star.radii ** 2 + dr_b ** 2))

    scale = 1.0
    last_error = None
    for _attempt in range(4):
        n_r = max(2, int(math.ceil(math.sqrt(2.0) * scale * r_max / target_h)))
        n0 = max(3 if periodic else 2,
                 int(math.ceil(math.sqrt(2.0) * scale * arc_len / (target_h * n_r))))
        verts = [np.zeros((1, 2))]
        rings = [np.array([0])]
        vid = 1
        for i in range(1, n_r + 1):
            count = n0 * i
            if periodic:
                angles = 2.0 * math.pi * np.arange(count) / count
            else:
                angles = np.linspace(cone.angle_lo, cone.angle_hi, count + 1)
            rad = (i / n_r) * star.radius_at(angles)
            pts = rad[:, None] * unit(angles)
            ids = np.arange(vid, vid + len(angles))
            verts.append(pts)
            rings.append(ids)
            vid += len(angles)
        vertices = np.vstack(verts)

        triangles = np.concatenate(
            [_strip_triangles(rings[i], rings[i + 1], n0, i) for i in range(n_r)])

        outer = rings[-1]
        if periodic:
            free = np.column_stack([outer, np.roll(outer, -1)])
            cone_edges = np.zeros((0, 2), dtype=np.int64)
        else:
            free = np.column_stack([outer[:-1], outer[1:]])
            chains = [np.array([ring[end] for ring in rings]) for end in (0, -1)]
            cone_edges = np.concatenate([np.column_stack([c[:-1], c[1:]]) for c in chains])

        mesh = TriMesh(vertices, triangles, free, cone_edges, rings)
        if mesh.max_diameter() <= target_h * (1.0 + 1e-9):
            if mesh.min_angle_deg() >= min_angle_deg:
                return mesh
            last_error = MeshQualityError(
                f"min angle {mesh.min_angle_deg():.2f} deg below {min_angle_deg}")
        scale *= 1.2
    if last_error is not None:
        raise last_error
    raise MeshQualityError("could not satisfy the diameter bound")


def fan_lattice(vertices, k: int):
    """Barycentric lattice of step 1/k on the fan of a polygon about its centroid.

    Fan triangle s is (centroid, v[s], v[s+1]); its node (i, j), i + j <= k,
    sits at centroid + (i/k) (v[s] - centroid) + (j/k) (v[s+1] - centroid).
    Neighbouring fan triangles share the nodes of their common spoke.
    Returns the distinct points in order of first appearance (fan by fan,
    nodes in (i, j) lexicographic order) and ids (len(vertices), k+1, k+1),
    the point id of node (i, j) of fan s (-1 where i + j > k).
    """
    v = np.asarray(vertices, dtype=float)
    centroid = v.mean(axis=0)
    r = np.arange(k + 1)
    node = r[:, None] + r <= k
    i, j = np.nonzero(node)
    ea = v - centroid
    eb = np.roll(ea, -1, axis=0)
    pts = (centroid + (i / k)[None, :, None] * ea[:, None, :]
           + (j / k)[None, :, None] * eb[:, None, :])
    fresh = np.repeat(node[None], len(v), axis=0)
    fresh[1:, :, 0] = False  # spoke to v[s], met as (0, t) in fan s - 1
    fresh[-1, 0, :] = False  # spoke to v[0], met as (t, 0) in fan 0
    ids = np.full(fresh.shape, -1, dtype=np.int64)
    ids[fresh] = np.arange(fresh.sum())
    for s in range(1, len(v)):
        ids[s, :, 0] = ids[s - 1, 0, :]
    ids[-1, 0, :] = ids[0, :, 0]
    return pts[fresh[:, i, j]], ids


def triangulate_polygon(vertices, target_h: float) -> TriMesh:
    """Uniform lattice mesh of a convex polygon (fan about the centroid).

    Every fan triangle is split along its :func:`fan_lattice`, so element
    quality equals the fan triangles' own quality.  All boundary edges are
    tagged FREE; they are the lattice edges with i + j = k, in one loop that
    runs from v[0] the way the vertices do.
    """
    v = np.asarray(vertices, dtype=float)
    centroid = v.mean(axis=0)
    k = max(1, int(math.ceil(max(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).max(),
                                 np.linalg.norm(v - centroid, axis=1).max()) / target_h)))
    points, ids = fan_lattice(v, k)
    r = np.arange(k)
    iu, ju = np.nonzero(r[:, None] + r <= k - 1)  # cells with an upward triangle
    idn, jdn = np.nonzero(r[:, None] + r <= k - 2)  # and those with a downward one
    tris = np.concatenate([
        np.stack([ids[:, iu, ju], ids[:, iu + 1, ju], ids[:, iu, ju + 1]], axis=-1),
        np.stack([ids[:, idn + 1, jdn], ids[:, idn + 1, jdn + 1], ids[:, idn, jdn + 1]],
                 axis=-1)], axis=1)
    free = np.stack([ids[:, k - r, r], ids[:, k - r - 1, r + 1]], axis=-1)
    return TriMesh(points, tris.reshape(-1, 3), free.reshape(-1, 2),
                   np.zeros((0, 2), dtype=np.int64))


@dataclasses.dataclass(frozen=True)
class WeightedMode:
    weight: HomWeight


@dataclasses.dataclass(frozen=True)
class AnisotropicMode:
    body: SlopeBody


@dataclasses.dataclass
class NodalField:
    """P1 solution values (weighted mean zero) and the datum it solved."""

    mesh: TriMesh
    values: np.ndarray
    b_E: float
    # always 1 (one direct solve); kept only because perfbench/spans.py sums it
    # into ``pde.pcg_iters``, and goes when the stage trace moves into the package
    iterations: int
    residual: float  # ||A u - rhs|| / ||rhs|| of the returned values


def _p1_gradients(mesh: TriMesh):
    p = mesh.vertices[mesh.triangles]
    grads = np.empty((len(mesh.triangles), 3, 2))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * mesh.areas())[:, None, None]
    return grads


def solve_neumann(mesh: TriMesh, mode: WeightedMode | AnisotropicMode) -> NodalField:
    """Galerkin P1 solve of the weighted or anisotropic Neumann problem.

    Triangle quadrature is the 3-point edge-midpoint rule (exact for
    quadratics); free-edge data uses 2-point Gauss.  The datum b_E is the
    ratio of the assembled boundary and volume weights, which forces the
    discrete compatibility identity.  One sparse LU factorization of the
    stiffness matrix with the last node pinned gives u, which is then shifted
    to weighted mean zero.  A disconnected mesh raises :class:`SolverError`.
    """
    weighted = isinstance(mode, WeightedMode)
    grads = _p1_gradients(mesh)
    mids, mid_wq = mesh.midpoint_rule()
    if weighted:
        mid_wq = mid_wq * mode.weight(mids)
    tri_wq = mid_wq.reshape(-1, 3)  # quadrature weights per midpoint

    nv = mesh.n_vertices
    gg = np.einsum("tid,tjd->tij", grads, grads)
    k_loc = gg * tri_wq.sum(axis=1)[:, None, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.triangles, (1, 3)).reshape(-1)
    A = sparse.coo_matrix((k_loc.reshape(-1), (rows, cols)), shape=(nv, nv)).tocsr()

    # midpoint m_i (opposite vertex i) carries phi_j = 1/2 for j != i
    mass_vec = np.zeros(nv)
    load_loc = 0.5 * (tri_wq.sum(axis=1)[:, None] - tri_wq)
    np.add.at(mass_vec, mesh.triangles.reshape(-1), load_loc.reshape(-1))

    free_vec = np.zeros(nv)
    if weighted:
        nodes, half_len, t = mesh.free_edge_gauss()
        wg = half_len * mode.weight(nodes)
        np.add.at(free_vec, np.repeat(mesh.free_edges, 2, axis=0),
                  wg[:, None] * np.column_stack([1.0 - t, t]))
    else:
        edges = np.vstack([mesh.free_edges, mesh.cone_edges])
        half_len = 0.5 * _row_norms(mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]])
        datum = mode.body.support(mesh.boundary_outward_normals(edges))
        np.add.at(free_vec, edges, (half_len * datum)[:, None])

    total_mass = float(mass_vec.sum())
    total_free = float(free_vec.sum())
    b_E = total_free / total_mass
    rhs = free_vec - b_E * mass_vec
    if abs(rhs.sum()) > 1e-10 * np.abs(rhs).sum():
        raise CompatibilityError("right-hand side is not orthogonal to constants")

    n_parts, _ = connected_components(A, directed=False)
    if n_parts > 1:
        raise SolverError(f"mesh has {n_parts} connected components, not one")
    # pin the gauge at the last node; the rest of a connected mesh is nonsingular
    lu = splu(A[:-1, :-1].tocsc(), permc_spec="MMD_AT_PLUS_A")
    u = np.append(lu.solve(rhs[:-1]), 0.0)
    u -= float(mass_vec @ u) / total_mass
    residual = float(np.linalg.norm(A @ u - rhs) / np.linalg.norm(rhs))
    return NodalField(mesh, u, b_E, 1, residual)


def weighted_h1_error(field: NodalField, grad_exact, weight: HomWeight | None = None) -> float:
    """Weighted H1-seminorm distance between the P1 field and an exact gradient.

    ``grad_exact`` maps an (n, 2) array of points to exact gradients; the
    comparison uses one value per triangle at the three edge midpoints.
    """
    mesh = field.mesh
    grads = _p1_gradients(mesh)
    gu = np.einsum("tid,ti->td", grads, field.values[mesh.triangles])
    mids, wq = mesh.midpoint_rule()
    if weight is not None:
        wq = wq * weight(mids)
    ge = grad_exact(mids).reshape(-1, 3, 2)
    diff = np.linalg.norm(gu[:, None, :] - ge, axis=2) ** 2
    return math.sqrt(float(np.sum(wq * diff.ravel())))
