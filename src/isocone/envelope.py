"""Restricted convex envelopes with slopes constrained to a compact convex body.

Given samples of a function u on a region and a compact convex body K of
admissible slopes, the K-envelope is the supremum of affine functions with
slope in K lying below u.  Discretely, each sampled slope xi gets the best
intercept

    a(xi) = min over samples y of ( u(y) - xi . y ),

and the envelope is phi(x) = max over sampled slopes of a(xi) + xi . x.
The maximizing slope is the envelope's gradient wherever that argmax is
unique.  The conjugate on every body, and the argmax on polygons, run through
``_dense_min``, which scores each tile of queries only at the sites a bound
cannot rule out; the sector-disk argmax scores, on each slope ray, the three
radii around the crossing of the ray's gains with x . u.  Ties go to the
lowest index a kernel scores.  ``_dense_min`` keeps every site that ties its
minimum, so there that is the lowest index among exact optima; sector-disk
samples are numbered origin first, then angle-major, so the sector argmax
gives ties to the origin, then the lowest angle, then the lowest radius it
scores on that ray.

Slope bodies come in two flavors: polygons (vertex list, counterclockwise;
two vertices describe a segment) and sector-disks, i.e. the closure of
B_rho intersected with a cone (the full disk when the cone is the plane).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cone_weight import Cone, unit
from .geometry import _BLOCK, emit_csv
from .pde import fan_lattice

_TILE_SPLIT = 4  # cells along the longest side of a tile of _dense_min it splits into
_TILE_MIN_SITES = 1024  # _dense_min scans fewer sites than this untiled
_TILE_SLACK = 1e-11  # rounding slack of _dense_min's tile bound, per unit of score scale
_ANGLE_BLOCK = 16  # sector-disk angles per argmax bound
_BOUND_KNOTS = 64  # knots of the chord bound of one block
_HESS_WINDOW = 5  # grid nodes per side of the Hessian's least-squares window
_NORMAL_CONE_TOL = 1e-9  # distance within which a slope lies on a face of K
_NEAREST_SEED = 64  # queries of largest bound that _farthest_nearest resolves first
_NEAREST_QUERIES = 1 << 14  # queries per block of _farthest_nearest's passes
_NEAREST_MARGIN = 1e-9  # relative reach of _farthest_nearest's windows past a bound


@dataclasses.dataclass(frozen=True)
class SlopeBody:
    """Compact convex slope constraint with a finite sample grid.

    Sector-disk bodies carry ``polar_shape = (n_radial, n_angular)``, and
    polygons None; sector-disk samples are ordered origin first, then
    angle-major (each angle's nonzero radii, ascending), so their lowest
    index is the origin, then the lowest angle, then the lowest radius.
    """

    vertices: np.ndarray | None
    cone: Cone | None
    rho: float
    samples: np.ndarray
    spacing: float
    polar_shape: tuple | None = None

    # -- factories ----------------------------------------------------------

    @staticmethod
    def polygon(vertices, n_samples: int = 20_000) -> "SlopeBody":
        """Convex polygon from ccw vertices; a 2-point list gives a segment.

        Samples are a barycentric lattice on the fan triangulation about the
        centroid, so polygon vertices and edges are always sampled.
        """
        v = np.asarray(vertices, dtype=float)
        if len(v) < 2:
            raise ValueError("polygon needs at least two vertices")
        if np.all(v == v[0]):
            raise ValueError(f"polygon vertices all coincide at {v[0].tolist()}")
        if len(v) >= 3:
            e = np.roll(v, -1, axis=0) - v
            cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
            if np.any(cross < -1e-12 * np.max(np.abs(v))):
                raise ValueError("vertices must be counterclockwise and convex")
        if len(v) == 2:
            seg = v[1] - v[0]
            k = max(3, int(math.sqrt(2 * n_samples)))
            k += 1 - k % 2  # odd count keeps the midpoint slope in the grid
            ts = np.linspace(0.0, 1.0, k)
            samples = v[0] + ts[:, None] * seg
            spacing = float(np.linalg.norm(seg)) / (k - 1)
            return SlopeBody(v, None, 0.0, samples, spacing)
        k = max(2, int(math.ceil(math.sqrt(2.0 * n_samples / len(v)))))
        spokes_and_sides = np.vstack([v - v.mean(axis=0), v - np.roll(v, -1, axis=0)])
        spacing = max(np.linalg.norm(e) for e in spokes_and_sides) / k
        samples, _ids = fan_lattice(v, k)
        return SlopeBody(v, None, 0.0, samples, float(spacing))

    @staticmethod
    def sector_disk(cone: Cone, rho: float = 1.0, n_radial: int = 256,
                    n_angular: int = 512) -> "SlopeBody":
        """closure(B_rho cap cone) sampled on a polar grid.

        Both boundary rays and the outer arc are included; the grid spacing
        reported is the larger of the radial and outer-arc steps.
        """
        thetas = cone.arc_grid(n_angular)
        radii = np.linspace(0.0, rho, n_radial)
        samples = np.zeros((1 + n_angular * (n_radial - 1), 2))  # the origin, then r * u
        np.multiply(radii[None, 1:, None], unit(thetas)[:, None, :],
                    out=samples[1:].reshape(n_angular, n_radial - 1, 2))
        dr = radii[1] - radii[0]
        darc = rho * cone.arc_step(n_angular)
        return SlopeBody(None, cone, float(rho), samples,
                         float(max(dr, darc)), polar_shape=(n_radial, n_angular))

    # -- geometry -----------------------------------------------------------

    def support(self, v) -> np.ndarray | float:
        """Support function sup{v . x : x in K}; exact, positively 1-homogeneous."""
        v = np.asarray(v, dtype=float)
        single = v.ndim == 1
        vv = np.atleast_2d(v)
        if self.polar_shape is None:
            out = np.max(vv @ self.vertices.T, axis=1)
        else:
            # the full plane's arc is [0, 2 pi], so every direction is inside
            norm = np.hypot(vv[:, 0], vv[:, 1])
            phi = np.arctan2(vv[:, 1], vv[:, 0])
            lo, hi = self.cone.angle_lo, self.cone.angle_hi
            rel = np.mod(phi - lo, 2.0 * math.pi)
            inside = rel <= (hi - lo)
            gap = np.minimum(np.abs(_angdiff(phi, lo)), np.abs(_angdiff(phi, hi)))
            best = np.where(inside, 1.0, np.cos(gap))
            out = self.rho * norm * np.maximum(best, 0.0)
        return float(out[0]) if single else out

    def area(self) -> float:
        if self.polar_shape is None:
            v = self.vertices
            if len(v) == 2:
                return 0.0
            x, y = v[:, 0], v[:, 1]
            return 0.5 * float(np.abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
        return 0.5 * self.rho ** 2 * self.cone.opening

    def contains(self, pts, tol: float = 1e-9) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.polar_shape is not None:
            r_ok = np.hypot(pts[:, 0], pts[:, 1]) <= self.rho + tol
            return r_ok & self.cone.contains(pts, tol=tol)
        v = self.vertices
        if len(v) == 2:
            seg = v[1] - v[0]
            L2 = float(seg @ seg)
            t = np.clip((pts - v[0]) @ seg / L2, 0.0, 1.0)
            proj = v[0] + t[:, None] * seg
            return np.linalg.norm(pts - proj, axis=1) <= tol
        ok = np.ones(len(pts), dtype=bool)
        for i in range(len(v)):
            e = v[(i + 1) % len(v)] - v[i]
            n = np.array([-e[1], e[0]])  # inward for ccw
            ok &= (pts - v[i]) @ n >= -tol * max(1.0, np.linalg.norm(e))
        return ok

    def normal_cone(self, xi) -> np.ndarray:
        """Generators of the normal cone at xi (empty array means {0})."""
        xi = np.asarray(xi, dtype=float)
        if self.polar_shape is not None:
            return self._normal_cone_sector(xi, _NORMAL_CONE_TOL)
        return self._normal_cone_polygon(xi, _NORMAL_CONE_TOL)

    def _normal_cone_sector(self, xi, tol):
        r = float(np.linalg.norm(xi))
        gens = []
        if r <= tol:
            if self.cone.full_plane:
                return np.zeros((0, 2))
            lo, hi = self.cone.angle_lo, self.cone.angle_hi
            return np.array([unit(lo - math.pi / 2.0), unit(hi + math.pi / 2.0)])
        on_arc = abs(r - self.rho) <= tol
        if not self.cone.full_plane:
            lo, hi = self.cone.angle_lo, self.cone.angle_hi
            phi = math.atan2(xi[1], xi[0])
            on_lo = abs(_angdiff(phi, lo)) * r <= tol
            on_hi = abs(_angdiff(phi, hi)) * r <= tol
            if on_lo:
                gens.append(np.array([math.sin(lo), -math.cos(lo)]))
            if on_hi:
                gens.append(np.array([-math.sin(hi), math.cos(hi)]))
        if on_arc:
            gens.append(xi / r)
        return np.array(gens) if gens else np.zeros((0, 2))

    def _normal_cone_polygon(self, xi, tol):
        v = self.vertices
        if len(v) == 2:
            seg = v[1] - v[0]
            n = np.array([-seg[1], seg[0]])
            n = n / np.linalg.norm(n)
            axis = seg / np.linalg.norm(seg)
            if np.linalg.norm(xi - v[0]) <= tol:
                return np.array([n, -n, -axis])
            if np.linalg.norm(xi - v[1]) <= tol:
                return np.array([n, -n, axis])
            return np.array([n, -n])
        m = len(v)
        outward = []
        for i in range(m):
            e = v[(i + 1) % m] - v[i]
            n = np.array([e[1], -e[0]])
            outward.append(n / np.linalg.norm(n))
        for i in range(m):
            if np.linalg.norm(xi - v[i]) <= tol:
                return np.array([outward[(i - 1) % m], outward[i]])
        for i in range(m):
            a, b = v[i], v[(i + 1) % m]
            e = b - a
            t = float((xi - a) @ e) / float(e @ e)
            if -tol <= t <= 1.0 + tol:
                d = np.linalg.norm(xi - (a + t * e))
                if d <= tol:
                    return np.array([outward[i]])
        return np.zeros((0, 2))


def _angdiff(a, b):
    return (a - b + math.pi) % (2.0 * math.pi) - math.pi


@dataclasses.dataclass
class RestrictedConjugate:
    """Intercepts a(xi) = min_y (u(y) - xi . y) over the sampled region."""

    body: SlopeBody
    points: np.ndarray
    values: np.ndarray
    intercepts: np.ndarray
    argmin_index: np.ndarray

    def envelope_at(self, pts):
        """(phi, xi*, argmax slope index) at arbitrary points (exact argmax)."""
        return _argmax(self, np.atleast_2d(np.asarray(pts, dtype=float)))


def _dense_min(sites, f, queries):
    """min over sites p of f(p) - q . p for every query q, tile by tile.

    Returns the minima and the lowest site index attaining each: conjugates
    (sites are samples, queries slopes) and the polygon argmax (sites are
    slopes, f = -intercept).  A score is f - (q_0 p_0 + q_1 p_1) formed
    elementwise, not by BLAS, whose rounding depends on a product's shape;
    so it is one float in any tile.
    A tile of queries with centre c and half-widths w scores only the sites
    p with g(p) - g(p*) - sum_d w_d |p_d - p*_d| <= slack, g = f - c . p,
    p* = argmin g, which bounds s(q, p) - s(q, p*) below on the tile: every
    site tying a minimum is kept, in index order.  The slack, ``_TILE_SLACK``
    (max|f| + sum_d max|q_d| max|p_d|), is 1000 times the rounding of g, the
    bound and the scores (a few roundings of terms under 4 times that scale).
    A tile of m queries that kept n sites splits no further once scanning it
    fits one block, m * n <= ``_BLOCK``, or when it cannot split (one query,
    or zero width); under ``_TILE_MIN_SITES`` sites or with a non-finite
    input, one scan is untiled.  The kernel stores sites and queries by
    coordinate, as (d, n) arrays: a tile's bounds, g and the bound then
    reduce contiguous rows, about 5 to 13 times faster than the same
    reductions over the columns of (n, 2) rows (NumPy 2.4).
    """
    sites, queries = np.ascontiguousarray(sites.T), np.ascontiguousarray(queries.T)
    q_max = np.max(np.abs(queries), axis=1, initial=0.0)
    p_max = np.max(np.abs(sites), axis=1, initial=0.0)
    scale = np.max(np.abs(f), initial=0.0) + q_max @ p_max
    tiled = sites.shape[1] >= _TILE_MIN_SITES and np.isfinite(scale)
    return _tiled_min(sites, f, queries, _TILE_SLACK * scale if tiled else None)


def _tiled_min(sites, f, queries, slack):
    """``_dense_min`` on (d, n) sites and (d, m) queries with a tile slack
    (None: untiled), in ``_BLOCK`` blocks."""
    (d, m), n = queries.shape, sites.shape[1]
    vals, idx = np.empty(m), np.empty(m, dtype=np.int64)
    tiles = _tile_members(queries) if slack is not None and m * n > _BLOCK else []
    if len(tiles) > 1:
        for sel in tiles:
            q = np.take(queries, sel, axis=1)  # C-ordered, where queries[:, sel] is not
            lo, hi = q.min(axis=1), q.max(axis=1)
            g = f - (0.5 * (lo + hi)) @ sites
            best = np.argmin(g)
            gap = g - g[best] - (0.5 * (hi - lo)) @ np.abs(sites - sites[:, best:best + 1])
            keep = np.flatnonzero(gap <= slack)
            vals[sel], loc = _tiled_min(np.take(sites, keep, axis=1), f[keep], q, slack)
            idx[sel] = keep[loc]
        return vals, idx
    rows = max(1, _BLOCK // max(n * d, 1))  # the block and a product term
    score = np.empty((min(rows, m), n))
    for s0 in range(0, m, rows):
        q = queries[:, s0:s0 + rows, None]
        s = np.multiply(q[0], sites[0], out=score[:q.shape[1]])
        for k in range(1, d):
            s += q[k] * sites[k]
        np.subtract(f, s, out=s)
        loc = np.argmin(s, axis=1)
        vals[s0:s0 + len(s)], idx[s0:s0 + len(s)] = s[np.arange(len(s)), loc], loc
    return vals, idx


def _tile_members(queries):
    """Indices of the (d, m) queries per nonempty square cell, ``_TILE_SPLIT``
    along the longest side, in cell order."""
    lo = queries.min(axis=1)
    side = np.max(queries.max(axis=1) - lo) / _TILE_SPLIT
    if not side > 0:
        return [np.arange(queries.shape[1])]
    # one coordinate at a time through one float row: no (d, m) temporary
    tile = np.zeros(queries.shape[1], dtype=np.uint8)  # _TILE_SPLIT^d cells fit a byte
    cell = np.empty(queries.shape[1])
    for row, row_lo in zip(queries, lo):
        np.subtract(row, row_lo, out=cell)
        cell /= side
        np.minimum(cell, _TILE_SPLIT - 1, out=cell)
        tile *= _TILE_SPLIT
        tile += cell.astype(np.uint8)  # the cast truncates, which floors: cell >= 0
    # one-byte keys take NumPy's radix sort, several times faster on 10^5 keys
    order = np.argsort(tile, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(tile[order])) + 1)


def _argmax(conj: "RestrictedConjugate", pts):
    """(phi, xi*, slope index) at each point: the structured sweep on
    sector-disks, the dense argmax over all slope samples otherwise."""
    if conj.body.polar_shape is not None:
        return _sector_argmax(conj, pts)
    neg_val, best_idx = _dense_min(conj.body.samples, -conj.intercepts, pts)
    return -neg_val, conj.body.samples[best_idx], best_idx


def _sector_argmax(conj: "RestrictedConjugate", pts):
    """Structured argmax for sector-disk slope grids, pruned by block bounds.

    Along each slope ray the intercept a(r * u(theta)) is a pointwise min of
    lines in r, hence concave; a point x scores an angle by a binary search
    on the (monotone) score differences and the best of the three radii
    around the crossing.  The angles go in blocks of ``_ANGLE_BLOCK``, and a
    point scores all angles of a block in one pass (``_block_best``).  Each
    score is nondecreasing in c = x . u, so a block scores at most its
    blockwise-max column's conjugate at the block's largest c; that convex
    function is bounded by its chords between knots, plus a rounding slack,
    and the block's largest c is found among four of its angles
    (``_block_max_projection``).  The bound leaves out radius 0: its score
    is the origin's a0, which is every point's first best and wins its
    ties, so radius 0 never wins.
    Each point scores its most promising block first, then only the blocks
    whose bound reaches its best value so far, so a point the origin wins
    can skip every block.  c is formed elementwise (``_projections``), so it
    rounds the same for a point whichever points a pass scores with it.
    Ties go to the lowest slope index scored: the origin, then the lowest
    angle, then the lowest radius ``_block_best`` scores on that ray.
    """
    body = conj.body
    n_r, n_ang = body.polar_shape
    radii = np.linspace(0.0, body.rho, n_r)
    dr = radii[1] - radii[0]
    thetas = body.cone.arc_grid(n_ang)
    U = unit(thetas)
    a0 = conj.intercepts[0]
    cols = np.empty((n_ang, n_r))
    cols[:, 0] = a0
    cols[:, 1:] = conj.intercepts[1:].reshape(n_ang, n_r - 1)
    gains = np.subtract(cols[:, :-1], cols[:, 1:])
    gains /= dr
    np.maximum.accumulate(gains, axis=1, out=gains)
    n = len(pts)
    blocks = [slice(b0, b0 + _ANGLE_BLOCK) for b0 in range(0, n_ang, _ANGLE_BLOCK)]
    bound = np.empty((len(blocks), n))
    c_max = _block_max_projection(thetas, U, blocks, pts)
    for b, (block, c) in enumerate(zip(blocks, c_max)):
        bound[b] = _block_bound(cols[block, 1:].max(axis=0), radii[1:], c)
    best_val = np.full(n, a0)
    best_idx = np.zeros(n, dtype=np.int64)  # the origin, which wins every tie
    # argmax over axis 0 copies what it reduces, so it takes 2^15 bounds at a time
    top, step = np.empty(n, dtype=np.intp), max(1, (_BLOCK >> 3) // len(blocks))
    for p0 in range(0, n, step):
        top[p0:p0 + step] = np.argmax(bound[:, p0:p0 + step], axis=0)
    # each point's most promising block first, then its other blocks in order
    for first in (True, False):
        for b, block in enumerate(blocks):
            sel = np.flatnonzero(((top == b) == first) & (bound[b] >= best_val))
            if sel.size == 0:
                continue
            val, k, j = _block_best(cols[block], gains[block], radii,
                                    _projections(U[block], pts[sel]))
            idx = 1 + (block.start + j) * (n_r - 1) + (k - 1)
            old = best_val[sel]
            better = (val > old) | ((val == old) & (best_idx[sel] > idx))
            win = sel[better]
            # radius 0 never wins: it scores a0, and the origin wins ties
            best_val[win] = val[better]
            best_idx[win] = idx[better]
    return best_val, body.samples[best_idx], best_idx


def _block_max_projection(thetas, U, blocks, pts):
    """Yield, block by block, each point's largest x . u over the block's
    angles, taken over at most four of them.

    x . u = |x| cos(theta - arg x).  Over the angles of an arc narrower than
    2 pi, an angle that is neither an end nor one of the two that bracket
    arg x has a neighbour whose exact x . u is larger by at least
    |x| (1 - cos Delta), Delta the grid step, so the largest is at an end or
    a bracket inside the arc.  A block therefore takes its two ends, and the
    pair bracketing arg x when both lie in it (a pair that straddles two
    blocks is their ends; a point outside the cone takes the last pair).
    The gap |x| (1 - cos Delta) is above 1e-9 |x| for any step over 5e-5,
    and the rounding of each x_0 u_0 + x_1 u_1, the rounded unit vector
    included, is below 1e-15 |x|; a bracket one angle off by the rounding of
    arg x still holds the nearest angle.  So the maximum is the one over all
    of the block's angles bit for bit.  Were it an ulp low, the bound of
    ``_block_bound`` would drop by at most radii[-1] ulp(c), some 2e-16
    radii[-1] max|c|, which its slack 1e-12 radii[-1] max|c| covers.
    """
    n_ang = len(thetas)
    rel = np.mod(np.arctan2(pts[:, 1], pts[:, 0]) - thetas[0], 2.0 * math.pi)
    hi = np.clip(np.searchsorted(thetas - thetas[0], rel), 1, n_ang - 1)
    pair = np.maximum(U[hi - 1, 0] * pts[:, 0] + U[hi - 1, 1] * pts[:, 1],
                      U[hi, 0] * pts[:, 0] + U[hi, 1] * pts[:, 1])
    lo_block, hi_block = (hi - 1) // _ANGLE_BLOCK, hi // _ANGLE_BLOCK
    pair_block = np.where(lo_block == hi_block, hi_block, -1)
    for b, block in enumerate(blocks):
        c = _projections(U[[block.start, min(block.stop, n_ang) - 1]], pts).max(axis=0)
        own = np.flatnonzero(pair_block == b)
        c[own] = np.maximum(c[own], pair[own])
        yield c


def _projections(U, pts):
    """x . u for each unit vector u (rows) and point x (columns), formed
    elementwise as x_0 u_0 + x_1 u_1: a point's projection rounds the same
    whichever points it is formed with."""
    return U[:, :1] * pts[:, 0] + U[:, 1:] * pts[:, 1]


def _block_best(cols, gains, radii, c):
    """(best score, its radius index, its ray) at each point over a block of
    slope rays, from the rays' columns, gains and projections c = x . u.

    Along a ray the scores col[k] + radii[k] * c are concave in k, and its
    ``gains`` are their nondecreasing differences per unit radius, so the
    best lies among the three radii around the crossing of the gains with c.
    Ties go to the lowest radius scored, then to the lowest ray.  A run of
    gains equal to c puts the crossing at the run's end, so where three or
    more radii tie, the lower ones are not scored.
    """
    n_rays, n_r = cols.shape
    pos = np.empty(c.shape, dtype=np.intp)
    for i, (g, c_ray) in enumerate(zip(gains, c)):
        pos[i] = np.searchsorted(g, c_ray, side="right")
    flat = cols.ravel()
    row = np.arange(0, n_rays * n_r, n_r)[:, None]  # each ray's offset in ``flat``

    def score(k):
        """col[k] + radii[k] * c, with one flat take per term."""
        s = np.take(radii, k)
        s *= c
        s += np.take(flat, k + row)
        return s

    k_best = np.maximum(pos - 1, 0)  # pos <= len(gain), one less than the radii
    best = score(k_best)
    k = pos
    for step in (0, 1):  # ascending radii: a later one wins only if strictly better
        k = np.minimum(k + step, n_r - 1, out=k)
        s = score(k)
        better = s > best
        np.copyto(best, s, where=better)
        np.copyto(k_best, k, where=better)
    ray = np.argmax(best, axis=0)
    at = np.arange(c.shape[1])
    return best[ray, at], k_best[ray, at], ray


def _block_bound(col, radii, c):
    """Upper bound at each c of g(c) = max_k col[k] + radii[k] * c.

    g is convex and nondecreasing, so it lies below its chords between
    ``_BOUND_KNOTS`` knots spanning c; g is exact at the knots, and the
    slack covers the rounding of the chord and of the scores it bounds.
    """
    lo, hi = np.fmin.reduce(c, initial=np.inf), np.fmax.reduce(c, initial=-np.inf)
    if not lo <= hi:
        return np.full(len(c), np.inf)
    knots = np.linspace(lo, hi, _BOUND_KNOTS)
    g = np.max(col[:, None] + radii[:, None] * knots[None, :], axis=0)
    slack = 1e-12 * (np.max(np.abs(col)) + radii[-1] * max(abs(lo), abs(hi)))
    return np.interp(c, knots, g) + slack


def restricted_conjugate(points, values, body: SlopeBody) -> RestrictedConjugate:
    """Best intercept per sampled slope so that a + xi . y <= u(y) at all samples."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(points) == 0:
        raise ValueError("conjugate needs at least one sample point")
    intercepts, argmin = _dense_min(points, values, body.samples)
    return RestrictedConjugate(body, points, values, intercepts, argmin)


def _sorted_unique(keys):
    """np.unique of a scratch int array, which it sorts in place.  On 10^5
    int64 keys NumPy 2.4's hashed np.unique took about 30 times as long
    (2-core x86-64)."""
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _sq_dist(x, y, sx, sy):
    """dx*dx + dy*dy with dx = x - sx, dy = y - sy, in float64."""
    dx = x - sx
    dy = y - sy
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _ranges(first, counts):
    """(owner, value): entry i of ``first`` and ``counts`` expands to the
    values first[i], first[i] + 1, ... (counts[i] of them), each owned by i."""
    owner = np.repeat(np.arange(len(counts)), counts)
    shift = first - (np.cumsum(counts) - counts)
    return owner, np.arange(len(owner)) + shift[owner]


def _farthest_nearest(sites, queries) -> float:
    """max over the (n, 2) queries of the distance to the nearest of the
    (m, 2) sites: inf with no site, 0.0 with no query.

    Bound, then prune.  The sites are bucketed in row-major order on a grid
    of square cells, about one site per cell.  Each query's bound is its
    squared distance to six sites: in its row and in the rows above and below,
    the last site before its cell and the first at or after it.  Queries are
    then resolved in order of decreasing bound, over the cells within their
    bound, ``_NEAREST_SEED`` first, then in batches of at most
    ``_NEAREST_QUERIES`` queries and ``_BLOCK`` (query, site) pairs; the
    largest squared distance resolved so far prunes every query whose bound
    does not exceed it.  The bound pass, too, takes ``_NEAREST_QUERIES``
    queries at a time, so its scratch does not grow with the queries.  A window
    reaches past the bound by ``_NEAREST_MARGIN`` (relative, plus that
    fraction of the coordinate scale), far more than the rounding of its
    edges, so a site outside it is farther than the bound's site inside.
    Bounds and exact distances alike are ``_sq_dist`` of a query and a site,
    so the result is the float a k-d tree query gives, bit for bit.
    """
    if len(queries) == 0:
        return 0.0
    if len(sites) == 0:
        return math.inf
    # by coordinate, as views: each pass reads them in blocks or gathers from
    # them, and a copy of the queries would double the caller's array
    qx, qy = queries[:, 0], queries[:, 1]
    sx, sy = sites[:, 0], sites[:, 1]
    x0, y0 = min(qx.min(), sx.min()), min(qy.min(), sy.min())
    wx, wy = max(qx.max(), sx.max()) - x0, max(qy.max(), sy.max()) - y0
    m = len(sx)
    side = max(math.sqrt(wx * wy / m), max(wx, wy) / m)  # at most 3m + 1 cells
    if side == 0.0:
        return 0.0  # every point coincides
    nx, ny = int(wx / side) + 1, int(wy / side) + 1

    def cell(v, v0, n):
        # clip, then truncate: monotone in v, so a window's cells hold every
        # site whose coordinate lies between the window's edges
        return np.clip((v - v0) / side, 0, n - 1).astype(np.intp)

    key = cell(sy, y0, ny) * nx + cell(sx, x0, nx)
    order = np.argsort(key)
    sx, sy = sx[order], sy[order]
    start = np.zeros(nx * ny + 1, dtype=np.intp)  # sites before each cell
    np.cumsum(np.bincount(key, minlength=nx * ny), out=start[1:])

    bound = np.full(len(qx), np.inf)
    for q0 in range(0, len(qx), _NEAREST_QUERIES):
        part = slice(q0, q0 + _NEAREST_QUERIES)
        x, y, b = qx[part], qy[part], bound[part]
        qcol, qrow = cell(x, x0, nx), cell(y, y0, ny)
        for step in (-1, 0, 1):
            after = start[np.clip(qrow + step, 0, ny - 1) * nx + qcol]
            for k in (after - 1, after):
                np.clip(k, 0, m - 1, out=k)
                np.minimum(b, _sq_dist(x, y, sx[k], sy[k]), out=b)

    slack = _NEAREST_MARGIN * (side + max(abs(x0), abs(y0), abs(x0 + wx), abs(y0 + wy)))

    def resolve(sel):
        """Overwrite the bounds of a leading part of ``sel`` with their exact
        squared nearest distances; returns that part's length."""
        x, y = qx[sel], qy[sel]
        reach = np.sqrt(bound[sel]) * (1.0 + _NEAREST_MARGIN) + slack
        c0, c1 = cell(x - reach, x0, nx), cell(x + reach, x0, nx) + 1
        r0 = cell(y - reach, y0, ny)
        n_rows = cell(y + reach, y0, ny) - r0 + 1
        owner, row = _ranges(r0, n_rows)  # one record per (query, row), query-major
        lo, hi = start[row * nx + c0[owner]], start[row * nx + c1[owner]]
        pairs = np.cumsum(np.add.reduceat(hi - lo, np.cumsum(n_rows) - n_rows))
        n = max(1, int(np.searchsorted(pairs, _BLOCK, side="right")))
        r = int(np.searchsorted(owner, n))
        rec, site = _ranges(lo[:r], hi[:r] - lo[:r])
        q = owner[rec]
        d = _sq_dist(x[q], y[q], sx[site], sy[site])
        # each window holds its bound's site, so no query's run is empty
        bound[sel[:n]] = np.minimum.reduceat(d, np.concatenate([[0], pairs[:n - 1]]))
        return n

    def drain(todo, best):
        """Resolve ``todo`` (by decreasing bound) until no bound exceeds the best."""
        size = _NEAREST_SEED
        while len(todo):
            todo = todo[bound[todo] > best]
            if len(todo):
                n = resolve(todo[:size])
                best = max(best, float(bound[todo[:n]].max()))
                todo, size = todo[n:], min(4 * size, _NEAREST_QUERIES)
        return best

    seed = np.argpartition(bound, -min(len(bound), _NEAREST_SEED))[-_NEAREST_SEED:]
    best = drain(seed[np.argsort(-bound[seed])], 0.0)
    rest = np.flatnonzero(bound > best)
    return math.sqrt(drain(rest[np.argsort(-bound[rest])], best))


def _window_sum(field, kernel):
    """Correlation of ``field`` (ny, nx) with the odd square ``kernel``, zero
    outside the grid: out[i, j] = sum kernel[a, b] * field[i + a - k, j + b - k]
    with k the kernel's half width.

    It is scipy.ndimage.correlate(field, kernel, mode="constant", cval=0.0)
    bit for bit: that adds, starting from +0.0, one product per kernel entry
    with |w| > DBL_EPSILON, in row-major kernel order, and a product with the
    zero padding is the product with cval.  The same sums in the same order
    over a zero-padded copy give the same floats.
    """
    k = kernel.shape[0] // 2
    ny, nx = field.shape
    padded = np.zeros((ny + 2 * k, nx + 2 * k))
    padded[k:k + ny, k:k + nx] = field
    out = np.zeros((ny, nx))
    term = np.empty((ny, nx))
    eps = np.finfo(float).eps
    for (a, b), w in np.ndenumerate(kernel):
        window = padded[a:a + ny, b:b + nx]
        if w == 1.0:  # x * 1.0 is x, bit for bit
            out += window
        elif abs(w) > eps:
            np.multiply(window, w, out=term)
            out += term
    return out


@dataclasses.dataclass
class EnvelopeField:
    """The envelope evaluated on a regular grid, with slope and Hessian data."""

    xs: np.ndarray
    ys: np.ndarray
    phi: np.ndarray          # (ny, nx)
    xi: np.ndarray           # (ny, nx, 2) maximizing slope
    slope_index: np.ndarray  # (ny, nx)
    conj: RestrictedConjugate
    h: float
    at_probes: tuple | None = None  # (phi, xi, slope index) at k_envelope's probes

    @property
    def body(self) -> SlopeBody:
        return self.conj.body

    def grid_points(self) -> np.ndarray:
        gx, gy = np.meshgrid(self.xs, self.ys)
        return np.column_stack([gx.ravel(), gy.ravel()])

    def hessian_field(self, mask: np.ndarray) -> np.ndarray:
        """(ny, nx, 2, 2) symmetrized derivative of the slope field.

        Each slope component is fit by a least-squares plane over the masked
        nodes of a ``_HESS_WINDOW`` x ``_HESS_WINDOW`` window (5 x 5); the
        plain central difference of the argmax slope is dominated by
        slope-grid quantization noise, so the window covers a few slope
        cells.  The boolean ``mask`` (ny, nx) confines the fit to the set,
        which removes the smearing bias where the window would straddle its
        boundary; nodes whose window holds fewer than three masked points
        get a zero Hessian.
        """
        k = _HESS_WINDOW // 2
        offs = np.arange(-k, k + 1) * self.h
        ox = np.tile(offs, (_HESS_WINDOW, 1))
        oy = ox.T
        m = mask.astype(float)
        one = np.ones((_HESS_WINDOW, _HESS_WINDOW))
        S = _window_sum(m, one)
        Sx = _window_sum(m, ox)
        Sy = _window_sum(m, oy)
        Sxx = _window_sum(m, ox * ox)
        Sxy = _window_sum(m, ox * oy)
        Syy = _window_sum(m, oy * oy)
        M = np.stack([
            np.stack([S, Sx, Sy], axis=-1),
            np.stack([Sx, Sxx, Sxy], axis=-1),
            np.stack([Sy, Sxy, Syy], axis=-1),
        ], axis=-2)
        # each 3 x 3 system is factored on its own, so the nodes with too
        # few masked points, and then the singular ones, are left out
        good = S >= 3
        good[good] = np.abs(np.linalg.det(M[good])) > 1e-14 * S[good] ** 3 * self.h ** 4
        M_good = M[good]

        H = np.zeros(self.phi.shape + (2, 2))
        for comp in range(2):
            f = self.xi[:, :, comp] * m
            rhs = np.stack([_window_sum(f, one), _window_sum(f, ox), _window_sum(f, oy)],
                           axis=-1)
            beta = np.linalg.solve(M_good, rhs[good][..., None])[..., 0]
            H[good, comp, 0] = beta[:, 1]
            H[good, comp, 1] = beta[:, 2]
        return 0.5 * (H + np.swapaxes(H, 2, 3))

    def interp_xi(self, pts) -> np.ndarray:
        return _bilinear(self.xs, self.ys, self.xi, pts)

    def interp_hessian(self, hess, pts) -> np.ndarray:
        return _bilinear(self.xs, self.ys, hess.reshape(hess.shape[:2] + (4,)),
                         pts).reshape(-1, 2, 2)

    def lip_grad(self) -> float:
        """Largest Lipschitz quotient of the slope field between adjacent nodes."""
        dx = np.linalg.norm(np.diff(self.xi, axis=1), axis=2) / self.h
        dy = np.linalg.norm(np.diff(self.xi, axis=0), axis=2) / self.h
        return float(max(dx.max(), dy.max()))

    def achieved_indices(self, mask: np.ndarray | None = None) -> np.ndarray:
        """The indices of the distinct maximizing slopes, ascending.

        An optional boolean ``mask`` (ny, nx), or flat, keeps only the
        selected nodes.
        """
        idx = self.slope_index.ravel()
        # ravel is a view here and a fancy index a copy; the sort is in place
        idx = idx.copy() if mask is None else idx[mask.ravel()]
        return _sorted_unique(idx)

    def range_hausdorff(self, mask: np.ndarray | None = None):
        """(distance from the body's samples to the achieved slopes, their count).

        The achieved slopes are sample points, so the distance is one-sided:
        the largest distance from an unachieved sample to its nearest
        achieved one (``_farthest_nearest``).  It is exact, the float a k-d
        tree gives, float(cKDTree(achieved).query(others)[0].max()), bit
        for bit: each candidate is dx*dx + dy*dy with dx = q - s in
        float64, and one sqrt of the largest nearest candidate follows.  It
        is 0.0 when every sample is achieved and inf when none is (count
        0).  An optional boolean ``mask`` (ny, nx) keeps only the selected
        nodes.
        """
        hit = self.achieved_indices(mask)
        samples = self.body.samples
        missed = np.ones(len(samples), dtype=bool)
        missed[hit] = False
        return _farthest_nearest(samples[hit], samples[missed]), len(hit)

    def convexity_violation(self) -> float:
        """Worst negative midpoint second difference (axes and diagonals)."""
        worst = 0.0
        p = self.phi
        for dd in (p[:, 2:] + p[:, :-2] - 2 * p[:, 1:-1],
                   p[2:, :] + p[:-2, :] - 2 * p[1:-1, :],
                   p[2:, 2:] + p[:-2, :-2] - 2 * p[1:-1, 1:-1],
                   p[2:, :-2] + p[:-2, 2:] - 2 * p[1:-1, 1:-1]):
            worst = min(worst, float(dd.min()))
        return -worst

    def dump_csv(self, path) -> None:
        pts = self.grid_points()
        rows = np.column_stack([pts, self.phi.ravel(),
                                self.xi[:, :, 0].ravel(), self.xi[:, :, 1].ravel()])
        emit_csv(path, ("x", "y", "phi", "xi1", "xi2"), rows)


def _bilinear(xs, ys, F, pts):
    """Bilinear interpolation of the node field F (ny, nx, c) at pts (n, 2),
    rounded as f00 (1-tx)(1-ty) + f10 tx (1-ty) + f01 (1-tx) ty + f11 tx ty
    from the left; each point's value depends on that point alone."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    fx = np.clip((pts[:, 0] - xs[0]) / hx, 0.0, len(xs) - 1.0 - 1e-12)
    fy = np.clip((pts[:, 1] - ys[0]) / hy, 0.0, len(ys) - 1.0 - 1e-12)
    ix = fx.astype(int)
    iy = fy.astype(int)
    tx = (fx - ix)[:, None]
    ty = (fy - iy)[:, None]
    sx, sy = 1 - tx, 1 - ty
    vals = np.asarray(F, dtype=float)
    nodes = vals.reshape(-1, vals.shape[-1])  # row iy * nx + ix
    k = iy * len(xs) + ix
    # one flat take per corner gathers faster than vals[iy, ix]
    out = np.take(nodes, k, axis=0) * sx
    out *= sy
    for step, wx, wy in ((1, tx, sy), (len(xs), sx, ty), (len(xs) + 1, tx, ty)):
        term = np.take(nodes, k + step, axis=0) * wx
        term *= wy
        out += term
    return out.squeeze()


def k_envelope(conj: RestrictedConjugate, eval_box, resolution: float,
               probes=None) -> EnvelopeField:
    """Evaluate the envelope phi(x) = max_m (a_m + xi_m . x) on a regular grid.

    ``eval_box`` is ((x0, x1), (y0, y1)); ``resolution`` is the grid step.
    The optional (n, 2) ``probes`` are scored in the grid's argmax pass, and
    their (phi, xi, slope index) is the field's ``at_probes``; each point's
    result depends on that point alone, so it equals
    ``conj.envelope_at(probes)`` bit for bit.  Ties in the argmax go to the
    lowest slope index it scores (see the module docstring).
    """
    (x0, x1), (y0, y1) = eval_box
    nx = int(math.ceil((x1 - x0) / resolution)) + 1
    ny = int(math.ceil((y1 - y0) / resolution)) + 1
    xs = x0 + resolution * np.arange(nx)
    ys = y0 + resolution * np.arange(ny)
    pts = np.column_stack([np.tile(xs, ny), np.repeat(ys, nx)])
    if probes is not None:
        pts = np.vstack([pts, np.asarray(probes, dtype=float)])
    best_val, xi_flat, best_idx = _argmax(conj, pts)
    n = nx * ny
    if not np.all(np.isfinite(best_val[:n])):
        raise RuntimeError("envelope argmax failed to exist at some node")
    phi = best_val[:n].reshape(ny, nx)
    xi = xi_flat[:n].reshape(ny, nx, 2)
    at_probes = None if probes is None else (best_val[n:], xi_flat[n:], best_idx[n:])
    return EnvelopeField(xs, ys, phi, xi, best_idx[:n].reshape(ny, nx), conj, resolution,
                         at_probes)


@dataclasses.dataclass
class Witness:
    feasible: bool
    lambdas: np.ndarray | None
    contact_indices: np.ndarray | None
    normal_part: np.ndarray | None
    hessian: np.ndarray | None


@dataclasses.dataclass
class ContactData:
    contact_indices: np.ndarray
    contact_points: np.ndarray
    normal_generators: np.ndarray
    witness: Witness | None


def contact_data(points, values, body: SlopeBody, xi, tol_contact: float | None = None,
                 x=None, hessians=None) -> ContactData:
    """Contact set, normal cone, and Hessian-bound witness for one slope.

    The contact set S_xi collects samples within ``tol_contact`` of the
    minimum of u - xi . y (default tolerance: 1e-8 times the value range).
    When an evaluation point ``x`` is supplied, a witness is sought: a
    convex combination of at most three contact points plus a normal-cone
    vector reproducing x.  The search is a small feasibility LP whose basic
    solution automatically touches at most three samples.  Infeasibility is
    reported on the witness (hypothesis failure), never raised.
    """
    from scipy.optimize import linprog

    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if not bool(body.contains(xi)[0]):
        raise ValueError("slope must belong to the body")
    scores = values - points @ xi
    vmin = float(scores.min())
    if tol_contact is None:
        vrange = float(values.max() - values.min())
        tol_contact = 1e-8 * max(vrange, 1e-12)
    idx = np.nonzero(scores <= vmin + tol_contact)[0]
    contact = points[idx]
    gens = body.normal_cone(xi)

    witness = None
    if x is not None:
        x = np.asarray(x, dtype=float)
        nS, nG = len(contact), len(gens)
        A_eq = np.zeros((3, nS + nG))
        A_eq[0, :nS] = 1.0
        A_eq[1, :nS] = contact[:, 0]
        A_eq[2, :nS] = contact[:, 1]
        if nG:
            A_eq[1, nS:] = gens[:, 0]
            A_eq[2, nS:] = gens[:, 1]
        b_eq = np.array([1.0, x[0], x[1]])
        res = linprog(np.zeros(nS + nG), A_eq=A_eq, b_eq=b_eq,
                      bounds=[(0, None)] * (nS + nG), method="highs")
        if res.status == 0:
            lam = res.x[:nS]
            mu = res.x[nS:] if nG else np.zeros(0)
            keep = lam > 1e-10
            lam_k = lam[keep] / lam[keep].sum()
            H = None
            if hessians is not None:
                hs = np.asarray(hessians, dtype=float)
                H = np.einsum("i,ijk->jk", lam_k, hs[idx[keep]])
            normal_part = gens.T @ mu if nG else np.zeros(2)
            witness = Witness(True, lam_k, idx[keep], normal_part, H)
        else:
            witness = Witness(False, None, None, None, None)
    return ContactData(idx, contact, gens, witness)


@dataclasses.dataclass(frozen=True)
class C11Report:
    lip_grad: float
    range_hausdorff: float
    convexity_violation: float
    n_distinct_slopes: int


def check_c11(field: EnvelopeField) -> C11Report:
    """Discrete C^{1,1} diagnostics of an envelope field.

    lip_grad is the largest finite-difference Lipschitz quotient of the
    slope field between adjacent grid nodes; range_hausdorff measures how
    completely the achieved slopes cover the body's sample grid (the
    achieved slopes are sample points, so the distance is one-sided).
    """
    range_hausdorff, n_distinct = field.range_hausdorff()
    return C11Report(field.lip_grad(), range_hausdorff, field.convexity_violation(),
                     n_distinct)
