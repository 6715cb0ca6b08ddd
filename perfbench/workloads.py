"""Seeded workload generator: finite parameter grids laid out in fixed cycles.

A workload is a cycle of slots that always runs in the same order. Each slot
fixes the parameters that set an op's cost (verb, cone, resolution class,
set size, body, eval grid) and draws the rest from a finite grid with a
seeded RNG. Every seed therefore runs the same cost mix, so a run's
throughput and latency quantiles do not depend on which seed is picked,
while the inputs themselves do. Because every grid is finite, ``all_configs`` can
enumerate every config a seed could ever produce; the reference table in
``reference.json`` holds an entry for each.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random

QUADRANT = {"angles": [0.0, math.pi / 2]}
HALF_PLANE = {"angles": [0.0, math.pi]}
CONE_WEIGHTS = {
    "quadrant_xy": {"cone": QUADRANT, "weight": {"monomial": [1, 1]}},
    "quadrant_x": {"cone": QUADRANT, "weight": {"monomial": [1, 0]}},
    "half_y": {"cone": HALF_PLANE, "weight": {"monomial": [0, 1]}},
}
CONES = tuple(CONE_WEIGHTS)

README_RES = {"n_theta": 4096, "mesh_h": 0.02, "n_slope": [512, 192], "eval_h": 0.006}
FINE_RES = dict(README_RES, mesh_h=0.01)
# None means "no resolutions block": the CLI falls back to its own defaults.
RESOLUTIONS = {"readme": README_RES, "fine": FINE_RES, "cli_default": None}

FOURIER_MODES = (2, 3, 4, 5, 6)
# (eps, m): fan_triangulate rejects this set in every cone at every
# resolution, so the op raises MeshQualityError after about 0.2 s
MESH_REJECTED = (0.2, 6)


def _circle_polygon(n_vertices: int, seed: int):
    """Convex ccw polygon with vertices at seeded angles on the unit circle."""
    rng = random.Random(f"polygon:{seed}")
    while True:
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n_vertices))
        gaps = [b - a for a, b in zip(angles, angles[1:] + [angles[0] + 2.0 * math.pi])]
        # gaps well below pi keep the origin inside; above 0.3 no edge is tiny
        if max(gaps) < 0.75 * math.pi and min(gaps) > 0.3:
            return [[round(math.cos(a), 6), round(math.sin(a), 6)] for a in angles]


SQUARE = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
HEXAGON = [[round(math.cos(k * math.pi / 3), 6), round(math.sin(k * math.pi / 3), 6)]
           for k in range(6)]
DIAMOND = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
SEEDED_POLYGONS = [_circle_polygon(5, 0), _circle_polygon(7, 1)]

INTERVAL_SETS = [
    [[0.0, 0.8]], [[0.2, 0.9]], [[0.1, 1.2]], [[0.5, 1.5]],
    [[0.0, 0.5], [0.7, 1.1]], [[0.2, 0.6], [0.9, 1.3]],
    [[0.1, 0.3], [0.4, 0.7], [0.9, 1.2]],
]
AMGM_POINTS = [
    {"lambda": lam, "x": x, "c": c}
    for lam in ([1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [0.5, 0.5, 1.0])
    for x in map(list, itertools.product((0.4, 0.7, 1.0, 1.3), repeat=len(lam)))
    for c in (1.0, 1.5)
    # the checker's hypothesis: sum(lambda_i x_i) <= c * sum(lambda_i)
    if sum(l * v for l, v in zip(lam, x)) <= c * sum(lam)
]


class Slot:
    """One op of a cycle: a verb, fixed parameters and a grid of free ones."""

    def __init__(self, verb: str, build, fixed: dict, free: dict):
        self.verb = verb
        self.build = build
        self.fixed = fixed
        self.free = free

    def draw(self, rng: random.Random) -> dict:
        drawn = {name: values[rng.randrange(len(values))]
                 for name, values in sorted(self.free.items())}
        return self.build(**self.fixed, **drawn)

    def enumerate(self):
        names = sorted(self.free)
        for combo in itertools.product(*(self.free[n] for n in names)):
            yield self.build(**self.fixed, **dict(zip(names, combo)))


# -- config builders: parameters in, CLI config out --------------------------

def star_set(eps, mode):
    """The unit ball (eps None) or its fourier_cos perturbation."""
    if eps is None:
        return {"ball": {}}
    return {"star": {"eps": eps, "eta": {"fourier_cos": mode}}}


def couple_weighted(cone, res, eps, mode):
    config = dict(CONE_WEIGHTS[cone], set=star_set(eps, mode))
    if RESOLUTIONS[res] is not None:
        config["resolutions"] = RESOLUTIONS[res]
    return config


def couple_anisotropic(body, eval_h, mesh_h, r, center):
    return {"cone": {"full_plane": True}, "mode": "anisotropic",
            "body": {"polygon": body}, "set": {"ball": {"r": r, "center": center}},
            "resolutions": {"mesh_h": mesh_h, "eval_h": eval_h}}


def by_cone(cone, **extra):
    return dict(CONE_WEIGHTS[cone], **extra)


def sharpness(cone, mode, eps_list):
    return by_cone(cone, sharpness={"eta": {"fourier_cos": mode}, "eps_list": eps_list})


def diag(cone, t_list):
    return by_cone(cone, diag={"t_list": t_list})


def amgm(point):
    return by_cone("quadrant_xy", amgm=point)


def one_dim(intervals, l, gamma):
    return by_cone("quadrant_xy", one_dim={"intervals": intervals, "l": l, "gamma": gamma})


def fmp(d_list):
    return by_cone("quadrant_xy", fmp={"D_list": d_list})


def envelope_sector(cone, rho):
    return by_cone("quadrant_xy", envelope={
        "u": "quadratic", "body": {"sector_disk": {"cone": CONE_WEIGHTS[cone]["cone"],
                                                   "rho": rho}}})


def envelope_polygon(body):
    return by_cone("quadrant_xy", envelope={"u": "double_well", "body": {"polygon": body}})


# -- the three workloads ------------------------------------------------------

def _couple_sector_slots():
    # Covers every (cone, resolution) cell. Cost classes on two cores: the
    # quadrant cells without mesh_h 0.01 take about 1.5 s, the quadrant
    # mesh_h 0.01 and the half-plane README/default cells about 2.5 s, the
    # half-plane at mesh_h 0.01 about 5 s. Repeating the cheap cells (8:4:1)
    # puts the median inside the first class and p90 inside the second in
    # every run, instead of on a boundary between classes. The set is fixed
    # per slot as far as it sets the cost: eps scales the area (mesh, eval
    # grid, peak memory), and m = 2, 5, 6 cost up to twice what m = 3, 4 do,
    # so those three run in fixed slots and the seed draws m from {3, 4}.
    drawn = (3, 4)
    order = [("quadrant_xy", "readme", 0.05, drawn), ("half_y", "cli_default", 0.1, drawn),
             ("quadrant_x", "cli_default", None, (None,)),
             ("quadrant_xy", "cli_default", 0.2, drawn), ("quadrant_x", "fine", 0.1, drawn),
             ("quadrant_x", "readme", 0.2, (5,)), ("half_y", "fine", 0.05, drawn),
             ("quadrant_xy", "readme", None, (None,)), ("quadrant_xy", "fine", 0.2, drawn),
             ("quadrant_x", "cli_default", 0.05, (6,)), ("quadrant_xy", "cli_default", 0.1, (2,)),
             ("half_y", "readme", 0.2, drawn), ("quadrant_x", "readme", 0.1, drawn)]
    slots = [Slot("couple", couple_weighted, {"cone": cone, "res": res, "eps": eps},
                  {"mode": list(modes)})
             for cone, res, eps, modes in order]
    # The set that fails meshing gets a slot of its own, so every cycle fails
    # it once and the seed cannot change how many ops take that short path.
    eps, mode = MESH_REJECTED
    rejected = Slot("couple", couple_weighted, {"eps": eps, "mode": mode},
                    {"cone": list(CONES), "res": list(RESOLUTIONS)})
    return slots[:6] + [rejected] + slots[6:]


POLYGON_CENTERS = ([0.0, 0.0], [0.25, -0.15], [-0.2, 0.2])
# (eval_h, r, mesh_h) per cost class: each class fixes everything that sets
# the conjugate (P ~ (r / mesh_h)^2 nodes) and argmax ((r / eval_h)^2 nodes)
# sizes, so all ops of a class cost about the same whatever the seed draws.
POLYGON_CLASSES = {"fine_eval": (0.012, 0.7, 0.03), "coarse_eval": (0.02, 0.8, 0.04)}


def _couple_polygon_slots():
    # Every group of three consecutive ops holds each body once and one op on
    # the fine eval grid; two thirds of the ops use the coarse one, so the
    # median and p90 each fall inside one cost class. Four groups make a
    # cycle of about 27 s on two cores; the fourth repeats the first's layout.
    bodies = [[SQUARE], [HEXAGON], SEEDED_POLYGONS]
    slots = []
    for g in range(4):
        for k, cls in enumerate(("fine_eval", "coarse_eval", "coarse_eval")):
            eval_h, r, mesh_h = POLYGON_CLASSES[cls]
            slots.append(Slot("couple", couple_anisotropic,
                              {"eval_h": eval_h, "r": r, "mesh_h": mesh_h},
                              {"body": bodies[(g + k) % 3], "center": POLYGON_CENTERS}))
    return slots


def _verbs_mix_slots():
    stars = [star_set(None, None), {"ball": {"r": 0.5}}, {"ball": {"r": 2.0}}] + [
        star_set(eps, m) for m in FOURIER_MODES for eps in (0.05, 0.1, 0.2)]
    # The D list sets the cost of the 1-D Cheeger search (these two differ by
    # about 1.25x), so each check-fmp slot fixes its own instead of drawing it.
    fmp_slots = iter([Slot("check-fmp", fmp, {"d_list": [2.5, 3.0, 4.0, 7.2]}, {}),
                      Slot("check-fmp", fmp, {"d_list": [1.5, 2.5, 6.0, 9.0]}, {})])
    polygon_envelope = Slot("envelope", envelope_polygon, {},
                            {"body": [SQUARE, HEXAGON, DIAMOND]})
    heavy = []
    for i, cone in enumerate(CONES):
        heavy += [next(fmp_slots)] if i % 2 == 0 else []
        heavy += [Slot("envelope", envelope_sector, {"cone": cone}, {"rho": [0.75, 1.0]}),
                  polygon_envelope, Slot("sweep", by_cone, {"cone": cone}, {})]
    light = {
        "sharpness": lambda cone: Slot("sharpness", sharpness, {"cone": cone}, {
            "mode": list(FOURIER_MODES),
            "eps_list": [[0.02, 0.04, 0.08, 0.16], [0.03, 0.06, 0.12, 0.24]]}),
        "diag": lambda cone: Slot("diag", diag, {"cone": cone}, {
            "t_list": [[0.05, 0.1, 0.2], [0.05, 0.1], [0.1, 0.2, 0.3]]}),
    }
    slots = []
    for k, heavy_slot in enumerate(heavy):
        cone, nxt = CONES[k % 3], CONES[(k + 1) % 3]
        slots += [
            Slot("measure", by_cone, {"cone": cone}, {"set": stars}),
            Slot("check-amgm", amgm, {}, {"point": AMGM_POINTS}),
            Slot("measure", by_cone, {"cone": nxt}, {"set": stars}),
            Slot("check-1d", one_dim, {}, {"intervals": INTERVAL_SETS,
                                           "l": [0.8, 1.0, 1.2], "gamma": [0, 1, 2]}),
            light["sharpness" if k % 2 == 0 else "diag"](cone),
            heavy_slot,
        ]
    return slots


WORKLOADS = {
    "couple_sector": _couple_sector_slots(),
    "couple_polygon": _couple_polygon_slots(),
    "verbs_mix": _verbs_mix_slots(),
}

# Fixed, seed-independent and cheap: the warm-up pays first-call costs
# (lazy SciPy imports, allocator growth) on the code path the workload uses.
WARMUP = {
    "couple_sector": ("couple", dict(CONE_WEIGHTS["quadrant_xy"], set={"ball": {}},
                                     resolutions={"n_theta": 1024, "mesh_h": 0.05,
                                                  "n_slope": [64, 48], "eval_h": 0.03})),
    "couple_polygon": ("couple", couple_anisotropic(HEXAGON, 0.08, 0.1, 0.4, [0.0, 0.0])),
    "verbs_mix": ("measure", by_cone("half_y", set={"ball": {}})),
}


# Seconds one cycle took on the machine the cycles were laid out on (two
# cores; baseline.json has the measured medians). A run is the whole number
# of cycles closest to --seconds by this table, at least one: one cycle of
# each workload at 30 s. The count depends on --seconds alone, never on the
# speed of the code measured, so two commits compared at the same --seconds
# run the same ops.
CYCLE_SECONDS = {"couple_sector": 29.7, "couple_polygon": 27.1, "verbs_mix": 22.4}


def n_cycles(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def cycle(workload: str, seed: int, index: int):
    """The ops of cycle ``index`` of a run with ``seed``: [(verb, config), ...]."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return [(slot.verb, slot.draw(rng)) for slot in WORKLOADS[workload]]


def all_configs(workload: str):
    """Every (verb, config) any seed of ``workload`` can produce, deduplicated."""
    seen = {}
    for slot in WORKLOADS[workload]:
        for config in slot.enumerate():
            seen.setdefault(config_key(slot.verb, config), (slot.verb, config))
    return list(seen.values())


def config_key(verb: str, config: dict) -> str:
    canonical = json.dumps({"verb": verb, "config": config}, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:20]
