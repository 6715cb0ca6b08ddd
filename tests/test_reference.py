"""Output drift guard: fifteen configs checked against perfbench/reference.json.

Each config runs through ``isocone.cli.main`` and its outputs are compared
with the recorded reference entry by ``perfbench/reference.check``, which
holds tie-independent values to rounding and the exit code exactly (or
within the verdict's own tolerance). ``perfbench/`` is only read.
"""

import json
import os
import sys

import pytest

from isocone.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import reference  # noqa: E402
import workloads  # noqa: E402

CASES = {
    "sector_envelope": ("envelope", workloads.envelope_sector("half_y", 0.75)),
    # the origin is the best slope at a quarter of its nodes (0.6% on the half-plane)
    "quadrant_sector_envelope": ("envelope", workloads.envelope_sector("quadrant_xy", 1.0)),
    "polygon_envelope": ("envelope", workloads.envelope_polygon(workloads.DIAMOND)),
    "quadrant_couple_readme": ("couple",
                               workloads.couple_weighted("quadrant_xy", "readme", 0.05, 3)),
    # 48,510 mesh nodes: the largest Neumann system the benchmark solves
    "half_plane_couple_fine": ("couple", workloads.couple_weighted("half_y", "fine", 0.05, 3)),
    "polygon_couple_coarse": ("couple", workloads.couple_anisotropic(
        workloads.SEEDED_POLYGONS[0], eval_h=0.02, mesh_h=0.04, r=0.8, center=[-0.2, 0.2])),
    "polygon_couple_fine_eval": ("couple", workloads.couple_anisotropic(
        workloads.HEXAGON, eval_h=0.012, mesh_h=0.03, r=0.7, center=[0.25, -0.15])),
    "amgm_three_weights": ("check-amgm", workloads.amgm(workloads.AMGM_POINTS[-1])),
    "one_dim_two_intervals": ("check-1d", workloads.one_dim([[0.0, 0.5], [0.7, 1.1]], 1.2, 2)),
    "measure_quadrant_star": ("measure", workloads.by_cone(
        "quadrant_xy", set=workloads.star_set(0.1, 4))),
    # the translation search runs only on the half-plane
    "measure_half_plane_star": ("measure", workloads.by_cone(
        "half_y", set=workloads.star_set(0.2, 5))),
    "sharpness_half_plane": ("sharpness", workloads.sharpness(
        "half_y", 3, [0.02, 0.04, 0.08, 0.16])),
    "sweep_quadrant": ("sweep", workloads.by_cone("quadrant_x")),
    "diag_quadrant": ("diag", workloads.diag("quadrant_xy", [0.05, 0.1])),
    "diag_half_plane": ("diag", workloads.diag("half_y", [0.1, 0.2, 0.3])),
}


@pytest.fixture(scope="module")
def table():
    return reference.load()


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_reference(case, table, tmp_path):
    verb, config = CASES[case]
    entry = table[workloads.config_key(verb, config)]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([verb, "--config", str(path), "--out", str(out)])
    assert reference.check(entry, code, reference.extract(verb, str(out))) == []
