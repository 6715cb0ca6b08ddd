"""Every span target of the benchmark's recorder still names a package function.

``perfbench/spans.py`` wraps package functions by name from outside; a
renamed function would silently drop its span. ``perfbench/`` is only read.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import spans  # noqa: E402


@pytest.mark.parametrize("target", spans.TARGETS, ids=[t[2] for t in spans.TARGETS])
def test_target_resolves(target):
    module_name, attr, _span, _counter = target
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr, None))


def test_k_envelope_with_probes_feeds_the_traced_counter():
    # the traced run counts argmax pairs from the EnvelopeField that
    # k_envelope returns: its phi, body and slope_index
    from collections import defaultdict

    import numpy as np

    from isocone.cone_weight import Cone
    from isocone.envelope import EnvelopeField, SlopeBody, k_envelope, restricted_conjugate

    body = SlopeBody.sector_disk(Cone.quadrant(), 1.0, 16, 8)
    pts = np.array([[0.0, 0.0], [0.5, 0.2], [0.1, 0.7]])
    conj = restricted_conjugate(pts, np.einsum("ij,ij->i", pts, pts), body)
    field = k_envelope(conj, ((0.0, 1.0), (0.0, 0.5)), 0.25, pts)
    assert isinstance(field, EnvelopeField)
    counts = defaultdict(int)
    spans._count_k_envelope(counts, (conj,), {}, field)
    assert counts["envelope.argmax_pairs"] == 5 * 3 * len(body.samples)
    assert counts["argmax.slopes"] == len(body.samples)
    assert counts["argmax.distinct_slopes"] == len(np.unique(field.slope_index))


def test_a_traced_weighted_couple_op_records_its_stages(tmp_path):
    # the stages the benchmark's per-layer metrics read for couple_sector must
    # still be called through the names the recorder wraps
    import json
    import math

    from isocone import cli

    config = {
        "cone": {"angles": [0.0, math.pi / 2]}, "weight": {"monomial": [1, 1]},
        "set": {"star": {"eps": 0.1, "eta": {"fourier_cos": 4}}},
        "resolutions": {"n_theta": 1024, "mesh_h": 0.05, "n_slope": [128, 48],
                        "eval_h": 0.02},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    recorder = spans.Recorder()
    recorder.install()
    try:
        cli.main(["couple", "--config", str(path), "--out", str(tmp_path / "out")])
    finally:
        recorder.uninstall()
    seen = {span[0] for span in recorder.spans}
    assert {"cli.main", "coupling.build_coupling", "coupling.abp_chain_check",
            "coupling.verify_coupling_estimates", "pde.fan_triangulate", "pde.solve_neumann",
            "envelope.restricted_conjugate", "envelope.k_envelope",
            "envelope.hessian_field", "envelope.dump_csv",
            "cone_weight.HomWeight.call"} <= seen
