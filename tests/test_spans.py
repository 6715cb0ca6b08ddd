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
