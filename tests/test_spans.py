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
