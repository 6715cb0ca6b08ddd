"""Span recorder that wraps the package's public functions from outside.

``Recorder.install`` replaces each target function at every place its name
is bound in the ``isocone`` modules (the defining module and each module
that imported it), and each target method on its class. Nothing under
``src/`` changes. Every call records a span ``[name, start, end, parent,
op_id]`` in memory; ``write`` saves them when the run ends. Counts (PCG
iterations, conjugate and argmax pair counts, weight calls) are taken at the
same boundaries from the call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _count_solve(counts, args, kwargs, field):
    counts["pde.pcg_iters"] += field.iterations
    counts["pde.n_vertices"] += field.mesh.n_vertices


def _count_conjugate(counts, args, kwargs, conj):
    p, m = len(conj.points), len(conj.body.samples)
    counts["envelope.conj_pairs"] += p * m
    counts["conj.points"] += p
    counts["conj.distinct_argmin"] += len(np.unique(conj.argmin_index))


def _count_k_envelope(counts, args, kwargs, field):
    m = len(field.body.samples)
    counts["envelope.argmax_pairs"] += field.phi.size * m
    counts["argmax.slopes"] += m
    counts["argmax.distinct_slopes"] += len(np.unique(field.slope_index))


def _count_envelope_at(counts, args, kwargs, result):
    conj = args[0]
    counts["envelope.argmax_pairs"] += len(result[0]) * len(conj.body.samples)


def _count_weight(counts, args, kwargs, result):
    counts["cone_weight.weight_calls"] += 1
    counts["weight.points"] += np.size(args[1]) // 2


# (defining module, attribute, span name, counter); a dotted attribute is a
# method on a class of that module
TARGETS = [
    ("isocone.cli", "main", "cli.main", None),
    ("isocone.coupling", "build_coupling", "coupling.build_coupling", None),
    ("isocone.coupling", "abp_chain_check", "coupling.abp_chain_check", None),
    ("isocone.coupling", "verify_coupling_estimates", "coupling.verify_coupling_estimates",
     None),
    ("isocone.pde", "fan_triangulate", "pde.fan_triangulate", None),
    ("isocone.pde", "solve_neumann", "pde.solve_neumann", _count_solve),
    ("isocone.envelope", "restricted_conjugate", "envelope.restricted_conjugate",
     _count_conjugate),
    ("isocone.envelope", "k_envelope", "envelope.k_envelope", _count_k_envelope),
    ("isocone.envelope", "RestrictedConjugate.envelope_at", "envelope.envelope_at",
     _count_envelope_at),
    ("isocone.envelope", "EnvelopeField.hessian_field", "envelope.hessian_field", None),
    ("isocone.envelope", "EnvelopeField.dump_csv", "envelope.dump_csv", None),
    ("isocone.envelope", "check_c11", "envelope.check_c11", None),
    ("isocone.cone_weight", "HomWeight.__call__", "cone_weight.HomWeight.call",
     _count_weight),
    ("isocone.geometry", "deficit", "geometry.deficit", None),
    ("isocone.geometry", "asymmetry", "geometry.asymmetry", None),
    ("isocone.geometry", "StarSet.contains", "geometry.StarSet.contains", None),
    ("isocone.analysis", "cheeger_bruteforce", "analysis.cheeger_bruteforce", None),
    ("isocone.analysis", "psi_k", "analysis.psi_k", None),
    ("isocone.analysis", "trace_poincare_check_1d", "analysis.trace_poincare_check_1d",
     None),
    ("isocone.analysis", "ball_volume_growth", "analysis.ball_volume_growth", None),
    ("isocone.analysis", "shifted_weight_separation", "analysis.shifted_weight_separation",
     None),
    ("isocone.experiments", "stability_sweep", "experiments.stability_sweep", None),
    ("isocone.experiments", "sharpness_sweep", "experiments.sharpness_sweep", None),
    ("isocone.experiments", "translation_diagnostics", "experiments.translation_diagnostics",
     None),
]
SELF_TIMES = ("coupling.build_coupling", "cli.main")

# per-layer metric -> unit; the order is the report order
METRICS = {
    **{f"{name}.s": "s" for _m, _a, name, _c in TARGETS},
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    "envelope.conj_pairs": "count",
    "envelope.argmax_pairs": "count",
    "envelope.conj_active_frac": "fraction",
    "envelope.argmax_active_frac": "fraction",
    "pde.pcg_iters": "count",
    "pde.n_vertices": "count",
    "cone_weight.weight_calls": "count",
    "cone_weight.points_per_call": "points/call",
}


class Recorder:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or None, op id]
        self.op_id = None
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, count):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = [name, time.perf_counter(), None,
                     recorder._stack[-1] if recorder._stack else None, recorder.op_id]
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = time.perf_counter()
                recorder._stack.pop()
            if count is not None:
                count(recorder.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "isocone" or n.startswith("isocone."))]
        for module_name, attr, name, count in TARGETS:
            home = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original, count))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, count)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded since ``install``."""
        totals = defaultdict(float)
        child_time = defaultdict(float)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
            # an inner call of the same function is already inside the outer span
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                totals[f"{name}.s"] += end - start
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            if name in SELF_TIMES:
                totals[f"{name}.self_s"] += (end - start) - child_time[index]
        c = self.counts
        derived = {
            "envelope.conj_active_frac":
                c["conj.distinct_argmin"] / c["conj.points"] if c["conj.points"] else 0.0,
            "envelope.argmax_active_frac":
                c["argmax.distinct_slopes"] / c["argmax.slopes"] if c["argmax.slopes"] else 0.0,
            "cone_weight.points_per_call":
                c["weight.points"] / c["cone_weight.weight_calls"]
                if c["cone_weight.weight_calls"] else 0.0,
        }
        out = {}
        for metric in METRICS:
            if metric in derived:
                out[metric] = derived[metric]
            elif metric in c:
                out[metric] = c[metric]
            else:
                out[metric] = totals.get(metric, 0.0) if METRICS[metric] == "s" else 0
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id"],
                       "spans": self.spans}, fh)
