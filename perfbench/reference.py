"""Reference outputs: what each op must produce, and the check against it.

``extract`` reads an op's output directory into named scalars. ``check``
compares them with the stored entry. Quantities that do not depend on how
argmax ties are broken (deficits, datum b_E, envelope values, sweep ratios,
tau, psi margins, the verdict bounds) must match to rounding. The
envelope's maximizing slope does depend on the tie rule, so the metrics
built from it (hessian_l1, lip_grad, sup_violation, range/Hausdorff
distances, slope counts, the chain integrals) get a tolerance wide enough
for a different canonical rule, one slope cell for distances.

The exit code must match too, with one exception. The ``couple`` verdict
(exit 0 or 2) compares tie-dependent values with their bounds:
grad_range_hausdorff <= 2 * slope_spacing, sup_violation <= its tolerance
and, in weighted mode, each link of the ABP chain. When a recorded verdict
input lies within its own tolerance of its bound, a different tie rule may
flip the verdict, and either exit 0 or exit 2 is accepted. The ``envelope``
verb's verdict reads only envelope values (convexity violation and the
envelope-below-data test at 1e-9 times the data scale, recorded violations
are about 1e-15), which no tie rule changes, so its exit code must match.

Regenerate the table with ``python3 perfbench/record.py`` after a change
that is meant to alter outputs.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

TIGHT = (1e-9, 1e-12)  # (rtol, atol)
TIE_DEPENDENT = {
    "hessian_l1": (0.05, 0.0),
    "lip_grad": (0.5, 0.0),
    "sup_violation": (0.5, 0.0),
    "chain.image_volume": (0.05, 0.0),
    "chain.jacobian_integral": (0.05, 0.0),
    "chain.amgm_integral": (0.05, 0.0),
    "c11.lip_grad": (0.5, 0.0),
    "c11.range_hausdorff": (0.5, 0.0),
    "c11.n_slopes": (0.1, 0.0),
}
# checked against one slope cell (the body's sample spacing) instead
SPACING_TOLERANT = ("grad_range_hausdorff",)
# recorded but not compared: convexity violations and the boundary term are
# rounding noise around zero
UNCHECKED = ("convexity_violation", "c11.convexity_violation", "boundary_term")

VERDICT_EXITS = (0, 2)
# The couple verdict: it passes when every (terms, bound) holds, i.e. when
# sum(coef * value) <= bound for each; the bounds are tie-independent.
COUPLE_VERDICT = [
    ({"grad_range_hausdorff": 1.0}, lambda v: 2.0 * v["slope_spacing"]),
    ({"sup_violation": 1.0}, lambda v: v["sup_violation_tol"]),
    ({"chain.image_volume": 1.0, "chain.jacobian_integral": -1.0}, lambda v: v["chain.tol"]),
    ({"chain.jacobian_integral": 1.0, "chain.amgm_integral": -1.0}, lambda v: v["chain.tol"]),
    ({"chain.amgm_integral": 1.0, "chain.terminal": -1.0}, lambda v: v["chain.tol"]),
]

# output file -> number of leading key columns (0: single row, names only)
OUTPUTS = {
    "measure": {"measure.csv": 0},
    "couple": {"couple.csv": 0},
    "sweep": {"sweep.csv": 1},
    "sharpness": {"sharpness.csv": 1},
    "diag": {"diag.csv": 2},
    "check-amgm": {"amgm.csv": 0},
    "check-1d": {"one_dim.csv": 0},
    "check-fmp": {"fmp.csv": 1, "fmp_worked.csv": 0},
    "envelope": {"envelope_c11.csv": 0},
}
PREFIX = {"envelope_c11.csv": "c11."}


def _number(text: str) -> float:
    return math.nan if text == "" else float(text)


def _read_csv(path: str, key_cols: int, prefix: str = "") -> dict:
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    values = {}
    for line in lines[1:]:
        cells = line.split(",")
        tag = "" if key_cols == 0 else "[" + ",".join(cells[:key_cols]) + "]"
        for name, cell in zip(header[key_cols:], cells[key_cols:]):
            try:
                values[prefix + name + tag] = _number(cell)
            except ValueError:  # string columns such as the coupling mode
                continue
    return values


def extract(verb: str, out_dir: str) -> dict:
    """Named scalars of one op's outputs; raises OSError if a file is missing."""
    values = {}
    for name, key_cols in OUTPUTS[verb].items():
        values.update(_read_csv(os.path.join(out_dir, name), key_cols, PREFIX.get(name, "")))
    if verb in ("couple", "envelope"):
        phi = np.loadtxt(os.path.join(out_dir, "envelope.csv"), delimiter=",",
                         skiprows=1, usecols=2, ndmin=1)
        values["phi_sum"] = float(phi.sum())
        values["phi_min"] = float(phi.min())
    if verb == "couple":
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        values["sup_violation_tol"] = report["sup_violation_tol"]
        if "chain" in report:  # weighted mode only
            names = ("image_volume", "jacobian_integral", "amgm_integral", "terminal")
            values.update(("chain." + n, x) for n, x in zip(names, report["chain"]["values"]))
            values["chain.tol"] = report["chain"]["tol"]
    return values


def allowed_deviation(name: str, want: dict) -> float:
    """How far an output may lie from the reference value ``want[name]``."""
    if name in SPACING_TOLERANT:
        return want["slope_spacing"]
    rtol, atol = TIE_DEPENDENT.get(name, TIGHT)
    return atol + rtol * abs(want[name])


def verdict_is_borderline(entry: dict) -> bool:
    """True if values within tolerance of the reference could flip its verdict."""
    want = entry["values"]
    if entry["verb"] != "couple" or not want:
        return False
    for terms, bound in COUPLE_VERDICT:
        if not all(name in want for name in terms):
            continue  # the chain exists in weighted mode only
        lhs = sum(coef * want[name] for name, coef in terms.items())
        if not math.isfinite(lhs):
            continue
        slack = sum(abs(coef) * allowed_deviation(name, want) for name, coef in terms.items())
        if lhs - slack <= bound(want) < lhs + slack:
            return True
    return False


def check(entry: dict, exit_code, values: dict) -> list:
    """Mismatches between an op's (exit code, values) and its reference entry."""
    problems = []
    if exit_code != entry["exit"] and not (
            verdict_is_borderline(entry)
            and exit_code in VERDICT_EXITS and entry["exit"] in VERDICT_EXITS):
        problems.append(f"exit {exit_code} != reference {entry['exit']}")
    want = entry["values"]
    for name in sorted(set(want) | set(values)):
        if name in UNCHECKED:
            continue
        if name not in values or name not in want:
            problems.append(f"{name}: present in only one of output and reference")
            continue
        got, expected = values[name], want[name]
        if math.isnan(got) or math.isnan(expected):
            close = math.isnan(got) and math.isnan(expected)
        else:
            close = got == expected or abs(got - expected) <= allowed_deviation(name, want)
        if not close:
            problems.append(f"{name}: {got!r} != reference {expected!r}")
    return problems


def load() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
