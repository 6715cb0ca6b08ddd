"""Command-line entry point: config ingestion, dispatch, reproducible outputs.

Usage: isocone <verb> --config path [--out dir] [--seed n]

Verbs: measure | couple | sweep | sharpness | diag | check-amgm | check-1d
       | check-fmp | envelope.

Each verb returns its outputs and one ``Check`` per inequality it tests;
``main`` alone turns the checks into the exit code: 0 success, 1 usage/config
error, 2 verification failure (some check did not hold; the highest-severity
signal).  The seed is recorded in manifest.json; every verb is deterministic
without it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import (
    IntervalSet,
    cheeger_bruteforce,
    one_dim_stability_check,
    psi_k,
    quantitative_amgm_check,
    trace_poincare_check_1d,
)
from .cone_weight import Cone, HomWeight
from .coupling import (
    Resolutions,
    abp_chain_check,
    build_coupling,
    verify_coupling_estimates,
)
from .envelope import SlopeBody, check_c11, k_envelope, restricted_conjugate
from .expectations import EXPECTATIONS
from .experiments import (
    MINIMIZER_ASYM_TOL,
    default_corpus,
    eta_fourier_cos,
    sharpness_sweep,
    stability_sweep,
    translation_diagnostics,
)
from .geometry import StarSet, asymmetry, deficit, emit_csv
from .pde import AnisotropicMode, WeightedMode

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2

# the scalars of a coupling, in couple.csv's column order; report.json has them too
COUPLE_FIELDS = ("mode", "delta", "b_E", "sup_violation", "hessian_l1", "boundary_term",
                 "grad_range_hausdorff", "lip_grad", "convexity_violation", "slope_spacing")


class ConfigError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class Check:
    """One tested inequality: its verdict and the two numbers it compared."""

    name: str
    value: float
    bound: float
    ok: bool

    def __post_init__(self):
        object.__setattr__(self, "ok", bool(self.ok))  # not a NumPy bool


_REQUIRED = object()
_NOUNS = {float: "number", int: "integer", str: "string", bool: "true/false", dict: "object"}
# _read options for a box [[x_lo, x_hi], [y_lo, y_hi]]
_BOX = dict(shape=(2, 2), test=lambda box: all(lo < hi for lo, hi in box), need=" with lo < hi")


def _conform(val, kind, shape):
    """The JSON value as ``kind`` (float takes any number, and a bool is no
    number), or as tuples of it nested as ``shape`` says; None if it is not."""
    if shape:
        if not (isinstance(val, list) and shape[0] in (None, len(val))):
            return None
        items = tuple(_conform(x, kind, shape[1:]) for x in val)
        return None if None in items else items
    if not isinstance(val, (int, float) if kind is float else kind) or (
            kind is not bool and isinstance(val, bool)):
        return None
    return float(val) if kind is float else val


def _describe(kind, shape) -> str:
    """The expected JSON value, as in "[number, number]"."""
    if not shape:
        return _NOUNS[kind]
    inner = _describe(kind, shape[1:])
    return f"[{inner}, ...]" if shape[0] is None else f"[{', '.join([inner] * shape[0])}]"


def _read(config, path, kind=float, shape=(), default=_REQUIRED, test=None, need=""):
    """The config value at the dotted ``path``, or ``default`` if absent;
    ``shape`` gives nested list lengths (None: any) and ``test`` a further
    condition, worded by ``need``.  Numbers come back as floats, lists as
    tuples; anything else raises ConfigError naming the path."""
    section, _, key = path.rpartition(".")
    spec = _read(config, section, dict, default={}) if section else config
    if key not in spec:
        if default is _REQUIRED:
            raise ConfigError(f"{path} is required")
        return default
    val = _conform(spec[key], kind, shape)
    if val is None or not (test is None or test(val)):
        raise ConfigError(f"{path} must be {_describe(kind, shape)}{need}, got {spec[key]!r}")
    return val


def _require_inside(cone: Cone, path, box, clearance: float) -> None:
    """Raise ConfigError unless the box lies more than ``clearance`` inside
    the cone."""
    if cone.box_margin(box) <= clearance:
        raise ConfigError(f"{path} must lie more than {clearance:.12g} inside the cone, "
                          f"got {box!r}")


def parse_cone(config, path) -> Cone:
    spec = _read(config, path, dict)
    if "angles" in spec:
        return Cone(*_read(config, f"{path}.angles", shape=(2,)))
    if _read(config, f"{path}.full_plane", bool, default=False):
        return Cone.plane()
    raise ConfigError(f"{path} needs 'angles' or 'full_plane'")


def parse_weight(config) -> HomWeight:
    """The weight on the config's cone, which it keeps as ``.cone``."""
    cone = parse_cone(config, "cone")
    spec = _read(config, "weight", dict)
    if "monomial" in spec:
        return HomWeight.monomial(cone, *_read(config, "weight.monomial", shape=(2,)))
    if "profile" in spec:
        thetas = _read(config, "weight.profile.thetas", shape=(None,),
                       test=lambda t: len(t) >= 2 and cone.spanned_by(np.array(t)),
                       need=" with at least two increasing angles from the cone's "
                            f"{cone.angle_lo:.12g} to {cone.angle_hi:.12g}, each gap below pi")
        values = _read(config, "weight.profile.values", shape=(None,),
                       test=lambda v: len(v) == len(thetas) and all(x >= 0 for x in v),
                       need=" with one nonnegative value per angle")
        return HomWeight.from_profile(cone, np.array(thetas), np.array(values),
                                      _read(config, "weight.profile.alpha"))
    raise ConfigError("weight needs 'monomial' or 'profile'")


def parse_set(cone: Cone, weight, config, n_theta: int) -> StarSet:
    spec = _read(config, "set", dict)
    if "ball" in spec:
        r = _read(config, "set.ball.r", default=1.0)
        center = _read(config, "set.ball.center", shape=(2,), default=(0.0, 0.0))
        return StarSet.ball(cone, n_theta, r=r, center=center)
    if "star" in spec:
        if weight is None:
            raise ConfigError("star sets need a weight for the zero-mean projection")
        eps = _read(config, "set.star.eps")
        mode = _read(config, "set.star.eta.fourier_cos", int)
        return StarSet.perturbed_ball(weight, n_theta, eps, eta_fourier_cos(cone, mode))
    raise ConfigError("set needs 'ball' or 'star'")


def parse_body(config, path) -> SlopeBody:
    spec = _read(config, path, dict)
    if "polygon" in spec:
        return SlopeBody.polygon(np.asarray(_read(config, f"{path}.polygon", shape=(None, 2))))
    if "sector_disk" in spec:
        disk = f"{path}.sector_disk"
        cone = (parse_cone(config, f"{disk}.cone") if "cone" in _read(config, disk, dict)
                else Cone.plane())
        return SlopeBody.sector_disk(cone, _read(config, f"{disk}.rho", default=1.0,
                                                 test=lambda r: r > 0, need=" > 0"))
    raise ConfigError(f"{path} needs 'polygon' or 'sector_disk'")


def parse_resolutions(config):
    """(the angular node count of star sets, the coupling's Resolutions)."""
    n_theta = _read(config, "resolutions.n_theta", int, default=4096,
                    test=lambda n: n >= 3, need=" >= 3")
    return n_theta, Resolutions(
        mesh_h=_read(config, "resolutions.mesh_h", default=0.02),
        n_slope=_read(config, "resolutions.n_slope", int, (2,), default=(192, 384)),
        eval_h=_read(config, "resolutions.eval_h", default=0.0085))


def emit_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=float)
        fh.write("\n")


def write_manifest(out_dir, config, verb, seed, outputs) -> None:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    emit_json(os.path.join(out_dir, "manifest.json"), {
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
        "version": __version__,
        "verb": verb,
        "seed": seed,
        "outputs": sorted(outputs),
    })


def _run_measure(config, out_dir):
    n_theta, _ = parse_resolutions(config)
    weight = parse_weight(config)
    star = parse_set(weight.cone, weight, config, n_theta)
    rep = deficit(star, weight)
    a, x0 = asymmetry(star, weight, rep)
    emit_csv(os.path.join(out_dir, "measure.csv"),
             ("w_volume", "w_perimeter", "delta_w", "r_eq", "asym", "x0_1", "x0_2"),
             [(rep.w_volume, rep.w_perimeter, rep.deficit, rep.r_eq, a, x0[0], x0[1])])
    floor = -5.0 / n_theta
    return ["measure.csv"], [Check("deficit", rep.deficit, floor, rep.deficit >= floor)]


def _run_couple(config, out_dir):
    n_theta, resolutions = parse_resolutions(config)
    mode = _read(config, "mode", str, default="weighted",
                 test=("weighted", "anisotropic").__contains__, need=" (weighted or anisotropic)")
    if mode == "weighted":
        weight = parse_weight(config)
        q = _read(config, "Q", default=((0.2, 0.6), (0.2, 0.6)), **_BOX)
        _require_inside(weight.cone, "Q", q, 0.0)  # default Q too
        cone, pde_mode = weight.cone, WeightedMode(weight)
    else:
        cone, weight = parse_cone(config, "cone"), None
        body = parse_body(config, "body")
        if not body.area() > 0:
            raise ConfigError(f"body must have positive area, got {config['body']!r}")
        pde_mode = AnisotropicMode(body)
    report = build_coupling(parse_set(cone, weight, config, n_theta), pde_mode, resolutions)

    scalars = {name: getattr(report, name) for name in COUPLE_FIELDS}
    emit_csv(os.path.join(out_dir, "couple.csv"), COUPLE_FIELDS, [tuple(scalars.values())])
    report.field.dump_csv(os.path.join(out_dir, "envelope.csv"))

    tol = EXPECTATIONS["coupling_sup_violation_C"] * (resolutions.mesh_h + report.slope_spacing)
    checks = [
        Check("grad_range_hausdorff", report.grad_range_hausdorff, 2.0 * report.slope_spacing,
              report.grad_range_hausdorff <= 2.0 * report.slope_spacing),
        Check("sup_violation", report.sup_violation, tol, report.sup_violation <= tol),
    ]
    payload = {
        **scalars,
        "sup_violation_tol": tol,
        "n_interior_nodes": int(report.interior.sum()),
        "solve_residual": report.u.residual,
        "files": {"scalars": "couple.csv", "envelope": "envelope.csv"},
    }
    if report.mode == "weighted":
        chain = abp_chain_check(report)
        links = ("image_jacobian", "jacobian_amgm", "amgm_terminal")
        checks += [Check(f"chain_{link}", v, chain.tol_chain, v <= chain.tol_chain)
                   for link, v in zip(links, chain.link_violations)]
        payload["chain"] = {
            "values": list(chain.values()),
            "link_violations": list(chain.link_violations),
            "tol": chain.tol_chain,
            "ordered": chain.ordered,
            "amgm_field_violation": chain.amgm_field_violation,
            "n_precondition_failures": chain.n_precondition_failures,
            "n_midpoints": chain.n_midpoints,
        }
        if report.delta > 1e-10:  # the ratios divide by the deficit
            payload["ratio_table"] = verify_coupling_estimates(report, q)
    emit_json(os.path.join(out_dir, "report.json"), payload)
    return ["couple.csv", "envelope.csv", "report.json"], checks


def _run_sweep(config, out_dir):
    n_theta, _ = parse_resolutions(config)
    weight = parse_weight(config)
    result = stability_sweep(default_corpus(weight, n_theta), weight)
    result.to_csv(os.path.join(out_dir, "sweep.csv"))
    m = result.manifest
    cmax = 1.25 * EXPECTATIONS["stability_Cmax_quadrant_xy"]
    return ["sweep.csv"], [
        Check("minimizer_probe", m["probe_max_asym"], MINIMIZER_ASYM_TOL, m["probe_ok"]),
        Check("max_ratio", m["max_ratio"], cmax,
              math.isnan(m["max_ratio"]) or m["max_ratio"] <= cmax),
    ]


def _run_sharpness(config, out_dir):
    n_theta, _ = parse_resolutions(config)
    weight = parse_weight(config)
    mode = _read(config, "sharpness.eta.fourier_cos", int, default=4)
    eps_list = _read(config, "sharpness.eps_list", shape=(None,),
                     default=(0.02, 0.04, 0.08, 0.16),
                     test=lambda es: len(es) >= 3 and all(e <= 0.25 for e in es),
                     need=" with at least 3 entries, each at most 0.25")
    result, slope = sharpness_sweep(weight, eta_fourier_cos(weight.cone, mode),
                                    eps_list, n_theta=n_theta)
    result.to_csv(os.path.join(out_dir, "sharpness.csv"))
    return ["sharpness.csv"], [Check("slope_lower", slope, 0.45, 0.45 <= slope),
                               Check("slope_upper", slope, 0.55, slope <= 0.55)]


def _run_diag(config, out_dir):
    weight = parse_weight(config)
    # ball_volume_growth probes |xi| <= 0.5, and a row at t <= 0 is zeros
    t_list = _read(config, "diag.t_list", shape=(None,), default=(0.05, 0.1, 0.2),
                   test=lambda ts: len(ts) and all(0.0 <= t <= 0.5 for t in ts),
                   need=" with at least one entry, each in [0, 0.5]")
    box = _read(config, "diag.box", default=None, **_BOX)
    if box is not None:  # the default box is placed deep enough
        # the shifts |xi| <= max(t_list) need dist(box, boundary) >= 2 |xi|
        _require_inside(weight.cone, "diag.box", box, 2.0 * max(t_list))
    result = translation_diagnostics(weight, t_list, box=box)
    result.to_csv(os.path.join(out_dir, "diag.csv"))
    # a constancy direction must leave the weight exactly unshifted
    return ["diag.csv"], [
        Check(f"separation[{name},{t:.12g}]", sep, 1e-14, abs(sep) <= 1e-14)
        for name, t, _growth, sep in result.rows if name.startswith("C")]


def _run_check_amgm(config, out_dir):
    lam = _read(config, "amgm.lambda", shape=(None,), default=(1.0, 1.0))
    xs = _read(config, "amgm.x", shape=(None,),
               default=(1.2, 0.8) if len(lam) == 2 else _REQUIRED,
               test=lambda v: len(v) == len(lam), need=" with one value per lambda")
    lhs, rhs, holds = quantitative_amgm_check(lam, xs, _read(config, "amgm.c", default=1.0))
    emit_csv(os.path.join(out_dir, "amgm.csv"), ("lhs", "rhs", "holds"),
             [(lhs, rhs, "1" if holds else "0")])
    return ["amgm.csv"], [Check("amgm", lhs, rhs, holds)]


def _run_check_1d(config, out_dir):
    intervals = _read(config, "one_dim.intervals", shape=(None, 2), default=((0.0, 0.8),),
                      test=lambda ivs: len(ivs) > 0, need=" with at least one interval")
    l = _read(config, "one_dim.l", default=1.0, test=lambda l: 0.75 <= l <= 1.25,
              need=" in [0.75, 1.25]")
    gamma = _read(config, "one_dim.gamma", default=2.0, test=lambda g: g >= 0, need=" >= 0")
    lhs, den, ratio = one_dim_stability_check(IntervalSet(intervals), l, gamma)
    emit_csv(os.path.join(out_dir, "one_dim.csv"),
             ("lhs", "denominator", "ratio"), [(lhs, den, ratio)])
    # the constants are pinned per integer exponent; any other has no bound
    bound = (EXPECTATIONS["one_dim_Cgamma"].get(str(int(gamma)), math.inf)
             if gamma.is_integer() else math.inf)
    ok = (lhs == 0.0) or (den > 0 and ratio <= 1.01 * bound)
    return ["one_dim.csv"], [Check("stability_ratio", ratio, 1.01 * bound, ok)]


def _run_check_fmp(config, out_dir):
    d_list = _read(config, "fmp.D_list", shape=(None,), default=(2.5, 3.0, 4.0, 7.2))
    rows, checks = [], []
    for D in d_list:
        fc = psi_k(D)
        t = np.linspace(0.0, 0.5, 1000)
        margin = float(np.min(fc.psi(t) - 3.0 * fc.k * t ** ((D - 1.0) / D)))
        rows.append((D, fc.k, margin))
        checks.append(Check(f"psi_margin[{D:.12g}]", margin, -1e-12, margin >= -1e-12))
    emit_csv(os.path.join(out_dir, "fmp.csv"), ("D", "k", "psi_margin"), rows)

    E = IntervalSet(((1.0, 2.0),))
    tau = cheeger_bruteforce(E, 2.0).tau
    rep = trace_poincare_check_1d(
        E, [((1.0, 1.5), 0.0), ((1.5, 2.0), 1.0)], alpha=2.0, tau=tau)
    emit_csv(os.path.join(out_dir, "fmp_worked.csv"),
             ("tau", "lhs", "trace_rhs", "poincare_rhs"),
             [(tau, rep.lhs, rep.trace_rhs, rep.poincare_rhs)])
    checks += [Check("trace", rep.lhs, rep.trace_rhs, rep.trace_holds),
               Check("poincare", rep.lhs, rep.poincare_rhs, rep.poincare_holds)]
    return ["fmp.csv", "fmp_worked.csv"], checks


def _run_envelope(config, out_dir):
    box = _read(config, "envelope.box", default=((-2.0, 2.0), (-2.0, 2.0)), **_BOX)
    # the envelope grid needs at least 3 nodes per axis
    side = min(hi - lo for lo, hi in box)
    h = _read(config, "envelope.h", default=0.05, test=lambda h: 0 < h < side,
              need=f" > 0 and below the shorter box side {side:.12g}")
    n_pts = _read(config, "envelope.n_points", int, default=60,
                  test=lambda n: n >= 2, need=" >= 2")
    body = (parse_body(config, "envelope.body")
            if "body" in _read(config, "envelope", dict, default={})
            else SlopeBody.sector_disk(Cone.plane(), 1.0))
    u_kind = _read(config, "envelope.u", str, default="quadratic",
                   test=("quadratic", "double_well").__contains__,
                   need=" (quadratic or double_well)")
    gx, gy = np.meshgrid(np.linspace(*box[0], n_pts), np.linspace(*box[1], n_pts))
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    if u_kind == "quadratic":
        values = 0.5 * np.einsum("ij,ij->i", pts, pts)
    else:
        values = pts[:, 0] ** 4 - pts[:, 0] ** 2 + 4.0 * pts[:, 1] ** 2
    conj = restricted_conjugate(pts, values, body)
    field = k_envelope(conj, box, h, conj.points)
    field.dump_csv(os.path.join(out_dir, "envelope.csv"))
    report = check_c11(field)
    emit_csv(os.path.join(out_dir, "envelope_c11.csv"),
             ("lip_grad", "range_hausdorff", "convexity_violation", "n_slopes"),
             [(report.lip_grad, report.range_hausdorff, report.convexity_violation,
               report.n_distinct_slopes)])
    phi_at_samples, _xi, _idx = field.at_probes
    scale = max(1.0, float(np.max(np.abs(conj.values))))
    tol = 1e-9 * scale
    return ["envelope.csv", "envelope_c11.csv"], [
        Check("convexity_violation", report.convexity_violation, tol,
              report.convexity_violation <= tol),
        Check("below_data", float(np.max(phi_at_samples - conj.values)), tol,
              np.all(phi_at_samples <= conj.values + 1e-9 * scale)),
    ]


RUNNERS = {
    "measure": _run_measure,
    "couple": _run_couple,
    "sweep": _run_sweep,
    "sharpness": _run_sharpness,
    "diag": _run_diag,
    "check-amgm": _run_check_amgm,
    "check-1d": _run_check_1d,
    "check-fmp": _run_check_fmp,
    "envelope": _run_envelope,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="isocone", add_help=True)
    parser.add_argument("verb", choices=RUNNERS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        print(f"config not found: {args.config}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"malformed config JSON at line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return EXIT_USAGE

    os.makedirs(args.out, exist_ok=True)
    try:
        if not isinstance(config, dict):
            raise ConfigError("the config must be a JSON object")
        outputs, checks = RUNNERS[args.verb](config, args.out)
    except ValueError as exc:  # config errors, and domain errors of the input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    emit_json(os.path.join(args.out, "checks.json"), [dataclasses.asdict(c) for c in checks])
    write_manifest(args.out, config, args.verb, args.seed, outputs + ["checks.json"])
    return EXIT_VERIFICATION if any(not c.ok for c in checks) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
