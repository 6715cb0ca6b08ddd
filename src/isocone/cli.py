"""Command-line entry point: config ingestion, dispatch, reproducible outputs.

Usage: isocone <verb> --config path [--out dir] [--seed n]

Verbs: measure | couple | sweep | sharpness | diag | check-amgm | check-1d
       | check-fmp | envelope.

Exit codes: 0 success, 1 usage/config error, 2 verification failure (an
inequality that must hold did not; the highest-severity signal).  The seed
is recorded in manifest.json; every verb is deterministic without it.
"""

from __future__ import annotations

import argparse
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
    MinimizerDegenerateError,
    Resolutions,
    abp_chain_check,
    build_coupling,
    verify_coupling_estimates,
)
from .envelope import SlopeBody, check_c11, k_envelope, restricted_conjugate
from .expectations import EXPECTATIONS
from .experiments import (
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


class ConfigError(ValueError):
    pass


def parse_cone(spec) -> Cone:
    if "angles" in spec:
        lo, hi = spec["angles"]
        return Cone(float(lo), float(hi))
    if spec.get("full_plane"):
        return Cone.plane()
    raise ConfigError("cone spec needs 'angles' or 'full_plane'")


def parse_weight(cone: Cone, spec) -> HomWeight:
    if "monomial" in spec:
        a1, a2 = spec["monomial"]
        return HomWeight.monomial(cone, float(a1), float(a2))
    if "profile" in spec:
        p = spec["profile"]
        thetas = np.asarray(p["thetas"], dtype=float)
        values = np.asarray(p["values"], dtype=float)
        return HomWeight.from_profile(cone, thetas, values, float(p["alpha"]))
    raise ConfigError("weight spec needs 'monomial' or 'profile'")


def parse_set(cone: Cone, weight, spec, n_theta: int) -> StarSet:
    if "ball" in spec:
        b = spec["ball"]
        return StarSet.ball(cone, n_theta, r=float(b.get("r", 1.0)),
                            center=tuple(b.get("center", (0.0, 0.0))))
    if "star" in spec:
        if weight is None:
            raise ConfigError("star sets need a weight for the zero-mean projection")
        s = spec["star"]
        eps = float(s["eps"])
        eta = s.get("eta", {})
        if "fourier_cos" not in eta:
            raise ConfigError("star spec needs eta.fourier_cos")
        return StarSet.perturbed_ball(cone, weight, n_theta, eps,
                                      eta_fourier_cos(cone, int(eta["fourier_cos"])))
    raise ConfigError("set spec needs 'ball' or 'star'")


def _is_a(val, kind) -> bool:
    """isinstance for JSON values, where a bool does not count as a number."""
    return isinstance(val, kind) and not isinstance(val, bool)


def _is_list(val, kind) -> bool:
    return _is_a(val, (list, tuple)) and all(_is_a(x, kind) for x in val)


def _is_pair(val, kind) -> bool:
    return _is_list(val, kind) and len(val) == 2


def parse_resolutions(spec) -> dict:
    res = {"n_theta": 4096, "mesh_h": 0.02, "n_slope": (192, 384), "eval_h": 0.0085}
    res.update({key: spec[key] for key in res if key in spec})
    if not _is_a(res["n_theta"], int) or res["n_theta"] < 3:
        raise ConfigError(f"resolutions.n_theta must be an integer >= 3, got {res['n_theta']!r}")
    for key in ("mesh_h", "eval_h"):
        if not _is_a(res[key], (int, float)):
            raise ConfigError(f"resolutions.{key} must be a number, got {res[key]!r}")
    if not _is_pair(res["n_slope"], int):
        raise ConfigError(
            f"resolutions.n_slope must be a list of two integers, got {res['n_slope']!r}")
    res["n_slope"] = tuple(res["n_slope"])
    return res


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
    res = parse_resolutions(config.get("resolutions", {}))
    cone = parse_cone(config["cone"])
    weight = parse_weight(cone, config["weight"])
    star = parse_set(cone, weight, config["set"], res["n_theta"])
    rep = deficit(star, weight)
    a, x0 = asymmetry(star, weight)
    emit_csv(os.path.join(out_dir, "measure.csv"),
             ("w_volume", "w_perimeter", "delta_w", "r_eq", "asym", "x0_1", "x0_2"),
             [(rep.w_volume, rep.w_perimeter, rep.deficit, rep.r_eq, a, x0[0], x0[1])])
    ok = rep.deficit >= -5.0 / res["n_theta"]
    return (EXIT_OK if ok else EXIT_VERIFICATION), ["measure.csv"]


def _run_couple(config, out_dir):
    res_spec = parse_resolutions(config.get("resolutions", {}))
    cone = parse_cone(config["cone"])
    resolutions = Resolutions(mesh_h=res_spec["mesh_h"],
                              n_slope=res_spec["n_slope"],
                              eval_h=res_spec["eval_h"])
    mode_name = config.get("mode", "weighted")
    if mode_name == "weighted":
        weight = parse_weight(cone, config["weight"])
        star = parse_set(cone, weight, config["set"], res_spec["n_theta"])
        report = build_coupling(star, WeightedMode(weight), resolutions)
    else:
        body = parse_body(config["body"])
        star = parse_set(cone, None, config["set"], res_spec["n_theta"])
        report = build_coupling(star, AnisotropicMode(body), resolutions)

    rows = [(report.mode, report.delta, report.b_E, report.sup_violation,
             report.hessian_l1, report.boundary_term, report.grad_range_hausdorff,
             report.lip_grad, report.convexity_violation, report.slope_spacing)]
    emit_csv(os.path.join(out_dir, "couple.csv"),
             ("mode", "delta", "b_E", "sup_violation", "hessian_l1", "boundary_term",
              "grad_range_hausdorff", "lip_grad", "convexity_violation",
              "slope_spacing"), rows)
    report.field.dump_csv(os.path.join(out_dir, "envelope.csv"))
    outputs = ["couple.csv", "envelope.csv"]

    tol = EXPECTATIONS["coupling_sup_violation_C"] * (
        resolutions.mesh_h + report.slope_spacing)
    ok = (report.sup_violation <= tol
          and report.grad_range_hausdorff <= 2.0 * report.slope_spacing)
    payload = {
        "mode": report.mode,
        "delta": report.delta,
        "b_E": report.b_E,
        "sup_violation": report.sup_violation,
        "sup_violation_tol": tol,
        "hessian_l1": report.hessian_l1,
        "boundary_term": report.boundary_term,
        "grad_range_hausdorff": report.grad_range_hausdorff,
        "slope_spacing": report.slope_spacing,
        "lip_grad": report.lip_grad,
        "n_interior_nodes": int(report.interior.sum()),
        "pcg_iterations": report.u.iterations,
        "pcg_residual": report.u.residual,
        "files": {"scalars": "couple.csv", "envelope": "envelope.csv"},
    }
    if report.mode == "weighted":
        chain = abp_chain_check(report)
        ok = ok and chain.ordered
        payload["chain"] = {
            "values": list(chain.values()),
            "link_violations": list(chain.link_violations),
            "tol": chain.tol_chain,
            "ordered": chain.ordered,
            "amgm_field_violation": chain.amgm_field_violation,
            "n_precondition_failures": chain.n_precondition_failures,
        }
        if report.delta > 1e-10:
            q = config.get("Q", ((0.2, 0.6), (0.2, 0.6)))
            try:
                payload["ratio_table"] = verify_coupling_estimates(report, q)
            except MinimizerDegenerateError:
                payload["ratio_table"] = None
    emit_json(os.path.join(out_dir, "report.json"), payload)
    outputs.append("report.json")
    return (EXIT_OK if ok else EXIT_VERIFICATION), outputs


def parse_body(spec) -> SlopeBody:
    if "polygon" in spec:
        return SlopeBody.polygon(np.asarray(spec["polygon"], dtype=float))
    if "sector_disk" in spec:
        s = spec["sector_disk"]
        cone = parse_cone(s.get("cone", {"full_plane": True}))
        return SlopeBody.sector_disk(cone, float(s.get("rho", 1.0)))
    raise ConfigError("body spec needs 'polygon' or 'sector_disk'")


def _run_sweep(config, out_dir):
    res = parse_resolutions(config.get("resolutions", {}))
    cone = parse_cone(config["cone"])
    weight = parse_weight(cone, config["weight"])
    corpus = default_corpus(cone, weight, res["n_theta"])
    result = stability_sweep(corpus, weight)
    result.to_csv(os.path.join(out_dir, "sweep.csv"))
    cmax = EXPECTATIONS.get("stability_Cmax_quadrant_xy", math.inf)
    ok = result.manifest["probe_ok"] and (
        math.isnan(result.manifest["max_ratio"])
        or result.manifest["max_ratio"] <= 1.25 * cmax)
    return (EXIT_OK if ok else EXIT_VERIFICATION), ["sweep.csv"]


def _run_sharpness(config, out_dir):
    res = parse_resolutions(config.get("resolutions", {}))
    cone = parse_cone(config["cone"])
    weight = parse_weight(cone, config["weight"])
    spec = config.get("sharpness", {})
    mode = int(spec.get("eta", {}).get("fourier_cos", 4))
    eps_list = spec.get("eps_list", [0.02, 0.04, 0.08, 0.16])
    result, slope = sharpness_sweep(cone, weight, eta_fourier_cos(cone, mode),
                                    eps_list, n_theta=res["n_theta"])
    result.to_csv(os.path.join(out_dir, "sharpness.csv"))
    ok = 0.45 <= slope <= 0.55
    return (EXIT_OK if ok else EXIT_VERIFICATION), ["sharpness.csv"]


def _run_diag(config, out_dir):
    cone = parse_cone(config["cone"])
    weight = parse_weight(cone, config["weight"])
    spec = config.get("diag", {})
    t_list = spec.get("t_list", [0.05, 0.1, 0.2])
    box = spec.get("box")
    if box is not None:
        box = ((box[0][0], box[0][1]), (box[1][0], box[1][1]))
    result = translation_diagnostics(cone, weight, t_list, box=box)
    result.to_csv(os.path.join(out_dir, "diag.csv"))
    ok = True
    for name, t, growth, sep in result.rows:
        if name.startswith("C") and not math.isnan(sep) and abs(sep) > 1e-14:
            ok = False
    return (EXIT_OK if ok else EXIT_VERIFICATION), ["diag.csv"]


def _run_check_amgm(config, out_dir):
    spec = config.get("amgm", {})
    lam = spec.get("lambda", [1.0, 1.0])
    xs = spec.get("x", [1.2, 0.8])
    c = spec.get("c", 1.0)
    for key, val in (("lambda", lam), ("x", xs)):
        if not _is_list(val, (int, float)):
            raise ConfigError(f"amgm.{key} must be a list of numbers, got {val!r}")
    if not _is_a(c, (int, float)):
        raise ConfigError(f"amgm.c must be a number, got {c!r}")
    lhs, rhs, holds = quantitative_amgm_check(lam, xs, float(c))
    emit_csv(os.path.join(out_dir, "amgm.csv"), ("lhs", "rhs", "holds"),
             [(lhs, rhs, "1" if holds else "0")])
    return (EXIT_OK if holds else EXIT_VERIFICATION), ["amgm.csv"]


def _run_check_1d(config, out_dir):
    spec = config.get("one_dim", {})
    intervals = spec.get("intervals", [[0.0, 0.8]])
    l, gamma = spec.get("l", 1.0), spec.get("gamma", 2.0)
    if not (_is_a(intervals, (list, tuple))
            and all(_is_pair(iv, (int, float)) for iv in intervals)):
        raise ConfigError(f"one_dim.intervals must be a list of [a, b] number pairs, "
                          f"got {intervals!r}")
    for key, val in (("l", l), ("gamma", gamma)):
        if not _is_a(val, (int, float)):
            raise ConfigError(f"one_dim.{key} must be a number, got {val!r}")
    l, gamma = float(l), float(gamma)
    E = IntervalSet(tuple((a, b) for a, b in intervals))
    lhs, den, ratio = one_dim_stability_check(E, l, gamma)
    emit_csv(os.path.join(out_dir, "one_dim.csv"),
             ("lhs", "denominator", "ratio"), [(lhs, den, ratio)])
    # the constants are pinned per integer exponent; any other has no bound
    bound = (EXPECTATIONS["one_dim_Cgamma"].get(str(int(gamma)), math.inf)
             if gamma.is_integer() else math.inf)
    ok = (lhs == 0.0) or (den > 0 and ratio <= 1.01 * bound)
    return (EXIT_OK if ok else EXIT_VERIFICATION), ["one_dim.csv"]


def _run_check_fmp(config, out_dir):
    spec = config.get("fmp", {})
    d_list = spec.get("D_list", [2.5, 3.0, 4.0, 7.2])
    if not _is_list(d_list, (int, float)):
        raise ConfigError(f"fmp.D_list must be a list of numbers, got {d_list!r}")
    rows = []
    ok = True
    for D in d_list:
        fc = psi_k(float(D))
        t = np.linspace(0.0, 0.5, 1000)
        margin = float(np.min(fc.psi(t) - 3.0 * fc.k * t ** ((D - 1.0) / D)))
        rows.append((D, fc.k, margin))
        ok = ok and margin >= -1e-12
    emit_csv(os.path.join(out_dir, "fmp.csv"), ("D", "k", "psi_margin"), rows)

    E = IntervalSet(((1.0, 2.0),))
    tau = cheeger_bruteforce(E, 2.0).tau
    rep = trace_poincare_check_1d(
        E, [((1.0, 1.5), 0.0), ((1.5, 2.0), 1.0)], alpha=2.0, tau=tau)
    emit_csv(os.path.join(out_dir, "fmp_worked.csv"),
             ("tau", "lhs", "trace_rhs", "poincare_rhs"),
             [(tau, rep.lhs, rep.trace_rhs, rep.poincare_rhs)])
    ok = ok and rep.trace_holds and rep.poincare_holds
    return (EXIT_OK if ok else EXIT_VERIFICATION), ["fmp.csv", "fmp_worked.csv"]


def _run_envelope(config, out_dir):
    spec = config.get("envelope", {})
    h = spec.get("h", 0.05)
    if not (_is_a(h, (int, float)) and h > 0):
        raise ConfigError(f"envelope.h must be a positive number, got {h!r}")
    n_pts = spec.get("n_points", 60)
    if not (_is_a(n_pts, int) and n_pts >= 2):
        raise ConfigError(f"envelope.n_points must be an integer >= 2, got {n_pts!r}")
    box = spec.get("box", ((-2.0, 2.0), (-2.0, 2.0)))
    if not (_is_pair(box, (list, tuple))
            and all(_is_pair(pair, (int, float)) and pair[0] < pair[1] for pair in box)):
        raise ConfigError(f"envelope.box must be two [lo, hi] pairs with lo < hi, got {box!r}")
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    body = parse_body(spec.get("body", {"sector_disk": {"rho": 1.0}}))
    u_kind = spec.get("u", "quadratic")
    xs = np.linspace(box[0][0], box[0][1], n_pts)
    ys = np.linspace(box[1][0], box[1][1], n_pts)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    if u_kind == "quadratic":
        values = 0.5 * np.einsum("ij,ij->i", pts, pts)
    elif u_kind == "double_well":
        values = pts[:, 0] ** 4 - pts[:, 0] ** 2 + 4.0 * pts[:, 1] ** 2
    else:
        raise ConfigError(f"unknown envelope test function '{u_kind}'")
    conj = restricted_conjugate(pts, values, body)
    field = k_envelope(conj, box, float(h))
    field.dump_csv(os.path.join(out_dir, "envelope.csv"))
    report = check_c11(field)
    emit_csv(os.path.join(out_dir, "envelope_c11.csv"),
             ("lip_grad", "range_hausdorff", "convexity_violation", "n_slopes"),
             [(report.lip_grad, report.range_hausdorff, report.convexity_violation,
               report.n_distinct_slopes)])
    phi_at_samples, _xi, _idx = conj.envelope_at(conj.points)
    scale = max(1.0, float(np.max(np.abs(conj.values))))
    below = bool(np.all(phi_at_samples <= conj.values + 1e-9 * scale))
    ok = report.convexity_violation <= 1e-9 * scale and below
    return (EXIT_OK if ok else EXIT_VERIFICATION), ["envelope.csv", "envelope_c11.csv"]


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
    runner = RUNNERS[args.verb]
    try:
        code, outputs = runner(config, args.out)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    write_manifest(args.out, config, args.verb, args.seed, outputs)
    return code


if __name__ == "__main__":
    sys.exit(main())
