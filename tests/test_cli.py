"""CLI dispatch, exit codes, output schemas, determinism."""

import ast
import json
import math
import os
import pathlib

import numpy as np
import pytest

from isocone import cli
from isocone.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from isocone.expectations import EXPECTATIONS

BASE_CONFIG = {
    "cone": {"angles": [0.0, math.pi / 2]},
    "weight": {"monomial": [1, 1]},
    "set": {"ball": {"r": 1.0}},
    "resolutions": {"n_theta": 2048},
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def run(tmp_path, verb, config, out="out"):
    cfg = write_config(tmp_path, config)
    out_dir = tmp_path / out
    code = main([verb, "--config", cfg, "--out", str(out_dir)])
    return code, out_dir


class TestMeasure:
    def test_ball_measure(self, tmp_path):
        code, out = run(tmp_path, "measure", BASE_CONFIG)
        assert code == EXIT_OK
        lines = (out / "measure.csv").read_text().splitlines()
        assert lines[0] == "w_volume,w_perimeter,delta_w,r_eq,asym,x0_1,x0_2"
        row = [float(v) for v in lines[1].split(",")]
        assert abs(row[2]) <= 1e-9  # delta_w of the minimizer

    def test_manifest_written(self, tmp_path):
        _code, out = run(tmp_path, "measure", BASE_CONFIG)
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"config_sha256", "version", "verb", "seed", "outputs"}
        assert manifest["verb"] == "measure" and manifest["outputs"] == ["checks.json", "measure.csv"]

    def test_determinism_double_run(self, tmp_path):
        _c1, out1 = run(tmp_path, "measure", BASE_CONFIG, out="o1")
        _c2, out2 = run(tmp_path, "measure", BASE_CONFIG, out="o2")
        assert (out1 / "measure.csv").read_bytes() == (out2 / "measure.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


class TestErrorPaths:
    def test_unknown_verb_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["frobnicate", "--config", cfg]) == EXIT_USAGE

    def test_missing_config(self, tmp_path):
        assert main(["measure", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{bad json")
        assert main(["measure", "--config", str(path)]) == EXIT_USAGE
        assert "line 1" in capsys.readouterr().err

    def test_inadmissible_amgm_input(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["amgm"] = {"lambda": [1.0, 1.0], "x": [3.0, 3.0], "c": 1.0}
        code, _out = run(tmp_path, "check-amgm", config)
        assert code == EXIT_USAGE


class TestCheckers:
    def test_amgm_verdict(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["amgm"] = {"lambda": [1.0, 1.0], "x": [1.2, 0.8], "c": 1.0}
        code, out = run(tmp_path, "check-amgm", config)
        assert code == EXIT_OK
        lines = (out / "amgm.csv").read_text().splitlines()
        assert lines[0] == "lhs,rhs,holds"
        assert lines[1].endswith(",1")

    def test_one_dim_verdict(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["one_dim"] = {"intervals": [[0.0, 0.8]], "l": 1.0, "gamma": 2}
        code, out = run(tmp_path, "check-1d", config)
        assert code == EXIT_OK
        row = (out / "one_dim.csv").read_text().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(61.0 / 48.0, abs=1e-9)

    def test_fmp_verdict(self, tmp_path):
        code, out = run(tmp_path, "check-fmp", BASE_CONFIG)
        assert code == EXIT_OK
        rows = (out / "fmp.csv").read_text().splitlines()
        assert rows[0] == "D,k,psi_margin"
        assert len(rows) == 5
        worked = (out / "fmp_worked.csv").read_text().splitlines()[1].split(",")
        assert float(worked[1]) == pytest.approx(2.25, abs=1e-9)

    def test_envelope_dump(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["envelope"] = {"u": "quadratic", "h": 0.2, "n_points": 40,
                              "body": {"sector_disk": {"rho": 1.0}}}
        code, out = run(tmp_path, "envelope", config)
        assert code == EXIT_OK
        header = (out / "envelope.csv").read_text().splitlines()[0]
        assert header == "x,y,phi,xi1,xi2"
        assert (out / "envelope_c11.csv").exists()

    @pytest.mark.parametrize("h", [0.0, -0.05, True, "0.05"])
    def test_nonpositive_step_rejected_before_work(self, tmp_path, h):
        config = dict(BASE_CONFIG)
        config["envelope"] = {"u": "quadratic", "h": h, "n_points": 40}
        code, out = run(tmp_path, "envelope", config)
        assert code == EXIT_USAGE
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("n_points", [7.9, True, 1, "40"])
    def test_bad_point_count_rejected_before_work(self, tmp_path, n_points):
        config = dict(BASE_CONFIG)
        config["envelope"] = {"u": "quadratic", "h": 0.2, "n_points": n_points}
        code, out = run(tmp_path, "envelope", config)
        assert code == EXIT_USAGE
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("box", [[[-2, 2]], [[2, -2], [-2, 2]], [[-2, "2"], [-2, 2]]])
    def test_bad_box_rejected_before_work(self, tmp_path, box):
        config = dict(BASE_CONFIG)
        config["envelope"] = {"u": "quadratic", "h": 0.2, "n_points": 40, "box": box}
        code, out = run(tmp_path, "envelope", config)
        assert code == EXIT_USAGE
        assert list(out.iterdir()) == []


class TestEmit:
    def test_empty_result_set_header_only(self, tmp_path):
        from isocone.cli import emit_csv
        path = tmp_path / "empty.csv"
        emit_csv(path, ("a", "b"), [])
        assert path.read_text() == "a,b\n"

    def test_numbers_match_savetxt(self, tmp_path):
        from isocone.geometry import emit_csv
        rows = [(-0.0, 1e-5, 1e14, 3), (7, -2.5, 1.2e14, 0.1)]
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        emit_csv(ours, ("a", "b", "c", "d"), rows)
        np.savetxt(ref, rows, delimiter=",", header="a,b,c,d", comments="", fmt="%.12g")
        assert ours.read_bytes() == ref.read_bytes()

    def test_nan_cells_empty_and_strings_pass_through(self, tmp_path):
        from isocone.geometry import emit_csv
        path = tmp_path / "mixed.csv"
        emit_csv(path, ("mode", "x", "y"),
                 [("weighted", float("nan"), 2.5), ("nan-free", 1e-5, -0.0)])
        assert path.read_text() == "mode,x,y\nweighted,,2.5\nnan-free,1e-05,-0\n"


class TestCoupleVerb:
    def test_couple_emits_json_report(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["set"] = {"star": {"eps": 0.1, "eta": {"fourier_cos": 4}}}
        config["resolutions"] = {"n_theta": 2048, "mesh_h": 0.04,
                                 "n_slope": [256, 96], "eval_h": 0.012}
        code, out = run(tmp_path, "couple", config)
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "weighted"
        assert report["chain"]["ordered"] is True
        assert set(report["ratio_table"]) == {"hessian_ratio", "boundary_ratio",
                                              "weight_ratio"}
        assert report["n_interior_nodes"] > 0
        assert report["solve_residual"] <= 1e-12
        assert 0 <= report["chain"]["n_precondition_failures"] <= report["chain"]["n_midpoints"]
        assert report["chain"]["n_midpoints"] > 0
        header = (out / "couple.csv").read_text().splitlines()[0].split(",")
        assert set(header) <= set(report)  # one field list feeds both
        assert (out / "envelope.csv").exists()
        back = json.loads(json.dumps(report))
        assert back == report  # round-trips to equal values

    @pytest.mark.parametrize("bad", [{"mesh_h": 0.0}, {"eval_h": -0.006},
                                     {"n_slope": [1, 192]}, {"n_slope": [512, 1]},
                                     {"n_theta": 0}, {"n_theta": 1}, {"n_theta": 2},
                                     {"n_theta": 2.5}, {"n_theta": "64"},
                                     {"mesh_h": "0.02"}, {"eval_h": None}, {"mesh_h": True},
                                     {"n_slope": 512}])
    def test_bad_resolutions_rejected_before_work(self, tmp_path, bad):
        config = dict(BASE_CONFIG)
        config["resolutions"] = {**BASE_CONFIG["resolutions"], **bad}
        code, out = run(tmp_path, "couple", config)
        assert code == EXIT_USAGE
        assert not (out / "couple.csv").exists()

    def test_tiny_set_chain_has_zero_image(self, tmp_path):
        # the band leaves no eval node of this set, so the chain sees no slope
        config = dict(BASE_CONFIG)
        config["set"] = {"ball": {"r": 0.008}}
        config["resolutions"] = {"n_theta": 1024, "mesh_h": 0.004,
                                 "n_slope": [64, 48], "eval_h": 0.006}
        code, out = run(tmp_path, "couple", config)
        assert code != EXIT_USAGE
        report = json.loads((out / "report.json").read_text())
        assert report["n_interior_nodes"] == 0
        assert report["chain"]["values"][0] == 0.0


class TestVerificationExit:
    def test_exceeding_pinned_one_dim_bound_flags(self, tmp_path):
        # a set vanishing near the origin pushes the ratio beyond the pinned
        # family constant: the regression signal is exit code 2
        config = dict(BASE_CONFIG)
        config["one_dim"] = {"intervals": [[0.01, 0.02]], "l": 1.2, "gamma": 2}
        code, _out = run(tmp_path, "check-1d", config)
        assert code == EXIT_VERIFICATION

    @pytest.mark.parametrize("gamma, pinned", [(2.0, True), (1.5, False), (2.5, False)])
    def test_bound_pinned_for_integer_exponents_only(self, tmp_path, gamma, pinned):
        # C_1 and C_2 hold for gamma = 1 and 2 only; the ratio here exceeds
        # the constant of the integer part of gamma, which must not judge a
        # fractional gamma
        config = dict(BASE_CONFIG)
        config["one_dim"] = {"intervals": [[0.01, 0.02]], "l": 1.2, "gamma": gamma}
        code, out = run(tmp_path, "check-1d", config)
        ratio = float((out / "one_dim.csv").read_text().splitlines()[1].split(",")[2])
        assert ratio > 1.01 * EXPECTATIONS["one_dim_Cgamma"][str(int(gamma))]
        assert code == (EXIT_VERIFICATION if pinned else EXIT_OK)

    @pytest.mark.parametrize("bad", [{"l": True}, {"gamma": True}, {"gamma": "2"}])
    def test_bad_one_dim_numbers_rejected_before_work(self, tmp_path, bad):
        config = dict(BASE_CONFIG)
        config["one_dim"] = {"intervals": [[0.0, 0.8]], "l": 1.0, "gamma": 2, **bad}
        code, out = run(tmp_path, "check-1d", config)
        assert code == EXIT_USAGE
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("intervals", [[[False, True]], [["0", "1"]], [[0.1]], "0,1"])
    def test_bad_intervals_rejected_before_work(self, tmp_path, intervals):
        config = dict(BASE_CONFIG)
        config["one_dim"] = {"intervals": intervals, "l": 1.0, "gamma": 2}
        code, out = run(tmp_path, "check-1d", config)
        assert code == EXIT_USAGE
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("bad", [{"lambda": [True, 1.0]}, {"lambda": 1.0},
                                     {"x": ["1.2", 0.8]}, {"c": True}, {"c": "1"}])
    def test_bad_amgm_numbers_rejected_before_work(self, tmp_path, bad):
        config = dict(BASE_CONFIG)
        config["amgm"] = {"lambda": [1.0, 1.0], "x": [1.2, 0.8], "c": 1.0, **bad}
        code, out = run(tmp_path, "check-amgm", config)
        assert code == EXIT_USAGE
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("d_list", [["3"], [True], [2.5, None], 3.0])
    def test_bad_fmp_d_list_rejected_before_work(self, tmp_path, d_list):
        config = dict(BASE_CONFIG)
        config["fmp"] = {"D_list": d_list}
        code, out = run(tmp_path, "check-fmp", config)
        assert code == EXIT_USAGE
        assert list(out.iterdir()) == []

    def test_integer_d_list_runs(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["fmp"] = {"D_list": [3, 4.0]}
        code, out = run(tmp_path, "check-fmp", config)
        assert code == EXIT_OK
        rows = (out / "fmp.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["D", "3", "4"]


class TestSweepVerbs:
    def test_sharpness_verb(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["sharpness"] = {"eta": {"fourier_cos": 4},
                               "eps_list": [0.02, 0.04, 0.08]}
        code, out = run(tmp_path, "sharpness", config)
        assert code == EXIT_OK
        header = (out / "sharpness.csv").read_text().splitlines()[0]
        assert header == "param,delta_w,asym,ratio"

    def test_sweep_verb_default_corpus(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["resolutions"] = {"n_theta": 1024}
        code, out = run(tmp_path, "sweep", config)
        assert code == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "param,delta_w,asym,ratio"
        assert len(rows) == 31

    def test_diag_verb(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["weight"] = {"monomial": [1, 0]}
        config["diag"] = {"t_list": [0.05, 0.1]}
        code, out = run(tmp_path, "diag", config)
        assert code == EXIT_OK
        rows = (out / "diag.csv").read_text().splitlines()
        assert rows[0] == "direction,t,growth,separation"


ENVELOPE = {"u": "quadratic", "h": 0.2, "n_points": 40}


class TestConfigReader:
    """Every config value is type-checked by one reader, before any output."""

    @pytest.mark.parametrize("verb, patch, key", [
        # tracebacks before the reader
        ("measure", {"cone": {"angles": 5}}, "cone.angles"),
        ("diag", {"diag": {"box": [[0.3]]}}, "diag.box"),
        ("diag", {"diag": {"t_list": ["0.05", 0.1]}}, "diag.t_list"),
        # silently accepted before the reader
        ("measure", {"cone": {"angles": [0, True]}}, "cone.angles"),
        ("measure", {"cone": {"angles": ["0", "1.5"]}}, "cone.angles"),
        ("measure", {"weight": {"monomial": [True, True]}}, "weight.monomial"),
        ("measure", {"set": {"ball": {"r": "0.9"}}}, "set.ball.r"),
        ("measure", {"set": {"star": {"eps": "0.1", "eta": {"fourier_cos": 4}}}},
         "set.star.eps"),
        ("measure", {"set": {"star": {"eps": 0.1, "eta": {"fourier_cos": 2.7}}}},
         "set.star.eta.fourier_cos"),
        ("measure", {"set": {"star": {"eps": 0.1, "eta": {"fourier_cos": True}}}},
         "set.star.eta.fourier_cos"),
        ("sharpness", {"sharpness": {"eps_list": ["0.02", 0.04, 0.08]}}, "sharpness.eps_list"),
        ("envelope", {"envelope": {**ENVELOPE, "body": {"sector_disk": {"rho": True}}}},
         "envelope.body.sector_disk.rho"),
        ("envelope", {"envelope": {**ENVELOPE,
                                   "body": {"polygon": [[-1, 0], [1, "1"], [0, 1]]}}},
         "envelope.body.polygon"),
        # a misleading message before the reader ("error: 'body'")
        ("couple", {"mode": "weigthed"}, "mode"),
        # a JSON bool for the one flag, and sections that are not objects
        ("envelope", {"envelope": {**ENVELOPE, "body": {"sector_disk": {
            "cone": {"full_plane": 1}}}}}, "envelope.body.sector_disk.cone.full_plane"),
        ("measure", {"set": {"ball": 1.0}}, "set.ball"),
        ("check-1d", {"one_dim": [0.0, 0.8]}, "one_dim"),
        # a message naming no key before the reader ("max() arg is an empty sequence")
        ("diag", {"diag": {"t_list": []}}, "diag.t_list"),
        # a Q outside the cone, given or defaulted, failed only after the coupling ran
        ("couple", {"Q": [[-0.2, 0.2], [0.2, 0.6]],
                    "set": {"star": {"eps": 0.1, "eta": {"fourier_cos": 4}}}}, "Q"),
        ("couple", {"cone": {"angles": [math.pi / 2, math.pi]}, "weight": {"monomial": [0, 1]},
                    "set": {"star": {"eps": 0.1, "eta": {"fourier_cos": 4}}}}, "Q"),
    ])
    def test_bad_value_names_its_key_before_any_output(self, tmp_path, capsys, verb, patch,
                                                       key):
        code, out = run(tmp_path, verb, {**BASE_CONFIG, **patch})
        assert code == EXIT_USAGE
        assert f"error: {key} " in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("verb, drop", [("measure", "weight"), ("measure", "cone"),
                                            ("couple", "set")])
    def test_missing_required_key_is_a_config_error(self, tmp_path, capsys, verb, drop):
        config = {k: v for k, v in BASE_CONFIG.items() if k != drop}
        code, out = run(tmp_path, verb, config)
        assert code == EXIT_USAGE
        assert f"error: {drop} is required" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_config_must_be_an_object(self, tmp_path):
        code, out = run(tmp_path, "measure", [BASE_CONFIG])
        assert code == EXIT_USAGE
        assert list(out.iterdir()) == []

    def test_integers_and_plane_flag_accepted(self, tmp_path):
        config = {**BASE_CONFIG, "cone": {"angles": [0, 1]}, "set": {"ball": {"r": 1}}}
        assert run(tmp_path, "measure", config, out="m")[0] == EXIT_OK
        config = {**BASE_CONFIG, "envelope": {**ENVELOPE, "h": 1, "box": [[-2, 2], [-2, 2]],
                                              "body": {"sector_disk": {
                                                  "rho": 1, "cone": {"full_plane": True}}}}}
        assert run(tmp_path, "envelope", config, out="e")[0] == EXIT_OK

    def test_library_key_error_propagates(self, tmp_path, monkeypatch):
        def broken(config, out_dir):
            return {}["missing"]

        monkeypatch.setitem(cli.RUNNERS, "measure", broken)
        with pytest.raises(KeyError):
            run(tmp_path, "measure", BASE_CONFIG)


COUPLE_POLYGON = {  # exits 2: grad_range_hausdorff exceeds 2 * slope_spacing by rounding
    "body": {"polygon": [[1.0, 0.0], [0.5, 0.866025], [-0.5, 0.866025], [-1.0, 0.0],
                         [-0.5, -0.866025], [0.5, -0.866025]]},
    "cone": {"full_plane": True}, "mode": "anisotropic",
    "resolutions": {"eval_h": 0.02, "mesh_h": 0.04},
    "set": {"ball": {"center": [-0.2, 0.2], "r": 0.8}},
}
CONTRACT = {
    "measure": (BASE_CONFIG, []),
    "couple": (COUPLE_POLYGON, ["grad_range_hausdorff"]),
    "sweep": ({**BASE_CONFIG, "resolutions": {"n_theta": 1024}}, []),
    "sharpness": ({**BASE_CONFIG, "sharpness": {"eps_list": [0.02, 0.04, 0.08]}}, []),
    "diag": ({**BASE_CONFIG, "weight": {"monomial": [1, 0]}, "diag": {"t_list": [0.05, 0.1]}},
             []),
    "check-amgm": (BASE_CONFIG, []),
    "check-1d": ({**BASE_CONFIG, "one_dim": {"intervals": [[0.01, 0.02]], "l": 1.2,
                                             "gamma": 2.0}}, ["stability_ratio"]),
    "check-fmp": (BASE_CONFIG, []),
    "envelope": ({**BASE_CONFIG, "envelope": ENVELOPE}, []),
}


class TestChecksContract:
    @pytest.mark.parametrize("verb", sorted(CONTRACT))
    def test_checks_decide_the_exit_code(self, tmp_path, verb):
        config, failing = CONTRACT[verb]
        code, out = run(tmp_path, verb, config, out="o1")
        _code, out2 = run(tmp_path, verb, config, out="o2")
        checks = json.loads((out / "checks.json").read_text())
        assert checks and all(set(c) == {"name", "value", "bound", "ok"} for c in checks)
        assert all(isinstance(c["ok"], bool) for c in checks)
        assert [c["name"] for c in checks if not c["ok"]] == failing
        assert code == (EXIT_VERIFICATION if failing else EXIT_OK)
        assert "checks.json" in json.loads((out / "manifest.json").read_text())["outputs"]
        assert (out / "checks.json").read_bytes() == (out2 / "checks.json").read_bytes()


def test_only_main_names_the_verdict_exit_codes():
    """Runners return checks; only main may turn them into an exit code."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main_def)}
    outside = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Name) and node.id in ("EXIT_OK", "EXIT_VERIFICATION")
               and isinstance(node.ctx, ast.Load) and id(node) not in in_main]
    assert outside == []
