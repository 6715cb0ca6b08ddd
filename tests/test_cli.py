"""CLI dispatch, exit codes, output schemas, determinism."""

import ast
import functools
import json
import math
import os
import pathlib
import subprocess
import sys

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

    def test_step_below_the_box_side_accepted(self, tmp_path):
        # a 3-node grid per axis is the least the envelope verb runs on
        config = {**BASE_CONFIG, "envelope": {"u": "quadratic", "h": 3.9, "n_points": 40}}
        code, out = run(tmp_path, "envelope", config)
        assert code == EXIT_OK
        assert len((out / "envelope.csv").read_text().splitlines()) == 1 + 3 * 3

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


def _envelope_rows(body):
    """The (x, y, phi, xi1, xi2) array EnvelopeField.dump_csv writes."""
    from isocone.envelope import k_envelope, restricted_conjugate
    th = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
    pts = np.vstack([[0.0, 0.0], (np.linspace(0.1, 1.5, 12)[:, None, None]
                                  * np.stack([np.cos(th), np.sin(th)], -1)).reshape(-1, 2)])
    field = k_envelope(restricted_conjugate(pts, 0.5 * np.einsum("ij,ij->i", pts, pts), body),
                       ((-1.0, 1.0), (-0.5, 1.0)), 0.05)
    return np.column_stack([field.grid_points(), field.phi.ravel(),
                            field.xi[:, :, 0].ravel(), field.xi[:, :, 1].ravel()])


class TestEmitColumns:
    """A float array and the same rows as lists write the bytes of a
    cell-by-cell "%.12g" scan, with NaN as an empty cell."""

    @staticmethod
    def both_inputs(tmp_path, rows):
        from isocone.geometry import emit_csv
        columns = tuple(f"c{j}" for j in range(rows.shape[1]))
        emit_csv(tmp_path / "array.csv", columns, rows)
        emit_csv(tmp_path / "rows.csv", columns, rows.tolist())
        scan = [",".join("" if math.isnan(v) else "%.12g" % v for v in row)
                for row in rows.tolist()]
        want = "\n".join([",".join(columns)] + scan) + "\n"
        assert (tmp_path / "rows.csv").read_bytes() == want.encode()
        return (tmp_path / "array.csv").read_bytes(), want.encode()

    @pytest.mark.parametrize("body", ["sector", "polygon"])
    def test_envelope_fields(self, tmp_path, body):
        from isocone.cone_weight import Cone
        from isocone.envelope import SlopeBody
        body = (SlopeBody.sector_disk(Cone.half_plane(), 1.0, 32, 24) if body == "sector"
                else SlopeBody.polygon([(-1.0, -1.0), (1.0, -0.5), (0.5, 1.0)], n_samples=500))
        array_bytes, scan_bytes = self.both_inputs(tmp_path, _envelope_rows(body))
        assert array_bytes == scan_bytes

    @pytest.mark.parametrize("rows", [
        [[-0.0, 0.0, float("nan"), 1e14, -1.2345678901234e14],
         [0.0, -0.0, 2.5, 1e14, 123456789012.5],
         [-0.0, 1e-300, float("nan"), -1e14, 5e-324],
         [1.0 / 3.0, float("inf"), -float("inf"), 1e14 + 2.0, 2.5]],
        [[1.5, -0.0, float("nan")]],
    ], ids=["signed-zeros-nan-large-repeats", "one-row"])
    def test_synthetic_arrays(self, tmp_path, rows):
        array_bytes, scan_bytes = self.both_inputs(tmp_path, np.array(rows))
        assert array_bytes == scan_bytes
        assert b"nan" not in array_bytes and b"-0," in array_bytes

    @pytest.mark.parametrize("rows", [np.zeros((0, 3)), np.array([[np.nan], [np.nan]])],
                             ids=["no-rows", "empty-lines"])
    def test_empty_rows_and_cells(self, tmp_path, rows):
        array_bytes, scan_bytes = self.both_inputs(tmp_path, rows)
        assert array_bytes == scan_bytes


def _whole_table_csv(path, columns, rows):
    """``emit_csv`` in one pass over the whole table, the writer its row
    blocks must equal byte for byte."""
    from isocone.geometry import _number_cells
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        if len(rows):
            cols = list(rows.T) if isinstance(rows, np.ndarray) else list(zip(*rows))
            numeric = [j for j, col in enumerate(cols)
                       if not all(isinstance(v, str) for v in col)]
            cells = _number_cells(np.array([cols[j] for j in numeric], dtype=float))
            for j, col in zip(numeric, cells):
                cols[j] = col
            fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


@functools.lru_cache(maxsize=None)
def _mixed_tables():
    """Named (columns, rows) tables: arrays and tuple rows with -0.0, NaN,
    infinities, repeats and string columns, and an envelope field dump."""
    from isocone.cone_weight import Cone
    from isocone.envelope import SlopeBody
    rng = np.random.default_rng(8)
    grid = rng.choice([-0.0, 0.0, np.nan, np.inf, -1e14, 1.0 / 3.0, 2.5, 5e-324], (11, 5))
    grid[:, 0] = np.repeat([-0.0, 0.5, 1e-5, np.nan], 3)[:11]
    tuples = [("weighted" if i % 3 else "anisotropic", float(v), -0.0 if i % 2 else 0.0,
               "1" if i % 4 else "0", i, bool(i % 2), float("nan") if i == 5 else i / 7.0)
              for i, v in enumerate(rng.normal(size=10))]
    return {
        "array": (tuple(f"c{j}" for j in range(5)), grid),
        "rows": (("mode", "x", "z", "holds", "i", "b", "r"), tuples),
        "nan-column": (("s", "n"), [("a", float("nan")), ("b", float("nan")), ("c", 1.0)]),
        "envelope": (("x", "y", "phi", "xi1", "xi2"),
                     _envelope_rows(SlopeBody.sector_disk(Cone.plane(), 1.0, 32, 24))),
    }


class TestEmitBlocks:
    """``emit_csv`` writes row blocks of about ``_BLOCK / _CELL_FLOATS``
    cells; every block size gives the bytes of the whole-table writer."""

    @pytest.mark.parametrize("table", sorted(_mixed_tables()))
    @pytest.mark.parametrize("rows_per_block", [1, 2, 3, 4, 97, 1000])
    def test_blocks_write_the_whole_table_bytes(self, tmp_path, monkeypatch, table,
                                                 rows_per_block):
        from isocone import geometry
        columns, rows = _mixed_tables()[table]
        width = len(columns)
        monkeypatch.setattr(geometry, "_BLOCK", geometry._CELL_FLOATS * width * rows_per_block)
        geometry.emit_csv(tmp_path / "blocks.csv", columns, rows)
        _whole_table_csv(tmp_path / "whole.csv", columns, rows)
        got = (tmp_path / "blocks.csv").read_bytes()
        assert got == (tmp_path / "whole.csv").read_bytes()
        assert got.count(b"\n") == 1 + len(rows)

    def test_scratch_memory_stays_near_one_block(self, tmp_path):
        import tracemalloc

        from isocone.geometry import emit_csv
        rows = np.random.default_rng(2).normal(size=(60_000, 5))  # every cell distinct
        tracemalloc.start()
        try:
            emit_csv(tmp_path / "big.csv", ("a", "b", "c", "d", "e"), rows)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a block of 3,276 rows is about 1.6 MB of cells and text; the whole
        # table's cells at once took over 20 MB
        assert peak < 4 * 2 ** 20


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

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS splits a long dot product across threads, which can move
        # its last bit; this config's solve and the chain's sums did
        config = {"cone": {"angles": [0.0, math.pi / 2]}, "weight": {"monomial": [1, 1]},
                  "set": {"star": {"eps": 0.2, "eta": {"fourier_cos": 4}}}}
        cfg = write_config(tmp_path, config)
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-c",
                            "import sys; from isocone.cli import main; sys.exit(main(sys.argv[1:]))",
                            "couple", "--config", cfg, "--out", str(out)], env=env)
            trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert "envelope.csv" in trees[0] and trees[0] == trees[1]

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

    def test_tiny_set_fails_the_image_link(self, tmp_path):
        # the band leaves no eval node of this set, so no Jacobian mass stands
        # against w(K) and the chain's first link fails
        config = dict(BASE_CONFIG)
        config["set"] = {"ball": {"r": 0.008}}
        config["resolutions"] = {"n_theta": 1024, "mesh_h": 0.004,
                                 "n_slope": [64, 48], "eval_h": 0.006}
        code, out = run(tmp_path, "couple", config)
        assert code == EXIT_VERIFICATION
        report = json.loads((out / "report.json").read_text())
        assert report["n_interior_nodes"] == 0
        values = report["chain"]["values"]
        D = 4.0  # 2 + alpha for w = x y
        assert values[0] == pytest.approx(values[3] / (1.0 + report["delta"]) ** D, rel=1e-12)
        checks = {c["name"]: c for c in json.loads((out / "checks.json").read_text())}
        assert checks["chain_image_jacobian"]["ok"] is False


# run in a fresh interpreter: prints the SciPy modules loaded after importing
# the CLI, then after one op of the verb argv[1] on the config argv[2]
_LOADED_SCIPY = """
import sys
import isocone.cli

def loaded():
    return ",".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))

print(loaded())
isocone.cli.main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]])
print(loaded())
"""


def _scipy_loaded(tmp_path, verb, config):
    """(SciPy modules after the import, after the op) in a fresh interpreter."""
    cfg = write_config(tmp_path, config)
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _LOADED_SCIPY, verb, cfg,
                           str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=True)
    at_import, after_op = done.stdout.splitlines()
    return at_import, set(after_op.split(",")) - {""}


class TestStartup:
    # the CLI loads no SciPy; a verb imports the submodules it calls on
    # first use, so the light verbs never pay for them
    def test_cli_import_and_envelope_op_load_no_scipy(self, tmp_path):
        config = {**BASE_CONFIG, "envelope": {"u": "quadratic", "h": 0.2, "n_points": 40}}
        at_import, after_op = _scipy_loaded(tmp_path, "envelope", config)
        assert at_import == ""
        assert after_op == set()
        assert (tmp_path / "out" / "envelope_c11.csv").exists()

    # the sparse LU is the only SciPy a coupling calls: the Hessian's window
    # sums and the mesh's component count are NumPy
    @pytest.mark.parametrize("config", [
        {**BASE_CONFIG, "resolutions": {"n_theta": 512, "mesh_h": 0.08, "n_slope": [64, 48],
                                        "eval_h": 0.03}},
        {"mode": "anisotropic", "cone": {"full_plane": True},
         "body": {"polygon": [[-1, -1], [1, -1], [1, 1], [-1, 1]]},
         "set": {"ball": {"r": 0.5}}, "resolutions": {"eval_h": 0.03, "mesh_h": 0.08}},
    ], ids=["weighted", "anisotropic"])
    def test_scipy_submodules_load_on_first_use(self, tmp_path, config):
        at_import, after_couple = _scipy_loaded(tmp_path, "couple", config)
        assert at_import == ""
        assert "scipy.sparse.linalg" in after_couple
        assert not after_couple & {"scipy.ndimage", "scipy.sparse.csgraph", "scipy.special"}
        assert (tmp_path / "out" / "report.json").exists()


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
        # a diag box outside the cone wrote an empty separation column and exited 0
        ("diag", {"diag": {"box": [[-0.5, -0.3], [0.2, 0.4]]}}, "diag.box"),
        # a box inside the cone but too shallow for the shifts wrote NaN and exited 0
        ("diag", {"weight": {"monomial": [1, 0]},
                  "diag": {"box": [[0.05, 0.25], [0.05, 0.25]], "t_list": [0.05, 0.1, 0.2]}},
         "diag.box"),
        # shifts beyond ball_volume_growth's 0.5, or below 0
        ("diag", {"diag": {"t_list": [0.1, 0.6]}}, "diag.t_list"),
        ("diag", {"diag": {"t_list": [-0.05, 0.1]}}, "diag.t_list"),
        # library messages that named no key ("epsilon must stay at or below 0.25",
        # "need at least 3 epsilon values", "l must lie in [3/4, 5/4]", ...)
        ("sharpness", {"sharpness": {"eps_list": [0.02, 0.04, 0.3]}}, "sharpness.eps_list"),
        ("sharpness", {"sharpness": {"eps_list": [0.02, 0.04]}}, "sharpness.eps_list"),
        ("check-1d", {"one_dim": {"l": 2.0}}, "one_dim.l"),
        ("check-1d", {"one_dim": {"gamma": -1}}, "one_dim.gamma"),
        # profile samples: IndexError with 0 or 1, numpy's message for unequal
        # lengths, "weight vanishes identically" for decreasing angles
        ("measure", {"weight": {"profile": {"thetas": [], "values": [], "alpha": 2}}},
         "weight.profile.thetas"),
        ("measure", {"weight": {"profile": {"thetas": [0.7], "values": [1.0], "alpha": 2}}},
         "weight.profile.thetas"),
        ("measure", {"weight": {"profile": {"thetas": [0.0, 0.7, math.pi / 2],
                                            "values": [1.0, 1.0], "alpha": 2}}},
         "weight.profile.values"),
        ("measure", {"weight": {"profile": {"thetas": [1.5, 0.7, 0.0], "values": [1.0, 1.0, 1.0],
                                            "alpha": 2}}}, "weight.profile.thetas"),
        # a zero-area body: ZeroDivisionError in the deficit after meshing
        ("couple", {"mode": "anisotropic", "cone": {"full_plane": True},
                    "body": {"polygon": [[-1, 0], [1, 0]]}, "set": {"ball": {"r": 0.8}},
                    "resolutions": {"eval_h": 0.02, "mesh_h": 0.04}}, "body"),
        # numpy's "matmul: Input operand 1 has a mismatch" named no key
        ("check-amgm", {"amgm": {"lambda": [1, 1, 1], "x": [1, 2]}}, "amgm.x"),
        ("check-amgm", {"amgm": {"lambda": [1, 1, 1]}}, "amgm.x"),
        ("check-amgm", {"amgm": {"lambda": [1, 1], "x": [1, 2, 3]}}, "amgm.x"),
        # a zero radius divided 0 by 0 in the envelope and exited 0
        ("envelope", {"envelope": {**ENVELOPE, "body": {"sector_disk": {"rho": 0}}}},
         "envelope.body.sector_disk.rho"),
        ("envelope", {"envelope": {**ENVELOPE, "body": {"sector_disk": {"rho": -0.5}}}},
         "envelope.body.sector_disk.rho"),
        ("couple", {"mode": "anisotropic", "cone": {"full_plane": True},
                    "body": {"sector_disk": {"rho": 0}}, "set": {"ball": {"r": 0.8}}},
         "body.sector_disk.rho"),
        # a one-point body had slope spacing 0 and exited 0; the reason is named
        ("envelope", {"envelope": {**ENVELOPE, "body": {"polygon": [[0, 0], [0, 0]]}}},
         "polygon vertices all coincide"),
        ("couple", {"mode": "anisotropic", "cone": {"full_plane": True},
                    "body": {"polygon": [[1, 1], [1, 1], [1, 1]]}, "set": {"ball": {"r": 0.8}}},
         "polygon vertices all coincide"),
        # an empty interval set exited 0 with ratio 8
        ("check-1d", {"one_dim": {"intervals": []}}, "one_dim.intervals"),
        # a step at the box side wrote envelope.csv, then numpy's "zero-size array"
        ("envelope", {"envelope": {**ENVELOPE, "h": 4}}, "envelope.h"),
        ("envelope", {"envelope": {**ENVELOPE, "h": 1, "box": [[-2, 2], [0, 1]]}}, "envelope.h"),
        # profile samples that stop short of the arc, a negative value, a gap of pi
        ("measure", {"weight": {"profile": {"thetas": [0.0, 0.7, 1.5], "values": [1.0, 1.0, 1.0],
                                            "alpha": 2}}}, "weight.profile.thetas"),
        ("measure", {"weight": {"profile": {"thetas": [0.0, 0.7, math.pi / 2],
                                            "values": [0.0, 1.0, -0.5], "alpha": 2}}},
         "weight.profile.values"),
        ("measure", {"cone": {"angles": [0, math.pi]},
                     "weight": {"profile": {"thetas": [0, math.pi], "values": [0.0, 0.0],
                                            "alpha": 1}}}, "weight.profile.thetas"),
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

    def test_profile_weight_accepted(self, tmp_path):
        thetas = np.linspace(0.0, math.pi / 2, 257)
        weight = {"profile": {"thetas": thetas.tolist(),
                              "values": (np.cos(thetas) * np.sin(thetas)).tolist(), "alpha": 2}}
        assert run(tmp_path, "measure", {**BASE_CONFIG, "weight": weight})[0] == EXIT_OK

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
