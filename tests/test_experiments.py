"""Sweep drivers: sharpness exponent, stability corpus, translation table."""

import numpy as np
import pytest

from isocone import experiments
from isocone.analysis import InadmissibleInputError
from isocone.cone_weight import Cone, HomWeight
from isocone.experiments import (
    MINIMIZER_ASYM_TOL,
    FitRejectedError,
    default_corpus,
    eta_fourier_cos,
    sharpness_sweep,
    stability_sweep,
    translation_diagnostics,
)
from isocone.expectations import EXPECTATIONS

QUADRANT = Cone.quadrant()
HALF = Cone.half_plane()
W_XY = HomWeight.monomial(QUADRANT, 1, 1)
W_X = HomWeight.monomial(QUADRANT, 1, 0)
W_Y = HomWeight.monomial(HALF, 0, 1)
EPS_LIST = [0.02, 0.04, 0.08, 0.16]


class TestSharpness:
    def test_quadrant_xy_slope(self):
        _res, slope = sharpness_sweep(W_XY, eta_fourier_cos(QUADRANT, 4),
                                      EPS_LIST)
        assert 0.45 <= slope <= 0.55

    def test_half_plane_slope_with_translation_search(self):
        _res, slope = sharpness_sweep(W_Y, eta_fourier_cos(HALF, 2), EPS_LIST)
        assert 0.45 <= slope <= 0.55

    def test_deficit_quadratic_in_eps(self):
        res, _slope = sharpness_sweep(W_XY, eta_fourier_cos(QUADRANT, 4),
                                      EPS_LIST)
        ratios = res.column("delta_w") / res.column("param") ** 2
        assert max(ratios) / min(ratios) - 1.0 <= 0.2

    def test_short_eps_list_rejected(self):
        with pytest.raises(FitRejectedError):
            sharpness_sweep(W_XY, eta_fourier_cos(QUADRANT, 4), [0.1])

    def test_vanishing_profile_rejected(self):
        with pytest.raises(ValueError):
            sharpness_sweep(W_XY, lambda th: np.zeros_like(th),
                            [0.02, 0.04, 0.08])

    def test_rows_sorted_by_parameter(self):
        res, _ = sharpness_sweep(W_XY, eta_fourier_cos(QUADRANT, 4),
                                 [0.08, 0.02, 0.04])
        assert list(res.column("param")) == sorted(res.column("param"))


class TestStability:
    def test_default_corpus_size_and_labels(self):
        corpus = default_corpus(W_XY, 1024)
        assert len(corpus) == 30
        assert len({label for label, _ in corpus}) == 30

    def test_dilated_balls_are_minimizers(self):
        corpus = [c for c in default_corpus(W_XY, 2048)
                  if c[0].startswith("ball_")]
        res = stability_sweep(corpus, W_XY)
        assert res.manifest["probe_ok"]
        assert 0.0 <= res.manifest["probe_max_asym"] <= MINIMIZER_ASYM_TOL
        assert all(np.isnan(row[3]) for row in res.rows)

    def test_full_corpus_ratio_matches_pinned(self):
        corpus = default_corpus(W_XY, 4096)
        res = stability_sweep(corpus, W_XY)
        assert res.manifest["probe_ok"]
        pinned = EXPECTATIONS["stability_Cmax_quadrant_xy"]
        assert abs(res.manifest["max_ratio"] - pinned) / pinned <= 0.25

    def test_resolution_doubling_drift(self):
        r1 = stability_sweep(default_corpus(W_XY, 4096), W_XY)
        r2 = stability_sweep(default_corpus(W_XY, 8192), W_XY)
        assert abs(r2.manifest["max_ratio"] / r1.manifest["max_ratio"] - 1.0) < 0.25

    def test_sharpness_family_consistent_with_corpus(self):
        res, _ = sharpness_sweep(W_XY, eta_fourier_cos(QUADRANT, 4),
                                 EPS_LIST)
        sweep = stability_sweep(default_corpus(W_XY, 4096), W_XY)
        assert np.nanmax(res.column("ratio")) <= 1.5 * sweep.manifest["max_ratio"]


class TestDiagnostics:
    def test_constancy_direction_zero_separation(self):
        table = translation_diagnostics(W_X, [0.05, 0.1, 0.2])
        c_rows = [r for r in table.rows if r[0].startswith("C")]
        assert c_rows
        assert all(r[3] == 0.0 for r in c_rows)
        assert all(r[2] > 0 for r in c_rows if r[1] > 0)

    def test_rest_direction_linear_separation(self):
        table = translation_diagnostics(W_XY, [0.02, 0.04])
        e_rows = [r for r in table.rows if r[0].startswith("E") and r[1] > 0]
        by_dir = {}
        for name, t, _g, sep in e_rows:
            by_dir.setdefault(name, {})[t] = sep
        for vals in by_dir.values():
            assert abs(2.0 * vals[0.02] / vals[0.04] - 1.0) <= 0.1

    def test_separation_slope_reaches_pin(self):
        # both rest directions of w = x y separate at least at the pinned
        # slope per unit shift
        table = translation_diagnostics(W_XY, [0.05, 0.1, 0.2])
        e_rows = [r for r in table.rows if r[0].startswith("E")]
        assert len(e_rows) == 6
        pin = EXPECTATIONS["separation_eps_emp_quadrant_xy"]
        assert all(sep / t >= pin for _name, t, _g, sep in e_rows)

    def test_growth_slope_reaches_pin(self):
        # the constancy direction (0, 1) of w = x grows the ball at least at
        # the pinned slope per unit shift
        table = translation_diagnostics(W_X, [0.05, 0.1, 0.2])
        c_rows = [r for r in table.rows if r[0] == "C(+0.000000,+1.000000)"]
        assert len(c_rows) == 3
        pin = EXPECTATIONS["ball_growth_c1_quadrant_x"]
        assert all(growth / t >= pin for _name, t, growth, _sep in c_rows)

    def test_zero_shift_row_is_zero(self):
        table = translation_diagnostics(W_X, [0.0, 0.1])
        zero_rows = [r for r in table.rows if r[1] == 0.0]
        assert all(r[2] == 0.0 and r[3] == 0.0 for r in zero_rows)

    def test_growth_column_against_oracle(self):
        # midpoint tensor oracle at h = 5e-4 for one direction/magnitude
        table = translation_diagnostics(W_X, [0.1])
        row = next(r for r in table.rows if r[0].startswith("C") and r[1] == 0.1)
        h = 5e-4

        def oracle_volume(center):
            xs = np.arange(h / 2, center[0] + 1.0, h)
            total = 0.0
            for x in xs:
                ys = np.arange(h / 2, center[1] + 1.0, h)
                inside = (x - center[0]) ** 2 + (ys - center[1]) ** 2 < 1.0
                total += x * np.count_nonzero(inside) * h * h
            return total

        oracle = oracle_volume((0.0, 0.1)) - oracle_volume((0.0, 0.0))
        assert row[2] == pytest.approx(oracle, abs=1e-3)

    def test_shallow_box_raises(self):
        # the box lies 0.05 inside the cone: shifts up to 0.2 need 0.4
        with pytest.raises(InadmissibleInputError, match="dist"):
            translation_diagnostics(W_X, [0.05, 0.1, 0.2],
                                    box=((0.05, 0.25), (0.05, 0.25)))

    def test_separation_errors_other_than_inadmissible_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("separation failed")

        monkeypatch.setattr(experiments, "shifted_weight_separation", broken)
        with pytest.raises(RuntimeError, match="separation failed"):
            translation_diagnostics(W_XY, [0.02])


class TestDeterminism:
    def test_identical_config_identical_csv(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            res, _ = sharpness_sweep(W_XY, eta_fourier_cos(QUADRANT, 4),
                                     [0.02, 0.04, 0.08], n_theta=1024)
            p = tmp_path / f"sweep_{tag}.csv"
            res.to_csv(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()
