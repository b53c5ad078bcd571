"""Tests for the data pipeline: CSV ingestion, Pareto margins,
pseudo-likelihood norming fits, and the residual diagnostic."""

import csv
import json
import math

import numpy as np
import pytest

import cevnorm.data as data_mod
from cevnorm.data import (
    MIN_EXCEEDANCES,
    RHO_GRID,
    DataError,
    Dataset,
    FitConvergenceError,
    fit_dataset,
    fit_norming,
    load_csv,
    residual_diagnostic,
    residuals,
    tail_exceedances,
    to_pareto_margins,
    write_residuals_csv,
)
from cevnorm.simulate import draw_exceedances

from conftest import make_model


def write_file(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def dictreader_reference(path, wanted, delimiter=","):
    """The csv.DictReader loader load_csv replaced: clean rows and drop count."""
    rows, dropped = [], 0
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh, delimiter=delimiter):
            try:
                vals = [float(rec[col]) for col in wanted]
            except (TypeError, ValueError):
                dropped += 1
                continue
            if not all(math.isfinite(v) for v in vals):
                dropped += 1
                continue
            rows.append(vals)
    return np.asarray(rows, dtype=float).reshape(-1, 3), dropped


def simulated_dataset(model, n, seed, stream=0):
    """Unconditional trivariate sample (t = 1) packaged as a Dataset."""
    s = draw_exceedances(model, 1.0, n, seed, stream=stream)
    return Dataset(columns=("x0", "y1", "y2"), x0=s.x0, y1=s.x1, y2=s.x2,
                   source="<simulated>", n=n, n_dropped=0)


class TestLoadCsv:
    def test_three_row_file_loads(self, tmp_path):
        path = write_file(tmp_path, "a,b,c\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path, "a", ["b", "c"])
        assert ds.n == 3 and ds.n_dropped == 0
        np.testing.assert_array_equal(ds.x0, [1.0, 4.0, 7.0])
        np.testing.assert_array_equal(ds.y2, [3.0, 6.0, 9.0])

    def test_non_numeric_row_dropped_with_count(self, tmp_path):
        path = write_file(tmp_path, "a,b,c\n1,2,3\n4,oops,6\n7,8,9\n")
        ds = load_csv(path, "a", ["b", "c"])
        assert ds.n == 2 and ds.n_dropped == 1

    def test_non_finite_row_dropped(self, tmp_path):
        path = write_file(tmp_path, "a,b,c\n1,2,3\nnan,5,6\n")
        ds = load_csv(path, "a", ["b", "c"])
        assert ds.n == 1 and ds.n_dropped == 1

    def test_missing_column_named_in_error(self, tmp_path):
        path = write_file(tmp_path, "a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="'zzz'"):
            load_csv(path, "a", ["b", "zzz"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "a", ["b", "c"])

    def test_alternate_delimiter(self, tmp_path):
        path = write_file(tmp_path, "a;b;c\n1;2;3\n4;5;6\n")
        ds = load_csv(path, "a", ["b", "c"], delimiter=";")
        assert ds.n == 2

    def test_all_rows_bad(self, tmp_path):
        path = write_file(tmp_path, "a,b,c\nx,y,z\n")
        with pytest.raises(ValueError):
            load_csv(path, "a", ["b", "c"])

    @pytest.mark.parametrize("text, delimiter", [
        ("a,b,c\n1,2,3\n\n4,5,6\n\n", ","),  # blank lines
        ("a,b,c\n1,2\n4,5,6\n7\n", ","),  # short rows
        ("a,b,c\n1,2,3,99,100\n4,5,6,x\n", ","),  # extra fields
        ('a,b,c\n"1","2","3"\n"4,5",6,7\n" 8 ",9,10\n', ","),  # quoted cells
        ("a,b,a,c\n1,2,3,4\n5,6,7\n8,9,10,11\n", ","),  # repeated header name
        ("a,b,c,d\n1,2,3\n4,5,6,7\ninf,1,2,3\n", ","),  # wanted columns before d
        ("a;b;c\n1;2;3\n4,5,6\n\n7;8;nan\n9;10;11\n", ";"),
    ])
    def test_matches_dictreader_reference(self, tmp_path, text, delimiter):
        path = write_file(tmp_path, text)
        wanted = ["a", "b", "c"]
        expected, dropped = dictreader_reference(path, wanted, delimiter)
        ds = load_csv(path, "a", ["b", "c"], delimiter=delimiter)
        np.testing.assert_array_equal(np.column_stack([ds.x0, ds.y1, ds.y2]), expected)
        assert ds.n_dropped == dropped

    def test_wrong_value_column_count(self, tmp_path):
        path = write_file(tmp_path, "a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_csv(path, "a", ["b"])


class TestParetoMargins:
    def test_direct_computation(self):
        np.testing.assert_allclose(to_pareto_margins([10.0, 20.0, 30.0]),
                                   [4.0 / 3.0, 2.0, 4.0])

    def test_tie_rule(self):
        np.testing.assert_allclose(to_pareto_margins([5.0, 5.0]), [2.0, 2.0])

    def test_monotone_transform_invariance(self, rng):
        vals = rng.normal(size=200)
        np.testing.assert_allclose(to_pareto_margins(np.exp(vals)),
                                   to_pareto_margins(vals))

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            to_pareto_margins([3.0, 3.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            to_pareto_margins([1.0])


class TestFitNorming:
    def test_recovers_canonical_rho(self, canonical_model):
        for seed in (0, 1, 2):
            s = draw_exceedances(canonical_model, 20.0, 2 * 10**4, seed)
            fit = fit_norming(s.x1, s.x0, "gaussian")
            assert fit.converged
            assert abs(fit.erv.rho - 0.5) < 0.1
            # a is pinned; the product a*scale carries alpha's magnitude
            assert abs(fit.erv.a * fit.noise.scale - 1.0) < 0.1

    def test_recovers_constant_norming(self, constant_model):
        s = draw_exceedances(constant_model, 20.0, 2 * 10**4, 0)
        fit = fit_norming(s.x1, s.x0, "gaussian")
        assert abs(fit.erv.rho - 0.0) < 0.05

    def test_objective_no_worse_than_truth(self, canonical_model):
        import cevnorm.data as data_mod
        for seed in (0, 1, 2):
            s = draw_exceedances(canonical_model, 20.0, 10**4, seed, stream=1)
            fit = fit_norming(s.x1, s.x0, "gaussian")
            logx0 = np.log(s.x0)
            truth = data_mod._neg_log_likelihood(
                np.array([0.5, 1.0, 0.0, 1.0]), s.x1, logx0,
                float(np.sum(logx0)), "gaussian")
            assert fit.objective <= truth + 1e-6

    @pytest.mark.parametrize("family", ["gumbel", "logistic", "uniform"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovers_rho_per_family(self, family, seed):
        s = draw_exceedances(make_model(family=family), 20.0, 2 * 10**4, seed)
        fit = fit_norming(s.x1, s.x0, family)
        assert fit.converged and fit.noise.family == family
        assert abs(fit.erv.rho - 0.5) < 0.1
        logx0 = np.log(s.x0)
        truth = data_mod._neg_log_likelihood(
            (0.5, 1.0, 0.0, 1.0), s.x1, logx0, float(np.sum(logx0)), family)
        assert fit.objective <= truth + 1e-6

    def test_uniform_inner_fit_matches_brute_force(self, rng):
        # the range of u - kappa*c is minimised at a slope through two points
        c = rng.random(40)
        u = 2.0 * c + rng.random(40)
        kappa = data_mod._min_range_slope(u, c, 0.0)
        i, j = np.triu_indices(40, 1)
        best = min(np.ptp(u - k * c) for k in (u[i] - u[j]) / (c[i] - c[j]))
        assert np.ptp(u - kappa * c) <= best * (1 + 1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "gumbel", "logistic", "uniform"])
    def test_inner_fit_no_worse_than_simplex(self, family):
        # at fixed rho, a tight Nelder-Mead from the truth is the reference
        from scipy.optimize import minimize
        s = draw_exceedances(make_model(family=family), 20.0, 2000, 5)
        logx0 = np.log(s.x0)
        base = float(np.sum(logx0))

        def nll(theta):
            return data_mod._neg_log_likelihood((0.5, *theta), s.x1, logx0, base, family)

        inner = data_mod._profile_point(s.x1, logx0, 0.5, family)
        ref = minimize(nll, [1.0, 0.0, 1.0], method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": 10**4})
        assert nll(inner) <= ref.fun + 1e-6

    def test_fit_is_a_minimum_of_the_profile(self, canonical_model):
        s = draw_exceedances(canonical_model, 20.0, 10**4, 4)
        fit = fit_norming(s.x1, s.x0, "gaussian")
        logx0 = np.log(s.x0)
        for rho in (fit.erv.rho - 1e-4, fit.erv.rho + 1e-4):
            inner = data_mod._profile_point(s.x1, logx0, rho, "gaussian")
            assert data_mod._neg_log_likelihood(
                (rho, *inner), s.x1, logx0, float(np.sum(logx0)), "gaussian") > fit.objective

    def test_no_finite_grid_point_raises_with_diagnostics(self, rng):
        # a constant x0 leaves kappa unidentified at every rho
        with pytest.raises(FitConvergenceError) as info:
            fit_norming(rng.normal(size=50), np.full(50, 2.0))
        assert len(info.value.diagnostics) == RHO_GRID.size
        assert all(d["objective"] is None for d in info.value.diagnostics)

    def test_preconditions(self, rng):
        y = rng.normal(size=MIN_EXCEEDANCES - 1)
        x0 = rng.random(MIN_EXCEEDANCES - 1) + 1.0
        with pytest.raises(ValueError):
            fit_norming(y, x0, "gaussian")
        with pytest.raises(ValueError):
            fit_norming(rng.normal(size=50), rng.random(40) + 1.0)
        with pytest.raises(ValueError):
            fit_norming(rng.normal(size=50), np.full(50, -1.0))
        with pytest.raises(ValueError):
            fit_norming(rng.normal(size=50), rng.random(50) + 1.0, family="cauchy")


class TestDatasetPipeline:
    def test_tail_exceedances_threshold(self, canonical_model):
        ds = simulated_dataset(canonical_model, 2000, 0)
        x0p, y1, y2 = tail_exceedances(ds, 0.95)
        assert x0p.size == y1.size == y2.size
        assert 60 <= x0p.size <= 140  # ~5% of 2000
        assert np.all(x0p > 20.0)

    def test_tail_exceedances_validation(self, canonical_model):
        ds = simulated_dataset(canonical_model, 50, 0)
        with pytest.raises(ValueError):
            tail_exceedances(ds, 0.95)  # fewer than 100 clean rows
        big = simulated_dataset(canonical_model, 200, 0)
        with pytest.raises(ValueError):
            tail_exceedances(big, 1.5)

    def test_fit_dataset_and_residuals(self, canonical_model):
        ds = simulated_dataset(canonical_model, 2 * 10**4, 7)
        fits = fit_dataset(ds, "gaussian", 0.95)
        assert fits.fit1.converged and fits.fit2.converged
        assert fits.n_exceedances > 800
        z1, z2 = residuals(ds, fits)
        assert z1.size == fits.n_exceedances
        # standardised residuals should be near mean 0, sd 1
        assert abs(float(np.mean(z1))) < 0.2
        assert abs(float(np.std(z1)) - 1.0) < 0.2

    def test_fit_dataset_too_few_exceedances(self, canonical_model):
        ds = simulated_dataset(canonical_model, 150, 0)
        with pytest.raises(ValueError):
            fit_dataset(ds, "gaussian", 0.95)  # ~7 exceedances only

    def test_dataset_is_ranked_once(self, canonical_model, monkeypatch):
        # fit, diagnostic and residuals share the dataset's cached margin
        calls = []
        rank = data_mod.pseudo_uniforms
        monkeypatch.setattr(data_mod, "pseudo_uniforms",
                            lambda values: calls.append(1) or rank(values))
        ds = simulated_dataset(canonical_model, 5000, 2)
        fits = fit_dataset(ds, "gaussian", 0.95)
        residual_diagnostic(ds, fits, b=99, seed=0)
        residuals(ds, fits)
        assert len(calls) == 1
        np.testing.assert_array_equal(ds.x0_pareto, to_pareto_margins(ds.x0))

    def test_residual_diagnostic_reproducible(self, canonical_model):
        ds = simulated_dataset(canonical_model, 10**4, 3)
        fits = fit_dataset(ds, "gaussian", 0.95)
        a = residual_diagnostic(ds, fits, b=999, seed=5)
        b = residual_diagnostic(ds, fits, b=999, seed=5)
        assert a.p_value == b.p_value

    def test_residual_diagnostic_detects_negative_control(self):
        model = make_model(negative_control=True)
        ds = simulated_dataset(model, 10**4, 0)
        fits = fit_dataset(ds, "gaussian", 0.95)
        res = residual_diagnostic(ds, fits, b=199, seed=0)
        assert res.p_value <= 0.01

    def test_unconverged_fits_rejected(self, canonical_model):
        ds = simulated_dataset(canonical_model, 10**4, 3)
        fits = fit_dataset(ds, "gaussian", 0.95)
        import dataclasses
        bad = dataclasses.replace(fits, fit1=dataclasses.replace(fits.fit1,
                                                                 converged=False))
        with pytest.raises(FitConvergenceError):
            residual_diagnostic(ds, bad)


class TestSerialization:
    def test_fitted_norming_json(self, canonical_model, tmp_path):
        ds = simulated_dataset(canonical_model, 5000, 1)
        fits = fit_dataset(ds, "gaussian", 0.95)
        path = tmp_path / "fits.json"
        fits.to_json(path)
        loaded = json.loads(path.read_text())
        assert set(loaded) == {"fit1", "fit2", "p_t", "n_exceedances"}
        assert loaded["fit1"]["erv"]["a"] > 0
        assert math.isfinite(loaded["fit2"]["objective"])

    def test_residuals_csv(self, tmp_path):
        path = tmp_path / "res.csv"
        write_residuals_csv(np.array([1.0, 2.0]), np.array([3.0, 4.0]), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "z1,z2"
        assert lines[1] == "1.0,3.0"
