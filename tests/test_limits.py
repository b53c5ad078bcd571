"""Tests for the mixture law H, its marginals and quantiles, and the
factorization gap."""

import math

import mpmath
import numpy as np
import pytest

from cevnorm.limits import (
    GapResult,
    GridSpec,
    QuadConvergenceError,
    QuadOptions,
    factorization_gap,
    limit_H,
    marginal_H,
    marginal_H_quantile,
    write_gap_csv,
)
from cevnorm.models import noise_cdf
from cevnorm.simulate import apply_deterministic_norming, draw_exceedances

from conftest import make_model

SMALL_GRID = GridSpec((0.1, 0.3, 0.5, 0.7, 0.9))


@pytest.fixture(scope="module")
def dn_sample(canonical_model):
    """10^6 deterministic-normed draws; H is exact at any finite t here."""
    s = draw_exceedances(canonical_model, 5.0, 10**6, 12345)
    return apply_deterministic_norming(s, canonical_model)


class TestOptions:
    def test_quad_options_validated(self):
        with pytest.raises(ValueError):
            QuadOptions(abs_tol=0.0)

    @pytest.mark.parametrize("levels", [(), (0.0, 0.5), (0.5, 0.5), (0.9, 0.1)])
    def test_grid_spec_validated(self, levels):
        with pytest.raises(ValueError):
            GridSpec(levels)

    def test_integrator_on_known_integral(self):
        # uniform noise, rho = 0, kappa = 1: H1(x) = int_0^1 clip(x + log u) du
        # = x - 1 + exp(-x) on [0, 1], with a kink at u = exp(-x)
        model = make_model(rho1=0.0, family="uniform")
        for x in (0.2, 0.5, 0.9):
            assert marginal_H(model, 1, x) == pytest.approx(x - 1.0 + math.exp(-x), abs=1e-12)

    def test_convergence_error_carries_best_estimate(self, canonical_model):
        # H1(x) ~ 1/x**2 far left, so level 1e-30 lies beyond the +-1e12 bracket
        with pytest.raises(QuadConvergenceError) as exc:
            marginal_H_quantile(canonical_model, 1, 1e-30)
        assert math.isfinite(exc.value.best)
        assert exc.value.gap > 0


class TestLimitH:
    def test_total_mass(self, canonical_model):
        assert limit_H(canonical_model, math.inf, math.inf) == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_first_coordinate_factorizes(self):
        model = make_model(rho1=0.0, kappa1=0.0)
        for x1, x2 in ((-0.5, 0.3), (0.7, 1.5), (2.0, -1.0)):
            h = limit_H(model, x1, x2)
            g1 = float(noise_cdf(model.noise1, x1))
            h2 = marginal_H(model, 2, x2)
            assert h == pytest.approx(g1 * h2, abs=1e-8)

    def test_matches_monte_carlo_at_2_2(self, canonical_model, dn_sample):
        h = limit_H(canonical_model, 2.0, 2.0)
        emp = float(np.mean((dn_sample.w1 <= 2.0) & (dn_sample.w2 <= 2.0)))
        assert abs(h - emp) < 0.003

    def test_monotone_and_bounded(self, canonical_model):
        xs = np.linspace(-3.0, 6.0, 8)
        rows = [[limit_H(canonical_model, a, b) for b in xs] for a in xs]
        arr = np.array(rows)
        assert np.all((arr >= 0.0) & (arr <= 1.0))
        assert np.all(np.diff(arr, axis=0) >= -1e-9)
        assert np.all(np.diff(arr, axis=1) >= -1e-9)

    def test_consistent_with_marginal(self, canonical_model):
        for x in (-1.0, 0.5, 2.5):
            assert limit_H(canonical_model, x, math.inf) == pytest.approx(
                marginal_H(canonical_model, 1, x), abs=1e-8)
            assert limit_H(canonical_model, math.inf, x) == pytest.approx(
                marginal_H(canonical_model, 2, x), abs=1e-8)

    def test_tolerance_self_consistency(self, canonical_model):
        coarse = limit_H(canonical_model, 1.3, 0.4, QuadOptions(abs_tol=1e-6))
        fine = limit_H(canonical_model, 1.3, 0.4, QuadOptions(abs_tol=5e-7))
        assert abs(coarse - fine) < 1e-6


def _uniform_H_oracle(model, x1, x2):
    """H for uniform noise by mpmath quadrature over v in [1, inf).

    Written from the definition, with no cevnorm code: the integral is
    split at every v where an argument (x - psi(v))/v**rho crosses an end
    of the noise support, where the integrand has a kink.
    """
    coords = [(x, model.erv(i), model.noise(i)) for i, x in ((1, x1), (2, x2))
              if not math.isinf(x)]
    with mpmath.workdps(30):
        def arg(x, erv, v):
            k = mpmath.mpf(erv.kappa) / erv.a
            if erv.rho == 0.0:
                return x - k * mpmath.log(v)
            return (x - k * (v**erv.rho - 1) / erv.rho) / v**erv.rho

        def integrand(v):
            val = 1 / v**2
            for x, erv, noise in coords:
                s = (arg(x, erv, v) - noise.location) / noise.scale
                val *= min(max(s, 0), 1)
            return val

        kinks = set()
        for x, erv, noise in coords:
            k = mpmath.mpf(erv.kappa) / erv.a
            for c in (noise.location, noise.location + noise.scale):
                if erv.rho == 0.0:
                    v = mpmath.exp((x - c) / k)
                else:
                    w = (c + k / erv.rho) / (x + k / erv.rho)
                    v = w ** (-1 / mpmath.mpf(erv.rho)) if w > 0 else 0
                if 1 < v < mpmath.inf:
                    kinks.add(v)
        return float(mpmath.quad(integrand, [1, *sorted(kinks), mpmath.inf]))


class TestUniformNoise:
    """Uniform noise has a kinked CDF: the quadrature splits at the kinks."""

    MODELS = {
        "canonical": make_model(family="uniform"),
        "rho1_zero": make_model(rho1=0.0, family="uniform"),
        "rho_negative": make_model(rho1=-0.5, rho2=1.0, family="uniform"),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("x1,x2", [(0.3, 0.6), (0.9, 0.1), (1.7, 1.2)])
    def test_limit_H_matches_mpmath(self, name, x1, x2):
        model = self.MODELS[name]
        assert limit_H(model, x1, x2) == pytest.approx(
            _uniform_H_oracle(model, x1, x2), abs=1e-9)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_marginals_match_mpmath(self, name):
        model = self.MODELS[name]
        for x in (0.1, 0.4, 1.6):
            assert marginal_H(model, 1, x) == pytest.approx(
                _uniform_H_oracle(model, x, math.inf), abs=1e-9)
            assert marginal_H(model, 2, x) == pytest.approx(
                _uniform_H_oracle(model, math.inf, x), abs=1e-9)

    def test_grid_call_equals_scalar_calls(self):
        model = self.MODELS["rho_negative"]
        x1 = np.array([-0.3, 0.4, 1.1, 2.5])
        x2 = np.array([0.2, 0.8, 1.9])
        grid = limit_H(model, x1[:, None], x2[None, :])
        assert grid.shape == (4, 3)
        scalar = [[limit_H(model, a, b) for b in x2] for a in x1]
        np.testing.assert_allclose(grid, scalar, rtol=0, atol=1e-14)


class TestMarginalH:
    def test_degenerate_equals_noise_cdf(self):
        model = make_model(rho1=0.0, kappa1=0.0)
        for x in (-2.0, 0.0, 1.7):
            assert marginal_H(model, 1, x) == pytest.approx(
                float(noise_cdf(model.noise1, x)), abs=1e-9)

    def test_lower_tail(self, canonical_model):
        # H1(x) -> 0 as x -> -inf, but only at the O(1/x^2) rate set by the
        # Pareto mixing measure: the far-left tail is fed by huge v
        vals = [marginal_H(canonical_model, 1, x) for x in (-40.0, -400.0)]
        assert vals[0] < 1e-5
        assert vals[1] < 1e-7
        assert vals[0] > vals[1]

    def test_matches_ecdf(self, canonical_model, dn_sample):
        h = marginal_H(canonical_model, 1, 2.0)
        emp = float(np.mean(dn_sample.w1 <= 2.0))
        assert abs(h - emp) < 0.003

    def test_bad_coordinate_index(self, canonical_model):
        with pytest.raises(ValueError):
            marginal_H(canonical_model, 3, 0.0)

    def test_quantile_inverts_marginal(self, canonical_model):
        for p in (0.1, 0.5, 0.9):
            q = marginal_H_quantile(canonical_model, 1, p)
            assert marginal_H(canonical_model, 1, q) == pytest.approx(p, abs=1e-6)

    def test_quantile_domain(self, canonical_model):
        with pytest.raises(ValueError):
            marginal_H_quantile(canonical_model, 1, 1.5)


class TestFactorizationGap:
    def test_degenerate_first_coordinate(self):
        model = make_model(rho1=0.0, kappa1=0.0)
        res = factorization_gap(model, SMALL_GRID)
        assert res.gap <= 10 * QuadOptions().abs_tol

    def test_degenerate_second_coordinate(self):
        model = make_model(rho2=0.0, kappa2=0.0)
        res = factorization_gap(model, SMALL_GRID)
        assert res.gap <= 10 * QuadOptions().abs_tol

    def test_canonical_gap_positive(self, canonical_model):
        res = factorization_gap(canonical_model, SMALL_GRID)
        assert res.gap > 0.01
        assert res.argmax in {(row[0], row[1]) for row in res.table}
        assert len(res.table) == len(SMALL_GRID.levels) ** 2

    def test_gap_csv(self, canonical_model, tmp_path):
        res = factorization_gap(canonical_model, GridSpec((0.3, 0.7)))
        path = tmp_path / "gap.csv"
        write_gap_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,H,H1H2,diff"
        assert len(lines) == 1 + 4
        x1, x2, h, h1h2, diff = (float(v) for v in lines[1].split(","))
        assert diff == pytest.approx(h - h1h2, abs=1e-15)

    def test_gap_result_is_value_object(self, canonical_model):
        res = factorization_gap(canonical_model, GridSpec((0.5,)))
        assert isinstance(res, GapResult)
        assert res.gap >= 0.0
