"""Tests for the mixture law H, its marginals and quantiles, and the
factorization gap."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import tanhsinh
from scipy.special import ndtr

from cevnorm import limits
from cevnorm.limits import (
    QUAD_BLOCK,
    GapResult,
    QuadConvergenceError,
    factorization_gap,
    gap_on_grid,
    limit_H,
    marginal_H,
    marginal_H_quantile,
    write_gap_csv,
)
from cevnorm.models import FAMILIES, NOISE_FAMILIES, noise_cdf
from cevnorm.simulate import apply_deterministic_norming, draw_exceedances
from cevnorm.stats import DEFAULT_LEVELS

from conftest import make_model

SMALL_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
BOTH = np.array([[1], [2]])


def _mixed_model(family):
    """Coordinates with different (rho, kappa, a), so the margins differ."""
    return make_model(rho2=-0.3, kappa2=2.0, a2=1.5, family=family)


@pytest.fixture(scope="module")
def dn_sample(canonical_model):
    """10^6 deterministic-normed draws; H is exact at any finite t here."""
    s = draw_exceedances(canonical_model, 5.0, 10**6, 12345)
    return apply_deterministic_norming(s, canonical_model)


class TestOptions:
    def test_quad_options_validated(self, canonical_model):
        with pytest.raises(ValueError, match="abs_tol"):
            limit_H(canonical_model, 0.0, 0.0, abs_tol=0.0)

    # repeated or decreasing levels leave a gap unchanged; the CLI's
    # analysis.grid_levels still rejects them
    @pytest.mark.parametrize("levels", [(), (0.0, 0.5)])
    def test_grid_spec_validated(self, canonical_model, levels):
        with pytest.raises(ValueError):
            factorization_gap(canonical_model, levels)

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

    def test_convergence_error_names_the_coordinate(self, canonical_model):
        with pytest.raises(QuadConvergenceError, match="level 1e-30 of marginal H2"):
            marginal_H_quantile(canonical_model, [1, 2], [0.5, 1e-30])

    def test_secant_step_cap_raises(self, canonical_model, monkeypatch):
        monkeypatch.setattr(limits, "_SECANT_STEPS", 1)
        with pytest.raises(QuadConvergenceError,
                           match="level 0.3 of marginal H2 did not converge") as exc:
            marginal_H_quantile(canonical_model, 2, 0.3)
        assert math.isfinite(exc.value.best)
        assert 0 < exc.value.gap < 2

    def test_integrator_level_cap_raises(self, canonical_model, monkeypatch):
        # level 2's error estimate is far above 1e-15
        monkeypatch.setattr(limits, "_MAXLEVEL", 2)
        with pytest.raises(QuadConvergenceError,
                           match=r"quadrature failed to converge at \(x1, x2\) = \(0\.3, 0\.7\) "
                                 r"by level 2: best estimate") as exc:
            limit_H(canonical_model, 0.3, 0.7, abs_tol=1e-15)
        assert math.isfinite(exc.value.best)
        assert exc.value.gap > 0

    def test_integrator_fails_on_nan_integrand(self, canonical_model, monkeypatch):
        # a Gaussian CDF that is NaN below -1: at any finite x the
        # integrand is then NaN near u = 0
        family = NOISE_FAMILIES["gaussian"]
        monkeypatch.setitem(NOISE_FAMILIES, "gaussian",
                            family._replace(cdf=lambda s: np.where(s < -1.0, np.nan, ndtr(s))))
        with pytest.raises(QuadConvergenceError,
                           match=r"quadrature failed: non-finite integrand value at "
                                 r"\(x1, x2\) = \(0\.3, 0\.7\)") as exc:
            limit_H(canonical_model, 0.3, 0.7)
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
        coarse = limit_H(canonical_model, 1.3, 0.4, abs_tol=1e-6)
        fine = limit_H(canonical_model, 1.3, 0.4, abs_tol=5e-7)
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
        "a2_two": make_model(rho2=-0.5, a2=2.0, family="uniform"),
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
        np.testing.assert_array_equal(grid, scalar)

    def test_kinks_one_ulp_apart(self):
        # the kinks at this point are 0.9025 and 0.9025000000000001
        model = self.MODELS["canonical"]
        x1, x2 = 0.10526315789473673, 1.1578947368421053
        assert limit_H(model, x1, x2) == pytest.approx(
            _uniform_H_oracle(model, x1, x2), abs=1e-9)

    def test_grid_memory_is_bounded(self):
        xs = np.linspace(-2.0, 8.0, 60)
        tracemalloc.start()
        try:
            limit_H(self.MODELS["canonical"], xs[:, None], xs[None, :])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestBlocks:
    """A grid is integrated in blocks of QUAD_BLOCK elements, not row by row."""

    @pytest.mark.parametrize("family", ["gaussian", "uniform"])
    def test_grid_equals_row_calls(self, family):
        model = make_model(rho2=-0.3, kappa2=2.0, family=family)
        x1 = np.linspace(-3.0, 9.0, 31)
        x2 = np.linspace(-2.5, 7.0, 27)
        assert x1.size * x2.size > QUAD_BLOCK
        grid = limit_H(model, x1[:, None], x2[None, :])
        rows = [limit_H(model, a, x2) for a in x1]
        np.testing.assert_array_equal(grid, rows)

    def test_both_margins_in_one_search(self):
        model = make_model(rho2=-0.3, kappa2=2.0, a2=1.5)
        assert model.erv1 != model.erv2
        both = marginal_H_quantile(model, [[1], [2]], SMALL_GRID)
        assert both.shape == (2, len(SMALL_GRID))
        np.testing.assert_array_equal(both[0], marginal_H_quantile(model, 1, SMALL_GRID))
        np.testing.assert_array_equal(both[1], marginal_H_quantile(model, 2, SMALL_GRID))


def _scipy_rule(f, lo, hi, args, atol):
    """limits._tanh_sinh's contract served by scipy's public tanhsinh."""
    res = tanhsinh(f, lo, hi, args=args, atol=atol, rtol=0.0)
    return res.integral, res.error, res.success, res.nfev


class TestKernel:
    """_tanh_sinh against scipy's tanhsinh on the same pieces and integrand:
    H and both marginals (points bordered by +-inf), and uniform noise's
    kinks."""

    XS = np.array([-math.inf, -2.0, -0.5, 0.4, 1.6, 3.0, math.inf])

    @staticmethod
    def _integrate(monkeypatch, rule, model):
        """_integrate with rule in place of the kernel; the values, and the
        evaluations of each point summed over its pieces."""
        nfev = []

        def counted(*args):
            out = rule(*args)
            nfev.append(out[3].sum(axis=-1))
            return out

        monkeypatch.setattr(limits, "_tanh_sinh", counted)
        xs = TestKernel.XS
        val = limits._integrate(model, xs[:, None], xs[None, :], 1e-9)
        return val.ravel(), np.concatenate(nfev)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_scipy_tanhsinh(self, family, monkeypatch):
        model = _mixed_model(family)
        ours, ours_nfev = self._integrate(monkeypatch, limits._tanh_sinh, model)
        theirs, theirs_nfev = self._integrate(monkeypatch, _scipy_rule, model)
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-9)
        assert np.all(ours_nfev <= theirs_nfev)


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

    @pytest.mark.parametrize("i", [3, [1, 3]])
    def test_bad_coordinate_index(self, canonical_model, i):
        with pytest.raises(ValueError, match="coordinate index"):
            marginal_H(canonical_model, i, 0.0)
        with pytest.raises(ValueError, match="coordinate index"):
            marginal_H_quantile(canonical_model, i, 0.5)

    def test_quantile_inverts_marginal(self, canonical_model):
        for p in (0.1, 0.5, 0.9):
            q = marginal_H_quantile(canonical_model, 1, p)
            assert marginal_H(canonical_model, 1, q) == pytest.approx(p, abs=1e-6)

    # at kappa 0 the median of symmetric noise lies on the tabulation node
    # 0; with uniform noise at rho -0.5 and kappa 1, level 0.75 of H2 lies
    # on the node 1, where the integrand gains a kink
    @pytest.mark.parametrize("family", FAMILIES)
    def test_quantile_solves_to_rounding(self, family):
        levels = (1e-5, 1e-3, *DEFAULT_LEVELS, 0.999, 0.9999, 0.99999)
        for rho in (-0.5, 0.0, 0.5):
            for kappa in (0.0, 1.0):
                model = make_model(rho1=rho, kappa1=kappa, rho2=rho, kappa2=kappa, a2=1.5,
                                   family=family)
                q = marginal_H_quantile(model, BOTH, levels)
                np.testing.assert_allclose(marginal_H(model, BOTH, q),
                                           np.broadcast_to(levels, q.shape), rtol=0, atol=1e-12,
                                           err_msg=f"rho {rho}, kappa {kappa}")

    @pytest.mark.parametrize("name", sorted(TestUniformNoise.MODELS))
    def test_quantile_matches_mpmath_root(self, name):
        model = TestUniformNoise.MODELS[name]
        levels = (0.05, 0.5, 0.95)
        q = marginal_H_quantile(model, BOTH, levels)
        for k, p in enumerate(levels):
            for x, oracle in ((q[0, k], lambda x: _uniform_H_oracle(model, x, math.inf) - p),
                              (q[1, k], lambda x: _uniform_H_oracle(model, math.inf, x) - p)):
                root = float(mpmath.findroot(oracle, (x - 1e-3, x + 1e-3), solver="anderson"))
                assert abs(root - x) <= 1e-8

    @pytest.mark.parametrize("family", ["gaussian", "uniform"])
    def test_quantile_work_is_pinned(self, family, monkeypatch):
        nfev, kernel = [], limits._tanh_sinh

        def counted(*args):
            out = kernel(*args)
            nfev.append(out[3].sum())
            return out

        monkeypatch.setattr(limits, "_tanh_sinh", counted)
        marginal_H_quantile(make_model(family=family), BOTH, DEFAULT_LEVELS)
        # kernel evaluations of the tabulation and every secant step
        assert sum(nfev) <= {"gaussian": 33_000, "uniform": 72_000}[family]

    def test_quantile_domain(self, canonical_model):
        with pytest.raises(ValueError):
            marginal_H_quantile(canonical_model, 1, 1.5)


class TestFactorizationGap:
    def test_degenerate_first_coordinate(self):
        model = make_model(rho1=0.0, kappa1=0.0)
        res = factorization_gap(model, SMALL_GRID)
        assert res.gap <= 10 * 1e-9

    def test_degenerate_second_coordinate(self):
        model = make_model(rho2=0.0, kappa2=0.0)
        res = factorization_gap(model, SMALL_GRID)
        assert res.gap <= 10 * 1e-9

    def test_canonical_gap_positive(self, canonical_model):
        res = factorization_gap(canonical_model, SMALL_GRID)
        assert res.gap > 0.01
        assert res.argmax in {(row[0], row[1]) for row in res.table}
        assert len(res.table) == len(SMALL_GRID) ** 2

    def test_gap_csv(self, canonical_model, tmp_path):
        res = factorization_gap(canonical_model, (0.3, 0.7))
        path = tmp_path / "gap.csv"
        write_gap_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,H,H1H2,diff"
        assert len(lines) == 1 + 4
        x1, x2, h, h1h2, diff = (float(v) for v in lines[1].split(","))
        assert diff == pytest.approx(h - h1h2, abs=1e-15)

    def test_gap_result_is_value_object(self, canonical_model):
        res = factorization_gap(canonical_model, (0.5,))
        assert isinstance(res, GapResult)
        assert res.gap >= 0.0


class TestSecondOrderGap:
    """With (kappa_i, rho_i) = eps * direction,

        H - H1*H2 = g1(x1) c1(x1) g2(x2) c2(x2) + O(eps**3),
        c_i(x) = kappa_i/a_i + rho_i x.

    To first order in eps the shifted argument of factor i is
    x_i - c_i(x_i) log v, and log V is Exp(1) under the weight v**-2 dv,
    with variance 1; so the gap is the covariance of the two factors.  The
    leading term uses no cevnorm quadrature, only each family's log-density.
    Uniform noise is left out: its density jumps.
    """

    XS = np.linspace(-3.0, 3.0, 25)

    @pytest.mark.parametrize("family", ["gaussian", "logistic", "gumbel"])
    @pytest.mark.parametrize("direction", [(1, 0, 1, 0), (1, 0.5, 1, 0.5), (0, 1, 0, 1),
                                           (1, -0.5, -1, 0.3)])
    def test_relative_error_halves_with_eps(self, family, direction):
        g = np.exp(NOISE_FAMILIES[family].log_pdf(self.XS))
        errors = []
        for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
            kappa1, rho1, kappa2, rho2 = (eps * d for d in direction)
            model = make_model(rho1=rho1, kappa1=kappa1, rho2=rho2, kappa2=kappa2,
                               family=family)
            gap = gap_on_grid(model, self.XS, self.XS, abs_tol=1e-12).table[:, 4]
            lead = np.outer(g * (kappa1 + rho1 * self.XS), g * (kappa2 + rho2 * self.XS))
            errors.append(np.abs(gap - lead.ravel()).max() / np.abs(gap).max())
        ratios = np.array(errors[1:]) / errors[:-1]
        assert np.all((ratios > 0.4) & (ratios < 0.65)), ratios
        assert errors[-1] < 0.05
