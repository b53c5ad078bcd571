"""Tests for noise laws, the conditionally independent generative model,
its Markov kernels, and the closed-form shifted limit family."""

import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import ks_2samp

from cevnorm.models import (
    FAMILIES,
    NOISE_FAMILIES,
    CiModel,
    NoiseLaw,
    conditional_from_uniforms,
    noise_cdf,
    noise_quantile,
    pareto_exceedance_from_uniform,
)
from cevnorm.norming import ErvParams, alpha, beta, limit_shift, normed

from conftest import make_model

DKW_1E5 = math.sqrt(math.log(2.0 / 0.01) / (2.0 * 10**5))  # ~0.0052 < 0.007


def kernel_cdf(model: CiModel, i: int, x0, y):
    """Markov kernel CDF P(X_i <= y | X0 = x0)."""
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 <= 0):
        raise ValueError("x0 must be positive")
    s = normed(y, x0, model.erv(i))
    return noise_cdf(model.noise(i), s - model.perturbation / x0)


def theoretical_Gv(model: CiModel, i: int, v, x):
    """Closed-form shifted limit family G_v(x) = G((x - psi(v))/v**rho).

    Exact at every finite level for the unperturbed canonical model;
    G_1 coincides with the noise CDF itself.
    """
    varr = np.asarray(v, dtype=float)
    if np.any(varr < 1.0):
        raise ValueError("v must be >= 1")
    return noise_cdf(model.noise(i), limit_shift(x, varr, model.erv(i)))


class TestNoiseLaw:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            NoiseLaw(family="cauchy")

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError):
            NoiseLaw(family="gaussian", scale=scale)

    def test_gaussian_symmetry(self):
        assert noise_cdf(NoiseLaw("gaussian"), 0.0) == pytest.approx(0.5)

    def test_uniform_cdf(self):
        assert noise_cdf(NoiseLaw("uniform"), 0.25) == pytest.approx(0.25)

    def test_gumbel_cdf(self):
        assert noise_cdf(NoiseLaw("gumbel"), 0.0) == pytest.approx(math.exp(-1.0))

    def test_quantile_examples(self):
        assert noise_quantile(NoiseLaw("gaussian"), 0.5) == pytest.approx(0.0, abs=1e-12)
        assert noise_quantile(NoiseLaw("uniform"), 0.9) == pytest.approx(0.9)
        assert noise_quantile(NoiseLaw("logistic"), 0.75) == pytest.approx(math.log(3.0))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_quantile_inverts_cdf(self, family):
        law = NoiseLaw(family=family, location=-1.3, scale=2.5)
        p = np.linspace(0.001, 0.999, 200)
        np.testing.assert_allclose(noise_cdf(law, noise_quantile(law, p)), p,
                                   atol=1e-10)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_quantile_domain(self, p):
        with pytest.raises(ValueError):
            noise_quantile(NoiseLaw("gaussian"), p)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cdf_monotone_and_bounded(self, family):
        law = NoiseLaw(family=family, location=0.5, scale=0.7)
        x = np.linspace(-20, 20, 400)
        vals = np.asarray(noise_cdf(law, x))
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))


class TestFamilyTable:
    """Each NOISE_FAMILIES entry describes one law: the fit's density and
    score belong to the sampler's CDF and quantile."""

    P = np.linspace(0.01, 0.99, 99)  # quantiles inside any support, off its ends

    @pytest.mark.parametrize("family", FAMILIES)
    def test_density_is_the_cdf_slope(self, family):
        fam = NOISE_FAMILIES[family]
        s, h = fam.quantile(self.P), 1e-5
        slope = (fam.cdf(s + h) - fam.cdf(s - h)) / (2 * h)
        np.testing.assert_allclose(np.exp(fam.log_pdf(s)), slope, rtol=1e-6)

    @pytest.mark.parametrize("family", [f for f in FAMILIES if NOISE_FAMILIES[f].score])
    def test_score_is_the_log_density_slope(self, family):
        fam = NOISE_FAMILIES[family]
        s, h = fam.quantile(self.P), 1e-4
        d1, d2 = fam.score(s)
        lo, mid, hi = fam.log_pdf(s - h), fam.log_pdf(s), fam.log_pdf(s + h)
        np.testing.assert_allclose(d1, (hi - lo) / (2 * h), rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(d2, (hi - 2 * mid + lo) / h**2, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cdf_inverts_quantile(self, family):
        fam = NOISE_FAMILIES[family]
        np.testing.assert_allclose(fam.cdf(fam.quantile(self.P)), self.P,
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cdf_is_flat_outside_the_support(self, family):
        fam = NOISE_FAMILIES[family]
        lo, hi = fam.support
        off = np.array([1e-9, 1.0, 1e3])
        if math.isfinite(lo):
            assert np.all(fam.cdf(lo - off) == 0.0)
            assert fam.cdf(np.float64(lo)) == 0.0
        if math.isfinite(hi):
            assert np.all(fam.cdf(hi + off) == 1.0)
            assert fam.cdf(np.float64(hi)) == 1.0


class TestParetoSampling:
    def test_inverse_transform(self):
        assert pareto_exceedance_from_uniform(10.0, 0.5) == pytest.approx(20.0)
        assert pareto_exceedance_from_uniform(1.0, 0.25) == pytest.approx(4.0)

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError):
            pareto_exceedance_from_uniform(0.5, 0.5)

    def test_zero_uniform_nudged(self):
        assert math.isfinite(pareto_exceedance_from_uniform(1.0, 0.0))

    def test_scaled_margin_dkw(self, rng):
        # x0/t should have CDF 1 - 1/v on (1, inf) regardless of t
        n = 10**5
        v = pareto_exceedance_from_uniform(5.0, rng.random(n)) / 5.0
        v.sort()
        F = 1.0 - 1.0 / v
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - F), np.max(F - (i - 1) / n))
        assert ks < 0.007

    def test_scale_invariance_across_thresholds(self, rng):
        n = 10**4
        b1 = pareto_exceedance_from_uniform(1.0, rng.random(n)) / 1.0
        b2 = pareto_exceedance_from_uniform(100.0, rng.random(n)) / 100.0
        stat = ks_2samp(b1, b2).statistic
        tol = math.sqrt(math.log(2.0 / 0.01) / 2.0 * (1.0 / n + 1.0 / n))
        assert stat < tol


class TestCiModel:
    def test_perturbation_validated(self):
        with pytest.raises(ValueError):
            make_model(perturbation=-1.0)

    def test_accessors(self, canonical_model):
        assert canonical_model.erv(1) is canonical_model.erv1
        assert canonical_model.noise(2) is canonical_model.noise2

    def test_dict_roundtrip(self, canonical_model):
        # to_dict holds every field, so the model can be rebuilt from it
        d = canonical_model.to_dict()
        clone = CiModel(erv1=ErvParams(**d["erv1"]), erv2=ErvParams(**d["erv2"]),
                        noise1=NoiseLaw(**d["noise1"]), noise2=NoiseLaw(**d["noise2"]),
                        perturbation=d["perturbation"],
                        negative_control=d["negative_control"])
        assert clone == canonical_model
        assert clone.content_hash() == canonical_model.content_hash()

    def test_content_hash_distinguishes_models(self, canonical_model, constant_model):
        assert canonical_model.content_hash() != constant_model.content_hash()


class TestSampleConditional:
    def test_constant_norming_passes_noise_through(self, constant_model):
        x1, x2 = conditional_from_uniforms(constant_model, 7.0, 0.8, 0.3)
        y1, y2 = conditional_from_uniforms(constant_model, 900.0, 0.8, 0.3)
        assert x1 == y1 and x2 == y2  # independent of x0 entirely
        assert x1 == pytest.approx(noise_quantile(NoiseLaw("gaussian"), 0.8))

    def test_known_noise_substitution(self, canonical_model):
        # z = (1, -1) at x0 = 4: beta(4) = 2, alpha(4) = 2 -> (4, 0)
        u1 = float(ndtr(1.0))
        u2 = float(ndtr(-1.0))
        x1, x2 = conditional_from_uniforms(canonical_model, 4.0, u1, u2)
        assert x1 == pytest.approx(4.0, abs=1e-12)
        assert x2 == pytest.approx(0.0, abs=1e-12)

    def test_negative_control_reuses_first_noise(self):
        model = make_model(negative_control=True)
        x1, x2 = conditional_from_uniforms(model, 4.0, 0.8, 0.1)
        assert x1 == x2  # identical erv/noise for the two coordinates

    def test_nonpositive_x0_rejected(self, canonical_model):
        with pytest.raises(ValueError):
            conditional_from_uniforms(canonical_model, 0.0, 0.5, 0.5)

    def test_kernel_cdf_agreement_dkw(self, canonical_model, rng):
        n = 10**5
        x0 = 50.0
        u = rng.random((n, 2))
        x1, _ = conditional_from_uniforms(canonical_model, x0, u[:, 0], u[:, 1])
        x1 = np.sort(x1)
        F = np.asarray(kernel_cdf(canonical_model, 1, x0, x1))
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - F), np.max(F - (i - 1) / n))
        assert ks < 0.007

    def test_conditional_independence_at_fixed_x0(self, canonical_model, rng):
        u = rng.random((10**5, 2))
        x1, x2 = conditional_from_uniforms(canonical_model, 30.0, u[:, 0], u[:, 1])
        corr = np.corrcoef(x1, x2)[0, 1]
        assert abs(corr) < 0.01


class TestKernelCdf:
    def test_median_maps_to_half(self, canonical_model):
        x0 = 9.0
        y = beta(canonical_model.erv1, x0) + alpha(canonical_model.erv1, x0) * 0.0
        assert kernel_cdf(canonical_model, 1, x0, y) == pytest.approx(0.5)

    def test_limits(self, canonical_model):
        assert kernel_cdf(canonical_model, 1, 5.0, -math.inf) == 0.0
        assert kernel_cdf(canonical_model, 2, 5.0, math.inf) == 1.0

    def test_matches_monte_carlo_frequency(self, canonical_model, rng):
        n = 10**6
        x0, y = 20.0, 7.5
        u = rng.random((n, 2))
        x1, _ = conditional_from_uniforms(canonical_model, x0, u[:, 0], u[:, 1])
        freq = np.mean(x1 <= y)
        assert abs(freq - float(kernel_cdf(canonical_model, 1, x0, y))) < 0.002

    def test_perturbation_shifts_location(self):
        model = make_model(perturbation=5.0)
        base = make_model()
        x0, y = 10.0, 4.0
        shifted = kernel_cdf(model, 1, x0, y)
        plain = kernel_cdf(base, 1, x0, y)
        assert shifted != plain
        # the shift is eps/x0 in noise units
        y_comp = y + alpha(base.erv1, x0) * 5.0 / x0
        assert float(kernel_cdf(model, 1, x0, y_comp)) == pytest.approx(float(plain), abs=1e-12)


class TestTheoreticalGv:
    def test_v_one_is_noise_cdf(self, canonical_model):
        for x in (-2.0, 0.0, 1.3):
            assert theoretical_Gv(canonical_model, 1, 1.0, x) == pytest.approx(
                float(noise_cdf(canonical_model.noise1, x)))

    def test_constant_norming_is_v_free(self, constant_model):
        for v in (1.0, 7.0, 1e6):
            assert theoretical_Gv(constant_model, 2, v, 0.4) == pytest.approx(
                float(noise_cdf(constant_model.noise2, 0.4)))

    def test_derived_value_phi_minus_one(self, canonical_model):
        # limit_shift(0, 4) = (0 - 2)/2 = -1
        val = float(theoretical_Gv(canonical_model, 1, 4.0, 0.0))
        assert val == pytest.approx(float(ndtr(-1.0)), abs=1e-12)
        # cross-check against the kernel at a deep level t = 10^3
        t = 10.0**3
        erv = canonical_model.erv1
        kc = float(kernel_cdf(canonical_model, 1, t * 4.0, beta(erv, t)))
        assert kc == pytest.approx(val, abs=1e-12)

    def test_finite_where_v_power_overflows(self):
        # v**rho overflows at rho = 2, v = 1e200; G_v(x) tends to G(-kappa/rho)
        model = make_model(rho1=2.0)
        val = float(theoretical_Gv(model, 1, 1e200, 0.3))
        assert math.isfinite(val)
        assert val == pytest.approx(float(ndtr(-0.5)), abs=1e-15)

    def test_v_below_one_rejected(self, canonical_model):
        with pytest.raises(ValueError):
            theoretical_Gv(canonical_model, 1, 0.5, 0.0)

    @pytest.mark.parametrize("t", [10.0, 1e3])
    def test_finite_t_exactness(self, canonical_model, t):
        # kernel_cdf(t*v, alpha(t)x + beta(t)) == G_v(x) identically
        vs = np.linspace(1.0, 40.0, 10)
        xs = np.linspace(-4.0, 6.0, 10)
        erv = canonical_model.erv1
        for v in vs:
            for x in xs:
                lhs = float(kernel_cdf(canonical_model, 1, t * v,
                                       alpha(erv, t) * x + beta(erv, t)))
                rhs = float(theoretical_Gv(canonical_model, 1, v, x))
                assert abs(lhs - rhs) < 1e-12

    def test_perturbed_discrepancy_shrinks(self):
        model = make_model(perturbation=5.0)
        erv = model.erv1
        vs = np.linspace(1.0, 20.0, 8)
        xs = np.linspace(-3.0, 5.0, 8)
        errs = []
        for t in (10.0, 1e2, 1e3, 1e4):
            worst = 0.0
            for v in vs:
                for x in xs:
                    lhs = float(kernel_cdf(model, 1, t * v,
                                           alpha(erv, t) * x + beta(erv, t)))
                    rhs = float(theoretical_Gv(model, 1, v, x))
                    worst = max(worst, abs(lhs - rhs))
            errs.append(worst)
        assert errs == sorted(errs, reverse=True)  # monotone decay, O(1/t)

