"""Tests for the canonical ERV norming pairs and the psi/limit-shift maps."""

import math

import mpmath
import numpy as np
import pytest

from cevnorm.norming import (
    RHO_BRANCH_CUTOFF,
    ErvParams,
    alpha,
    beta,
    limit_shift,
    power,
    psi,
)


class TestErvParams:
    def test_valid_construction(self):
        p = ErvParams(a=2.0, rho=-0.5, kappa=3.0)
        assert (p.a, p.rho, p.kappa) == (2.0, -0.5, 3.0)

    def test_kappa_eff(self):
        assert ErvParams(a=2.0, rho=0.5, kappa=1.0).kappa_eff == 0.5
        assert ErvParams(a=4.0, rho=0.0, kappa=2.0).kappa_eff == 0.5

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_nonpositive_a_rejected(self, a):
        with pytest.raises(ValueError):
            ErvParams(a=a, rho=0.0, kappa=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(a=math.nan, rho=0.0, kappa=0.0),
         dict(a=1.0, rho=math.inf, kappa=0.0),
         dict(a=1.0, rho=0.0, kappa=math.nan)],
    )
    def test_nonfinite_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ErvParams(**kwargs)


class TestAlpha:
    def test_constant_when_rho_zero(self):
        assert alpha(ErvParams(a=1.0, rho=0.0, kappa=0.0), 7.0) == 1.0

    def test_sqrt_scaling(self):
        assert alpha(ErvParams(a=2.0, rho=0.5, kappa=0.0), 4.0) == pytest.approx(4.0, rel=1e-14)

    def test_identity_norming(self):
        assert alpha(ErvParams(a=1.0, rho=1.0, kappa=0.0), 3.0) == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_domain_error(self, t):
        with pytest.raises(ValueError):
            alpha(ErvParams(a=1.0, rho=0.5, kappa=0.0), t)

    def test_vectorised(self):
        out = alpha(ErvParams(a=1.0, rho=1.0, kappa=0.0), np.array([1.0, 2.0, 4.0]))
        np.testing.assert_allclose(out, [1.0, 2.0, 4.0], rtol=1e-14)


class TestBeta:
    def test_power_branch(self):
        assert beta(ErvParams(a=1.0, rho=0.5, kappa=1.0), 4.0) == pytest.approx(2.0, rel=1e-14)

    def test_log_branch(self):
        assert beta(ErvParams(a=1.0, rho=0.0, kappa=2.0), math.e) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("rho", [-1.0, 0.0, 0.7])
    def test_zero_kappa(self, rho):
        assert beta(ErvParams(a=1.0, rho=rho, kappa=0.0), 13.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            beta(ErvParams(a=1.0, rho=0.5, kappa=1.0), -2.0)


class TestPsi:
    @pytest.mark.parametrize("rho,kappa", [(0.0, 5.0), (0.3, -2.0), (-1.5, 1.0)])
    def test_psi_at_one_is_zero(self, rho, kappa):
        assert psi(1.0, rho, kappa) == 0.0

    def test_log_branch(self):
        assert psi(math.e**2, 0.0, 3.0) == pytest.approx(6.0, rel=1e-14)

    def test_tiny_rho_matches_high_precision_series(self):
        # independent arbitrary-precision oracle at 50 digits
        with mpmath.workdps(50):
            rho = mpmath.mpf("1e-12")
            expected = float((mpmath.mpf(10) ** rho - 1) / rho)
        assert abs(psi(10.0, 1e-12, 1.0) - expected) < 1e-8
        assert abs(psi(10.0, 1e-12, 1.0) - math.log(10.0)) < 1e-8

    def test_domain_error(self):
        with pytest.raises(ValueError):
            psi(0.0, 0.5, 1.0)


class TestLimitShift:
    def test_identity_at_v_one(self):
        p = ErvParams(a=3.0, rho=-0.7, kappa=2.0)
        assert limit_shift(1.7, 1.0, p) == pytest.approx(1.7, rel=1e-14)

    def test_direct_substitution(self):
        p = ErvParams(a=1.0, rho=0.5, kappa=1.0)
        assert limit_shift(0.0, 4.0, p) == pytest.approx(-1.0, rel=1e-14)

    def test_log_branch_with_scaled_a(self):
        p = ErvParams(a=2.0, rho=0.0, kappa=2.0)  # kappa_eff = 1
        assert limit_shift(3.0, math.e, p) == pytest.approx(2.0, rel=1e-14)

    def test_identity_at_v_one_random_sweep(self, rng):
        for _ in range(50):
            p = ErvParams(a=float(rng.uniform(0.1, 10)),
                          rho=float(rng.uniform(-2, 1)),
                          kappa=float(rng.uniform(-5, 5)))
            x = float(rng.normal(scale=10))
            assert limit_shift(x, 1.0, p) == x

    def test_finite_where_v_power_overflows(self):
        # v**rho overflows at rho = 2, v = 1e200; the shift tends to -kappa/rho
        p = ErvParams(a=1.0, rho=2.0, kappa=1.0)
        val = limit_shift(0.3, 1e200, p)
        assert math.isfinite(val)
        assert val == pytest.approx(-0.5, rel=1e-14)


class TestErvIdentities:
    """Finite-t exactness of the canonical family (the content of Eq.-5-style
    extended regular variation, here an identity rather than a limit)."""

    def _random_params(self, rng):
        rho = float(rng.uniform(-2.0, 1.0))
        if rng.random() < 0.2:  # exercise the branch cutoff region
            rho = float(rng.choice([-1e-9, 1e-9, -1e-6, 1e-6, 0.0]))
        return ErvParams(a=float(rng.uniform(0.1, 10.0)), rho=rho,
                         kappa=float(rng.uniform(-5.0, 5.0)))

    def test_alpha_ratio_identity(self, rng):
        for _ in range(300):
            p = self._random_params(rng)
            t = float(rng.uniform(0.5, 1e4))
            x = float(rng.uniform(0.1, 100.0))
            lhs = alpha(p, t * x) / alpha(p, t)
            rhs = float(power(x, p.rho))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_beta_increment_identity(self, rng):
        # t capped at 100: for rho < 0 the increment beta(tx) - beta(t) is a
        # difference of nearly equal numbers and rounding grows like t**|rho|
        for _ in range(300):
            p = self._random_params(rng)
            t = float(rng.uniform(0.5, 100.0))
            x = float(rng.uniform(0.1, 100.0))
            lhs = (beta(p, t * x) - beta(p, t)) / alpha(p, t)
            rhs = psi(x, p.rho, p.kappa_eff)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("rho", [1e-6, -1e-6, 1e-9, -1e-9])
    def test_psi_continuous_across_rho_zero(self, rho):
        assert abs(rho) >= RHO_BRANCH_CUTOFF  # power branch, not the fallback
        for v in (0.3, 2.0, 50.0, 1e4):
            for kappa in (-3.0, 1.0):
                ref = kappa * math.log(v)
                tol = 1e-6 * abs(ref) * abs(math.log(v)) + 1e-15
                assert abs(psi(v, rho, kappa) - ref) <= tol
