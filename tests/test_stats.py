"""Tests for ECDFs, the factorization statistic, the permutation test,
and the tail dependence coefficient."""

import numpy as np
import pytest
from scipy.special import ndtri

from cevnorm.stats import (
    BRUTE_FORCE_MAX_N,
    DEFAULT_LEVELS,
    Ecdf,
    chi_hat,
    ecdf_eval,
    factorization_stat,
    joint_ecdf,
    ks_distance,
    permutation_independence_test,
    pseudo_uniforms,
)


class TestEcdf:
    def test_basic_evaluation(self):
        e = Ecdf.from_sample([3.0, 1.0, 2.0])
        assert ecdf_eval(e, 2.0) == pytest.approx(2.0 / 3.0)
        assert ecdf_eval(e, 0.5) == 0.0
        assert ecdf_eval(e, 3.0) == 1.0

    def test_right_continuity_and_monotonicity(self, rng):
        vals = rng.normal(size=200)
        e = Ecdf.from_sample(vals)
        xs = np.sort(rng.normal(size=500))
        out = ecdf_eval(e, xs)
        assert np.all(np.diff(out) >= 0)
        # right-continuous: value at a jump point includes the atom
        assert ecdf_eval(e, float(e.sorted_values[0])) >= 1 / e.n

    def test_agrees_with_naive_count(self, rng):
        vals = rng.normal(size=97)
        e = Ecdf.from_sample(vals)
        for x in rng.normal(size=50):
            assert ecdf_eval(e, float(x)) == np.mean(vals <= x)


class TestKsDistance:
    def test_quantile_construction(self):
        n = 64
        vals = ndtri((np.arange(1, n + 1) - 0.5) / n)
        e = Ecdf.from_sample(vals)
        from scipy.special import ndtr
        assert ks_distance(e, lambda x: ndtr(x)) <= 0.5 / n + 1e-12

    def test_own_step_function(self):
        # against its own step function the true sup distance is 0; the
        # jump-point formula charges each atom its mass, so exactly 1/n
        e = Ecdf.from_sample([1.0, 2.0, 5.0])
        assert ks_distance(e, lambda x: ecdf_eval(e, x)) == pytest.approx(1.0 / 3.0)
        # the true sup over a dense grid vanishes
        xs = np.linspace(0.0, 6.0, 1201)
        step = np.select([xs < 1.0, xs < 2.0, xs < 5.0], [0.0, 1 / 3, 2 / 3], 1.0)
        assert np.max(np.abs(ecdf_eval(e, xs) - step)) == 0.0

    def test_dkw_sweep(self):
        from scipy.special import ndtr
        n, failures = 10**5, 0
        for seed in range(100):
            vals = np.random.default_rng(seed).normal(size=n)
            if ks_distance(Ecdf.from_sample(vals), lambda x: ndtr(x)) >= 0.007:
                failures += 1
        assert failures <= 1


class TestFactorizationStat:
    def test_default_levels_inside_unit_interval(self):
        assert all(0.0 < p < 1.0 for p in DEFAULT_LEVELS)
        assert len(DEFAULT_LEVELS) == 19

    def test_comonotone_bound(self, rng):
        w = rng.normal(size=1000)
        stat = factorization_stat((w, w), levels=(0.5,))
        assert stat == pytest.approx(0.25, abs=2.0 / 1000)

    def test_independent_uniforms_small(self, rng):
        u = rng.random((10**5, 2))
        assert factorization_stat((u[:, 0], u[:, 1])) < 0.01

    def test_matches_brute_force_on_ten_points(self, rng):
        w1 = rng.normal(size=10)
        w2 = rng.normal(size=10)
        stat = factorization_stat((w1, w2), grid="full")
        n = 10
        worst = 0.0
        for a in w1:
            for b in w2:
                joint = np.mean((w1 <= a) & (w2 <= b))
                worst = max(worst, abs(joint - np.mean(w1 <= a) * np.mean(w2 <= b)))
        assert stat == pytest.approx(worst, abs=1e-15)

    def test_levels_grid_matches_brute_force_at_quantiles(self, rng):
        w1 = rng.normal(size=500)
        w2 = rng.normal(size=500)
        levels = (0.25, 0.5, 0.75)
        stat = factorization_stat((w1, w2), levels=levels)
        worst = 0.0
        for a in np.quantile(w1, levels):
            for b in np.quantile(w2, levels):
                joint = np.mean((w1 <= a) & (w2 <= b))
                worst = max(worst, abs(joint - np.mean(w1 <= a) * np.mean(w2 <= b)))
        assert stat == pytest.approx(worst, abs=1e-15)

    def test_invariant_under_monotone_transforms(self, rng):
        w1 = rng.normal(size=2000)
        w2 = rng.normal(size=2000)
        before = factorization_stat((w1, w2))
        after = factorization_stat((np.exp(w1), w2**3))
        assert before == pytest.approx(after, abs=1e-15)

    def test_errors(self, rng):
        with pytest.raises(ValueError):
            factorization_stat((np.ones(5), np.ones(5)))
        const = np.ones(50)
        with pytest.raises(ValueError):
            factorization_stat((const, rng.normal(size=50)))
        big = rng.normal(size=BRUTE_FORCE_MAX_N + 1)
        with pytest.raises(ValueError):
            factorization_stat((big, big), grid="full")
        with pytest.raises(ValueError):
            factorization_stat((rng.normal(size=50), rng.normal(size=50)),
                               levels=(0.0, 0.5))
        with pytest.raises(ValueError):
            factorization_stat((rng.normal(size=50), rng.normal(size=50)),
                               grid="banana")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pairs_raise(self, rng, bad):
        w1, w2 = rng.normal(size=50), rng.normal(size=50)
        w2[[3, 7]] = bad
        for call in (lambda: factorization_stat((w1, w2)),
                     lambda: permutation_independence_test((w1, w2), b=99),
                     lambda: joint_ecdf((w1, w2), [0.0], [0.0])):
            with pytest.raises(FloatingPointError, match="2 of 50 pairs"):
                call()


class TestJointEcdf:
    def test_matches_indicator_means(self, rng):
        # grid points on sample values, and beyond both ends of the data
        w1 = np.round(rng.normal(size=300), 1)
        w2 = np.round(rng.normal(size=300), 1)
        g1 = np.array([-9.0, w1[0], 0.0, w1[1] + 1e-3, 9.0])
        g1.sort()
        g2 = np.array([-9.0, -0.5, w2[5], 0.3, 9.0])
        g2.sort()
        got = joint_ecdf((w1, w2), g1, g2)
        want = np.array([[np.mean((w1 <= a) & (w2 <= b)) for b in g2] for a in g1])
        assert np.array_equal(got, want)


class TestPermutationTest:
    def test_comonotone_minimal_p(self, rng):
        w = rng.normal(size=10**4)
        res = permutation_independence_test((w, w), b=199, seed=3)
        assert res.p_value == pytest.approx(1.0 / 200.0)
        assert res.statistic > 0.2

    def test_reproducible(self, rng):
        w1 = rng.normal(size=20)
        w2 = rng.normal(size=20)
        a = permutation_independence_test((w1, w2), b=999, seed=17)
        b = permutation_independence_test((w1, w2), b=999, seed=17)
        assert a.p_value == b.p_value
        assert a.statistic == b.statistic

    def test_p_value_range(self, rng):
        w1 = rng.normal(size=200)
        w2 = rng.normal(size=200)
        res = permutation_independence_test((w1, w2), b=99, seed=0)
        assert 1.0 / 100.0 <= res.p_value <= 1.0

    def test_b_floor(self, rng):
        with pytest.raises(ValueError):
            permutation_independence_test((rng.normal(size=50),) * 2, b=50)


class TestPseudoUniformsAndChi:
    def test_pseudo_uniforms_ranks(self):
        np.testing.assert_allclose(pseudo_uniforms([10.0, 30.0, 20.0]),
                                   [0.25, 0.75, 0.5])

    def test_pseudo_uniforms_ties_average(self):
        np.testing.assert_allclose(pseudo_uniforms([5.0, 5.0, 9.0]),
                                   [1.5 / 4, 1.5 / 4, 3.0 / 4])

    def test_chi_comonotone(self, rng):
        u = pseudo_uniforms(rng.normal(size=5000))
        for p in (0.5, 0.9, 0.98):
            assert chi_hat(u, u, u, p) == 1.0

    def test_chi_independent(self):
        gen = np.random.default_rng(99)
        n = 10**6
        u0, u1, u2 = gen.random(n), gen.random(n), gen.random(n)
        assert abs(chi_hat(u0, u1, u2, 0.9) - 0.01) < 0.003

    def test_chi_errors(self, rng):
        u = rng.random(100)
        with pytest.raises(ValueError):
            chi_hat(u, u, u, 1.5)
        with pytest.raises(ValueError):
            chi_hat(u, u, u, 0.999)  # no data above the level -> error, not 0
