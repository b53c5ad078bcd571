"""Tests for ECDFs, the factorization statistic, the permutation test,
and the tail dependence coefficient."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import random_table, rankdata

from cevnorm import stats
from cevnorm.stats import (
    DEFAULT_LEVELS,
    Ecdf,
    cell_table,
    chi_hat,
    factorization_stat,
    joint_ecdf,
    ks_distance,
    permutation_independence_test,
    pseudo_uniforms,
)


def ecdf_eval(e: Ecdf, x):
    """(# values <= x) / n: the right-continuous step function that
    ks_distance compares at the jump points of an Ecdf."""
    return np.searchsorted(e.sorted_values, x, side="right") / e.n


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
        stat = factorization_stat(cell_table((w, w), levels=(0.5,)))
        assert stat == pytest.approx(0.25, abs=2.0 / 1000)

    def test_independent_uniforms_small(self, rng):
        u = rng.random((10**5, 2))
        assert factorization_stat(cell_table((u[:, 0], u[:, 1]))) < 0.01

    def test_matches_brute_force_on_ten_points(self, rng):
        # factorization_stat's cell-table path on the grid of all n^2
        # sample cells, against explicit indicator means
        w1 = rng.normal(size=10)
        w2 = rng.normal(size=10)
        g1, g2 = np.sort(w1), np.sort(w2)
        cells = stats._count_cells(stats._cell_indices(w1, g1),
                                   stats._cell_indices(w2, g2), g1.size)
        stat = stats._table_stats(cells, 10)
        worst = max(abs(np.mean((w1 <= a) & (w2 <= b)) - np.mean(w1 <= a) * np.mean(w2 <= b))
                    for a in w1 for b in w2)
        assert stat == pytest.approx(worst, abs=1e-15)

    def test_levels_grid_matches_brute_force_at_quantiles(self, rng):
        w1 = rng.normal(size=500)
        w2 = rng.normal(size=500)
        levels = (0.25, 0.5, 0.75)
        stat = factorization_stat(cell_table((w1, w2), levels=levels))
        worst = 0.0
        for a in np.quantile(w1, levels):
            for b in np.quantile(w2, levels):
                joint = np.mean((w1 <= a) & (w2 <= b))
                worst = max(worst, abs(joint - np.mean(w1 <= a) * np.mean(w2 <= b)))
        assert stat == pytest.approx(worst, abs=1e-15)

    def test_invariant_under_monotone_transforms(self, rng):
        w1 = rng.normal(size=2000)
        w2 = rng.normal(size=2000)
        before = factorization_stat(cell_table((w1, w2)))
        after = factorization_stat(cell_table((np.exp(w1), w2**3)))
        assert before == pytest.approx(after, abs=1e-15)

    def test_errors(self, rng):
        with pytest.raises(ValueError):
            cell_table((np.ones(5), np.ones(5)))
        const = np.ones(50)
        with pytest.raises(ValueError):
            cell_table((const, rng.normal(size=50)))
        with pytest.raises(ValueError):
            cell_table((rng.normal(size=50), rng.normal(size=50)), levels=(0.0, 0.5))

    @pytest.mark.parametrize("table", [
        np.arange(12),  # 1-d
        np.full((2, 2), 3.0),  # float counts
        np.array([[5, 6], [-1, 2]]),  # a negative count
        np.array([[2, 2], [2, 3]]),  # 9 pairs
    ])
    def test_table_check(self, table):
        for call in (lambda: factorization_stat(table),
                     lambda: permutation_independence_test(table, b=99)):
            with pytest.raises(ValueError, match="table must be"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pairs_raise(self, rng, bad):
        w1, w2 = rng.normal(size=50), rng.normal(size=50)
        w2[[3, 7]] = bad
        for call in (lambda: cell_table((w1, w2)),
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
        res = permutation_independence_test(cell_table((w, w)), b=199, seed=3)
        assert res.p_value == pytest.approx(1.0 / 200.0)
        assert res.statistic > 0.2

    def test_reproducible(self, rng):
        w1 = rng.normal(size=20)
        w2 = rng.normal(size=20)
        a = permutation_independence_test(cell_table((w1, w2)), b=999, seed=17)
        b = permutation_independence_test(cell_table((w1, w2)), b=999, seed=17)
        assert a.p_value == b.p_value
        assert a.statistic == b.statistic

    def test_p_value_range(self, rng):
        w1 = rng.normal(size=200)
        w2 = rng.normal(size=200)
        res = permutation_independence_test(cell_table((w1, w2)), b=99, seed=0)
        assert 1.0 / 100.0 <= res.p_value <= 1.0

    def test_b_floor(self, rng):
        with pytest.raises(ValueError):
            permutation_independence_test(cell_table((rng.normal(size=50),) * 2), b=50)

    def test_constant_coordinate_rejected(self, rng):
        with pytest.raises(ValueError, match="constant"):
            cell_table((rng.normal(size=50), np.ones(50)))

    def test_too_few_pairs_rejected(self, rng):
        w1, w2 = rng.normal(size=5), rng.normal(size=5)
        with pytest.raises(ValueError, match="at least 10 pairs"):
            cell_table((w1, w2))


LEVELS4 = (0.2, 0.4, 0.6, 0.8)


def _datasets():
    """n = 300 pairs: independent, weakly dependent, and w2 with three values
    (empty cells and zero column margins on the 4-level grid)."""
    gen = np.random.default_rng(11)
    w1 = gen.normal(size=300)
    return {
        "independent": (w1, gen.normal(size=300)),
        "weak": (w1, 0.1 * w1 + gen.normal(size=300)),
        "three_values": (w1, gen.integers(0, 3, size=300).astype(float)),
    }


def _shuffle_stats(w1, w2, levels, n_shuffles, gen):
    """The statistic of each explicit shuffle of w2, and of w2 itself."""
    lv = np.asarray(levels)
    m = lv.size + 1
    d1 = np.searchsorted(np.quantile(w1, lv), w1, side="left")
    d2 = np.searchsorted(np.quantile(w2, lv), w2, side="left")
    perms = np.vstack([d2, [gen.permutation(d2) for _ in range(n_shuffles)]])
    codes = d1 * m + perms + (m * m) * np.arange(perms.shape[0])[:, None]
    cells = np.bincount(codes.ravel(), minlength=perms.shape[0] * m * m)
    f = cells.reshape(-1, m, m).cumsum(axis=1).cumsum(axis=2) / w1.size
    dev = np.abs(f[:, :-1, :-1] - f[:, :-1, -1:] * f[:, -1:, :-1])
    stat = dev.max(axis=(1, 2))
    return stat[0], stat[1:]


class TestNullTables:
    """The null tables are drawn from the permutation law directly."""

    @pytest.mark.parametrize("name", ["independent", "weak", "three_values"])
    def test_matches_explicit_shuffles(self, name):
        w1, w2 = _datasets()[name]
        observed, shuffled = _shuffle_stats(w1, w2, LEVELS4, 20_000,
                                            np.random.default_rng(5))
        assert observed == factorization_stat(cell_table((w1, w2), LEVELS4))
        ref = (1 + np.count_nonzero(shuffled >= observed)) / (shuffled.size + 1)
        b = 9999
        p = permutation_independence_test(cell_table((w1, w2), LEVELS4), b=b, seed=3).p_value
        se = np.sqrt(ref * (1 - ref) * (1 / (b + 1) + 1 / (shuffled.size + 1)))
        assert 0.02 < ref < 0.98
        assert abs(p - ref) <= 4 * se, (p, ref, (p - ref) / se)

    @pytest.mark.parametrize("block", [1, 7, 199])
    def test_block_size_does_not_move_p(self, monkeypatch, block):
        w1, w2 = _datasets()["weak"]
        table = cell_table((w1, w2), LEVELS4)
        want = permutation_independence_test(table, b=199, seed=8)
        monkeypatch.setattr(stats, "PERM_BLOCK", block)
        got = permutation_independence_test(table, b=199, seed=8)
        assert got == want

    @pytest.mark.parametrize("b", [99, 127, 128, 129])
    def test_p_on_lattice_and_b_tables_drawn(self, monkeypatch, b):
        drawn = []

        class Counting:
            def __init__(self, rows, cols):
                self.null = random_table(rows, cols)

            def rvs(self, **kwargs):
                tables = self.null.rvs(**kwargs)
                drawn.append(len(tables))
                return tables

        monkeypatch.setattr(stats, "random_table", Counting)
        w1, w2 = _datasets()["independent"]
        p = permutation_independence_test(cell_table((w1, w2), LEVELS4), b=b, seed=2).p_value
        k = round(p * (b + 1))
        assert p == k / (b + 1) and 1 <= k <= b + 1
        assert sum(drawn) == b and max(drawn) <= stats.PERM_BLOCK

    @pytest.mark.parametrize("name", ["independent", "weak", "three_values"])
    def test_statistic_is_factorization_stat(self, name):
        w1, w2 = _datasets()[name]
        table = cell_table((w1, w2), LEVELS4)
        res = permutation_independence_test(table, b=99, seed=0)
        assert res.statistic == factorization_stat(table)


class TestPseudoUniformsAndChi:
    def test_pseudo_uniforms_ranks(self):
        np.testing.assert_allclose(pseudo_uniforms([10.0, 30.0, 20.0]),
                                   [0.25, 0.75, 0.5])

    def test_pseudo_uniforms_ties_average(self):
        np.testing.assert_allclose(pseudo_uniforms([5.0, 5.0, 9.0]),
                                   [1.5 / 4, 1.5 / 4, 3.0 / 4])

    @staticmethod
    def assert_rankdata_bits(x):
        x = np.asarray(x, dtype=float)
        want = rankdata(x, method="average") / (x.size + 1)
        assert pseudo_uniforms(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 40))
    def test_pseudo_uniforms_are_rankdata_bits_on_ties(self, n):
        gen = np.random.default_rng(n)
        self.assert_rankdata_bits(gen.integers(0, 4, n))
        self.assert_rankdata_bits(gen.choice([-0.0, 0.0, 1.0, -np.inf, np.inf], n))
        self.assert_rankdata_bits(np.zeros(n))
        self.assert_rankdata_bits(gen.normal(size=n))

    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(st.one_of(st.integers(-3, 3).map(float),
                                st.sampled_from([-0.0, np.inf, -np.inf]),
                                st.floats(allow_nan=False)), min_size=1, max_size=300))
    def test_pseudo_uniforms_are_rankdata_bits(self, x):
        self.assert_rankdata_bits(x)

    def test_pseudo_uniforms_large_tied_sample(self):
        gen = np.random.default_rng(5)
        self.assert_rankdata_bits(gen.integers(0, 1000, 2 * 10**5))

    def test_pseudo_uniforms_refuse_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            pseudo_uniforms([1.0, np.nan, 2.0])

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
