"""Tests for the conditioned Monte Carlo engine, norming transforms, and
sample serialization."""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cevnorm.models import noise_cdf
from cevnorm.norming import alpha, beta
from cevnorm.simulate import (
    CHUNK_ROWS,
    CapacityError,
    ExceedanceSample,
    ModelMismatchError,
    apply_deterministic_norming,
    apply_random_norming,
    draw_exceedances,
    read_binary,
    write_binary,
    write_csv,
)
from cevnorm.stats import factorization_stat, permutation_independence_test

from conftest import make_model

# beta1(x0) overflows to inf for part of the rows at t = 1
OVERFLOW_MODEL = make_model(a1=1e-300, kappa1=1e308, rho1=0.0)


def _pinned_sample(model, t, x0, x1, x2, seed=0):
    arr = lambda v: np.asarray([float(v)])
    return ExceedanceSample(x0=arr(x0), x1=arr(x1), x2=arr(x2), t=float(t),
                            n=1, seed=seed, model_id=model.content_hash())


class TestDrawExceedances:
    def test_pinned_uniform_row(self, canonical_model):
        # U = 0.5 at t = 10 gives x0 = 20; z = 0 gives x_i = beta(20)
        from cevnorm.models import conditional_from_uniforms, pareto_exceedance_from_uniform
        x0 = float(pareto_exceedance_from_uniform(10.0, 0.5))
        assert x0 == pytest.approx(20.0)
        x1, x2 = conditional_from_uniforms(canonical_model, x0, 0.5, 0.5)
        expected = (math.sqrt(20.0) - 1.0) / 0.5
        assert float(x1) == pytest.approx(expected, abs=1e-12)
        assert float(x2) == pytest.approx(expected, abs=1e-12)

    def test_reproducibility(self, canonical_model):
        a = draw_exceedances(canonical_model, 10.0, 500, 42)
        b = draw_exceedances(canonical_model, 10.0, 500, 42)
        np.testing.assert_array_equal(a.x0, b.x0)
        np.testing.assert_array_equal(a.x1, b.x1)
        np.testing.assert_array_equal(a.x2, b.x2)

    def test_seed_and_stream_separate_samples(self, canonical_model):
        a = draw_exceedances(canonical_model, 10.0, 100, 1)
        b = draw_exceedances(canonical_model, 10.0, 100, 2)
        c = draw_exceedances(canonical_model, 10.0, 100, 1, stream=1)
        assert not np.array_equal(a.x0, b.x0)
        assert not np.array_equal(a.x0, c.x0)

    @pytest.mark.parametrize("seed", [2**63 + 1, -6])
    def test_seeds_above_2_63_keep_their_low_bits(self, canonical_model, seed):
        # negative seeds are keyed as seed mod 2**64, so above 2**63 too
        a = draw_exceedances(canonical_model, 10.0, 10, seed)
        b = draw_exceedances(canonical_model, 10.0, 10, seed + 1)
        assert not np.array_equal(a.x0, b.x0)

    @pytest.mark.parametrize("threads", [2, 8])
    def test_threaded_bit_identity(self, canonical_model, threads):
        n = CHUNK_ROWS + 777  # force a chunk boundary
        single = draw_exceedances(canonical_model, 5.0, n, 7)
        multi = draw_exceedances(canonical_model, 5.0, n, 7, threads=threads)
        np.testing.assert_array_equal(single.x0, multi.x0)
        np.testing.assert_array_equal(single.x1, multi.x1)
        np.testing.assert_array_equal(single.x2, multi.x2)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @settings(max_examples=6, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**64 - 1),
           overflow=st.booleans())
    @example(n=CHUNK_ROWS - 1, seed=0, overflow=False)
    @example(n=CHUNK_ROWS, seed=1, overflow=False)
    @example(n=CHUNK_ROWS + 1, seed=2, overflow=False)
    @example(n=CHUNK_ROWS + 1, seed=3, overflow=True)
    def test_rows_and_errors_independent_of_threads(self, n, seed, overflow):
        model = OVERFLOW_MODEL if overflow else make_model()
        outcomes = []
        for threads in (1, 2, 3):
            try:
                s = draw_exceedances(model, 1.0, n, seed, threads=threads)
                outcomes.append(np.column_stack([s.x0, s.x1, s.x2]))
            except FloatingPointError as exc:
                outcomes.append(str(exc))
        for other in outcomes[1:]:
            if isinstance(other, str):
                assert other == outcomes[0]
            else:
                np.testing.assert_array_equal(other, outcomes[0])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflow_raises_without_warnings(self, threads):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="rows are not finite"):
                draw_exceedances(OVERFLOW_MODEL, 1.0, CHUNK_ROWS + 1, 0, threads=threads)

    def test_all_rows_exceed_threshold(self, canonical_model):
        s = draw_exceedances(canonical_model, 30.0, 10**4, 3)
        assert np.all(s.x0 > 30.0)
        assert s.n == 10**4 and s.t == 30.0

    def test_scaled_margin_dkw(self, canonical_model):
        n = 10**5
        s = draw_exceedances(canonical_model, 50.0, n, 11)
        v = np.sort(s.x0 / 50.0)
        F = 1.0 - 1.0 / v
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - F), np.max(F - (i - 1) / n))
        assert ks < 0.007

    def test_preconditions(self, canonical_model):
        with pytest.raises(ValueError):
            draw_exceedances(canonical_model, 0.5, 10, 0)
        with pytest.raises(ValueError):
            draw_exceedances(canonical_model, 10.0, 0, 0)

    def test_capacity_error(self, canonical_model):
        with pytest.raises(CapacityError):
            draw_exceedances(canonical_model, 10.0, 10**9, 0)


class TestNorming:
    def test_random_norming_inverts_model(self, canonical_model):
        s = draw_exceedances(canonical_model, 20.0, 1000, 5)
        normed = apply_random_norming(s, canonical_model)
        # reconstruct x_i = beta(x0) + alpha(x0) w_i and compare bitwise-close
        x1 = beta(canonical_model.erv1, s.x0) + alpha(canonical_model.erv1, s.x0) * normed.w1
        np.testing.assert_allclose(x1, s.x1, rtol=1e-12, atol=1e-12)
        assert normed.mode == "random"

    def test_random_normed_margin_is_noise_law(self, canonical_model):
        n = 10**5
        s = draw_exceedances(canonical_model, 20.0, n, 6)
        w1 = np.sort(apply_random_norming(s, canonical_model).w1)
        F = np.asarray(noise_cdf(canonical_model.noise1, w1))
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - F), np.max(F - (i - 1) / n))
        assert ks < 0.007

    def test_constant_norming_passthrough(self, constant_model):
        s = draw_exceedances(constant_model, 10.0, 200, 1)
        rn = apply_random_norming(s, constant_model)
        dn = apply_deterministic_norming(s, constant_model)
        np.testing.assert_array_equal(rn.w1, s.x1)
        np.testing.assert_array_equal(rn.w1, dn.w1)
        np.testing.assert_array_equal(rn.w2, dn.w2)

    def test_boundary_row_at_threshold(self, canonical_model):
        # x0 = t and z = 0: deterministic and random norming both give 0
        t = 16.0
        b = beta(canonical_model.erv1, t)
        s = _pinned_sample(canonical_model, t, t, b, b)
        dn = apply_deterministic_norming(s, canonical_model)
        assert float(dn.w1[0]) == pytest.approx(0.0, abs=1e-12)
        assert float(dn.w2[0]) == pytest.approx(0.0, abs=1e-12)

    def test_model_mismatch_rejected(self, canonical_model, constant_model):
        s = draw_exceedances(canonical_model, 10.0, 50, 0)
        with pytest.raises(ModelMismatchError):
            apply_random_norming(s, constant_model)
        with pytest.raises(ModelMismatchError):
            apply_deterministic_norming(s, constant_model)


class TestIndependenceCalibration:
    def test_random_norming_size(self, canonical_model):
        # exchangeable null: reject at 0.01 in at most 2 of 100 replications
        rejections = 0
        for seed in range(100):
            s = draw_exceedances(canonical_model, 50.0, 2 * 10**4, seed)
            normed = apply_random_norming(s, canonical_model)
            res = permutation_independence_test(normed, b=199, seed=seed)
            if res.p_value <= 0.01:
                rejections += 1
        assert rejections <= 2

    def test_deterministic_norming_power(self, canonical_model):
        # the Eq.-(10) gap makes dependence detectable at n = 1e5
        rejections = 0
        for seed in range(100):
            s = draw_exceedances(canonical_model, 50.0, 10**5, seed)
            normed = apply_deterministic_norming(s, canonical_model)
            res = permutation_independence_test(normed, b=199, seed=seed)
            if res.p_value <= 0.01:
                rejections += 1
        assert rejections >= 95

    def test_deterministic_norming_delta_positive(self, canonical_model):
        s = draw_exceedances(canonical_model, 50.0, 10**5, 0)
        normed = apply_deterministic_norming(s, canonical_model)
        assert factorization_stat(normed) > 0.03


class TestSerialization:
    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(1, 200), seed=st.integers(0, 2**64 - 1),
           t=st.floats(1.0, 1e12))
    @example(n=50, seed=9, t=10.0)
    def test_csv_roundtrip_exact(self, canonical_model, n, seed, t):
        s = draw_exceedances(canonical_model, t, n, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sample.csv"
            write_csv(s, path)
            lines = path.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,x2"
        parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(parsed, np.column_stack([s.x0, s.x1, s.x2]))

    def test_csv_normed(self, canonical_model, tmp_path):
        s = draw_exceedances(canonical_model, 10.0, 10, 9)
        normed = apply_random_norming(s, canonical_model)
        path = tmp_path / "normed.csv"
        write_csv(normed, path)
        assert path.read_text().splitlines()[0] == "w1,w2"

    def test_binary_roundtrip(self, canonical_model, tmp_path):
        s = draw_exceedances(canonical_model, 10.0, 123, 9, stream=4)
        path = tmp_path / "sample.bin"
        write_binary(s, path)
        back = read_binary(path)
        assert isinstance(back, ExceedanceSample)
        np.testing.assert_array_equal(back.x0, s.x0)
        np.testing.assert_array_equal(back.x1, s.x1)
        np.testing.assert_array_equal(back.x2, s.x2)
        assert (back.t, back.n, back.seed, back.model_id, back.stream) == (
            s.t, s.n, s.seed, s.model_id, s.stream)

    def test_binary_roundtrip_normed(self, canonical_model, tmp_path):
        s = draw_exceedances(canonical_model, 10.0, 40, 2)
        normed = apply_deterministic_norming(s, canonical_model)
        path = tmp_path / "normed.bin"
        write_binary(normed, path)
        back = read_binary(path)
        np.testing.assert_array_equal(back.w1, normed.w1)
        assert back.mode == "deterministic"

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a cache at all")
        with pytest.raises(ValueError):
            read_binary(path)

    def test_unsupported_type(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv(object(), tmp_path / "x.csv")
