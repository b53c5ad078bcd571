"""Tests for the conditioned Monte Carlo engine, norming transforms, and
sample serialization."""

import dataclasses
import json
import math
import re
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cevnorm import simulate
from cevnorm.data import write_residuals_csv
from cevnorm.limits import GapResult, write_gap_csv
from cevnorm.models import noise_cdf
from cevnorm.norming import alpha, beta
from cevnorm.simulate import (
    BLOCK_ROWS,
    CHUNK_ROWS,
    ExceedanceSample,
    ModelMismatchError,
    apply_deterministic_norming,
    apply_random_norming,
    draw_exceedances,
    read_binary,
    write_binary,
    write_csv,
    write_table,
)
from cevnorm.stats import cell_table, factorization_stat, permutation_independence_test

from conftest import make_model

# beta1(x0) overflows to inf for part of the rows at t = 1
OVERFLOW_MODEL = make_model(a1=1e-300, kappa1=1e308, rho1=0.0)


def _pinned_sample(model, t, x0, x1, x2, seed=0):
    arr = lambda v: np.asarray([float(v)])
    return ExceedanceSample(x0=arr(x0), x1=arr(x1), x2=arr(x2), t=float(t),
                            n=1, seed=seed, model_id=model.content_hash())


def csv_reference(path, names, columns):
    """Per-row CSV writer: the reference for write_table's block formatting."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _neighbours(x, ulps=4):
    """x and the doubles up to ulps steps below and above it."""
    out = [x]
    for toward in (-np.inf, np.inf):
        v = x
        for _ in range(ulps):
            v = np.nextafter(v, toward)
            out.append(v)
    return np.array(out)


# each table the program writes: its header and its writer called on
# equal-length columns
TABLES = {
    "sample": (("x0", "x1", "x2"), lambda cols, path: write_csv(ExceedanceSample(
        x0=cols[0], x1=cols[1], x2=cols[2], t=10.0, n=len(cols[0]), seed=0,
        model_id="m"), path)),
    "residuals": (("z1", "z2"), lambda cols, path: write_residuals_csv(*cols, path)),
    "H-table": (("x1", "x2", "H", "H1H2", "diff"), lambda cols, path: write_gap_csv(
        GapResult(gap=0.0, argmax=(0.0, 0.0), table=np.column_stack(cols)), path)),
}


@pytest.fixture(scope="module")
def full_draw():
    """One whole-sample draw of two blocks, for the tests that slice it."""
    return draw_exceedances(make_model(), 10.0, 2 * BLOCK_ROWS, 5)


def _peak_bytes(fn, *args, **kwargs):
    """Peak traced allocation while fn runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @settings(max_examples=8, deadline=None)
    @given(lo=st.integers(0, BLOCK_ROWS + CHUNK_ROWS), m=st.integers(1, 3000),
           threads=st.sampled_from([1, 2, 3]))
    @example(lo=1, m=CHUNK_ROWS, threads=2)
    @example(lo=CHUNK_ROWS - 1, m=2, threads=1)
    @example(lo=CHUNK_ROWS, m=CHUNK_ROWS + 1, threads=3)
    @example(lo=BLOCK_ROWS - 1, m=CHUNK_ROWS + 2, threads=2)
    @example(lo=BLOCK_ROWS, m=BLOCK_ROWS - CHUNK_ROWS, threads=3)
    def test_rows_from_start_equal_rows_of_one_draw(self, full_draw, lo, m, threads):
        block = draw_exceedances(make_model(), 10.0, m, 5, threads=threads, start=lo)
        assert block.n == m
        for got, want in zip((block.x0, block.x1, block.x2),
                             (full_draw.x0, full_draw.x1, full_draw.x2)):
            np.testing.assert_array_equal(got, want[lo:lo + m])

    def test_workers_capped_at_available_cpus(self, canonical_model, monkeypatch):
        pools = []

        class RecordingPool(simulate.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", RecordingPool)
        n = 3 * CHUNK_ROWS
        multi = draw_exceedances(canonical_model, 5.0, n, 7, threads=8)
        assert pools == [2]
        single = draw_exceedances(canonical_model, 5.0, n, 7, threads=1)
        assert pools == [2]
        np.testing.assert_array_equal(np.stack([single.x0, single.x1, single.x2]),
                                      np.stack([multi.x0, multi.x1, multi.x2]))

    def test_start_must_not_be_negative(self, canonical_model):
        with pytest.raises(ValueError, match="start must be >= 0"):
            draw_exceedances(canonical_model, 10.0, 10, 0, start=-1)

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

    def test_row_budget(self, canonical_model):
        with pytest.raises(ValueError, match="exceeds the row budget"):
            draw_exceedances(canonical_model, 10.0, 10**9, 0)


class TestNorming:
    def test_random_norming_inverts_model(self, canonical_model):
        s = draw_exceedances(canonical_model, 20.0, 1000, 5)
        normed = apply_random_norming(s, canonical_model)
        # reconstruct x_i = beta(x0) + alpha(x0) w_i and compare bitwise-close
        x1 = beta(canonical_model.erv1, s.x0) + alpha(canonical_model.erv1, s.x0) * normed.w1
        np.testing.assert_allclose(x1, s.x1, rtol=1e-12, atol=1e-12)

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
            res = permutation_independence_test(cell_table(normed), b=199, seed=seed)
            if res.p_value <= 0.01:
                rejections += 1
        assert rejections <= 2

    def test_deterministic_norming_power(self, canonical_model):
        # the Eq.-(10) gap makes dependence detectable at n = 1e5
        rejections = 0
        for seed in range(100):
            s = draw_exceedances(canonical_model, 50.0, 10**5, seed)
            normed = apply_deterministic_norming(s, canonical_model)
            res = permutation_independence_test(cell_table(normed), b=199, seed=seed)
            if res.p_value <= 0.01:
                rejections += 1
        assert rejections >= 95

    def test_deterministic_norming_delta_positive(self, canonical_model):
        s = draw_exceedances(canonical_model, 50.0, 10**5, 0)
        normed = apply_deterministic_norming(s, canonical_model)
        assert factorization_stat(cell_table(normed)) > 0.03


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

    @pytest.mark.parametrize("table", list(TABLES))
    @pytest.mark.parametrize("case", ["block-boundary", "pinned"])
    def test_csv_matches_per_row_reference(self, canonical_model, tmp_path, table, case):
        names, write = TABLES[table]
        if case == "pinned":
            # every column holds each extreme value once
            cols = [np.roll([1e308, 5e-324, -0.0], j) for j in range(len(names))]
        else:
            s = draw_exceedances(canonical_model, 10.0, CHUNK_ROWS + 3, 4)
            cols = [s.x0, s.x1, s.x2, -s.x1, s.x2 / s.x0][:len(names)]
        write(cols, tmp_path / "blocks.csv")
        csv_reference(tmp_path / "rows.csv", names, cols)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 5).flatmap(lambda width: st.lists(
        st.lists(st.floats(), min_size=width, max_size=width), max_size=40)))
    @example(rows=[[0.0, -0.0, 5e-324, float("nan")],
                   [float("inf"), -float("inf"), 1e16, 1e-4]])
    @example(rows=[[8.0000457763671875], [1234567890123456.2], [2.0 ** 53], [0.1]])
    def test_csv_matches_reference_on_any_floats(self, rows):
        width = len(rows[0]) if rows else 1
        names = [f"c{j}" for j in range(width)]
        cols = [np.array([row[j] for row in rows], dtype=float) for j in range(width)]
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "table.csv", Path(tmp) / "rows.csv"
            write_table(got, names, cols)
            csv_reference(want, names, cols)
            assert got.read_bytes() == want.read_bytes()

    def test_csv_matches_reference_on_a_sweep(self, tmp_path):
        rng = np.random.default_rng(20261019)
        # exact decimal ties: N / 2**m has m fraction digits and ends in 5,
        # so it is a tie of its p-digit rounding when it has p + 1 digits
        ties = []
        for e in range(-4, 16):
            for p in (14, 15, 16, 17):
                m = p - e
                lo, hi = math.ceil(10.0 ** e * 2.0 ** m), min(10 ** (e + 1) * 2 ** m, 2 ** 53)
                if lo < hi:
                    ties.append((rng.integers(lo, hi, 1500) | 1) * 2.0 ** -m)
        values = np.concatenate([
            rng.integers(-2**63, 2**63, 200_000, dtype=np.int64).view(float),
            10.0 ** rng.uniform(-4.5, 16.5, 150_000),
            *[_neighbours(10.0 ** k) for k in range(-6, 18)],
            *[_neighbours(2.0 ** k) for k in range(-20, 60)],
            1e-4 * (1 + rng.uniform(-1e-3, 1e-3, 10_000)),
            1e16 * (1 + rng.uniform(-1e-3, 1e-3, 10_000)),
            rng.integers(2**53, 2**62, 50_000).astype(float),
            *ties,
        ])
        values = np.concatenate([values, -values])
        rng.shuffle(values)
        assert len(values) >= 1_000_000
        write_table(tmp_path / "table.csv", ("x",), (values,))
        csv_reference(tmp_path / "rows.csv", ("x",), (values,))
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_csv_rows_left_to_repr(self, canonical_model, tmp_path, monkeypatch):
        # write_table formats a row itself unless a cell is one its
        # docstring leaves to repr: 0, not finite, in scientific notation, a
        # power of two, or an exact tie of the candidate it reaches
        left = [0.0, -0.0, float("nan"), float("inf"), 5e-324, 9.9e-5, 1e16, -1.5e300,
                8.0000457763671875,  # a 16-digit tie inside the interval
                1234567890123456.2,  # ...6.25, a 17-digit tie
                *[2.0 ** k for k in range(-13, 54)]]
        s = draw_exceedances(canonical_model, 10.0, 1000, 2)
        fast = np.concatenate([s.x0, s.x1, -s.x2, [0.1, 1e-4, 1e15 + 0.5, 9999999999999998.0]])
        seen = []
        monkeypatch.setattr(simulate, "repr", lambda v: seen.append(v) or repr(v),
                            raising=False)
        write_table(tmp_path / "t.csv", ("x",), (np.concatenate([fast, left]),))
        assert sorted(map(repr, seen)) == sorted(map(repr, left))

    @pytest.mark.parametrize("names, columns", [
        (("a", "b", "c"), (np.arange(5.0), np.arange(3.0))),
        (("a", "b"), (np.arange(5.0), np.arange(3.0))),
        (("a",), (np.arange(2.0), np.arange(2.0))),
        ((), ()),
    ], ids=["names-and-lengths", "lengths", "names", "empty"])
    def test_ragged_table_is_refused_before_opening(self, tmp_path, names, columns):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="t.csv: .* names for columns of lengths"):
            write_table(path, names, columns)
        assert not path.exists()

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

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a cache at all")
        with pytest.raises(ValueError):
            read_binary(path)

    @pytest.mark.parametrize("cut, extra, message", [
        (-24, b"", "2376 bytes of columns, expected 24[*]n = 2400"),
        (None, b"\0" * 8, "2408 bytes of columns, expected 24[*]n = 2400"),
        (30, b"", "metadata is not JSON"),
        (18, b"", "metadata is not JSON"),
    ], ids=["cut-columns", "appended", "cut-metadata", "cut-length"])
    def test_binary_damage_names_the_file(self, canonical_model, tmp_path, cut, extra,
                                          message):
        path = tmp_path / "sample.bin"
        write_binary(draw_exceedances(canonical_model, 10.0, 100, 0), path)
        path.write_bytes(path.read_bytes()[:cut] + extra)
        with pytest.raises(ValueError, match=f"sample.bin: {message}"):
            read_binary(path)

    @pytest.mark.parametrize("meta, message", [
        ({"t": 10.0, "n": 2.5, "seed": 0, "model_id": "m"}, "metadata n is not an integer"),
        ({"t": 10.0, "n": True, "seed": 0, "model_id": "m"}, "metadata n is not an integer"),
        ({"t": 10.0, "n": -1, "seed": 0, "model_id": "m"}, "metadata n is not an integer"),
        ({"t": 10.0, "n": 0, "seed": 0, "model_id": "m"}, "metadata n is not an integer"),
        ([10.0, 2, 0, "m"], "metadata is not an object"),
        ({"n": 2, "seed": 0, "model_id": "m"}, "metadata is not an object"),
    ], ids=["fractional-n", "bool-n", "negative-n", "zero-n", "list", "no-t"])
    def test_binary_bad_metadata_names_the_file(self, tmp_path, meta, message):
        path = tmp_path / "sample.bin"
        blob = json.dumps(meta).encode()
        path.write_bytes(b"CEVNSMP1" + struct.pack("<III", 1, 1, len(blob)) + blob
                         + b"\0" * 60)
        with pytest.raises(ValueError, match=f"sample.bin: {message}"):
            read_binary(path)

    @pytest.mark.parametrize("key, value, message", [
        ("t", "x", "metadata t is not a finite number >= 1: 'x'"),
        ("t", True, "metadata t is not a finite number >= 1: True"),
        ("t", 0.5, "metadata t is not a finite number >= 1: 0.5"),
        ("t", float("inf"), "metadata t is not a finite number >= 1: inf"),
        ("t", float("nan"), "metadata t is not a finite number >= 1: nan"),
        ("seed", 1.0, "metadata seed is not an integer in [0, 2**64): 1.0"),
        ("seed", False, "metadata seed is not an integer in [0, 2**64): False"),
        ("seed", -1, "metadata seed is not an integer in [0, 2**64): -1"),
        ("seed", 2**64, "metadata seed is not an integer"),
        ("model_id", 7, "metadata model_id is not a string: 7"),
        ("stream", "0", "metadata stream is not an integer in [0, 2**64): '0'"),
        ("stream", 2**64, "metadata stream is not an integer"),
    ])
    def test_binary_metadata_of_the_wrong_type_names_the_file(self, tmp_path, key,
                                                              value, message):
        path = tmp_path / "sample.bin"
        meta = {"t": 10.0, "n": 2, "seed": 0, "model_id": "m", "stream": 0, key: value}
        blob = json.dumps(meta).encode()
        path.write_bytes(b"CEVNSMP1" + struct.pack("<III", 1, 1, len(blob)) + blob
                         + b"\0" * 48)
        with pytest.raises(ValueError, match=re.escape(f"sample.bin: {message}")):
            read_binary(path)

    def test_binary_write_refuses_what_read_refuses(self, canonical_model, tmp_path):
        # the sampler keys seed -6 as 2**64 - 6, but a cache holds seeds in range
        s = draw_exceedances(canonical_model, 10.0, 10, -6)
        path = tmp_path / "sample.bin"
        with pytest.raises(ValueError, match=re.escape(
                "sample.bin: metadata seed is not an integer in [0, 2**64): -6")):
            write_binary(s, path)
        assert not path.exists()

    def test_binary_metadata_ends_load(self, tmp_path):
        # the ends of each range, and an integer t, still load
        path = tmp_path / "sample.bin"
        meta = {"t": 1, "n": 1, "seed": 2**64 - 1, "model_id": "", "stream": 2**64 - 1}
        blob = json.dumps(meta).encode()
        path.write_bytes(b"CEVNSMP1" + struct.pack("<III", 1, 1, len(blob)) + blob
                         + b"\0" * 24)
        back = read_binary(path)
        assert (back.t, back.n, back.seed, back.stream) == (1, 1, 2**64 - 1, 2**64 - 1)

    @pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3])
    def test_blocks_write_the_whole_sample_files(self, canonical_model, tmp_path, n):
        whole = draw_exceedances(canonical_model, 10.0, n, 3)
        write_binary(whole, tmp_path / "whole.bin")
        write_csv(whole, tmp_path / "whole.csv")
        # blocks of CHUNK_ROWS rows, the later ones first in the binary
        # file: each block lands at its own rows
        starts = list(range(0, n, CHUNK_ROWS))
        for lo in starts[:1] + starts[:0:-1]:
            block = draw_exceedances(canonical_model, 10.0, min(CHUNK_ROWS, n - lo), 3,
                                     start=lo)
            write_binary(block, tmp_path / "blocks.bin", lo, n)
        for lo in starts:
            block = draw_exceedances(canonical_model, 10.0, min(CHUNK_ROWS, n - lo), 3,
                                     start=lo)
            write_csv(block, tmp_path / "blocks.csv", lo)
        for ext in ("bin", "csv"):
            assert ((tmp_path / f"blocks.{ext}").read_bytes()
                    == (tmp_path / f"whole.{ext}").read_bytes())

    def test_block_past_n_is_refused(self, canonical_model, tmp_path):
        block = draw_exceedances(canonical_model, 10.0, 10, 0, start=95)
        with pytest.raises(ValueError, match="rows 95..104 do not fit in n = 100"):
            write_binary(block, tmp_path / "sample.bin", 95, 100)

    def test_binary_huge_n_is_refused_before_allocating(self, canonical_model, tmp_path):
        path = tmp_path / "sample.bin"
        s = draw_exceedances(canonical_model, 10.0, 100, 0)
        write_binary(dataclasses.replace(s, n=10**15), path)
        with pytest.raises(ValueError, match="sample.bin: 2400 bytes of columns"):
            read_binary(path)

    @pytest.mark.parametrize("version, kind", [(1, 2), (2, 1)])
    def test_binary_rejects_other_versions_and_kinds(self, canonical_model, tmp_path,
                                                      version, kind):
        path = tmp_path / "sample.bin"
        write_binary(draw_exceedances(canonical_model, 10.0, 5, 0), path)
        raw = bytearray(path.read_bytes())
        raw[8:16] = struct.pack("<II", version, kind)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"version {version} kind {kind}"):
            read_binary(path)


class TestMemory:
    """The sampler and the binary I/O hold the sample's 24 bytes per row,
    plus a bounded working set per chunk, and no copy of it."""

    N = 16 * CHUNK_ROWS

    @pytest.mark.parametrize("threads", [1, 2])
    def test_draw_peak_is_one_sample(self, canonical_model, threads):
        peak = _peak_bytes(draw_exceedances, canonical_model, 10.0, self.N, 0,
                           threads=threads)
        assert peak < 24 * self.N + 16e6

    def test_write_binary_copies_nothing(self, canonical_model, tmp_path):
        s = draw_exceedances(canonical_model, 10.0, self.N, 0)
        assert _peak_bytes(write_binary, s, tmp_path / "sample.bin") < 1e6

    def test_read_binary_peak_is_one_sample(self, canonical_model, tmp_path):
        path = tmp_path / "sample.bin"
        write_binary(draw_exceedances(canonical_model, 10.0, self.N, 0), path)
        assert _peak_bytes(read_binary, path) < 24 * self.N + 1e6
