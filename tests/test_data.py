"""Tests for the data pipeline: CSV ingestion, Pareto margins,
pseudo-likelihood norming fits, and the residual diagnostic."""

import codecs
import csv
import math
import struct
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cevnorm.data as data_mod
from cevnorm.data import (
    BLOCK_CHARS,
    MIN_EXCEEDANCES,
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
from cevnorm.simulate import draw_exceedances, write_table

from conftest import make_model


def write_file(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def dictreader_reference(path, wanted, delimiter=","):
    """The csv.DictReader loader load_csv replaced: clean rows and drop count."""
    rows, dropped = [], 0
    with open(path, newline="", encoding="utf-8") as fh:
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
    return Dataset(columns=("x0", "y1", "y2"), x0=s.x0, y1=s.x1, y2=s.x2, n=n,
                   n_dropped=0)


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

    def test_one_column_read_three_times(self, tmp_path):
        # a blank line is skipped, not read as one empty cell
        path = write_file(tmp_path, "a\n1\n\n2\nx\n\n")
        expected, dropped = dictreader_reference(path, ["a", "a", "a"])
        ds = load_csv(path, "a", ["a", "a"])
        np.testing.assert_array_equal(np.column_stack([ds.x0, ds.y1, ds.y2]), expected)
        assert (ds.n, ds.n_dropped) == (2, 1) and dropped == 1

    def test_wrong_value_column_count(self, tmp_path):
        path = write_file(tmp_path, "a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_csv(path, "a", ["b"])


# cells that float() and the block reader might read apart: what only
# float() accepts, padding, non-finite and malformed values, and
# characters that send a block to csv.reader
ODD_CELLS = ("1_000", "\u0661\u0662", " 8 ", "nan", "-Infinity", "1e999", "", "-",
             "\x1c1", "2\x00", '"3"', "\xa04", "+.5e-3")
CELL_CHARS = "0123456789.eE+-_ \t\"\x00\x1c\x1f\x0b\x85\xa0\u2003\u0661inf"


def data_lines(n):
    return "".join(f"{i},{i / 3!r},{-i}\n" for i in range(n))


@st.composite
def csv_texts(draw):
    """(text, delimiter) of a file whose header holds a, b and c."""
    delimiter = draw(st.sampled_from([",", ";", " ", "\t", ".", "-", "0", "e", "\u00a7"]))
    cell = st.one_of(st.floats().map(repr), st.sampled_from(ODD_CELLS),
                     st.text(CELL_CHARS, max_size=4))
    line = st.one_of(st.lists(cell, max_size=5).map(delimiter.join),
                     st.sampled_from(["", " ", "\t "]))
    header = delimiter.join(draw(st.permutations("abcd")))
    lines = draw(st.lists(line, max_size=200))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return eol.join([header, *lines]) + draw(st.sampled_from([eol, ""])), delimiter


def straddling_quote():
    """A file whose first text block, BLOCK_CHARS after the header line,
    ends inside the quoted cell "8\n", just before its newline."""
    head = "1,2,3\n" * ((BLOCK_CHARS - 4) // 6 - 1)
    pad = "1,2," + "3".zfill(BLOCK_CHARS - 4 - len(head) - 5) + "\n"
    return "a,b,c\n" + head + pad + '7,"8\n",9\n4,5,6\n'


def block_edge(shift, tail="4,5,6\n7,8,9\n"):
    """A file whose rows after the header line end BLOCK_CHARS + shift
    characters in, at a newline, and then hold tail."""
    head = "1,2,3\n" * (BLOCK_CHARS // 6 - 2)
    pad = "1,2," + "3".zfill(BLOCK_CHARS + shift - len(head) - 5) + "\n"
    return "a,b,c\n" + head + pad + tail


class TestBlockReader:
    """load_csv splits blocks and converts their cells with numpy; it must
    read every file exactly as the per-row rule does."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_texts())
    @example(case=("a,b,c\n1,2,3\n4,5,6", ","))  # no newline after the last row
    @example(case=("a b c\n 1 2 3\n1 2 3 \n1  2 3\n4 5 6\n", " "))
    @example(case=("a\tb\tc\n 1\t 2\t3 \n\t1\t2\t3\n4\t5\t6\n", "\t"))
    @example(case=("a,b,c\r\n1,2,3\r\n4,x,6\r\n7,8,9\r\n", ","))
    @example(case=("a,b,c\r1,2,3\r4,x,6\r7,8,9", ","))
    @example(case=("a,b,c\n" + "1,2,3\n" * (BLOCK_CHARS // 6 + 100)
                   + '"4",5,6\n7,8,9\n', ","))  # first quote after a block
    @example(case=(straddling_quote(), ","))
    @example(case=("a,b,c\n" + "".join(f"{v},1,2\n" for v in (
        "1_000", "\u0661\u0662", " 8 ", "nan", "-Infinity", "1e999", "", "-")), ","))
    @example(case=("a,b,c\n1,2,3\n\n   \n\t\n1,2\n\n1,2,3,4,5\n7\n", ","))
    @example(case=("a,b,c\n1,2\ne\n", ","))  # no row to convert, and an 'e'
    @example(case=("a,b,c,d\n1e1,2E-2,3e+3,e\n4,5,6e\n7e,8,9,1\n", ","))
    @example(case=(block_edge(-1), ","))
    @example(case=(block_edge(0), ","))
    @example(case=(block_edge(1), ","))
    @example(case=(block_edge(0, "x,1,2\n1,2\n\n4,5,6"), ","))
    @example(case=(block_edge(1, "")[:-1], ","))  # one block, no newline at its end
    # a field over csv's size limit, in a column load_csv does not read
    @example(case=("a,b,c,d\n1,2,3,4\n1,2,3,"
                   + "4" * (csv.field_size_limit() + 1) + "\n", ","))
    @example(case=("a.b.c\n1.2.3\n4.-5.6\n", "."))
    @example(case=("a-b-c\n1-2.5-3\n-4--5-6\n", "-"))
    @example(case=("a0b0c\n1020.53\n4.505.6\n", "0"))
    @example(case=("aebec\n1e2.5e3\n4e1e5e6\n", "e"))
    @example(case=("a\u00a7b\u00a7c\n1\u00a72\u00a73\n4\u00a7x\u00a76\n", "\u00a7"))
    def test_matches_reference(self, tmp_path, case):
        text, delimiter = case
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        wanted = ["a", "b", "c"]
        try:
            expected, dropped = dictreader_reference(path, wanted, delimiter)
        except csv.Error:
            with pytest.raises(DataError, match="unreadable CSV"):
                load_csv(path, "a", ["b", "c"], delimiter=delimiter)
            return
        if not len(expected):
            with pytest.raises(DataError, match="no clean numeric rows"):
                load_csv(path, "a", ["b", "c"], delimiter=delimiter)
            return
        ds = load_csv(path, "a", ["b", "c"], delimiter=delimiter)
        assert np.column_stack([ds.x0, ds.y1, ds.y2]).tobytes() == expected.tobytes()
        assert ds.n_dropped == dropped

    def test_straddling_quote_row(self, tmp_path):
        path = tmp_path / "data.csv"
        text = straddling_quote()
        path.write_text(text)
        assert text.index('8\n"') + 1 - len("a,b,c\n") == BLOCK_CHARS
        ds = load_csv(path, "a", ["b", "c"])
        assert ds.n_dropped == 0 and (ds.x0[-2], ds.y1[-2], ds.y2[-2]) == (7, 8, 9)

    def test_block_edge_layout(self):
        for shift in (-1, 0, 1):
            text = block_edge(shift)
            assert text.index("4,5,6") - len("a,b,c\n") == BLOCK_CHARS + shift

    def test_bom_prefixed_file_loads_as_without(self, tmp_path):
        text = ("x0,x1,x2\n1,2,3\n4,y,6\n" + data_lines(128)).encode()
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text)
        bom.write_bytes(codecs.BOM_UTF8 + text)
        a = load_csv(plain, "x0", ["x1", "x2"])
        b = load_csv(bom, "x0", ["x1", "x2"])
        for col in ("x0", "y1", "y2"):
            assert getattr(a, col).tobytes() == getattr(b, col).tobytes()
        assert (a.n, a.n_dropped) == (b.n, b.n_dropped) == (129, 1)


def float_bits(cell):
    """The bytes of float(cell), or of NaN where float() rejects it."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    return struct.pack("<d", value)


def cell_values(cells):
    """data._cell_values on cells joined into one line, and which of them
    the exact path took."""
    raw = (",".join(cells) + "\n").encode()
    ends = np.flatnonzero(np.isin(np.frombuffer(raw, dtype=np.uint8), (ord(","), ord("\n"))))
    starts = np.concatenate(([0], ends[:-1] + 1))
    _, exact = data_mod._decimal_cells(raw, starts, ends)
    return data_mod._cell_values(raw, starts, ends), exact


@st.composite
def decimals(draw):
    """1-19 digits with a point anywhere, or none, or two, a sign, leading
    zeros and an exponent or none."""
    digits = draw(st.text("0123456789", min_size=1, max_size=19))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        point = draw(st.integers(0, len(digits)))
        digits = digits[:point] + "." + digits[point:]
    exponent = draw(st.one_of(st.just(""), st.tuples(
        st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
        st.text("0123456789", max_size=4)).map("".join)))
    return draw(st.sampled_from(["", "-"])) + "0" * draw(st.integers(0, 4)) + digits + exponent


@st.composite
def midpoints(draw):
    """The exact midpoint of two adjacent doubles, or it with its last
    digit one up or down."""
    lo = draw(st.one_of(st.floats(2.0 ** 50, 2.0 ** 62), st.floats(1e-5, 1e18)))
    with localcontext() as ctx:
        ctx.prec = 1100
        mid = (Decimal(lo) + Decimal(np.nextafter(lo, math.inf))) / 2
        mid += draw(st.sampled_from([-1, 0, 1])) * Decimal((0, (1,), mid.as_tuple().exponent))
    return format(mid, draw(st.sampled_from("fe")))


class TestCellConverter:
    """data._cell_values reads each cell as float() does, bit for bit; the
    vectorised path takes only values it can certify."""

    @settings(max_examples=500, deadline=None)
    @given(cell=st.one_of(st.floats().map(repr), decimals(), midpoints()))
    @example(cell="-0")
    @example(cell="0.0")
    @example(cell="9007199254740993")
    @example(cell="4503599627370495.5")
    @example(cell=".5")
    @example(cell="5.")
    @example(cell="1.2.3")
    @example(cell="9.1906582.96")  # points in two words
    @example(cell="--1")
    @example(cell="1-2")
    @example(cell=" 1")
    @example(cell="1_0")
    @example(cell="\u0661\u0662")
    def test_matches_float(self, cell):
        values, _ = cell_values([cell])
        assert values[0].tobytes() == float_bits(cell)

    def test_bulk_matches_float(self):
        # repr over all finite doubles and of log-uniform ones, 18-digit
        # decimals, np.savetxt's cells and midpoints of adjacent doubles, as
        # one line each; the share the exact path takes is a floor
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 0x7FF0_0000_0000_0000, 20000)
        wide = bits.view(float) * rng.choice([-1.0, 1.0], bits.size)
        logu = 10.0 ** rng.uniform(-6, 17, 60000) * rng.choice([-1.0, 1.0], 60000)
        digits = rng.integers(0, 10, (60000, 18)).astype(np.uint8) + ord("0")
        point = rng.integers(0, 19, 60000)
        decimal_cells = [d[:p] + "." + d[p:] for d, p in
                         zip(map(bytes.decode, map(bytes, digits)), point.tolist())]
        savetxt = [f % v for v in logu.tolist()[:20000] for f in ("%.18e", "%.6e")]
        mids = [format((Decimal(v) + Decimal(np.nextafter(v, math.inf))) / 2, "f")
                for v in (2.0 ** rng.uniform(50, 62, 5000)).tolist()]
        for cells, least in ((list(map(repr, wide.tolist())), 0.0),
                             (list(map(repr, logu.tolist())), 0.99),
                             (decimal_cells, 0.99), (mids, 0.0), (savetxt, 0.9)):
            values, exact = cell_values(cells)
            assert values.tobytes() == b"".join(map(float_bits, cells))
            assert exact.mean() >= least

    @pytest.mark.parametrize("cell, exact", [
        ("0", True), ("-0.0", True), ("123.456", True), ("0.00012345678901234567", True),
        ("1.2345678901234567", True), ("9999999999999999999", True),
        ("10000000000000000000", False),  # 20 digits
        ("4503599627370495.5", True),  # 2**52 - 0.5, from m >= 2**53
        ("12345678901234567", False),  # a tie of ...66 and ...68
        ("9.007199254740993e15", False),  # a tie of 2**53 and 2**53 + 2
        ("9007199254740992", False),  # a power of two from m >= 2**53
        ("1e5", True), ("-1.5E-3", True), ("2.5e+022", True), ("2.5e+0022", False),  # 4 exponent digits
        ("1.234567890123456789e+00", True), ("5e22", True), ("5e-22", True),
        ("5e23", False), ("5e-23", False), ("1e", False), ("1e+", False), ("e5", False),
        ("1e5e5", False), ("1e-5.5", False),
        ("9723643316807887861e22", False),  # a half-ulp of 2**62: r could wrap
        ("", False), ("-", False), (".", False), ("+1", False),
    ])
    def test_exact_domain(self, cell, exact):
        values, took = cell_values([cell])
        assert took[0] == exact
        assert values[0].tobytes() == float_bits(cell)


class TestRoundTrip:
    """write_table then load_csv gives every column back bit for bit."""

    def test_whole_float_range(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 30000
        sign = rng.choice([-1.0, 1.0], n)
        # repr's notation changes at 1e-4 and 1e16: a few ulps each side
        edges = np.concatenate([e + np.arange(-3, 4) * np.spacing(e) for e in (1e-4, 1e16)])
        special = np.concatenate([
            [0.0, -0.0], 2.0 ** np.arange(-1074, 1024),
            np.ldexp(rng.integers(2 ** 52, 2 ** 53, 2000).astype(float), rng.integers(1, 900, 2000)),
            rng.integers(2 ** 53, 2 ** 63, 2000, dtype=np.uint64).astype(float), edges])
        special = np.concatenate([special, -special])
        columns = [10.0 ** rng.uniform(-320, 300, n) * sign,
                   np.resize(rng.permutation(special), n),
                   10.0 ** rng.uniform(-6, 17, n) * sign[::-1]]
        path = tmp_path / "table.csv"
        write_table(path, ("x0", "x1", "x2"), columns)
        ds = load_csv(path, "x0", ["x1", "x2"])
        assert (ds.n, ds.n_dropped) == (n, 0)
        for got, want in zip((ds.x0, ds.y1, ds.y2), columns):
            assert got.tobytes() == want.tobytes()


class TestMemory:
    """load_csv holds its clean rows as three float64 columns, not as a
    Python tuple of floats per row."""

    def test_load_peak_per_row(self, tmp_path):
        n = 5 * 10**4
        vals = np.random.default_rng(3).standard_normal((n, 3))
        lines = [",".join(map(repr, row)) for row in vals.tolist()]
        lines[::97] = ["x,1.0,2.0"] * len(lines[::97])
        lines[1::89] = ["1.0,inf,2.0"] * len(lines[1::89])
        path = write_file(tmp_path, "a,b,c\n" + "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            ds = load_csv(path, "a", ["b", "c"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n + ds.n_dropped == n and ds.n_dropped > 1000
        # the columns while read, then their finite rows: about 50 bytes a row
        assert peak < 64 * n


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
        with pytest.raises(FitConvergenceError):
            fit_norming(rng.normal(size=50), np.full(50, 2.0))

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
        residual_diagnostic(residuals(ds, fits), fits, b=99, seed=0)
        residuals(ds, fits)
        assert len(calls) == 1
        np.testing.assert_array_equal(ds.x0_pareto, to_pareto_margins(ds.x0))

    def test_residual_diagnostic_reproducible(self, canonical_model):
        ds = simulated_dataset(canonical_model, 10**4, 3)
        fits = fit_dataset(ds, "gaussian", 0.95)
        a = residual_diagnostic(residuals(ds, fits), fits, b=999, seed=5)
        b = residual_diagnostic(residuals(ds, fits), fits, b=999, seed=5)
        assert a.p_value == b.p_value

    def test_residual_diagnostic_detects_negative_control(self):
        model = make_model(negative_control=True)
        ds = simulated_dataset(model, 10**4, 0)
        fits = fit_dataset(ds, "gaussian", 0.95)
        res = residual_diagnostic(residuals(ds, fits), fits, b=199, seed=0)
        assert res.p_value <= 0.01

    def test_unconverged_fits_rejected(self, canonical_model):
        ds = simulated_dataset(canonical_model, 10**4, 3)
        fits = fit_dataset(ds, "gaussian", 0.95)
        import dataclasses
        bad = dataclasses.replace(fits, fit1=dataclasses.replace(fits.fit1,
                                                                 converged=False))
        with pytest.raises(FitConvergenceError):
            residual_diagnostic(residuals(ds, bad), bad)


class TestSerialization:
    def test_residuals_csv(self, tmp_path):
        path = tmp_path / "res.csv"
        write_residuals_csv(np.array([1.0, 2.0]), np.array([3.0, 4.0]), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "z1,z2"
        assert lines[1] == "1.0,3.0"
