"""Real-data tail diagnostic pipeline.

Ingest a trivariate CSV, rank-transform the conditioning margin to the
unit-Pareto scale, fit a norming pair plus noise law per conditioned
coordinate above a threshold (pseudo-likelihood, profiled over rho on a
grid and refined by bounded Brent), and test the random-norming
residuals for independence.
Conditional independence in the tail should make the residuals pass;
fitting each coordinate separately is precisely the lower-dimensional
shortcut conditional independence buys.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .models import FAMILIES, NOISE_FAMILIES, NoiseLaw
from .norming import ErvParams, normed, normed_log, normed_terms
from .simulate import write_table
from .stats import (
    TestResult,
    cell_table,
    permutation_independence_test,
    pseudo_uniforms,
)

MIN_FIT_ROWS = 100
MIN_EXCEEDANCES = 30

RHO_BOUNDS = (-5.0, 1.0)
# the profile likelihood is scanned over rho at spacing 0.1 before Brent
# refines it; this grid is the fit's only multi-start
RHO_GRID = np.linspace(*RHO_BOUNDS, 61)
BRENT_XATOL = 1e-10
NEWTON_MAXITER = 100
NEWTON_TOL = 1e-12  # Newton decrement, in units of the log-likelihood
MAX_BRACKET_STEPS = 200

BLOCK_CHARS = 1 << 17  # text read per block, completed to the next newline
# a block holding one of these is read by csv.reader from there on: the
# quote and "\r" move row ends off "\n", and NUL is a csv.Error before
# Python 3.11
_CSV_ONLY = '"\r\x00'
# a delimiter that can be part of a number, or a newline, sends the whole
# file to csv.reader
_NUMBER_CHARS = "0123456789.+-eE\n"

# _decimal_cells reads a cell as the three little-endian words of the 24
# bytes that end where it ends; for n bytes, _KEEP[:, n] keeps the last n
_KEEP = np.where(np.arange(24) >= 24 - np.arange(25)[:, None], 0xFF, 0).astype(np.uint8)
_KEEP = _KEEP.view("<u8").T.copy()
_WORDS = np.array([[0], [8], [16]])
_ONES = np.uint64(0x0101010101010101)  # times b: b in every byte
_PAIRS, _QUADS = np.uint64(0x00FF00FF00FF00FF), np.uint64(0x0000FFFF0000FFFF)
_MAX_P = 22  # the largest |p| for which 10**p is an exact double
_POW10 = np.array([float(10 ** p) for p in range(_MAX_P + 1)])
_POW5 = np.array([5 ** p for p in range(_MAX_P + 1)], dtype=np.uint64)


class DataError(ValueError):
    """The input file is not UTF-8 CSV, lacks a requested column or any
    clean numeric row, or has a constant column where a fit needs spread."""


class FitConvergenceError(RuntimeError):
    """No fit could be completed."""


@dataclass(frozen=True)
class Dataset:
    columns: tuple
    x0: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    n: int
    n_dropped: int

    @cached_property
    def x0_pareto(self) -> np.ndarray:
        """The conditioning margin on the unit-Pareto scale, ranked once."""
        return to_pareto_margins(self.x0)


@dataclass(frozen=True)
class NormingFit:
    """Fitted norming pair and noise law for one conditioned coordinate."""

    erv: ErvParams
    noise: NoiseLaw
    iterations: int
    converged: bool
    objective: float
    n_starts: int


@dataclass(frozen=True)
class FittedNorming:
    """Per-coordinate fits plus the thresholding used to obtain them."""

    fit1: NormingFit
    fit2: NormingFit
    p_t: float
    n_exceedances: int


def load_csv(path, conditioning_column: str, value_columns: Sequence[str],
             delimiter: str = ",") -> Dataset:
    """Load and clean a trivariate UTF-8 CSV; a leading BOM is skipped.

    Blank lines are skipped.  A row that is too short, holds a cell float()
    rejects or holds a non-finite value is dropped and counted.  A repeated
    header name resolves to its last column, as in csv.DictReader.

    That per-row rule (_read_rows) is the definition.  The text is read in
    blocks of BLOCK_CHARS and split with numpy at delimiters and newlines,
    where csv.reader splits a line that holds no quote, so the rule applies
    to all the lines of a block at once (_read_block).

    A cell that is an optional '-', a mantissa of digits with at most one
    '.', and an optional exponent ('e' or 'E', a sign and up to three
    digits) has the value -M * 10**p or M * 10**p, with M the mantissa's
    digits as an integer and p the exponent less the digits after the
    point.  _decimal_cells checks and sums the digits eight at a time in
    uint64 words (SWAR).  For M < 2**53 and |p| <= _MAX_P, M times or over
    10.0**|p| is one rounding of exact operands (Clinger's fast path).  For
    larger M < 10**19 that double, or the next one up or down, is
    certified as the nearest by an exact integer residual.  A tie, a power
    of two and every other cell go to float(), so no value is taken from
    an approximation.  The rest of the file goes through the rule from the
    first block that holds a _CSV_ONLY character or a line longer than
    csv's field size limit, and the whole file does for a delimiter that
    can be part of a number or is not ASCII.
    """
    if len(value_columns) != 2:
        raise ValueError("exactly two value columns are required")
    wanted = [conditioning_column, *value_columns]
    # three typed columns, 8 bytes per value, in place of a tuple per row
    cols, dropped = (array("d"), array("d"), array("d")), 0
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            index = {name: i for i, name in
                     enumerate(next(csv.reader(fh, delimiter=delimiter), []))}
            for col in wanted:
                if col not in index:
                    raise DataError(f"column {col!r} not found in {path}")
            usecols = tuple(index[col] for col in wanted)
            fast = delimiter.isascii() and delimiter not in _NUMBER_CHARS
            while text := fh.read(BLOCK_CHARS):
                if text[-1] != "\n":
                    text += fh.readline()
                if fast and not any(c in text for c in _CSV_ONLY):
                    read = _read_block(text if text[-1] == "\n" else text + "\n",
                                       delimiter, usecols, cols)
                    if read is not None:
                        dropped += read
                        continue
                rows = csv.reader(chain(io.StringIO(text, newline=""), fh),
                                  delimiter=delimiter)
                dropped += _read_rows(rows, usecols, cols)
                break
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: unreadable CSV ({exc})") from exc
    x0, y1, y2 = (np.frombuffer(c, dtype=float) for c in cols)
    finite = np.isfinite(x0) & np.isfinite(y1) & np.isfinite(y2)
    if not finite.all():
        dropped += int(np.count_nonzero(~finite))
        x0, y1, y2 = x0[finite], y1[finite], y2[finite]
    if not x0.size:
        raise DataError(f"{path}: no clean numeric rows")
    return Dataset(columns=tuple(wanted), x0=x0, y1=y1, y2=y2, n=x0.size,
                   n_dropped=dropped)


def _read_rows(rows, usecols, cols) -> int:
    """Append the rows of a csv.reader to cols by load_csv's rule; return
    how many were dropped."""
    i0, i1, i2 = usecols
    width = max(usecols) + 1
    add0, add1, add2 = (c.append for c in cols)
    dropped = 0
    for row in rows:
        if not row:
            continue
        if len(row) < width:
            dropped += 1
            continue
        try:
            v0, v1, v2 = float(row[i0]), float(row[i1]), float(row[i2])
        except ValueError:
            dropped += 1
            continue
        add0(v0)
        add1(v1)
        add2(v2)
    return dropped


def _read_block(text, delimiter, usecols, cols):
    """Append the rows of text, which ends in a newline and holds no
    _CSV_ONLY character, to cols by load_csv's rule; return how many were
    dropped, or None, with nothing appended, if a line is longer than
    csv's field size limit.

    Without a quote, csv.reader splits a line at each delimiter, so the
    rule applies to all lines at once: an empty line is skipped, one with
    too few cells is dropped, and the used cells of the others are read by
    _cell_values.  A cell float() rejects reads as NaN, so that its row is
    dropped with the non-finite ones.
    """
    raw = text.encode()
    a = np.frombuffer(raw, dtype=np.uint8)
    # each cell ends at a separator or a newline: cell j spans
    # bounds[j] + 1 to bounds[j + 1]
    ends = a == ord(delimiter)
    ends |= a == ord("\n")
    bounds = np.flatnonzero(ends)
    del ends
    bounds = np.concatenate(([-1], bounds))
    last = np.flatnonzero(a[bounds[1:]] == ord("\n"))  # each line's last cell
    length = np.diff(bounds[last + 1], prepend=-1) - 1
    if length.max() > csv.field_size_limit():
        return None
    cells = np.diff(last, prepend=-1)
    filled = length > 0
    full = filled & (cells > max(usecols))
    j = ((last[full] - cells[full] + 1)[:, None] + np.array(usecols)).reshape(-1)
    rows = _cell_values(raw, bounds[j] + 1, bounds[j + 1]).reshape(-1, len(usecols))
    for c, v in zip(cols, rows.T):
        c.frombytes(v.tobytes())
    return int(np.count_nonzero(filled & ~full))


def _cell_values(raw, start, end) -> np.ndarray:
    """float() of each cell raw[start:end], or NaN where float() rejects
    it: by _decimal_cells, and by float() where that leaves a cell open."""
    values, exact = _decimal_cells(raw, start, end)
    for i in np.flatnonzero(~exact).tolist():
        try:
            values[i] = float(raw[start[i]:end[i]].decode())
        except ValueError:
            values[i] = math.nan
    return values


def _byte_count(x):
    """The number of bytes with their low bit set in the words of x,
    summed over its first axis."""
    x = x & _ONES
    x *= _ONES
    x >>= 56
    return x.sum(axis=0).astype(np.int64)


def _eight_digits(w):
    """Whether each word of w is eight digits, as bytes 0-9, and their
    value as an integer, which overwrites w."""
    # no high nibble set in a byte or in it + 6
    bad = w + 0x06 * _ONES
    bad |= w
    bad &= 0xF0 * _ONES
    # pairs, quads, then all eight
    w *= 2561
    w >>= 8
    w &= _PAIRS
    w *= 6553601
    w >>= 16
    w &= _QUADS
    w *= 42949672960001
    w >>= 32
    return bad == 0, w


def _exponents(text, words, start, end):
    """Where each cell's mantissa ends, its decimal exponent and whether
    that is one 'e' or 'E', an optional sign and one to three digits, or
    none of them."""
    stop, power, ok = end, np.zeros(end.size, dtype=np.int64), np.ones(end.size, dtype=bool)
    marks = np.flatnonzero((text | 0x20) == ord("e"))
    if marks.size and end.size:
        cell = np.minimum(np.searchsorted(end, marks), end.size - 1)
        inside = start[cell] <= marks
        inside &= marks < end[cell]
        marks, cell = marks[inside], cell[inside]
        stop = end.copy()
        stop[cell] = marks
        tail = end[cell]
        sign = text[marks + 1]
        digits = tail - marks - 1 - ((sign == ord("-")) | (sign == ord("+")))
        # the last eight bytes of the cell, with the exponent's digits as
        # 0-9 and the bytes before them as 0
        x = words[tail + 16] ^ 0x30 * _ONES
        x &= _KEEP[2, np.clip(digits, 0, 8)]
        digit, x = _eight_digits(x)
        power[cell] = np.where(sign == ord("-"), -1, 1) * x.astype(np.int64)
        ok[cell] = digit & (digits >= 1) & (digits <= 3)
        # a second 'e': numpy leaves open which of two writes to one index
        # above lands
        ok[cell[1:][cell[1:] == cell[:-1]]] = False
    return stop, power, ok


def _decimal_cells(raw, start, end):
    """The values of the cells raw[start:end] and which of them are exact.

    A cell is exact if it is an optional '-', a mantissa of at most 24
    bytes, digits and at most one '.', and an optional exponent of 'e' or
    'E', a sign and one to three digits, and if the integer M of its
    mantissa's digits, k of them after the point, and its exponent x give
    M < 10**19 and |x - k| <= _MAX_P, and its value, -M * 10**(x - k) or
    M * 10**(x - k), is certified (see load_csv).  Other cells have no
    value here.
    """
    padded = np.frombuffer(bytes(24) + raw, dtype=np.uint8)
    words = np.ndarray((padded.size - 7,), "<u8", padded, 0, (1,))
    text = padded[24:]
    neg = text[start] == ord("-")
    stop, power, exact = _exponents(text, words, start, end)
    n = stop - start - neg  # the mantissa's bytes after its sign
    # the 8 * size bytes that end where the mantissa does, as size words:
    # as few as the block's longest mantissa needs, up to three.  Digits
    # become 0-9, '.' 0x1e, and the bytes before the mantissa's digits 0.
    # The arithmetic is in place where it can be
    size = min(max((int(n.max(initial=0)) + 7) // 8, 1), 3)
    w = words[stop + _WORDS[3 - size:]]
    w ^= 0x30 * _ONES
    w &= _KEEP[3 - size:, np.minimum(n, 24)]
    # a point's byte, as 1 in u: the 0 bytes of t = w ^ 0x1e.  A 1 byte of
    # t right above a 0 byte is taken for one too, but that is a '/' after
    # a point, and a cell with two is not exact
    t = w ^ 0x1E * _ONES
    u = t - _ONES
    u &= np.invert(t, out=t)
    del t
    u &= 0x80 * _ONES
    u >>= 7
    points = _byte_count(u)
    # the point and the bytes below it take the byte below them, and a 0
    # enters at the bottom: u becomes the mask of the 8 * size - k bytes
    # moved
    inword = u != 0  # then: the point is in this word or a later one
    for i in range(size - 2, -1, -1):
        inword[i] |= inword[i + 1]
    u <<= 8
    u -= 1
    u *= inword
    power -= (8 * size - _byte_count(u)) * (points == 1)
    shifted = w << 8
    shifted[1:] |= w[:-1] >> 56
    shifted ^= w
    shifted &= u
    w ^= shifted
    del u, shifted
    ok, w = _eight_digits(w)
    # M < 10**19, so that it fits in a uint64
    exact &= ok.all(axis=0) & (w[0] < 10 ** (27 - 8 * size))
    exact &= (n - points > 0) & (n <= 24) & (points <= 1) & (np.abs(power) <= _MAX_P)
    del stop, n, points
    m = w[0].copy()
    for row in w[1:]:
        m *= 10 ** 8
        m += row
    del w
    values, nearest = _nearest(m, np.clip(power, -_MAX_P, _MAX_P, out=power))
    exact &= nearest
    bits = values.view(np.int64)
    bits |= neg.astype(np.int64) << 63
    return values, exact


def _nearest(m, p):
    """The double nearest to each m * 10**p, for uint64 m and |p| <=
    _MAX_P, and where that is certified.

    Where m < 2**53 it is one rounding of exact operands (Clinger's fast
    path).  Otherwise the double f * 2**q after two roundings, or the one
    an ulp away, is the nearest by the sign of the residual
    r = 2m * 10**p * 2**-q - 2f against the half-ulp 1, both times 5**-p
    where p < 0 and times 2**(q - p) where q > p, which makes them
    integers.  r is a few half-ulps at most, so it is exact in wrapping
    uint64 arithmetic while the half-ulp is below 2**61.  A tie, and a
    power of two, whose ulp below is half the ulp above, are not certified.
    """
    values = m.astype(float)
    values *= _POW10[np.maximum(p, 0)]
    values /= _POW10[np.maximum(-p, 0)]
    big = m >= 2 ** 53
    bits = values.view(np.int64)
    f = bits & (2 ** 52 - 1) | 2 ** 52
    e = (bits >> 52) - 1075 - p
    up, down = np.maximum(-e, 0).astype(np.uint64), np.maximum(e, 0).astype(np.uint64)
    del e
    five = _POW5[np.maximum(-p, 0)]
    half = (five << down).view(np.int64)
    r = m * 2 * _POW5[np.maximum(p, 0)] << up
    r -= f.view(np.uint64) * 2 * five << down
    del up, down, five
    r = r.view(np.int64)
    step = ((r > half) & big).astype(np.int64) - ((r < -half) & big)
    r -= 2 * step * half
    certified = ~big | (np.abs(r) < half) & (half < 2 ** 61) & (f + step > 2 ** 52)
    bits += step
    return values, certified


def to_pareto_margins(values) -> np.ndarray:
    """Pseudo-observations on the unit-Pareto scale: 1/(1 - rank/(n+1))."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least 2 values")
    if arr.size > 2 and np.all(arr == arr[0]):
        # a single tied pair maps to the average rank (u = 0.5, x = 2);
        # anything longer that is constant carries no ordering information
        raise ValueError("constant input: ranks are degenerate")
    return 1.0 / (1.0 - pseudo_uniforms(arr))


def _neg_log_likelihood(theta, y, logx0, logalpha_base, family):
    rho, kappa, loc, scale = theta
    if scale <= 0:
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        # the uniform inner fit takes its support from this same map, so
        # that support holds bit for bit here
        s = (normed_log(y, logx0, rho, kappa) - loc) / scale
        # Jacobian of y -> s: x0**-rho/scale, whose log sums to
        # -rho*sum log x0 - n*log scale
        nll = (-np.sum(NOISE_FAMILIES[family].log_pdf(s)) + y.size * math.log(scale)
               + rho * logalpha_base)
    return float(nll) if np.isfinite(nll) else math.inf


def _dot(a, b):
    # einsum, not BLAS: OpenBLAS threads a long ddot, and waking them costs
    # milliseconds per call
    return float(np.einsum("i,i->", a, b))


def _least_squares(u, c):
    """(kappa, loc, scale) of the Gaussian fit u = loc + kappa*c + scale*Z,
    or None if c is constant."""
    if not np.ptp(c) > 0:
        return None
    um, cm = u.mean(), c.mean()
    du, dc = u - um, c - cm
    kappa = _dot(dc, du) / _dot(dc, dc)
    r = du - kappa * dc
    return kappa, um - kappa * cm, math.sqrt(_dot(r, r) / u.size)


def _min_range_slope(u, c, kappa):
    """The kappa that minimises range(u - kappa*c), or None.

    The range is convex and piecewise linear in kappa, with subgradient
    c[argmin] - c[argmax]; bracket its sign change from the Gaussian kappa,
    then bisect down to adjacent floats.
    """
    def slope(k):
        r = u - k * c
        return c[np.argmin(r)] - c[np.argmax(r)]

    g = slope(kappa)
    if g == 0:
        return kappa
    sign = 1.0 if g < 0 else -1.0  # towards the minimum
    step = 1e-3 * (abs(kappa) + u.std() / c.std())
    far = kappa
    for _ in range(MAX_BRACKET_STEPS):
        near, far = far, far + sign * step
        step *= 2.0
        if sign * slope(far) >= 0:
            break
    else:
        return None
    lo, hi = sorted((near, far))
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        g = slope(mid)
        if g > 0:
            hi = mid
        elif g < 0:
            lo = mid
        else:
            return mid
    return lo if np.ptp(u - lo * c) <= np.ptp(u - hi * c) else hi


def _log_concave_fit(u, c, start, family):
    """(kappa, loc, scale) maximising the gumbel or logistic likelihood of
    u = loc + kappa*c + scale*Z, or None.

    On the standardised columns M = (u', c', 1), s = theta @ M with
    theta[0] = sd(u)/scale > 0.  The negative log-likelihood is convex in
    theta, because both log-densities are concave: damped Newton from start.
    """
    law = NOISE_FAMILIES[family]
    n = u.size
    um, cm, su, sc = u.mean(), c.mean(), u.std(), c.std()
    M = np.stack([(u - um) / su, (c - cm) / sc, np.ones(n)])
    kappa, loc, scale = start
    theta = np.array([su, -kappa * sc, um - kappa * cm - loc]) / scale

    def objective(th):
        if not th[0] > 0:
            return math.inf
        val = -np.sum(law.log_pdf(np.einsum("i,in->n", th, M))) - n * math.log(th[0])
        return val if np.isfinite(val) else math.inf

    f = objective(theta)
    for _ in range(NEWTON_MAXITER):
        d1, d2 = law.score(np.einsum("i,in->n", theta, M))
        grad = -np.einsum("in,n->i", M, d1)
        grad[0] -= n / theta[0]
        hess = -np.einsum("in,n,jn->ij", M, d2, M)
        hess[0, 0] += n / theta[0] ** 2
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            return None
        decrement = -(grad @ step)
        if not (np.isfinite(f) and np.isfinite(decrement)):
            return None
        if decrement <= NEWTON_TOL:
            break
        # backtrack to the minimum of the quadratic through f, its slope
        # -decrement and f_new, kept within [t/10, t/2]
        t = 1.0
        while t >= 1e-10:
            f_new = objective(theta + t * step)
            excess = f_new - f + t * decrement
            if f_new <= f - 0.25 * t * decrement:
                break
            t *= min(max(decrement * t / (2.0 * excess), 0.1), 0.5) if excess < math.inf else 0.1
        else:
            break  # no descent left above rounding
        theta, f = theta + t * step, f_new
    p, q, r = theta
    scale = su / p
    kappa = -q * scale / sc
    return kappa, um - kappa * cm - r * scale, scale


def _profile_point(y, logx0, rho, family):
    """Inner fit at fixed rho: (kappa, loc, scale), or None where it is
    singular or not finite.

    y*x0**-rho = loc + kappa*c + scale*Z with c = (1 - x0**-rho)/rho:
    a linear location-scale regression.
    """
    w, c = normed_terms(logx0, rho)
    u = y * w
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(c))):
        return None
    inner = _least_squares(u, c)
    if inner is None or not (np.all(np.isfinite(inner)) and inner[2] > 0):
        return None
    if family == "uniform":
        kappa = _min_range_slope(u, c, inner[0])
        if kappa is None:
            return None
        z = normed_log(y, logx0, rho, kappa)
        loc = float(np.min(z))
        inner = (kappa, loc, float(np.max(z)) - loc)
    elif family != "gaussian":
        inner = _log_concave_fit(u, c, inner, family)
    if inner is None or not (np.all(np.isfinite(inner)) and inner[2] > 0):
        return None
    return tuple(float(v) for v in inner)


def fit_norming(y, x0, family: str = "gaussian") -> NormingFit:
    """Fit normed(y, x0, erv) = loc + scale*Z by pseudo-likelihood.

    x0 must already be on the unit-Pareto exceedance scale.  For fixed
    rho the fit is a linear location-scale regression, solved in closed
    form (gaussian), by a 1-D convex search (uniform) or by damped Newton
    (gumbel, logistic).  The profile likelihood over rho is scanned on
    RHO_GRID, then minimised by bounded Brent between the neighbours of
    the best grid point; the best point evaluated wins.

    The likelihood is exactly flat along a rescaling of (a, loc, scale),
    so a is pinned at 1 and scale carries the spread of a*Z.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown noise family {family!r}")
    y = np.asarray(y, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if y.size != x0.size:
        raise ValueError("y and x0 must have equal length")
    if y.size < MIN_EXCEEDANCES:
        raise ValueError(
            f"need at least {MIN_EXCEEDANCES} exceedance pairs, got {y.size}"
        )
    if np.any(x0 <= 0):
        raise ValueError("x0 must be positive (unit-Pareto scale)")

    logx0 = np.log(x0)
    logalpha_base = float(np.sum(logx0))
    evaluated = []  # (objective, rho, kappa, loc, scale)

    def profile(rho):
        with np.errstate(all="ignore"):
            inner = _profile_point(y, logx0, rho, family)
        nll = math.inf
        if inner is not None:
            nll = _neg_log_likelihood((rho, *inner), y, logx0, logalpha_base, family)
            evaluated.append((nll, rho, *inner))
        return nll

    grid = [profile(float(rho)) for rho in RHO_GRID]
    i = int(np.argmin(grid))
    if not math.isfinite(grid[i]):
        raise FitConvergenceError(
            f"{family} profile likelihood is not finite at any of the "
            f"{RHO_GRID.size} grid points in rho")
    bracket = (float(RHO_GRID[max(i - 1, 0)]), float(RHO_GRID[min(i + 1, RHO_GRID.size - 1)]))
    res = minimize_scalar(profile, bounds=bracket, method="bounded",
                          options={"xatol": BRENT_XATOL})
    nll, rho, kappa, loc, scale = min(evaluated, key=lambda e: e[0])
    return NormingFit(
        erv=ErvParams(a=1.0, rho=rho, kappa=kappa),
        noise=NoiseLaw(family=family, location=loc, scale=scale),
        iterations=RHO_GRID.size + int(res.nfev), converged=bool(res.success),
        objective=nll, n_starts=RHO_GRID.size,
    )


def tail_exceedances(dataset: Dataset, p_t: float):
    """Pareto-transform the conditioning margin and keep rows above p_t."""
    if not 0.0 < p_t < 1.0:
        raise ValueError("p_t must lie strictly inside (0, 1)")
    if dataset.n < MIN_FIT_ROWS:
        raise ValueError(
            f"need at least {MIN_FIT_ROWS} clean rows for fitting, got {dataset.n}"
        )
    if np.all(dataset.x0 == dataset.x0[0]):
        raise DataError(f"conditioning column {dataset.columns[0]!r} is constant")
    x0p = dataset.x0_pareto
    keep = x0p > 1.0 / (1.0 - p_t)
    return x0p[keep], dataset.y1[keep], dataset.y2[keep]


def fit_dataset(dataset: Dataset, family: str = "gaussian",
                p_t: float = 0.95) -> FittedNorming:
    """Per-coordinate norming fits on the exceedances above p_t."""
    x0p, y1, y2 = tail_exceedances(dataset, p_t)
    if x0p.size < MIN_EXCEEDANCES:
        raise ValueError(
            f"only {x0p.size} exceedances above p_t={p_t}; "
            f"need at least {MIN_EXCEEDANCES}"
        )
    for name, y in zip(dataset.columns[1:], (y1, y2)):
        if np.all(y == y[0]):
            raise DataError(f"value column {name!r} is constant over the "
                            f"{x0p.size} exceedances above p_t={p_t}")
    fit1 = fit_norming(y1, x0p, family)
    fit2 = fit_norming(y2, x0p, family)
    return FittedNorming(fit1=fit1, fit2=fit2, p_t=p_t, n_exceedances=x0p.size)


def residuals(dataset: Dataset, fits: FittedNorming):
    """Standardised random-norming residuals of the exceedance rows."""
    x0p, y1, y2 = tail_exceedances(dataset, fits.p_t)
    out = []
    for y, fit in ((y1, fits.fit1), (y2, fits.fit2)):
        out.append((normed(y, x0p, fit.erv) - fit.noise.location) / fit.noise.scale)
    return out[0], out[1]


def residual_diagnostic(pairs, fits: FittedNorming,
                        b: int = 999, seed: int = 0) -> TestResult:
    """Permutation independence test on the pair of fitted-norming
    residuals (z1, z2) that residuals(dataset, fits) returns.

    A small p-value is evidence against conditional independence in the
    tail of the data.
    """
    if not (fits.fit1.converged and fits.fit2.converged):
        raise FitConvergenceError("fits did not converge")
    return permutation_independence_test(cell_table(pairs), b=b, seed=seed)


def write_residuals_csv(z1, z2, path) -> None:
    write_table(path, ("z1", "z2"), (z1, z2))
