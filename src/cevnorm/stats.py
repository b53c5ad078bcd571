"""Empirical machinery: ECDFs, sup-distances, the cell table of a sample
with its factorization statistic and permutation independence test, and
the tail dependence coefficient."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.stats import random_table

DEFAULT_LEVELS = tuple(round(0.05 * k, 2) for k in range(1, 20))
MIN_CHI_EXCEEDANCES = 50  # conditioning rows chi_hat needs above p
PERM_BLOCK = 64  # null tables drawn per call; bounds memory, not results


@dataclass(frozen=True)
class Ecdf:
    """Sorted-sample empirical CDF, right-continuous."""

    sorted_values: np.ndarray
    n: int

    @classmethod
    def from_sample(cls, values) -> "Ecdf":
        arr = np.sort(np.asarray(values, dtype=float))
        return cls(sorted_values=arr, n=arr.size)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    b: int


def ks_distance(e: Ecdf, F: Callable) -> float:
    """sup_x |ECDF(x) - F(x)|, evaluated at the jump points."""
    fx = np.asarray(F(e.sorted_values), dtype=float)
    i = np.arange(1, e.n + 1)
    return float(max(np.max(i / e.n - fx), np.max(fx - (i - 1) / e.n)))


def _pairs(pairs):
    w1, w2 = (np.asarray(w, dtype=float) for w in pairs)
    bad = np.count_nonzero(~(np.isfinite(w1) & np.isfinite(w2)))
    if bad:
        raise FloatingPointError(f"{bad} of {w1.size} pairs are not finite")
    return w1, w2


def _cell_indices(w: np.ndarray, grid: np.ndarray) -> np.ndarray:
    # d_i <= l  iff  w_i <= grid[l]; lets joint CDF counts come from one
    # 2-d histogram plus cumulative sums instead of per-level indicators
    return np.searchsorted(grid, w, side="left")


def _count_cells(d1: np.ndarray, d2: np.ndarray, n_levels: int) -> np.ndarray:
    """#(d1 = k, d2 = l) for k, l in 0..n_levels."""
    m = n_levels + 1
    return np.bincount(d1 * m + d2, minlength=m * m).reshape(m, m)


def _joint_cdf(cells: np.ndarray, n: int) -> np.ndarray:
    """#(d1 <= k, d2 <= l) / n for each table in a (..., m, m) stack.

    The last row and column hold the marginals, since no index exceeds them.
    """
    return cells.cumsum(axis=-2).cumsum(axis=-1) / n


def _table_stats(cells: np.ndarray, n: int) -> np.ndarray:
    """max |F12 - F1*F2| of each table in a (..., m, m) stack of cell counts."""
    f = _joint_cdf(cells, n)
    joint, f1, f2 = f[..., :-1, :-1], f[..., :-1, -1:], f[..., -1:, :-1]
    return np.max(np.abs(joint - f1 * f2), axis=(-2, -1))


def joint_ecdf(pairs, g1, g2) -> np.ndarray:
    """Joint ECDF at every point of the grid g1 x g2.

    g1 and g2 must be increasing and of equal length.
    """
    w1, w2 = _pairs(pairs)
    g1, g2 = np.asarray(g1, dtype=float), np.asarray(g2, dtype=float)
    cells = _count_cells(_cell_indices(w1, g1), _cell_indices(w2, g2), g1.size)
    return _joint_cdf(cells, w1.size)[:-1, :-1]


def cell_table(pairs, levels: Sequence[float] = DEFAULT_LEVELS) -> np.ndarray:
    """Counts of the pairs in the cells of their marginal-quantile grid.

    The grid is the empirical marginal quantiles of the given levels, and
    entry (k, l) of the (m + 1) x (m + 1) table, m = len(levels), counts
    the pairs with w1 in cell k and w2 in cell l.  The marginals, and hence
    the grid, are invariant under permuting the second coordinate, so the
    factorization distance and its permutation test are functions of this
    table alone.
    """
    w1, w2 = _pairs(pairs)
    if w1.size < 10:
        raise ValueError("need at least 10 pairs")
    if np.all(w1 == w1[0]) or np.all(w2 == w2[0]):
        raise ValueError("degenerate sample: a coordinate is constant")
    lv = np.asarray(levels, dtype=float)
    if lv.size == 0 or np.any(lv <= 0) or np.any(lv >= 1):
        raise ValueError("levels must be non-empty and inside (0, 1)")
    d1 = _cell_indices(w1, np.quantile(w1, lv))
    d2 = _cell_indices(w2, np.quantile(w2, lv))
    return _count_cells(d1, d2, lv.size)


def factorization_stat(table) -> float:
    """Empirical factorization distance max |F12 - F1*F2| of a cell table.

    The table is cell_table's: a 2-d array of non-negative integer counts
    of at least 10 pairs.
    """
    cells = np.asarray(table)
    valid = cells.ndim == 2 and cells.dtype.kind in "iu" and not np.any(cells < 0)
    n = cells.sum() if valid else 0
    if n < 10:
        raise ValueError("table must be a 2-d array of non-negative integer "
                         "counts of at least 10 pairs")
    return float(_table_stats(cells, n))


def permutation_independence_test(table, b: int = 999,
                                  seed: int = 0) -> TestResult:
    """Permutation test of independence based on the factorization distance.

    Permuting w2 against a fixed w1 draws the cell table from its exact
    null law, the Fisher-Freeman-Halton (multivariate hypergeometric) law
    given both margins.  The b replicate tables are drawn from that law
    directly by Patefield's algorithm (AS 159, ``scipy.stats.random_table``),
    at a cost per replicate set by the number of cells rather than by n.

    The tables come from one generator, ``Philox(seed)``.  An integer
    passed to Philox is hashed through ``SeedSequence`` into the key, so
    this stream shares no key with the sampler's ``Philox(key=[seed,
    stream])`` and the null tables are independent of the data.  They are
    drawn in blocks of ``PERM_BLOCK``, which bounds memory and leaves the
    tables, and so the p-value, unchanged.  p-values are reproducible for a
    given scipy version.
    """
    if b < 99:
        raise ValueError("b must be >= 99")
    observed = factorization_stat(table)
    rows, cols = np.sum(table, axis=1), np.sum(table, axis=0)
    n = rows.sum()
    null = random_table(rows, cols)
    rng = np.random.Generator(np.random.Philox(seed & (2**64 - 1)))
    n_ge = 0
    for lo in range(0, b, PERM_BLOCK):
        tables = null.rvs(size=min(PERM_BLOCK, b - lo), method="patefield",
                          random_state=rng)
        n_ge += int(np.count_nonzero(_table_stats(tables, n) >= observed))
    p = (1 + n_ge) / (b + 1)
    return TestResult(statistic=observed, p_value=p, b=b)


def pseudo_uniforms(values) -> np.ndarray:
    """Rank-based margin transform rank/(n+1) of a 1-d sample, average
    ranks on ties; raises ValueError on NaN.

    The tie group of sorted positions start..end-1 takes the average rank
    (start + end + 1)/2, an exact float, so the result is bit for bit
    scipy's rankdata(values, "average")/(n + 1).
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    order = np.argsort(arr)
    s = arr[order]
    if n and np.isnan(s[-1]):  # argsort puts NaN last
        raise ValueError("cannot rank NaN")
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    del s  # each temporary goes before the next is made
    starts = np.flatnonzero(first)
    del first
    # (start + end + 1)/2/(n + 1) as one division of exact values
    u = np.empty(starts.size)
    np.add(starts[1:], starts[:-1], out=u[:-1])
    u[-1:] = starts[-1:] + n
    u += 1
    u /= 2 * (n + 1)
    out = np.empty(n)
    out[order] = u if starts.size == n else np.repeat(u, np.diff(starts, append=n))
    return out


def chi_hat(u0, u1, u2, p: float) -> float:
    """Empirical tail dependence P[u1 > p, u2 > p | u0 > p].

    Inputs are the margins' own CDF values (known margins) or
    pseudo-uniform ranks; all must lie in (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    cond = u0 > p
    n_cond = int(np.count_nonzero(cond))
    if n_cond < MIN_CHI_EXCEEDANCES:
        raise ValueError(
            f"only {n_cond} conditioning exceedances above p={p}; "
            f"need at least {MIN_CHI_EXCEEDANCES}"
        )
    both = np.count_nonzero(cond & (u1 > p) & (u2 > p))
    return both / n_cond
