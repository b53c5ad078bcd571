"""Empirical machinery: ECDFs, sup-distances, factorization statistics,
permutation independence tests and the tail dependence coefficient."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.stats import random_table, rankdata

from .simulate import NormedSample

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
    n: int
    b: int
    seed: int


def ks_distance(e: Ecdf, F: Callable) -> float:
    """sup_x |ECDF(x) - F(x)|, evaluated at the jump points."""
    fx = np.asarray(F(e.sorted_values), dtype=float)
    i = np.arange(1, e.n + 1)
    return float(max(np.max(i / e.n - fx), np.max(fx - (i - 1) / e.n)))


def _pairs(pairs):
    if isinstance(pairs, NormedSample):
        w1, w2 = pairs.w1, pairs.w2
    else:
        w1, w2 = (np.asarray(w, dtype=float) for w in pairs)
    bad = np.count_nonzero(~(np.isfinite(w1) & np.isfinite(w2)))
    if bad:
        raise FloatingPointError(f"{bad} of {w1.size} pairs are not finite")
    return w1, w2


def _cell_indices(w: np.ndarray, grid: np.ndarray) -> np.ndarray:
    # d_i <= l  iff  w_i <= grid[l]; lets joint CDF counts come from one
    # 2-d histogram plus cumulative sums instead of per-level indicators
    return np.searchsorted(grid, w, side="left")


def _cell_table(d1: np.ndarray, d2: np.ndarray, n_levels: int) -> np.ndarray:
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
    cells = _cell_table(_cell_indices(w1, g1), _cell_indices(w2, g2), g1.size)
    return _joint_cdf(cells, w1.size)[:-1, :-1]


def factorization_stat(pairs, levels: Sequence[float] = DEFAULT_LEVELS) -> float:
    """Empirical factorization distance max |F12 - F1*F2| over a grid.

    The grid is the empirical marginal quantiles of the given levels.
    """
    w1, w2 = _pairs(pairs)
    n = w1.size
    if n < 10:
        raise ValueError("need at least 10 pairs")
    if np.all(w1 == w1[0]) or np.all(w2 == w2[0]):
        raise ValueError("degenerate sample: a coordinate is constant")
    lv = np.asarray(levels, dtype=float)
    if lv.size == 0 or np.any(lv <= 0) or np.any(lv >= 1):
        raise ValueError("levels must be non-empty and inside (0, 1)")
    g1 = np.quantile(w1, lv)
    g2 = np.quantile(w2, lv)
    cells = _cell_table(_cell_indices(w1, g1), _cell_indices(w2, g2), g1.size)
    return float(_table_stats(cells, n))


def permutation_independence_test(pairs, levels: Sequence[float] = DEFAULT_LEVELS,
                                  b: int = 999, seed: int = 0) -> TestResult:
    """Permutation test of independence based on the factorization distance.

    The marginals, and hence the quantile grid, are invariant under
    permuting the second coordinate, so the statistic depends only on the
    table of counts in the grid's cells.  Permuting w2 against a fixed w1
    draws that table from its exact null law, the Fisher-Freeman-Halton
    (multivariate hypergeometric) law given both margins.  The b replicate
    tables are drawn from that law directly by Patefield's algorithm
    (AS 159, ``scipy.stats.random_table``), at a cost per replicate set by
    the number of cells rather than by n.

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
    w1, w2 = _pairs(pairs)
    n = w1.size
    lv = np.asarray(levels, dtype=float)
    m = lv.size + 1
    d1 = _cell_indices(w1, np.quantile(w1, lv))
    d2 = _cell_indices(w2, np.quantile(w2, lv))
    observed = _table_stats(_cell_table(d1, d2, lv.size), n)

    null = random_table(np.bincount(d1, minlength=m), np.bincount(d2, minlength=m))
    rng = np.random.Generator(np.random.Philox(seed & (2**64 - 1)))
    n_ge = 0
    for lo in range(0, b, PERM_BLOCK):
        tables = null.rvs(size=min(PERM_BLOCK, b - lo), method="patefield",
                          random_state=rng)
        n_ge += int(np.count_nonzero(_table_stats(tables, n) >= observed))
    p = (1 + n_ge) / (b + 1)
    return TestResult(statistic=float(observed), p_value=p, n=n, b=b, seed=seed)


def pseudo_uniforms(values) -> np.ndarray:
    """Rank-based margin transform rank/(n+1), average ranks on ties."""
    arr = np.asarray(values, dtype=float)
    return rankdata(arr, method="average") / (arr.size + 1)


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
