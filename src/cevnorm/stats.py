"""Empirical machinery: ECDFs, sup-distances, factorization statistics,
permutation independence tests and the tail dependence coefficient."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.stats import rankdata

from .simulate import NormedSample

DEFAULT_LEVELS = tuple(round(0.05 * k, 2) for k in range(1, 20))
BRUTE_FORCE_MAX_N = 2000


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


def ecdf_eval(e: Ecdf, x):
    """(# values <= x) / n via binary search."""
    return np.searchsorted(e.sorted_values, x, side="right") / e.n


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


def _joint_cdf(d1: np.ndarray, d2: np.ndarray, n_levels: int) -> np.ndarray:
    """#(d1 <= k, d2 <= l) / n for k, l in 0..n_levels.

    Row and column n_levels hold the marginals, since no index exceeds it.
    """
    m = n_levels + 1
    cells = np.bincount(d1 * m + d2, minlength=m * m).reshape(m, m)
    return cells.cumsum(axis=0).cumsum(axis=1) / d1.size


def _grid_stat(d1: np.ndarray, d2: np.ndarray, n_levels: int) -> float:
    f = _joint_cdf(d1, d2, n_levels)
    joint, f1, f2 = f[:-1, :-1], f[:-1, -1], f[-1, :-1]
    return float(np.max(np.abs(joint - np.outer(f1, f2))))


def joint_ecdf(pairs, g1, g2) -> np.ndarray:
    """Joint ECDF at every point of the grid g1 x g2.

    g1 and g2 must be increasing and of equal length.
    """
    w1, w2 = _pairs(pairs)
    g1, g2 = np.asarray(g1, dtype=float), np.asarray(g2, dtype=float)
    return _joint_cdf(_cell_indices(w1, g1), _cell_indices(w2, g2), g1.size)[:-1, :-1]


def factorization_stat(pairs, levels: Sequence[float] = DEFAULT_LEVELS,
                       grid: str = "levels") -> float:
    """Empirical factorization distance max |F12 - F1*F2| over a grid.

    grid="levels" evaluates at the empirical marginal quantiles of the
    given levels; grid="full" sweeps all n^2 sample cells (n <= 2000),
    kept as a brute-force oracle.
    """
    w1, w2 = _pairs(pairs)
    n = w1.size
    if n < 10:
        raise ValueError("need at least 10 pairs")
    if np.all(w1 == w1[0]) or np.all(w2 == w2[0]):
        raise ValueError("degenerate sample: a coordinate is constant")
    if grid == "full":
        if n > BRUTE_FORCE_MAX_N:
            raise ValueError(f"brute-force grid limited to n <= {BRUTE_FORCE_MAX_N}")
        g1, g2 = np.sort(w1), np.sort(w2)
    elif grid == "levels":
        lv = np.asarray(levels, dtype=float)
        if lv.size == 0 or np.any(lv <= 0) or np.any(lv >= 1):
            raise ValueError("levels must be non-empty and inside (0, 1)")
        g1 = np.quantile(w1, lv)
        g2 = np.quantile(w2, lv)
    else:
        raise ValueError(f"unknown grid mode {grid!r}")
    return _grid_stat(_cell_indices(w1, g1), _cell_indices(w2, g2), g1.size)


def permutation_independence_test(pairs, levels: Sequence[float] = DEFAULT_LEVELS,
                                  b: int = 999, seed: int = 0) -> TestResult:
    """Permutation test of independence based on the factorization distance.

    The second coordinate is permuted b times; marginals (and hence the
    quantile grid) are permutation-invariant, so only the joint counts
    are recomputed per replicate.
    """
    if b < 99:
        raise ValueError("b must be >= 99")
    w1, w2 = _pairs(pairs)
    n = w1.size
    lv = np.asarray(levels, dtype=float)
    g1 = np.quantile(w1, lv)
    g2 = np.quantile(w2, lv)
    d1 = _cell_indices(w1, g1)
    d2 = _cell_indices(w2, g2)
    observed = _grid_stat(d1, d2, lv.size)

    n_ge = 0
    for r in range(b):
        bg = np.random.Philox(key=[seed & (2**64 - 1), (r + 1) & (2**64 - 1)])
        perm = np.random.Generator(bg).permutation(d2)
        if _grid_stat(d1, perm, lv.size) >= observed:
            n_ge += 1
    p = (1 + n_ge) / (b + 1)
    return TestResult(statistic=observed, p_value=p, n=n, b=b, seed=seed)


def pseudo_uniforms(values) -> np.ndarray:
    """Rank-based margin transform rank/(n+1), average ranks on ties."""
    arr = np.asarray(values, dtype=float)
    return rankdata(arr, method="average") / (arr.size + 1)


def chi_hat(u0, u1, u2, p: float, min_exceedances: int = 50) -> float:
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
    if n_cond < min_exceedances:
        raise ValueError(
            f"only {n_cond} conditioning exceedances above p={p}; "
            f"need at least {min_exceedances}"
        )
    both = np.count_nonzero(cond & (u1 > p) & (u2 > p))
    return both / n_cond
