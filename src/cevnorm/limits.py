"""Theoretical limit laws for the two norming schemes.

Under random norming the limit is the product law G(x1, x2) =
G1(x1)*G2(x2).  Under deterministic norming it is the mixture law

    H(x1, x2) = int_1^inf G1((x1 - psi1(v))/v**rho1)
                          G2((x2 - psi2(v))/v**rho2) v**-2 dv,

evaluated here after the substitution u = 1/v, which absorbs the v**-2
weight exactly and leaves a bounded integrand on (0, 1].  The integral is
taken by tanh-sinh (double-exponential) quadrature over whole arrays of
(x1, x2), in blocks of at most QUAD_BLOCK (point x piece) elements per
call.  H factorises into its marginals iff one coordinate has
(kappa, rho) = (0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import tanhsinh
from scipy.optimize.elementwise import bracket_root, find_root

from .models import NOISE_FAMILIES, CiModel, noise_cdf
from .norming import limit_shift, limit_shift_inverse
from .simulate import write_table
from .stats import DEFAULT_LEVELS

# tanh-sinh nodes near u = 0 can be subnormal, where 1/u overflows
_U_MIN = np.finfo(float).tiny
# bracket_root grows [-1, 1] to [-(2**(k+1) - 1), 2**(k+1) - 1] in k
# steps; 38 steps reach +-(2**39 - 1), the last bracket inside +-1e12
_BRACKET_STEPS = 38
# (point x piece) elements per tanhsinh call; a call's working arrays
# take about 5 KB per element.  On the limit-law benchmark's 20 x 20
# grids, peak RSS is 2 MB above 103 MB at 512 and 4 MB at 1024, for no
# further speed; 256 is 10% slower
QUAD_BLOCK = 512
# tanhsinh returns NaN on a piece one ulp wide; a piece this many ulps
# wide or less holds at most its width in mass and is given zero length
_SLIVER_ULPS = 4


class QuadConvergenceError(RuntimeError):
    """Quadrature or quantile search failed; carries the best estimate and gap."""

    def __init__(self, message: str, best: float, gap: float):
        super().__init__(message)
        self.best = best
        self.gap = gap


def _kinks(model: CiModel, i: int, x) -> list:
    """Points u in (0, 1) where factor i has a kink; 1.0 where it has none.

    A factor has a kink where the shifted argument crosses a finite end
    of its noise family's support.
    """
    noise = model.noise(i)
    out = []
    for end in NOISE_FAMILIES[noise.family].support:
        if math.isfinite(end):
            u = limit_shift_inverse(x, noise.location + noise.scale * end, model.erv(i))
            out.append(np.where((u > 0.0) & (u < 1.0), u, 1.0))
    return out


def _integrate(model: CiModel, x1, x2, abs_tol: float):
    """int_0^1 G1 G2 du at every point of the broadcast (x1, x2)."""
    if not abs_tol > 0:
        raise ValueError("abs_tol must be positive")
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float),
                                 np.asarray(x2, dtype=float))
    shape = x1.shape
    x1, x2 = x1.ravel(), x2.ravel()
    zero = np.zeros(x1.shape)
    # split (0, 1) at the kinks; the pieces lie along a trailing axis, and
    # padding pieces have zero length
    edges = np.sort(np.stack([zero, *_kinks(model, 1, x1), *_kinks(model, 2, x2),
                              zero + 1.0], axis=-1), axis=-1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    hi = np.where(hi - lo <= _SLIVER_ULPS * np.spacing(hi), lo, hi)

    def f(u, a, b):
        v = 1.0 / np.maximum(u, _U_MIN)
        return (noise_cdf(model.noise1, limit_shift(a, v, model.erv1))
                * noise_cdf(model.noise2, limit_shift(b, v, model.erv2)))

    total, error = np.empty(x1.size), np.empty(x1.size)
    ok = np.empty(x1.size, dtype=bool)
    step = max(1, QUAD_BLOCK // lo.shape[-1])
    for start in range(0, x1.size, step):
        block = slice(start, start + step)
        res = tanhsinh(f, lo[block], hi[block],
                       args=(x1[block, None], x2[block, None]),
                       atol=abs_tol / lo.shape[-1], rtol=0.0)
        total[block] = res.integral.sum(axis=-1)
        error[block] = res.error.sum(axis=-1)
        ok[block] = res.success.all(axis=-1)
    if not ok.all():
        worst = np.argmax(np.where(ok, -np.inf, error))
        best, gap = float(total[worst]), float(error[worst])
        raise QuadConvergenceError(
            f"quadrature failed to converge: best estimate {best}, gap {gap}", best, gap)
    return total.reshape(shape)


def limit_H(model: CiModel, x1, x2, abs_tol: float = 1e-9):
    """Deterministic-norming limit law H(x1, x2) by quadrature.

    Broadcasts over x1 and x2; a float for scalar input.
    """
    val = np.clip(_integrate(model, x1, x2, abs_tol), 0.0, 1.0)
    return float(val) if val.ndim == 0 else val


def _coordinates(i) -> np.ndarray:
    """The coordinate index i as an array, every entry 1 or 2."""
    i = np.asarray(i)
    if not np.all((i == 1) | (i == 2)):
        raise ValueError("coordinate index must be 1 or 2")
    return i


def marginal_H(model: CiModel, i, x, abs_tol: float = 1e-9):
    """Marginal H_i(x) (the other argument at +inf).

    Broadcasts over the coordinate index i and x, so both margins take one
    limit_H call; a float for scalar input.
    """
    i, x = _coordinates(i), np.asarray(x, dtype=float)
    return limit_H(model, np.where(i == 1, x, math.inf),
                   np.where(i == 2, x, math.inf), abs_tol)


def marginal_H_quantile(model: CiModel, i, p, abs_tol: float = 1e-9):
    """Solve marginal_H(i, x) = p for every (i, p) of the broadcast at once.

    With i = [[1], [2]] one root search gives both margins' quantiles.  The
    bracket grows from [-1, 1] and may not pass +-1e12.  A float for
    scalar i and p.
    """
    i, parr = np.broadcast_arrays(_coordinates(i), np.asarray(p, dtype=float))
    if not np.all((parr > 0.0) & (parr < 1.0)):
        raise ValueError("p must lie strictly inside (0, 1)")

    def g(x, level, coord):
        return marginal_H(model, coord, x, abs_tol) - level

    br = bracket_root(g, -1.0, 1.0, args=(parr, i), maxiter=_BRACKET_STEPS)
    if not np.all(br.success):
        # report the last end tried on the side that found no sign change
        end = np.where(br.f_bracket[0] > 0, br.bracket[0], br.bracket[1])
        k = np.argmax(~br.success)
        best = float(end.flat[k])
        raise QuadConvergenceError(
            f"level {float(parr.flat[k])!r} of marginal H{int(i.flat[k])} has no "
            f"root in the bracket [-1e12, 1e12] (last end tried {best})", best, math.inf)
    root = find_root(g, br.bracket, args=(parr, i), tolerances={"xatol": 1e-8})
    return float(root.x) if root.x.ndim == 0 else root.x


@dataclass(frozen=True)
class GapResult:
    """Factorization gap max |H - H1*H2| over a grid."""

    gap: float
    argmax: tuple
    table: np.ndarray = field(repr=False, compare=False)  # (k, 5): x1, x2, H, H1H2, diff


def gap_on_grid(model: CiModel, x1s, x2s, abs_tol: float = 1e-9) -> GapResult:
    """H, H1*H2 and their difference at every point of the grid x1s x x2s."""
    x1s = np.asarray(x1s, dtype=float)
    x2s = np.asarray(x2s, dtype=float)
    # one call on the grid bordered by +inf: its last column is H1, its
    # last row H2
    full = limit_H(model, np.append(x1s, math.inf)[:, None],
                   np.append(x2s, math.inf)[None, :], abs_tol)
    h = full[:-1, :-1]
    prod = np.outer(full[:-1, -1], full[-1, :-1])
    diff = h - prod
    k1, k2 = np.unravel_index(np.argmax(np.abs(diff)), diff.shape)
    a, b = np.meshgrid(x1s, x2s, indexing="ij")
    table = np.stack([a, b, h, prod, diff], axis=-1).reshape(-1, 5)
    return GapResult(gap=float(abs(diff[k1, k2])),
                     argmax=(float(x1s[k1]), float(x2s[k2])),
                     table=table)


def factorization_gap(model: CiModel, levels=DEFAULT_LEVELS,
                      abs_tol: float = 1e-9) -> GapResult:
    """Evaluate H and H1*H2 on the grid of marginal-H quantiles of levels."""
    if not len(levels):
        raise ValueError("levels must be non-empty")
    q1, q2 = marginal_H_quantile(model, [[1], [2]], levels, abs_tol)
    return gap_on_grid(model, q1, q2, abs_tol)


def write_gap_csv(result: GapResult, path) -> None:
    write_table(path, ("x1", "x2", "H", "H1H2", "diff"), result.table.T)
