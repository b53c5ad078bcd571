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
(kappa, rho) = (0, 0).  The marginal densities h_i are the same integral
with factor i differentiated in x, and the marginal quantiles are found by
Newton steps on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import tanhsinh

from .models import NOISE_FAMILIES, CiModel, noise_cdf
from .norming import limit_shift, limit_shift_inverse
from .simulate import write_table
from .stats import DEFAULT_LEVELS

# tanh-sinh nodes near u = 0 can be subnormal, where 1/u overflows
_U_MIN = np.finfo(float).tiny
# the quantile search tabulates each marginal at 0 and +-(2**k - 1),
# k = 1..39: the ends a bracket grown by doubling from [-1, 1] reaches,
# the last inside +-1e12
_NODES = np.concatenate([-(2.0 ** np.arange(39, 0, -1) - 1), [0.0],
                         2.0 ** np.arange(1, 40) - 1])
# Newton steps per quantile; pure bisection from the widest node pair
# reaches the step tolerance in 50
_NEWTON_STEPS = 100
# a quantile is final once its Newton or bisection step is at most this
# plus 4 ulps of the iterate
_XATOL = 1e-8
# cells of the grid on which the cubic Hermite start is located
_HERMITE_CELLS = 64
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


def _factor(model: CiModel, i: int, x, v, density):
    """Factor i of the integrand at v: G_i of the shifted x, or, where
    density holds, its x-derivative g_i(shift) * v**-rho_i.

    d limit_shift/dx is v**-rho on both branches of the shift.
    """
    noise, erv = model.noise(i), model.erv(i)
    z = limit_shift(x, v, erv)
    out = noise_cdf(noise, z)
    if np.any(density):
        with np.errstate(over="ignore", invalid="ignore"):
            log_g = NOISE_FAMILIES[noise.family].log_pdf((z - noise.location) / noise.scale)
            g = np.exp(log_g - erv.rho * np.log(v)) / noise.scale
        # at z = -inf the Gumbel log-density is inf - inf
        out = np.where(density, np.where(np.isinf(z), 0.0, g), out)
    return out


def _integrate(model: CiModel, x1, x2, abs_tol: float, deriv=0):
    """int_0^1 G1 G2 du at every point of the broadcast (x1, x2, deriv).

    deriv names the coordinate whose factor is differentiated in x, 0 for
    none.  A noise density jumps only where its CDF has a kink, so the
    same split at the kinks serves both.
    """
    if not abs_tol > 0:
        raise ValueError("abs_tol must be positive")
    x1, x2, deriv = np.broadcast_arrays(np.asarray(x1, dtype=float),
                                        np.asarray(x2, dtype=float), np.asarray(deriv))
    shape = x1.shape
    x1, x2, deriv = x1.ravel(), x2.ravel(), deriv.ravel()
    zero = np.zeros(x1.shape)
    # split (0, 1) at the kinks; the pieces lie along a trailing axis, and
    # padding pieces have zero length
    edges = np.sort(np.stack([zero, *_kinks(model, 1, x1), *_kinks(model, 2, x2),
                              zero + 1.0], axis=-1), axis=-1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    hi = np.where(hi - lo <= _SLIVER_ULPS * np.spacing(hi), lo, hi)

    def f(u, a, b, d):
        v = 1.0 / np.maximum(u, _U_MIN)
        return _factor(model, 1, a, v, d == 1) * _factor(model, 2, b, v, d == 2)

    total, error = np.empty(x1.size), np.empty(x1.size)
    ok = np.empty(x1.size, dtype=bool)
    step = max(1, QUAD_BLOCK // lo.shape[-1])
    for start in range(0, x1.size, step):
        block = slice(start, start + step)
        res = tanhsinh(f, lo[block], hi[block],
                       args=(x1[block, None], x2[block, None], deriv[block, None]),
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


def marginal_H(model: CiModel, i, x, abs_tol: float = 1e-9, order=0):
    """Marginal H_i(x) (the other argument at +inf), or its density h_i(x)
    where order is 1.

    Broadcasts over the coordinate index i, x and order, so both margins,
    and H_i with h_i, take one quadrature call; a float for scalar input.
    """
    i, x, order = _coordinates(i), np.asarray(x, dtype=float), np.asarray(order)
    if not np.all((order == 0) | (order == 1)):
        raise ValueError("order must be 0 or 1")
    val = _integrate(model, np.where(i == 1, x, math.inf), np.where(i == 2, x, math.inf),
                     abs_tol, np.where(order == 1, i, 0))
    val = np.clip(val, 0.0, np.where(order == 0, 1.0, math.inf))
    return float(val) if val.ndim == 0 else val


def _hermite_root(lo, hi, f_lo, f_hi, d_lo, d_hi):
    """A root in [lo, hi] of the cubic Hermite interpolant of f, where
    f_lo < 0 <= f_hi and d_lo, d_hi are the slopes.

    The first sign change on a grid of _HERMITE_CELLS cells is refined
    linearly.
    """
    t = np.linspace(0.0, 1.0, _HERMITE_CELLS + 1)
    width = (hi - lo)[:, None]
    c = (f_lo[:, None] * (1 + 2 * t) * (1 - t) ** 2 + width * d_lo[:, None] * t * (1 - t) ** 2
         + f_hi[:, None] * t * t * (3 - 2 * t) + width * d_hi[:, None] * t * t * (t - 1))
    k = np.argmax(c >= 0.0, axis=1)
    rows = np.arange(k.size)
    c0, c1 = c[rows, k - 1], c[rows, k]
    return lo + (hi - lo) * (t[k - 1] + (t[1] - t[0]) * c0 / (c0 - c1))


def marginal_H_quantile(model: CiModel, i, p, abs_tol: float = 1e-9):
    """Solve marginal_H(i, x) = p for every (i, p) of the broadcast at once.

    One marginal_H call tabulates H_i and h_i at _NODES for each
    coordinate in i.  The root lies between the first node where H_i
    reaches p and the node before it, so it may not pass +-1e12.  From the
    root of the cubic Hermite interpolant on that pair, a Newton iteration
    on h_i takes H_i and h_i in one marginal_H call per step; a step that
    would leave the bracket bisects it instead.  Each (i, p) is dropped
    once its step is at most _XATOL, so its result does not depend on the
    others.  With i = [[1], [2]] both margins' quantiles come from the
    same calls.  A float for scalar i and p.
    """
    i, parr = np.broadcast_arrays(_coordinates(i), np.asarray(p, dtype=float))
    if not np.all((parr > 0.0) & (parr < 1.0)):
        raise ValueError("p must lie strictly inside (0, 1)")
    shape = parr.shape
    i, parr = i.ravel(), parr.ravel()
    coords = np.unique(i)
    table = marginal_H(model, coords[:, None, None], _NODES[:, None], abs_tol, order=[0, 1])
    H, h = np.moveaxis(table[np.searchsorted(coords, i)], -1, 0)
    reached = H >= parr[:, None]
    bad = reached[:, 0] | ~reached[:, -1]
    if bad.any():
        # report the node on the side that has no sign change
        k = np.argmax(bad)
        best = float(_NODES[0] if reached[k, 0] else _NODES[-1])
        raise QuadConvergenceError(
            f"level {float(parr[k])!r} of marginal H{int(i[k])} has no "
            f"root in the bracket [-1e12, 1e12] (last end tried {best})", best, math.inf)
    j = np.argmax(reached, axis=1)
    rows = np.arange(j.size)
    lo, hi = _NODES[j - 1], _NODES[j]
    x = _hermite_root(lo, hi, H[rows, j - 1] - parr, H[rows, j] - parr,
                      h[rows, j - 1], h[rows, j])

    active = rows
    for _ in range(_NEWTON_STEPS):
        xa = x[active]
        Hx, hx = marginal_H(model, i[active, None], xa[:, None], abs_tol, order=[0, 1]).T
        f = Hx - parr[active]
        lo[active] = np.where(f < 0.0, xa, lo[active])
        hi[active] = np.where(f < 0.0, hi[active], xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = xa - f / hx
        new = np.where((new >= lo[active]) & (new <= hi[active]), new,
                       0.5 * (lo[active] + hi[active]))
        new = np.where(f == 0.0, xa, new)
        x[active] = new
        active = active[np.abs(new - xa) > _XATOL + 4 * np.spacing(np.abs(xa))]
        if not active.size:
            break
    else:
        k = active[0]
        best, gap = float(x[k]), float(hi[k] - lo[k])
        raise QuadConvergenceError(
            f"level {float(parr[k])!r} of marginal H{int(i[k])} did not converge in "
            f"{_NEWTON_STEPS} Newton steps (best iterate {best}, bracket width {gap})",
            best, gap)
    x = x.reshape(shape)
    return float(x) if x.ndim == 0 else x


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
