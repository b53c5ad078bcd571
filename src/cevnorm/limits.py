"""Theoretical limit laws for the two norming schemes.

Under random norming the limit is the product law G(x1, x2) =
G1(x1)*G2(x2).  Under deterministic norming it is the mixture law

    H(x1, x2) = int_1^inf G1((x1 - psi1(v))/v**rho1)
                          G2((x2 - psi2(v))/v**rho2) v**-2 dv,

evaluated here after the substitution u = 1/v, which absorbs the v**-2
weight exactly and leaves a bounded integrand on (0, 1].  The integral is
taken by tanh-sinh (double-exponential) quadrature over whole arrays of
(x1, x2).  H factorises into its marginals iff one coordinate has
(kappa, rho) = (0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import tanhsinh
from scipy.optimize.elementwise import bracket_root, find_root

from .models import CiModel, noise_cdf
from .norming import RHO_BRANCH_CUTOFF, limit_shift
from .stats import DEFAULT_LEVELS

# tanh-sinh nodes near u = 0 can be subnormal, where 1/u overflows
_U_MIN = np.finfo(float).tiny
# bracket_root grows [-1, 1] to [-(2**(k+1) - 1), 2**(k+1) - 1] in k
# steps; 38 steps reach +-(2**39 - 1), the last bracket inside +-1e12
_BRACKET_STEPS = 38


class QuadConvergenceError(RuntimeError):
    """Quadrature or quantile search failed; carries the best estimate and gap."""

    def __init__(self, message: str, best: float, gap: float):
        super().__init__(message)
        self.best = best
        self.gap = gap


@dataclass(frozen=True)
class QuadOptions:
    abs_tol: float = 1e-9

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")


@dataclass(frozen=True)
class GridSpec:
    levels: tuple = DEFAULT_LEVELS

    def __post_init__(self):
        lv = tuple(float(p) for p in self.levels)
        if not lv:
            raise ValueError("levels must be non-empty")
        if any(not 0.0 < p < 1.0 for p in lv):
            raise ValueError("levels must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(lv, lv[1:])):
            raise ValueError("levels must be strictly increasing")
        object.__setattr__(self, "levels", lv)


def _kinks(model: CiModel, i: int, x) -> list:
    """Points u in (0, 1) where factor i has a kink; 1.0 where it has none.

    Only uniform noise has kinks: where the shifted argument crosses
    either end c of the support.  With w = u**rho the argument is
    w*(x + k/rho) - k/rho, or x + k*log(u) at rho = 0.
    """
    noise, erv = model.noise(i), model.erv(i)
    if noise.family != "uniform":
        return []
    rho, k = erv.rho, erv.kappa_eff
    out = []
    for c in (noise.location, noise.location + noise.scale):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if abs(rho) >= RHO_BRANCH_CUTOFF:
                u = ((c + k / rho) / (x + k / rho)) ** (1.0 / rho)
            else:
                u = np.exp((c - x) / k)
        out.append(np.where((u > 0.0) & (u < 1.0), u, 1.0))
    return out


def _integrate(model: CiModel, x1, x2, opts: QuadOptions):
    """int_0^1 G1 G2 du at every point of the broadcast (x1, x2)."""
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float),
                                 np.asarray(x2, dtype=float))
    zero = np.zeros(x1.shape)
    # split (0, 1) at the kinks; every piece goes into one tanhsinh call
    # along a trailing axis, and padding pieces have zero length
    edges = np.sort(np.stack([zero, *_kinks(model, 1, x1), *_kinks(model, 2, x2),
                              zero + 1.0], axis=-1), axis=-1)

    def f(u, a, b):
        v = 1.0 / np.maximum(u, _U_MIN)
        return (noise_cdf(model.noise1, limit_shift(a, v, model.erv1))
                * noise_cdf(model.noise2, limit_shift(b, v, model.erv2)))

    res = tanhsinh(f, edges[..., :-1], edges[..., 1:],
                   args=(x1[..., None], x2[..., None]),
                   atol=opts.abs_tol / (edges.shape[-1] - 1), rtol=0.0)
    total, error = res.integral.sum(axis=-1), res.error.sum(axis=-1)
    if not np.all(res.success):
        worst = np.argmax(np.where(res.success.all(axis=-1), -np.inf, error))
        best, gap = float(total.flat[worst]), float(error.flat[worst])
        raise QuadConvergenceError(
            f"quadrature failed to converge: best estimate {best}, gap {gap}", best, gap)
    return total


def limit_H(model: CiModel, x1, x2, opts: QuadOptions = QuadOptions()):
    """Deterministic-norming limit law H(x1, x2) by quadrature.

    Broadcasts over x1 and x2; a float for scalar input.
    """
    val = np.clip(_integrate(model, x1, x2, opts), 0.0, 1.0)
    return float(val) if val.ndim == 0 else val


def marginal_H(model: CiModel, i: int, x, opts: QuadOptions = QuadOptions()):
    """Marginal H_i(x) (the other argument at +inf)."""
    if i == 1:
        return limit_H(model, x, math.inf, opts)
    if i == 2:
        return limit_H(model, math.inf, x, opts)
    raise ValueError("coordinate index must be 1 or 2")


def marginal_H_quantile(model: CiModel, i: int, p,
                        opts: QuadOptions = QuadOptions()):
    """Solve marginal_H(i, x) = p for every level p at once.

    The bracket grows from [-1, 1] and may not pass +-1e12.  A float for
    scalar p.
    """
    parr = np.asarray(p, dtype=float)
    if not np.all((parr > 0.0) & (parr < 1.0)):
        raise ValueError("p must lie strictly inside (0, 1)")

    def g(x, level):
        return marginal_H(model, i, x, opts) - level

    br = bracket_root(g, -1.0, 1.0, args=(parr,), maxiter=_BRACKET_STEPS)
    if not np.all(br.success):
        # report the last end tried on the side that found no sign change
        end = np.where(br.f_bracket[0] > 0, br.bracket[0], br.bracket[1])
        k = np.argmax(~br.success)
        best = float(end.flat[k])
        raise QuadConvergenceError(
            f"level {float(parr.flat[k])!r} of marginal H{i} has no root in the "
            f"bracket [-1e12, 1e12] (last end tried {best})", best, math.inf)
    root = find_root(g, br.bracket, args=(parr,), tolerances={"xatol": 1e-8})
    return float(root.x) if root.x.ndim == 0 else root.x


@dataclass(frozen=True)
class GapResult:
    """Factorization gap max |H - H1*H2| over a grid."""

    gap: float
    argmax: tuple
    x1_grid: tuple
    x2_grid: tuple
    table: tuple = field(repr=False, default=())  # rows (x1, x2, H, H1H2, diff)


def gap_on_grid(model: CiModel, x1s, x2s,
                opts: QuadOptions = QuadOptions()) -> GapResult:
    """H, H1*H2 and their difference at every point of the grid x1s x x2s."""
    x1s = np.asarray(x1s, dtype=float)
    x2s = np.asarray(x2s, dtype=float)
    prod = np.outer(marginal_H(model, 1, x1s, opts), marginal_H(model, 2, x2s, opts))
    # one grid row per call keeps the quadrature's working arrays small
    h = np.array([limit_H(model, a, x2s, opts) for a in x1s])
    diff = h - prod
    k1, k2 = np.unravel_index(np.argmax(np.abs(diff)), diff.shape)
    a, b = np.meshgrid(x1s, x2s, indexing="ij")
    table = np.stack([a, b, h, prod, diff], axis=-1).reshape(-1, 5)
    return GapResult(gap=float(abs(diff[k1, k2])),
                     argmax=(float(x1s[k1]), float(x2s[k2])),
                     x1_grid=tuple(x1s.tolist()), x2_grid=tuple(x2s.tolist()),
                     table=tuple(map(tuple, table.tolist())))


def factorization_gap(model: CiModel, grid: GridSpec = GridSpec(),
                      opts: QuadOptions = QuadOptions()) -> GapResult:
    """Evaluate H and H1*H2 on the grid of marginal-H quantiles."""
    return gap_on_grid(model, marginal_H_quantile(model, 1, grid.levels, opts),
                       marginal_H_quantile(model, 2, grid.levels, opts), opts)


def write_gap_csv(result: GapResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("x1,x2,H,H1H2,diff\n")
        for row in result.table:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
