"""Theoretical limit laws for the two norming schemes.

Under random norming the limit is the product law G(x1, x2) =
G1(x1)*G2(x2).  Under deterministic norming it is the mixture law

    H(x1, x2) = int_1^inf G1((x1 - psi1(v))/v**rho1)
                          G2((x2 - psi2(v))/v**rho2) v**-2 dv,

evaluated here after the substitution u = 1/v, which absorbs the v**-2
weight exactly and leaves a bounded integrand on (0, 1].  The integral is
split at the kinks of the integrand, and the pieces of whole arrays of
(x1, x2) are taken by _tanh_sinh, a vectorised tanh-sinh
(double-exponential) rule with a level-to-level error estimate, in blocks
of at most QUAD_BLOCK (point x piece) elements per call.  H factorises
into its marginals iff one coordinate has (kappa, rho) = (0, 0).  The
marginals H_i are H with the other argument at +inf, and their quantiles
are found by safeguarded secant steps on H_i alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
# secant steps per quantile; pure bisection from the widest node pair
# reaches the step tolerance in 50
_SECANT_STEPS = 100
# a quantile is final once its secant step, or its bracket, is at most
# this plus 4 ulps of the iterate
_XATOL = 1e-8
# (point x piece) elements per _tanh_sinh call.  At level 2, where most
# elements stop, a call's working arrays take about 4.5 KB per element.
# Over the limit-law benchmark's three commands (2 cores), peak RSS is 2 MB
# above the imports' at 512, 4 MB at 1024 and 7.5 MB at 2048, for no
# further speed; 256 is 5% slower and 128 16%
QUAD_BLOCK = 512
# the tanh-sinh rule (Takahasi & Mori 1974, Publ. RIMS 9, 721-741) with the
# error estimate of Bailey, Jeyabalan & Li (2005, Exp. Math. 14, 317-329):
# _tanh_sinh jump-starts at level _MINLEVEL (levels 0.._MINLEVEL in one
# integrand call) and stops at _MAXLEVEL.  Level k has 8 * 2**k steps of
# _H0 / 2**k, and _H0 puts the outermost node 4 * tiny from an end of [-1, 1]
_MINLEVEL, _MAXLEVEL = 2, 10
_H0 = math.asinh(math.log(2 / (4 * _U_MIN) - 1) / math.pi) / 8


def _rule(levels: int):
    """Distances to the ends of [-1, 1] and weights of the nodes of levels
    0..levels on one side, concatenated by level, and where each level starts.

    After level 0 only the odd nodes are new.  The centre node lies on
    both sides, so each side gives it half weight.
    """
    xc, w, start = [], [], [0]
    for k in range(levels + 1):
        j = np.arange(8 * 2**k + 1) if k == 0 else np.arange(1, 8 * 2**k + 1, 2)
        u = math.pi / 2 * np.sinh(j * (_H0 / 2**k))
        w.append(math.pi / 2 * np.cosh(j * (_H0 / 2**k)) / np.cosh(u) ** 2)
        xc.append(1 / (np.exp(u) * np.cosh(u)))
        start.append(start[-1] + j.size)
    w[0][0] /= 2
    return np.concatenate(xc), np.concatenate(w), start


_XC, _W, _START = _rule(_MAXLEVEL)


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


def _row_sums(a):
    """Sum of each row of a over its trailing axes, each row contiguous, so
    a row's sum does not depend on the other rows."""
    return a.reshape(a.shape[0], -1).sum(axis=1)


def _tanh_sinh(f, lo, hi, args, atol: float):
    """int_lo^hi f(u, *args) du for every element of the equal-shape arrays
    lo <= hi, by tanh-sinh quadrature; args broadcast against lo.

    A zero-length element is 0 without evaluation.  The others start at
    level _MINLEVEL and stop at the first level whose error estimate is
    below atol, or after _MAXLEVEL.  f sees only the elements still
    running, so an element's result does not depend on the others.  Nodes
    that round onto an end of their piece get weight 0.  A non-finite
    weighted value of f fails its element: its integral leaves such nodes
    out and its error is inf.  Returns integral, error, success and the
    number of evaluations of f, each of lo's shape.
    """
    shape, (lo, hi) = lo.shape, (lo.ravel(), hi.ravel())
    args = [np.broadcast_to(a, shape).ravel() for a in args]
    total, error, s1, s2 = np.zeros((4, lo.size))
    # per side (right, left): the outermost weighted node yet, as its
    # abscissa times 1 or -1, and its |f w|
    edge, outer = np.full((2, lo.size), -np.inf), np.zeros((2, lo.size))
    success, nfev = hi == lo, np.zeros(lo.size, dtype=int)
    active = np.flatnonzero(~success)
    eps = np.finfo(float).eps
    # as in scipy's tanh-sinh routine, the integrand and the estimate run
    # with overflow, invalid and divide warnings off
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for level in range(_MINLEVEL, _MAXLEVEL + 1):
            if not active.size:
                break
            nodes = slice(0 if level == _MINLEVEL else _START[level], _START[level + 1])
            a, b = lo[active, None, None], hi[active, None, None]
            half = (b - a) / 2
            # (element, side, node): side 0 holds the nodes near hi, side 1
            # those near lo
            x = np.concatenate([b - half * _XC[nodes], a + half * _XC[nodes]], axis=1)
            w = half * _W[nodes]
            valid = (x > a) & (x < b) & (w != 0.0)
            fw = np.where(valid, f(x, *(arg[active, None, None] for arg in args)) * w, 0.0)
            nfev[active] += x.shape[1] * x.shape[2]
            finite = np.isfinite(fw)
            fw[~finite] = 0.0
            failed = ~finite.all(axis=(1, 2))
            h, rows = _H0 / 2**level, np.arange(active.size)
            if level == _MINLEVEL:
                # the jump start also gives the sums of the two levels
                # below, on steps 4h and 2h
                s2[active] = _row_sums(fw[:, :, :_START[level - 1]]) * (4 * h)
                s1[active] = _row_sums(fw[:, :, :_START[level]]) * (2 * h)
                s = _row_sums(fw) * h
            else:
                s = s1[active] / 2 + _row_sums(fw) * h
            for side, sign in enumerate((1.0, -1.0)):
                xs = np.where(valid[:, side], sign * x[:, side], -np.inf)
                k = np.argmax(xs, axis=1)
                new = xs[rows, k] > edge[side, active]
                edge[side, active[new]] = xs[rows, k][new]
                outer[side, active[new]] = np.abs(fw[rows, side, k])[new]
            # Bailey's estimate, in the form scipy's tanh-sinh routine uses:
            # from the last two changes d1, d2 of the sum, the largest term
            # and the term of the outermost node on either side
            d1, d2 = np.abs(s - s1[active]), np.abs(s - s2[active])
            d0 = np.where(d1 > 0.0, d1 ** (np.log(d1) / np.log(d2)), 0.0)
            err = np.clip(np.maximum.reduce([d0, d1 * d1, eps * np.abs(fw).max(axis=(1, 2)),
                                             outer[:, active].max(axis=0)]), eps * np.abs(s), d1)
            failed |= ~np.isfinite(s)
            err[failed] = np.inf
            total[active], error[active] = s, err
            success[active] = err < atol
            s2[active], s1[active] = s1[active], s
            active = active[~(success[active] | failed)]
    return (total.reshape(shape), error.reshape(shape), success.reshape(shape),
            nfev.reshape(shape))


def _integrate(model: CiModel, x1, x2, abs_tol: float):
    """int_0^1 G1 G2 du at every point of the broadcast (x1, x2)."""
    if not abs_tol > 0:
        raise ValueError("abs_tol must be positive")
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    shape, x1, x2 = x1.shape, x1.ravel(), x2.ravel()
    zero = np.zeros(x1.shape)
    # split (0, 1) at the kinks; the pieces lie along a trailing axis, and
    # padding pieces have zero length
    edges = np.sort(np.stack([zero, *_kinks(model, 1, x1), *_kinks(model, 2, x2),
                              zero + 1.0], axis=-1), axis=-1)
    lo, hi = edges[:, :-1], edges[:, 1:]

    def f(u, a, b):
        v = 1.0 / np.maximum(u, _U_MIN)
        return (noise_cdf(model.noise1, limit_shift(a, v, model.erv1))
                * noise_cdf(model.noise2, limit_shift(b, v, model.erv2)))

    total, error = np.empty(x1.size), np.empty(x1.size)
    ok = np.empty(x1.size, dtype=bool)
    step = max(1, QUAD_BLOCK // lo.shape[-1])
    for start in range(0, x1.size, step):
        block = slice(start, start + step)
        integral, err, success, _ = _tanh_sinh(
            f, lo[block], hi[block], (x1[block, None], x2[block, None]), abs_tol / lo.shape[-1])
        total[block] = integral.sum(axis=-1)
        error[block] = err.sum(axis=-1)
        ok[block] = success.all(axis=-1)
    if not ok.all():
        # a non-finite integrand value makes its element's error inf, so
        # such an element is the one reported
        worst = np.argmax(np.where(ok, -np.inf, error))
        best, gap = float(total[worst]), float(error[worst])
        point = f"(x1, x2) = ({float(x1[worst])!r}, {float(x2[worst])!r})"
        raise QuadConvergenceError(
            f"quadrature failed: non-finite integrand value at {point}" if math.isinf(gap)
            else f"quadrature failed to converge at {point} by level {_MAXLEVEL}: "
                 f"best estimate {best}, gap {gap}", best, gap)
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
    """Marginal H_i(x): H with the other argument at +inf.

    Broadcasts over the coordinate index i and x, so both margins take
    one quadrature call; a float for scalar input.
    """
    i, x = _coordinates(i), np.asarray(x, dtype=float)
    val = np.clip(_integrate(model, np.where(i == 1, x, math.inf),
                             np.where(i == 2, x, math.inf), abs_tol), 0.0, 1.0)
    return float(val) if val.ndim == 0 else val


def marginal_H_quantile(model: CiModel, i, p, abs_tol: float = 1e-9):
    """Solve marginal_H(i, x) = p for every (i, p) of the broadcast at once.

    One marginal_H call tabulates H_i at _NODES for each coordinate in i.
    The root lies between the first node where H_i reaches p and the node
    before it, so it may not pass +-1e12.  From that bracket's ends, each
    step is the secant through the last two iterates, or bisection where
    the secant leaves the closed bracket, with one marginal_H call for all
    (i, p) still running.  An (i, p) is final at a zero residual, at a
    secant step of at most _XATOL, or at a bracket that narrow, which gives
    the root of its chord; so its result does not depend on the others.
    With i = [[1], [2]] both margins' quantiles come from the same calls.
    A float for scalar i and p.
    """
    i, parr = np.broadcast_arrays(_coordinates(i), np.asarray(p, dtype=float))
    if not np.all((parr > 0.0) & (parr < 1.0)):
        raise ValueError("p must lie strictly inside (0, 1)")
    shape, i, parr = parr.shape, i.ravel(), parr.ravel()
    coords = np.unique(i)
    H = marginal_H(model, coords[:, None], _NODES, abs_tol)[np.searchsorted(coords, i)]
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
    # (x0, f0) and (x1, f1) are the last two iterates and their residuals,
    # and flo, fhi those of the bracket's ends; only fhi can be 0
    flo, fhi = H[rows, j - 1] - parr, H[rows, j] - parr
    x0, x1, f0, f1 = lo.copy(), hi.copy(), flo.copy(), fhi.copy()
    active = rows[f1 != 0.0]
    for _ in range(_SECANT_STEPS):
        xa, fa, a, b = x1[active], f1[active], lo[active], hi[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            new = xa - fa * (xa - x0[active]) / (fa - f0[active])
        secant = (new >= a) & (new <= b)
        new = np.where(secant, new, 0.5 * (a + b))
        tol = _XATOL + 4 * np.spacing(np.abs(xa))
        done = secant & (np.abs(new - xa) <= tol)
        x1[active[done]] = new[done]
        active, new, tol = active[~done], new[~done], tol[~done]
        if not active.size:
            break
        f = marginal_H(model, i[active], new, abs_tol) - parr[active]
        below = f < 0.0
        lo[active], flo[active] = np.where(below, new, lo[active]), np.where(below, f, flo[active])
        hi[active], fhi[active] = np.where(below, hi[active], new), np.where(below, fhi[active], f)
        x0[active], f0[active] = x1[active], f1[active]
        x1[active], f1[active] = new, f
        narrow = hi[active] - lo[active] <= tol
        k = active[narrow]
        x1[k] = lo[k] - flo[k] * (hi[k] - lo[k]) / (fhi[k] - flo[k])
        active = active[(f != 0.0) & ~narrow]
    if active.size:
        k = active[0]
        best, gap = float(x1[k]), float(hi[k] - lo[k])
        raise QuadConvergenceError(
            f"level {float(parr[k])!r} of marginal H{int(i[k])} did not converge in "
            f"{_SECANT_STEPS} secant steps (best iterate {best}, bracket width {gap})",
            best, gap)
    x1 = x1.reshape(shape)
    return float(x1) if x1.ndim == 0 else x1


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
    # one call on the grid with +inf appended to both axes: its last
    # column is H1, its last row H2
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
