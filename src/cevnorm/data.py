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
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .models import FAMILIES, NoiseLaw
from .norming import ErvParams, normed, normed_log, normed_terms
from .stats import TestResult, permutation_independence_test, pseudo_uniforms

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


class DataError(ValueError):
    """The input file lacks a requested column or any clean numeric row."""


class FitConvergenceError(RuntimeError):
    """No fit could be completed; carries per-grid-point diagnostics."""

    def __init__(self, message: str, diagnostics: list):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class Dataset:
    columns: tuple
    x0: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    source: str
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

    def to_dict(self) -> dict:
        return {
            "erv": vars(self.erv),
            "noise": vars(self.noise),
            "iterations": self.iterations,
            "converged": self.converged,
            "objective": self.objective,
            "n_starts": self.n_starts,
        }


@dataclass(frozen=True)
class FittedNorming:
    """Per-coordinate fits plus the thresholding used to obtain them."""

    fit1: NormingFit
    fit2: NormingFit
    p_t: float
    n_exceedances: int

    def to_dict(self) -> dict:
        return {
            "fit1": self.fit1.to_dict(),
            "fit2": self.fit2.to_dict(),
            "p_t": self.p_t,
            "n_exceedances": self.n_exceedances,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


def load_csv(path, conditioning_column: str, value_columns: Sequence[str],
             delimiter: str = ",") -> Dataset:
    """Load and clean a trivariate CSV.

    Blank lines are skipped.  A row that is too short, holds a cell float()
    rejects or holds a non-finite value is dropped and counted.  A repeated
    header name resolves to its last column, as in csv.DictReader.
    """
    if len(value_columns) != 2:
        raise ValueError("exactly two value columns are required")
    wanted = [conditioning_column, *value_columns]
    rows, dropped = [], 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        index = {name: i for i, name in enumerate(next(reader, []))}
        for col in wanted:
            if col not in index:
                raise DataError(f"column {col!r} not found in {path}")
        i0, i1, i2 = (index[col] for col in wanted)
        width = max(i0, i1, i2) + 1
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                dropped += 1
                continue
            try:
                rows.append((float(row[i0]), float(row[i1]), float(row[i2])))
            except ValueError:
                dropped += 1
    arr = np.array(rows, dtype=float).reshape(-1, 3)
    finite = np.all(np.isfinite(arr), axis=1)
    if not finite.all():
        dropped += int(np.count_nonzero(~finite))
        arr = arr[finite]
    if not arr.shape[0]:
        raise DataError(f"{path}: no clean numeric rows")
    return Dataset(columns=tuple(wanted), x0=arr[:, 0], y1=arr[:, 1],
                   y2=arr[:, 2], source=str(path), n=arr.shape[0],
                   n_dropped=dropped)


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


def _log_density(s, family):
    """Log-density of the standardised noise family at s."""
    if family == "gaussian":
        return -0.5 * s * s - 0.9189385332046727
    if family == "gumbel":
        return -s - np.exp(-s)
    if family == "logistic":
        t = np.abs(s)
        return -t - 2.0 * np.log1p(np.exp(-t))
    # uniform on [0, 1] in standardised units
    return np.where((s >= 0.0) & (s <= 1.0), 0.0, -np.inf)


def _neg_log_likelihood(theta, y, logx0, logalpha_base, family):
    rho, kappa, loc, scale = theta
    if scale <= 0:
        return 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        # the uniform inner fit takes its support from this same map, so
        # that support holds bit for bit here
        s = (normed_log(y, logx0, rho, kappa) - loc) / scale
        # Jacobian of y -> s: x0**-rho/scale, whose log sums to
        # -rho*sum log x0 - n*log scale
        nll = (-np.sum(_log_density(s, family)) + y.size * math.log(scale)
               + rho * logalpha_base)
    if not np.isfinite(nll):
        return 1e300
    return float(nll)


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


def _score(s, family):
    """First and second derivatives in s of the gumbel or logistic log-density."""
    if family == "gumbel":
        e = np.exp(-s)
        return e - 1.0, -e
    h = np.tanh(0.5 * s)
    return -h, 0.5 * (h * h - 1.0)


def _log_concave_fit(u, c, start, family):
    """(kappa, loc, scale) maximising the gumbel or logistic likelihood of
    u = loc + kappa*c + scale*Z, or None.

    On the standardised columns M = (u', c', 1), s = theta @ M with
    theta[0] = sd(u)/scale > 0.  The negative log-likelihood is convex in
    theta, because both log-densities are concave: damped Newton from start.
    """
    n = u.size
    um, cm, su, sc = u.mean(), c.mean(), u.std(), c.std()
    M = np.stack([(u - um) / su, (c - cm) / sc, np.ones(n)])
    kappa, loc, scale = start
    theta = np.array([su, -kappa * sc, um - kappa * cm - loc]) / scale

    def objective(th):
        if not th[0] > 0:
            return math.inf
        val = -np.sum(_log_density(np.einsum("i,in->n", th, M), family)) - n * math.log(th[0])
        return val if np.isfinite(val) else math.inf

    f = objective(theta)
    for _ in range(NEWTON_MAXITER):
        d1, d2 = _score(np.einsum("i,in->n", theta, M), family)
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
            if nll >= 1e300:
                nll = math.inf
            evaluated.append((nll, rho, *inner))
        return nll

    grid = [profile(float(rho)) for rho in RHO_GRID]
    i = int(np.argmin(grid))
    if not math.isfinite(grid[i]):
        raise FitConvergenceError(
            f"{family} profile likelihood is not finite at any of the "
            f"{RHO_GRID.size} grid points in rho",
            [{"rho": float(rho), "objective": None} for rho in RHO_GRID],
        )
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


def residual_diagnostic(dataset: Dataset, fits: FittedNorming,
                        b: int = 999, seed: int = 0) -> TestResult:
    """Permutation independence test on the fitted-norming residuals.

    A small p-value is evidence against conditional independence in the
    tail of the data.
    """
    if not (fits.fit1.converged and fits.fit2.converged):
        raise FitConvergenceError("fits did not converge", [])
    z1, z2 = residuals(dataset, fits)
    return permutation_independence_test((z1, z2), b=b, seed=seed)


def write_residuals_csv(z1, z2, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("z1,z2\n")
        for a, b in zip(z1, z2):
            fh.write(f"{float(a)!r},{float(b)!r}\n")
