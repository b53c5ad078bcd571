"""Real-data tail diagnostic pipeline.

Ingest a trivariate CSV, rank-transform the conditioning margin to the
unit-Pareto scale, fit a norming pair plus noise law per conditioned
coordinate above a threshold (pseudo-likelihood, Nelder-Mead with
multi-start), and test the random-norming residuals for independence.
Conditional independence in the tail should make the residuals pass;
fitting each coordinate separately is precisely the lower-dimensional
shortcut conditional independence buys.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .models import FAMILIES, NoiseLaw
from .norming import RHO_BRANCH_CUTOFF, ErvParams, alpha, beta
from .stats import TestResult, permutation_independence_test, pseudo_uniforms

MIN_FIT_ROWS = 100
MIN_EXCEEDANCES = 30

RHO_BOUNDS = (-5.0, 1.0)
KAPPA_BOUNDS = (-1e6, 1e6)
LOC_BOUNDS = (-1e8, 1e8)
SCALE_BOUNDS = (1e-8, 1e8)

# fixed Latin-square pairing of (rho, kappa) starting points
_RHO_STARTS = (-2.0, -1.0, -0.5, -0.1, 0.1, 0.3, 0.6, 0.9)
_KAPPA_STARTS = (0.5, -1.0, 2.0, 0.0, 1.0, -0.5, 3.0, -2.0)
N_STARTS = len(_RHO_STARTS)
POLISH_MAXITER = 2000

_EULER_GAMMA = 0.5772156649015329
_UNIT_MOMENTS = {
    # (mean, std) of the standardised family
    "gaussian": (0.0, 1.0),
    "gumbel": (_EULER_GAMMA, math.pi / math.sqrt(6.0)),
    "logistic": (0.0, math.pi / math.sqrt(3.0)),
    "uniform": (0.5, 1.0 / math.sqrt(12.0)),
}


class DataError(ValueError):
    """The input file lacks a requested column or any clean numeric row."""


class FitConvergenceError(RuntimeError):
    """No multi-start reached convergence; carries per-start diagnostics."""

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
    """Load and clean a trivariate CSV; rows with non-numeric cells drop."""
    if len(value_columns) != 2:
        raise ValueError("exactly two value columns are required")
    wanted = [conditioning_column, *value_columns]
    rows, dropped = [], 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        header = reader.fieldnames or []
        for col in wanted:
            if col not in header:
                raise DataError(f"column {col!r} not found in {path}")
        for rec in reader:
            try:
                vals = [float(rec[col]) for col in wanted]
            except (TypeError, ValueError):
                dropped += 1
                continue
            if not all(math.isfinite(v) for v in vals):
                dropped += 1
                continue
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no clean numeric rows")
    arr = np.asarray(rows, dtype=float)
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


def _neg_log_likelihood(theta, y, logx0, logalpha_base, family):
    rho, kappa, loc, scale = theta
    if scale <= 0:
        return 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        rl = rho * logx0
        inv_alpha = np.exp(-rl)
        if abs(rho) >= RHO_BRANCH_CUTOFF:
            bta = kappa * np.expm1(rl) / rho
        else:
            bta = kappa * logx0
        z = (y - bta) * inv_alpha
        s = (z - loc) / scale
        if family == "gaussian":
            lp = -0.5 * s * s - 0.9189385332046727
        elif family == "gumbel":
            lp = -s - np.exp(-s)
        elif family == "logistic":
            t = np.abs(s)
            lp = -t - 2.0 * np.log1p(np.exp(-t))
        else:  # uniform on [0, 1] in standardised units
            lp = np.where((s >= 0.0) & (s <= 1.0), 0.0, -np.inf)
        # Jacobian of y -> s: 1/(alpha(x0)*scale); sum log alpha = rho*sum log x0
        nll = -np.sum(lp) + y.size * math.log(scale) + rho * logalpha_base
    if not np.isfinite(nll):
        return 1e300
    return float(nll)


def _moment_start(y, x0, rho0, kappa0, family):
    erv = ErvParams(a=1.0, rho=rho0, kappa=kappa0)
    z = (y - beta(erv, x0)) / alpha(erv, x0)
    if family == "uniform":
        span = max(float(np.ptp(z)), 1e-6)
        return float(np.min(z)), span
    mu_u, sd_u = _UNIT_MOMENTS[family]
    sd = float(np.std(z))
    scale0 = max(sd / sd_u, 1e-6)
    loc0 = float(np.mean(z)) - mu_u * scale0
    return loc0, scale0


def fit_norming(y, x0, family: str = "gaussian") -> NormingFit:
    """Fit y = beta(x0) + alpha(x0)*(loc + scale*Z) by pseudo-likelihood.

    x0 must already be on the unit-Pareto exceedance scale.  Derivative-
    free simplex search from a fixed Latin-square of (rho, kappa) starts
    with moment-matched (loc, scale); the best converged optimum wins,
    ties broken by start index.

    The likelihood is exactly flat along a rescaling of (a, loc, scale),
    so a is pinned at 1 and scale carries the spread of alpha(x0)*Z.
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
    bounds = [RHO_BOUNDS, KAPPA_BOUNDS, LOC_BOUNDS, SCALE_BOUNDS]

    # stage 1: short simplex runs from every start; stage 2: polish the best,
    # ties broken by start index (minimize keeps the first strict improvement)
    coarse, diagnostics, total_nit = None, [], 0
    for idx, (rho0, kappa0) in enumerate(zip(_RHO_STARTS, _KAPPA_STARTS)):
        loc0, scale0 = _moment_start(y, x0, rho0, kappa0, family)
        loc0 = float(np.clip(loc0, *LOC_BOUNDS))
        scale0 = float(np.clip(scale0, *SCALE_BOUNDS))
        res = minimize(
            _neg_log_likelihood, np.array([rho0, kappa0, loc0, scale0]),
            args=(y, logx0, logalpha_base, family),
            method="Nelder-Mead", bounds=bounds,
            options={"maxiter": 150, "xatol": 1e-3, "fatol": 1e-4},
        )
        total_nit += int(res.nit)
        diagnostics.append({"start": idx, "fun": float(res.fun),
                            "nit": int(res.nit), "success": bool(res.success)})
        if coarse is None or res.fun < coarse.fun:
            coarse = res
    best = minimize(
        _neg_log_likelihood, coarse.x,
        args=(y, logx0, logalpha_base, family),
        method="Nelder-Mead", bounds=bounds,
        options={"maxiter": POLISH_MAXITER, "xatol": 1e-6, "fatol": 1e-8},
    )
    total_nit += int(best.nit)
    diagnostics.append({"start": "polish", "fun": float(best.fun),
                        "nit": int(best.nit), "success": bool(best.success)})
    if not (best.success and np.isfinite(best.fun) and best.fun < 1e299):
        raise FitConvergenceError(
            f"polish stage failed to converge after {N_STARTS} restarts",
            diagnostics,
        )
    rho, kappa, loc, scale = (float(v) for v in best.x)
    return NormingFit(
        erv=ErvParams(a=1.0, rho=rho, kappa=kappa),
        noise=NoiseLaw(family=family, location=loc, scale=scale),
        iterations=total_nit, converged=True,
        objective=float(best.fun), n_starts=N_STARTS,
    )


def tail_exceedances(dataset: Dataset, p_t: float):
    """Pareto-transform the conditioning margin and keep rows above p_t."""
    if not 0.0 < p_t < 1.0:
        raise ValueError("p_t must lie strictly inside (0, 1)")
    if dataset.n < MIN_FIT_ROWS:
        raise ValueError(
            f"need at least {MIN_FIT_ROWS} clean rows for fitting, got {dataset.n}"
        )
    x0p = to_pareto_margins(dataset.x0)
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
        z = (y - beta(fit.erv, x0p)) / alpha(fit.erv, x0p)
        out.append((z - fit.noise.location) / fit.noise.scale)
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
