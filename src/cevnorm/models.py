"""Conditionally independent generative models.

The conditioning variable X0 is unit Pareto (P(X0 < x) = 1 - 1/x for
x > 1).  Given X0 = x the conditioned coordinates are

    X_i = beta_i(x) + alpha_i(x) * Z_i,        i = 1, 2,

with Z1, Z2 independent draws from two analytic noise laws, so the
conditional joint law factorises by construction.  An optional
perturbation shifts the conditional location of Z_i by eps/x, which
vanishes as x grows and so leaves the limiting kernels unchanged while
breaking finite-level exactness.  A negative-control switch replaces Z2
by Z1 to produce conditionally comonotone (dependent) coordinates.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit, logit, ndtr, ndtri

from .norming import ErvParams, alpha, beta


class NoiseFamily(NamedTuple):
    """One standardised noise family, the only home of its formulas.

    score, where given, returns the first two derivatives of log_pdf;
    the Newton norming fit needs it.  support is the closed interval
    outside which cdf is 0 or 1.
    """

    cdf: Callable
    quantile: Callable
    log_pdf: Callable
    support: tuple = (-math.inf, math.inf)
    score: Callable | None = None


def _gumbel_cdf(s):
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-s))


def _gumbel_score(s):
    e = np.exp(-s)
    return e - 1.0, -e


def _logistic_log_pdf(s):
    t = np.abs(s)
    return -t - 2.0 * np.log1p(np.exp(-t))


def _logistic_score(s):
    h = np.tanh(0.5 * s)
    return -h, 0.5 * (h * h - 1.0)


NOISE_FAMILIES = {
    "gaussian": NoiseFamily(
        cdf=ndtr, quantile=ndtri,
        log_pdf=lambda s: -0.5 * s * s - 0.9189385332046727),
    "gumbel": NoiseFamily(
        cdf=_gumbel_cdf, quantile=lambda p: -np.log(-np.log(p)),
        log_pdf=lambda s: -s - np.exp(-s), score=_gumbel_score),
    "logistic": NoiseFamily(
        cdf=expit, quantile=logit, log_pdf=_logistic_log_pdf, score=_logistic_score),
    "uniform": NoiseFamily(
        cdf=lambda s: np.clip(s, 0.0, 1.0), quantile=lambda p: p,
        log_pdf=lambda s: np.where((s >= 0.0) & (s <= 1.0), 0.0, -np.inf),
        support=(0.0, 1.0)),
}
FAMILIES = tuple(NOISE_FAMILIES)


@dataclass(frozen=True)
class NoiseLaw:
    """Location-scale noise law with closed-form CDF and quantile."""

    family: str
    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown noise family {self.family!r}; expected one of {FAMILIES}"
            )
        if not (math.isfinite(self.location) and math.isfinite(self.scale)):
            raise ValueError("location and scale must be finite")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def noise_cdf(law: NoiseLaw, x):
    """CDF of the noise law, vectorised; handles +-inf arguments."""
    s = (np.asarray(x, dtype=float) - law.location) / law.scale
    return NOISE_FAMILIES[law.family].cdf(s)


def noise_quantile(law: NoiseLaw, p):
    """Inverse of noise_cdf on (0, 1)."""
    parr = np.asarray(p, dtype=float)
    if np.any(parr <= 0.0) or np.any(parr >= 1.0):
        raise ValueError("p must lie strictly inside (0, 1)")
    return law.location + law.scale * NOISE_FAMILIES[law.family].quantile(parr)


@dataclass(frozen=True)
class CiModel:
    """Generative model with conditional independence built in."""

    erv1: ErvParams
    erv2: ErvParams
    noise1: NoiseLaw
    noise2: NoiseLaw
    perturbation: float = 0.0
    negative_control: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.perturbation) and self.perturbation >= 0):
            raise ValueError("perturbation must be finite and non-negative")

    def erv(self, i: int) -> ErvParams:
        return {1: self.erv1, 2: self.erv2}[i]

    def noise(self, i: int) -> NoiseLaw:
        return {1: self.noise1, 2: self.noise2}[i]

    def to_dict(self) -> dict:
        return asdict(self)

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def pareto_exceedance_from_uniform(t, u):
    """Map sub-uniform u to a unit-Pareto draw conditioned on exceeding t.

    x0 = t/u, so x0/t has survival function 1/v on (1, inf).  u == 0 is
    nudged to the smallest representable positive sub-uniform.
    """
    tarr = np.asarray(t, dtype=float)
    if np.any(tarr < 1.0):
        raise ValueError("threshold t must be >= 1 (unit Pareto support)")
    uarr = np.maximum(np.asarray(u, dtype=float), 2.0**-53)
    return tarr / uarr


def conditional_from_uniforms(model: CiModel, x0, u1, u2):
    """Map sub-uniforms to conditioned coordinates given X0 = x0."""
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 <= 0):
        raise ValueError("x0 must be positive")
    shift = model.perturbation / x0
    z1 = noise_quantile(model.noise1, u1) + shift
    if model.negative_control:
        z2 = noise_quantile(model.noise2, u1) + shift
    else:
        z2 = noise_quantile(model.noise2, u2) + shift
    x1 = beta(model.erv1, x0) + alpha(model.erv1, x0) * z1
    x2 = beta(model.erv2, x0) + alpha(model.erv2, x0) * z2
    return x1, x2
