"""Extended-regularly-varying norming pairs and the one norming map.

A norming pair (alpha, beta) is represented by the canonical family

    alpha(t) = a * t**rho
    beta(t)  = kappa * (t**rho - 1) / rho      (rho != 0)
             = kappa * log(t)                  (rho == 0)

which satisfies alpha(t*x)/alpha(t) = x**rho and
(beta(t*x) - beta(t))/alpha(t) = psi(x; rho, kappa/a) exactly at every
finite t, not just in the limit.  All evaluations go through
exp(rho*log(t)) so accuracy is uniform in rho.

This module is the only home of the norming map z = (x - beta(t))/alpha(t)
(normed, normed_log, normed_terms), of its limit form (x - psi(v))/v**rho
(limit_shift) and that form's inverse in v, and of the rho ~ 0 branch
(RHO_BRANCH_CUTOFF) they all share.  Other modules call these and never
write the map or the branch by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# below this the psi power branch degenerates to 0/0; switch to the log form
RHO_BRANCH_CUTOFF = 1e-10


@dataclass(frozen=True)
class ErvParams:
    """Parameters (a, rho, kappa) of one canonical norming pair."""

    a: float
    rho: float
    kappa: float

    def __post_init__(self):
        for name in ("a", "rho", "kappa"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float)) and math.isfinite(val)):
                raise ValueError(f"{name} must be a finite number, got {val!r}")
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")

    @property
    def kappa_eff(self) -> float:
        """Effective location coefficient kappa/a entering the limit shift."""
        return self.kappa / self.a


def _check_positive(t, name: str):
    arr = np.asarray(t, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise ValueError(f"{name} must be finite and positive")
    return arr


def power(t, rho: float):
    """t**rho via exp(rho*log t); t must be positive."""
    arr = _check_positive(t, "t")
    return np.exp(rho * np.log(arr))


def alpha(params: ErvParams, t):
    """Scale function alpha(t) = a * t**rho for t > 0."""
    return params.a * power(t, params.rho)


def beta(params: ErvParams, t):
    """Canonical location function beta(t); continuous in rho at rho = 0."""
    return psi(t, params.rho, params.kappa)


def _psi(logv, rho: float, kappa_eff: float):
    """psi from log v: the one place the rho ~ 0 branch is decided."""
    if abs(rho) >= RHO_BRANCH_CUTOFF:
        return kappa_eff * np.expm1(rho * logv) / rho
    return kappa_eff * logv


def psi(v, rho: float, kappa_eff: float):
    """Limit function psi(v) = kappa_eff*(v**rho - 1)/rho, log form at rho ~ 0.

    Uses expm1 so relative error stays bounded as rho -> 0; psi(1) = 0
    in both branches.
    """
    return _psi(np.log(_check_positive(v, "v")), rho, kappa_eff)


def limit_shift(x, v, params: ErvParams):
    """Argument map of the shifted limit family: (x - psi(v))/v**rho.

    psi uses the effective coefficient kappa/a.  With v = 1 this is the
    identity on x.  For rho > 0 it is expanded to x*v**-rho - psi(v; -rho),
    which stays finite where v**rho overflows.  For rho <= 0 it stays
    factored: once v**-rho overflows, the expanded form would give
    inf - inf = NaN where this one gives +-inf.
    """
    logv = np.log(_check_positive(v, "v"))
    rho = params.rho
    if rho > RHO_BRANCH_CUTOFF:
        return x * np.exp(-rho * logv) - _psi(logv, -rho, params.kappa_eff)
    return normed_log(x, logv, rho, params.kappa_eff)


def limit_shift_inverse(x, z, params: ErvParams):
    """u = 1/v at which limit_shift(x, v, params) = z.

    The shift is w*(x + k/rho) - k/rho with w = u**rho and k = kappa/a, so
    log u = log1p(rho*(z - x)/(rho*x + k))/rho, or (z - x)/k at rho ~ 0.
    Where no such v exists the result is NaN, 0 or inf, without warnings.
    """
    rho, k = params.rho, params.kappa_eff
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.asarray(z, dtype=float) - x
        if abs(rho) >= RHO_BRANCH_CUTOFF:
            return np.exp(np.log1p(rho * d / (rho * x + k)) / rho)
        return np.exp(d / k)


def normed(x, t, params: ErvParams):
    """The norming map (x - beta(t))/alpha(t), at t > 0.

    Random norming applies it at t = X0, deterministic norming at the
    level t.  It equals limit_shift(x/a, t, params).
    """
    return limit_shift(np.asarray(x, dtype=float) / params.a, t, params)


def normed_log(x, logt, rho: float, kappa: float):
    """normed(x, t, ErvParams(1, rho, kappa)) from log t, unchecked.

    The factored form (x - psi(t))*t**-rho for every rho, for callers such
    as the norming fit that hold log t and keep t**rho finite; it matches
    normed bit for bit at rho <= RHO_BRANCH_CUTOFF and to rounding above.
    """
    return (x - _psi(logt, rho, kappa)) * np.exp(-rho * logt)


def normed_terms(logt, rho: float):
    """(w, c) = (t**-rho, (1 - t**-rho)/rho) from one exp and one expm1.

    The map is affine in (x, kappa): normed_log(x, logt, rho, kappa) is
    x*w - kappa*c up to rounding.
    """
    w = np.exp(-rho * logt)
    return w, _psi(logt, rho, 1.0) * w
