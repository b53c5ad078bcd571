"""Extended-regularly-varying norming pairs.

A norming pair (alpha, beta) is represented by the canonical family

    alpha(t) = a * t**rho
    beta(t)  = kappa * (t**rho - 1) / rho      (rho != 0)
             = kappa * log(t)                  (rho == 0)

which satisfies alpha(t*x)/alpha(t) = x**rho and
(beta(t*x) - beta(t))/alpha(t) = psi(x; rho, kappa/a) exactly at every
finite t, not just in the limit.  All evaluations go through
exp(rho*log(t)) so accuracy is uniform in rho.
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


def psi(v, rho: float, kappa_eff: float):
    """Limit function psi(v) = kappa_eff*(v**rho - 1)/rho, log form at rho ~ 0.

    Uses expm1 so relative error stays bounded as rho -> 0; psi(1) = 0
    in both branches.
    """
    logv = np.log(_check_positive(v, "v"))
    if abs(rho) >= RHO_BRANCH_CUTOFF:
        return kappa_eff * np.expm1(rho * logv) / rho
    return kappa_eff * logv


def limit_shift(x, v, params: ErvParams):
    """Argument map of the shifted limit family: (x - psi(v))/v**rho.

    psi uses the effective coefficient kappa/a.  With v = 1 this is the
    identity on x.  For rho > 0 it is expanded to
    x*v**-rho + kappa_eff*expm1(-rho*log v)/rho, which stays finite where
    v**rho overflows.
    """
    logv = np.log(_check_positive(v, "v"))
    rho = params.rho
    if rho > RHO_BRANCH_CUTOFF:
        return x * np.exp(-rho * logv) + params.kappa_eff * np.expm1(-rho * logv) / rho
    return (x - psi(v, rho, params.kappa_eff)) * np.exp(-rho * logv)
