"""Numerical toolkit for conditioned extreme value limit laws.

Verifies by simulation and quadrature that conditional independence is
preserved under random norming but generally not under deterministic
norming, and applies the same machinery as a tail diagnostic on data.
"""

from .norming import ErvParams, alpha, beta, limit_shift, normed, psi
from .models import (
    CiModel,
    NoiseLaw,
    kernel_cdf,
    noise_cdf,
    noise_quantile,
    theoretical_Gv,
)
from .simulate import (
    ExceedanceSample,
    NormedSample,
    apply_deterministic_norming,
    apply_random_norming,
    draw_exceedances,
)
from .limits import (
    GridSpec,
    QuadOptions,
    factorization_gap,
    limit_H,
    marginal_H,
)
from .stats import (
    Ecdf,
    TestResult,
    chi_hat,
    factorization_stat,
    ks_distance,
    permutation_independence_test,
)
from .data import (
    Dataset,
    FittedNorming,
    fit_norming,
    load_csv,
    residual_diagnostic,
    to_pareto_margins,
)

__version__ = "0.1.0"
