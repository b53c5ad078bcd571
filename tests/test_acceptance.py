"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the
criterion lines even on success).
"""

import json
import math

import mpmath
import numpy as np
import pytest

from cevnorm.cli import main
from cevnorm.data import (
    Dataset,
    fit_dataset,
    fit_norming,
    load_csv,
    residual_diagnostic,
    residuals,
)
from cevnorm.limits import factorization_gap, limit_H, marginal_H_quantile
from cevnorm.norming import ErvParams, alpha, beta, psi
from cevnorm.simulate import (
    apply_deterministic_norming,
    apply_random_norming,
    draw_exceedances,
    write_csv,
)
from cevnorm.stats import (
    cell_table,
    chi_hat,
    factorization_stat,
    permutation_independence_test,
    pseudo_uniforms,
)

from conftest import make_model
from test_models import kernel_cdf, theoretical_Gv

CANONICAL = make_model()  # rho=(.5,.5), kappa=(1,1), a=(1,1), gaussian(0,1)^2

# factorization-gap oracle, pinned from the quadrature itself (default
# 19-level grid, abs_tol 1e-9) and cross-checked below by Monte Carlo
GAP_ORACLE = {
    ((0.0, 1.0), (0.0, 1.0)): 0.07234547502157823,
    ((0.0, 1.0), (0.5, 1.0)): 0.07402836964490672,
    ((0.5, 1.0), (0.0, 1.0)): 0.07402836964490672,
    ((0.5, 1.0), (0.5, 1.0)): 0.07619957515658965,
}


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_random_norming_factorization():
    """Eq. (6): random-normed pairs factorize at finite t."""
    deltas, rejections = [], 0
    for seed in range(20):
        sample = draw_exceedances(CANONICAL, 50.0, 10**5, seed)
        normed = apply_random_norming(sample, CANONICAL)
        table = cell_table(normed)
        deltas.append(factorization_stat(table))
        res = permutation_independence_test(table, b=199, seed=seed)
        if res.p_value <= 0.01:
            rejections += 1
    worst = max(deltas)
    ok = worst < 0.012 and rejections <= 2
    _verdict(1, ok, f"max delta {worst:.5f} (< 0.012), "
                    f"rejections {rejections}/20 (<= 2)")


def test_criterion_2_deterministic_norming_mixture_law():
    """Eq. (10): deterministic-normed ECDF matches the quadrature H."""
    levels = [round(0.05 * k, 2) for k in range(1, 20)]
    q1 = [marginal_H_quantile(CANONICAL, 1, p) for p in levels]
    q2 = [marginal_H_quantile(CANONICAL, 2, p) for p in levels]
    sample = draw_exceedances(CANONICAL, 50.0, 10**6, 0)
    normed = apply_deterministic_norming(sample, CANONICAL)
    sup = 0.0
    for a in q1:
        le1 = normed.w1 <= a
        for b in q2:
            emp = float(np.mean(le1 & (normed.w2 <= b)))
            sup = max(sup, abs(emp - limit_H(CANONICAL, a, b)))
    ok = sup < 0.005
    _verdict(2, ok, f"sup |ECDF - H| = {sup:.5f} over 19x19 grid (< 0.005)")


def test_criterion_3_factorization_gap_iff():
    """S3: gap = 0 iff one coordinate has (kappa, rho) = (0, 0)."""
    lattice = [(0.0, 0.0), (0.0, 1.0), (0.5, 1.0)]  # (rho, kappa)
    worst_degenerate, worst_oracle_err, worst_mc_err = 0.0, 0.0, 0.0
    min_nondegenerate = math.inf
    for c1 in lattice:
        for c2 in lattice:
            model = make_model(rho1=c1[0], kappa1=c1[1],
                               rho2=c2[0], kappa2=c2[1])
            res = factorization_gap(model)
            if c1 == (0.0, 0.0) or c2 == (0.0, 0.0):
                worst_degenerate = max(worst_degenerate, res.gap)
                continue
            min_nondegenerate = min(min_nondegenerate, res.gap)
            worst_oracle_err = max(worst_oracle_err,
                                   abs(res.gap - GAP_ORACLE[(c1, c2)]))
            # Monte Carlo cross-check at the arg-max point (H is exact at
            # finite t for the canonical family, so t = 5 suffices)
            sample = draw_exceedances(model, 5.0, 10**6, 1)
            normed = apply_deterministic_norming(sample, model)
            a, b = res.argmax
            joint = float(np.mean((normed.w1 <= a) & (normed.w2 <= b)))
            marg = float(np.mean(normed.w1 <= a)) * float(np.mean(normed.w2 <= b))
            worst_mc_err = max(worst_mc_err, abs(abs(joint - marg) - res.gap))
    ok = (worst_degenerate <= 1e-8 and min_nondegenerate > 0.01
          and worst_oracle_err < 1e-6 and worst_mc_err < 0.005)
    _verdict(3, ok, f"degenerate gaps <= {worst_degenerate:.2e} (<= 1e-8), "
                    f"non-degenerate >= {min_nondegenerate:.4f} (> 0.01), "
                    f"oracle drift {worst_oracle_err:.2e}, "
                    f"MC cross-check {worst_mc_err:.4f} (< 0.005)")


def test_criterion_4_lemma_1_kernel_shift():
    """Lemma 1: kernel_cdf(tv, alpha(t)x + beta(t)) -> G_v(x)."""
    vs = np.linspace(1.0, 40.0, 10)
    xs = np.linspace(-4.0, 6.0, 10)

    def max_err(model, t):
        worst = 0.0
        for i in (1, 2):
            erv = model.erv(i)
            for v in vs:
                for x in xs:
                    lhs = float(kernel_cdf(model, i, t * v,
                                           alpha(erv, t) * x + beta(erv, t)))
                    rhs = float(theoretical_Gv(model, i, v, x))
                    worst = max(worst, abs(lhs - rhs))
        return worst

    exact = max(max_err(CANONICAL, t) for t in (10.0, 1e3))
    perturbed = make_model(perturbation=5.0)
    errs = [max_err(perturbed, t) for t in (10.0, 1e2, 1e3, 1e4)]
    monotone = errs == sorted(errs, reverse=True)
    bounded = all(e < 10.0 * 5.0 / t for e, t in zip(errs, (10.0, 1e2, 1e3, 1e4)))
    ok = exact < 1e-12 and monotone and bounded
    _verdict(4, ok, f"exact err {exact:.2e} (< 1e-12); perturbed errs "
                    f"{['%.2e' % e for e in errs]} monotone={monotone}, "
                    f"within 10*eps/t={bounded}")


def test_criterion_5_psi_erv_identities():
    """Eq. (5): (beta(tx) - beta(t))/alpha(t) = psi(x; rho, kappa/a)."""
    gen = np.random.default_rng(5)
    worst = 0.0
    for k in range(1000):
        if k % 5 == 0:  # exercise tiny indices down to |rho| = 1e-9
            rho = float(gen.choice([-1, 1]) * 10.0 ** gen.uniform(-9, -3))
        else:
            rho = float(gen.uniform(-2.0, 1.0))
        p = ErvParams(a=float(10.0 ** gen.uniform(-1, 1)), rho=rho,
                      kappa=float(gen.uniform(-5.0, 5.0)))
        # t <= 100: for rho < 0 rounding in the beta increment grows like
        # t**|rho| through the cancellation of nearly equal terms
        t = float(10.0 ** gen.uniform(0, 2))
        x = float(10.0 ** gen.uniform(-1.3, 1.7))
        lhs = (beta(p, t * x) - beta(p, t)) / alpha(p, t)
        worst = max(worst, abs(lhs - psi(x, p.rho, p.kappa_eff)))
    ok = worst < 1e-10
    _verdict(5, ok, f"max identity error {worst:.2e} over 10^3 draws (< 1e-10)")


def _canonical_chi(p):
    """Exact chi(p) of CANONICAL, by quadrature of the model as written.

    X_i = sqrt(X0)*(2 + Z_i) - 2 with X0 unit Pareto and Z_i standard
    normal, so with w = 1/X0 (uniform on (0, 1)) the kernel survival is
    P[X_i > q | w] = Phi(2 - (q + 2)*sqrt(w)).  The marginal quantile q_p
    solves F(q_p) = p, and, X1 and X2 being independent given X0,
    chi(p) = (1 - p)^-1 * int_0^{1-p} P[X_1 > q_p | w]^2 dw.
    Both integrands fall from ~1 to ~0 around w = 4/(q + 2)^2, a point
    inside (0, 1 - p) that shrinks as p -> 1; both integrals are split
    there, or the quadrature misses the drop and q_p comes out wrong.
    """
    with mpmath.workdps(30):
        p = mpmath.mpf(p)

        def survival(q, w):
            return mpmath.ncdf(2 - (q + 2) * mpmath.sqrt(w))

        def marginal(q):
            return 1 - mpmath.quad(lambda w: survival(q, w),
                                   [0, 4 / (q + 2) ** 2, 1])

        # start from the tail P[X > q] ~ E[(2 + Z)_+^2] / (q + 2)^2
        c = mpmath.quad(lambda z: (2 + z) ** 2 * mpmath.npdf(z), [-2, mpmath.inf])
        q = mpmath.findroot(lambda q: marginal(q) - p,
                            mpmath.sqrt(c / (1 - p)) - 2)
        chi = mpmath.quad(lambda w: survival(q, w) ** 2,
                          [0, 4 / (q + 2) ** 2, 1 - p]) / (1 - p)
        return float(chi)


def test_criterion_6_chi_coefficient():
    """Eq. (2): chi-hat on comonotone, independent, and model samples.

    The canonical model is asymptotically dependent: its exact chi(p) is
    flat in p, chi(p) -> 0.4761129161 as p -> 1.  The model ladder is
    checked against that exact chi(p) level by level, within 4 binomial
    standard errors of the level's n_cond = #{u0 > p}.
    """
    gen = np.random.default_rng(6)
    ladder = (0.9, 0.99, 0.999)

    u = pseudo_uniforms(gen.normal(size=10**5))
    comonotone_ok = all(chi_hat(u, u, u, p) == 1.0 for p in ladder)

    n = 10**6
    u0, u1, u2 = gen.random(n), gen.random(n), gen.random(n)
    indep = chi_hat(u0, u1, u2, 0.9)
    indep_ok = abs(indep - 0.01) < 0.003

    sample = draw_exceedances(CANONICAL, 1.0, 10**7, 0)
    u0 = 1.0 - 1.0 / sample.x0
    u1, u2 = pseudo_uniforms(sample.x1), pseudo_uniforms(sample.x2)
    levels = []
    for p in ladder:
        chi = _canonical_chi(p)
        est = chi_hat(u0, u1, u2, p)
        n_cond = int(np.count_nonzero(u0 > p))
        z = (est - chi) / math.sqrt(chi * (1 - chi) / n_cond)
        levels.append((p, est, chi, n_cond, z))
    model_ok = all(abs(z) <= 4.0 for *_, z in levels)

    ok = comonotone_ok and indep_ok and model_ok
    ladder_text = "; ".join(
        f"p={p}: chi-hat {est:.4f} exact {chi:.6f} n_cond {n_cond} z {z:+.2f}"
        for p, est, chi, n_cond, z in levels)
    _verdict(6, ok, f"comonotone==1: {comonotone_ok}; independent chi(0.9)="
                    f"{indep:.4f} (|.-0.01|<0.003): {indep_ok}; canonical "
                    f"ladder [{ladder_text}] all |z| <= 4: {model_ok}")


def test_criterion_7_reproducibility(tmp_path):
    """Byte-identical CLI reports across 1, 2, and 8 threads."""
    out = tmp_path / "out"
    data_csv = tmp_path / "data.csv"
    write_csv(draw_exceedances(CANONICAL, 1.0, 3000, 9), data_csv)
    model = {"erv1": {"a": 1.0, "rho": 0.5, "kappa": 1.0},
             "erv2": {"a": 1.0, "rho": 0.5, "kappa": 1.0},
             "noise1": {"family": "gaussian"}, "noise2": {"family": "gaussian"}}
    small = [0.25, 0.5, 0.75]
    base = {"model": model,
            "run": {"n": 5000, "seed": 3, "t": 10.0},
            "analysis": {"b": 99, "levels": small, "grid_levels": small,
                         "p_levels": [0.5, 0.9],
                         "x_grid": {"x1": [0.0, 2.0], "x2": [0.0, 2.0]}},
            "data": {"path": str(data_csv), "conditioning_column": "x0",
                     "value_columns": ["x1", "x2"]},
            "io": {"output_dir": str(out), "formats": ["csv", "binary"]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base))

    commands = ["simulate", "verify-rn", "verify-dn", "limit-h", "gap",
                "chi", "diagnose"]
    mismatches = []
    for command in commands:
        snapshots = []
        for threads in (1, 2, 8):
            code = main([command, "--config", str(cfg_path),
                         "--threads", str(threads)])
            assert code in (0, 1), f"{command} exited {code}"
            report = json.loads(
                (out / f"report_{command.replace('-', '_')}.json").read_text())
            report.pop("wall_clock_s")
            blob = json.dumps(report, sort_keys=True)
            for aux in sorted(out.iterdir()):
                if not aux.name.startswith("report_"):
                    blob += f"|{aux.name}:{aux.read_bytes().hex()}"
            snapshots.append(blob)
        if not (snapshots[0] == snapshots[1] == snapshots[2]):
            mismatches.append(command)
    ok = not mismatches
    _verdict(7, ok, f"byte-identical reports for {len(commands)} commands "
                    f"across threads 1/2/8" +
                    (f"; mismatches: {mismatches}" if mismatches else ""))


def test_criterion_8_data_pipeline_recovery(tmp_path):
    """S3 pipeline: rho recovery and residual-diagnostic size/power."""
    # the CSV round trip is exact (repr formatting), so the sweeps below
    # may run in memory without loss of fidelity
    sample = draw_exceedances(CANONICAL, 20.0, 50_000, 1000)
    csv_path = tmp_path / "sim.csv"
    write_csv(sample, csv_path)
    ds = load_csv(csv_path, "x0", ["x1", "x2"])
    assert np.array_equal(ds.x0, sample.x0) and np.array_equal(ds.y1, sample.x1)

    rho_ok = 0
    for seed in range(1000, 1100):
        s = draw_exceedances(CANONICAL, 20.0, 50_000, seed)
        fit = fit_norming(s.x1, s.x0, "gaussian")
        if fit.converged and abs(fit.erv.rho - 0.5) <= 0.1:
            rho_ok += 1

    def diagnostic_sweep(model):
        hits = 0
        for seed in range(100):
            s = draw_exceedances(model, 1.0, 200_000, seed, stream=8)
            ds = Dataset(columns=("x0", "y1", "y2"), x0=s.x0, y1=s.x1,
                         y2=s.x2, n=s.n, n_dropped=0)
            fits = fit_dataset(ds, "gaussian", 0.95)  # ~1e4 exceedances
            res = residual_diagnostic(residuals(ds, fits), fits, b=199, seed=seed)
            if res.p_value <= 0.05:
                hits += 1
        return hits

    size_rejections = diagnostic_sweep(CANONICAL)
    power_rejections = diagnostic_sweep(make_model(negative_control=True))

    ok = rho_ok >= 90 and size_rejections <= 7 and power_rejections >= 95
    _verdict(8, ok, f"rho recovered {rho_ok}/100 (>= 90); size rejections "
                    f"{size_rejections}/100 (<= 7); negative-control power "
                    f"{power_rejections}/100 (>= 95)")
