"""Command-line driver: reproducible experiments with JSON configs and
machine-readable reports.

    cevnorm <simulate|verify-rn|verify-dn|limit-h|gap|chi|diagnose>
            --config cfg.json [--seed N] [--threads K] [--out DIR]

Exit codes: 0 pass, 1 verdict fail, 2 usage/config error, 3 data/IO
error, 4 numerical non-convergence.  Reports embed a hash of the
resolved config; everything except the wall-clock field is byte-stable
under a fixed config and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    DataError,
    FitConvergenceError,
    fit_dataset,
    load_csv,
    residual_diagnostic,
    residuals,
    write_residuals_csv,
)
from .limits import (
    QuadConvergenceError,
    factorization_gap,
    gap_on_grid,
    limit_H,
    marginal_H_quantile,
    write_gap_csv,
)
from .models import CiModel, NoiseLaw, noise_cdf
from .norming import ErvParams
from .simulate import (
    CapacityError,
    apply_deterministic_norming,
    apply_random_norming,
    draw_exceedances,
    write_binary,
    write_csv,
)
from .stats import (
    DEFAULT_LEVELS,
    Ecdf,
    chi_hat,
    factorization_stat,
    joint_ecdf,
    ks_distance,
    permutation_independence_test,
    pseudo_uniforms,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

def _require(block: dict, path: str, allowed: dict):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    out = {}
    for key, (typ, default) in allowed.items():
        if key not in block or block[key] is None:
            out[key] = default
            continue
        val = block[key]
        is_bool = isinstance(val, bool)
        if typ is float and isinstance(val, (int, float)) and not is_bool:
            val = float(val)
            if not math.isfinite(val):
                raise ConfigError(f"{path}.{key}: expected a finite number, got {val!r}")
        elif typ is int and isinstance(val, int) and not is_bool:
            val = int(val)
        elif typ in (float, int) or not isinstance(val, typ) or (is_bool and typ is not bool):
            raise ConfigError(
                f"{path}.{key}: expected {typ.__name__}, got {val!r}"
            )
        out[key] = val
    return out


def _number_list(values, path: str, expected: str, ok=lambda v: True) -> list:
    """A non-empty list of finite JSON numbers that each pass ok, as floats;
    json.load's NaN and Infinity fail, and an element fails by its index."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{path}: expected a non-empty list, each {expected}")
    for i, v in enumerate(values):
        if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) and ok(v)):
            raise ConfigError(f"{path}[{i}]: expected {expected}")
    return [float(v) for v in values]


def _parse_erv(block, path) -> ErvParams:
    d = _require(block, path, {"a": (float, 1.0), "rho": (float, 0.0),
                               "kappa": (float, 0.0)})
    try:
        return ErvParams(**d)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_noise(block, path) -> NoiseLaw:
    d = _require(block, path, {"family": (str, "gaussian"),
                               "location": (float, 0.0), "scale": (float, 1.0)})
    try:
        return NoiseLaw(**d)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_levels(values, path):
    out = _number_list(values, path, "a probability in (0, 1)", lambda v: 0 < v < 1)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(f"{path}: levels must be strictly increasing")
    return out


class Config:
    """Validated experiment configuration."""

    def __init__(self, raw: dict):
        top = _require(raw, "config", {
            "schema_version": (int, SCHEMA_VERSION),
            "model": (dict, {}),
            "run": (dict, {}),
            "analysis": (dict, {}),
            "io": (dict, {}),
            "data": (dict, None),
        })
        if top["schema_version"] != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version: expected {SCHEMA_VERSION}, got {top['schema_version']}"
            )
        m = _require(top["model"], "model", {
            "erv1": (dict, {}), "erv2": (dict, {}),
            "noise1": (dict, {}), "noise2": (dict, {}),
            "perturbation": (float, 0.0),
            "negative_control": (bool, False),
        })
        try:
            self.model = CiModel(
                erv1=_parse_erv(m["erv1"], "model.erv1"),
                erv2=_parse_erv(m["erv2"], "model.erv2"),
                noise1=_parse_noise(m["noise1"], "model.noise1"),
                noise2=_parse_noise(m["noise2"], "model.noise2"),
                perturbation=m["perturbation"],
                negative_control=m["negative_control"],
            )
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc

        r = _require(top["run"], "run", {
            "t": (float, 50.0), "t_list": (list, None),
            "n": (int, 100_000), "seed": (int, 42),
        })
        if r["n"] < 1:
            raise ConfigError("run.n: must be >= 1")
        if r["t"] < 1:
            raise ConfigError("run.t: must be >= 1")
        if r["t_list"] is not None:
            r["t_list"] = _number_list(r["t_list"], "run.t_list",
                                       "a finite number >= 1", lambda t: t >= 1)
        self.run = r

        a = _require(top["analysis"], "analysis", {
            "levels": (list, list(DEFAULT_LEVELS)),
            "grid_levels": (list, list(DEFAULT_LEVELS)),
            "b": (int, 999),
            "quad_abs_tol": (float, 1e-9),
            "p_levels": (list, [0.9, 0.99, 0.999]),
            "x_grid": (dict, None),
            "thresholds": (dict, None),
        })
        a["levels"] = _parse_levels(a["levels"], "analysis.levels")
        a["grid_levels"] = _parse_levels(a["grid_levels"], "analysis.grid_levels")
        a["p_levels"] = _parse_levels(a["p_levels"], "analysis.p_levels")
        if a["b"] < 99:
            raise ConfigError("analysis.b: must be >= 99")
        if a["quad_abs_tol"] <= 0:
            raise ConfigError("analysis.quad_abs_tol: must be positive")
        if a["thresholds"] is not None:
            a["thresholds"] = _require(a["thresholds"], "analysis.thresholds", {
                "delta_max": (float, None), "sup_max": (float, None),
                "level": (float, 0.01), "gap_max": (float, None),
                "gap_min": (float, None), "expect_dependence": (bool, False),
            })
        if a["x_grid"] is not None:
            a["x_grid"] = _require(a["x_grid"], "analysis.x_grid", {
                "x1": (list, None), "x2": (list, None),
            })
            for axis in ("x1", "x2"):
                a["x_grid"][axis] = _number_list(
                    a["x_grid"][axis], f"analysis.x_grid.{axis}", "a finite number")
        self.analysis = a

        self.io = _require(top["io"], "io", {
            "output_dir": (str, "."),
            "formats": (list, ["csv"]),
        })
        for fmt in self.io["formats"]:
            if fmt not in ("csv", "binary"):
                raise ConfigError(f"io.formats: unknown format {fmt!r}")

        self.data = None
        if top["data"] is not None:
            d = _require(top["data"], "data", {
                "path": (str, None),
                "conditioning_column": (str, None),
                "value_columns": (list, None),
                "family": (str, "gaussian"),
                "p_t": (float, 0.95),
                "delimiter": (str, ","),
            })
            if d["path"] is None:
                raise ConfigError("data.path: required")
            if d["conditioning_column"] is None:
                raise ConfigError("data.conditioning_column: required")
            cols = d["value_columns"]
            if not (isinstance(cols, list) and len(cols) == 2
                    and all(isinstance(c, str) for c in cols)):
                raise ConfigError("data.value_columns: expected a list of two names")
            if len(d["delimiter"]) != 1:
                raise ConfigError(f"data.delimiter: expected one character, got {d['delimiter']!r}")
            if not 0.0 < d["p_t"] < 1.0:
                raise ConfigError(f"data.p_t: expected a probability in (0, 1), got {d['p_t']!r}")
            self.data = d

        self.resolved = {
            "schema_version": SCHEMA_VERSION,
            "model": self.model.to_dict(),
            "run": self.run,
            "analysis": self.analysis,
            "io": self.io,
            "data": self.data,
        }

    @classmethod
    def load(cls, path, seed=None, out=None) -> "Config":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        cfg = cls(raw)
        # flags win over file keys; resolved holds these same dicts
        if seed is not None:
            cfg.run["seed"] = seed
        if out is not None:
            cfg.io["output_dir"] = str(out)
        return cfg

    def hash(self) -> str:
        blob = json.dumps(self.resolved, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def out_dir(self) -> Path:
        d = Path(self.io["output_dir"])
        d.mkdir(parents=True, exist_ok=True)
        return d

    def t_values(self):
        return self.run["t_list"] or [self.run["t"]]


# ---------------------------------------------------------------------------
# reports and verdicts
# ---------------------------------------------------------------------------

def write_report(cfg: Config, command: str, metrics: dict, verdicts: dict,
                 started: float, files: list) -> dict:
    """Write report_<command>.json; a non-finite metric raises before any file opens."""
    for key in sorted(metrics):
        if not np.all(np.isfinite(metrics[key])):
            raise FloatingPointError(f"metric {key} is not finite: {metrics[key]!r}")
    report = {
        "command": command,
        "config": cfg.resolved,
        "config_hash": cfg.hash(),
        "files": [str(f) for f in files],
        "metrics": metrics,
        "verdicts": verdicts,
        "version": __version__,
        "wall_clock_s": round(time.time() - started, 3),
    }
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    path = cfg.out_dir() / f"report_{command.replace('-', '_')}.json"
    with open(path, "w") as fh:
        fh.write(text)
    return report


# threshold -> (verdict, metric, test of metric against threshold); with
# expect_dependence set, "level" reads INDEPENDENCE_REJECTED instead
VERDICT_RULES = {
    "delta_max": ("delta_below_max", "delta", operator.lt),
    "sup_max": ("ecdf_matches_H", "sup_ecdf_h", operator.lt),
    "gap_max": ("gap_below_max", "gap", operator.le),
    "gap_min": ("gap_above_min", "gap", operator.gt),
    "level": ("independence_not_rejected", "p_value", operator.gt),
}
INDEPENDENCE_REJECTED = ("independence_rejected", "p_value", operator.le)


def _verdicts(cfg: Config, metrics: dict, *thresholds: str) -> dict:
    """One verdict per named threshold that the config sets."""
    th = cfg.analysis["thresholds"]
    if th is None:
        return {}
    out = {}
    for key in thresholds:
        if th[key] is None:
            continue
        name, metric, test = VERDICT_RULES[key]
        if key == "level" and th["expect_dependence"]:
            name, metric, test = INDEPENDENCE_REJECTED
        out[name] = test(metrics[metric], th[key])
    return out


# ---------------------------------------------------------------------------
# commands: each returns (metrics, verdicts, files); its docstring is its help
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: Config, threads: int):
    """draw conditioned exceedance samples and write them out"""
    files = []
    for t in cfg.t_values():
        sample = draw_exceedances(cfg.model, t, cfg.run["n"], cfg.run["seed"],
                                  threads=threads)
        stem = cfg.out_dir() / f"sample_t{t:g}_n{cfg.run['n']}_seed{cfg.run['seed']}"
        if "csv" in cfg.io["formats"]:
            path = stem.with_suffix(".csv")
            write_csv(sample, path)
            files.append(path)
        if "binary" in cfg.io["formats"]:
            path = stem.with_suffix(".bin")
            write_binary(sample, path)
            files.append(path)
    return {"n": cfg.run["n"], "t_values": cfg.t_values()}, {}, files


def _norm_metrics(cfg: Config, threads: int, mode: str):
    sample = draw_exceedances(cfg.model, cfg.run["t"], cfg.run["n"],
                              cfg.run["seed"], threads=threads)
    norm = apply_random_norming if mode == "random" else apply_deterministic_norming
    normed = norm(sample, cfg.model)
    delta = factorization_stat(normed, cfg.analysis["levels"])
    test = permutation_independence_test(normed, cfg.analysis["levels"],
                                         cfg.analysis["b"], cfg.run["seed"])
    return normed, delta, test


def cmd_verify_rn(cfg: Config, threads: int):
    """check factorization of the random-normed sample"""
    normed, delta, test = _norm_metrics(cfg, threads, "random")
    ks = {}
    for i, w in ((1, normed.w1), (2, normed.w2)):
        law = cfg.model.noise(i)
        ks[f"ks{i}"] = ks_distance(Ecdf.from_sample(w),
                                   lambda x: noise_cdf(law, x))
    metrics = {"delta": delta, "p_value": test.p_value, **ks,
               "n": cfg.run["n"], "t": cfg.run["t"], "b": test.b}
    return metrics, _verdicts(cfg, metrics, "delta_max", "level"), []


def cmd_verify_dn(cfg: Config, threads: int):
    """compare the deterministic-normed sample against the mixture law"""
    normed, delta, test = _norm_metrics(cfg, threads, "deterministic")
    tol = cfg.analysis["quad_abs_tol"]
    levels = cfg.analysis["grid_levels"]
    q1, q2 = marginal_H_quantile(cfg.model, [[1], [2]], levels, tol)
    h = limit_H(cfg.model, q1[:, None], q2[None, :], tol)
    sup = float(np.max(np.abs(joint_ecdf(normed, q1, q2) - h)))
    metrics = {"sup_ecdf_h": sup, "delta": delta,
               "p_value": test.p_value, "n": cfg.run["n"], "t": cfg.run["t"],
               "b": test.b}
    return metrics, _verdicts(cfg, metrics, "sup_max", "level"), []


def cmd_limit_h(cfg: Config, threads: int):
    """export the mixture-law surface on a grid"""
    tol = cfg.analysis["quad_abs_tol"]
    xg = cfg.analysis["x_grid"]
    if xg is not None:
        x1s, x2s = xg["x1"], xg["x2"]
    else:
        x1s, x2s = marginal_H_quantile(cfg.model, [[1], [2]],
                                       cfg.analysis["grid_levels"], tol)
    path = cfg.out_dir() / "limit_h_surface.csv"
    write_gap_csv(gap_on_grid(cfg.model, x1s, x2s, tol), path)
    return {"n_points": len(x1s) * len(x2s)}, {}, [path]


def cmd_gap(cfg: Config, threads: int):
    """quadrature factorization gap with verdict"""
    result = factorization_gap(cfg.model, cfg.analysis["grid_levels"],
                               cfg.analysis["quad_abs_tol"])
    path = cfg.out_dir() / "gap_table.csv"
    write_gap_csv(result, path)
    metrics = {"gap": result.gap, "argmax_x1": result.argmax[0],
               "argmax_x2": result.argmax[1]}
    return metrics, _verdicts(cfg, metrics, "gap_max", "gap_min"), [path]


def cmd_chi(cfg: Config, threads: int):
    """empirical tail dependence coefficient over a probability ladder"""
    sample = draw_exceedances(cfg.model, 1.0, cfg.run["n"], cfg.run["seed"],
                              threads=threads)
    u0 = 1.0 - 1.0 / sample.x0  # unit-Pareto margin is known exactly
    u1 = pseudo_uniforms(sample.x1)
    u2 = pseudo_uniforms(sample.x2)
    metrics = {"n": cfg.run["n"]}
    for p in cfg.analysis["p_levels"]:
        metrics[f"chi_{p:g}"] = chi_hat(u0, u1, u2, p)
    return metrics, {}, []


def cmd_diagnose(cfg: Config, threads: int):
    """fit norming functions to data and test residual independence"""
    if cfg.data is None:
        raise ConfigError("data: block required for diagnose")
    d = cfg.data
    dataset = load_csv(d["path"], d["conditioning_column"],
                       d["value_columns"], d["delimiter"])
    fits = fit_dataset(dataset, d["family"], d["p_t"])
    test = residual_diagnostic(dataset, fits, cfg.analysis["b"], cfg.run["seed"])
    fits_path = cfg.out_dir() / "fitted_norming.json"
    fits.to_json(fits_path)
    z1, z2 = residuals(dataset, fits)
    res_path = cfg.out_dir() / "residuals.csv"
    write_residuals_csv(z1, z2, res_path)
    metrics = {
        "n_rows": dataset.n, "n_dropped": dataset.n_dropped,
        "n_exceedances": fits.n_exceedances,
        "rho1": fits.fit1.erv.rho, "rho2": fits.fit2.erv.rho,
        "kappa1": fits.fit1.erv.kappa, "kappa2": fits.fit2.erv.kappa,
        "delta": test.statistic, "p_value": test.p_value, "b": test.b,
    }
    return metrics, _verdicts(cfg, metrics, "level"), [fits_path, res_path]


COMMANDS = {
    "simulate": cmd_simulate,
    "verify-rn": cmd_verify_rn,
    "verify-dn": cmd_verify_dn,
    "limit-h": cmd_limit_h,
    "gap": cmd_gap,
    "chi": cmd_chi,
    "diagnose": cmd_diagnose,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cevnorm",
        description="Simulation and quadrature checks of conditioned extreme "
                    "value limit laws under random vs deterministic norming.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.__doc__)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed from the config")
        p.add_argument("--threads", type=int, default=None,
                       help="worker cap (default $CEVNORM_THREADS or 1); "
                            "does not change results")
        p.add_argument("--out", default=None,
                       help="override io.output_dir from the config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        threads = args.threads
        if threads is None:
            env = os.environ.get("CEVNORM_THREADS", "1")
            try:
                threads = int(env)
            except ValueError as exc:
                raise ConfigError(f"CEVNORM_THREADS: expected an integer, got {env!r}") from exc
        if threads < 1:
            raise ConfigError("--threads must be >= 1")
        cfg = Config.load(args.config, seed=args.seed, out=args.out)
        started = time.time()
        metrics, verdicts, files = COMMANDS[args.command](cfg, threads)
        write_report(cfg, args.command, metrics, verdicts, started, files)
        return EXIT_PASS if all(verdicts.values()) else EXIT_FAIL
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadConvergenceError, FitConvergenceError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, PermissionError, IsADirectoryError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
