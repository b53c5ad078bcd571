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
from dataclasses import asdict
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
from .models import FAMILIES, CiModel, NoiseLaw, noise_cdf
from .norming import ErvParams
from .simulate import (
    BLOCK_ROWS,
    MAX_ROWS,
    apply_deterministic_norming,
    apply_random_norming,
    draw_exceedances,
    write_binary,
    write_csv,
)
from .stats import (
    DEFAULT_LEVELS,
    Ecdf,
    cell_table,
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
# config schema: every key's rule and default, checked by one walker
# ---------------------------------------------------------------------------

REQUIRED = object()  # a default that means the key must be given


def _fail(path: str, expected: str, got):
    raise ConfigError(f"{path}: expected {expected}, got {json.dumps(got, default=repr)}")


def _finite(v):
    """v as a float if it is a finite JSON number (a bool is not), else None."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        return None
    return v if math.isfinite(v) else None


def _value(kind, expected: str, ok=lambda v: True):
    """A value of type kind that passes ok.  A float must be a finite number
    and is kept as a float; a bool never counts as an int."""
    def rule(v, path):
        if kind is float:
            x = _finite(v)
        else:
            x = v if isinstance(v, kind) and not (kind is int and isinstance(v, bool)) else None
        if x is None or not ok(x):
            _fail(path, expected, v)
        return x
    return rule


def _numbers(expected: str, ok=lambda v: True):
    """A non-empty list of finite numbers that each pass ok, as floats; an
    element that fails is named by its index."""
    each = _value(float, expected, ok)

    def rule(v, path):
        if not isinstance(v, list) or not v:
            _fail(path, f"a non-empty list, each {expected}", v)
        return [each(x, f"{path}[{i}]") for i, x in enumerate(v)]
    return rule


_probabilities = _numbers("a probability in (0, 1)", lambda v: 0 < v < 1)


def _levels(v, path):
    """A strictly increasing list of probabilities."""
    out = _probabilities(v, path)
    if any(b <= a for a, b in zip(out, out[1:])):
        _fail(path, "strictly increasing levels", v)
    return out


_t_numbers = _numbers("a finite number >= 1", lambda v: v >= 1)


def _t_list(v, path):
    """Levels t >= 1, no two equal: each names its own sample file."""
    out = _t_numbers(v, path)
    if len(set(out)) < len(out):
        _fail(path, "distinct values", v)
    return out


def _block(schema: dict):
    """An object with only schema's keys.  A missing or null key takes its
    default, which goes through the key's rule like a given value; a None
    default leaves the key None, and a REQUIRED key fails its rule on null."""
    def rule(raw, path):
        if not isinstance(raw, dict):
            _fail(path or "config", "an object", raw)
        for key in raw:
            if key not in schema:
                _fail(f"{path}.{key}" if path else key,
                      f"one of the keys {', '.join(schema)}", key)
        out = {}
        for key, (check, default) in schema.items():
            val = raw.get(key)
            if val is None:
                if default is None:
                    out[key] = None
                    continue
                val = None if default is REQUIRED else default
            out[key] = check(val, f"{path}.{key}" if path else key)
        return out
    return rule


FINITE = _value(float, "a finite number")
POSITIVE = _value(float, "a finite number > 0", lambda v: v > 0)
PROBABILITY = _value(float, "a probability in (0, 1)", lambda v: 0 < v < 1)
# a threshold on a sup-distance between CDFs, which lies in [0, 1]; one
# outside it would make the verdict constant
DISTANCE = _value(float, "a number in [0, 1]", lambda v: 0 <= v <= 1)
BOOL = _value(bool, "true or false")
STRING = _value(str, "a string")
FAMILY = _value(str, f"one of {', '.join(FAMILIES)}", lambda v: v in FAMILIES)
ERV = _block({"a": (POSITIVE, 1.0), "rho": (FINITE, 0.0), "kappa": (FINITE, 0.0)})
NOISE = _block({"family": (FAMILY, "gaussian"), "location": (FINITE, 0.0),
                "scale": (POSITIVE, 1.0)})
GRID_AXIS = _numbers("a finite number")
# the sampler keys Philox with the seed's low 64 bits, so a wider range
# would give two seeds one sample
SEED = _value(int, "an integer in [0, 2**64)", lambda v: 0 <= v < 2**64)

SCHEMA = {
    "schema_version": (_value(int, str(SCHEMA_VERSION), lambda v: v == SCHEMA_VERSION),
                       SCHEMA_VERSION),
    "model": (_block({
        "erv1": (ERV, {}), "erv2": (ERV, {}),
        "noise1": (NOISE, {}), "noise2": (NOISE, {}),
        "perturbation": (_value(float, "a finite number >= 0", lambda v: v >= 0), 0.0),
        "negative_control": (BOOL, False),
    }), {}),
    "run": (_block({
        "t": (_value(float, "a finite number >= 1", lambda v: v >= 1), 50.0),
        "t_list": (_t_list, None),
        "n": (_value(int, f"an integer in [1, {MAX_ROWS}]", lambda v: 1 <= v <= MAX_ROWS),
              100_000),
        "seed": (SEED, 42),
    }), {}),
    "analysis": (_block({
        "levels": (_levels, list(DEFAULT_LEVELS)),
        "grid_levels": (_levels, list(DEFAULT_LEVELS)),
        "b": (_value(int, "an integer >= 99", lambda v: v >= 99), 999),
        "quad_abs_tol": (POSITIVE, 1e-9),
        "p_levels": (_levels, [0.9, 0.99, 0.999]),
        "x_grid": (_block({"x1": (GRID_AXIS, REQUIRED), "x2": (GRID_AXIS, REQUIRED)}), None),
        "thresholds": (_block({
            "delta_max": (DISTANCE, None), "sup_max": (DISTANCE, None),
            "level": (PROBABILITY, 0.01), "gap_max": (DISTANCE, None),
            "gap_min": (DISTANCE, None), "expect_dependence": (BOOL, False),
        }), None),
    }), {}),
    "io": (_block({
        "output_dir": (STRING, "."),
        "formats": (_value(list, 'a non-empty list of "csv" and "binary"',
                           lambda v: v and all(f in ("csv", "binary") for f in v)),
                    ["csv"]),
    }), {}),
    "data": (_block({
        "path": (STRING, REQUIRED),
        "conditioning_column": (STRING, REQUIRED),
        "value_columns": (_value(list, "a list of two names",
                                 lambda v: len(v) == 2 and all(isinstance(c, str) for c in v)),
                          REQUIRED),
        "family": (FAMILY, "gaussian"),
        "p_t": (PROBABILITY, 0.95),
        "delimiter": (_value(str, "one character", lambda v: len(v) == 1), ","),
    }), None),
}


class Config:
    """Validated experiment configuration: resolved is SCHEMA's output."""

    def __init__(self, raw: dict):
        self.resolved = _block(SCHEMA)(raw, "")
        m = self.resolved["model"]
        self.model = CiModel(
            erv1=ErvParams(**m["erv1"]), erv2=ErvParams(**m["erv2"]),
            noise1=NoiseLaw(**m["noise1"]), noise2=NoiseLaw(**m["noise2"]),
            perturbation=m["perturbation"], negative_control=m["negative_control"],
        )
        self.run = self.resolved["run"]
        self.analysis = self.resolved["analysis"]
        self.io = self.resolved["io"]
        self.data = d = self.resolved["data"]
        if d is not None and len({d["conditioning_column"], *d["value_columns"]}) < 3:
            _fail("data.value_columns", "two distinct names other than data."
                  f"conditioning_column {json.dumps(d['conditioning_column'])}",
                  d["value_columns"])

    @classmethod
    def load(cls, path, seed=None, out=None) -> "Config":
        try:
            with open(path, encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        cfg = cls(raw)
        # flags win over file keys; resolved holds these same dicts
        if seed is not None:
            cfg.run["seed"] = SEED(seed, "--seed")
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

def write_json(path, obj) -> None:
    """The one JSON writer: sorted keys, indent 2, a trailing newline.

    A NaN or infinity raises FloatingPointError before the file opens.
    """
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"{path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
    write_json(cfg.out_dir() / f"report_{command.replace('-', '_')}.json", report)
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

def _exact_g(x: float) -> str:
    """x in a file name or metric key: %g where that is exact, else the
    shortest repr, so distinct values get distinct names."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def cmd_simulate(cfg: Config, threads: int):
    """draw conditioned exceedance samples and write them out"""
    n, seed = cfg.run["n"], cfg.run["seed"]
    files = []
    for t in cfg.t_values():
        out = cfg.out_dir()
        # not Path.with_suffix: a fractional t puts a dot inside the stem
        stem = f"sample_t{_exact_g(t)}_n{n}_seed{seed}"
        paths = {fmt: out / f"{stem}.{ext}"
                 for fmt, ext in (("csv", "csv"), ("binary", "bin"))
                 if fmt in cfg.io["formats"]}
        try:
            # one block of rows at a time, each written where it belongs
            for lo in range(0, n, BLOCK_ROWS):
                block = draw_exceedances(cfg.model, t, min(BLOCK_ROWS, n - lo), seed,
                                         threads=threads, start=lo)
                if "csv" in paths:
                    write_csv(block, paths["csv"], lo)
                if "binary" in paths:
                    write_binary(block, paths["binary"], lo, n)
                del block  # so that the next block is not drawn beside it
        except BaseException:
            # a failed block leaves no part of this t's sample behind
            for path in paths.values():
                path.unlink(missing_ok=True)
            raise
        files += paths.values()
    return {"n": n, "t_values": cfg.t_values()}, {}, files


def _norm_metrics(cfg: Config, threads: int, mode: str):
    sample = draw_exceedances(cfg.model, cfg.run["t"], cfg.run["n"],
                              cfg.run["seed"], threads=threads)
    norm = apply_random_norming if mode == "random" else apply_deterministic_norming
    normed = norm(sample, cfg.model)
    table = cell_table(normed, cfg.analysis["levels"])
    delta = factorization_stat(table)
    test = permutation_independence_test(table, cfg.analysis["b"], cfg.run["seed"])
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
        metrics[f"chi_{_exact_g(p)}"] = chi_hat(u0, u1, u2, p)
    return metrics, {}, []


def cmd_diagnose(cfg: Config, threads: int):
    """fit norming functions to data and test residual independence"""
    if cfg.data is None:
        _fail("data", "an object (diagnose reads a data file)", None)
    d = cfg.data
    dataset = load_csv(d["path"], d["conditioning_column"],
                       d["value_columns"], d["delimiter"])
    fits = fit_dataset(dataset, d["family"], d["p_t"])
    z1, z2 = residuals(dataset, fits)
    test = residual_diagnostic((z1, z2), fits, cfg.analysis["b"], cfg.run["seed"])
    fits_path = cfg.out_dir() / "fitted_norming.json"
    write_json(fits_path, asdict(fits))
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


def _threads(flag) -> int:
    """The worker cap: --threads, else $CEVNORM_THREADS, else 1."""
    if flag is None:
        source, raw = "CEVNORM_THREADS", os.environ.get("CEVNORM_THREADS", "1")
    else:
        source, raw = "--threads", flag
    try:
        threads = int(raw)
    except ValueError:
        threads = 0  # not an integer: fails the bound below
    if threads < 1:
        raise ConfigError(f"{source}: expected an integer >= 1, got {raw!r}")
    return threads


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        threads = _threads(args.threads)
        cfg = Config.load(args.config, seed=args.seed, out=args.out)
        started = time.time()
        metrics, verdicts, files = COMMANDS[args.command](cfg, threads)
        write_report(cfg, args.command, metrics, verdicts, started, files)
        return EXIT_PASS if all(verdicts.values()) else EXIT_FAIL
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadConvergenceError, FitConvergenceError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
