"""Spans around calls into cevnorm's modules, taken from outside the program.

``installed(tracer)`` rebinds the names that calling modules look up, for
example ``cevnorm.cli.draw_exceedances`` and ``cevnorm.limits.limit_H``,
to wrappers that record a span per call, and restores them on exit.
Nothing under ``src/`` changes.  ``layer_metrics`` turns the spans of one
pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from cevnorm import cli, data, limits, simulate, stats
from cevnorm.data import FitConvergenceError
from cevnorm.limits import QuadConvergenceError


def _file_bytes(arg_index):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(args[arg_index])}


def _draw(args, kwargs, result):
    return {"rows": result.n, "threads": kwargs.get("threads", 1)}


def _replicates(args, kwargs, result):
    return {"replicates": result.b}


def _loaded(args, kwargs, result):
    return {"rows": result.n, "dropped": result.n_dropped,
            "bytes": os.path.getsize(args[0])}


def _report(args, kwargs, result):
    return {"command": args[1], "points": args[2].get("n_points", 0)}


# (owner, attribute, span name, attributes taken from the call).  A
# function looked up from two modules is rebound in both.
HOOKS = [
    (cli.Config, "load", "cli.config", None),
    (cli, "write_report", "cli.report", _report),
    (cli, "draw_exceedances", "simulate.draw", _draw),
    (simulate, "pareto_exceedance_from_uniform", "models.map", None),
    (simulate, "conditional_from_uniforms", "models.map", None),
    (cli, "apply_random_norming", "simulate.norm", None),
    (cli, "apply_deterministic_norming", "simulate.norm", None),
    (cli, "write_binary", "simulate.write_binary", _file_bytes(1)),
    (cli, "write_csv", "simulate.write_csv", _file_bytes(1)),
    (cli, "factorization_stat", "stats.fstat", None),
    (cli, "permutation_independence_test", "stats.perm", _replicates),
    (data, "permutation_independence_test", "stats.perm", _replicates),
    (stats.Ecdf, "from_sample", "stats.ks", None),
    (cli, "ks_distance", "stats.ks", None),
    (cli, "factorization_gap", "limits.gap", None),
    (cli, "marginal_H_quantile", "limits.quantile", None),
    (limits, "marginal_H_quantile", "limits.quantile", None),
    (limits, "marginal_H", "limits.marginal", None),
    (cli, "limit_H", "limits.H", None),
    (limits, "limit_H", "limits.H", None),
    (cli, "load_csv", "data.load_csv", _loaded),
    (cli, "fit_dataset", "data.fit", None),
    (data, "fit_norming", "data.fit_norming",
     lambda args, kwargs, result: {"iterations": result.iterations}),
    (cli, "residual_diagnostic", "data.diag", None),
    (cli, "residuals", "data.residual", None),
    (cli, "write_residuals_csv", "data.residual", None),
]


class Tracer:
    """Keeps every span in memory: id, name, start, end, parent, pass.

    The calling thread's innermost open span is the parent.  A worker
    thread with no open span of its own (``draw_exceedances``' pool) takes
    the innermost open span of the thread that made the tracer.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_no = 0
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        return self._local.__dict__.setdefault("stack", [])

    @contextmanager
    def span(self, name, **attrs):
        stack = self._stack()
        parents = stack or self._owner_stack
        rec = {"id": next(self._ids), "name": name,
               "parent": parents[-1] if parents else None,
               "pass": self.pass_no, "thread": threading.get_ident(), **attrs}
        stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        except (QuadConvergenceError, FitConvergenceError) as exc:
            # count an error once, in the innermost span it leaves
            if not getattr(exc, "_counted_by_trace", False):
                exc._counted_by_trace = True
                rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = perf_counter()
            stack.pop()
            self.spans.append(rec)

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs is not None:
                rec.update(attrs(args, kwargs, result))
            return result
        return traced


@contextmanager
def installed(tracer: Tracer):
    """Rebind every name in HOOKS to a traced wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, attrs in HOOKS:
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            if isinstance(orig, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, orig.__func__, attrs)))
            else:
                setattr(owner, attr, tracer.wrap(name, orig, attrs))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _self_time(span, children) -> float:
    """The span's duration minus the union of its children's intervals."""
    covered, reach = 0.0, span["start"]
    for child in sorted(children, key=lambda s: s["start"]):
        lo, hi = max(child["start"], reach), min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span["end"] - span["start"] - covered


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# The unit of every per-layer metric.  Work counts and their ratios repeat
# exactly for a given seed; times and thread use do not.
UNITS = {
    "cli.config_s": "s", "cli.report_s": "s", "cli.self_s": "s",
    "simulate.draw_s": "s", "simulate.draw_rows": "rows",
    "models.map_s": "s", "simulate.thread_util": "frac",
    "simulate.norm_s": "s",
    "simulate.write_binary_s": "s", "simulate.binary_bytes": "bytes",
    "simulate.write_csv_s": "s", "simulate.csv_bytes": "bytes",
    "stats.perm_s": "s", "stats.perm_replicates": "count",
    "stats.perm_s_per_replicate": "s",
    "stats.fstat_s": "s", "stats.ks_s": "s",
    "limits.gap_s": "s", "limits.quantile_s": "s",
    "limits.quantile_calls": "count",
    "limits.marginal_calls": "count",
    "limits.marginal_calls_per_quantile": "ratio",
    "limits.H_s": "s", "limits.H_calls": "count",
    "limits.H_calls_per_point": "ratio",
    "limits.errors": "count", "data.fit_errors": "count",
    "data.load_csv_s": "s", "data.rows_read": "rows",
    "data.rows_dropped": "rows", "data.csv_read_bytes": "bytes",
    "data.fit_s": "s", "data.fits": "count", "data.fit_iterations": "count",
    "data.diag_s": "s", "data.residual_s": "s",
}
WORK_COUNTS = [name for name, unit in UNITS.items()
               if unit in ("rows", "bytes", "count", "ratio")]


def layer_metrics(spans) -> dict:
    """Per-layer totals for the spans of one pass."""
    by_name, children = defaultdict(list), defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)

    def busy(name):
        return sum((s["end"] - s["start"] for s in by_name[name]), 0.0)

    def total(name, key):  # a call that raised has no attributes
        return sum(s.get(key, 0) for s in by_name[name])

    def errors(kind):
        return sum(1 for s in spans if s.get("error") == kind)

    mains = by_name["cli.main"]
    draw_capacity = sum((s["end"] - s["start"]) * s.get("threads", 1)
                        for s in by_name["simulate.draw"])
    surface_H = surface_points = 0
    for main in mains:
        if main["command"] == "limit-h":
            kids = children[main["id"]]
            surface_H += sum(1 for s in kids if s["name"] == "limits.H")
            surface_points += sum(s.get("points", 0) for s in kids
                                  if s["name"] == "cli.report")
    perm_s, replicates = busy("stats.perm"), total("stats.perm", "replicates")
    quantiles = len(by_name["limits.quantile"])
    # only the root finder's calls; factorization_gap also calls marginal_H
    # directly, once per grid level
    quantile_ids = {s["id"] for s in by_name["limits.quantile"]}
    solver_marginals = sum(1 for s in by_name["limits.marginal"]
                           if s["parent"] in quantile_ids)
    return {
        "cli.config_s": busy("cli.config"),
        "cli.report_s": busy("cli.report"),
        "cli.self_s": sum(_self_time(m, children[m["id"]]) for m in mains),
        "simulate.draw_s": busy("simulate.draw"),
        "simulate.draw_rows": total("simulate.draw", "rows"),
        "models.map_s": busy("models.map"),
        "simulate.thread_util": _ratio(busy("models.map"), draw_capacity),
        "simulate.norm_s": busy("simulate.norm"),
        "simulate.write_binary_s": busy("simulate.write_binary"),
        "simulate.binary_bytes": total("simulate.write_binary", "bytes"),
        "simulate.write_csv_s": busy("simulate.write_csv"),
        "simulate.csv_bytes": total("simulate.write_csv", "bytes"),
        "stats.perm_s": perm_s,
        "stats.perm_replicates": replicates,
        "stats.perm_s_per_replicate": _ratio(perm_s, replicates),
        "stats.fstat_s": busy("stats.fstat"),
        "stats.ks_s": busy("stats.ks"),
        "limits.gap_s": busy("limits.gap"),
        "limits.quantile_s": busy("limits.quantile"),
        "limits.quantile_calls": quantiles,
        "limits.marginal_calls": len(by_name["limits.marginal"]),
        "limits.marginal_calls_per_quantile":
            _ratio(solver_marginals, quantiles),
        "limits.H_s": busy("limits.H"),
        "limits.H_calls": len(by_name["limits.H"]),
        "limits.H_calls_per_point": _ratio(surface_H, surface_points),
        "limits.errors": errors("QuadConvergenceError"),
        "data.fit_errors": errors("FitConvergenceError"),
        "data.load_csv_s": busy("data.load_csv"),
        "data.rows_read": total("data.load_csv", "rows"),
        "data.rows_dropped": total("data.load_csv", "dropped"),
        "data.csv_read_bytes": total("data.load_csv", "bytes"),
        "data.fit_s": busy("data.fit"),
        "data.fits": len(by_name["data.fit_norming"]),
        "data.fit_iterations": total("data.fit_norming", "iterations"),
        "data.diag_s": busy("data.diag"),
        "data.residual_s": busy("data.residual"),
    }
