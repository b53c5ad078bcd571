"""The benchmark's workloads: inputs made from a seed, the CLI commands of
one pass, and the checks every command's output must pass.

Each workload writes its configs into a work directory when it is built.
Its ``prepare`` makes the inputs that cost memory (``diagnose``'s data
file, ``verify-rn``'s reference statistic) in a child process, so that the
benchmark's peak memory is the program's:

    PYTHONPATH=src python3 perfbench/workloads.py NAME SEED WORK [SIZES_JSON]

prints, as JSON, the facts the checks need.  All of it happens outside
any timed region.  A pass runs ``invocations`` in order through
``cevnorm.cli.main``; after the pass each invocation's ``check`` is
called with the exit code it returned and raises ``CheckFailed`` when
the output is wrong.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cevnorm.cli import Config
from cevnorm.simulate import (
    CHUNK_ROWS,
    apply_random_norming,
    draw_exceedances,
    read_binary,
)

LEVELS = [round(0.05 * k, 2) for k in range(1, 20)]
ERV = {"a": 1.0, "rho": 0.5, "kappa": 1.0}
GAUSSIAN = {"family": "gaussian", "location": 0.0, "scale": 1.0}
UNIFORM = {"family": "uniform", "location": 0.0, "scale": 1.0}

# max |H - H1*H2| on the 19-level grid at quad_abs_tol 1e-9.  The Gaussian
# value is GAP_ORACLE for the canonical model in the acceptance tests; the
# uniform one was pinned from the same quadrature.
GAP_GAUSSIAN = 0.07619957515658965
GAP_UNIFORM = 0.188289473683538
GAP_TOL = 1e-6

BAD_CELLS = ("NA", "", "-", "null")


class CheckFailed(Exception):
    """An invocation's exit code or output is wrong."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def model(noise=GAUSSIAN) -> dict:
    """The canonical model (rho 0.5, kappa 1, a 1) with the given noise law."""
    return {"erv1": ERV, "erv2": ERV, "noise1": noise, "noise2": noise}


def load_report(out: Path, command: str) -> dict:
    with open(out / f"report_{command.replace('-', '_')}.json") as fh:
        return json.load(fh)


def expect_p_on_lattice(p: float, b: int) -> None:
    k = p * (b + 1)
    expect(abs(k - round(k)) < 1e-9 and 1 <= round(k) <= b + 1,
           f"p_value {p!r} is not k/(b+1) for b={b}")


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def reference_factorization_stat(w1, w2, levels) -> float:
    """max |F12 - F1*F2| over the marginal-quantile grid, from indicators.

    Independent of ``cevnorm.stats``: it builds the joint ECDF as a
    product of indicator matrices instead of a cell histogram.
    """
    le1 = (w1[:, None] <= np.quantile(w1, levels)).astype(float)
    le2 = (w2[:, None] <= np.quantile(w2, levels)).astype(float)
    n = w1.size
    joint = le1.T @ le2 / n
    return float(np.max(np.abs(joint - np.outer(le1.mean(axis=0), le2.mean(axis=0)))))


@dataclass
class Invocation:
    label: str
    command: str
    config: Path
    out: Path
    argv: list
    check: Callable[["Invocation", int], None]


class Workload:
    """Base class: holds the invocations of one pass."""

    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed
        self.invocations: list[Invocation] = []
        self.facts: dict = {}
        self.work.mkdir(parents=True, exist_ok=True)

    def add(self, label, command, raw, threads, check) -> Invocation:
        config = self.work / f"{label}.json"
        config.write_text(json.dumps({"schema_version": 1, **raw}, indent=1))
        out = self.work / label
        argv = [command, "--config", str(config), "--seed", str(self.seed),
                "--threads", str(threads), "--out", str(out)]
        inv = Invocation(label, command, config, out, argv, check)
        self.invocations.append(inv)
        return inv

    def prepare(self) -> dict:
        """Make the costly inputs; return what the checks need of them as ``facts``."""
        return {}

    def clear_outputs(self) -> None:
        """Remove every output so a check never reads an earlier pass's files."""
        for inv in self.invocations:
            shutil.rmtree(inv.out, ignore_errors=True)

    def final_check(self) -> None:
        """Checks too heavy for every pass; run once on the last pass's files."""


class VerifyRn(Workload):
    """verify-rn on the canonical model at the README example size."""

    name = "verify-rn"
    DELTA_MAX = 0.012
    LEVEL = 0.01

    def __init__(self, work, seed, n=100_000, b=999):
        super().__init__(work, seed)
        self.b = b
        raw = {"model": model(), "run": {"t": 50.0, "n": n, "seed": seed},
               "analysis": {"levels": LEVELS, "b": b, "thresholds": {
                   "delta_max": self.DELTA_MAX, "level": self.LEVEL}}}
        self.n = n
        self.add("verify-rn", "verify-rn", raw, 1, self.check)

    def prepare(self):
        cfg = Config.load(self.invocations[0].config)
        normed = apply_random_norming(
            draw_exceedances(cfg.model, 50.0, self.n, self.seed), cfg.model)
        return {"delta": reference_factorization_stat(normed.w1, normed.w2, LEVELS)}

    def check(self, inv, code):
        rep = load_report(inv.out, inv.command)
        m, v = rep["metrics"], rep["verdicts"]
        expect(set(v) == {"delta_below_max", "independence_not_rejected"},
               f"unexpected verdicts {v}")
        # a rejection of the (true) null at level 0.01 is a clean exit 1
        expect(code == (0 if all(v.values()) else 1),
               f"exit {code} disagrees with verdicts {v}")
        expect(v["delta_below_max"] == (m["delta"] < self.DELTA_MAX),
               "delta verdict disagrees with delta")
        expect(v["independence_not_rejected"] == (m["p_value"] > self.LEVEL),
               "independence verdict disagrees with p_value")
        expect(abs(m["delta"] - self.facts["delta"]) <= 1e-12,
               f"delta {m['delta']!r} != reference {self.facts['delta']!r}")
        expect(m["b"] == self.b, f"b {m['b']} != {self.b}")
        expect_p_on_lattice(m["p_value"], self.b)
        for key in ("ks1", "ks2"):
            expect(0.0 < m[key] < 1.0, f"{key} {m[key]!r} outside (0, 1)")


class LimitLaw(Workload):
    """gap on Gaussian and uniform noise, then limit-h, on the 19-level grid."""

    name = "limit-law"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        analysis = {"grid_levels": LEVELS, "quad_abs_tol": 1e-9}
        self.gaussian = self.add("gap-gaussian", "gap", {"model": model(), "analysis": analysis},
                                 1, self.gap_check(GAP_GAUSSIAN))
        self.add("gap-uniform", "gap", {"model": model(UNIFORM), "analysis": analysis},
                 1, self.gap_check(GAP_UNIFORM))
        self.add("limit-h", "limit-h", {"model": model(), "analysis": analysis},
                 1, self.check_surface)

    @staticmethod
    def gap_check(oracle):
        def check(inv, code):
            expect(code == 0, f"exit {code}")
            gap = load_report(inv.out, inv.command)["metrics"]["gap"]
            expect(abs(gap - oracle) <= GAP_TOL, f"gap {gap!r} != oracle {oracle!r}")
            expect(count_lines(inv.out / "gap_table.csv") == len(LEVELS) ** 2 + 1,
                   "gap_table.csv row count")
        return check

    def check_surface(self, inv, code):
        expect(code == 0, f"exit {code}")
        table = np.loadtxt(inv.out / "limit_h_surface.csv", delimiter=",",
                           skiprows=1, ndmin=2)
        expect(table.shape == (len(LEVELS) ** 2, 5), f"surface shape {table.shape}")
        expect(bool(np.all((table[:, 2] >= 0) & (table[:, 2] <= 1))), "H outside [0, 1]")
        surface_gap = float(np.max(np.abs(table[:, 4])))
        gap = load_report(self.gaussian.out, "gap")["metrics"]["gap"]
        expect(abs(surface_gap - gap) <= 1e-12,
               f"surface max |diff| {surface_gap!r} != gap {gap!r}")


def write_dataset(path: Path, rows: int, seed: int) -> int:
    """Write the canonical model at t = 1 as an x0,x1,x2 CSV.

    Mixes in a small share of rows holding a non-numeric cell, which the
    loader must drop.  Returns how many such rows were written.
    """
    rng = np.random.default_rng(seed)
    x0 = 1.0 / (1.0 - rng.random(rows))
    root = np.sqrt(x0)  # alpha(x0) for rho = 0.5, a = 1
    beta = 2.0 * (root - 1.0)  # kappa (x0**rho - 1) / rho
    x1 = beta + root * rng.standard_normal(rows)
    x2 = beta + root * rng.standard_normal(rows)
    lines = [f"{a!r},{b!r},{c!r}" for a, b, c in zip(x0.tolist(), x1.tolist(), x2.tolist())]
    n_bad = int(rng.integers(rows // 2000, rows // 1000 + 1))
    for pos in np.sort(rng.choice(rows, n_bad, replace=False))[::-1]:
        cells = lines[pos].split(",")
        cells[rng.integers(3)] = BAD_CELLS[rng.integers(len(BAD_CELLS))]
        lines.insert(int(pos), ",".join(cells))
    path.write_text("x0,x1,x2\n" + "\n".join(lines) + "\n")
    return n_bad


class Diagnose(Workload):
    """diagnose on a CSV of the canonical model at t = 1."""

    name = "diagnose"

    def __init__(self, work, seed, rows=200_000, b=999):
        super().__init__(work, seed)
        self.rows, self.b = rows, b
        self.data = self.work / "data.csv"
        raw = {"model": model(), "run": {"seed": seed}, "analysis": {"b": b},
               "data": {"path": str(self.data), "conditioning_column": "x0",
                        "value_columns": ["x1", "x2"], "family": "gaussian",
                        "p_t": 0.95}}
        self.add("diagnose", "diagnose", raw, 1, self.check)

    def prepare(self):
        return {"injected": write_dataset(self.data, self.rows, self.seed)}

    def check(self, inv, code):
        expect(code == 0, f"exit {code}")
        m = load_report(inv.out, inv.command)["metrics"]
        expect(m["n_rows"] == self.rows, f"n_rows {m['n_rows']} != {self.rows}")
        expect(m["n_dropped"] == self.facts["injected"],
               f"n_dropped {m['n_dropped']} != {self.facts['injected']}")
        fits = json.loads((inv.out / "fitted_norming.json").read_text())
        expect(fits["fit1"]["converged"] and fits["fit2"]["converged"],
               "a fit did not converge")
        expect(count_lines(inv.out / "residuals.csv") == m["n_exceedances"] + 1,
               "residuals.csv row count != n_exceedances")
        expect(m["b"] == self.b, f"b {m['b']} != {self.b}")
        expect_p_on_lattice(m["p_value"], self.b)


class SampleWrite(Workload):
    """simulate to binary with 2 threads, then a smaller simulate to CSV."""

    name = "sample-write"

    def __init__(self, work, seed, n_binary=5_000_000, n_csv=200_000):
        super().__init__(work, seed)
        self.n_binary, self.n_csv = n_binary, n_csv
        run = {"t": 50.0, "seed": seed}
        self.binary = self.add("simulate-binary", "simulate",
                               {"model": model(), "run": {**run, "n": n_binary},
                                "io": {"formats": ["binary"]}}, 2, self.check_binary)
        self.add("simulate-csv", "simulate",
                 {"model": model(), "run": {**run, "n": n_csv},
                  "io": {"formats": ["csv"]}}, 1, self.check_csv)

    @staticmethod
    def written(inv) -> Path:
        files = load_report(inv.out, inv.command)["files"]
        expect(len(files) == 1, f"report lists {files}")
        return Path(files[0])

    def check_binary(self, inv, code):
        expect(code == 0, f"exit {code}")
        size = self.written(inv).stat().st_size
        expect(size > 24 * self.n_binary, f"binary file of {size} bytes")

    def check_csv(self, inv, code):
        expect(code == 0, f"exit {code}")
        path = self.written(inv)
        with open(path) as fh:
            expect(fh.readline() == "x0,x1,x2\n", "CSV header")
        expect(count_lines(path) == self.n_csv + 1, "CSV line count != n + 1")

    def final_check(self):
        sample = read_binary(self.written(self.binary))
        expect(sample.n == self.n_binary and sample.x0.size == self.n_binary,
               f"read_binary returned {sample.x0.size} rows")
        cfg = Config.load(self.binary.config)
        redraw = draw_exceedances(cfg.model, 50.0, CHUNK_ROWS + 2, self.seed, threads=1)
        for i in (0, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1):
            for col in ("x0", "x1", "x2"):
                expect(getattr(sample, col)[i] == getattr(redraw, col)[i],
                       f"row {i} {col} differs from a threads=1 redraw")


WORKLOADS = {w.name: w for w in (VerifyRn, LimitLaw, Diagnose, SampleWrite)}


if __name__ == "__main__":
    name, seed, work, *sizes = sys.argv[1:]
    workload = WORKLOADS[name](Path(work), int(seed), **json.loads(sizes[0] if sizes else "{}"))
    print(json.dumps(workload.prepare()))
