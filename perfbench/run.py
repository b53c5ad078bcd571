"""cevnorm benchmark: fixed CLI workloads, run in-process and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One process runs a closed loop: a pass (every command of the
workload, through ``cevnorm.cli.main``) starts only when the previous one
has ended.  After one warm-up pass it times passes for S seconds and
checks every command's output after each pass.

With ``--trace 0`` it reports the end-to-end metrics: the median pass
time in units of a fixed reference computation timed beside each pass,
the set-up time (import plus config load, over fresh interpreters), peak
resident memory and the share of invocations that passed their checks.
With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of ``tracing.py``, the tracing overhead and any
work count that differs between traced passes; the spans go to
``.bench_out/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("verify-rn", "limit-law", "diagnose", "sample-write")
SETUP_RUNS = 7
REFERENCE_LOOP = 3_000_000

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import cevnorm.cli
cevnorm.cli.Config.load(sys.argv[1])
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {"pass_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
TRACE_UNITS = {"bench.untraced_pass_s": "s", "bench.traced_pass_s": "s",
               "bench.trace_overhead": "frac", "bench.unstable_counts": "count"}


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import cevnorm from it."""
    if not (SRC / "cevnorm" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no cevnorm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cevnorm
    if Path(cevnorm.__file__).resolve().parent != SRC / "cevnorm":
        raise SystemExit(f"perfbench: imported cevnorm from {cevnorm.__file__}, not {SRC}")


def machine_info() -> dict:
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    info["commit"] = None  # an exported checkout is not a git repository
    if (ROOT / ".git").exists():
        try:
            info["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    info["source_sha256"] = digest.hexdigest()
    return info


def run_child(args: list) -> str:
    """Run ``python3 args`` with the checkout's ``src/`` on the path; return its output."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout.strip().splitlines()[-1]


def setup_time(config: Path) -> float:
    """Import plus ``Config.load`` of ``config`` in a fresh interpreter."""
    return float(run_child(["-c", SETUP_PROBE, str(config)]))


class Runner:
    """Runs passes of one workload and counts the invocations that fail."""

    def __init__(self, workload, tracer=None):
        from cevnorm.cli import main

        self.main = main
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, inv, traced):
        try:
            if not traced:
                return self.main(inv.argv)
            with self.tracer.span("cli.main", command=inv.command):
                return self.main(inv.argv)
        except Exception:  # an uncaught error is a failed invocation, not a crash
            traceback.print_exc()
            return None

    def run_pass(self, traced=False) -> float:
        """One timed pass, then its checks; returns the pass's wall time."""
        from workloads import CheckFailed

        self.workload.clear_outputs()
        gc.collect()
        if traced:
            self.tracer.pass_no += 1
        start = perf_counter()
        codes = [self.invoke(inv, traced) for inv in self.workload.invocations]
        elapsed = perf_counter() - start
        for inv, code in zip(self.workload.invocations, codes):
            self.attempted += 1
            try:
                if code is None:
                    raise CheckFailed("raised an uncaught exception")
                inv.check(inv, code)
            except Exception as exc:  # a check that cannot read the output fails it
                self.failures.append(f"{inv.label}: {type(exc).__name__}: {exc}")
        return elapsed

    def final_check(self) -> None:
        self.attempted += 1
        try:
            self.workload.final_check()
        except Exception as exc:
            self.failures.append(f"final check: {type(exc).__name__}: {exc}")


def build_workload(name: str, seed: int, work: Path, sizes: dict | None = None):
    """The workload, with its costly inputs made in a child process."""
    import workloads

    workload = workloads.WORKLOADS[name](work, seed, **(sizes or {}))
    if type(workload).prepare is not workloads.Workload.prepare:
        workload.facts = json.loads(run_child(
            [workloads.__file__, name, str(seed), str(work), json.dumps(sizes or {})]))
    return workload


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop that uses no cevnorm code.

    The speed of a shared host drifts by up to 1.7x over minutes; the
    loop, timed on the same core next to a pass, follows that drift and
    allocates nothing, so it does not move peak memory.
    """
    start = perf_counter()
    total = 0
    for k in range(REFERENCE_LOOP):
        total += k * k
    return perf_counter() - start


def peak_rss_mb() -> float:
    """The highest resident memory this process has had so far.

    Linux's ``VmHWM`` counts this program only; ``ru_maxrss`` also keeps
    the peak of the process that forked it, from before the exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, work: Path, sizes=None,
            setup_runs=SETUP_RUNS) -> dict:
    """End-to-end metrics of one run with tracing off."""
    workload = build_workload(name, seed, work, sizes)
    config = workload.invocations[0].config
    runner = Runner(workload)
    built_mb = peak_rss_mb()
    runner.run_pass()  # warm-up
    # the set-up probes are spread evenly over the timed passes, so that
    # both sample the whole run; a reference loop runs before the first
    # pass and after every pass
    times, refs, setup = [], [reference_s()], []
    while not times or sum(times) < seconds:
        times.append(runner.run_pass())
        refs.append(reference_s())
        while len(setup) < min(setup_runs, setup_runs * sum(times) / seconds):
            setup.append(setup_time(config))
    setup += [setup_time(config) for _ in range(setup_runs - len(setup))]
    peak_mb = peak_rss_mb()
    if peak_mb <= built_mb:
        print(f"perfbench: peak_rss_mb {peak_mb:.1f} was reached while the inputs were "
              "built, not in the timed passes", file=sys.stderr)
    runner.final_check()
    metrics = {
        "pass_ref": statistics.median(
            2.0 * t / (before + after) for t, before, after in zip(times, refs, refs[1:])),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
        "ok_frac": 1.0 - len(runner.failures) / runner.attempted,
    }
    return {"runner": runner, "metrics": metrics, "units": END_TO_END_UNITS,
            "detail": {"passes": len(times), "pass_s": statistics.median(times),
                       "pass_times_s": times, "reference_s": refs, "setup_times_s": setup,
                       "built_rss_mb": built_mb}}


def measure_traced(name: str, seed: int, seconds: float, work: Path, sizes=None) -> dict:
    """Per-layer metrics from traced passes, alternated with untraced ones."""
    from tracing import UNITS, WORK_COUNTS, Tracer, installed, layer_metrics

    tracer = Tracer()
    runner = Runner(build_workload(name, seed, work, sizes), tracer)
    runner.run_pass()  # warm-up
    plain, traced = [], []
    while len(traced) < 2 or sum(plain) + sum(traced) < seconds:
        plain.append(runner.run_pass())
        with installed(tracer):
            traced.append(runner.run_pass(traced=True))
    runner.final_check()

    per_pass = [layer_metrics([s for s in tracer.spans if s["pass"] == k])
                for k in range(1, tracer.pass_no + 1)]
    metrics = {key: (statistics.median(p[key] for p in per_pass)
                     if UNITS[key] in ("s", "frac") else per_pass[0][key])
               for key in UNITS}
    unstable = [key for key in WORK_COUNTS if len({p[key] for p in per_pass}) > 1]
    for key in unstable:
        print(f"perfbench: work count {key} differs between traced passes: "
              f"{[p[key] for p in per_pass]}", file=sys.stderr)
    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics.update({"bench.untraced_pass_s": untraced_s, "bench.traced_pass_s": traced_s,
                    "bench.trace_overhead": traced_s / untraced_s - 1.0,
                    "bench.unstable_counts": len(unstable)})
    return {"runner": runner, "metrics": metrics, "units": {**UNITS, **TRACE_UNITS},
            "spans": tracer.spans,
            "detail": {"traced_passes": len(traced), "untraced_passes": len(plain),
                       "unstable_counts": unstable}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        run = (measure_traced if args.trace else measure)(
            args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runner = run["runner"]
    machine = machine_info()
    for failure in runner.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, **run["detail"],
              "metrics": run["metrics"], "units": run["units"],
              "attempted": runner.attempted, "failures": runner.failures}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if "spans" in run:
        (OUT / f"{tag}.spans.json").write_text(json.dumps(run["spans"]) + "\n")

    print("machine " + json.dumps(machine, sort_keys=True))
    for key, value in run["detail"].items():
        print(f"{key} {value}")
    for key, value in run["metrics"].items():
        print(f"{key} {value} {run['units'][key]}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": run["units"][k]}
                    for k, v in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
