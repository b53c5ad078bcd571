"""Paired benchmark runs of a parent revision against this checkout.

    python scripts/bench_pairs.py --parent REV --workloads limit-law \\
        --seeds 4001-4010 --out BENCH_name.json \\
        [--claim limit-law:pass_ref] [--trace-seed 1] [--change TEXT]

Extracts REV with ``git archive`` into a temporary directory, deleted at
the end.  For each workload and seed it runs ``perfbench/run.py --trace
0`` for ``BENCHMARK.json``'s ``run_seconds``, once in the parent tree and
once in this checkout's working tree: parent first at even positions of
the seed list, second at odd ones.  Each side runs its own
``perfbench/`` on its own ``src/``.  The result, in the format of
``BENCH_simulate_stream.json``, holds per metric and workload each
side's median and quartiles, the per-seed pairs and how many pairs the
change won.  ``--claim`` adds whether the change won at least 9 in 10
pairs with a median gap wider than the parent's quartile spread.
``--trace-seed`` adds one ``--trace 1`` run per side and workload: its
work counts and its nonzero times.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy", "scipy", "L1", "L2", "L3")
WORK_UNITS = ("count", "ratio", "rows", "bytes")
WIN_SHARE = 0.9


def seed_list(specs) -> list:
    """Seeds from items such as ``4001-4010`` or ``7``."""
    seeds = []
    for spec in specs:
        first, _, last = spec.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def extract(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:
            archive.extractall(dest)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``: its metrics, correctness and machine."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = json.loads(next(line for line in lines if line.startswith("machine "))[8:])
    return {"correct": result["correct"], "machine": machine,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "units": {k: v["unit"] for k, v in result["metrics"].items()}}


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(runs: dict, better: dict) -> dict:
    """Medians, quartiles, pairs and wins of one workload's runs."""
    out = {}
    for side in ("parent", "change"):
        out[side] = {m: summary([r["metrics"][m] for r in runs[side]]) for m in better}
        out[side]["correct"] = all(r["correct"] for r in runs[side])
    pairs = {m: [[round(p["metrics"][m], 4), round(c["metrics"][m], 4)]
                 for p, c in zip(runs["parent"], runs["change"])] for m in better}
    out["change_wins"] = {
        m: f"{sum((c < p) if better[m] == 'lower' else (c > p) for p, c in pairs[m])}"
           f"/{len(pairs[m])}" for m in better}
    out["pairs"] = pairs
    return out


def claim_check(result: dict, metric: str) -> dict:
    """Whether the change won WIN_SHARE of the pairs by more than the
    parent's quartile spread."""
    parent, change = result["parent"][metric], result["change"][metric]
    won, total = (int(k) for k in result["change_wins"][metric].split("/"))
    spread = parent["q3"] - parent["q1"]
    gap = abs(change["median"] - parent["median"])
    return {"change_wins": f"{won}/{total}", "median_gap": round(gap, 4),
            "parent_quartile_spread": round(spread, 4),
            "holds": won >= WIN_SHARE * total and gap > spread}


def traced(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """A traced run's work counts and nonzero times."""
    r = run(tree, workload, seed, seconds, 1)
    return {"correct": r["correct"],
            **{k: (v if r["units"][k] in WORK_UNITS else round(v, 4))
               for k, v in r["metrics"].items() if r["units"][k] in WORK_UNITS or v}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="e.g. 4001-4010 or 7 8")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--trace-seed", type=int, help="seed of one traced run per side")
    parser.add_argument("--change", default="", help="what the change does")
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    if args.claim and args.claim.partition(":")[0] not in args.workloads:
        parser.error("--claim names a workload that is not run")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    record = {"change": args.change,
              "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                         f"--seconds {seconds:g} --trace 0",
              "pairing": "one parent and one change run per seed, alternating which side "
                         "runs first (parent first at even positions of the seed list)",
              "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs "
                           "of one side",
              "parent_rev": subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                                           capture_output=True, text=True,
                                           check=True).stdout.strip()}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        extract(args.parent, trees["parent"])
        record["workloads"], sha = {}, {}
        for workload in args.workloads:
            runs = {"parent": [], "change": []}
            for k, seed in enumerate(seeds):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    r = run(trees[side], workload, seed, seconds, 0)
                    runs[side].append(r)
                    sha[side] = r["machine"]["source_sha256"]
                    record.setdefault("machine", {key: r["machine"][key] for key in
                                                  MACHINE_KEYS if key in r["machine"]})
                    print(f"{workload} seed {seed} {side}: " + " ".join(
                        f"{m} {r['metrics'][m]:.4g}" for m in better), flush=True)
            record["workloads"][workload] = {"seeds": seeds, "runs_per_side": len(seeds),
                                             **compare(runs, better)}
        record["source_sha256"] = sha
        if args.claim:
            workload, metric = args.claim.split(":")
            record["claimed"] = {"workload": workload, "metric": metric,
                                 **claim_check(record["workloads"][workload], metric)}
        if args.trace_seed is not None:
            record[f"trace_seed{args.trace_seed}"] = {
                workload: {side: traced(tree, workload, args.trace_seed, seconds)
                           for side, tree in trees.items()}
                for workload in args.workloads}
    args.out.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
