"""Check that `cevnorm simulate` holds a fixed working set as n grows.

    python scripts/check_simulate_memory.py

Runs `simulate` (--threads 2) at n = 1e6 and at n = 4e6, each in its own
child process, once with binary output and once with CSV output, and
takes each child's peak resident set (ru_maxrss, in kB on Linux) from
os.wait4.  Exits 1 if, for either format, the larger run peaks more than
MAX_GROWTH_MB above the smaller: a sample held whole adds 24 bytes per
row, about 72 MB between the two, and its CSV text about 55.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIZES = (1_000_000, 4_000_000)
FORMATS = ("binary", "csv")
MAX_GROWTH_MB = 32
SRC = Path(__file__).resolve().parent.parent / "src"


def peak_mb(n: int, fmt: str, tmp: Path) -> float:
    """Peak resident set of one `simulate` child writing fmt, in MB."""
    config = tmp / f"config_{fmt}_{n}.json"
    config.write_text(json.dumps({
        "run": {"n": n, "seed": 0, "t": 10.0},
        "io": {"output_dir": str(tmp / f"out_{fmt}_{n}"), "formats": [fmt]},
    }))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "cevnorm.cli", "simulate",
                             "--config", str(config), "--threads", "2"], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"simulate to {fmt} at n = {n} exited {proc.returncode}")
    return usage.ru_maxrss / 1024


def main() -> int:
    failed = False
    for fmt in FORMATS:
        with tempfile.TemporaryDirectory() as tmp:
            small, large = (peak_mb(n, fmt, Path(tmp)) for n in SIZES)
        growth = large - small
        print(f"simulate to {fmt} peak RSS: {small:.1f} MB at n = {SIZES[0]}, "
              f"{large:.1f} MB at n = {SIZES[1]}, growth {growth:.1f} MB "
              f"(limit {MAX_GROWTH_MB} MB)")
        failed |= growth > MAX_GROWTH_MB
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
