"""Check that `cevnorm simulate` holds a fixed working set as n grows.

    python scripts/check_simulate_memory.py

Runs `simulate` (binary output, --threads 2) at n = 1e6 and at n = 4e6,
each in its own child process, and takes each child's peak resident set
(ru_maxrss, in kB on Linux) from os.wait4.  Exits 1 if the larger run
peaks more than MAX_GROWTH_MB above the smaller: a sample held whole
adds 24 bytes per row, about 72 MB between the two.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIZES = (1_000_000, 4_000_000)
MAX_GROWTH_MB = 32
SRC = Path(__file__).resolve().parent.parent / "src"


def peak_mb(n: int, tmp: Path) -> float:
    """Peak resident set of one `simulate` child, in MB."""
    config = tmp / f"config_{n}.json"
    config.write_text(json.dumps({
        "run": {"n": n, "seed": 0, "t": 10.0},
        "io": {"output_dir": str(tmp / f"out_{n}"), "formats": ["binary"]},
    }))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "cevnorm.cli", "simulate",
                             "--config", str(config), "--threads", "2"], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"simulate at n = {n} exited {proc.returncode}")
    return usage.ru_maxrss / 1024


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        small, large = (peak_mb(n, Path(tmp)) for n in SIZES)
    growth = large - small
    print(f"simulate peak RSS: {small:.1f} MB at n = {SIZES[0]}, "
          f"{large:.1f} MB at n = {SIZES[1]}, growth {growth:.1f} MB "
          f"(limit {MAX_GROWTH_MB} MB)")
    return 1 if growth > MAX_GROWTH_MB else 0


if __name__ == "__main__":
    sys.exit(main())
