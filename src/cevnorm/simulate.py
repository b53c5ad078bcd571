"""Conditioned Monte Carlo engine.

Draws (x0, x1, x2) triples given X0 > t and applies random norming
(divide out the realised value x0) or deterministic norming (divide out
the level t only).

Randomness comes from a counter-based Philox stream keyed by the seed.
Each row owns one 256-bit counter block (four sub-uniforms, three used),
so any chunked or threaded execution reproduces the single-threaded
sample bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import CiModel, conditional_from_uniforms, pareto_exceedance_from_uniform
from .norming import normed

CHUNK_ROWS = 1 << 16
# simulate draws and writes this many rows at a time, so its working set
# does not grow with n.  Each block starts a pool and ends at a barrier:
# on 2 threads, 4- and 8-chunk blocks drew 5e6 rows 17% and 7% slower.
BLOCK_ROWS = 16 * CHUNK_ROWS
MAX_ROWS = 50_000_000  # row budget of one draw

_MAGIC = b"CEVNSMP1"  # 8 bytes; header is magic + u32 version + u32 kind


class ModelMismatchError(ValueError):
    """Sample was generated from a different model than the one supplied."""


@dataclass(frozen=True)
class ExceedanceSample:
    """Conditioned draws (x0, x1, x2) with x0 > t, column-major."""

    x0: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    t: float
    n: int
    seed: int
    model_id: str
    stream: int = 0


class NormedSample(NamedTuple):
    """Pairs (w1, w2) after norming."""

    w1: np.ndarray
    w2: np.ndarray


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _row_uniforms(seed: int, stream: int, lo: int, hi: int) -> np.ndarray:
    # an explicit uint64 array: a list holding an int >= 2**63 passes
    # through float64 and loses its low bits
    key = np.array([seed & (2**64 - 1), stream & (2**64 - 1)], dtype=np.uint64)
    bg = np.random.Philox(key=key)
    bg.advance(lo)
    return np.random.Generator(bg).random((hi - lo) * 4).reshape(-1, 4)


def draw_exceedances(
    model: CiModel,
    t: float,
    n: int,
    seed: int,
    threads: int = 1,
    stream: int = 0,
    start: int = 0,
) -> ExceedanceSample:
    """Draw rows start .. start+n-1 of the i.i.d. triples from the
    conditional law given X0 > t.

    Deterministic in (model, t, n, seed, stream, start) regardless of the
    thread count or chunking: row i is the same whichever draw holds it.
    Raises FloatingPointError if any row is not finite, for example when
    the model overflows.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_ROWS:
        raise ValueError(f"n={n} exceeds the row budget of {MAX_ROWS}")
    if start < 0:
        raise ValueError("start must be >= 0")

    out = np.empty((3, n))

    def run(lo):
        # each chunk fills only its own columns of out
        hi = min(lo + CHUNK_ROWS, n)
        u = _row_uniforms(seed, stream, start + lo, start + hi)
        np.maximum(u, 2.0**-53, out=u)
        rows = out[:, lo:hi]
        # numpy's error state does not reach pool threads, so set it here;
        # rows that overflow are counted and raised on below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rows[0] = pareto_exceedance_from_uniform(t, u[:, 0])
            rows[1], rows[2] = conditional_from_uniforms(model, rows[0], u[:, 1], u[:, 2])
        return hi - lo - np.count_nonzero(np.isfinite(rows).all(axis=0))

    starts = range(0, n, CHUNK_ROWS)
    # each worker holds a chunk's temporaries; more than the CPUs draw no faster
    workers = min(threads, len(starts), _available_cpus())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            n_bad = sum(pool.map(run, starts))
    else:
        n_bad = sum(map(run, starts))
    if n_bad:
        where = f" from row {start}" if start else ""
        raise FloatingPointError(f"{n_bad} of {n} rows{where} are not finite")

    return ExceedanceSample(
        x0=out[0], x1=out[1], x2=out[2], t=float(t), n=n, seed=seed,
        model_id=model.content_hash(), stream=stream,
    )


def _normed_sample(sample: ExceedanceSample, model: CiModel, t) -> NormedSample:
    if sample.model_id != model.content_hash():
        raise ModelMismatchError(
            f"sample was drawn from model {sample.model_id}, "
            f"got model {model.content_hash()}"
        )
    return NormedSample(normed(sample.x1, t, model.erv1), normed(sample.x2, t, model.erv2))


def apply_random_norming(sample: ExceedanceSample, model: CiModel) -> NormedSample:
    """Norm each row by the realised conditioning value: w_i = normed(x_i, x0)."""
    return _normed_sample(sample, model, sample.x0)


def apply_deterministic_norming(sample: ExceedanceSample, model: CiModel) -> NormedSample:
    """Norm each row by the level only: w_i = normed(x_i, t)."""
    return _normed_sample(sample, model, sample.t)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_table(path, names, columns, append: bool = False) -> None:
    """Write equal-length float columns as CSV under the header names, or
    with append set, add them as rows after those the file holds.

    The one CSV writer: each value is its shortest round-trip repr, and
    rows are formatted in blocks of CHUNK_ROWS, so a block's strings are
    the only copy held.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "a" if append else "w", newline="", encoding="utf-8") as fh:
        if not append:
            fh.write(",".join(names) + "\n")
        for lo in range(0, len(columns[0]), CHUNK_ROWS):
            cells = [map(repr, c[lo:lo + CHUNK_ROWS].tolist()) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_csv(sample: ExceedanceSample, path, start: int = 0) -> None:
    """Write x0,x1,x2 as CSV.  A sample of rows from start > 0 on is
    appended to the file that holds the rows before it."""
    write_table(path, ("x0", "x1", "x2"), (sample.x0, sample.x1, sample.x2),
                append=start > 0)


def write_binary(sample: ExceedanceSample, path, start: int = 0,
                 n: int | None = None) -> None:
    """Binary sample file: 16-byte header, JSON metadata, float64 columns.

    Without n, sample is the whole file.  With n, sample is the block of
    rows from start on of an n-row file: the block at row 0 creates the
    file and its header, and every block writes its three columns at
    their rows.
    """
    if n is not None and start + sample.n > n:
        raise ValueError(f"rows {start}..{start + sample.n - 1} do not fit in n = {n}")
    meta = {"t": sample.t, "n": sample.n if n is None else n, "seed": sample.seed,
            "model_id": sample.model_id, "stream": sample.stream}
    _check_meta(meta, path)  # write no file that read_binary refuses
    blob = json.dumps(meta, sort_keys=True).encode()
    header = _MAGIC + struct.pack("<III", 1, 1, len(blob)) + blob
    with open(path, "r+b" if start else "wb") as fh:
        if not start:
            fh.write(header)
        for i, col in enumerate((sample.x0, sample.x1, sample.x2)):
            if n is not None:
                fh.seek(len(header) + 8 * (i * n + start))
            fh.write(memoryview(np.ascontiguousarray(col, dtype="<f8")).cast("B"))


# (key, test, what it must be): the metadata write_binary writes and
# read_binary accepts.  type(), not isinstance(): a JSON true or false
# loads as a bool, which is an int
_META_RULES = (
    ("t", lambda v: (type(v) is int or type(v) is float and math.isfinite(v))
     and v >= 1, "a finite number >= 1"),
    ("n", lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    ("seed", lambda v: type(v) is int and 0 <= v < 2**64, "an integer in [0, 2**64)"),
    ("model_id", lambda v: type(v) is str, "a string"),
    ("stream", lambda v: type(v) is int and 0 <= v < 2**64, "an integer in [0, 2**64)"),
)


def _check_meta(meta: dict, path) -> None:
    for key, ok, what in _META_RULES:
        if key in meta and not ok(meta[key]):
            raise ValueError(f"{path}: metadata {key} is not {what}: {meta[key]!r}")


def read_binary(path) -> ExceedanceSample:
    """Load an ExceedanceSample written by write_binary.

    Raises ValueError naming the path if the file is not a version-1
    sample file, its metadata is not a JSON object with keys t, n, seed and
    model_id of the types _META_RULES asks (and stream, if present), or
    its columns are not exactly 3 x n float64 values.
    """
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:8] != _MAGIC:
            raise ValueError(f"{path}: not a cevnorm sample file")
        version, kind = struct.unpack("<II", header[8:])
        if (version, kind) != (1, 1):
            raise ValueError(f"{path}: unsupported sample file version {version} kind {kind}")
        size = fh.read(4)
        # a file cut inside the length field has no metadata, which is not JSON
        blob = fh.read(struct.unpack("<I", size)[0]) if len(size) == 4 else b""
        try:
            meta = json.loads(blob)
        except ValueError as exc:
            raise ValueError(f"{path}: metadata is not JSON ({exc})") from exc
        if not (isinstance(meta, dict) and {"t", "n", "seed", "model_id"} <= meta.keys()):
            raise ValueError(f"{path}: metadata is not an object with keys "
                             "t, n, seed and model_id")
        _check_meta(meta, path)
        n = meta["n"]
        # the size is checked before allocating, so a damaged n cannot ask
        # for any amount of memory, and again after reading
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left == 24 * n:
            data = np.empty((3, n), dtype="<f8")
            left = fh.readinto(memoryview(data).cast("B"))
    if left != 24 * n:
        raise ValueError(f"{path}: {left} bytes of columns, expected 24*n = {24 * n} "
                         f"for n = {n}")
    return ExceedanceSample(
        x0=data[0], x1=data[1], x2=data[2],
        t=meta["t"], n=n, seed=meta["seed"], model_id=meta["model_id"],
        stream=meta.get("stream", 0),
    )
