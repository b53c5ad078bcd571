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

TABLE_ROWS = 4096  # rows write_table formats at a time

# write_table's cell formatter.  A cell in repr's fixed notation is
# [-] digits '.' digits, or [-] '0.' zeros digits, then ',' or '\n'.  Its
# bytes are taken from a source row of the 17 digits and the other bytes a
# cell may hold, at the places a layout table gives for its sign, decimal
# exponent and number of significant digits
_E = np.arange(-4, 16)  # the decimal exponents of repr's fixed notation
_SCALE = np.array([float(10 ** (16 - e)) for e in _E.tolist()])  # exact
_SPLIT = float(2 ** 27 + 1)  # Dekker's splitter for float64
_MANTISSA, _EXPONENT = 2 ** 52 - 1, 2047 << 52
# the ASCII of 00..99 in a uint16, and of 0000..9999 in a uint32
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint16)
_QUADS = np.empty((100, 100, 2), dtype=np.uint16)
_QUADS[..., 0], _QUADS[..., 1] = _PAIRS[:, None], _PAIRS
_QUADS = _QUADS.view(np.uint32).reshape(-1)
# the source row: '-', '.', '0', the 17 digits (1..16 as four aligned
# quads), the separator and NULs
_SOURCE = 24
_MINUS, _DOT, _ZERO, _DIGITS, _SEP, _NUL = 0, 1, 2, 3, 20, 21
_CELL = 24  # '-0.000', 17 digits and the separator


def _split(a):
    """Dekker's split: a == hi + lo, each with at most 26 significant bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _layouts():
    """The source byte of each byte of a cell, and the cell's length, by
    key (sign, e, k) flattened, for k significant digits and exponent e."""
    e, k, j = np.ix_(_E, np.arange(1, 18), np.arange(_CELL - 1))
    # e >= 0: digits 0..e, '.', digits e+1.. (at least one); e < 0: '0.',
    # -e - 1 zeros, digits 0..k-1.  Digits past k are zeros
    point = np.maximum(e, 0) + 1
    end = np.where(e >= 0, point + 1 + np.maximum(k - e - 1, 1), 1 - e + k)
    digit = np.where(e >= 0, j - (j > e), j - 1 + e)
    src = np.where(digit < 0, _ZERO, _DIGITS + digit)
    src = np.where(j < end, src, np.where(j == end, _SEP, _NUL))
    layout = np.empty((2, len(_E), 17, _CELL), dtype=np.int32)
    layout[0, ..., :-1] = np.where(j == point, _DOT, src)
    layout[0, ..., -1] = _NUL
    layout[1, ..., 0] = _MINUS
    layout[1, ..., 1:] = layout[0, ..., :-1]
    length = np.empty((2, len(_E), 17), dtype=np.intp)
    length[0], length[1] = end[..., 0] + 1, end[..., 0] + 2
    return layout.reshape(-1, _CELL), length.reshape(-1)


_LAYOUT, _LENGTH = _layouts()


def _fixed_cells(x: np.ndarray, src: np.ndarray):
    """The bytes of repr(v) and its separator for each v of x, NUL-padded
    to _CELL, their lengths, and which of them are exact (see write_table).

    src holds a source row per value, with the bytes past the digits set.
    """
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e16) & (x.view(np.int64) & _MANTISSA != 0)
    a = np.where(ok, a, 1.5)
    i = np.clip(np.floor(np.log10(a)).astype(np.intp) + 4, 0, len(_E) - 1)
    s = _SCALE[i]
    # y = a * s exactly, by Dekker's two-product
    hi = a * s
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _split(s)
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    # y in [1e16, 1e17): i holds its decimal exponent, and hi is an integer
    ok &= ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (hi < 1e17)
    hi = np.where(ok, hi, 1e16).astype(np.int64)
    # half the rounding interval: 2**-53 times the power of two below a
    half = (a.view(np.int64) & _EXPONENT).view(float) * 2.0 ** -53 * s
    r = np.rint(lo)
    frac = lo - r  # exact, so y = n17 + frac
    n17 = hi + r.astype(np.int64)
    digits = n17
    open_ = ok.copy()  # no candidate taken yet
    for unit in (100, 10):  # the 15-, then the 16-digit candidate
        q = n17 // unit
        rem = n17 - q * unit
        tie = (rem == unit // 2) & (frac == 0)
        cand = (q + ((rem > unit // 2) | (rem == unit // 2) & (frac > 0))) * unit
        d = (cand - hi).astype(float)  # cand - y == d - lo
        below, above = d - half, d + half  # exact
        inside = open_ & (below < lo) & (lo < above)
        # a tie inside the interval, or a candidate on its boundary, is
        # left to repr
        ok &= ~(inside & tie | open_ & ((lo == below) | (lo == above)))
        digits = np.where(inside, cand, digits)
        open_ &= ~inside
    ok &= ~(open_ & (np.abs(frac) == 0.5))  # the 17-digit candidate is a tie
    carry = digits == 10 ** 17
    digits = np.where(carry, 10 ** 16, digits)
    m = len(x)
    src = src[:m]
    first = digits // 10 ** 16
    src[:, _DIGITS] = first + 48
    rest = digits - first * 10 ** 16
    eight = np.stack((rest // 10 ** 8, rest), axis=1)
    eight[:, 1] -= eight[:, 0] * 10 ** 8
    four = eight // 10 ** 4
    quads = src.view(np.uint32)
    quads[:, 1:5:2] = _QUADS[four]
    quads[:, 2:5:2] = _QUADS[eight - four * 10 ** 4]
    k = 17 - np.argmax(src[:, _DIGITS + 16:_DIGITS - 1:-1] != ord("0"), axis=1)
    key = ((x < 0) * len(_E) + i + carry) * 17 + k - 1
    key = np.where(ok, key, 0)
    at = np.take(_LAYOUT, key, axis=0)
    at += np.arange(0, _SOURCE * m, _SOURCE, dtype=np.int32)[:, None]
    return np.take(src.reshape(-1), at), _LENGTH[key], ok


def write_table(path, names, columns, append: bool = False) -> None:
    """Write equal-length float columns as CSV under the header names, or
    with append set, add them as rows after those the file holds.

    The one CSV writer: each value is written as its shortest round-trip
    repr.  Rows are formatted TABLE_ROWS at a time, so memory does not
    grow with the table.

    Cells are formatted with numpy arithmetic that gives repr's bytes
    exactly.  It takes finite x with 1e-4 <= |x| < 1e16, where repr uses
    fixed notation, that are not powers of two.  For these, with e the
    decimal exponent of x, s = 10**(16 - e) is an exact double, and
    y = |x| * s in [1e16, 1e17) is exactly hi + lo by Dekker's two-product,
    with hi an integer.  The half-width spacing(x)/2 * s of x's rounding
    interval is exact too, and the interval is symmetric since x is not a
    power of two.  The 15-, 16- and 17-digit roundings of y come from
    integer division of hi + rint(lo), and the first of them strictly
    inside the interval is repr's digits: at most one 15-digit decimal
    lies in the interval, and repr takes the nearest of the shortest.
    A row goes through repr if any of its cells is 0, not finite, in
    scientific notation or a power of two, or if the candidate it reaches
    is an exact rounding tie or lies exactly on the interval's boundary.
    No cell is written from an approximation.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    lengths = {len(c) for c in columns}
    if len(columns) != len(names) or len(lengths) != 1:
        raise ValueError(f"{path}: {len(names)} names for columns of lengths "
                         f"{[len(c) for c in columns]}")
    n, width = lengths.pop(), len(columns)
    src = np.zeros((min(n, TABLE_ROWS), width, _SOURCE), dtype=np.uint8)
    src[..., [_MINUS, _DOT, _ZERO, _SEP]] = [ord("-"), ord("."), ord("0"), ord(",")]
    src[:, -1, _SEP] = ord("\n")
    src = src.reshape(-1, _SOURCE)
    with open(path, "ab" if append else "wb") as fh:
        if not append:
            fh.write((",".join(names) + "\n").encode())
        for lo in range(0, n, TABLE_ROWS):
            block = np.stack([c[lo:lo + TABLE_ROWS] for c in columns], axis=1)
            rows = len(block)
            cells, length, ok = _fixed_cells(block.reshape(-1), src)
            ok = ok.reshape(rows, width).all(axis=1)
            text = cells.reshape(rows, -1)
            text[~ok] = 0
            text = text[text != 0].tobytes()
            # the rows not formatted above, spliced in by repr
            ends = np.cumsum(length.reshape(rows, width).sum(axis=1) * ok)
            start = 0
            for row in np.flatnonzero(~ok).tolist():
                fh.write(text[start:ends[row]])
                fh.write((",".join(map(repr, block[row].tolist())) + "\n").encode())
                start = ends[row]
            fh.write(text[start:])


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
