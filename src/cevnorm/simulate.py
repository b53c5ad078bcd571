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
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .models import CiModel, conditional_from_uniforms, pareto_exceedance_from_uniform
from .norming import normed

CHUNK_ROWS = 1 << 16
MAX_ROWS = 50_000_000  # row budget of one draw

_MAGIC = b"CEVNSMP1"  # 8 bytes; header is magic + u32 version + u32 kind


class CapacityError(RuntimeError):
    """Requested sample exceeds the configured memory budget."""


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


@dataclass(frozen=True)
class NormedSample:
    """Pairs (w1, w2) after norming; provenance carried from the parent."""

    w1: np.ndarray
    w2: np.ndarray
    mode: str  # "random" or "deterministic"
    t: float
    n: int
    seed: int
    model_id: str


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
) -> ExceedanceSample:
    """Draw n i.i.d. triples from the conditional law given X0 > t.

    Deterministic in (model, t, n, seed, stream) regardless of the
    thread count or chunking.  Raises FloatingPointError if any row is
    not finite, for example when the model overflows.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_ROWS:
        raise CapacityError(f"n={n} exceeds the row budget of {MAX_ROWS}")

    bounds = [(lo, min(lo + CHUNK_ROWS, n)) for lo in range(0, n, CHUNK_ROWS)]

    def run(chunk):
        lo, hi = chunk
        u = _row_uniforms(seed, stream, lo, hi)
        u = np.maximum(u, 2.0**-53)
        # numpy's error state does not reach pool threads, so set it here;
        # rows that overflow are counted and raised on below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x0 = pareto_exceedance_from_uniform(t, u[:, 0])
            x1, x2 = conditional_from_uniforms(model, x0, u[:, 1], u[:, 2])
        bad = np.count_nonzero(~(np.isfinite(x0) & np.isfinite(x1) & np.isfinite(x2)))
        return x0, x1, x2, bad

    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(run, bounds))
    else:
        chunks = [run(b) for b in bounds]
    n_bad = sum(c[3] for c in chunks)
    if n_bad:
        raise FloatingPointError(f"{n_bad} of {n} rows are not finite")

    x0 = np.concatenate([c[0] for c in chunks])
    x1 = np.concatenate([c[1] for c in chunks])
    x2 = np.concatenate([c[2] for c in chunks])
    return ExceedanceSample(
        x0=x0, x1=x1, x2=x2, t=float(t), n=n, seed=seed,
        model_id=model.content_hash(), stream=stream,
    )


def _normed_sample(sample: ExceedanceSample, model: CiModel, t, mode: str) -> NormedSample:
    if sample.model_id != model.content_hash():
        raise ModelMismatchError(
            f"sample was drawn from model {sample.model_id}, "
            f"got model {model.content_hash()}"
        )
    return NormedSample(w1=normed(sample.x1, t, model.erv1), w2=normed(sample.x2, t, model.erv2),
                        mode=mode, t=sample.t, n=sample.n, seed=sample.seed,
                        model_id=sample.model_id)


def apply_random_norming(sample: ExceedanceSample, model: CiModel) -> NormedSample:
    """Norm each row by the realised conditioning value: w_i = normed(x_i, x0)."""
    return _normed_sample(sample, model, sample.x0, "random")


def apply_deterministic_norming(sample: ExceedanceSample, model: CiModel) -> NormedSample:
    """Norm each row by the level only: w_i = normed(x_i, t)."""
    return _normed_sample(sample, model, sample.t, "deterministic")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _columns(obj):
    if isinstance(obj, ExceedanceSample):
        return ("x0", "x1", "x2"), (obj.x0, obj.x1, obj.x2), 1
    if isinstance(obj, NormedSample):
        return ("w1", "w2"), (obj.w1, obj.w2), 2
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_csv(obj, path) -> None:
    """Write sample columns as CSV with shortest round-trip float formatting."""
    names, cols, _ = _columns(obj)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _meta(obj) -> dict:
    meta = {"t": obj.t, "n": obj.n, "seed": obj.seed, "model_id": obj.model_id}
    if isinstance(obj, ExceedanceSample):
        meta["stream"] = obj.stream
    else:
        meta["mode"] = obj.mode
    return meta


def write_binary(obj, path) -> None:
    """Binary cache: 16-byte header, JSON metadata, then float64 columns."""
    names, cols, kind = _columns(obj)
    meta = json.dumps(_meta(obj), sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<II", 1, kind))
        fh.write(struct.pack("<I", len(meta)) + meta)
        for col in cols:
            fh.write(np.ascontiguousarray(col, dtype="<f8").tobytes())


def read_binary(path):
    """Load an ExceedanceSample or NormedSample written by write_binary."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:8] != _MAGIC:
            raise ValueError(f"{path}: not a cevnorm sample cache")
        version, kind = struct.unpack("<II", header[8:])
        if version != 1:
            raise ValueError(f"{path}: unsupported cache version {version}")
        (mlen,) = struct.unpack("<I", fh.read(4))
        meta = json.loads(fh.read(mlen))
        n = meta["n"]
        ncols = 3 if kind == 1 else 2
        data = np.frombuffer(fh.read(8 * n * ncols), dtype="<f8").reshape(ncols, n)
    if kind == 1:
        return ExceedanceSample(
            x0=data[0].copy(), x1=data[1].copy(), x2=data[2].copy(),
            t=meta["t"], n=n, seed=meta["seed"], model_id=meta["model_id"],
            stream=meta.get("stream", 0),
        )
    return NormedSample(
        w1=data[0].copy(), w2=data[1].copy(), mode=meta["mode"],
        t=meta["t"], n=n, seed=meta["seed"], model_id=meta["model_id"],
    )
