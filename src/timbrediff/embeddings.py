"""Embedding providers and distance functions for neighbor search.

Three providers are supported: the 5-dim timbre vector, an 80-dim log-mel
statistics vector, and externally computed embeddings imported from a TDCE
file.  Embeddings are z-scored with statistics fit on training data only.
"""

import functools
import os
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .csvrows import read_rows, replacing, write_rows
from .frontend import AudioClip, Spectrogram, stft_bin_freqs, stft_power
from .timbre import SILENCE_POWER_FLOOR

TIMBRE_PROVIDER = "timbre"
SPECTRAL_PROVIDER = "spectral"
EXTERNAL_PROVIDER = "external"

MEL_BANDS = 40
SPECTRAL_DIM = 2 * MEL_BANDS
MEL_FMAX_HZ = 8000.0
LOG_FLOOR = 1e-10
STD_FLOOR = 1e-9
MIN_FIT_ROWS = 2                # fit_normalization's minimum: one row has no spread

TDCE_MAGIC = b"TDCE"
TDCE_VERSION = 1
TDCE_DTYPE = np.dtype("<f4")    # a stored row's precision: little-endian float32
_TDCE_HEADER = struct.Struct("<4sIII")  # magic, version, dim, count
_IDS_HEADER = ["row", "clip_id"]
_WRITE_BLOCK_ROWS = 4096        # about 1.3 MB of float32 at 80 dims


class DistanceKind(Enum):
    EUCLIDEAN = "euclidean"
    COSINE = "cosine"

    @classmethod
    def parse(cls, name: str) -> "DistanceKind":
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown distance kind {name!r}") from None


@dataclass(frozen=True)
class Embedding:
    vector: np.ndarray
    provider_id: str
    clip_id: str = ""

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("embedding vector must be non-empty and 1-D")
        object.__setattr__(self, "vector", vec)


@dataclass(frozen=True)
class NormalizationStats:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean and std must be 1-D with equal shape")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
            raise ValueError("normalization stats must be finite")
        if np.any(std < STD_FLOOR):
            raise ValueError(f"std components must be >= {STD_FLOOR}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def dim(self) -> int:
        return self.mean.size

    def zscore(self, raw) -> np.ndarray:
        """[N x D] raw features as z-scores at a stored row's precision (TDCE_DTYPE), in
        float64: the rows fit stores and score queries with.  Beyond float32's range is inf."""
        with np.errstate(over="ignore"):
            return ((raw - self.mean) / self.std).astype(TDCE_DTYPE).astype(np.float64)


def fit_normalization(data) -> NormalizationStats:
    """Per-column mean and population std of [N x D] data, std clamped below at 1e-9."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < MIN_FIT_ROWS:
        raise ValueError(f"need an [N x D] array of at least {MIN_FIT_ROWS} rows "
                         "to fit normalization")
    return NormalizationStats(data.mean(axis=0),
                              np.maximum(data.std(axis=0), STD_FLOOR))


@functools.lru_cache(maxsize=4)
def mel_filterbank(sample_rate: int) -> np.ndarray:
    """Triangular unit-peak mel filters over stft_power's bins, [bands x bins], read-only."""
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    bin_freqs = stft_bin_freqs(sample_rate)
    points = from_mel(np.linspace(to_mel(0.0), to_mel(MEL_FMAX_HZ), MEL_BANDS + 2))
    bank = np.zeros((MEL_BANDS, bin_freqs.size))
    for band in range(MEL_BANDS):
        lo, center, hi = points[band], points[band + 1], points[band + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        bank[band] = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.flags.writeable = False
    return bank


def spectral_features(clip: AudioClip, spec: Spectrogram = None) -> np.ndarray:
    """Raw 80-dim log-mel statistics, 40 band means then 40 stds; spec is stft_power(clip)."""
    spec = stft_power(clip) if spec is None else spec
    if spec.power.sum() <= SILENCE_POWER_FLOOR:
        raise ValueError("silent input: total framed power below threshold")
    bank = mel_filterbank(spec.sample_rate)
    log_mel = np.log(np.maximum(spec.power @ bank.T, LOG_FLOOR))
    return np.concatenate([log_mel.mean(axis=0), log_mel.std(axis=0)])


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def distances_to(matrix: np.ndarray, query: np.ndarray,
                 kind: DistanceKind) -> np.ndarray:
    """Distance from each matrix row to the query vector.

    Rows bit-identical to the query get distance exactly 0 under both
    kinds; a zero vector under cosine is assigned similarity 0.  No BLAS
    call: a row's bits depend on it and the query alone, in any subset.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if kind is DistanceKind.EUCLIDEAN:
        out = np.sqrt(((matrix - query) ** 2).sum(axis=1))
    else:
        row_norms = np.sqrt((matrix ** 2).sum(axis=1))
        query_norm = np.sqrt((query ** 2).sum())
        denom = row_norms * query_norm
        sims = np.zeros(matrix.shape[0])
        ok = denom > 0.0
        sims[ok] = (matrix[ok] * query).sum(axis=1) / denom[ok]
        out = np.clip(1.0 - sims, 0.0, None)
    out[(matrix == query).all(axis=1)] = 0.0
    return out


# ---------------------------------------------------------------------------
# TDCE embedding file format
# ---------------------------------------------------------------------------

def _ids_path(path) -> str:
    return f"{path}.ids.csv"


def write_embeddings(path, clip_ids, vectors) -> None:
    """Write clip ids and their vectors, an [N x D] array or N rows of D
    values, to a TDCE file plus its `<file>.ids.csv` sidecar.

    Rows are cast to float32, checked and written _WRITE_BLOCK_ROWS at a
    time into the file's `.tmp`, so no [N x D] copy is made.  A row that is
    not finite fails as read_tdce would name it, and both old files stay.

    Layout: magic `TDCE`, u32 version=1, u32 dim, u32 count, then
    count x dim float32 little-endian, row-major.
    """
    count, dim = len(clip_ids), np.shape(vectors[:1])[-1]    # 0 for an empty list
    if len(vectors) != count:
        raise ValueError(f"{path}: expected {count} embedding rows, got {len(vectors)}")
    with replacing(path, "wb") as fh:  # a failed sidecar keeps the old payload
        fh.write(_TDCE_HEADER.pack(TDCE_MAGIC, TDCE_VERSION, dim, count))
        for start in range(0, count, _WRITE_BLOCK_ROWS):
            with np.errstate(over="ignore"):    # beyond float32's range is inf, caught below
                block = np.ascontiguousarray(vectors[start:start + _WRITE_BLOCK_ROWS], TDCE_DTYPE)
            if block.ndim != 2 or block.shape[1] != dim:
                raise ValueError(f"{path}: embedding rows from {start} are not "
                                 f"{dim}-dimensional, got shape {block.shape}")
            check_finite_rows(path, clip_ids, block, start)
            fh.write(block)
            del block           # before the next block is cast
        write_rows(_ids_path(path), _IDS_HEADER, zip(range(count), clip_ids))


def check_finite_rows(path, clip_ids, rows, start=0) -> None:
    """Raise ValueError naming the first non-finite row of `rows`, row `start` of `path`.
    A float32-range row's float64 sum is finite exactly when each value is: no mask."""
    bad = np.flatnonzero(~np.isfinite(rows.sum(axis=1, dtype=np.float64)))
    if bad.size:
        row = start + bad[0]
        raise ValueError(f"{path}: embedding row {row} (clip {clip_ids[row]!r}) is not finite")


def read_tdce_rows(path) -> np.ndarray:
    """A TDCE file's [count x dim] float32 rows, once its header and size check out."""
    with open(path, "rb") as fh:
        head = fh.read(_TDCE_HEADER.size)
        payload = os.fstat(fh.fileno()).st_size - len(head)
    if len(head) < _TDCE_HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, dim, count = _TDCE_HEADER.unpack(head)
    if magic != TDCE_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != TDCE_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    expected = count * dim * 4
    if payload < expected:
        raise ValueError(f"{path}: truncated payload ({payload} bytes, expected {expected})")
    if payload > expected:
        raise ValueError(f"{path}: {payload - expected} trailing bytes")
    return np.fromfile(path, TDCE_DTYPE, count * dim, offset=_TDCE_HEADER.size).reshape(count, dim)


def read_tdce(path):
    """Read a TDCE file and its id sidecar into (clip ids, [count x dim] float64)."""
    vectors = read_tdce_rows(path)
    ids = []

    def add_id(_, row):
        if row[0] != str(len(ids)):
            raise ValueError(f"malformed row {row}")
        ids.append(row[1])

    read_rows(_ids_path(path), _IDS_HEADER, add_id, unique="clip_id")
    if len(ids) != len(vectors):
        raise ValueError(f"{path}: id count mismatch "
                         f"({len(ids)} ids for {len(vectors)} embeddings)")
    vectors = vectors.astype(np.float64)
    check_finite_rows(path, ids, vectors)
    return ids, vectors


def import_embeddings(path) -> list:
    """Read a TDCE file and its id sidecar into a list of external Embeddings."""
    return [Embedding(vec, EXTERNAL_PROVIDER, cid) for cid, vec in zip(*read_tdce(path))]
