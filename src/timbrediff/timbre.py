"""The five timbre attribute metrics.

Each metric is a self-contained, gain-invariant formula over the shared
spectral frontend: scaling a clip by any positive constant leaves every
value unchanged (up to float roundoff).  Values are objective proxies for
the perceptual attributes, not calibrated psychoacoustic units.
"""

import functools
from dataclasses import dataclass, fields

import numpy as np

from .csvrows import read_rows
from .frontend import (
    ENVELOPE_MOD_HZ,
    AudioClip,
    Spectrogram,
    band_envelopes,
    bark_band_edges,
    bark_band_powers,
    stft_power,
)

SILENCE_POWER_FLOOR = 1e-10
LOUDNESS_EXPONENT = 0.23        # Stevens-law compressive exponent per band
SHARPNESS_KNEE_BAND = 14        # weighting grows above this Bark band
SHARPNESS_GROWTH = 0.171
BOOM_BAND_COUNT = 3             # Bark bands 1..3 cover 20-300 Hz
DEPTH_CUTOFF_HZ = 200.0
ROUGHNESS_MOD_BAND_HZ = (30.0, ENVELOPE_MOD_HZ)
MIN_ROUGHNESS_DURATION = 0.25   # seconds


@dataclass(frozen=True)
class TimbreVector:
    """One metric value per attribute, in the fixed attribute order."""

    sharpness: float
    roughness: float
    boominess: float
    brightness: float
    depth: float

    def __post_init__(self):
        problem = _timbre_violation(self.as_array()[None, :])
        if problem is not None:
            raise ValueError(problem[1])

    def as_array(self) -> np.ndarray:
        return np.array([self.sharpness, self.roughness, self.boominess,
                         self.brightness, self.depth], dtype=np.float64)

    @classmethod
    def from_array(cls, values) -> "TimbreVector":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (N_ATTRIBUTES,):
            raise ValueError(f"expected {N_ATTRIBUTES} values, got shape {values.shape}")
        return cls(*map(float, values))


# The attribute order is TimbreVector's field order.
ATTRIBUTE_NAMES = tuple(f.name for f in fields(TimbreVector))
N_ATTRIBUTES = len(ATTRIBUTE_NAMES)
TIMBRE_CSV_HEADER = ["clip_id", *ATTRIBUTE_NAMES]   # a list, as read_rows compares the header


# TimbreVector's invariants as (message, rows of [N x 5] breaking it).
_TIMBRE_RULES = (
    ("timbre values must be finite", lambda v: ~np.isfinite(v).all(axis=1)),
    ("boominess must lie in [0, 1]", lambda v: ~((v[:, 2] >= 0.0) & (v[:, 2] <= 1.0))),
    ("depth must lie in [0, 1]", lambda v: ~((v[:, 4] >= 0.0) & (v[:, 4] <= 1.0))),
    ("roughness and sharpness must be nonnegative",
     lambda v: (v[:, 1] < 0.0) | (v[:, 0] < 0.0)),
    ("brightness must be positive", lambda v: ~(v[:, 3] > 0.0)),
)


def _timbre_violation(values: np.ndarray):
    """(row, message) for the first [N x 5] row breaking an invariant, or None."""
    broken = np.array([rule(values) for _, rule in _TIMBRE_RULES])
    rows = np.flatnonzero(broken.any(axis=0))
    if rows.size:
        return int(rows[0]), _TIMBRE_RULES[int(np.argmax(broken[:, rows[0]]))][0]


def _specific_loudness(spec: Spectrogram) -> np.ndarray:
    """Compressed loudness per usable Bark band, from time-averaged power."""
    mean_band_power = bark_band_powers(spec).mean(axis=0)
    return mean_band_power ** LOUDNESS_EXPONENT


def _brightness(spec: Spectrogram) -> float:
    # Power-weighted mean of per-frame spectral centroids; weighting each
    # frame by its power collapses to one global centroid.
    total = spec.power.sum()
    return float((spec.power @ spec.bin_freqs).sum() / total)


def _sharpness(loudness: np.ndarray) -> float:
    bands = np.arange(1, loudness.size + 1, dtype=np.float64)
    weights = np.where(
        bands <= SHARPNESS_KNEE_BAND,
        1.0,
        np.exp(SHARPNESS_GROWTH * (bands - SHARPNESS_KNEE_BAND)),
    )
    return float((loudness * weights * bands).sum() / loudness.sum())


def _boominess(loudness: np.ndarray) -> float:
    # A ratio of a part to its whole can round past 1 when the part is all.
    return min(1.0, float(loudness[:BOOM_BAND_COUNT].sum() / loudness.sum()))


def _depth(spec: Spectrogram) -> float:
    low = spec.bin_freqs < DEPTH_CUTOFF_HZ
    return min(1.0, float(spec.power[:, low].sum() / spec.power.sum()))


@functools.lru_cache(maxsize=64)
def _modulation_bins(sample_rate: int, n: int, m: int):
    """Roughness's 30-150 Hz bins of n-sample envelopes and their weights at length m."""
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    lo, hi = ROUGHNESS_MOD_BAND_HZ
    first, stop = np.searchsorted(freqs, lo), np.searchsorted(freqs, hi, side="right")
    weights = np.where(2 * np.arange(first, stop) % m == 0, 1.0, 2.0)
    weights.flags.writeable = False
    return slice(first, stop), weights


def _roughness(clip: AudioClip, loudness: np.ndarray) -> float:
    # RMS of each envelope's 30-150 Hz band-pass by Parseval over its kept bins k,
    # 1/T Hz apart at any envelope length m: weight 2 (k and its mirror), 1 at DC
    # and an even m's Nyquist (2k = 0 mod m).  Envelopes of one length share an rfft.
    edges = bark_band_edges(clip.sample_rate)
    mod_index = np.empty(len(edges))
    for bands, group in band_envelopes(clip, edges):
        m = group.shape[1]
        kept_bins, weights = _modulation_bins(clip.sample_rate, clip.samples.size, m)
        kept = np.fft.rfft(group, axis=1)[:, kept_bins]
        mod_rms = np.sqrt((kept.real ** 2 + kept.imag ** 2) @ weights) / m
        mod_index[bands] = mod_rms / (group.mean(axis=1) + 1e-12)
    return float((loudness * mod_index).sum() / loudness.sum())


def compute_timbre_vector(clip: AudioClip, spec: Spectrogram = None) -> TimbreVector:
    """All five metrics from one pass over the clip; spec is stft_power(clip)."""
    if clip.duration < MIN_ROUGHNESS_DURATION:
        raise ValueError(f"timbre extraction needs at least {MIN_ROUGHNESS_DURATION} s of audio")
    spec = stft_power(clip) if spec is None else spec
    if spec.power.sum() <= SILENCE_POWER_FLOOR:
        raise ValueError("silent input: total framed power below threshold")
    loudness = _specific_loudness(spec)
    if loudness.sum() <= 0.0:
        raise ValueError("no energy inside the analysis bands")
    return TimbreVector(
        sharpness=_sharpness(loudness),
        roughness=_roughness(clip, loudness),
        boominess=_boominess(loudness),
        brightness=_brightness(spec),
        depth=_depth(spec),
    )


# ---------------------------------------------------------------------------
# Timbre tables: the model array's check and the CSV export
# ---------------------------------------------------------------------------

def check_timbre_table(path, clip_ids, values) -> np.ndarray:
    """[N x 5] float64 values checked as TimbreVector; an error names `path` and the row from 0."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(clip_ids), N_ATTRIBUTES):
        raise ValueError(f"{path}: expected [{len(clip_ids)} x {N_ATTRIBUTES}] timbre values, "
                         f"got shape {values.shape}")
    problem = _timbre_violation(values)
    if problem is not None:
        raise ValueError(f"{path}: row {problem[0]}: {problem[1]}")
    return values


def timbre_csv_rows(clip_ids, values):
    """Lazy CSV rows: each clip id and its row of [N x 5] `values`, only read, as 9-digit text."""
    return zip(clip_ids, *(map("%.9g".__mod__, column) for column in np.asarray(values).T))


def read_timbre_csv(path) -> dict:
    """Read a timbre CSV into {clip_id: TimbreVector}, in file order; an error names the row."""
    return dict(read_rows(path, TIMBRE_CSV_HEADER,
                          lambda _, row: (row[0], TimbreVector(*map(float, row[1:]))),
                          unique="clip_id"))
