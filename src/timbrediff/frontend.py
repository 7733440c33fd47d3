"""Audio ingestion and shared DSP primitives.

Everything downstream (timbre metrics, spectral embeddings) runs on the
types in this module: mono clips, one-sided power spectrograms, Bark-band
summaries and per-band analytic envelopes.  All functions are pure and
deterministic; identical inputs give bit-identical outputs.
"""

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .csvrows import replacing

# Canonical processing rate used by the pipeline; clips are resampled to
# this on ingest so the filterbank layout is fixed.
CANONICAL_RATE = 16000

# One Bark band per pair of adjacent edges (Zwicker critical bands).
BARK_EDGES_HZ = np.array([
    20, 100, 200, 300, 400, 510, 630, 770, 920, 1080, 1270, 1480, 1720,
    2000, 2320, 2700, 3150, 3700, 4400, 5300, 6400, 7700, 9500, 12000,
    15500,
], dtype=np.float64)

# band_envelopes keeps every envelope bin up to this modulation frequency,
# the top of roughness's 30-150 Hz band.
ENVELOPE_MOD_HZ = 150.0

# stft_power's fixed grid: frames of 1024 samples, 512 apart, so 513 bins.
FRAME_LEN = 1024
HOP = 512

_PCM16_SCALE = 32768.0
_RESAMPLE_HALF_TAPS = 32  # 64-tap windowed-sinc kernel
_RESAMPLE_KAISER_BETA = 8.0
# Outputs per resample block (and table rows per build block): a
# [block x 64] float64 gather is 0.5 MB, which stays in cache.  512-1024
# timed alike on a 2-core Xeon; 4096 and above are slower.
_RESAMPLE_BLOCK = 1024


@dataclass(frozen=True)
class AudioClip:
    """Mono sample buffer plus its sample rate.

    Samples are float64 with nominal range [-1, 1]; the range is not
    enforced so that gain experiments stay representable.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("clip samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("clip samples must be finite")
        if int(self.sample_rate) <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class Spectrogram:
    """One-sided power spectrogram on stft_power's grid: power[frame, bin]
    over FRAME_LEN // 2 + 1 bins, bin i at i * sample_rate / FRAME_LEN Hz."""

    power: np.ndarray
    sample_rate: int

    def __post_init__(self):
        power = np.asarray(self.power, dtype=np.float64)
        if power.ndim != 2 or power.shape[1] != FRAME_LEN // 2 + 1:
            raise ValueError(f"power must be [frames x {FRAME_LEN // 2 + 1}] bins")
        if not np.all(np.isfinite(power)) or np.any(power < 0):
            raise ValueError("power values must be finite and nonnegative")
        if int(self.sample_rate) <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    @property
    def bin_freqs(self) -> np.ndarray:
        return stft_bin_freqs(self.sample_rate)


# ---------------------------------------------------------------------------
# WAV I/O (RIFF, PCM16 and IEEE float32)
# ---------------------------------------------------------------------------

def load_wav(path) -> AudioClip:
    """Read a PCM16 or IEEE float32 WAV file as a mono clip.

    Multichannel input is averaged to mono.  PCM16 value v maps to
    v / 32768, so samples land in [-1, 1).  A malformed file raises
    ValueError naming `path`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    offset = 12
    while offset + 8 <= len(raw):
        chunk_id = raw[offset:offset + 4]
        (size,) = struct.unpack_from("<I", raw, offset + 4)
        body = raw[offset + 8:offset + 8 + size]
        if chunk_id == b"fmt ":
            if size < 16 or len(body) < 16:
                raise ValueError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < size:
                raise ValueError(f"{path}: data chunk shorter than declared")
            data = body
        offset += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels < 1 or rate <= 0:
        raise ValueError(f"{path}: invalid channel count or sample rate")

    if audio_format == 1 and bits == 16:
        values = np.frombuffer(data[: len(data) - len(data) % 2], dtype="<i2")
        samples = values.astype(np.float64) / _PCM16_SCALE
    elif audio_format == 3 and bits == 32:
        values = np.frombuffer(data[: len(data) - len(data) % 4], dtype="<f4")
        samples = values.astype(np.float64)
    else:
        raise ValueError(
            f"{path}: unsupported codec (format tag {audio_format}, {bits}-bit); "
            "only PCM16 and IEEE float32 are readable"
        )

    usable = samples.size - samples.size % channels
    samples = samples[:usable].reshape(-1, channels).mean(axis=1)
    if samples.size == 0:
        raise ValueError(f"{path}: no audio frames")
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{path}: samples must be finite")
    return AudioClip(samples, rate)


def save_wav(path, clip: AudioClip, sample_format: str = "pcm16") -> None:
    """Write a mono WAV file, either 'pcm16' or 'float32'."""
    if sample_format == "pcm16":
        scaled = np.round(clip.samples * _PCM16_SCALE)
        payload = np.clip(scaled, -32768, 32767).astype("<i2").tobytes()
        audio_format, bits = 1, 16
    elif sample_format == "float32":
        payload = clip.samples.astype("<f4").tobytes()
        audio_format, bits = 3, 32
    else:
        raise ValueError(f"unknown sample_format {sample_format!r}")

    block_align = bits // 8
    header = b"".join([
        b"RIFF",
        struct.pack("<I", 36 + len(payload)),
        b"WAVE",
        b"fmt ",
        struct.pack("<IHHIIHH", 16, audio_format, 1, clip.sample_rate,
                    clip.sample_rate * block_align, block_align, bits),
        b"data",
        struct.pack("<I", len(payload)),
    ])
    with replacing(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

def _kaiser_taper(u: np.ndarray) -> np.ndarray:
    """Kaiser window evaluated at normalized offsets u in [-1, 1]."""
    out = np.zeros_like(u)
    inside = np.abs(u) <= 1.0
    out[inside] = (np.i0(_RESAMPLE_KAISER_BETA * np.sqrt(1.0 - u[inside] ** 2))
                   / np.i0(_RESAMPLE_KAISER_BETA))
    return out


@functools.lru_cache(maxsize=8)
def _resample_table(up: int, down: int) -> np.ndarray:
    """resample's read-only [up x 64] kernel table for the reduced rate
    ratio up / down.  Row r serves every output i with i % up == r: phase
    (r * down) % up, normalized to unity DC gain.  A coprime pair's table
    can reach tens of MB, hence the small cache."""
    cutoff = min(1.0, up / down)
    taps = np.arange(-_RESAMPLE_HALF_TAPS + 1, _RESAMPLE_HALF_TAPS + 1)
    table = np.empty((up, taps.size))
    # Built a block of rows at a time, so that a coprime pair's many rows
    # need no table-sized temporaries.
    for start in range(0, up, _RESAMPLE_BLOCK):
        phase = np.arange(start, min(start + _RESAMPLE_BLOCK, up), dtype=np.int64)
        offsets = taps[None, :] - ((phase * down % up) / up)[:, None]
        rows = cutoff * np.sinc(cutoff * offsets)
        rows *= _kaiser_taper(offsets / _RESAMPLE_HALF_TAPS)
        table[start:start + phase.size] = rows / rows.sum(axis=1, keepdims=True)
    table.flags.writeable = False
    return table


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Polyphase resampling with a 64-tap Kaiser-windowed sinc kernel.

    With g = gcd(source, target), L = target / g and M = source / g, output
    sample i sits at the exact input position i * M / L, computed in
    integers.  Its kernel depends only on the phase (i * M) mod L, which
    repeats every L outputs, so the table of all L phase rows, each
    normalized to unity DC gain, is built once per rate pair and process.
    Outputs are computed in blocks of _RESAMPLE_BLOCK, whose gathered
    windows stay in cache.  Duration is preserved to within one output
    sample.  Same-rate input is returned unchanged.
    """
    if int(target_rate) <= 0:
        raise ValueError("target_rate must be positive")
    target_rate = int(target_rate)
    if target_rate == clip.sample_rate:
        return clip

    src = clip.samples
    n_out = max(1, int(round(src.size * target_rate / clip.sample_rate)))
    g = math.gcd(target_rate, clip.sample_rate)
    up, down = target_rate // g, clip.sample_rate // g
    table = _resample_table(up, down)
    padded = np.concatenate([
        np.zeros(_RESAMPLE_HALF_TAPS), src, np.zeros(_RESAMPLE_HALF_TAPS),
    ])

    # windows[b + 1] = padded[b + 1 : b + 65]: input samples b - 31 .. b + 32.
    windows = np.lib.stride_tricks.sliding_window_view(padded, table.shape[1])
    out = np.empty(n_out)
    for start in range(0, n_out, _RESAMPLE_BLOCK):
        idx_out = np.arange(start, min(start + _RESAMPLE_BLOCK, n_out), dtype=np.int64)
        gathered = windows[idx_out * down // up + 1]
        out[start:start + idx_out.size] = np.einsum(
            "ij,ij->i", gathered, table[idx_out % up])
    return AudioClip(out, target_rate)


# ---------------------------------------------------------------------------
# Spectral analysis
# ---------------------------------------------------------------------------

def stft_power(clip: AudioClip) -> Spectrogram:
    """One-sided Hann-windowed power spectrogram of FRAME_LEN-sample frames
    HOP apart: the raw squared magnitude of each frame's one-sided FFT (no
    window-gain compensation).
    """
    if clip.samples.size < FRAME_LEN:
        raise ValueError(
            f"clip has {clip.samples.size} samples, shorter than one {FRAME_LEN}-sample frame"
        )
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / FRAME_LEN)
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, FRAME_LEN)[::HOP]
    spectrum = np.fft.rfft(frames * window, axis=1)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    return Spectrogram(power, clip.sample_rate)


@functools.lru_cache(maxsize=64)
def stft_bin_freqs(sample_rate: int) -> np.ndarray:
    """stft_power's bin frequencies, i * sample_rate / FRAME_LEN for
    i = 0 .. FRAME_LEN / 2; cached per rate, read-only."""
    freqs = np.arange(FRAME_LEN // 2 + 1) * (sample_rate / FRAME_LEN)
    freqs.flags.writeable = False
    return freqs


def bark_band_edges(sample_rate: int) -> list:
    """Usable Bark band (lo, hi) pairs for a sample rate.

    Bands whose lower edge reaches the Nyquist frequency are dropped and
    the band containing Nyquist is truncated to end there.
    """
    nyquist = sample_rate / 2.0
    edges = []
    for lo, hi in zip(BARK_EDGES_HZ[:-1], BARK_EDGES_HZ[1:]):
        if lo >= nyquist:
            break
        edges.append((float(lo), float(min(hi, nyquist))))
    return edges


def _band_bins(freqs, lo: float, hi: float, nyquist: float) -> tuple:
    """(first, stop): the run of sorted bin frequencies `freqs` in [lo, hi),
    plus a bin at exactly Nyquist when the band reaches it."""
    return (int(np.searchsorted(freqs, lo, side="left")),
            int(np.searchsorted(freqs, hi, side="right" if hi >= nyquist else "left")))


@functools.lru_cache(maxsize=64)
def _bark_bins(sample_rate: int) -> tuple:
    """bark_band_powers' band count and the (band, first, stop) bin range of
    each band holding bins, on stft_power's grid at sample_rate."""
    edges = bark_band_edges(sample_rate)
    freqs = stft_bin_freqs(sample_rate)
    ranges = [(band, *_band_bins(freqs, lo, hi, sample_rate / 2.0))
              for band, (lo, hi) in enumerate(edges)]
    return len(edges), tuple(r for r in ranges if r[2] > r[1])


def bark_band_powers(spec: Spectrogram) -> np.ndarray:
    """Per-frame mean power in each usable Bark band, [frames x bands].

    A bin at frequency f belongs to the band with lo <= f < hi; the bin at
    exactly Nyquist joins the band containing it.  Bins below the first
    edge (20 Hz) are excluded, which rules out DC.
    """
    n_bands, ranges = _bark_bins(spec.sample_rate)
    out = np.zeros((spec.power.shape[0], n_bands))
    for band, first, stop in ranges:
        # Averaged over a Fortran-ordered copy, the layout a boolean-mask
        # gather gives: the mean of the strided slice itself rounds otherwise.
        out[:, band] = np.asfortranarray(spec.power[:, first:stop]).mean(axis=1)
    return out


@functools.lru_cache(maxsize=64)
def _envelope_layout(sample_rate: int, n: int, band_edges: tuple) -> tuple:
    """band_envelopes' groups for n samples at sample_rate, in ascending m:
    (m, read-only band indices, (first, stop) bins per band)."""
    nyquist = sample_rate / 2.0
    for lo, hi in band_edges:
        if not 0 < lo < hi or hi > nyquist:
            raise ValueError(f"band ({lo}, {hi}) must lie within (0, {nyquist}]")
    freqs = np.arange(n // 2 + 1) * (sample_rate / n)
    k_hi = np.searchsorted(freqs, ENVELOPE_MOD_HZ, side="right") - 1
    bands = []
    for lo, hi in band_edges:
        first, stop = _band_bins(freqs, lo, hi, nyquist)
        if stop <= first:
            raise ValueError(f"band {lo}-{hi} Hz contains no spectral bins")
        m = 1 << int(max(8 * (stop - first), 2 * (k_hi + 1), 512) - 1).bit_length()
        bands.append((first, stop, min(m, n)))
    groups = []
    for m in sorted({m for _, _, m in bands}):
        members = np.array([i for i, band in enumerate(bands) if band[2] == m])
        members.flags.writeable = False
        groups.append((m, members, tuple(bands[i][:2] for i in members)))
    return tuple(groups)


def band_envelopes(clip: AudioClip, band_edges) -> list:
    """Analytic-signal magnitude envelopes of FFT-isolated bands, as
    (band indices, [bands x m] envelopes) groups in ascending m: every band
    of band_edges sits in exactly one group, rows in band order.

    Per band the one-sided (real-input) spectrum's bins in [lo, hi), one
    contiguous range of `width` bins, are doubled to form the band's
    analytic signal; a bin at exactly Nyquist is kept, unscaled, when the
    band reaches it.  Shifting the bins down to baseband multiplies that
    signal by a unit phasor, which leaves its magnitude unchanged, and a
    length-m inverse FFT holds m >= width bins without aliasing.  So m / n
    times its magnitude is the exact envelope at the m sample times
    j * n / m (fractional where m does not divide n).

    m is the next power of two at or above max(8 * width, 2 * (k_hi + 1),
    512), capped at n; k_hi is the n-point rfft bin of ENVELOPE_MOD_HZ.
    An envelope's spectrum keeps bins 1/T Hz apart at any m, so the second
    term keeps every bin up to ENVELOPE_MOD_HZ; the first keeps small the
    aliasing of the magnitude, which is not band-limited.  At m = n the
    bins stay in place and the envelope is the full-length one.  A group's
    bands go through one inverse FFT.
    """
    n = clip.samples.size
    groups = _envelope_layout(clip.sample_rate, n, tuple(map(tuple, band_edges)))
    doubled = 2 * np.fft.rfft(clip.samples)
    if n % 2 == 0:
        doubled[n // 2] /= 2                       # the even-n Nyquist bin

    out = []
    for m, members, bins in groups:
        shifted = np.zeros((len(members), m), dtype=complex)
        for row, (first, stop) in zip(shifted, bins):
            shift = first if m < n else 0
            row[first - shift:stop - shift] = doubled[first:stop]
        out.append((members, np.abs(np.fft.ifft(shifted, axis=1)) * (m / n)))
    return out
