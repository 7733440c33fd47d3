"""Golden analysis values: what the CLI's per-clip analysis gives a fixed
set of seeded synthetic clips, its 5 timbre values and 80 spectral features.

    PYTHONPATH=src python3 tests/golden/record_analysis.py

writes tests/golden/analysis.json.  Record it again only with an output
change that CHANGES.md states: tests/test_golden.py analyses the same clips
and compares every value with the file's at rtol=1e-9.
"""

import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from timbrediff.cli import _analyse_clip
from timbrediff.embeddings import SPECTRAL_PROVIDER
from timbrediff.frontend import load_wav, save_wav
from timbrediff.synth import clip_seed, default_benchmark_specs, generate_clip

GOLDEN = Path(__file__).with_name("analysis.json")
SEED = 7
DURATIONS = (1.0, 10.0)
STEREO_RATE = 44100


def clip_plan() -> list:
    """(clip id, condition, cause or None, seconds): at each duration, a
    normal clip of each condition and each cause in one of the conditions."""
    conditions, causes = default_benchmark_specs()
    plan = []
    for seconds in DURATIONS:
        plan += [(f"{cond.condition_id}_normal_{seconds:g}s", cond, None, seconds)
                 for cond in conditions]
        for i, cause in enumerate(causes):
            cond = conditions[i % len(conditions)]
            plan.append((f"{cond.condition_id}_{cause.cause_id}_{seconds:g}s", cond, cause,
                         seconds))
    return plan


def write_stereo_float32(path, source) -> None:
    """`source`, a 16 kHz WAV, as a 44.1 kHz stereo IEEE float32 WAV: FFT
    upsampled, its right channel the left at half gain."""
    x = load_wav(source).samples
    n_out = round(x.size * STEREO_RATE / 16000)
    spectrum = np.zeros(n_out // 2 + 1, dtype=complex)
    spectrum[:x.size // 2 + 1] = np.fft.rfft(x)
    spectrum[x.size // 2] *= 0.5            # split the Nyquist bin across +/- f
    y = np.fft.irfft(spectrum, n=n_out) * (n_out / x.size)
    payload = np.stack([y, 0.5 * y], axis=1).astype("<f4").tobytes()
    Path(path).write_bytes(b"".join([
        b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHH", 16, 3, 2, STEREO_RATE, 8 * STEREO_RATE, 8, 32),
        b"data", struct.pack("<I", len(payload)), payload]))


def write_clips(out_dir) -> dict:
    """Write the plan's clips as 16 kHz PCM16 WAVs under out_dir, plus the
    first one again as 44.1 kHz stereo float32: {clip id: path}."""
    paths = {}
    for clip_id, cond, cause, seconds in clip_plan():
        paths[clip_id] = Path(out_dir) / f"{clip_id}.wav"
        save_wav(paths[clip_id], generate_clip(cond, cause, seconds, clip_seed(SEED, clip_id)))
    first = next(iter(paths))
    paths[f"{first}_44k_stereo"] = Path(out_dir) / f"{first}_44k_stereo.wav"
    write_stereo_float32(paths[f"{first}_44k_stereo"], paths[first])
    return paths


def analyse(out_dir) -> dict:
    """{clip id: {"timbre": 5 values, "spectral": 80 features}} of each clip
    written under out_dir, as `fit --provider spectral` analyses it."""
    out = {}
    for clip_id, path in write_clips(out_dir).items():
        timbre, spectral = _analyse_clip(path, SPECTRAL_PROVIDER)
        out[clip_id] = {"timbre": timbre.tolist(), "spectral": spectral.tolist()}
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        values = analyse(tmp)
    with open(GOLDEN, "w") as fh:
        json.dump(values, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(values)} clips to {GOLDEN}", file=sys.stderr)
