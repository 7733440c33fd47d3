import os

import numpy as np
import pytest

from timbrediff.frontend import CANONICAL_RATE, AudioClip


def make_tone(freq, duration=1.0, rate=CANONICAL_RATE, amplitude=0.5, am_freq=None,
              am_depth=0.0):
    """Sine tone, optionally amplitude modulated; exact-bin friendly."""
    t = np.arange(int(round(duration * rate))) / rate
    x = amplitude * np.sin(2.0 * np.pi * freq * t)
    if am_freq is not None:
        x = x * (1.0 + am_depth * np.sin(2.0 * np.pi * am_freq * t))
    return AudioClip(x, rate)


def make_noise(seed, duration=1.0, rate=CANONICAL_RATE, amplitude=0.3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(int(round(duration * rate)))
    return AudioClip(amplitude * x / np.abs(x).max(), rate)


def bandlimited_noise(seed, lo_hz, hi_hz, duration=1.0, rate=CANONICAL_RATE):
    """Gaussian noise whose spectrum is confined to [lo_hz, hi_hz)."""
    n = int(round(duration * rate))
    rng = np.random.default_rng(seed)
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    band = (freqs >= lo_hz) & (freqs < hi_hz)
    spectrum[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
    x = np.fft.irfft(spectrum, n=n)
    return AudioClip(0.5 * x / np.abs(x).max(), rate)


@pytest.fixture
def usable_cpus(monkeypatch):
    """usable_cpus(n) makes os.sched_getaffinity report n CPUs, the count
    cli._analyse sizes its worker pool by."""
    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return pin


@pytest.fixture(scope="session")
def default_benchmark(tmp_path_factory):
    """The seed-7 synthetic benchmark, generated once per test session."""
    from timbrediff.synth import default_benchmark_specs, generate_dataset

    out = tmp_path_factory.mktemp("benchmark")
    conditions, causes = default_benchmark_specs()
    dataset = generate_dataset(conditions, causes, train_per_condition=50,
                               test_per_condition=10, seed=7, out_dir=out)
    return dataset


@pytest.fixture(scope="session")
def benchmark_features(default_benchmark):
    """Timbre vectors and raw spectral features for every benchmark clip."""
    from timbrediff.embeddings import spectral_features
    from timbrediff.frontend import load_wav, resample
    from timbrediff.timbre import compute_timbre_vector

    timbre = {}
    features = {}
    for entry in default_benchmark.manifest:
        clip = resample(load_wav(default_benchmark.out_dir / entry.path),
                        CANONICAL_RATE)
        timbre[entry.clip_id] = compute_timbre_vector(clip)
        features[entry.clip_id] = spectral_features(clip)
    return timbre, features
