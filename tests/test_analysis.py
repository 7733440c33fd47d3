"""The CLI's shared analysis path against standalone per-clip calls.

cli._analyse computes one STFT per clip and hands it to both
compute_timbre_vector and spectral_features; the grid constants behind
them (bin frequencies, mel filterbank, Bark band bins, envelope groups,
modulation bins) are built once per sample rate or clip length and
cached.  Every value must equal, bit for bit, what fresh standalone calls
give, whatever order clips of different rates and lengths arrive in, and
whether _analyse runs serially or over forked workers.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from timbrediff import cli, frontend, timbre
from timbrediff.cli import _analyse, _workers
from timbrediff.dataset import ManifestEntry
from timbrediff.embeddings import mel_filterbank, spectral_features
from timbrediff.frontend import (
    CANONICAL_RATE,
    AudioClip,
    load_wav,
    resample,
    save_wav,
)
from timbrediff.synth import default_benchmark_specs, generate_clip
from timbrediff.timbre import compute_timbre_vector


def clear_grid_caches():
    for cached in (mel_filterbank, frontend.stft_bin_freqs, frontend._bark_bins,
                   frontend._envelope_layout, timbre._modulation_bins):
        cached.cache_clear()


def analysis_clips():
    """(name, clip): a synth clip per cause, clips at other rates and odd
    lengths, with rates and lengths interleaved."""
    conditions, causes = default_benchmark_specs()
    synth = [generate_clip(conditions[i % len(conditions)], cause, 1.0, 40 + i)
             for i, cause in enumerate((None, *causes))]
    clips = []
    for i, clip in enumerate(synth):
        clips.append((f"synth{i}", clip))
        # The same samples read at another rate, some cut to an odd length.
        rate = (8000, 22050, 44100)[i % 3]
        samples = clip.samples[:15001] if i % 2 else clip.samples
        clips.append((f"rate{rate}_{i}", AudioClip(samples, rate)))
    clips.append(("odd16k", AudioClip(synth[1].samples[:12345], CANONICAL_RATE)))
    return clips


@pytest.fixture(scope="module")
def clip_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("analysis")
    entries = []
    for name, clip in analysis_clips():
        save_wav(root / f"{name}.wav", clip, "float32")
        entries.append(ManifestEntry(name, f"{name}.wav", "train", "normal", "c"))
    return root, entries


def fresh(fn, clip):
    """fn(clip) with every grid cache empty, so no entry can be stale."""
    clear_grid_caches()
    return fn(clip)


@pytest.mark.parametrize("provider", [None, "timbre", "spectral"],
                         ids=["gen-gt", "timbre", "spectral"])
def test_shared_path_equals_standalone_calls(clip_dir, provider, usable_cpus):
    root, entries = clip_dir
    clips = [resample(load_wav(root / e.path), CANONICAL_RATE) for e in entries]
    assert len({c.samples.size for c in clips}) > 3     # lengths really vary
    expected = [fresh(compute_timbre_vector, c).as_array() for c in clips]
    features = np.array([fresh(spectral_features, c) for c in clips])

    args = SimpleNamespace(audio_root=str(root), embeddings=None)
    for cpus in (1, 2):                 # serial, then two forked workers
        usable_cpus(cpus)
        assert _workers(len(entries)) == cpus
        clear_grid_caches()
        clip_ids, values, raw, _ = _analyse(args, entries, provider)
        assert clip_ids == [e.clip_id for e in entries]
        assert values.tobytes() == np.array(expected).tobytes()
        if provider == "timbre":
            assert raw.tobytes() == np.array(expected).tobytes()
        elif provider == "spectral":
            assert raw.tobytes() == features.tobytes()
        else:
            assert raw is None


def test_serial_path_decodes_no_clip_before_the_stage_reads(clip_dir, usable_cpus,
                                                            monkeypatch):
    # As in the pool, meanwhile() runs before any clip is collected, so its
    # error wins, and what it returns comes back as the fourth item.
    root, entries = clip_dir
    calls = []
    monkeypatch.setattr(cli, "_analyse_clip",
                        lambda path, provider: calls.append(path) or (np.zeros(5), None))
    usable_cpus(1)
    args = SimpleNamespace(audio_root=str(root), embeddings=None)

    def damaged():
        raise ValueError("model: damaged")

    with pytest.raises(ValueError, match="model: damaged"):
        _analyse(args, entries, "timbre", damaged)
    assert calls == []
    assert _analyse(args, entries, "timbre", lambda: "read")[3] == "read"
    assert len(calls) == len(entries)


def test_grid_constants_are_read_only():
    bank = mel_filterbank(CANONICAL_RATE)
    _, weights = timbre._modulation_bins(CANONICAL_RATE, 16000, 512)
    for array in (bank, weights, frontend.stft_bin_freqs(CANONICAL_RATE)):
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert mel_filterbank(CANONICAL_RATE) is bank

