"""The CLI's shared analysis path against standalone per-clip calls.

cli._analyse computes one STFT per clip and hands it to both
compute_timbre_vector and spectral_features; the grid constants behind
them (bin frequencies, mel filterbank, Bark band bins, envelope groups,
modulation bins) are built once per sample rate or clip length and
cached.  Every value must equal, bit for bit, what fresh standalone calls
give, whatever order clips of different rates and lengths arrive in, and
whether _analyse runs serially or over forked workers, and whether or
not cli._keep_freed_heap has moved the per-clip temporaries onto the heap.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import timbrediff
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
from timbrediff.synth import default_benchmark_specs, generate_clip, generate_dataset
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


def in_child(*argv, one_cpu=False):
    """Run `python *argv` in a fresh interpreter, which starts with glibc's
    own malloc thresholds, on one CPU if asked; return its standard output."""
    src = str(Path(timbrediff.__file__).parents[1])
    env = {key: value for key, value in os.environ.items() if not key.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    pin = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if one_cpu else None
    return subprocess.run([sys.executable, *map(str, argv)], env=env, preexec_fn=pin,
                          capture_output=True, text=True, timeout=120, check=True).stdout


# Prints the minor page faults per clip of _analyse_clip over the WAVs in
# argv[1], after three clips' warm-up (grid caches and heap).
_FAULTS_CHILD = """
import resource, sys
from pathlib import Path
from timbrediff import cli
assert cli._keep_freed_heap()
paths = sorted(Path(sys.argv[1]).glob("*.wav"))
for path in paths[:3]:
    cli._analyse_clip(path, "spectral")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for path in paths[3:]:
    cli._analyse_clip(path, "spectral")
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(paths[3:]))
"""


def test_kept_heap_ends_the_per_clip_page_faults(tmp_path):
    # With glibc's defaults each one-second clip faulted in about 850 pages:
    # its multi-MB temporaries were unmapped or trimmed when freed.  A fresh
    # process, as a test run's earlier analysis moves glibc's own dynamic
    # mmap threshold.
    if not cli._keep_freed_heap():
        pytest.skip("no glibc mallopt")
    conditions, causes = default_benchmark_specs()
    for i in range(23):
        save_wav(tmp_path / f"c{i:02d}.wav",
                 generate_clip(conditions[i % len(conditions)],
                               causes[i % len(causes)] if i % 2 else None, 1.0, 60 + i),
                 "float32")
    assert float(in_child("-c", _FAULTS_CHILD, tmp_path)) < 100


def test_kept_heap_ends_the_page_faults_of_ten_second_clips(tmp_path):
    # A serial gen-gt stage on ten-second clips: each clip past the first nine
    # faulted in about 8,000 pages with glibc's defaults, and about 8,500 with
    # a 32 MiB trim threshold, which a clip's freed temporaries exceed.  A
    # whole stage's count varies by about 1,000 pages from run to run.
    if not cli._keep_freed_heap():
        pytest.skip("no glibc mallopt")
    import resource

    conditions, causes = default_benchmark_specs()
    faults = []
    for train in (2, 6):            # gen-gt reads 9 and then 21 clips
        root = tmp_path / f"train{train}"
        generate_dataset(conditions, causes[:1], train, 1, 7, root, duration=10.0)
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        in_child("-m", "timbrediff.cli", "gen-gt", "--manifest", root / "manifest.csv",
                 "--audio-root", root, "--out", root / "gt.csv", one_cpu=True)
        faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
    assert (faults[1] - faults[0]) / 12 < 1000


# Writes every analysis_clips() clip's resampled samples, timbre vector and
# spectral features to argv[1], after cli._keep_freed_heap() if argv[2] is
# "kept"; argv[3] is this directory.
_LAYOUT_CHILD = """
import sys
import numpy as np
from timbrediff import cli
from timbrediff.embeddings import spectral_features
from timbrediff.frontend import CANONICAL_RATE, resample
from timbrediff.timbre import compute_timbre_vector
if sys.argv[2] == "kept":
    assert cli._keep_freed_heap()
sys.path.insert(0, sys.argv[3])
from test_analysis import analysis_clips
arrays = {}
for name, clip in analysis_clips():
    clip = resample(clip, CANONICAL_RATE)
    arrays[name + ".samples"] = clip.samples
    arrays[name + ".timbre"] = compute_timbre_vector(clip).as_array()
    arrays[name + ".spectral"] = spectral_features(clip)
np.savez(sys.argv[1], **arrays)
"""


def test_output_bits_do_not_depend_on_heap_layout(tmp_path):
    # Heap-backed temporaries sit at other alignments than page-aligned mmaps;
    # resample's einsum, the mel GEMM and _brightness' GEMV must not care.
    if not cli._keep_freed_heap():
        pytest.skip("no glibc mallopt")
    runs = {}
    for heap in ("default", "kept"):
        out = tmp_path / f"{heap}.npz"
        in_child("-c", _LAYOUT_CHILD, out, heap, Path(__file__).parent)
        with np.load(out) as arrays:
            runs[heap] = {key: arrays[key].tobytes() for key in arrays.files}
    assert len(runs["default"]) == 3 * len(analysis_clips())
    assert runs["kept"] == runs["default"]
