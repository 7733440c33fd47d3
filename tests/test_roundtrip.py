"""Property tests: writing a table, embedding file or WAV and reading it back
gives back the same data, for arbitrary Unicode clip ids."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from timbrediff.dataset import (
    DOMAINS,
    GroundTruthRecord,
    ManifestEntry,
    load_manifest,
    read_ground_truth_csv,
    write_ground_truth_csv,
    write_manifest_csv,
)
from timbrediff.detector import TimbreDiffResult, read_results_csv, write_results_csv
from timbrediff.embeddings import read_tdce, write_embeddings
from timbrediff.frontend import AudioClip, load_wav, save_wav
from timbrediff.timbre import TimbreVector, read_timbre_csv, write_timbre_csv

ROUNDTRIP = settings(max_examples=100, deadline=None, derandomize=True)

names = st.text(min_size=1, max_size=12)


def nine_digits(lo, hi):
    """Floats as the CSV writers keep them: 9 significant digits."""
    return st.floats(lo, hi).map(lambda v: float(f"{v:.9g}"))


unit = nine_digits(0.0, 1.0)
labels = st.sampled_from([-1, 0, 1])


def unique_ids(values, max_size=6):
    """Lists of (clip id, value) pairs with distinct clip ids."""
    return st.lists(st.tuples(names, values), max_size=max_size,
                    unique_by=lambda pair: pair[0])


@st.composite
def manifest_entries(draw):
    split, state = draw(st.sampled_from([("train", "normal"), ("test", "normal"),
                                         ("test", "anomalous")]))
    cause = draw(names if state == "anomalous" else st.just(""))
    return split, state, draw(names), draw(names), cause, draw(st.sampled_from(DOMAINS))


@ROUNDTRIP
@given(rows=unique_ids(manifest_entries()))
def test_manifest(tmp_path_factory, rows):
    entries = [ManifestEntry(cid, path, split, state, cond, cause, domain)
               for cid, (split, state, path, cond, cause, domain) in rows]
    path = tmp_path_factory.mktemp("manifest") / "manifest.csv"
    write_manifest_csv(path, entries)
    assert load_manifest(path) == entries


timbre_vectors = st.builds(TimbreVector, nine_digits(0.0, 50.0), nine_digits(0.0, 5.0),
                           unit, nine_digits(1e-3, 1e5), unit)


@ROUNDTRIP
@given(rows=unique_ids(timbre_vectors))
def test_timbre_csv(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("timbre") / "timbre.csv"
    write_timbre_csv(path, [cid for cid, _ in rows],
                     np.array([vec.as_array() for _, vec in rows]).reshape(-1, 5))
    assert list(read_timbre_csv(path).items()) == rows


results = st.tuples(nine_digits(0.0, 1e6), st.lists(unit, min_size=5, max_size=5),
                    st.lists(labels, min_size=5, max_size=5))


@ROUNDTRIP
@given(rows=unique_ids(results))
def test_results_csv(tmp_path_factory, rows):
    written = [TimbreDiffResult(cid, score, scores, marks)
               for cid, (score, scores, marks) in rows]
    path = tmp_path_factory.mktemp("results") / "results.csv"
    write_results_csv(path, written)
    loaded = read_results_csv(path)
    assert [(r.clip_id, r.anomaly_score, r.attribute_scores.tolist(),
             r.attribute_labels.tolist()) for r in loaded] == \
        [(cid, score, scores, marks) for cid, (score, scores, marks) in rows]


@ROUNDTRIP
@given(groups=st.lists(st.tuples(names, names, st.lists(unit, min_size=5, max_size=5),
                                 st.lists(labels, min_size=5, max_size=5)),
                       max_size=5, unique_by=lambda g: g[:2]))
def test_ground_truth_csv(tmp_path_factory, groups):
    path = tmp_path_factory.mktemp("gt") / "gt.csv"
    write_ground_truth_csv(path, [GroundTruthRecord(*g) for g in groups])
    loaded = read_ground_truth_csv(path)
    assert [(r.condition_id, r.cause_id, r.scores.tolist(), r.labels.tolist())
            for r in loaded] == groups


float32s = st.floats(width=32, allow_nan=False, allow_infinity=False)


@ROUNDTRIP
@given(dim=st.integers(1, 6), data=st.data())
def test_tdce(tmp_path_factory, dim, data):
    rows = data.draw(unique_ids(st.lists(float32s, min_size=dim, max_size=dim)))
    path = tmp_path_factory.mktemp("tdce") / "emb.tdce"
    write_embeddings(path, [cid for cid, _ in rows],
                     np.array([vec for _, vec in rows]).reshape(-1, dim))
    ids, vectors = read_tdce(path)
    assert ids == [cid for cid, _ in rows]
    assert vectors.reshape(-1).tolist() == [v for _, vec in rows for v in vec]


rates = st.integers(1, 192_000)


@ROUNDTRIP
@given(samples=st.lists(float32s, min_size=1, max_size=64), rate=rates)
def test_wav_float32_exact(tmp_path_factory, samples, rate):
    path = tmp_path_factory.mktemp("wav") / "clip.wav"
    save_wav(path, AudioClip(samples, rate), "float32")
    clip = load_wav(path)
    assert clip.sample_rate == rate
    assert clip.samples.tolist() == samples


@ROUNDTRIP
@given(samples=st.lists(st.floats(-1.0, 32767 / 32768), min_size=1, max_size=64),
       rate=rates)
def test_wav_pcm16_within_half_lsb(tmp_path_factory, samples, rate):
    path = tmp_path_factory.mktemp("wav") / "clip.wav"
    save_wav(path, AudioClip(samples, rate), "pcm16")
    clip = load_wav(path)
    assert clip.sample_rate == rate
    assert np.all(np.abs(clip.samples - samples) <= 0.5 / 32768)
