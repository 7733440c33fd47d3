"""Tests of the benchmark harness itself: span arithmetic, failure counting,
and the knn100k oracle against the package's own search."""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import checks, tracing                  # noqa: E402
from perfbench.pipeline import Ops, Runner              # noqa: E402


def span(span_id, parent, name, start, end, stage="fit"):
    return tracing.Span(span_id, parent, stage, name, float(start), float(end))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, None, "cli.main", 0, 10),
        span(1, 0, "timbre.compute_timbre_vector", 1, 4),
        span(2, 1, "frontend.band_envelopes", 2, 3),
        span(3, 0, "embeddings.spectral_features", 3, 6),   # overlaps span 1
        span(4, 0, "detector.knn", 8, 12),                  # runs past its parent
    ]
    selfs = tracing.self_times(spans)
    # children of 0 cover [1, 6] and [8, 10]: 7 of its 10 seconds
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0})

    metrics = tracing.layer_metrics(spans + [span(5, None, "cli.main", 20, 21, "setup")],
                                    timed_stages=["fit"])
    assert metrics["cli.main.calls"] == (2, "count")
    assert metrics["cli.main.self_s"][0] == pytest.approx(4.0)
    # shares count the timed stage only: 10 s of traced fit time
    assert metrics["cli.main.share"][0] == pytest.approx(0.3)
    assert metrics["detector.knn.share"][0] == pytest.approx(0.4)


def test_tracer_patches_every_binding_and_restores_it(tmp_path):
    import timbrediff.cli
    import timbrediff.detector
    import timbrediff.embeddings

    original = timbrediff.embeddings.distances_to
    tracer = tracing.Tracer()
    with tracer.installed():
        assert timbrediff.detector.distances_to is timbrediff.embeddings.distances_to
        assert timbrediff.detector.distances_to is not original
        with pytest.raises(FileNotFoundError):
            timbrediff.cli.load_wav(tmp_path / "missing.wav")
        timbrediff.detector.distances_to(np.zeros((3, 2)), np.ones(2),
                                         timbrediff.embeddings.DistanceKind.EUCLIDEAN)
    assert timbrediff.detector.distances_to is original
    assert [(s.name, s.error) for s in tracer.spans] == [
        ("frontend.load_wav", True), ("embeddings.distances_to", False)]
    assert tracer.spans[1].note == [3, 2]


def test_corrupt_wav_counts_one_failed_stage(tmp_path):
    from timbrediff.synth import default_benchmark_specs, generate_dataset

    conditions, causes = default_benchmark_specs()
    data = generate_dataset(conditions[:1], causes[:1], train_per_condition=3,
                            test_per_condition=1, seed=3, out_dir=tmp_path / "data")
    (tmp_path / "data" / data.manifest[0].path).write_bytes(b"RIFF\x00\x00not a wave")
    manifest = tmp_path / "data" / "manifest.csv"

    ops = Ops()
    run = Runner(tmp_path / "logs", ops).stage(
        "fit", ["fit", "--manifest", manifest, "--audio-root", tmp_path / "data",
                "--provider", "timbre", "--k", "2", "--out", tmp_path / "model"])
    assert not run.ok and run.seconds > 0 and run.peak_rss_mb > 0
    assert (ops.attempted, ops.failed) == (1, 1)

    # the results that stage never wrote count every test clip as failed
    test_ids = checks.manifest_test_ids(manifest)
    checks.check_results(ops, tmp_path / "results.csv", test_ids)
    assert (ops.attempted, ops.failed) == (1 + len(test_ids), 1 + len(test_ids))


def test_oracle_matches_detector_knn_with_tied_distances():
    from timbrediff.detector import ReferenceSet, score_clip
    from timbrediff.embeddings import DistanceKind, Embedding, NormalizationStats
    from timbrediff.timbre import TimbreVector

    rng = np.random.default_rng(0)
    rows = rng.standard_normal((24, 4))
    rows[[5, 11, 17]] = rows[2]            # three rows tie with row 2 everywhere
    rows[9] = rows[3]
    timbre = rng.uniform(0.1, 0.9, size=(24, 5))
    timbre[:, 3] += 100.0                  # brightness in Hz-like range
    timbre[7] = timbre[2]                  # tied attribute values too
    ref = ReferenceSet(rows, timbre, [f"c{i}" for i in range(24)], "spectral",
                       DistanceKind.EUCLIDEAN, NormalizationStats(np.zeros(4), np.ones(4)))
    query_timbre = TimbreVector.from_array(timbre[2])

    for query in (rows[2] + 0.05, rows[2].copy(), rows[3] * 0.5):
        for k in (1, 3, 4, 6, 24):
            order, dists = checks.oracle_neighbors(rows, query, k)
            result = score_clip(ref, Embedding(query, "spectral", "q"), query_timbre,
                                k=k, t=0.1)
            assert list(order) == list(result.neighbor_indices)
            assert f"{dists.mean():.9g}" == f"{result.anomaly_score:.9g}"
            np.testing.assert_array_equal(
                checks.rank_scores(timbre[2], timbre[order]), result.attribute_scores)
