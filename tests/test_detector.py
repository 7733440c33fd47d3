from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timbrediff import detector
from timbrediff.detector import (
    ReferenceSet,
    anomaly_score,
    global_baseline_score,
    knn,
    read_results_csv,
    score_clip,
    threshold_label,
    timbre_rank_score,
    write_results_csv,
)
from timbrediff.embeddings import (
    DistanceKind,
    Embedding,
    NormalizationStats,
    distances_to,
)
from timbrediff.timbre import TimbreVector


def brute_force_u(test_value, neighbor_values):
    """Independent pair-counting U: 1 per win, 0.5 per tie."""
    u = 0.0
    for v in neighbor_values:
        if v < test_value:
            u += 1.0
        elif v == test_value:
            u += 0.5
    return u


def make_ref(points, timbre=None, kind=DistanceKind.EUCLIDEAN):
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, dim = points.shape
    if timbre is None:
        timbre = np.tile([1.0, 0.1, 0.5, 1000.0, 0.5], (n, 1))
    stats = NormalizationStats(np.zeros(dim), np.ones(dim))
    return ReferenceSet(points, np.asarray(timbre, dtype=np.float64),
                        tuple(f"train_{i}" for i in range(n)), "p", kind, stats)


def make_query(vector, clip_id="q"):
    return Embedding(np.atleast_1d(np.asarray(vector, dtype=np.float64)),
                     "p", clip_id)


def knn_one(ref, query, k):
    """(indices, distances) of a single query vector's k nearest rows."""
    indices, distances = knn(ref, [query], k)
    return indices[0], distances[0]


class TestReferenceSet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["embeddings", "timbre"])
    def test_non_finite_rows_are_rejected(self, bad, where):
        points = np.zeros((3, 2))
        timbre = np.tile([1.0, 0.1, 0.5, 1000.0, 0.5], (3, 1))
        (points if where == "embeddings" else timbre)[1, 0] = bad
        with pytest.raises(ValueError, match="^reference data must be finite$"):
            make_ref(points, timbre)


class TestKnn:
    def test_exact_match(self):
        ref = make_ref([[0.0], [1.0], [10.0]])
        indices, distances = knn_one(ref, [1.0], 1)
        assert indices[0] == 1
        assert distances[0] == 0.0

    def test_two_nearest(self):
        ref = make_ref([[0.0], [1.0], [10.0]])
        indices, distances = knn_one(ref, [0.4], 2)
        assert list(zip(indices, distances)) == [(0, 0.4), (1, 0.6)]

    def test_tie_breaks_to_lower_index(self):
        ref = make_ref([[0.0], [3.0], [5.0], [9.0], [1.0], [5.0]])
        indices, _ = knn_one(ref, [5.0], 1)
        assert indices[0] == 2

    def test_k_out_of_range(self):
        ref = make_ref([[0.0], [1.0]])
        with pytest.raises(ValueError):
            knn(ref, [[0.0]], 3)
        with pytest.raises(ValueError):
            knn(ref, [[0.0]], 0)


class TestBatchedSearch:
    """knn equals the full stable sort of distances_to, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_equals_full_stable_sort(self, data):
        kind = data.draw(st.sampled_from(list(DistanceKind)))
        n = data.draw(st.integers(1, 24))
        dim = data.draw(st.integers(1, 5))
        # A small grid of values repeats rows and ties distances, also at
        # the k-th; the offset makes large-norm rows, where the Gram form
        # cancels catastrophically; scales give zero vectors (0) and squares
        # that underflow (1e-160 to 1e-152), and queries may use their own.
        cell = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, 0.3, -1.7])
        grid = st.lists(cell, min_size=dim, max_size=dim)
        scales = st.sampled_from([0.0, 1e-160, 1e-155, 1e-152, 1e-3, 1.0, 1e6])
        scale = data.draw(scales)
        offset = data.draw(st.sampled_from([0.0, 0.0, 1e8]))
        rows = np.array([data.draw(grid) for _ in range(n)]) * scale + offset
        queries = []
        for _ in range(data.draw(st.integers(1, 5))):
            source = data.draw(st.sampled_from(["row", "zero", "grid"]))
            if source == "row":                     # exact self-match
                queries.append(rows[data.draw(st.integers(0, n - 1))].copy())
            elif source == "zero":
                queries.append(np.zeros(dim))
            else:
                queries.append(np.array(data.draw(grid)) * data.draw(scales) + offset)
        k = data.draw(st.integers(1, n))
        block_bytes = data.draw(st.sampled_from([8, detector._GRAM_BLOCK_BYTES]))
        ref = make_ref(rows, kind=kind)
        with mock.patch.object(detector, "_GRAM_BLOCK_BYTES", block_bytes):
            indices, distances = knn(ref, np.array(queries), k)
        for query, got_indices, got_distances in zip(queries, indices, distances):
            full = distances_to(rows, query, kind)
            order = np.argsort(full, kind="stable")[:k]
            np.testing.assert_array_equal(got_indices, order)
            assert got_distances.tobytes() == full[order].tobytes()

    def test_filter_keeps_few_rows(self):
        # Continuous data has no ties: the bounds are ~1e-13 relative, so
        # the rescored set should be the k neighbours themselves.
        rng = np.random.default_rng(61)
        rows = rng.standard_normal((2000, 8))
        queries = rng.standard_normal((5, 8))
        for kind in DistanceKind:
            candidates = detector._gram_candidates(rows, queries, kind, 10)
            assert max(len(c) for c in candidates) <= 12

    def test_no_queries(self):
        indices, distances = knn(make_ref([[0.0, 1.0], [1.0, 0.0]]), np.empty((0, 2)), 1)
        assert indices.shape == distances.shape == (0, 1)

    def test_dimension_mismatch(self):
        ref = make_ref([[0.0, 1.0]])
        for queries in ([[0.0]], np.zeros((2, 3)), np.zeros(2), np.zeros((1, 1, 2))):
            with pytest.raises(ValueError, match=r"queries must be \[Q x 2\]"):
                knn(ref, queries, 1)

    def test_non_finite_query(self):
        with pytest.raises(ValueError, match="finite"):
            knn(make_ref([[0.0], [1.0]]), [[0.0], [np.inf]], 1)


class TestAnomalyScore:
    def test_mean_of_two(self):
        assert anomaly_score(np.array([1.0, 3.0])) == 2.0

    def test_self_match_zero(self):
        ref = make_ref([[2.0], [5.0]])
        _, distances = knn_one(ref, [2.0], 1)
        assert anomaly_score(distances) == 0.0

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            dists = rng.uniform(0, 10, rng.integers(1, 40))
            total = 0.0
            for d in dists:
                total += d
            assert abs(anomaly_score(dists) - total / len(dists)) < 1e-12

    def test_empty(self):
        with pytest.raises(ValueError):
            anomaly_score([])


class TestTimbreRankScore:
    def test_above_all(self):
        assert timbre_rank_score(5.0, [1.0, 2.0, 3.0, 4.0]) == 1.0

    def test_below_all(self):
        assert timbre_rank_score(0.0, [1.0, 2.0, 3.0, 4.0]) == 0.0

    def test_ties_count_half(self):
        assert timbre_rank_score(2.0, [1.0, 2.0, 2.0, 3.0]) == 0.5

    def test_matches_pair_counting_u(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            k = int(rng.integers(1, 51))
            if rng.random() < 0.5:
                values = rng.integers(0, 6, k).astype(float)  # many ties
                test = float(rng.integers(0, 6))
            else:
                values = rng.normal(size=k)
                test = float(rng.normal())
            score = timbre_rank_score(test, values)
            assert abs(score * k - brute_force_u(test, values)) < 1e-12

    def test_monotone_in_test_value(self):
        rng = np.random.default_rng(33)
        values = rng.normal(size=20)
        grid = np.sort(np.concatenate([values, rng.normal(size=50)]))
        scores = [timbre_rank_score(v, values) for v in grid]
        assert np.all(np.diff(scores) >= 0)

    def test_boundary_iff_extreme(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            values = rng.normal(size=10)
            test = float(rng.normal())
            score = timbre_rank_score(test, values)
            assert 0.0 <= score <= 1.0
            assert (score == 0.0) == bool(np.all(test < values))
            assert (score == 1.0) == bool(np.all(test > values))

    def test_errors(self):
        with pytest.raises(ValueError):
            timbre_rank_score(1.0, [])
        with pytest.raises(ValueError):
            timbre_rank_score(np.nan, [1.0])


class TestThresholdLabel:
    def test_representative_scores(self):
        assert threshold_label(0.05, 0.1) == -1
        assert threshold_label(0.5, 0.1) == 0
        assert threshold_label(0.9, 0.1) == 1
        assert threshold_label(0.1, 0.1) == -1  # inclusive lower bound

    def test_boundaries(self):
        eps = 1e-9
        for t in (0.05, 0.1, 0.3):
            assert threshold_label(t - eps, t) == -1
            assert threshold_label(t, t) == -1
            assert threshold_label(t + eps, t) == 0
            assert threshold_label(1 - t - eps, t) == 0
            assert threshold_label(1 - t, t) == 1
            assert threshold_label(1 - t + eps, t) == 1

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            threshold_label(0.5, 0.5)
        with pytest.raises(ValueError):
            threshold_label(0.5, -0.01)


class TestScoreClip:
    def self_match_setup(self):
        rng = np.random.default_rng(41)
        points = rng.normal(size=(6, 3))
        timbre = rng.uniform(0.1, 0.9, size=(6, 5))
        timbre[:, 3] += 500.0  # keep brightness positive and distinct
        return make_ref(points, timbre), points, timbre

    def test_self_match_is_all_ties(self):
        ref, points, timbre = self.self_match_setup()
        result = score_clip(ref, make_query(points[2]),
                            TimbreVector.from_array(timbre[2]), k=1, t=0.1)
        assert result.anomaly_score == 0.0
        assert np.all(result.attribute_scores == 0.5)
        assert np.all(result.attribute_labels == 0)

    def test_labels_recomputable_from_scores(self):
        rng = np.random.default_rng(43)
        points = rng.normal(size=(30, 4))
        timbre = rng.uniform(0.1, 0.9, size=(30, 5))
        timbre[:, 3] += 500.0
        ref = make_ref(points, timbre)
        t = 0.2
        for _ in range(20):
            q = rng.normal(size=4)
            tv = rng.uniform(0.1, 0.9, size=5)
            tv[3] += 500.0
            result = score_clip(ref, make_query(q), TimbreVector.from_array(tv),
                                k=7, t=t)
            recomputed = [threshold_label(s, t) for s in result.attribute_scores]
            assert np.array_equal(recomputed, result.attribute_labels)

    def test_deterministic(self):
        ref, points, timbre = self.self_match_setup()
        q = make_query([0.3, -0.2, 1.1])
        tv = TimbreVector.from_array(timbre[0])
        a = score_clip(ref, q, tv, k=3, t=0.1)
        b = score_clip(ref, q, tv, k=3, t=0.1)
        assert a.anomaly_score == b.anomaly_score
        assert np.array_equal(a.attribute_scores, b.attribute_scores)
        assert np.array_equal(a.neighbor_indices, b.neighbor_indices)

    def test_translation_invariance_euclidean(self):
        rng = np.random.default_rng(47)
        points = rng.normal(size=(25, 4))
        timbre = rng.uniform(0.1, 0.9, size=(25, 5))
        timbre[:, 3] += 500.0
        shift = rng.normal(size=4) * 10
        ref = make_ref(points, timbre)
        ref_shifted = make_ref(points + shift, timbre)
        q = rng.normal(size=4)
        tv = TimbreVector.from_array(timbre[0])
        a = score_clip(ref, make_query(q), tv, k=5, t=0.1)
        b = score_clip(ref_shifted, make_query(q + shift), tv, k=5, t=0.1)
        assert abs(a.anomaly_score - b.anomaly_score) < 1e-9

    def test_provider_mismatch(self):
        ref = make_ref([[0.0]])
        with pytest.raises(ValueError, match="'p' embedding"):
            score_clip(ref, Embedding(np.zeros(1), "other"),
                       TimbreVector(1.0, 0.1, 0.5, 1000.0, 0.5), k=1)

    def test_nan_query_fails_in_knn(self):
        # Embedding checks shape only; knn checks the whole query array.
        ref = make_ref([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="^query embeddings must be finite$"):
            score_clip(ref, make_query([0.5, np.nan]),
                       TimbreVector(1.0, 0.1, 0.5, 1000.0, 0.5), k=1)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_score_clips_equals_score_clip_per_query(self, data):
        n = data.draw(st.integers(1, 12))
        dim = data.draw(st.integers(1, 3))
        q = data.draw(st.integers(0, 6))
        # Few distinct values: rows repeat, distances and timbre values tie.
        cell = st.sampled_from([-1.0, 0.0, 0.5, 1.0])
        tied = st.sampled_from([0.25, 0.5, 0.75])

        def matrix(rows, cols, values):
            drawn = data.draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                                       min_size=rows, max_size=rows))
            return np.array(drawn, dtype=np.float64).reshape(rows, cols)

        kind = data.draw(st.sampled_from(list(DistanceKind)))
        ref = make_ref(matrix(n, dim, cell), matrix(n, 5, tied), kind)
        queries, values = matrix(q, dim, cell), matrix(q, 5, tied)
        k = data.draw(st.integers(1, n))
        t = data.draw(st.sampled_from([0.0, 0.1, 0.25]))
        block_bytes = data.draw(st.sampled_from([8, detector._GRAM_BLOCK_BYTES]))
        ids = [f"q{i}" for i in range(q)]
        with mock.patch.object(detector, "_GRAM_BLOCK_BYTES", block_bytes):
            batch = detector.score_clips(ref, ids, queries, values, k=k, t=t)
        assert [res.clip_id for res in batch] == ids
        for query, value, res in zip(queries, values, batch):
            one = score_clip(ref, make_query(query, res.clip_id),
                             TimbreVector.from_array(value), k=k, t=t)
            assert np.float64(res.anomaly_score).tobytes() == \
                np.float64(one.anomaly_score).tobytes()
            assert res.attribute_scores.tobytes() == one.attribute_scores.tobytes()
            assert res.attribute_labels.tolist() == one.attribute_labels.tolist()
            assert res.neighbor_indices.tolist() == one.neighbor_indices.tolist()


class TestGlobalBaseline:
    def test_above_every_training_value(self):
        rng = np.random.default_rng(51)
        timbre = rng.uniform(0.1, 0.4, size=(10, 5))
        timbre[:, 3] += 500.0
        ref = make_ref(rng.normal(size=(10, 2)), timbre)
        query = timbre.max(axis=0) + 0.05
        scores, labels = global_baseline_score(ref, [query], t=0.1)
        assert np.all(scores == 1.0)
        assert np.all(labels == 1)

    def test_single_training_clip_tie(self):
        timbre = np.array([[2.0, 0.3, 0.4, 800.0, 0.6]])
        ref = make_ref(np.zeros((1, 2)), timbre)
        scores, labels = global_baseline_score(ref, timbre, t=0.1)
        assert np.all(scores == 0.5)
        assert np.all(labels == 0)

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(53)
        n = 40
        timbre = rng.uniform(0.1, 0.9, size=(n, 5))
        timbre[:, 3] += 500.0
        ref = make_ref(rng.normal(size=(n, 2)), timbre)
        tv = rng.uniform(0.1, 0.9, size=5)
        tv[3] += 500.0
        scores, _ = global_baseline_score(ref, [tv])
        for col in range(5):
            expected = brute_force_u(tv[col], timbre[:, col]) / n
            assert abs(scores[0, col] - expected) < 1e-12

    def test_score_clips_global_keeps_knn_and_ranks_each_query(self):
        rng = np.random.default_rng(55)
        timbre = rng.integers(1, 5, size=(20, 5)) / 4       # many ties
        ref = make_ref(rng.normal(size=(20, 3)), timbre)
        ids = [f"q{i}" for i in range(6)]
        queries = rng.normal(size=(6, 3))
        values = rng.integers(1, 5, size=(6, 5)) / 4
        knn_results = detector.score_clips(ref, ids, queries, values, k=4, t=0.25)
        global_results = detector.score_clips(ref, ids, queries, values, k=4, t=0.25,
                                              baseline="global")
        for res_knn, res, value in zip(knn_results, global_results, values):
            scores, labels = global_baseline_score(ref, [value], t=0.25)
            assert res.clip_id == res_knn.clip_id
            assert res.anomaly_score == res_knn.anomaly_score
            assert np.array_equal(res.neighbor_indices, res_knn.neighbor_indices)
            assert res.attribute_scores.tolist() == scores[0].tolist()
            assert res.attribute_labels.tolist() == labels[0].tolist()
        with pytest.raises(ValueError, match="unknown baseline"):
            detector.score_clips(ref, ids, queries, values, k=4, baseline="knn")


def _reference_rank_score(test_value: float, neighbor_values) -> float:
    """Oracle: the former timbre_rank_score, counting wins and ties directly."""
    values = np.asarray(neighbor_values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("need at least one neighbor value")
    if not (np.isfinite(test_value) and np.all(np.isfinite(values))):
        raise ValueError("rank score requires finite values")
    wins = np.count_nonzero(values < test_value)
    ties = np.count_nonzero(values == test_value)
    return float((wins + 0.5 * ties) / values.size)


def _reference_auc(negative_scores, positive_scores) -> float:
    """Oracle: the former dataset.auc, through midranks and the rank-sum identity."""
    neg = np.asarray(negative_scores, dtype=np.float64)
    pos = np.asarray(positive_scores, dtype=np.float64)
    if neg.size == 0 or pos.size == 0:
        raise ValueError("auc requires non-empty negative and positive score lists")
    if not (np.all(np.isfinite(neg)) and np.all(np.isfinite(pos))):
        raise ValueError("auc requires finite scores")

    combined = np.concatenate([neg, pos])
    _, inverse, counts = np.unique(combined, return_inverse=True,
                                   return_counts=True)
    ends = np.cumsum(counts)
    midranks = (ends - counts + 1 + ends) / 2.0     # average rank per distinct value
    pos_rank_sum = midranks[inverse[neg.size:]].sum()
    u = pos_rank_sum - pos.size * (pos.size + 1) / 2.0
    return float(u / (neg.size * pos.size))


def _reference_label(score: float, t: float) -> int:
    return -1 if score <= t else 1 if score >= 1.0 - t else 0


# Heavily tied values from a small integer set, or spread-out floats.
SAMPLES = st.one_of(
    st.lists(st.integers(0, 3).map(float), min_size=1, max_size=40),
    st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=40),
)


class TestOneCountMatchesReference:
    """auc, timbre_rank_score and global_baseline_score share one U count;
    each equals its former implementation bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(neg=SAMPLES, pos=SAMPLES)
    def test_auc(self, neg, pos):
        assert detector.auc(neg, pos) == _reference_auc(neg, pos)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tests=SAMPLES, neighbors=SAMPLES)
    def test_batched_rank_score(self, tests, neighbors):
        batched = timbre_rank_score(np.array(tests), neighbors)
        expected = [_reference_rank_score(v, neighbors) for v in tests]
        assert batched.tolist() == expected
        assert timbre_rank_score(tests[0], neighbors) == expected[0]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 30), q=st.integers(0, 8),
           t=st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.49]))
    def test_batched_global_baseline(self, data, n, q, t):
        small = st.integers(1, 4).map(lambda v: v / 4)      # in (0, 1]; many ties
        timbre = np.array(data.draw(st.lists(st.lists(small, min_size=5, max_size=5),
                                             min_size=n, max_size=n)))
        queries = np.array(data.draw(st.lists(st.lists(small, min_size=5, max_size=5),
                                              min_size=q, max_size=q))).reshape(q, 5)
        ref = make_ref(np.zeros((n, 1)), timbre)
        scores, labels = global_baseline_score(ref, queries, t)
        assert scores.shape == labels.shape == (q, 5)
        for i, query in enumerate(queries):
            expected = [_reference_rank_score(query[col], timbre[:, col])
                        for col in range(5)]
            assert scores[i].tolist() == expected
            assert labels[i].tolist() == [_reference_label(s, t) for s in expected]

    def test_threshold_label_array_matches_scalar(self):
        scores = np.linspace(0.0, 1.0, 41)
        for t in (0.0, 0.05, 0.1, 0.3):
            assert threshold_label(scores, t).tolist() == \
                [threshold_label(s, t) for s in scores]


class TestResultsCsv:
    def test_roundtrip(self, tmp_path):
        results = [
            score_clip(make_ref([[0.0], [1.0]]), make_query([0.25], "c1"),
                       TimbreVector(2.0, 0.1, 0.3, 700.0, 0.4), k=2, t=0.1),
        ]
        path = tmp_path / "results.csv"
        write_results_csv(path, results)
        header = path.read_text().splitlines()[0]
        assert header == ("clip_id,anomaly_score,sharpness_score,roughness_score,"
                          "boominess_score,brightness_score,depth_score,"
                          "sharpness_label,roughness_label,boominess_label,"
                          "brightness_label,depth_label")
        loaded = read_results_csv(path)
        assert loaded[0].clip_id == "c1"
        assert loaded[0].anomaly_score == pytest.approx(
            results[0].anomaly_score, rel=1e-8)
        assert np.array_equal(loaded[0].attribute_labels,
                              results[0].attribute_labels)
