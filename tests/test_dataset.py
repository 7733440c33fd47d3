import re

import numpy as np
import pytest

from timbrediff.dataset import (
    ManifestEntry,
    auc,
    generate_ground_truth,
    ground_truth_statistics,
    load_manifest,
    read_ground_truth_csv,
    write_ground_truth_csv,
    write_manifest_csv,
)
from timbrediff.timbre import TimbreVector


def pair_count_auc(neg, pos):
    """Independent O(n^2) oracle: 1 per ordered pair, 0.5 per tie."""
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(neg) * len(pos))


def entry(clip_id, split, state, condition, cause=""):
    return ManifestEntry(clip_id=clip_id, path=f"audio/{clip_id}.wav",
                         split=split, state=state, condition_id=condition,
                         cause_id=cause)


def uniform_vector(value):
    """A timbre vector with every attribute pinned to one in-range value."""
    return TimbreVector(value, value, value, 500.0 + value, value)


def as_arrays(timbre):
    """{clip_id: TimbreVector} as generate_ground_truth's ids and [N x 5] values."""
    return list(timbre), np.array([vec.as_array() for vec in timbre.values()])


class TestManifest:
    HEADER = "clip_id,path,split,state,condition,cause,domain"

    def write(self, tmp_path, rows):
        path = tmp_path / "manifest.csv"
        path.write_text("\n".join([self.HEADER] + rows) + "\n")
        return path

    def test_well_formed(self, tmp_path):
        path = self.write(tmp_path, [
            "a,audio/a.wav,train,normal,c1,,source",
            "b,audio/b.wav,train,normal,c1,,source",
            "c,audio/c.wav,test,normal,c1,,source",
            "d,audio/d.wav,test,anomalous,c1,q1,source",
        ])
        entries = load_manifest(path)
        assert len(entries) == 4
        assert entries[3].cause_id == "q1"

    def test_anomalous_train_rejected_with_row(self, tmp_path):
        path = self.write(tmp_path, [
            "a,audio/a.wav,train,normal,c1,,source",
            "b,audio/b.wav,train,anomalous,c1,q1,source",
        ])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: row 3: training data must be normal only")):
            load_manifest(path)

    def test_duplicate_clip_id(self, tmp_path):
        path = self.write(tmp_path, [
            "a,audio/a.wav,train,normal,c1,,source",
            "a,audio/a2.wav,test,normal,c1,,source",
        ])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: row 3: duplicate clip_id 'a' (first at row 2)")):
            load_manifest(path)

    def test_anomalous_without_cause(self, tmp_path):
        path = self.write(tmp_path, [
            "a,audio/a.wav,test,anomalous,c1,,source",
        ])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: row 2: anomalous entries must carry a cause")):
            load_manifest(path)

    def test_roundtrip(self, tmp_path):
        entries = [entry("a", "train", "normal", "c1"),
                   entry("x", "test", "anomalous", "c2", "q9")]
        path = tmp_path / "manifest.csv"
        write_manifest_csv(path, entries)
        assert load_manifest(path) == entries


class TestAuc:
    def test_perfect_separation(self):
        assert auc([1, 2, 3], [4, 5, 6]) == 1.0

    def test_identical_distributions(self):
        assert auc([1, 2], [1, 2]) == 0.5

    def test_interleaved(self):
        assert auc([1, 3], [2, 4]) == 0.75

    def test_symmetry_sums_to_one(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            a = rng.integers(0, 8, rng.integers(1, 30)).astype(float)
            b = rng.integers(0, 8, rng.integers(1, 30)).astype(float)
            assert auc(a, b) + auc(b, a) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            a = rng.normal(size=rng.integers(1, 25))
            b = rng.normal(size=rng.integers(1, 25))
            base = auc(a, b)
            assert auc(np.exp(a), np.exp(b)) == base
            assert auc(3 * a + 7, 3 * b + 7) == base

    def test_matches_pair_counting_with_ties(self):
        rng = np.random.default_rng(65)
        for _ in range(500):
            size_a = int(rng.integers(1, 60))
            size_b = int(rng.integers(1, 60))
            if rng.random() < 0.5:
                a = rng.integers(0, 5, size_a).astype(float)
                b = rng.integers(0, 5, size_b).astype(float)
            else:
                a = rng.normal(size=size_a)
                b = rng.normal(size=size_b)
            assert auc(a, b) == pair_count_auc(list(a), list(b))

    def test_errors(self):
        with pytest.raises(ValueError):
            auc([], [1.0])
        with pytest.raises(ValueError):
            auc([1.0], [np.nan])


class TestGenerateGroundTruth:
    def manifest_one_group(self):
        entries = [entry(f"n{i}", "train", "normal", "c1") for i in range(4)]
        entries += [entry(f"a{i}", "test", "anomalous", "c1", "q1")
                    for i in range(3)]
        return entries

    def test_all_above_gives_plus_one(self):
        entries = self.manifest_one_group()
        timbre = {f"n{i}": uniform_vector(0.1 + 0.01 * i) for i in range(4)}
        timbre.update({f"a{i}": uniform_vector(0.5 + 0.01 * i) for i in range(3)})
        groups, scores, labels = generate_ground_truth(entries, *as_arrays(timbre), 0.05)
        assert groups == [("c1", "q1")]
        assert scores.shape == labels.shape == (1, 5)
        assert np.all(scores == 1.0)
        assert np.all(labels == 1)

    def test_identical_sets_give_zero(self):
        entries = [entry("n0", "train", "normal", "c1"),
                   entry("n1", "train", "normal", "c1"),
                   entry("a0", "test", "anomalous", "c1", "q1"),
                   entry("a1", "test", "anomalous", "c1", "q1")]
        timbre = {"n0": uniform_vector(0.2), "n1": uniform_vector(0.4),
                  "a0": uniform_vector(0.2), "a1": uniform_vector(0.4)}
        _, scores, labels = generate_ground_truth(entries, *as_arrays(timbre), 0.05)
        assert np.all(scores[0] == 0.5)
        assert np.all(labels[0] == 0)

    def test_score_exactly_at_threshold_labels_minus(self):
        # 20 normals, 1 anomaly beating exactly one of them: AUC = 1/20.
        entries = [entry(f"n{i}", "train", "normal", "c1") for i in range(20)]
        entries.append(entry("a0", "test", "anomalous", "c1", "q1"))
        timbre = {f"n{i}": uniform_vector(0.3 + 0.01 * i) for i in range(20)}
        timbre["a0"] = uniform_vector(0.305)  # above n0 only
        _, scores, labels = generate_ground_truth(entries, *as_arrays(timbre), 0.05)
        assert np.all(scores[0] == 0.05)
        assert np.all(labels[0] == -1)

    def test_missing_condition_normals(self):
        entries = [entry("n0", "train", "normal", "c1"),
                   entry("a0", "test", "anomalous", "c2", "q1")]
        timbre = {"n0": uniform_vector(0.2), "a0": uniform_vector(0.4)}
        with pytest.raises(ValueError, match="^condition 'c2' has anomalous clips but no "
                                             "normal training clips$"):
            generate_ground_truth(entries, *as_arrays(timbre))

    def test_missing_timbre_vector(self):
        entries = self.manifest_one_group()
        timbre = {e.clip_id: uniform_vector(0.2) for e in entries}
        del timbre["a1"]
        with pytest.raises(ValueError, match="^missing timbre vector for clip 'a1'$"):
            generate_ground_truth(entries, *as_arrays(timbre))

    @pytest.mark.parametrize("absent,named", [
        (("a_c2", "a_c1"), "a_c1"),     # the first group in sorted order, not the manifest
        (("a_c1", "n_c1"), "n_c1"),     # a group's normal clips before its anomalous ones
        (("b_c1", "a_c1"), "a_c1"),     # a group's clips in manifest order
    ])
    def test_missing_clip_is_named_group_by_group(self, absent, named):
        entries = [entry("n_c2", "train", "normal", "c2"),
                   entry("a_c2", "test", "anomalous", "c2", "q1"),
                   entry("a_c1", "test", "anomalous", "c1", "q1"),
                   entry("b_c1", "test", "anomalous", "c1", "q1"),
                   entry("n_c1", "train", "normal", "c1")]
        timbre = {e.clip_id: uniform_vector(0.2) for e in entries if e.clip_id not in absent}
        with pytest.raises(ValueError, match=f"^missing timbre vector for clip '{named}'$"):
            generate_ground_truth(entries, *as_arrays(timbre))

    def test_permutation_invariance(self):
        entries = self.manifest_one_group()
        rng = np.random.default_rng(67)
        timbre = {e.clip_id: uniform_vector(float(rng.uniform(0.1, 0.9)))
                  for e in entries}
        groups_a, scores_a, labels_a = generate_ground_truth(entries, *as_arrays(timbre))
        groups_b, scores_b, labels_b = generate_ground_truth(list(reversed(entries)),
                                                             *as_arrays(timbre))
        assert groups_a == groups_b
        assert np.array_equal(scores_a, scores_b)
        assert np.array_equal(labels_a, labels_b)


class TestStatistics:
    def test_counting(self):
        stats = ground_truth_statistics(np.zeros((4, 5), dtype=int))
        assert stats == {"groups": 4, "unique_vectors": 1,
                         "counts": {"minus": 0, "zero": 20, "plus": 0}}

    def test_unique_vectors(self):
        up = np.array([1, 0, 0, 0, 0], dtype=int)
        down = np.array([-1, 0, 0, 0, 0], dtype=int)
        stats = ground_truth_statistics(np.array([up, down]))
        assert stats["unique_vectors"] == 2
        assert stats["counts"] == {"minus": 1, "zero": 8, "plus": 1}


class TestGroundTruthCsv:
    def test_roundtrip(self, tmp_path):
        groups = [("c1", "q1"), ("c2", "q2")]
        scores = np.array([[1.0, 0.5, 0.0, 0.25, 0.75], np.full(5, 0.5)])
        labels = np.array([[1, 0, -1, 0, 0], np.zeros(5, dtype=int)])
        path = tmp_path / "gt.csv"
        write_ground_truth_csv(path, groups, scores, labels)
        lines = path.read_text().splitlines()
        assert lines[0] == "condition,cause,attribute,score,label"
        assert len(lines) == 1 + 10
        loaded_groups, loaded_scores, loaded_labels = read_ground_truth_csv(path)
        assert loaded_groups == [("c1", "q1"), ("c2", "q2")]
        np.testing.assert_array_equal(loaded_labels[0], labels[0])
        np.testing.assert_allclose(loaded_scores[0], scores[0])
