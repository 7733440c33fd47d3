import json
import re

import numpy as np
import pytest

from timbrediff.csvrows import write_json
from timbrediff.dataset import ManifestEntry
from timbrediff.detector import auc
from timbrediff.evaluation import build_report, normalized_mae

ATTRS = 5


def brute_force_mae(predictions, truths):
    """Direct evaluation of the class-balanced error, per attribute."""
    out = []
    for col in range(ATTRS):
        class_counts = {}
        for row in truths:
            y = int(row[col])
            class_counts[y] = class_counts.get(y, 0) + 1
        total = 0.0
        for pred, row in zip(predictions, truths):
            y = int(row[col])
            total += abs(int(pred[col]) - y) / class_counts[y]
        out.append(total / len(class_counts))
    return np.array(out)


def labels(*values):
    return np.array(values, dtype=int)


def wide(label):
    return np.full(ATTRS, label, dtype=int)


def rows(*values):
    """[C x 5] labels, row i every attribute at values[i]."""
    return np.array([wide(v) for v in values]).reshape(-1, ATTRS)


class TestDetectionAuc:
    def test_separated(self):
        assert auc([0.1, 0.2], [0.8, 0.9]) == 1.0

    def test_identical(self):
        assert auc([0.3, 0.7], [0.3, 0.7]) == 0.5

    def test_interleaved(self):
        assert auc([1, 3], [2, 4]) == 0.75

    def test_empty_side(self):
        with pytest.raises(ValueError):
            auc([], [1.0])


class TestNormalizedMae:
    def test_perfect_predictions(self):
        truths = rows(-1, 0, 1, 1)
        mae = normalized_mae(truths.copy(), truths)
        assert np.all(mae == 0.0)

    def test_two_class_renormalization(self):
        truths = rows(1, 1, 0)
        preds = rows(0, 1, 0)
        mae = normalized_mae(preds, truths)
        np.testing.assert_allclose(mae, 0.25)  # (|0-1|/2) / 2 classes

    def test_three_class_case(self):
        truths = rows(1, 0, -1, 1)
        preds = rows(-1, 0, -1, 1)
        mae = normalized_mae(preds, truths)
        np.testing.assert_allclose(mae, (2.0 / 2.0) / 3.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            truths = np.array([rng.integers(-1, 2, ATTRS) for _ in range(n)])
            preds = np.array([rng.integers(-1, 2, ATTRS) for _ in range(n)])
            got = normalized_mae(preds, truths)
            np.testing.assert_allclose(got, brute_force_mae(preds, truths),
                                       atol=1e-12)

    @pytest.mark.parametrize("preds,truths", [
        (rows(1), rows(1, 0)),                              # a truth row without a prediction
        (rows(1, 0)[:, :4], rows(1, 0)[:, :4]),             # four attributes
        (wide(1), wide(1)),                                 # one clip, not [1 x 5]
    ], ids=["rows", "columns", "flat"])
    def test_shapes_must_match(self, preds, truths):
        with pytest.raises(ValueError, match="must both be"):
            normalized_mae(preds, truths)

    def test_no_truth_clip(self):
        with pytest.raises(ValueError, match="C >= 1"):
            normalized_mae(rows(), rows())

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="^row 1: label 2 out of range$"):
            normalized_mae(rows(1, 2), rows(1, 1))

    def test_max_contribution_bound(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            truths = np.array([rng.integers(-1, 2, ATTRS) for _ in range(n)])
            preds = np.array([rng.integers(-1, 2, ATTRS) for _ in range(n)])
            mae = normalized_mae(preds, truths)
            assert np.all(mae >= 0.0)
            assert np.all(mae <= 2.0)  # worst case: every clip off by 2

    def test_sign_flip_is_maximal(self):
        truths = rows(1, -1)
        flipped = rows(-1, 1)
        mae_flip = normalized_mae(flipped, truths)
        rng = np.random.default_rng(75)
        for _ in range(50):
            preds = np.array([rng.integers(-1, 2, ATTRS) for _ in range(2)])
            assert np.all(normalized_mae(preds, truths) <= mae_flip + 1e-12)


class TestBuildReport:
    def setup_data(self):
        """(results, entries, ground truth): the results as clip ids, [C]
        anomaly scores and [C x 5] labels, the ground truth as groups and
        [G x 5] labels."""
        entries = [
            ManifestEntry("n_tr", "p", "train", "normal", "c1"),
            ManifestEntry("n0", "p", "test", "normal", "c1"),
            ManifestEntry("n1", "p", "test", "normal", "c1"),
            ManifestEntry("a0", "p", "test", "anomalous", "c1", "q1"),
            ManifestEntry("a1", "p", "test", "anomalous", "c1", "q1"),
        ]
        truth = ([("c1", "q1")], labels(1, 0, 0, 0, 0)[None])
        results = (["n0", "n1", "a0", "a1"], np.array([0.1, 0.2, 0.9, 0.8]),
                   np.array([wide(0), wide(0), labels(1, 0, 0, 0, 0), labels(1, 0, 0, 0, 0)]))
        return results, entries, truth

    def test_perfect_results(self):
        results, entries, truth = self.setup_data()
        report = build_report(*results, entries, *truth)
        assert report["detection_auc"] == 1.0
        assert report["mean_mae"] == 0.0
        assert report["n_clips"] == 2
        assert report["counts"]["sharpness"] == {"-1": 0, "0": 0, "1": 2}

    def test_order_invariance(self):
        results, entries, truth = self.setup_data()
        a = build_report(*results, entries, *truth)
        b = build_report(*(column[::-1] for column in results), entries, *truth)
        assert a == b

    def test_missing_result_names_clip(self):
        results, entries, truth = self.setup_data()
        with pytest.raises(ValueError, match=re.escape(
                "missing result for clip 'a1' (1 test clips uncovered)")):
            build_report(*(column[:-1] for column in results), entries, *truth)

    def test_shared_group_shares_labels(self):
        # Both anomalous clips, and no normal one, take the group's one label
        # vector, all +1: a1's prediction is -1 everywhere, a0's is +1 only
        # for sharpness.
        (ids, anomaly, predicted), entries, (groups, _) = self.setup_data()
        predicted[3] = -1
        report = build_report(ids, anomaly, predicted, entries, groups, wide(1)[None])
        assert report["n_clips"] == 2
        assert report["counts"]["depth"] == {"-1": 0, "0": 0, "1": 2}
        assert report["mae"]["sharpness"] == 1.0       # (0 + 2) / 2 truth clips / 1 class
        assert report["mae"]["depth"] == 1.5           # (1 + 2) / 2 / 1

    def test_unknown_cause_names_clip(self):
        results, entries, _ = self.setup_data()
        with pytest.raises(ValueError, match=re.escape(
                "clip 'a0': no ground truth record for condition 'c1', cause 'q1'")):
            build_report(*results, entries, [("c1", "q_other")], wide(1)[None])

    def test_json_roundtrip(self, tmp_path):
        results, entries, truth = self.setup_data()
        report = build_report(*results, entries, *truth)
        path = tmp_path / "report.json"
        write_json(path, report)
        assert json.loads(path.read_text()) == report
        text = path.read_text()
        assert '"detection_auc"' in text and '"mean_mae"' in text
