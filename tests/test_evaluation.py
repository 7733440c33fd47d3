import json
from dataclasses import asdict

import numpy as np
import pytest

from timbrediff.dataset import GroundTruthRecord, ManifestEntry
from timbrediff.detector import TimbreDiffResult, auc
from timbrediff.evaluation import (
    CoverageError,
    build_report,
    normalized_mae,
    write_report_json,
)

ATTRS = 5


def brute_force_mae(predictions, truths):
    """Direct evaluation of the class-balanced error, per attribute."""
    out = []
    clip_ids = list(truths)
    for col in range(ATTRS):
        class_counts = {}
        for cid in clip_ids:
            y = int(truths[cid][col])
            class_counts[y] = class_counts.get(y, 0) + 1
        total = 0.0
        for cid in clip_ids:
            y = int(truths[cid][col])
            total += abs(int(predictions[cid][col]) - y) / class_counts[y]
        out.append(total / len(class_counts))
    return np.array(out)


def labels(*values):
    return np.array(values, dtype=int)


def wide(label):
    return np.full(ATTRS, label, dtype=int)


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
        truths = {f"c{i}": wide(v) for i, v in enumerate((-1, 0, 1, 1))}
        mae = normalized_mae(dict(truths), truths)
        assert np.all(mae == 0.0)

    def test_two_class_renormalization(self):
        truths = {"a": wide(1), "b": wide(1), "c": wide(0)}
        preds = {"a": wide(0), "b": wide(1), "c": wide(0)}
        mae = normalized_mae(preds, truths)
        np.testing.assert_allclose(mae, 0.25)  # (|0-1|/2) / 2 classes

    def test_three_class_case(self):
        truths = {"a": wide(1), "b": wide(0), "c": wide(-1), "d": wide(1)}
        preds = {"a": wide(-1), "b": wide(0), "c": wide(-1), "d": wide(1)}
        mae = normalized_mae(preds, truths)
        np.testing.assert_allclose(mae, (2.0 / 2.0) / 3.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            truths = {f"c{i}": rng.integers(-1, 2, ATTRS) for i in range(n)}
            preds = {f"c{i}": rng.integers(-1, 2, ATTRS) for i in range(n)}
            got = normalized_mae(preds, truths)
            np.testing.assert_allclose(got, brute_force_mae(preds, truths),
                                       atol=1e-12)

    def test_missing_prediction(self):
        truths = {"a": wide(1), "b": wide(0)}
        with pytest.raises(CoverageError, match="b"):
            normalized_mae({"a": wide(1)}, truths)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            normalized_mae({"a": wide(2)}, {"a": wide(1)})

    def test_max_contribution_bound(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            truths = {f"c{i}": rng.integers(-1, 2, ATTRS) for i in range(n)}
            preds = {f"c{i}": rng.integers(-1, 2, ATTRS) for i in range(n)}
            mae = normalized_mae(preds, truths)
            assert np.all(mae >= 0.0)
            assert np.all(mae <= 2.0)  # worst case: every clip off by 2

    def test_sign_flip_is_maximal(self):
        truths = {"a": wide(1), "b": wide(-1)}
        flipped = {"a": wide(-1), "b": wide(1)}
        mae_flip = normalized_mae(flipped, truths)
        rng = np.random.default_rng(75)
        for _ in range(50):
            preds = {"a": rng.integers(-1, 2, ATTRS),
                     "b": rng.integers(-1, 2, ATTRS)}
            assert np.all(normalized_mae(preds, truths) <= mae_flip + 1e-12)


class TestBuildReport:
    def setup_data(self):
        entries = [
            ManifestEntry("n_tr", "p", "train", "normal", "c1"),
            ManifestEntry("n0", "p", "test", "normal", "c1"),
            ManifestEntry("n1", "p", "test", "normal", "c1"),
            ManifestEntry("a0", "p", "test", "anomalous", "c1", "q1"),
            ManifestEntry("a1", "p", "test", "anomalous", "c1", "q1"),
        ]
        records = [GroundTruthRecord("c1", "q1", np.full(5, 0.99),
                                     labels(1, 0, 0, 0, 0))]
        results = [
            TimbreDiffResult("n0", 0.1, np.full(5, 0.5), wide(0)),
            TimbreDiffResult("n1", 0.2, np.full(5, 0.5), wide(0)),
            TimbreDiffResult("a0", 0.9, np.full(5, 0.99), labels(1, 0, 0, 0, 0)),
            TimbreDiffResult("a1", 0.8, np.full(5, 0.99), labels(1, 0, 0, 0, 0)),
        ]
        return results, entries, records

    def test_perfect_results(self):
        results, entries, records = self.setup_data()
        report = build_report(results, entries, records)
        assert report.detection_auc == 1.0
        assert report.mean_mae == 0.0
        assert report.n_clips == 2
        assert report.counts["sharpness"] == {"-1": 0, "0": 0, "1": 2}

    def test_order_invariance(self):
        results, entries, records = self.setup_data()
        a = build_report(results, entries, records)
        b = build_report(list(reversed(results)), entries, records)
        assert a == b

    def test_missing_result_names_clip(self):
        results, entries, records = self.setup_data()
        with pytest.raises(CoverageError, match="a1"):
            build_report(results[:-1], entries, records)

    def test_json_roundtrip(self, tmp_path):
        results, entries, records = self.setup_data()
        report = build_report(results, entries, records)
        path = tmp_path / "report.json"
        write_report_json(path, report)
        assert json.loads(path.read_text()) == asdict(report)
        text = path.read_text()
        assert '"detection_auc"' in text and '"mean_mae"' in text
