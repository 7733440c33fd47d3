import re

import numpy as np
import pytest

from timbrediff.dataset import load_manifest
from timbrediff.synth import (
    AnomalyCauseSpec,
    ConditionSpec,
    Transform,
    am_buzz,
    clip_seed,
    default_benchmark_specs,
    generate_clip,
    generate_dataset,
    high_shelf,
)
from timbrediff.timbre import compute_timbre_vector


class TestSpecs:
    def test_condition_validation(self):
        with pytest.raises(ValueError):
            ConditionSpec("x", 20.0, 1, 0.5, 0.0, 0.1)   # base too low
        with pytest.raises(ValueError):
            ConditionSpec("x", 100.0, 0, 0.5, 0.0, 0.1)  # no harmonics
        with pytest.raises(ValueError):
            ConditionSpec("x", 100.0, 1, 0.5, 0.0, -0.1)

    def test_transform_validation(self):
        with pytest.raises(ValueError):
            Transform("wobble", {})
        with pytest.raises(ValueError):
            am_buzz(70.0, 1.5)
        with pytest.raises(ValueError):
            high_shelf(-100.0, 12.0)

    def test_cause_directions_validation(self):
        with pytest.raises(ValueError):
            AnomalyCauseSpec("q", am_buzz(70.0, 0.8), (0, 2, 0, 0, 0))

    def test_default_specs_shape(self):
        conditions, causes = default_benchmark_specs()
        assert len(conditions) == 3
        assert len(causes) == 4
        assert [c.base_frequency for c in conditions] == [60.0, 120.0, 240.0]
        for cause in causes:
            assert any(d != 0 for d in cause.intended_directions)


class TestGenerateClip:
    def test_deterministic(self):
        cond, causes = default_benchmark_specs()
        a = generate_clip(cond[0], causes[0], 1.0, 99)
        b = generate_clip(cond[0], causes[0], 1.0, 99)
        assert np.array_equal(a.samples, b.samples)

    def test_buzz_raises_roughness(self):
        conds, causes = default_benchmark_specs()
        buzz = next(c for c in causes if c.transform.kind == "am_buzz")
        plain = compute_timbre_vector(generate_clip(conds[1], None, 1.0, 5))
        buzzed = compute_timbre_vector(generate_clip(conds[1], buzz, 1.0, 5))
        assert buzzed.roughness > plain.roughness

    def test_high_shelf_raises_brightness(self):
        conds, causes = default_benchmark_specs()
        hiss = next(c for c in causes if c.transform.kind == "high_shelf"
                    and c.transform.params["gain_db"] > 0)
        plain = compute_timbre_vector(generate_clip(conds[0], None, 1.0, 6))
        hissy = compute_timbre_vector(generate_clip(conds[0], hiss, 1.0, 6))
        assert hissy.brightness > plain.brightness

    def test_peak_and_gain_envelope(self):
        conds, _ = default_benchmark_specs()
        for seed in range(5):
            clip = generate_clip(conds[seed % 3], None, 1.0, seed)
            peak = np.abs(clip.samples).max()
            assert 0.9 * 0.5 - 1e-9 <= peak <= 0.9 + 1e-9

    def test_duration_validation(self):
        conds, _ = default_benchmark_specs()
        with pytest.raises(ValueError):
            generate_clip(conds[0], None, 0.5, 1)

    def test_clip_seed_stable(self):
        assert clip_seed(7, "train_slow_0001") == clip_seed(7, "train_slow_0001")
        assert clip_seed(7, "a") != clip_seed(7, "b")
        assert clip_seed(7, "a") != clip_seed(8, "a")


class TestGenerateDataset:
    def test_row_count_and_splits(self, tmp_path):
        conditions, causes = default_benchmark_specs()
        dataset = generate_dataset(conditions, causes, 4, 2, 3, tmp_path / "d")
        # 3*4 train + 3*2 normal test + 3*4*2 anomalous test
        assert len(dataset.manifest) == 12 + 6 + 24
        entries = load_manifest(tmp_path / "d" / "manifest.csv")
        assert len(entries) == len(dataset.manifest)
        assert all(e.state == "normal" for e in entries if e.split == "train")
        wavs = sorted(p.name for p in (tmp_path / "d" / "audio").iterdir())
        assert len(wavs) == len(entries)

    def test_regeneration_byte_identical(self, tmp_path):
        conditions, causes = default_benchmark_specs()
        generate_dataset(conditions, causes[:2], 2, 1, 11, tmp_path / "a")
        generate_dataset(conditions, causes[:2], 2, 1, 11, tmp_path / "b")
        files_a = sorted((tmp_path / "a").rglob("*"))
        files_b = sorted((tmp_path / "b").rglob("*"))
        assert [p.name for p in files_a if p.is_file()] == \
               [p.name for p in files_b if p.is_file()]
        for pa, pb in zip(files_a, files_b):
            if pa.is_file():
                assert pa.read_bytes() == pb.read_bytes(), pa.name

    @pytest.mark.parametrize("case,message", [
        ("negative_train", "per-condition counts must be >= 0, got -1 train and 1 test"),
        ("negative_test", "per-condition counts must be >= 0, got 1 train and -2 test"),
        ("repeated_cause", "repeated cause ids: ['buzz']"),
        ("repeated_condition", "repeated condition ids: ['slow']"),
    ])
    def test_rejects_before_any_file(self, tmp_path, case, message):
        # A repeated id would write a manifest that load_manifest rejects.
        conditions, causes = default_benchmark_specs()
        buzz = next(c for c in causes if c.cause_id == "buzz")
        slow = next(c for c in conditions if c.condition_id == "slow")
        args = {"negative_train": (conditions, causes, -1, 1),
                "negative_test": (conditions, causes, 1, -2),
                "repeated_cause": (conditions, (buzz, buzz), 1, 1),
                "repeated_condition": ((slow, slow), causes, 1, 1)}[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_dataset(*args, 3, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_specs_json_written(self, tmp_path):
        import json

        conditions, causes = default_benchmark_specs()
        generate_dataset(conditions, causes, 2, 1, 5, tmp_path / "d")
        specs = json.loads((tmp_path / "d" / "specs.json").read_text())
        assert specs["seed"] == 5
        assert len(specs["conditions"]) == 3
        assert len(specs["causes"]) == 4


class TestBenchmarkInvariants:
    """Structural properties of the seed-7 default benchmark."""

    def test_condition_separability(self, default_benchmark, benchmark_features):
        from timbrediff.detector import ReferenceSet, knn
        from timbrediff.embeddings import DistanceKind, fit_normalization

        timbre, features = benchmark_features
        train = [e for e in default_benchmark.manifest if e.split == "train"]
        stats = fit_normalization(np.array([features[e.clip_id] for e in train]))
        ref = ReferenceSet(
            np.vstack([(features[e.clip_id] - stats.mean) / stats.std
                       for e in train]),
            np.vstack([timbre[e.clip_id].as_array() for e in train]),
            [e.clip_id for e in train], "spectral", DistanceKind.EUCLIDEAN, stats)
        train_conditions = [e.condition_id for e in train]
        for entry in default_benchmark.manifest:
            if entry.split != "test" or entry.state != "normal":
                continue
            query = (features[entry.clip_id] - stats.mean) / stats.std
            indices, _ = knn(ref, [query], 10)
            same = np.mean([train_conditions[i] == entry.condition_id
                            for i in indices[0]])
            assert same >= 0.8, entry.clip_id

    def test_perturbations_shift_metric_medians(self, default_benchmark,
                                                benchmark_features):
        timbre, _ = benchmark_features
        manifest = default_benchmark.manifest
        for cause in default_benchmark.causes:
            for cond in default_benchmark.conditions:
                normals = np.array([
                    timbre[e.clip_id].as_array() for e in manifest
                    if e.condition_id == cond.condition_id
                    and e.state == "normal" and e.split == "test"])
                anomalous = np.array([
                    timbre[e.clip_id].as_array() for e in manifest
                    if e.condition_id == cond.condition_id
                    and e.cause_id == cause.cause_id])
                shift = np.median(anomalous, axis=0) - np.median(normals, axis=0)
                for col, direction in enumerate(cause.intended_directions):
                    if direction != 0:
                        assert np.sign(shift[col]) == direction, (
                            cause.cause_id, cond.condition_id, col)
