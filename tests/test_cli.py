import json
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import timbrediff
from timbrediff import cli, frontend
from timbrediff.cli import main
from timbrediff.dataset import load_manifest, write_manifest_csv
from timbrediff.detector import ReferenceSet, read_results_csv
from timbrediff.embeddings import DistanceKind, import_embeddings, write_embeddings
from timbrediff.frontend import AudioClip, save_wav
from timbrediff.store import load_model
from timbrediff.synth import default_benchmark_specs, generate_dataset


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """3 conditions x 2 causes, 6 train / 2 test per condition."""
    out = tmp_path_factory.mktemp("tiny")
    conditions, causes = default_benchmark_specs()
    generate_dataset(conditions, causes[:2], 6, 2, 21, out)
    return out


def run(*argv):
    return main([str(a) for a in argv])


class TestSynthCommand:
    def test_missing_out_is_usage_error(self, capsys):
        assert run("synth", "--seed", "1") == 2
        capsys.readouterr()

    def test_deterministic_trees(self, tmp_path):
        for name in ("a", "b"):
            assert run("synth", "--out", tmp_path / name, "--seed", "7",
                       "--train-per-cond", "2", "--test-per-cond", "1") == 0
        files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert [p.relative_to(tmp_path / "a") for p in files_a] == \
               [p.relative_to(tmp_path / "b") for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_default_counts(self, tmp_path):
        assert run("synth", "--out", tmp_path / "d", "--seed", "3",
                   "--train-per-cond", "50", "--test-per-cond", "10") == 0
        entries = load_manifest(tmp_path / "d" / "manifest.csv")
        assert len(entries) == 3 * 50 + 3 * 10 + 3 * 4 * 10

    @pytest.mark.parametrize("options,message", [
        (["--train-per-cond", "-1"], "--train-per-cond must be >= 0, got -1"),
        (["--test-per-cond", "-2"], "--test-per-cond must be >= 0, got -2"),
    ], ids=["train_negative", "test_negative"])
    def test_bad_count_or_cause_fails_before_any_file(self, tmp_path, capsys, options,
                                                      message):
        out = tmp_path / "d"
        assert run("synth", "--out", out, "--seed", "3", *options) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestFitCommand:
    def test_counts_and_files(self, tiny_dataset, tmp_path):
        model = tmp_path / "model"
        assert run("fit", "--manifest", tiny_dataset / "manifest.csv",
                   "--audio-root", tiny_dataset, "--provider", "spectral",
                   "--out", model, "--k", "18") == 0
        ref, config = load_model(model)
        assert ref.size == 18
        assert config["provider"] == "spectral"
        assert config["k"] == 18 and config["t"] == 0.1
        assert len(import_embeddings(model / "embeddings.tdce")) == 18
        assert (model / "timbre.csv").read_text().count("\n") == 19

    def test_timbre_embeddings_are_z_scores(self, tiny_dataset, tmp_path):
        model = tmp_path / "model"
        assert run("fit", "--manifest", tiny_dataset / "manifest.csv",
                   "--audio-root", tiny_dataset, "--provider", "timbre",
                   "--out", model, "--k", "5") == 0
        ref, _ = load_model(model)
        stats = ref.normalization
        z = (ref.timbre_values - stats.mean) / stats.std
        np.testing.assert_allclose(ref.embeddings, z, rtol=0, atol=1e-6)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(z.std(axis=0), 1.0, rtol=1e-6)

    def test_external_requires_embeddings(self, tiny_dataset, tmp_path, capsys):
        assert run("fit", "--manifest", tiny_dataset / "manifest.csv",
                   "--audio-root", tiny_dataset, "--provider", "external",
                   "--out", tmp_path / "m", "--k", "5") == 1
        assert "--embeddings" in capsys.readouterr().err

    def test_refit_identical_except_timestamp(self, tiny_dataset, tmp_path):
        for name in ("m1", "m2"):
            assert run("fit", "--manifest", tiny_dataset / "manifest.csv",
                       "--audio-root", tiny_dataset, "--provider", "timbre",
                       "--out", tmp_path / name, "--k", "5") == 0
        for filename in ("embeddings.tdce", "embeddings.tdce.ids.csv",
                         "timbre.csv", "normalization.json"):
            assert ((tmp_path / "m1" / filename).read_bytes()
                    == (tmp_path / "m2" / filename).read_bytes()), filename
        config1 = json.loads((tmp_path / "m1" / "config.json").read_text())
        config2 = json.loads((tmp_path / "m2" / "config.json").read_text())
        config1.pop("created_utc")
        config2.pop("created_utc")
        assert config1 == config2

    def test_model_roundtrip_matches_refit(self, tiny_dataset, tmp_path):
        run("fit", "--manifest", tiny_dataset / "manifest.csv",
            "--audio-root", tiny_dataset, "--provider", "spectral",
            "--out", tmp_path / "m1", "--k", "5")
        run("fit", "--manifest", tiny_dataset / "manifest.csv",
            "--audio-root", tiny_dataset, "--provider", "spectral",
            "--out", tmp_path / "m2", "--k", "5")
        ref1, _ = load_model(tmp_path / "m1")
        ref2, _ = load_model(tmp_path / "m2")
        assert np.array_equal(ref1.embeddings, ref2.embeddings)
        assert np.array_equal(ref1.timbre_values, ref2.timbre_values)
        assert ref1.clip_ids == ref2.clip_ids


@pytest.fixture(scope="module")
def fitted(tiny_dataset, tmp_path_factory):
    model = tmp_path_factory.mktemp("model") / "m"
    assert run("fit", "--manifest", tiny_dataset / "manifest.csv",
               "--audio-root", tiny_dataset, "--provider", "spectral",
               "--out", model, "--k", "5") == 0
    return model


@pytest.fixture
def model_copy(fitted, tmp_path):
    model = tmp_path / "m"
    shutil.copytree(fitted, model)
    return model


class TestModelDimensions:
    def test_config_dim_mismatch(self, model_copy):
        config = json.loads((model_copy / "config.json").read_text())
        dim = config["dim"]
        config["dim"] = dim + 1
        (model_copy / "config.json").write_text(json.dumps(config))
        with pytest.raises(ValueError, match=re.escape(
                f"{model_copy / 'config.json'}: config dim {dim + 1} "
                f"does not match embedding dim {dim}")):
            load_model(model_copy)

    def test_normalization_dim_mismatch(self, model_copy):
        path = model_copy / "normalization.json"
        stats = json.loads(path.read_text())
        dim = len(stats["mean"])
        path.write_text(json.dumps({"mean": stats["mean"][:-1],
                                    "std": stats["std"][:-1]}))
        with pytest.raises(ValueError, match=re.escape(
                f"{model_copy}: normalization.json dim {dim - 1} "
                f"does not match embedding dim {dim}")):
            load_model(model_copy)


class TestModelFileErrors:
    """A damaged model fails `score` with a message naming file and row."""

    def score_error(self, tiny_dataset, model, tmp_path, capsys):
        code = run("score", "--model", model,
                   "--manifest", tiny_dataset / "manifest.csv",
                   "--audio-root", tiny_dataset, "--out", tmp_path / "r.csv")
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ")
        return err

    @pytest.mark.parametrize("key", ["provider", "distance", "k", "t", "count", "dim"])
    def test_missing_config_key(self, tiny_dataset, model_copy, tmp_path,
                                capsys, key):
        path = model_copy / "config.json"
        config = json.loads(path.read_text())
        del config[key]
        path.write_text(json.dumps(config))
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing key '{key}'")):
            load_model(model_copy)
        assert f"{path}: missing key '{key}'" in self.score_error(
            tiny_dataset, model_copy, tmp_path, capsys)

    def test_unknown_provider(self, tiny_dataset, model_copy, tmp_path, capsys):
        path = model_copy / "config.json"
        path.write_text(path.read_text().replace('"spectral"', '"mystery"'))
        err = self.score_error(tiny_dataset, model_copy, tmp_path, capsys)
        assert f"{path}: unknown provider 'mystery'" in err

    def test_missing_normalization_key(self, model_copy):
        path = model_copy / "normalization.json"
        stats = json.loads(path.read_text())
        path.write_text(json.dumps({"mean": stats["mean"]}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: needs keys")):
            load_model(model_copy)

    def test_timbre_value_out_of_range(self, tiny_dataset, model_copy,
                                       tmp_path, capsys):
        path = model_copy / "timbre.npy"
        values = np.load(path)
        values[1, 4] = 1.5                                 # depth
        np.save(path, values)
        err = self.score_error(tiny_dataset, model_copy, tmp_path, capsys)
        assert f"{path}: row 1: depth must lie in [0, 1]" in err

    def test_tdce_sidecar_row(self, tiny_dataset, model_copy, tmp_path, capsys):
        # The embeddings' ids come from clip_ids.json, not the TDCE sidecar.
        path = model_copy / "clip_ids.json"
        ids = json.loads(path.read_text())
        ids[4] = ids[0]
        path.write_text(json.dumps(ids))
        err = self.score_error(tiny_dataset, model_copy, tmp_path, capsys)
        assert f"{path}: row 4: duplicate clip id {ids[0]!r} (first at row 0)" in err

    @pytest.mark.parametrize("edit", ["permuted", "missing", "extra"])
    def test_timbre_rows_follow_embeddings(self, tiny_dataset, model_copy, tmp_path,
                                           capsys, edit):
        # timbre.npy needs one row per embedding: a transposed array is not repaired.
        path = model_copy / "timbre.npy"
        values = np.load(path)
        count = len(values)
        values = {"permuted": values.T, "missing": values[:-1],
                  "extra": np.vstack([values, values[-1:]])}[edit]
        np.save(path, values)
        expected = f"expected [{count} x 5] timbre values, got shape {values.shape}"
        with pytest.raises(ValueError, match=re.escape(f"{path}: {expected}")):
            load_model(model_copy)
        assert f"{path}: {expected}" in self.score_error(
            tiny_dataset, model_copy, tmp_path, capsys)

    def test_format_1_is_refused(self, tiny_dataset, model_copy, tmp_path, capsys):
        edit_json(model_copy / "config.json", "format_version", 1)
        assert self.score_error(tiny_dataset, model_copy, tmp_path, capsys) == (
            f"error: {model_copy}: model format 1; re-run fit\n")

    def test_exports_are_not_read(self, tiny_dataset, fitted, model_copy, tmp_path):
        common = ["--manifest", tiny_dataset / "manifest.csv", "--audio-root", tiny_dataset]
        assert run("score", "--model", fitted, *common, "--out", tmp_path / "a.csv") == 0
        (model_copy / "timbre.csv").unlink()
        (model_copy / "embeddings.tdce.ids.csv").unlink()
        assert run("score", "--model", model_copy, *common, "--out", tmp_path / "b.csv") == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_model_error_wins_over_a_clip_error(self, tiny_dataset, model_copy, tmp_path,
                                                capsys, usable_cpus, cpus):
        # The rows are read while the workers decode: a bad model is still
        # reported, not the bad clip that the workers find.
        usable_cpus(cpus)
        root = tmp_path / "data"
        shutil.copytree(tiny_dataset, root)
        test_clip = next(e for e in load_manifest(root / "manifest.csv") if e.split == "test")
        (root / test_clip.path).write_bytes(b"not a wav")
        nan_row(model_copy / "embeddings.tdce", 3)
        clip = json.loads((model_copy / "clip_ids.json").read_text())[3]
        err = self.score_error(root, model_copy, tmp_path, capsys)
        assert err == (f"error: {model_copy / 'embeddings.tdce'}: embedding row 3 "
                       f"(clip {clip!r}) is not finite\n")


class TestScoreCommand:
    def test_row_count_and_determinism(self, tiny_dataset, fitted, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for out in (out1, out2):
            assert run("score", "--model", fitted,
                       "--manifest", tiny_dataset / "manifest.csv",
                       "--audio-root", tiny_dataset, "--out", out,
                       "--k", "5") == 0
        entries = load_manifest(tiny_dataset / "manifest.csv")
        n_test = sum(1 for e in entries if e.split == "test")
        assert len(read_results_csv(out1)[0]) == n_test
        assert out1.read_bytes() == out2.read_bytes()

    def test_self_match_train_clip(self, tiny_dataset, fitted, tmp_path):
        # A test manifest whose clip is byte-identical to a training clip.
        root = tmp_path / "self"
        (root / "audio").mkdir(parents=True)
        shutil.copy(tiny_dataset / "audio" / "train_slow_0000.wav",
                    root / "audio" / "probe.wav")
        manifest = root / "manifest.csv"
        manifest.write_text(
            "clip_id,path,split,state,condition,cause,domain\n"
            "probe,audio/probe.wav,test,normal,slow,,source\n")
        out = tmp_path / "self.csv"
        assert run("score", "--model", fitted, "--manifest", manifest,
                   "--audio-root", root, "--out", out, "--k", "1") == 0
        _, anomaly, _, labels = read_results_csv(out)
        assert anomaly[0] == 0.0
        assert np.all(labels[0] == 0)

    @pytest.mark.parametrize("provider", ["spectral", "timbre"])
    def test_copies_of_training_clips_match_themselves(self, tiny_dataset, fitted, tmp_path,
                                                       provider):
        # Each query is brought to the stored rows' precision, so a copy of a
        # training clip ties with its own row: distance 0 and every rank 0.5.
        model = fitted
        if provider == "timbre":
            model = tmp_path / "m"
            assert run("fit", "--manifest", tiny_dataset / "manifest.csv", "--audio-root",
                       tiny_dataset, "--provider", "timbre", "--k", "5", "--out", model) == 0
        train = [e for e in load_manifest(tiny_dataset / "manifest.csv") if e.split == "train"]
        manifest = tmp_path / "copies.csv"
        manifest.write_text("clip_id,path,split,state,condition,cause,domain\n" + "".join(
            f"copy_{e.clip_id},{e.path},test,normal,{e.condition_id},,source\n" for e in train))
        out = tmp_path / "copies_results.csv"
        assert run("score", "--model", model, "--manifest", manifest,
                   "--audio-root", tiny_dataset, "--out", out, "--k", "1") == 0
        ids, anomaly, scores, labels = read_results_csv(out)
        assert len(ids) == len(train) == 18
        assert np.all(anomaly == 0.0)
        assert np.all(scores == 0.5)
        assert np.all(labels == 0)

    @pytest.mark.parametrize("baseline", [[], ["--baseline", "global"]], ids=["knn", "global"])
    def test_overrides_score_as_a_model_fitted_with_them(self, tiny_dataset, fitted, tmp_path,
                                                         baseline):
        common = ["--manifest", tiny_dataset / "manifest.csv", "--audio-root", tiny_dataset]
        settings = ["--k", "3", "--t", "0.2", "--distance", "cosine"]
        model = tmp_path / "m"
        assert run("fit", *common, "--provider", "spectral", *settings, "--out", model) == 0
        assert run("score", "--model", model, *common, *baseline,
                   "--out", tmp_path / "fitted.csv") == 0
        assert run("score", "--model", fitted, *common, *settings, *baseline,
                   "--out", tmp_path / "overridden.csv") == 0
        assert (tmp_path / "fitted.csv").read_bytes() == (tmp_path / "overridden.csv").read_bytes()

    def test_distance_override_builds_one_reference_set(self, tiny_dataset, fitted, tmp_path,
                                                        monkeypatch):
        built = []
        post_init = ReferenceSet.__post_init__

        def spy(ref, embeddings_checked):
            built.append(ref.distance_kind)
            post_init(ref, embeddings_checked)

        monkeypatch.setattr(ReferenceSet, "__post_init__", spy)
        assert run("score", "--model", fitted, "--manifest", tiny_dataset / "manifest.csv",
                   "--audio-root", tiny_dataset, "--out", tmp_path / "r.csv",
                   "--distance", "cosine") == 0
        assert built == [DistanceKind.COSINE]

    def test_k_larger_than_train_fails(self, tiny_dataset, fitted, tmp_path,
                                       capsys):
        assert run("score", "--model", fitted,
                   "--manifest", tiny_dataset / "manifest.csv",
                   "--audio-root", tiny_dataset,
                   "--out", tmp_path / "r.csv", "--k", "999") == 1
        capsys.readouterr()

    def test_global_baseline_flag(self, tiny_dataset, fitted, tmp_path):
        out_knn = tmp_path / "knn.csv"
        out_glob = tmp_path / "glob.csv"
        run("score", "--model", fitted, "--manifest",
            tiny_dataset / "manifest.csv", "--audio-root", tiny_dataset,
            "--out", out_knn, "--k", "5")
        run("score", "--model", fitted, "--manifest",
            tiny_dataset / "manifest.csv", "--audio-root", tiny_dataset,
            "--out", out_glob, "--k", "5", "--baseline", "global")
        _, knn_anomaly, knn_scores, _ = read_results_csv(out_knn)
        _, glob_anomaly, glob_scores, _ = read_results_csv(out_glob)
        # anomaly scores identical, attribute scores generally not
        assert np.array_equal(knn_anomaly, glob_anomaly)
        assert any(not np.array_equal(a, b) for a, b in zip(knn_scores, glob_scores))


class TestExternalProvider:
    def test_fit_and_score_with_tdce(self, tiny_dataset, tmp_path):
        from timbrediff.synth import clip_seed

        entries = load_manifest(tiny_dataset / "manifest.csv")
        # Synthetic "encoder": stable per-clip noise, shifted for anomalous
        # clips so scoring has signal.
        vectors = []
        for e in entries:
            rng_e = np.random.default_rng(clip_seed(99, e.clip_id))
            vec = rng_e.normal(size=12)
            if e.state == "anomalous":
                vec += 3.0
            vectors.append(vec)
        tdce = tmp_path / "ext.tdce"
        write_embeddings(tdce, [e.clip_id for e in entries], vectors)

        model = tmp_path / "model"
        assert run("fit", "--manifest", tiny_dataset / "manifest.csv",
                   "--audio-root", tiny_dataset, "--provider", "external",
                   "--embeddings", tdce, "--out", model, "--k", "5") == 0
        out = tmp_path / "results.csv"
        assert run("score", "--model", model,
                   "--manifest", tiny_dataset / "manifest.csv",
                   "--audio-root", tiny_dataset, "--embeddings", tdce,
                   "--out", out, "--k", "5", "--distance", "euclidean") == 0
        ids, anomaly, _, _ = read_results_csv(out)
        anomalous = {e.clip_id for e in entries if e.state == "anomalous"}
        scores_anom = [a for cid, a in zip(ids, anomaly) if cid in anomalous]
        scores_norm = [a for cid, a in zip(ids, anomaly) if cid not in anomalous]
        assert min(scores_anom) > max(scores_norm)

    def test_tdce_missing_clip_names_file_and_clip(self, tiny_dataset, tmp_path,
                                                    capsys):
        entries = load_manifest(tiny_dataset / "manifest.csv")
        full, partial = tmp_path / "full.tdce", tmp_path / "partial.tdce"
        ids = [e.clip_id for e in entries]
        vectors = np.repeat(np.arange(len(ids), dtype=float)[:, None], 4, axis=1)
        write_embeddings(full, ids, vectors)
        common = ["--manifest", tiny_dataset / "manifest.csv",
                  "--audio-root", tiny_dataset]
        model = tmp_path / "model"
        assert run("fit", *common, "--provider", "external", "--embeddings", full,
                   "--out", model, "--k", "5") == 0
        capsys.readouterr()
        for split in ("train", "test"):
            dropped = next(e.clip_id for e in entries if e.split == split)
            kept = [i for i, cid in enumerate(ids) if cid != dropped]
            write_embeddings(partial, [ids[i] for i in kept], vectors[kept])
            if split == "train":
                code = run("fit", *common, "--provider", "external",
                           "--embeddings", partial, "--out", tmp_path / "m2", "--k", "5")
            else:
                code = run("score", "--model", model, *common,
                           "--embeddings", partial, "--out", tmp_path / "r.csv")
            assert code == 1
            err = capsys.readouterr().err
            assert err == f"error: {partial}: no embedding for clip {dropped!r}\n"

    @staticmethod
    def fit_external(tiny_dataset, tmp_path, capsys, vectors):
        """A model fitted on `vectors`, one row per manifest clip, written as ext.tdce;
        fit's log is read off."""
        tdce = tmp_path / "ext.tdce"
        write_embeddings(tdce, [e.clip_id for e in load_manifest(tiny_dataset / "manifest.csv")],
                         vectors)
        model = tmp_path / "model"
        assert run("fit", "--manifest", tiny_dataset / "manifest.csv", "--audio-root",
                   tiny_dataset, "--provider", "external", "--embeddings", tdce,
                   "--out", model, "--k", "5") == 0
        capsys.readouterr()
        return model, tdce

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_model_error_wins_over_an_embeddings_error(self, tiny_dataset, tmp_path, capsys,
                                                       usable_cpus, cpus):
        # The model is read before --embeddings, pooled or serial.
        n = len(load_manifest(tiny_dataset / "manifest.csv"))
        model, tdce = self.fit_external(tiny_dataset, tmp_path, capsys,
                                        np.random.default_rng(5).normal(size=(n, 4)))
        (model / "clip_ids.json").write_text("[1, 2]")
        bad = tmp_path / "bad.tdce"
        bad.write_bytes(b"XXXX" + tdce.read_bytes()[4:])
        usable_cpus(cpus)
        assert run("score", "--model", model, "--manifest", tiny_dataset / "manifest.csv",
                   "--audio-root", tiny_dataset, "--embeddings", bad,
                   "--out", tmp_path / "r.csv") == 1
        assert capsys.readouterr().err == (
            f"error: {model / 'clip_ids.json'}: expected a JSON list of clip id strings\n")

    def test_query_overflowing_its_z_score_names_file_and_clip(self, tiny_dataset, tmp_path,
                                                               capsys):
        # Column 0 is constant over the training rows, so its std is floored at
        # 1e-9, and a test row's 1e30 z-scores beyond float32's range.
        entries = load_manifest(tiny_dataset / "manifest.csv")
        vectors = np.random.default_rng(5).normal(size=(len(entries), 16))
        test = np.array([e.split == "test" for e in entries])
        vectors[:, 0] = np.where(test, 1e30, 1.0)
        model, tdce = self.fit_external(tiny_dataset, tmp_path, capsys, vectors)
        assert run("score", "--model", model, "--manifest", tiny_dataset / "manifest.csv",
                   "--audio-root", tiny_dataset, "--embeddings", tdce,
                   "--out", tmp_path / "r.csv") == 1
        first = entries[int(np.argmax(test))].clip_id
        assert capsys.readouterr().err == f"error: {tdce}: clip {first!r}: z-scores not finite\n"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("stage,provider", [("fit", "spectral"), ("fit", "timbre"),
                                                ("score", "spectral")])
    def test_embeddings_for_another_provider_fail_before_analysis(self, tiny_dataset, fitted,
                                                                   tmp_path, capsys, stage,
                                                                   provider):
        # The audio root holds no clips and the file does not exist: reading
        # either would fail differently.  score takes the model's provider.
        common = ["--manifest", tiny_dataset / "manifest.csv", "--audio-root", tmp_path,
                  "--embeddings", tmp_path / "missing.tdce"]
        out = tmp_path / "out"
        argv = (["fit", *common, "--provider", provider, "--k", "5", "--out", out]
                if stage == "fit" else ["score", "--model", fitted, *common, "--out", out])
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            f"error: --embeddings is for provider 'external' only, not {provider!r}\n")
        assert not out.exists()

    def test_score_without_embeddings_fails(self, tiny_dataset, tmp_path,
                                            capsys):
        entries = load_manifest(tiny_dataset / "manifest.csv")
        ids = [e.clip_id for e in entries]
        vectors = np.repeat(np.arange(len(ids), dtype=float)[:, None], 4, axis=1)
        tdce = tmp_path / "ext.tdce"
        write_embeddings(tdce, ids, vectors)
        model = tmp_path / "model"
        run("fit", "--manifest", tiny_dataset / "manifest.csv",
            "--audio-root", tiny_dataset, "--provider", "external",
            "--embeddings", tdce, "--out", model, "--k", "5")
        assert run("score", "--model", model,
                   "--manifest", tiny_dataset / "manifest.csv",
                   "--audio-root", tiny_dataset,
                   "--out", tmp_path / "r.csv") == 1
        assert "--embeddings" in capsys.readouterr().err


def replace_one_clip(tiny_dataset, fitted, tmp_path, stage, clip):
    """Copy the dataset with one clip that `stage` reads replaced by `clip`;
    return the stage's argv and the clip's path."""
    root = tmp_path / "data"
    shutil.copytree(tiny_dataset, root)
    split = "test" if stage == "score" else "train"
    entry = next(e for e in load_manifest(root / "manifest.csv") if e.split == split)
    save_wav(root / entry.path, clip)
    common = ["--manifest", root / "manifest.csv", "--audio-root", root]
    argv = {"fit": ["fit", *common, "--provider", "spectral", "--k", "5",
                    "--out", tmp_path / "m"],
            "score": ["score", "--model", fitted, *common, "--out", tmp_path / "r.csv"],
            "gen-gt": ["gen-gt", *common, "--out", tmp_path / "gt.csv"]}[stage]
    return argv, root / entry.path


@pytest.mark.parametrize("stage", ["fit", "score", "gen-gt"])
def test_silent_clip_names_its_file(tiny_dataset, fitted, tmp_path, capsys, stage):
    argv, path = replace_one_clip(tiny_dataset, fitted, tmp_path, stage,
                                  AudioClip(np.zeros(16000), 16000))
    assert run(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: silent input: total framed power below threshold\n")


# 0.05 s is shorter than one 1024-sample STFT frame: the duration check
# must still speak first.
@pytest.mark.parametrize("seconds", [0.05, 0.2])
@pytest.mark.parametrize("stage", ["fit", "score", "gen-gt"])
def test_short_clip_names_its_file(tiny_dataset, fitted, tmp_path, capsys, stage, seconds):
    tone = 0.5 * np.sin(2 * np.pi * 440 * np.arange(int(seconds * 16000)) / 16000)
    argv, path = replace_one_clip(tiny_dataset, fitted, tmp_path, stage,
                                  AudioClip(tone, 16000))
    assert run(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: timbre extraction needs at least 0.25 s of audio\n")


def copy_with_damaged_train_clips(tiny_dataset, tmp_path, damage):
    """Copy the dataset and apply damage[i](path) to its i-th training clip;
    return the copy's root and the damaged clips' paths by i."""
    root = tmp_path / "data"
    shutil.copytree(tiny_dataset, root)
    train = [e for e in load_manifest(root / "manifest.csv") if e.split == "train"]
    for i, fn in damage.items():
        fn(root / train[i].path)
    return root, {i: root / train[i].path for i in damage}


def fit_error(root, tmp_path, capsys):
    assert run("fit", "--manifest", root / "manifest.csv", "--audio-root", root,
               "--provider", "spectral", "--k", "5", "--out", tmp_path / "m") == 1
    return capsys.readouterr().err


def long_silence(path):
    save_wav(path, AudioClip(np.zeros(10 * 44100), 44100))


def test_first_bad_clip_in_the_manifest_is_named(tiny_dataset, tmp_path, capsys, usable_cpus):
    # Clip 3, a missing file, fails at once.  Clip 2, 10 s of silence at
    # 44.1 kHz, fails only after its resample and STFT.  Two workers run
    # both at the same time, and the error must name clip 2.
    root, paths = copy_with_damaged_train_clips(tiny_dataset, tmp_path,
                                                {2: long_silence, 3: Path.unlink})
    usable_cpus(2)
    for _ in range(3):
        assert fit_error(root, tmp_path, capsys) == (
            f"error: {paths[2]}: silent input: total framed power below threshold\n")


@pytest.mark.parametrize("damage, message", [
    (Path.unlink, "[Errno 2] No such file or directory: '{path}'"),
    (lambda path: path.write_bytes(b"not audio"), "{path}: not a RIFF/WAVE file"),
], ids=["missing", "malformed"])
def test_unreadable_clip_fails_alike_through_the_pool(tiny_dataset, tmp_path, capsys,
                                                      usable_cpus, damage, message):
    root, paths = copy_with_damaged_train_clips(tiny_dataset, tmp_path, {16: damage})
    for cpus in (1, 2):
        usable_cpus(cpus)
        assert fit_error(root, tmp_path, capsys) == f"error: {message.format(path=paths[16])}\n"


def killed(path, provider):
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_killed_worker_fails_the_stage(tiny_dataset, tmp_path, monkeypatch, usable_cpus):
    # A worker killed from outside (the OOM killer, say) must fail the
    # stage, not leave it waiting for that worker's results.
    usable_cpus(2)
    monkeypatch.setattr(cli, "_analyse_clip", killed)

    def hung(signum, frame):
        pytest.fail("fit still waited on a dead worker after 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            run("fit", "--manifest", tiny_dataset / "manifest.csv", "--audio-root",
                tiny_dataset, "--provider", "spectral", "--k", "5", "--out", tmp_path / "m")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# Where sleeping() records the pid of each worker that runs it.
WORKER_PIDS = None


def sleeping(path, provider):
    (WORKER_PIDS / str(os.getpid())).touch()
    time.sleep(60)


def running(pid):
    """Whether pid is a live process: not gone and not an unreaped zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/stat")
def test_a_killed_stage_leaves_no_worker_behind(tiny_dataset, tmp_path, monkeypatch,
                                                usable_cpus):
    # The stage runs in a forked process, whose own forked workers inherit
    # the sleeping _analyse_clip.  Once both workers are in it, the stage
    # is killed as a deadline would kill it: its workers must follow.
    import multiprocessing

    usable_cpus(2)
    monkeypatch.setattr(cli, "_analyse_clip", sleeping)
    monkeypatch.setattr(sys.modules[__name__], "WORKER_PIDS", tmp_path / "pids")
    WORKER_PIDS.mkdir()
    stage = multiprocessing.get_context("fork").Process(target=run, args=(
        "fit", "--manifest", tiny_dataset / "manifest.csv", "--audio-root", tiny_dataset,
        "--provider", "timbre", "--k", "5", "--out", tmp_path / "m"))
    stage.start()
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = [int(p.name) for p in WORKER_PIDS.iterdir()]
        assert len(workers) == 2
        os.kill(stage.pid, signal.SIGKILL)
        stage.join()
        deadline = time.monotonic() + 5
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))
    finally:
        for pid in [stage.pid, *workers]:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
        stage.join()


def test_fit_runs_one_stft_per_clip(tiny_dataset, tmp_path, monkeypatch, usable_cpus):
    usable_cpus(1)              # forked workers' calls would not reach `calls`
    original = frontend.stft_power
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].samples.size)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("timbrediff") and getattr(module, "stft_power", None) is original:
            monkeypatch.setattr(module, "stft_power", counting)
    assert run("fit", "--manifest", tiny_dataset / "manifest.csv", "--audio-root",
               tiny_dataset, "--provider", "spectral", "--k", "5", "--out", tmp_path / "m") == 0
    train = [e for e in load_manifest(tiny_dataset / "manifest.csv") if e.split == "train"]
    assert len(calls) == len(train) == 18


def edit_json(path, key, value):
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))


def nan_row(path, row):
    """Set the first component of one TDCE row to a float32 NaN."""
    data = bytearray(path.read_bytes())
    dim = struct.unpack_from("<I", data, 8)[0]
    struct.pack_into("<f", data, 16 + 4 * dim * row, float("nan"))
    path.write_bytes(bytes(data))


# case -> (file of the model it damages, damage, fragment of the message)
BAD_MODEL_VALUES = {
    "normalization_nan": ("normalization.json",
                          lambda p: p.write_text(re.sub(r"-?\d[^,\n]*", "NaN", p.read_text(),
                                                        count=1)),
                          "normalization stats must be finite"),
    "normalization_text": ("normalization.json", lambda p: edit_json(p, "std", "abc"),
                           "std must be a list of numbers"),
    "normalization_numeric_text": ("normalization.json", lambda p: edit_json(
        p, "mean", [str(v) for v in json.loads(p.read_text())["mean"]]),
                                   "mean must be a list of numbers"),
    "normalization_bool": ("normalization.json", lambda p: edit_json(
        p, "std", [True] + json.loads(p.read_text())["std"][1:]),
                           "std must be a list of numbers"),
    "config_k_text": ("config.json", lambda p: edit_json(p, "k", "abc"),
                      "k must be a whole number, got 'abc'"),
    "config_k_numeric_text": ("config.json", lambda p: edit_json(p, "k", "5"),
                              "k must be a whole number, got '5'"),
    "config_k_fraction": ("config.json", lambda p: edit_json(p, "k", 2.7),
                          "k must be a whole number, got 2.7"),
    "config_k_bool": ("config.json", lambda p: edit_json(p, "k", True),
                      "k must be a whole number, got True"),
    "config_t_numeric_text": ("config.json", lambda p: edit_json(p, "t", "0.1"),
                              "t must be a number, got '0.1'"),
    "config_t_bool": ("config.json", lambda p: edit_json(p, "t", False),
                      "t must be a number, got False"),
    "config_t_huge": ("config.json", lambda p: edit_json(p, "t", 10 ** 400),
                      "int too large to convert to float"),
    "config_distance": ("config.json", lambda p: edit_json(p, "distance", "manhattan"),
                        "unknown distance kind 'manhattan'"),
    "config_distance_capitalised": ("config.json",
                                    lambda p: edit_json(p, "distance", "Euclidean"),
                                    "unknown distance kind 'Euclidean'"),
    "config_provider_list": ("config.json", lambda p: edit_json(p, "provider", ["x"]),
                             "unknown provider ['x']"),
    "config_k_zero": ("config.json", lambda p: edit_json(p, "k", 0),
                      "k must be at least 1, got 0"),
    "config_t_high": ("config.json", lambda p: edit_json(p, "t", 0.7),
                      "threshold t must lie in [0, 0.5), got 0.7"),
    "config_t_negative": ("config.json", lambda p: edit_json(p, "t", -0.1),
                          "threshold t must lie in [0, 0.5), got -0.1"),
    "config_not_json": ("config.json", lambda p: p.write_text(p.read_text().replace('"k"', "k")),
                        "Expecting property name enclosed in double quotes"),
    "tdce_nan": ("embeddings.tdce", lambda p: nan_row(p, 3), "embedding row 3 (clip "),
    "external_tdce_nan": (None, None, "embedding row 3 (clip "),
}


@pytest.mark.parametrize("case", list(BAD_MODEL_VALUES))
def test_bad_value_names_its_file(tiny_dataset, model_copy, tmp_path, capsys, case):
    name, damage, fragment = BAD_MODEL_VALUES[case]
    common = ["--manifest", tiny_dataset / "manifest.csv", "--audio-root", tiny_dataset]
    if name is None:            # fit reads a damaged --embeddings file
        path = tmp_path / "ext.tdce"
        ids = [e.clip_id for e in load_manifest(tiny_dataset / "manifest.csv")]
        write_embeddings(path, ids, np.ones((len(ids), 4)))
        nan_row(path, 3)
        argv = ["fit", *common, "--provider", "external", "--embeddings", path,
                "--k", "5", "--out", tmp_path / "m"]
    else:
        path = model_copy / name
        damage(path)
        argv = ["score", "--model", model_copy, *common, "--out", tmp_path / "r.csv"]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and fragment in err, err
    if name is None:
        clip = (path.parent / (path.name + ".ids.csv")).read_text().splitlines()[4]
        assert f"(clip {clip.split(',', 1)[1]!r}) is not finite" in err
    elif name == "embeddings.tdce":     # the model's ids are in clip_ids.json
        clip = json.loads((model_copy / "clip_ids.json").read_text())[3]
        assert f"(clip {clip!r}) is not finite" in err


@pytest.mark.parametrize("option,value,message", [
    ("--k", "0", "k must satisfy 1 <= k <= 18, got 0"),
    ("--k", "19", "k must satisfy 1 <= k <= 18, got 19"),
    ("--t", "0.5", "threshold t must lie in [0, 0.5), got 0.5"),
])
def test_bad_override_fails_before_analysis(tiny_dataset, fitted, tmp_path, capsys,
                                            option, value, message):
    # The audio root holds no clips: analysing one would fail differently.
    assert run("score", "--model", fitted, "--manifest", tiny_dataset / "manifest.csv",
               "--audio-root", tmp_path, "--out", tmp_path / "r.csv", option, value) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("options,message", [
    (["--k", "30"], "--k: k must satisfy 1 <= k <= 18, got 30"),
    (["--k", "0"], "--k: k must satisfy 1 <= k <= 18, got 0"),
    (["--k", "5", "--t", "0.7"], "--t: threshold t must lie in [0, 0.5), got 0.7"),
    (["--k", "5", "--t", "-0.1"], "--t: threshold t must lie in [0, 0.5), got -0.1"),
], ids=["k_above_rows", "k_zero", "t_high", "t_negative"])
def test_fit_rejects_what_score_would_before_analysis(tiny_dataset, tmp_path, capsys,
                                                      options, message):
    # The audio root holds no clips: analysing one would fail differently.
    model = tmp_path / "m"
    assert run("fit", "--manifest", tiny_dataset / "manifest.csv", "--audio-root", tmp_path,
               "--provider", "spectral", "--out", model, *options) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not model.exists()


@pytest.mark.parametrize("value", ["0.7", "0.5", "-0.1"])
def test_gen_gt_rejects_t_prime_before_analysis(tiny_dataset, tmp_path, capsys, monkeypatch,
                                                usable_cpus, value):
    usable_cpus(1)              # serial, so that every _analyse_clip call is seen
    calls = []
    monkeypatch.setattr(cli, "_analyse_clip", lambda *args: calls.append(args))
    out = tmp_path / "gt.csv"
    assert run("gen-gt", "--manifest", tiny_dataset / "manifest.csv", "--audio-root",
               tiny_dataset, "--t-prime", value, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: --t-prime: threshold t must lie in [0, 0.5), got {float(value)}\n")
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("stage,kept,message", [
    ("fit", lambda e: e.split == "test", "no training rows"),
    ("fit", lambda e: e.split == "test" or e.clip_id == "train_slow_0000",
     "fit needs at least 2 training rows, got 1"),
    ("score", lambda e: e.split == "train", "no test rows"),
    ("gen-gt", lambda e: e.state == "normal", "no anomalous rows"),
    ("gen-gt", lambda e: e.split == "test" or e.condition_id != "fast",
     "condition 'fast' has anomalous clips but no normal training clips"),
], ids=["fit", "fit_one_row", "score", "gen_gt", "gen_gt_condition_untrained"])
def test_manifest_without_the_stage_rows_fails_before_analysis(
        tiny_dataset, model_copy, tmp_path, capsys, monkeypatch, usable_cpus,
        stage, kept, message):
    usable_cpus(1)              # serial, so that every _analyse_clip call is seen
    calls = []
    monkeypatch.setattr(cli, "_analyse_clip", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "load_model", lambda *args: calls.append(args))
    manifest = tmp_path / "manifest.csv"
    write_manifest_csv(manifest, filter(kept, load_manifest(tiny_dataset / "manifest.csv")))
    out = tmp_path / "out.csv"
    out.write_text("previous output\n")
    common = ["--manifest", manifest, "--audio-root", tiny_dataset]
    argv = {"fit": ["fit", *common, "--provider", "spectral", "--k", "1", "--out", model_copy],
            "score": ["score", "--model", model_copy, *common, "--out", out],
            "gen-gt": ["gen-gt", *common, "--out", out]}[stage]
    before = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {manifest}: {message}\n"
    assert calls == []
    assert {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()} == before


def test_config_k_above_rows_names_config(tiny_dataset, model_copy, capsys, tmp_path):
    edit_json(model_copy / "config.json", "k", 30)      # k = 30 over 18 rows
    assert run("score", "--model", model_copy, "--manifest", tiny_dataset / "manifest.csv",
               "--audio-root", tiny_dataset, "--out", tmp_path / "r.csv") == 1
    assert capsys.readouterr().err == (
        f"error: {model_copy / 'config.json'}: k must satisfy 1 <= k <= 18, got 30\n")


@pytest.mark.parametrize("cpus", [1, 2])
def test_config_k_above_rows_wins_over_a_clip_error(tiny_dataset, model_copy, capsys, tmp_path,
                                                    usable_cpus, cpus):
    # The model's own k is a setting like the others: it fails before any clip is decoded.
    usable_cpus(cpus)
    root = tmp_path / "data"
    shutil.copytree(tiny_dataset, root)
    test_clip = next(e for e in load_manifest(root / "manifest.csv") if e.split == "test")
    (root / test_clip.path).write_bytes(b"not a wav")
    edit_json(model_copy / "config.json", "k", 30)      # k = 30 over 18 rows
    assert run("score", "--model", model_copy, "--manifest", root / "manifest.csv",
               "--audio-root", root, "--out", tmp_path / "r.csv") == 1
    assert capsys.readouterr().err == (
        f"error: {model_copy / 'config.json'}: k must satisfy 1 <= k <= 18, got 30\n")


class TestGenGtAndEval:
    def test_gen_gt_logs_t_prime_and_prints_stats(self, tiny_dataset, tmp_path,
                                                  capsys):
        out = tmp_path / "gt.csv"
        assert run("gen-gt", "--manifest", tiny_dataset / "manifest.csv",
                   "--audio-root", tiny_dataset, "--out", out) == 0
        captured = capsys.readouterr()
        assert "t_prime: 0.05" in captured.err
        stats = json.loads(captured.out)
        assert set(stats) == {"groups", "unique_vectors", "counts"}
        assert stats["groups"] == 6  # 3 conditions x 2 causes

    def test_eval_perfect_results(self, tmp_path):
        root = tmp_path
        write_eval_inputs(root, "n0,0.1,0.5,0.5,0.5,0.5,0.5,0,0,0,0,0\n"
                                "a0,0.9,1,1,1,1,1,1,1,1,1,1\n")
        report_path = root / "report.json"
        assert run("eval", "--results", root / "results.csv",
                   "--gt", root / "gt.csv",
                   "--manifest", root / "manifest.csv",
                   "--out", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["detection_auc"] == 1.0
        assert report["mean_mae"] == 0.0
        assert report["n_clips"] == 1

    def test_eval_missing_prediction_names_clip(self, tmp_path, capsys):
        write_eval_inputs(tmp_path, "n0,0.1,0.5,0.5,0.5,0.5,0.5,0,0,0,0,0\n")
        assert run("eval", "--results", tmp_path / "results.csv",
                   "--gt", tmp_path / "gt.csv",
                   "--manifest", tmp_path / "manifest.csv",
                   "--out", tmp_path / "report.json") == 1
        assert "a0" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row,message", [
        (b"n0," + b"9" * 200_000 + b"\n", "row 3: field larger than field limit"),
        (b"n\xff0,0.1\n", "row 3: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["oversized_field", "not_utf8"])
    def test_eval_unreadable_results_row_names_file_and_row(self, tmp_path, capsys,
                                                           bad_row, message):
        write_eval_inputs(tmp_path, "n0,0.1,0.5,0.5,0.5,0.5,0.5,0,0,0,0,0\n")
        results = tmp_path / "results.csv"
        results.write_bytes(results.read_bytes() + bad_row)
        assert run("eval", "--results", results, "--gt", tmp_path / "gt.csv",
                   "--manifest", tmp_path / "manifest.csv",
                   "--out", tmp_path / "report.json") == 1
        assert capsys.readouterr().err.startswith(f"error: {results}: {message}")

    def test_eval_duplicate_result_row_names_file_and_row(self, tmp_path,
                                                         capsys):
        write_eval_inputs(tmp_path, "n0,0.1,0.5,0.5,0.5,0.5,0.5,0,0,0,0,0\n"
                                    "a0,0.9,1,1,1,1,1,1,1,1,1,1\n"
                                    "n0,0.1,0.5,0.5,0.5,0.5,0.5,0,0,0,0,0\n")
        results = tmp_path / "results.csv"
        assert run("eval", "--results", results,
                   "--gt", tmp_path / "gt.csv",
                   "--manifest", tmp_path / "manifest.csv",
                   "--out", tmp_path / "report.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{results}: row 4: duplicate clip_id 'n0'" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("table,message", [
        ("results.csv", "row 3: attribute scores must lie in [0, 1]"),
        ("gt.csv", "group ('c1', 'q1'): ground truth scores must lie in [0, 1]"),
    ])
    def test_eval_nan_score_names_file(self, tmp_path, capsys, table, message):
        write_eval_inputs(tmp_path, "n0,0.1,0.5,0.5,0.5,0.5,0.5,0,0,0,0,0\n"
                                    "a0,0.9,1,1,1,1,1,1,1,1,1,1\n")
        path = tmp_path / table
        old = "a0,0.9,1,1," if table == "results.csv" else "roughness,1,"
        path.write_text(path.read_text().replace(old, old[:-2] + "nan,"))
        assert run("eval", "--results", tmp_path / "results.csv",
                   "--gt", tmp_path / "gt.csv",
                   "--manifest", tmp_path / "manifest.csv",
                   "--out", tmp_path / "report.json") == 1
        assert capsys.readouterr().err == f"error: {tmp_path / table}: {message}\n"

    def test_eval_duplicate_gt_row_names_file_and_row(self, tmp_path, capsys):
        write_eval_inputs(tmp_path, "n0,0.1,0.5,0.5,0.5,0.5,0.5,0,0,0,0,0\n"
                                    "a0,0.9,1,1,1,1,1,1,1,1,1,1\n")
        gt = tmp_path / "gt.csv"
        gt.write_text(gt.read_text() + "c1,q1,depth,nan,-1\n")
        assert run("eval", "--results", tmp_path / "results.csv", "--gt", gt,
                   "--manifest", tmp_path / "manifest.csv",
                   "--out", tmp_path / "report.json") == 1
        assert capsys.readouterr().err == (
            f"error: {gt}: row 7: duplicate (condition, cause, attribute) "
            "('c1', 'q1', 'depth') (first at row 6)\n")


def write_eval_inputs(root, result_rows):
    """Manifest, ground truth and results CSV for one normal/anomalous pair."""
    (root / "manifest.csv").write_text(
        "clip_id,path,split,state,condition,cause,domain\n"
        "tr0,p,train,normal,c1,,source\n"
        "n0,p,test,normal,c1,,source\n"
        "a0,p,test,anomalous,c1,q1,source\n")
    (root / "gt.csv").write_text(
        "condition,cause,attribute,score,label\n"
        + "".join(f"c1,q1,{attr},1,1\n" for attr in
                  ("sharpness", "roughness", "boominess",
                   "brightness", "depth")))
    (root / "results.csv").write_text(
        "clip_id,anomaly_score,sharpness_score,roughness_score,"
        "boominess_score,brightness_score,depth_score,sharpness_label,"
        "roughness_label,boominess_label,brightness_label,depth_label\n"
        + result_rows)


def test_importing_the_cli_loads_neither_hashlib_nor_numpy_random():
    # Measured against `import numpy` alone, which loads numpy.random itself
    # in some numpy versions.
    code = ("import sys, numpy; before = set(sys.modules); import timbrediff.cli; "
            "print(sorted({'hashlib', 'numpy.random'} & (set(sys.modules) - before)))")
    src = str(Path(timbrediff.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"
