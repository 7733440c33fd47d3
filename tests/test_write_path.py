"""Every output file is streamed into `<file>.tmp` and renamed over its target.

Each writer case first writes a good file, then calls the same writer
with records whose last one cannot be serialised, so the write fails
partway through.  The directory must be left exactly as it was: the old
target whole and no temp file behind.
"""

import struct

import numpy as np
import pytest

from timbrediff.cli import main
from timbrediff.dataset import (
    GroundTruthRecord,
    ManifestEntry,
    write_ground_truth_csv,
    write_manifest_csv,
)
from timbrediff.detector import TimbreDiffResult, write_results_csv
from timbrediff.embeddings import DistanceKind, Embedding, NormalizationStats, write_embeddings
from timbrediff.evaluation import EvalReport, write_report_json
from timbrediff.frontend import AudioClip, save_wav
from timbrediff.store import save_model
from timbrediff.timbre import TimbreVector, write_timbre_csv


class Interrupted(Exception):
    pass


class Unwritable:
    """A clip id whose text form raises, as if the write were cut off."""

    def __str__(self):
        raise Interrupted("write cut off")


VECTOR = TimbreVector(1.0, 0.5, 0.5, 100.0, 0.5)
CUT = Unwritable()


def clip_ids(good):
    return ["a", "b", "c" if good else CUT]


def embeddings(good):
    return [Embedding(np.full(2, 1.0 if good else 2.0), "external", cid)
            for cid in clip_ids(good)]


WRITERS = {
    "results": lambda path, good: write_results_csv(path, [
        TimbreDiffResult(cid, 0.5, [0.5] * 5, [0] * 5) for cid in clip_ids(good)]),
    "ground_truth": lambda path, good: write_ground_truth_csv(path, [
        GroundTruthRecord(cid, "hiss", [0.5] * 5, [0] * 5) for cid in clip_ids(good)]),
    "manifest": lambda path, good: write_manifest_csv(path, [
        ManifestEntry(cid, "a.wav", "train", "normal", "slow") for cid in clip_ids(good)]),
    "timbre": lambda path, good: write_timbre_csv(path, [
        (cid, VECTOR) for cid in clip_ids(good)]),
    "tdce": lambda path, good: write_embeddings(path, embeddings(good)),
    "report": lambda path, good: write_report_json(path, EvalReport(
        1.0, dict(zip("xyz", clip_ids(good))), 0.5, {"x": {"0": 3}}, 3)),
    "model": lambda path, good: save_model(
        path, embeddings(good), [(cid, VECTOR) for cid in clip_ids(good)],
        NormalizationStats(np.zeros(2), np.ones(2)), DistanceKind.EUCLIDEAN, k=1, t=0.1),
    # A rate the WAV header's u32 fields cannot hold.
    "wav": lambda path, good: save_wav(
        path, AudioClip(np.linspace(-0.5, 0.5, 16), 16000 if good else 2 ** 32)),
}


def snapshot(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", list(WRITERS))
def test_failed_write_leaves_target_whole(tmp_path, name):
    write = WRITERS[name]
    target = tmp_path / name
    write(target, True)
    before = snapshot(tmp_path)
    assert before                       # the good write produced the target
    with pytest.raises((Interrupted, TypeError, struct.error)):
        write(target, False)
    assert snapshot(tmp_path) == before


def test_pipeline_leaves_no_temp_files(tmp_path):
    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    bench, manifest = tmp_path / "bench", tmp_path / "bench" / "manifest.csv"
    run("synth", "--out", bench, "--seed", "7",
        "--train-per-cond", "6", "--test-per-cond", "1")
    run("fit", "--manifest", manifest, "--audio-root", bench,
        "--provider", "spectral", "--k", "5", "--out", tmp_path / "model")
    run("score", "--model", tmp_path / "model", "--manifest", manifest,
        "--audio-root", bench, "--out", tmp_path / "results.csv")
    run("gen-gt", "--manifest", manifest, "--audio-root", bench,
        "--out", tmp_path / "gt.csv")
    run("eval", "--results", tmp_path / "results.csv", "--gt", tmp_path / "gt.csv",
        "--manifest", manifest, "--out", tmp_path / "report.json")
    assert (tmp_path / "report.json").is_file()
    assert not list(tmp_path.rglob("*.tmp"))
