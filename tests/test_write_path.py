"""Every output file is streamed into `<file>.tmp` and renamed over its target.

Each writer case first writes a good file, then calls the same writer
with records whose last one cannot be serialised, so the write fails
partway through.  The directory must be left exactly as it was: the old
target whole and no temp file behind.
"""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from timbrediff.cli import main
from timbrediff.csvrows import write_json, write_rows
from timbrediff.dataset import (
    ManifestEntry,
    write_ground_truth_csv,
    write_manifest_csv,
)
from timbrediff.detector import write_results_csv
from timbrediff.embeddings import (
    _WRITE_BLOCK_ROWS,
    DistanceKind,
    Embedding,
    NormalizationStats,
    write_embeddings,
)
from timbrediff.frontend import AudioClip, save_wav
from timbrediff.store import load_model, save_model
from timbrediff.timbre import TIMBRE_CSV_HEADER, TimbreVector, timbre_csv_rows


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
    "results": lambda path, good: write_results_csv(
        path, clip_ids(good), np.full(3, 0.5), np.full((3, 5), 0.5), np.zeros((3, 5), int)),
    "ground_truth": lambda path, good: write_ground_truth_csv(
        path, [(cid, "hiss") for cid in clip_ids(good)], np.full((3, 5), 0.5),
        np.zeros((3, 5), int)),
    "manifest": lambda path, good: write_manifest_csv(path, [
        ManifestEntry(cid, "a.wav", "train", "normal", "slow") for cid in clip_ids(good)]),
    "timbre": lambda path, good: write_rows(path, TIMBRE_CSV_HEADER, timbre_csv_rows(
        clip_ids(good), np.tile(VECTOR.as_array(), (3, 1)))),
    "tdce": lambda path, good: write_embeddings(path, clip_ids(good),
                                                np.full((3, 2), 1.0 if good else 2.0)),
    "report": lambda path, good: write_json(path, {
        "detection_auc": 1.0, "mae": dict(zip("xyz", clip_ids(good))), "mean_mae": 0.5,
        "counts": {"x": {"0": 3}}, "n_clips": 3}),
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


def save_vectors(model_dir, ids, vectors):
    save_model(model_dir, [Embedding(v, "spectral", cid) for v, cid in zip(vectors, ids)],
               [(cid, VECTOR) for cid in ids], NormalizationStats(np.zeros(2), np.ones(2)),
               DistanceKind.EUCLIDEAN, k=1, t=0.1)


def fail_on_non_finite_row(tmp_path, via, bad, count, row):
    """Write `count` good rows, then the same with `row` set to `bad`: the
    second write must name the row and leave every file as it was."""
    if via == "save_model":
        path = tmp_path / "embeddings.tdce"
        write = lambda _, ids, vectors: save_vectors(tmp_path, ids, vectors)  # noqa: E731
    else:
        path, write = tmp_path / "emb.tdce", write_embeddings
    ids = [f"c{i}" for i in range(count)]
    write(path, ids, np.ones((count, 2)))
    before = snapshot(tmp_path)
    vectors = np.ones((count, 2))
    vectors[row, 0] = bad
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: embedding row {row} (clip 'c{row}') is not finite")):
        write(path, ids, vectors)
    assert snapshot(tmp_path) == before
    assert not list(tmp_path.rglob("*.tmp"))


# 1e300 is finite as float64 but not as the float32 the file holds; the
# cast gives inf without an overflow warning, and the row is named.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("via", ["write_embeddings", "save_model"])
@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e300])
def test_non_finite_embedding_row_fails_before_the_write(tmp_path, bad, via):
    fail_on_non_finite_row(tmp_path, via, bad, 3, 1)


# The rows are cast and checked a block at a time into the `.tmp`: a bad
# row in the last block fails after two blocks were written, and is named
# by its row in the whole file.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("via", ["write_embeddings", "save_model"])
@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e300])
def test_non_finite_row_in_the_last_block_fails_before_the_write(tmp_path, bad, via):
    count = 2 * _WRITE_BLOCK_ROWS + 1
    fail_on_non_finite_row(tmp_path, via, bad, count, count - 1)


@pytest.mark.parametrize("failing", ["embeddings.tdce", "normalization.json", "config.json"])
def test_failed_save_leaves_the_previous_model_whole(tmp_path, failing):
    # Every other file is staged until the embeddings are in.  The write that fails
    # is the last embedding row's, or that of a JSON file whose `.tmp` is a directory:
    # none of the new model's files replaces an old one.
    save_vectors(tmp_path, ["c0", "c1", "c2", "c3"], np.ones((4, 2)))
    before = snapshot(tmp_path)
    vectors = np.ones((4, 2))
    if failing == "embeddings.tdce":
        vectors[3, 1] = np.nan
        raised = pytest.raises(ValueError, match=re.escape(
            f"{tmp_path / failing}: embedding row 3 (clip 'd3') is not finite"))
    else:
        (tmp_path / f"{failing}.tmp").mkdir()
        raised = pytest.raises(OSError)
    with raised:
        save_vectors(tmp_path, ["d0", "d1", "d2", "d3"], vectors)
    assert snapshot(tmp_path) == before
    assert load_model(tmp_path)[0].clip_ids == ("c0", "c1", "c2", "c3")


def test_save_model_holds_one_block_of_float32_rows(tmp_path):
    count, dim = 20_000, 80
    ids = [f"clip_{i:05d}" for i in range(count)]
    vectors = np.random.default_rng(0).standard_normal((count, dim))
    embeddings = [Embedding(v, "spectral", cid) for v, cid in zip(vectors, ids)]
    del vectors
    rows = [(cid, VECTOR) for cid in ids]
    stats = NormalizationStats(np.zeros(dim), np.ones(dim))
    tracemalloc.start()
    try:
        inputs = tracemalloc.get_traced_memory()[0]
        save_model(tmp_path, embeddings, rows, stats, DistanceKind.EUCLIDEAN, k=5, t=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A [20,000 x 80] float32 copy alone is 6.4 MB; one block is 1.3 MB.
    assert peak - inputs < 2_000_000
    assert load_model(tmp_path)[1]["count"] == count


def test_save_model_rejects_ragged_embeddings_before_the_write(tmp_path):
    save_vectors(tmp_path, ["a", "b"], np.ones((2, 2)))
    before = snapshot(tmp_path)
    with pytest.raises(ValueError, match="^embeddings must all share one dimension$"):
        save_vectors(tmp_path, ["a", "b"], [np.ones(2), np.ones(3)])
    assert snapshot(tmp_path) == before


def test_save_model_refuses_zero_rows_before_the_write(tmp_path):
    # A model of no rows would carry provider "" and count 0, which load_model refuses.
    save_vectors(tmp_path, ["a", "b"], np.ones((2, 2)))
    before = snapshot(tmp_path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}: "):
        save_vectors(tmp_path, [], np.ones((0, 2)))
    assert snapshot(tmp_path) == before
    assert load_model(tmp_path)[0].clip_ids == ("a", "b")
