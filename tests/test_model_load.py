"""load_model reads a format-2 model directory, the TDCE payload, clip_ids.json
and timbre.npy, and never its CSV exports.  It returns the timbre values given
to save_model bit for bit, and the embeddings as the TDCE export reads back.
save_model writes the exports with the bytes of the row-wise writers it
replaced, the embeddings one block of float32 rows at a time."""

import json
import re
import shutil
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timbrediff.csvrows import replacing, write_rows
from timbrediff.embeddings import (
    _TDCE_HEADER,
    _WRITE_BLOCK_ROWS,
    TDCE_MAGIC,
    TDCE_VERSION,
    DistanceKind,
    Embedding,
    NormalizationStats,
    TdceError,
    read_tdce,
    write_embeddings,
)
from timbrediff.store import ModelDirectoryError, load_model, save_model
from timbrediff.timbre import TIMBRE_CSV_HEADER, TimbreVector, read_timbre_csv

BULK_ROWS = 2000
DIM = 4


def save(model_dir, ids):
    rng = np.random.default_rng(len(ids))
    vectors = rng.standard_normal((len(ids), DIM))
    values = rng.uniform(0.01, 1.0, (len(ids), 5))   # in range for every attribute
    save_model(model_dir, [Embedding(v, "spectral", cid) for v, cid in zip(vectors, ids)],
               [(cid, TimbreVector.from_array(v)) for cid, v in zip(ids, values)],
               NormalizationStats(np.zeros(DIM), np.ones(DIM)), DistanceKind.EUCLIDEAN,
               k=5, t=0.25)
    return vectors.astype(np.float32).astype(np.float64), values


def loaded(model_dir):
    ref, config = load_model(model_dir)
    return (ref.clip_ids, config, [(a.dtype, a.shape, a.flags.c_contiguous, a.tobytes())
                                   for a in (ref.embeddings, ref.timbre_values)])


def exported(model_dir):
    """What the row-wise readers give for the exports: (ids, loaded()'s form of the
    embeddings, the timbre values as their 9-digit text reads back)."""
    ids, vectors = read_tdce(model_dir / "embeddings.tdce")
    timbre = read_timbre_csv(model_dir / "timbre.csv")
    assert list(timbre) == ids
    values = np.array([vec.as_array() for vec in timbre.values()]).reshape(-1, 5)
    return tuple(ids), (vectors.dtype, vectors.shape, vectors.flags.c_contiguous,
                        vectors.tobytes()), values


def nine_digits(values):
    return np.array([[float(f"{v:.9g}") for v in row] for row in values]).reshape(-1, 5)


def check_exports(model_dir, ids, values):
    """load_model gives back `values` to the bit; timbre.csv is their 9-digit text,
    as the row-wise writer wrote it, and the exports name the rows of clip_ids.json."""
    loaded_ids, _, (embeddings, timbre) = loaded(model_dir)
    assert timbre == (np.dtype(np.float64), values.shape, True, values.tobytes())
    export_ids, export_embeddings, export_values = exported(model_dir)
    assert loaded_ids == export_ids == tuple(ids)
    assert embeddings == export_embeddings
    assert export_values.tobytes() == nine_digits(values).tobytes()
    reference = model_dir / "reference_timbre.csv"
    _reference_write_timbre_csv(reference, [(cid, TimbreVector.from_array(row))
                                            for cid, row in zip(ids, values)])
    assert reference.read_bytes() == (model_dir / "timbre.csv").read_bytes()
    reference.unlink()


def test_quoted_ids_round_trip(tmp_path):
    ids = ["a,b", 'say "hi"', "two\nlines", " leading", "naïve – 東京", "plain"]
    vectors, values = save(tmp_path, ids)
    assert json.loads((tmp_path / "clip_ids.json").read_text()) == ids
    ref, _ = load_model(tmp_path)
    assert np.array_equal(ref.embeddings, vectors)
    check_exports(tmp_path, ids, values)


@pytest.fixture(scope="module")
def bulk_saved(tmp_path_factory):
    model_dir = tmp_path_factory.mktemp("bulk") / "m"
    ids = [f"clip_{i:05d}" for i in range(BULK_ROWS)]
    return model_dir, ids, save(model_dir, ids)[1]


@pytest.fixture(scope="module")
def bulk_model(bulk_saved):
    return bulk_saved[0]


def test_bulk_load_equals_row_wise_to_the_bit(bulk_saved):
    # timbre.npy holds the values given; timbre.csv their 9-digit text.
    model_dir, ids, values = bulk_saved
    check_exports(model_dir, ids, values)
    assert loaded(model_dir)[1]["format_version"] == 2


def test_load_model_reads_no_export(bulk_model, tmp_path):
    model_dir = tmp_path / "m"
    shutil.copytree(bulk_model, model_dir)
    (model_dir / "timbre.csv").unlink()
    (model_dir / "embeddings.tdce.ids.csv").unlink()
    assert loaded(model_dir) == loaded(bulk_model)


def test_load_model_scans_the_embeddings_once(bulk_model):
    # One scan of the per-row sums, and no [N x D] mask.
    with mock.patch.object(np, "isfinite", wraps=np.isfinite) as isfinite:
        ref, _ = load_model(bulk_model)
    shapes = [np.shape(call.args[0]) for call in isfinite.call_args_list]
    assert ref.embeddings.shape not in shapes
    assert shapes.count((BULK_ROWS,)) == 1


def test_format_1_directory_is_refused(bulk_model, tmp_path):
    model_dir = tmp_path / "m"
    shutil.copytree(bulk_model, model_dir)
    path = model_dir / "config.json"
    config = json.loads(path.read_text())
    del config["format_version"]
    path.write_text(json.dumps(config))
    with pytest.raises(ModelDirectoryError,
                       match=f"^{re.escape(f'{model_dir}: model format 1; re-run fit')}$"):
        load_model(model_dir)


def edit_ids(edit):
    def damage(path):
        ids = json.loads(path.read_text())
        edit(ids)
        path.write_text(json.dumps(ids))
    return damage


def edit_timbre(edit):
    def damage(path):
        values = np.load(path)
        np.save(path, edit(values), allow_pickle=True)
    return damage


def set_value(row, column, value):
    def edit(values):
        values[row, column] = value
        return values
    return edit


def nan_row(row):
    def damage(path):
        data = bytearray(path.read_bytes())
        struct.pack_into("<f", data, _TDCE_HEADER.size + 4 * DIM * row, float("nan"))
        path.write_bytes(bytes(data))
    return damage


def edit_config(key, value):
    def damage(path):
        config = json.loads(path.read_text())
        config[key] = value
        path.write_text(json.dumps(config))
    return damage


# (file, damage, error type, message after "<file>: ")
BAD_ROWS = {
    "duplicate_id": ("clip_ids.json", edit_ids(lambda ids: ids.__setitem__(1500, "clip_00009")),
                     ModelDirectoryError,
                     "row 1500: duplicate clip id 'clip_00009' (first at row 9)"),
    "missing_id": ("clip_ids.json", edit_ids(lambda ids: ids.pop(900)), ModelDirectoryError,
                   f"{BULK_ROWS - 1} clip ids for {BULK_ROWS} rows of embeddings.tdce"),
    "id_not_text": ("clip_ids.json", edit_ids(lambda ids: ids.__setitem__(7, 7)),
                    ModelDirectoryError, "expected a JSON list of clip id strings"),
    "non_numeric": ("timbre.npy", edit_timbre(lambda values: values.astype(str)),
                    ModelDirectoryError, "expected float64 timbre values, got <U"),
    "object_array": ("timbre.npy", edit_timbre(lambda values: values.astype(object)),
                     ModelDirectoryError, "Array can't be memory-mapped: Python objects in dtype."),
    "wrong_shape": ("timbre.npy", edit_timbre(lambda values: values[:-1]), ValueError,
                    f"expected [{BULK_ROWS} x 5] timbre values, got shape ({BULK_ROWS - 1}, 5)"),
    "boominess_out_of_range": ("timbre.npy", edit_timbre(set_value(1699, 2, 1.5)), ValueError,
                               "row 1699: boominess must lie in [0, 1]"),
    "config_count": ("config.json", edit_config("count", BULK_ROWS + 1), ModelDirectoryError,
                     f"config count {BULK_ROWS + 1} does not match embedding count {BULK_ROWS}"),
    "tdce_nan": ("embeddings.tdce", nan_row(1234), TdceError,
                 "embedding row 1234 (clip 'clip_01234') is not finite"),
}


@pytest.mark.parametrize("case", list(BAD_ROWS))
def test_bulk_sized_model_errors_name_file_and_row(bulk_model, tmp_path, case):
    name, damage, error, message = BAD_ROWS[case]
    model_dir = tmp_path / "m"
    shutil.copytree(bulk_model, model_dir)
    path = model_dir / name
    damage(path)
    with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}"):
        load_model(model_dir)


def _reference_write_timbre_csv(path, rows):
    """Oracle: the former write_timbre_csv, one csv.writer row per
    (clip_id, TimbreVector) pair, each value formatted on its own."""
    write_rows(path, TIMBRE_CSV_HEADER, ([clip_id] + [f"{v:.9g}" for v in vec.as_array()]
                                         for clip_id, vec in rows))


def _reference_write_embeddings(path, embeddings):
    """Oracle: the former write_embeddings, from a list of Embedding, with
    its sidecar written one csv.writer row per embedding."""
    embeddings = list(embeddings)
    dim = embeddings[0].vector.size if embeddings else 0
    with replacing(path, "wb") as fh:
        fh.write(_TDCE_HEADER.pack(TDCE_MAGIC, TDCE_VERSION, dim, len(embeddings)))
        if embeddings:
            data = np.vstack([e.vector for e in embeddings]).astype("<f4")
            fh.write(data.tobytes(order="C"))
        write_rows(f"{path}.ids.csv", ["row", "clip_id"],
                   ([row, emb.clip_id] for row, emb in enumerate(embeddings)))


# Ids with every character csv.writer quotes, spaces, non-ASCII text and "".
clip_id_texts = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "7", "é", "東", "–"])
                        | st.characters(blacklist_categories=("Cs",),
                                        blacklist_characters="\0"), max_size=6)


def timbre_floats(lo, hi):
    """Floats in [lo, hi]: any, subnormal, 0.0, +-1e300 where in range, and
    exact integers.  1e300 stays clear of 9-digit rounding up to inf."""
    special = [v for v in (0.0, -0.0, 5e-324, 2.5e-310, 1e-300, 1.0, 1e300) if lo <= v <= hi]
    return (st.floats(lo, hi) | st.sampled_from(special)
            | st.integers(0, min(int(hi), 2 ** 53)).map(float))


timbre_rows = st.tuples(timbre_floats(0.0, 1e300), timbre_floats(0.0, 1e300),
                        timbre_floats(0.0, 1.0),
                        timbre_floats(0.0, 1e300).filter(lambda v: v > 0.0),
                        timbre_floats(0.0, 1.0))
# Float64 values the float32 payload holds as finite, some only as subnormals or 0.
embedding_floats = (st.floats(-3e38, 3e38)
                    | st.sampled_from([0.0, -0.0, 5e-324, 1e-300, -1e-40, 1e38, 16777217.0])
                    | st.integers(-2 ** 53, 2 ** 53).map(float))


@st.composite
def models(draw):
    ids = draw(st.lists(clip_id_texts, min_size=1, max_size=8, unique=True))
    dim = draw(st.integers(1, 5))
    vectors = draw(st.lists(st.lists(embedding_floats, min_size=dim, max_size=dim),
                            min_size=len(ids), max_size=len(ids)))
    values = draw(st.lists(timbre_rows, min_size=len(ids), max_size=len(ids)))
    return ids, np.array(vectors, dtype=np.float64), np.array(values, dtype=np.float64)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(model=models())
def test_bulk_writers_match_row_wise_writers(tmp_path_factory, model):
    ids, vectors, values = model
    old, new = tmp_path_factory.mktemp("old"), tmp_path_factory.mktemp("new")
    _reference_write_embeddings(old / "embeddings.tdce",
                                [Embedding(v, "spectral", cid) for v, cid in zip(vectors, ids)])
    _reference_write_timbre_csv(old / "timbre.csv",
                                [(cid, TimbreVector.from_array(v)) for cid, v in zip(ids, values)])
    save_model(new, [Embedding(v, "spectral", cid) for v, cid in zip(vectors, ids)],
               [(cid, TimbreVector.from_array(v)) for cid, v in zip(ids, values)],
               NormalizationStats(np.zeros(vectors.shape[1]), np.ones(vectors.shape[1])),
               DistanceKind.EUCLIDEAN, k=1, t=0.25)
    for name in ("embeddings.tdce", "embeddings.tdce.ids.csv", "timbre.csv"):
        assert (new / name).read_bytes() == (old / name).read_bytes(), name

    check_exports(new, ids, values)
    ref, _ = load_model(new)
    assert ref.embeddings.tobytes() == vectors.astype(np.float32).astype(np.float64).tobytes()


def test_block_writes_match_row_wise_writers(tmp_path):
    count = 2 * _WRITE_BLOCK_ROWS + 1
    ids = [f"clip_{i:05d}" for i in range(count)]
    ids[_WRITE_BLOCK_ROWS + 7] = 'say "hi", twice'      # quoted, in the middle block
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((count, DIM)) * 1e3
    values = rng.uniform(0.01, 1.0, (count, 5))
    embeddings = [Embedding(v, "spectral", cid) for v, cid in zip(vectors, ids)]
    rows = [(cid, TimbreVector.from_array(v)) for cid, v in zip(ids, values)]
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    _reference_write_embeddings(old / "embeddings.tdce", embeddings)
    _reference_write_timbre_csv(old / "timbre.csv", rows)
    save_model(new, embeddings, rows, NormalizationStats(np.zeros(DIM), np.ones(DIM)),
               DistanceKind.EUCLIDEAN, k=5, t=0.25)
    for name in ("embeddings.tdce", "embeddings.tdce.ids.csv", "timbre.csv"):
        assert (new / name).read_bytes() == (old / name).read_bytes(), name
    # An [N x D] array takes the same path as the rows save_model passes.
    write_embeddings(tmp_path / "array.tdce", ids, vectors)
    for suffix in ("", ".ids.csv"):
        assert ((tmp_path / f"array.tdce{suffix}").read_bytes()
                == (old / f"embeddings.tdce{suffix}").read_bytes())
    ref, _ = load_model(new)
    assert ref.clip_ids == tuple(ids)
    assert np.array_equal(ref.embeddings, vectors.astype(np.float32))
