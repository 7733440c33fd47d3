"""load_model reads a model's CSVs in bulk where it can and row by row where
it must; either way it gives the same ids, the same bits and the same errors.
save_model writes them with the bytes of the row-wise writers it replaced,
the embeddings one block of float32 rows at a time."""

import re
import shutil
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timbrediff import embeddings, timbre
from timbrediff.csvrows import read_columns, replacing, write_rows
from timbrediff.embeddings import (
    _TDCE_HEADER,
    _WRITE_BLOCK_ROWS,
    TDCE_MAGIC,
    TDCE_VERSION,
    DistanceKind,
    Embedding,
    NormalizationStats,
    TdceError,
    write_embeddings,
)
from timbrediff.store import load_model, save_model
from timbrediff.timbre import TIMBRE_CSV_HEADER, TimbreVector

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


@contextmanager
def row_wise():
    """Both CSV readers decline the bulk path, so that each file is read by
    read_rows with a per-row parse."""
    def decline(*args, **kwargs):
        return None

    with mock.patch.object(timbre, "read_columns", decline), \
            mock.patch.object(embeddings, "read_columns", decline):
        yield


def loaded(model_dir):
    ref, config = load_model(model_dir)
    return (ref.clip_ids, config, [(a.dtype, a.shape, a.flags.c_contiguous, a.tobytes())
                                   for a in (ref.embeddings, ref.timbre_values)])


def takes_bulk_path(model_dir):
    return (read_columns(model_dir / "timbre.csv", TIMBRE_CSV_HEADER) is not None,
            read_columns(model_dir / "embeddings.tdce.ids.csv", ["row", "clip_id"]) is not None)


def test_quoted_ids_round_trip(tmp_path):
    ids = ["a,b", 'say "hi"', "two\nlines", " leading", "naïve – 東京", "plain"]
    vectors, values = save(tmp_path, ids)
    assert takes_bulk_path(tmp_path) == (False, False)
    ref, _ = load_model(tmp_path)
    assert ref.clip_ids == tuple(ids)
    assert np.array_equal(ref.embeddings, vectors)
    assert np.array_equal(ref.timbre_values, np.array([[float(f"{v:.9g}") for v in row]
                                                       for row in values]))
    with row_wise():
        reference = loaded(tmp_path)
    assert loaded(tmp_path) == reference


@pytest.fixture(scope="module")
def bulk_model(tmp_path_factory):
    model_dir = tmp_path_factory.mktemp("bulk") / "m"
    save(model_dir, [f"clip_{i:05d}" for i in range(BULK_ROWS)])
    return model_dir


def test_bulk_load_equals_row_wise_to_the_bit(bulk_model):
    assert takes_bulk_path(bulk_model) == (True, True)
    with row_wise():
        reference = loaded(bulk_model)
    assert loaded(bulk_model) == reference
    assert reference[0] == tuple(f"clip_{i:05d}" for i in range(BULK_ROWS))


def test_load_model_scans_the_embeddings_once(bulk_model):
    with mock.patch.object(np, "isfinite", wraps=np.isfinite) as isfinite:
        ref, _ = load_model(bulk_model)
    scans = [call for call in isfinite.call_args_list
             if np.shape(call.args[0]) == ref.embeddings.shape]
    assert len(scans) == 1


def edit_line(path, number, edit):
    """Rewrite line `number` (1 = the header) of a CSV that save_model wrote."""
    lines = path.read_bytes().split(b"\r\n")
    fields = lines[number - 1].decode().split(",")
    edit(fields)
    lines[number - 1] = ",".join(fields).encode()
    path.write_bytes(b"\r\n".join(lines))


def set_field(column, value):
    return lambda fields: fields.__setitem__(column, value)


# (file, line, edit, error type, message after "<file>: ")
BAD_ROWS = {
    "duplicate_id": ("timbre.csv", 1501, set_field(0, "clip_00009"), ValueError,
                     "row 1501: duplicate clip_id 'clip_00009' (first at row 11)"),
    "non_numeric": ("timbre.csv", 1201, set_field(2, "abc"), ValueError,
                    "row 1201: could not convert string to float: 'abc'"),
    "boominess_out_of_range": ("timbre.csv", 1701, set_field(3, "1.5"), ValueError,
                               "row 1701: boominess must lie in [0, 1]"),
    "sidecar_row_out_of_sequence": ("embeddings.tdce.ids.csv", 901, set_field(0, "7"),
                                    TdceError, "row 901: malformed row ['7', 'clip_00899']"),
}


@pytest.mark.parametrize("case", list(BAD_ROWS))
def test_bulk_sized_model_errors_name_file_and_row(bulk_model, tmp_path, case):
    name, line, edit, error, message = BAD_ROWS[case]
    model_dir = tmp_path / "m"
    shutil.copytree(bulk_model, model_dir)
    path = model_dir / name
    edit_line(path, line, edit)
    expected = f"{path}: {message}"
    with pytest.raises(error, match=f"^{re.escape(expected)}$"):
        load_model(model_dir)
    with row_wise(), pytest.raises(error, match=f"^{re.escape(expected)}$"):
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

    bulk = loaded(new)
    with row_wise():
        assert loaded(new) == bulk
    ref, _ = load_model(new)
    assert ref.clip_ids == tuple(ids)
    assert ref.embeddings.tobytes() == vectors.astype(np.float32).astype(np.float64).tobytes()
    nine_digits = [[float(f"{v:.9g}") for v in row] for row in values]
    assert ref.timbre_values.tobytes() == np.array(nine_digits).tobytes()


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
