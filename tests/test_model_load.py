"""load_model reads a model's CSVs in bulk where it can and row by row where
it must; either way it gives the same ids, the same bits and the same errors."""

import re
import shutil
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from timbrediff import embeddings, timbre
from timbrediff.csvrows import read_columns
from timbrediff.embeddings import DistanceKind, Embedding, NormalizationStats, TdceError
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
