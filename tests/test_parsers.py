"""Property tests: any bytes given to a file reader either parse or raise
ValueError, with a message that names the file.  The model's
timbre.npy and clip_ids.json are read through load_model."""

import io
import json
import re
import shutil
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timbrediff.dataset import (
    GROUND_TRUTH_CSV_HEADER,
    MANIFEST_CSV_HEADER,
    load_manifest,
    read_ground_truth_csv,
)
from timbrediff.detector import RESULTS_CSV_HEADER, read_results_csv
from timbrediff.embeddings import (
    DistanceKind,
    Embedding,
    NormalizationStats,
    read_tdce,
)
from timbrediff.frontend import load_wav
from timbrediff.store import load_model, save_model
from timbrediff.timbre import TIMBRE_CSV_HEADER, TimbreVector, read_timbre_csv

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

LONG = "9" * 65                 # a field longer than the others

# Field values that reach each reader's parsing and validation branches.
TOKENS = ["", "a", "b", "0", "1", "-1", "0.5", "2", "1e999", "nan", "-0", "x y",
          "train", "test", "normal", "anomalous", "source", "target", "c1", "q1",
          "sharpness", "roughness", "boominess", "brightness", "depth", '"', "\x00", "é",
          " 1", "0.5 ", "1_0", "inf", "-inf", "+1", "\x85", "\u2028", "\x0c", LONG]
ENDINGS = ["\n", "\r\n", "\r"]

token_row = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=13)
token_rows = st.lists(token_row, max_size=5)


def lines(header, rows):
    """CSV text of `header` and then `rows`, from an optional UTF-8 BOM and
    with each line ended by \\n, \\r\\n or \\r, the last perhaps by nothing.
    A row of one empty field is a blank line; one ending in "" a trailing comma."""
    def join(bom, body, ends, final):
        ends = [ends[i % len(ends)] for i in range(len(body))] + [ends[0] if final else ""]
        return bom + "".join(",".join(r) + e for r, e in zip([header] + body, ends))
    return st.builds(join, st.sampled_from(["", "", "", "\ufeff"]), rows,
                     st.lists(st.sampled_from(ENDINGS), min_size=1, max_size=3),
                     st.sampled_from([True, True, False])).map(str.encode)


def csv_bytes(header, rows=token_rows):
    return st.one_of(st.binary(max_size=300),
                     st.tuples(lines(header, rows), st.binary(max_size=40)).map(b"".join),
                     lines(header, rows))


def check_reader(tmp_path, name, content, read):
    path = tmp_path / name
    path.write_bytes(content)
    try:
        read(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc


@pytest.mark.parametrize("header,read", [
    (MANIFEST_CSV_HEADER, load_manifest),
    (TIMBRE_CSV_HEADER, read_timbre_csv),
    (RESULTS_CSV_HEADER, read_results_csv),
    (GROUND_TRUTH_CSV_HEADER, read_ground_truth_csv),
], ids=["manifest", "timbre", "results", "ground_truth"])
def test_csv_readers(tmp_path_factory, header, read):
    tmp_path = tmp_path_factory.mktemp("csv")

    @FUZZ
    @given(content=csv_bytes(header))
    def run(content):
        check_reader(tmp_path, "table.csv", content, read)

    run()


@pytest.mark.parametrize("header,read", [
    (MANIFEST_CSV_HEADER, load_manifest),
    (TIMBRE_CSV_HEADER, read_timbre_csv),
], ids=["manifest", "timbre"])
@pytest.mark.parametrize("ends", [["\n"], ["\r\n"], ["\r"], ["\r", "\r\n", "\n"]],
                         ids=["lf", "crlf", "cr", "mixed"])
def test_undecodable_byte_names_its_row(tmp_path, header, read, ends):
    # csv.reader ends a line at each of \n, \r\n and a lone \r.
    lines = [",".join(header)] + [",".join([f"c{i}"] * len(header)) for i in range(3)]
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode().replace(b"c2", b"c\xff"))     # on line 4
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{path}: row 4: 'utf-8' codec can't decode byte 0xff")):
        read(path)


TDCE_HEADER = st.builds(lambda version, dim, count: struct.pack("<4sIII", b"TDCE",
                                                                  version, dim, count),
                        st.sampled_from([1, 2]), st.integers(0, 4), st.integers(0, 4))


@FUZZ
@given(payload=st.one_of(st.binary(max_size=64),
                         st.tuples(TDCE_HEADER, st.binary(max_size=64)).map(b"".join)),
       sidecar=csv_bytes(["row", "clip_id"]))
def test_tdce_reader(tmp_path_factory, payload, sidecar):
    tmp_path = tmp_path_factory.mktemp("tdce")
    path, ids = tmp_path / "emb.tdce", tmp_path / "emb.tdce.ids.csv"
    path.write_bytes(payload)
    ids.write_bytes(sidecar)
    try:
        read_tdce(path)
    except ValueError as exc:
        assert str(exc).startswith((f"{path}: ", f"{ids}: ")), exc


def npy_bytes(descr, fortran_order, shape, payload):
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, {"descr": descr, "fortran_order": fortran_order,
                                                "shape": shape})
    return head.getvalue() + payload


MODEL_ROWS = 3
# MODEL_ROWS rows of 0.5, with one value perhaps out of some attribute's
# range or not finite, and a few values perhaps cut or added.
TIMBRE_PAYLOADS = st.builds(
    lambda i, value, extra: struct.pack(f"<{5 * MODEL_ROWS + extra}d", *(
        [0.5] * i + [value] + [0.5] * (5 * MODEL_ROWS + extra - i - 1))),
    st.integers(0, 5 * MODEL_ROWS - 3), st.sampled_from([0.5, 0.0, 1.5, -1.0, float("nan")]),
    st.sampled_from([0, 0, 0, -2, 2]))
NPYS = st.builds(npy_bytes, st.sampled_from(["<f8", "<f8", ">f8", "<f4", "|O", "<U3", "|b1"]),
                 st.booleans(),
                 st.sampled_from([(MODEL_ROWS, 5), (MODEL_ROWS, 5), (5, MODEL_ROWS),
                                  (MODEL_ROWS,), (), (0, 5), (4, 5), (2 ** 40, 5)]),
                 st.one_of(TIMBRE_PAYLOADS, st.binary(max_size=160)))
ID_VALUES = st.one_of(st.sampled_from(["c0", "c1", "c2", "c0"]), st.text(max_size=3),
                      st.integers(), st.none(), st.lists(st.text(max_size=2), max_size=2))
CLIP_IDS = st.one_of(st.binary(max_size=60),
                     st.permutations(["c0", "c1", "c2", "c'\n\"\u00e9"]).map(
                         lambda ids: json.dumps(ids[:MODEL_ROWS]).encode()),
                     st.lists(ID_VALUES, max_size=5).map(lambda ids: json.dumps(ids).encode()),
                     st.dictionaries(st.text(max_size=2), st.text(max_size=2), max_size=2).map(
                         lambda d: json.dumps(d).encode()))


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    model_dir = tmp_path_factory.mktemp("model") / "m"
    ids = [f"c{i}" for i in range(MODEL_ROWS)]
    save_model(model_dir, [Embedding(np.full(2, i + 1.0), "spectral", cid)
                           for i, cid in enumerate(ids)],
               [(cid, TimbreVector(1.0, 0.5, 0.5, 100.0, 0.5)) for cid in ids],
               NormalizationStats(np.zeros(2), np.ones(2)), DistanceKind.EUCLIDEAN, k=1, t=0.1)
    return model_dir


@pytest.mark.parametrize("name,contents", [
    ("timbre.npy", st.one_of(st.binary(max_size=200), NPYS,
                             NPYS.flatmap(lambda b: st.integers(0, len(b)).map(lambda n: b[:n])))),
    ("clip_ids.json", CLIP_IDS),
], ids=["timbre_npy", "clip_ids_json"])
def test_model_array_readers(small_model, tmp_path_factory, name, contents):
    # Any timbre.npy or clip_ids.json loads or fails naming that file.
    model_dir = tmp_path_factory.mktemp("fuzz") / "m"
    shutil.copytree(small_model, model_dir)
    path = model_dir / name

    @FUZZ
    @given(content=contents)
    def run(content):
        check_reader(model_dir, name, content, load_model)

    run()


def wav_chunk(chunk_id, body):
    return chunk_id + struct.pack("<I", len(body)) + body


FMT = st.builds(lambda tag, channels, rate, bits: struct.pack("<HHIIHH", tag, channels, rate,
                                                              0, 0, bits),
                st.sampled_from([3, 3, 1, 6]), st.sampled_from([1, 1, 2, 0]),
                st.sampled_from([16000, 16000, 44100, 0]), st.sampled_from([32, 32, 16, 8]))
SAMPLES = st.one_of(st.binary(max_size=64),
                    st.lists(st.floats(width=32), max_size=16).map(
                        lambda xs: struct.pack(f"<{len(xs)}f", *xs)))
# A fmt and a data chunk, after an optional other chunk, cut short at random.
WAVS = st.builds(
    lambda extra, fmt, data, cut: (b"RIFF\0\0\0\0WAVE" + extra + wav_chunk(b"fmt ", fmt)
                                   + wav_chunk(b"data", data))[:cut],
    st.just(b"") | st.binary(max_size=16).map(lambda b: wav_chunk(b"LIST", b)),
    FMT, SAMPLES, st.sampled_from([None, None, None, 0, 20, 40, 60]))


@FUZZ
@given(content=st.one_of(st.binary(max_size=128), WAVS))
@example(content=b"RIFF\0\0\0\0WAVE"
         + wav_chunk(b"fmt ", struct.pack("<HHIIHH", 3, 1, 16000, 0, 0, 32))
         + wav_chunk(b"data", struct.pack("<2f", 0.5, float("nan"))))
def test_wav_reader(tmp_path_factory, content):
    check_reader(tmp_path_factory.mktemp("wav"), "clip.wav", content, load_wav)
