"""Property tests: any bytes given to a file reader either parse or raise
the package's own error, with a message that names the file.  The bulk
CSV path gives what the row-wise path gives, to the bit and the message."""

import csv
import struct
from contextlib import contextmanager, nullcontext
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timbrediff import embeddings, timbre
from timbrediff.csvrows import read_columns
from timbrediff.dataset import (
    GROUND_TRUTH_CSV_HEADER,
    MANIFEST_CSV_HEADER,
    ManifestError,
    load_manifest,
    read_ground_truth_csv,
)
from timbrediff.detector import RESULTS_CSV_HEADER, read_results_csv
from timbrediff.embeddings import TdceError, read_tdce
from timbrediff.frontend import WavError, load_wav
from timbrediff.timbre import TIMBRE_CSV_HEADER, read_timbre_table

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

LOW_FIELD_LIMIT = 64
LONG = "9" * (LOW_FIELD_LIMIT + 1)  # one field over the lowered csv.field_size_limit()

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


def check_reader(tmp_path, name, content, read, errors):
    path = tmp_path / name
    path.write_bytes(content)
    try:
        read(path)
    except errors as exc:
        assert str(exc).startswith(f"{path}: "), exc


@pytest.mark.parametrize("header,read,error", [
    (MANIFEST_CSV_HEADER, load_manifest, ManifestError),
    (TIMBRE_CSV_HEADER, read_timbre_table, ValueError),
    (RESULTS_CSV_HEADER, read_results_csv, ValueError),
    (GROUND_TRUTH_CSV_HEADER, read_ground_truth_csv, ValueError),
], ids=["manifest", "timbre", "results", "ground_truth"])
def test_csv_readers(tmp_path_factory, header, read, error):
    tmp_path = tmp_path_factory.mktemp("csv")

    @FUZZ
    @given(content=csv_bytes(header))
    def run(content):
        check_reader(tmp_path, "table.csv", content, read, error)

    run()


@pytest.mark.parametrize("header,read,error", [
    (MANIFEST_CSV_HEADER, load_manifest, ManifestError),
    (TIMBRE_CSV_HEADER, read_timbre_table, ValueError),
], ids=["manifest", "timbre"])
@pytest.mark.parametrize("ends", [["\n"], ["\r\n"], ["\r"], ["\r", "\r\n", "\n"]],
                         ids=["lf", "crlf", "cr", "mixed"])
def test_undecodable_byte_names_its_row(tmp_path, header, read, error, ends):
    # csv.reader ends a line at each of \n, \r\n and a lone \r.
    lines = [",".join(header)] + [",".join([f"c{i}"] * len(header)) for i in range(3)]
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode().replace(b"c2", b"c\xff"))     # on line 4
    with pytest.raises(error) as caught:
        read(path)
    assert str(caught.value).startswith(f"{path}: row 4: 'utf-8' codec can't decode byte 0xff")


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
    except TdceError as exc:
        assert str(exc).startswith((f"{path}: ", f"{ids}: ")), exc


# Rows that a reader accepts now and then, so that both paths get to the end.
IDS = ["a", "b", "é", " a", "a ", "x y", "\x85", "\u2028", "\x0c", '"a"', "a\x00", LONG]
GOOD_NUMBERS = st.sampled_from(["0.5", "1", " 1", "0.5 ", "1e-3", "+1", "0.25"])
NUMBERS = st.one_of(GOOD_NUMBERS, GOOD_NUMBERS, GOOD_NUMBERS,
                    st.sampled_from(["0", "-0", "2", "1_0", "inf", "nan", "x", "", LONG]))
timbre_rows = st.lists(st.one_of(*[st.tuples(st.sampled_from(IDS), *[NUMBERS] * 5).map(list)] * 3,
                                 token_row), max_size=5)
sidecar_rows = st.one_of(
    st.lists(st.sampled_from(IDS), max_size=5).map(
        lambda ids: [[str(i), cid] for i, cid in enumerate(ids)]),
    st.lists(st.one_of(st.tuples(st.sampled_from(["0", "1", "2", " 0", "00", LONG]),
                                 st.sampled_from(IDS)).map(list), token_row), max_size=5))
BULK_FUZZ = settings(FUZZ, max_examples=400)


@contextmanager
def field_size_limit(limit):
    old = csv.field_size_limit(limit or csv.field_size_limit())
    try:
        yield
    finally:
        csv.field_size_limit(old)


def outcome(read, path, module, bulk):
    """What `read` makes of `path`: (ids, array bits) or (error type, message).
    Without `bulk`, `module`'s read_columns declines every file, so that
    `read` goes row by row: read_rows with a per-row parse."""
    declined = mock.patch.object(module, "read_columns", lambda *args, **kwargs: None)
    with nullcontext() if bulk else declined:
        try:
            ids, values = read(path)
        except ValueError as exc:
            return type(exc), str(exc)
    return ids, values.dtype, values.shape, values.flags.c_contiguous, values.tobytes()


def check_bulk_path(read, path, module, table, header):
    content = table.read_bytes()
    if b'"' in content or b"\0" in content:     # csv.reader unquotes; 3.10 stops at NUL
        assert read_columns(table, header) is None
    assert outcome(read, path, module, True) == outcome(read, path, module, False)


LIMITS = pytest.mark.parametrize("limit", [None, LOW_FIELD_LIMIT],
                                 ids=["default_field_limit", "low_field_limit"])
GOOD_ROW = "a,0.5,1,0.25,1,0.5"


@LIMITS
def test_bulk_timbre_reader_matches_row_wise(tmp_path_factory, limit):
    path = tmp_path_factory.mktemp("bulk") / "timbre.csv"
    header = ",".join(TIMBRE_CSV_HEADER)

    @BULK_FUZZ
    @given(content=csv_bytes(TIMBRE_CSV_HEADER, timbre_rows))
    @example(content=f"{header}\r\n{GOOD_ROW}\r\nb, 1 ,1_0,1,inf,1\r\n".encode())
    @example(content=f"{header}\n{GOOD_ROW}\rb,1,1, 0.5,1_0,1 \r\nc,1,1,1,1,1".encode())
    @example(content=f"{header}\r\n\"a\",0.5,1,0.25,1,0.5\r\n".encode())
    @example(content=f"{header}\r\na\0,0.5,1,0.25,1,0.5\r\n".encode())
    @example(content=f"{header}\n{LONG},1,1,1,1,1\n".encode())
    @example(content=f"{header}\r\n{GOOD_ROW}\r\r\n".encode())
    @example(content=f"{header}\na,1,1,0.5,1\n0.5,b,1,1,0.5,1,0.5\n".encode())
    def run(content):
        path.write_bytes(content)
        check_bulk_path(read_timbre_table, path, timbre, path, TIMBRE_CSV_HEADER)

    with field_size_limit(limit):
        run()


@LIMITS
def test_bulk_sidecar_reader_matches_row_wise(tmp_path_factory, limit):
    tmp_path = tmp_path_factory.mktemp("bulk")
    path, ids = tmp_path / "emb.tdce", tmp_path / "emb.tdce.ids.csv"

    @BULK_FUZZ
    @given(sidecar=csv_bytes(["row", "clip_id"], sidecar_rows), count=st.integers(0, 5))
    @example(sidecar=b"row,clip_id\r\n0,a\r\n1, b \r\n", count=2)
    @example(sidecar=b"row,clip_id\n0,a\r1,\x85\r\n2,\xc3\xa9", count=3)
    @example(sidecar=b'row,clip_id\r\n0,"a,b"\r\n', count=1)
    @example(sidecar=b"row,clip_id\r\n0,a\0\r\n", count=1)
    @example(sidecar=b"row,clip_id\r\n0,a\r\n1,a\r\n", count=2)
    @example(sidecar=b"row,clip_id\r\n0,a\r\r\n", count=1)
    @example(sidecar=b"row,clip_id\n0,a,1\nb\n", count=2)
    def run(sidecar, count):
        path.write_bytes(struct.pack(f"<4sIII{count}f", b"TDCE", 1, 1, count, *range(count)))
        ids.write_bytes(sidecar)
        check_bulk_path(read_tdce, path, embeddings, ids, ["row", "clip_id"])

    with field_size_limit(limit):
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
    check_reader(tmp_path_factory.mktemp("wav"), "clip.wav", content, load_wav, WavError)
