"""Property tests: any bytes given to a file reader either parse or raise
the package's own error, with a message that names the file."""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

# Field values that reach each reader's parsing and validation branches.
TOKENS = ["", "a", "b", "0", "1", "-1", "0.5", "2", "1e999", "nan", "-0", "x y",
          "train", "test", "normal", "anomalous", "source", "target", "c1", "q1",
          "sharpness", "roughness", "boominess", "brightness", "depth", '"', "\x00", "é"]

rows = st.lists(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=13),
                max_size=5).map(lambda rs: "".join(",".join(r) + "\n" for r in rs).encode())


def csv_bytes(header):
    line = (",".join(header) + "\n").encode()
    return st.one_of(st.binary(max_size=300),
                     st.tuples(rows, st.binary(max_size=40)).map(lambda t: line + t[0] + t[1]),
                     rows.map(lambda body: line + body))


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
