"""The one reader and the one write path behind every file the package keeps."""

import csv
import io
import json
import os
from contextlib import contextmanager


@contextmanager
def replacing(path, mode="w"):
    """Stream a write into `<path>.tmp`, then rename it over `path`.

    Text modes write UTF-8 with no newline translation.  If the block
    raises, the temp file is removed and an existing `path` stays whole.
    """
    tmp = f"{path}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    fh = open(tmp, mode, **text)
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def write_rows(path, header, rows) -> None:
    """Write a CSV: the header, then each row of the iterable as it comes."""
    with replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj) -> None:
    with replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_rows(path, header, parse, unique=None) -> list:
    """[parse(row number, fields) for each row after the header], in order.

    Rows are numbered from the header, row 1, which must equal `header`.
    Every row needs one field per header column and, with `unique` (a
    column name), a value in that column no earlier row has.  Bytes that
    are not UTF-8, csv format errors and a ValueError from `parse` raise
    ValueError naming the file and the row.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # csv.reader ends a line at \r\n, \n or a lone \r.
        row = raw[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise ValueError(f"{path}: row {row}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    key = header.index(unique) if unique else None
    first_row = {}
    out = []
    try:
        found = next(reader, None)
        if found != header:
            raise ValueError(f"unexpected header {found}")
        for fields in reader:
            row = reader.line_num
            if len(fields) != len(header):
                raise ValueError(f"malformed row {fields}")
            if unique and first_row.setdefault(fields[key], row) != row:
                raise ValueError(f"duplicate {unique} {fields[key]!r} "
                                 f"(first at row {first_row[fields[key]]})")
            out.append(parse(row, fields))
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{path}: row {max(reader.line_num, 1)}: {exc}") from None
    return out
