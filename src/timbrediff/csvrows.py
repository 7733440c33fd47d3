"""The one reader and the one write path behind every file the package keeps."""

import csv
import io
import json
import os
from contextlib import contextmanager

import numpy as np


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


def read_rows(path, header, parse, error=ValueError, unique=None) -> list:
    """[parse(row number, fields) for each row after the header], in order.

    Rows are numbered from the header, row 1, which must equal `header`.
    Every row needs one field per header column and, with `unique` (a
    column name), a value in that column no earlier row has.  Bytes that
    are not UTF-8, csv format errors and a ValueError from `parse` raise
    `error` naming the file and the row.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # csv.reader ends a line at \r\n, \n or a lone \r.
        row = raw[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise error(f"{path}: row {row}: {exc}") from None
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
        raise error(f"{path}: row {max(reader.line_num, 1)}: {exc}") from None
    return out


def read_columns(path, header, unique=None):
    """The fields read_rows would give `parse`, one list per column, or None.

    The bulk path: the file is split with str methods and checked a column
    at a time.  It takes only text that csv.reader splits at every `,` and
    line end, that is with no `"`, no NUL, no CR outside a CRLF and no line
    longer than csv.field_size_limit(), and only a file that passes
    read_rows' checks: UTF-8, the header, every row the header's width and
    no repeat in the `unique` column.  (A blank line, a row of no fields,
    fails the width check, as `header` has two or more columns.)  Any other
    file gives None; read it with read_rows, which handles quoting and
    names the row at fault.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if b'"' in raw or b"\0" in raw:
        return None
    # csv.reader ends a line at \r\n, \n or a lone \r; the last takes read_rows.
    data = np.frombuffer(raw, np.uint8)
    cr = np.flatnonzero(data == ord("\r"))
    if cr.size and (cr[-1] + 1 == data.size or (data[cr + 1] != ord("\n")).any()):
        return None
    del data
    raw = raw.replace(b"\r", b"")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    # Each line must end at its width-th separator, and no line be too long.
    data = np.frombuffer(raw, np.uint8)
    seps = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    ends = seps[data[seps] == ord("\n")]
    width = len(header)
    del data
    if (seps.size != ends.size * width or not np.array_equal(seps[width - 1::width], ends)
            or np.diff(ends, prepend=-1).max() - 1 > csv.field_size_limit()):
        return None
    del seps, ends
    try:
        fields = raw.decode("utf-8").replace("\n", ",").split(",")
    except UnicodeDecodeError:
        return None
    del raw
    fields.pop()                # after the last line end
    if fields[:width] != list(header):
        return None
    columns = [fields[width + j::width] for j in range(width)]
    del fields
    if unique and len(set(columns[header.index(unique)])) != len(columns[0]):
        return None
    return columns
