"""The one CSV reader behind every table the package reads back."""

import csv
import io


def read_rows(path, header, parse, error=ValueError, unique=False) -> list:
    """[parse(row number, fields) for each row after the header], in order.

    Rows are numbered from the header, row 1, which must equal `header`.
    Every row needs one field per header column and, with `unique`, a
    first field no earlier row has.  Bytes that are not UTF-8, csv format
    errors and a ValueError from `parse` raise `error` naming the file
    and the row.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: row {row}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
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
            if unique and first_row.setdefault(fields[0], row) != row:
                raise ValueError(f"duplicate {header[0]} {fields[0]!r} "
                                 f"(first at row {first_row[fields[0]]})")
            out.append(parse(row, fields))
    except (csv.Error, ValueError) as exc:
        raise error(f"{path}: row {max(reader.line_num, 1)}: {exc}") from None
    return out
