"""Text-file input and output.

Every input file is read, and every table, report, manifest and model file
written, through this module: UTF-8 both ways, with '\\n' newlines on
output.  A file whose bytes are not UTF-8 raises DataError naming it."""

import sys

import numpy as np

from .errors import DataError


def read_text(path) -> str:
    """The text of the UTF-8 file at path, with its newlines read as '\\n'."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def write_text(path, text: str) -> None:
    """Write text as UTF-8 with '\\n' newlines to path, or to stdout if None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def cell(value) -> str:
    """A table cell: '' for None, repr for a float (it reads back exactly), else str."""
    # most cells are floats: testing their exact type first keeps them cheap
    if type(value) is float:
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        # repr of a numpy scalar reads np.float64(...) under numpy 2
        return repr(float(value))
    return str(value)


def write_table(path, header, rows) -> None:
    """Write a TSV table, header line first, to path, or to stdout if None."""
    lines = ["\t".join(header)]
    lines.extend("\t".join(map(cell, row)) for row in rows)
    write_text(path, "\n".join(lines) + "\n")
