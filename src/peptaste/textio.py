"""Text-file input and output.

Every input file is read, and every table, report, manifest and model file
written, through this module: UTF-8 both ways, with '\\n' newlines on
output.  A file whose bytes are not UTF-8 raises DataError naming it."""

import contextlib
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


@contextlib.contextmanager
def _output(path):
    """The UTF-8 text file at path, opened with '\\n' newlines, or stdout if None."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


def write_text(path, text: str) -> None:
    """Write text as UTF-8 with '\\n' newlines to path, or to stdout if None."""
    with _output(path) as fh:
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


# rows formatted and written at a time: a block's text, not the table's,
# is what write_matrix holds in memory
_BLOCK_ROWS = 16


def write_matrix(path, header, labels, matrix) -> None:
    """Write a TSV table whose rows are each label followed by that row of
    the float matrix, to path, or to stdout if None.  The bytes equal
    write_table's for the same rows: cell formats each distinct value of a
    block of rows once, distinct meaning distinct bits, so -0.0 keeps its
    own text."""
    values = np.ascontiguousarray(matrix, dtype=np.float64)
    with _output(path) as fh:
        fh.write("\t".join(header) + "\n")
        for start in range(0, len(values), _BLOCK_ROWS):
            block = values[start : start + _BLOCK_ROWS]
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            texts = np.array([cell(v) for v in bits.view(np.float64).tolist()], dtype=object)
            rows = np.empty((len(block), block.shape[1] + 1), dtype=object)
            rows[:, 0] = labels[start : start + _BLOCK_ROWS]
            rows[:, 1:] = texts[inverse.reshape(block.shape)]
            fh.write("\n".join(map("\t".join, rows.tolist())) + "\n")
