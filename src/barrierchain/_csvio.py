"""Shared CSV emission with embedded metadata headers.

Every dataset file starts with '# key = value' comment lines (tool version
first, then the generating configuration), followed by a normal CSV header
row.  Floats are written with repr so re-runs are byte-identical.

write_csv formats and writes the rows in chunks of _CHUNK_ROWS, so the text
it holds at a time depends on the chunk, not on the number of rows: together
with the chunked sampling of ``protocol``, a long run's memory is bounded end
to end.  format_csv joins the same pieces, so both give the same bytes.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

# Rows formatted per piece of write_csv's output
_CHUNK_ROWS = 1024


def _format_value(value) -> str:
    # np.float64 subclasses float, so the numpy checks must come first
    if isinstance(value, np.floating):
        return repr(float(value))
    if isinstance(value, np.integer):
        return repr(int(value))
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return str(value)


def _format_column(a: np.ndarray) -> list[str]:
    # tolist() gives Python floats, ints and bools (or lists of them), whose
    # repr is exactly what _format_value writes for them
    if a.dtype.kind in "fiub":
        return list(map(repr, a.tolist()))
    return [_format_value(v) for v in a.tolist()]


def _csv_pieces(columns: Mapping[str, Sequence], metadata: Mapping[str, object] | None):
    """Yield CSV text in pieces: the metadata and header lines, then the rows
    in chunks of _CHUNK_ROWS.  The columns are checked when the first piece
    is pulled."""
    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    if not arrays:
        raise ValueError("at least one column is required")
    length = arrays[0].shape[0]
    if any(a.shape[0] != length for a in arrays):
        raise ValueError("columns must share a length")
    head = "".join(f"# {key} = {_format_value(value)}\n" for key, value in (metadata or {}).items())
    yield head + ",".join(names) + "\n"
    for start in range(0, length, _CHUNK_ROWS):
        chunk = (_format_column(a[start:start + _CHUNK_ROWS]) for a in arrays)
        yield "".join([",".join(row) + "\n" for row in zip(*chunk)])


def format_csv(columns: Mapping[str, Sequence], metadata: Mapping[str, object] | None = None) -> str:
    """Render named columns (equal length) plus metadata comments to CSV text."""
    return "".join(_csv_pieces(columns, metadata))


def write_csv(path, columns: Mapping[str, Sequence], metadata: Mapping[str, object] | None = None) -> None:
    """Write format_csv's text to ``path`` one chunk of rows at a time.

    The columns are checked before the file is opened, so a rejected write
    leaves an existing file as it was.
    """
    pieces = _csv_pieces(columns, metadata)
    head = next(pieces)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        fh.writelines(pieces)

