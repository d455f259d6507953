"""Shared CSV emission with embedded metadata headers.

Every dataset file starts with '# key = value' comment lines (tool version
first, then the generating configuration), followed by a normal CSV header
row.  Floats are written with repr so re-runs are byte-identical.
"""

from __future__ import annotations

import io
from collections.abc import Mapping, Sequence

import numpy as np


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


def format_csv(columns: Mapping[str, Sequence], metadata: Mapping[str, object] | None = None) -> str:
    """Render named columns (equal length) plus metadata comments to CSV text."""
    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    if not arrays:
        raise ValueError("at least one column is required")
    length = arrays[0].shape[0]
    if any(a.shape[0] != length for a in arrays):
        raise ValueError("columns must share a length")
    buf = io.StringIO()
    for key, value in (metadata or {}).items():
        buf.write(f"# {key} = {_format_value(value)}\n")
    buf.write(",".join(names) + "\n")
    for row in zip(*(a.tolist() for a in arrays)):
        buf.write(",".join(_format_value(v) for v in row) + "\n")
    return buf.getvalue()


def write_csv(path, columns: Mapping[str, Sequence], metadata: Mapping[str, object] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_csv(columns, metadata))


def read_csv(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Inverse of write_csv; string columns come back as object arrays."""
    metadata: dict[str, str] = {}
    rows: list[list[str]] = []
    header: list[str] | None = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                metadata[key.strip()] = value.strip()
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path} has no header row")
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        values = [row[j] for row in rows]
        try:
            columns[name] = np.array([float(v) for v in values])
        except ValueError:
            columns[name] = np.array(values, dtype=object)
    return columns, metadata
