"""Largest deviation between two sets of CLI outputs, one line per file.

Usage: python tools/output_deviation.py OUT_A OUT_B

OUT_A and OUT_B are output directories written by ``tools/config_outputs.py``
(say, one per checkout).  For every file name in either directory, sorted,
the script prints the largest absolute difference of each numeric CSV
column or JSON leaf, and how many rows hold a non-numeric field that
differs.  A CSV's '# key = value' metadata lines count as rows of their
own, compared as text.  A CSV column is numeric when every value of it
parses as a float in both files; a JSON leaf when it is a number (not a
bool) in both.  NaN against NaN reads 0, and NaN against a number inf.
Rows beyond the shorter file's end are reported as a row count, not
compared.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _diff(x: float, y: float) -> float:
    """|x - y|, 0 for equal values (NaN and NaN included), inf for NaN and a number."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    diff = abs(x - y)
    return math.inf if math.isnan(diff) else diff


def _compare_csv(path_a: Path, path_b: Path) -> tuple[str, dict, int]:
    def split(path):
        lines = path.read_text().splitlines()
        meta = [line for line in lines if line.startswith("#")]
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        return meta, rows[0], rows[1:]

    meta_a, head, rows_a = split(path_a)
    meta_b, head_b, rows_b = split(path_b)
    if head != head_b:
        return f"headers differ: {','.join(head)} / {','.join(head_b)}", {}, 0
    numeric = [all(_float(row[i]) is not None for row in rows_a + rows_b) for i in range(len(head))]
    largest = {name: 0.0 for name, is_numeric in zip(head, numeric) if is_numeric}
    text_rows = sum(x != y for x, y in zip(meta_a, meta_b)) + abs(len(meta_a) - len(meta_b))
    for row_a, row_b in zip(rows_a, rows_b):
        differs = False
        for name, is_numeric, x, y in zip(head, numeric, row_a, row_b):
            if is_numeric:
                largest[name] = max(largest[name], _diff(float(x), float(y)))
            elif x != y:
                differs = True
        text_rows += differs
    rows = f"rows {len(rows_a)}" if len(rows_a) == len(rows_b) else f"rows {len(rows_a)} / {len(rows_b)}"
    return rows, largest, text_rows


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _compare_json(path_a: Path, path_b: Path) -> tuple[str, dict, int]:
    leaves_a = dict(_leaves(json.loads(path_a.read_text())))
    leaves_b = dict(_leaves(json.loads(path_b.read_text())))
    largest = {}
    text_rows = 0
    for key in sorted(leaves_a.keys() | leaves_b.keys()):
        x, y = leaves_a.get(key), leaves_b.get(key)
        if _is_number(x) and _is_number(y):
            largest[key] = _diff(float(x), float(y))
        elif x != y or (key in leaves_a) != (key in leaves_b):
            text_rows += 1
    return f"leaves {len(leaves_a)}", largest, text_rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(arg) for arg in argv)
    for path in (dir_a, dir_b):
        if not path.is_dir():
            print(f"{path} is not a directory", file=sys.stderr)
            return 2
    names = sorted({p.name for p in dir_a.iterdir()} | {p.name for p in dir_b.iterdir()})
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        if not (path_a.is_file() and path_b.is_file()):
            print(f"{name}: only in {dir_a if path_a.is_file() else dir_b}")
            continue
        compare = _compare_json if name.endswith(".json") else _compare_csv
        size, largest, text_rows = compare(path_a, path_b)
        columns = "  ".join(f"{key} {value:.2g}" for key, value in largest.items())
        print(f"{name}: {size}  {columns}  non-numeric rows differing {text_rows}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
