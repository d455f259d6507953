import io
import tracemalloc

import numpy as np
import pytest

from barrierchain import _csvio
from barrierchain._csvio import _format_value, format_csv, write_csv


def _row_loop_csv(columns, metadata=None):
    """The row-by-row writer format_csv replaced, kept as the reference."""
    names = list(columns)
    arrays = [np.asarray(columns[name]) for name in names]
    buf = io.StringIO()
    for key, value in (metadata or {}).items():
        buf.write(f"# {key} = {_format_value(value)}\n")
    buf.write(",".join(names) + "\n")
    for row in zip(*(a.tolist() for a in arrays)):
        buf.write(",".join(_format_value(v) for v in row) + "\n")
    return buf.getvalue()


def _mixed_columns():
    """Seven rows of every column kind the CLI writes, and some it does not."""
    rng = np.random.default_rng(3)
    floats = rng.normal(scale=1e3, size=7) ** 3
    floats[:4] = [-0.0, np.nan, np.inf, 0.1 + 0.2]
    return {
        "f64": floats,
        "f32": floats.astype(np.float32),
        "int": np.array([0, -1, 2**62, 7, -(2**40), 3, 5]),
        "uint": np.arange(7, dtype=np.uint8),
        "bool": np.array([True, False] * 3 + [True]),
        "str": ["a", "bc", "x y", "", "1.5", "nan", "-"],
        "list": [[0.5, 1.0]] * 3 + [[1, 2]] * 2 + [[np.float64(2.0), 3]] * 2,
        "int_list": [[1, -2], [3, 4], [5, 6]] * 2 + [[7, 8]],
        "bool_list": [[True], [False]] * 3 + [[True]],
        "object": np.array([1, 2.5, "s", None, True, np.int64(4), [1.0]], dtype=object),
        "scalars": [np.float64(1.25), np.float64(-0.0), 3.0, 1e-300, 2.0, 4.5, 6.0],
    }


_METADATA = {"n": 8, "omega": np.float64(0.1), "n_list": [22, 23], "label": "x"}


def test_column_formatting_matches_the_row_loop():
    columns = _mixed_columns()
    assert format_csv(columns, _METADATA) == _row_loop_csv(columns, _METADATA)
    for name, column in columns.items():
        assert format_csv({name: column}) == _row_loop_csv({name: column})
        assert format_csv({name: column[:0]}) == _row_loop_csv({name: column[:0]})


@pytest.mark.parametrize("chunks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_written_file_is_format_csv_at_chunk_edges(tmp_path, chunks, extra):
    n = chunks * _csvio._CHUNK_ROWS + extra
    cycle = np.arange(n) % 7
    columns = {name: np.asarray(column)[cycle] for name, column in _mixed_columns().items()}
    path = tmp_path / "out.csv"
    write_csv(path, columns, _METADATA)
    text = format_csv(columns, _METADATA)
    assert path.read_bytes() == text.encode("utf-8")
    # lists of lines, since pytest's report on two long unequal strings is slow
    lines = text.splitlines(keepends=True)
    assert lines == _row_loop_csv(columns, _METADATA).splitlines(keepends=True)
    assert len(lines) == len(_METADATA) + 1 + n


@pytest.mark.parametrize("columns", [{}, {"a": [1.0, 2.0], "b": [3.0]}])
def test_rejected_write_keeps_an_existing_file(tmp_path, columns):
    path = tmp_path / "out.csv"
    path.write_bytes(b"# kept\na\n1.0\n")
    with pytest.raises(ValueError):
        write_csv(path, columns, _METADATA)
    assert path.read_bytes() == b"# kept\na\n1.0\n"


def test_write_memory_does_not_grow_with_the_row_count(tmp_path):
    rng = np.random.default_rng(5)
    columns = {f"c{j}": rng.normal(size=20_000) for j in range(5)}
    # about 100 B per value of one chunk are traced (the float from tolist,
    # its repr and the row texts); the bound depends on the chunk alone
    bound = 200 * _csvio._CHUNK_ROWS * len(columns)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "out.csv", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    # format_csv returns all of the text at once, so its peak is at least
    # the text's length; tracing it too would double the test's time
    assert len(format_csv(columns)) > bound
