import io

import numpy as np

from barrierchain._csvio import _format_value, format_csv


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


def test_column_formatting_matches_the_row_loop():
    rng = np.random.default_rng(3)
    floats = rng.normal(scale=1e3, size=7) ** 3
    floats[:4] = [-0.0, np.nan, np.inf, 0.1 + 0.2]
    columns = {
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
    metadata = {"n": 8, "omega": np.float64(0.1), "n_list": [22, 23], "label": "x"}
    assert format_csv(columns, metadata) == _row_loop_csv(columns, metadata)
    for name, column in columns.items():
        assert format_csv({name: column}) == _row_loop_csv({name: column})
        assert format_csv({name: column[:0]}) == _row_loop_csv({name: column[:0]})
