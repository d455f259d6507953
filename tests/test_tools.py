import json
import runpy
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _output_deviation():
    return runpy.run_path(str(TOOLS / "output_deviation.py"), run_name="output_deviation")["main"]


def test_output_deviation_reports_each_file(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "run.csv").write_text(
        "# tool = barrierchain\n# omega = 10.0\nt,abs_f,role\n0.0,0.5,barrier\n1.0,0.25,end\n"
    )
    (b / "run.csv").write_text(
        "# tool = barrierchain\n# omega = 20.0\nt,abs_f,role\n0.0,0.5,barrier\n1.0,0.375,end\n2.0,0.1,end\n"
    )
    (a / "summary.json").write_text(json.dumps({"config": {"optimize": True, "seed": 1}, "pass": 0.5, "x": [1.0, 2]}))
    (b / "summary.json").write_text(json.dumps({"config": {"optimize": False, "seed": 1}, "pass": 0.75, "x": [1.0, 2]}))
    (a / "only.csv").write_text("t\n0.0\n")
    assert _output_deviation()([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"only.csv: only in {a}",
        # the changed metadata line is the one non-numeric row; the extra
        # row is counted, not compared
        "run.csv: rows 2 / 3  t 0  abs_f 0.12  non-numeric rows differing 1",
        # the flipped bool is a non-numeric leaf
        "summary.json: leaves 5  config.seed 0  pass 0.25  x[0] 0  x[1] 0  non-numeric rows differing 1",
    ]


def test_output_deviation_usage_errors(tmp_path, capsys):
    main = _output_deviation()
    assert main([str(tmp_path)]) == 2
    assert "OUT_A OUT_B" in capsys.readouterr().err
    assert main([str(tmp_path), str(tmp_path / "missing")]) == 2
    assert "is not a directory" in capsys.readouterr().err
