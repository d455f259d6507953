"""Package-level rules: what importing a module loads, the version the
output headers embed, and that modules share no private names."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "barrierchain"

SURFACE = """
import json, sys
import barrierchain.chain
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy" or m.startswith("barrierchain."))
print(json.dumps({"loaded": loaded, "version": barrierchain.__version__}))
"""


def test_chain_imports_alone_and_version_matches_pyproject():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SURFACE], env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out)
    # the package root loads no sibling module and no scipy
    assert result["loaded"] == ["barrierchain.chain"]
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert result["version"] == re.search(r'^version = "([^"]+)"', pyproject, re.M).group(1)


def _private_sibling_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "barrierchain":
            continue
        for alias in node.names:
            name = alias.name
            dunder = name.startswith("__") and name.endswith("__")
            if name.startswith("_") and not dunder and name != "_csvio":
                found.append(f"{path.name}:{node.lineno} imports {name} from {node.module or '.'}")
    return found


def test_modules_import_no_private_names_from_siblings():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_sibling_imports(path)]
    assert found == []


CLI_SURFACE = """
import json, runpy, sys
import barrierchain.cli
wrapped = runpy.run_path(sys.argv[1])["WRAPPED"]
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "concurrent": sorted(m for m in sys.modules if m.split(".")[0] == "concurrent"),
    "lazy": sorted(m for m in ("barrierchain.ebit", "barrierchain.effective") if m in sys.modules),
    "unwrapped": sorted({module for _, module, _ in wrapped} - set(sys.modules)),
}))
"""


def _package_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_out_scipy_special_ebit_and_effective():
    """Importing the CLI loads every module the benchmark tracer wraps
    (perfbench/spans.py reads them from sys.modules), but no scipy module
    at all, neither ebit nor effective, which their handlers import, and
    no concurrent.futures, which no module of the package imports."""
    spans = ROOT / "perfbench" / "spans.py"
    out = subprocess.run([sys.executable, "-c", CLI_SURFACE, str(spans)], env=_package_env(), check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == {"scipy": [], "concurrent": [], "lazy": [], "unwrapped": []}


# one small run of every subcommand; a smoothed protocol run covers the logistic
TINY_RUNS = (
    ["spectrum", "--n", "6", "--steps", "3"],
    ["ipr", "--n", "6", "--steps", "2"],
    ["transfer", "--n", "6", "--omega", "2", "--T", "5", "--points", "5"],
    ["maxfid", "--n-min", "6", "--n-max", "7", "--omega-steps", "2", "--T", "20"],
    ["scaling", "--n-list", "6,7", "--steps", "2"],
    ["disorder", "--n", "6", "--b-list", "0,1", "--n-samples", "3"],
    ["leakage", "--n-list", "8", "--steps", "2", "--n-samples", "3"],
    ["ebit", "--n", "8", "--omega-list", "5", "--points", "3"],
    ["protocol", "--n", "6", "--k1", "4", "--k2", "2", "--delta-t", "3", "--t1", "5",
     "--tau-s", "0.1", "--window", "2", "--sample-dt", "0.1"],
    ["effective", "--n-min", "6", "--n-max", "7", "--omega-list", "5"],
    ["oracle-check", "--n-min", "4", "--n-max", "5", "--pairs", "2"],
)

NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from barrierchain.cli import _SUBCOMMANDS, main
runs = json.loads(sys.argv[1])
assert sorted(argv[0] for argv in runs) == sorted(_SUBCOMMANDS), "a subcommand has no run"
for i, argv in enumerate(runs):
    status = main([*argv, "--out", f"{sys.argv[2]}/run{i}.csv"])
    assert status == 0, argv
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    """scipy is a test-only dependency: with every scipy import made to
    fail, each subcommand still runs, in one process."""
    subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(TINY_RUNS), str(tmp_path)],
                   env=_package_env(), check=True, capture_output=True, text=True)


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CONSOLE_SCRIPT = """
import json, os, sys
from barrierchain._script import main
numpy_loaded = "numpy" in sys.modules
status = main(["spectrum", "--n", "6", "--steps", "3", "--out", sys.argv[1]])
print(json.dumps({"numpy_loaded": numpy_loaded, "status": status,
                  "env": {name: os.environ.get(name) for name in json.loads(sys.argv[2])}}))
"""

IMPORTS_ONLY = """
import json, os, sys
import barrierchain, barrierchain.cli
print(json.dumps({name: os.environ.get(name) for name in json.loads(sys.argv[1])}))
"""


def test_console_script_pins_blas_threads_the_user_left_unset(tmp_path):
    """The console script sets each BLAS thread variable the user left
    unset to 1 before numpy loads, and keeps a value the user set;
    importing the package or its CLI sets none of them."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r'^barrierchain = "barrierchain\._script:main"$', pyproject, re.M)
    env = _package_env()
    for name in BLAS_THREAD_VARS:
        env.pop(name, None)
    names = json.dumps(BLAS_THREAD_VARS)
    out = subprocess.run([sys.executable, "-c", IMPORTS_ONLY, names], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == dict.fromkeys(BLAS_THREAD_VARS)
    env["OPENBLAS_NUM_THREADS"] = "3"
    out = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, str(tmp_path / "spectrum.csv"), names], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == {
        "numpy_loaded": False,
        "status": 0,
        "env": {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": "1"},
    }
