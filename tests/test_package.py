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
import numpy as np
import barrierchain.cli
wrapped = runpy.run_path(sys.argv[1])["WRAPPED"]
before = {
    "special": "scipy.special" in sys.modules,
    "lazy": sorted(m for m in ("barrierchain.ebit", "barrierchain.effective") if m in sys.modules),
    "unwrapped": sorted({module for _, module, _ in wrapped} - set(sys.modules)),
}
from barrierchain.protocol import SwitchingSchedule, field_at
schedule = SwitchingSchedule(k1=60.0, k2=30.0, delta_t=40.0, t1=50.0, smoothing_timescale=0.5)
t = np.linspace(40.0, 100.0, 2001)
omega2, omega_nm1 = field_at(schedule, t)
before["special_after_field_at"] = "scipy.special" in sys.modules
from scipy.special import expit
alpha, t1, t2 = 2.0, 50.0, 90.0
same = (
    np.array_equal(omega2, 30.0 * expit(-alpha * (t - t2)) + 30.0 * expit(-alpha * (t - t1)))
    and np.array_equal(omega_nm1, 30.0 * expit(alpha * (t - t1)) + 30.0 * expit(alpha * (t - t2)))
)
print(json.dumps({**before, "bitwise": bool(same)}))
"""


def test_cli_import_leaves_out_scipy_special_ebit_and_effective():
    """Importing the CLI loads every module the benchmark tracer wraps
    (perfbench/spans.py reads them from sys.modules), but neither
    scipy.special, which only smoothed field_at calls need, nor ebit and
    effective, which their handlers import.  A smoothed field_at call then
    gives scipy.special.expit's values bit for bit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    spans = ROOT / "perfbench" / "spans.py"
    out = subprocess.run([sys.executable, "-c", CLI_SURFACE, str(spans)], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == {
        "special": False, "lazy": [], "unwrapped": [], "special_after_field_at": True, "bitwise": True,
    }
