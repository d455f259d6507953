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
