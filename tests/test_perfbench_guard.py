"""The benchmark tracer (perfbench/spans.py) wraps barrierchain functions by
module and attribute name, and its counter hooks read some of their
arguments by position or keyword.  A rename would only surface as an error
in a traced benchmark run, so check here that every such name resolves.
Likewise each workload (perfbench/workloads.py) is a CLI argument list, so
check that the CLI still accepts every one of them."""

import importlib
import inspect
import runpy
from pathlib import Path

import barrierchain.oracle
from barrierchain.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"

# (module, attribute, position, parameter) read by the tracer's counter hooks
HOOK_ARGUMENTS = (
    ("barrierchain.spectral", "transition_amplitude", 3, "t"),
    ("barrierchain.spectral", "evolve_many", 2, "times"),
    ("barrierchain.metrics", "max_fidelity", 1, "window"),
    ("barrierchain.disorder", "monte_carlo", 5, "n_samples"),
    ("barrierchain._csvio", "format_csv", 0, "columns"),
)


def _parameter(fn, position: int) -> str:
    return list(inspect.signature(fn).parameters)[position]


def test_traced_names_resolve():
    # run_path compiles the source without writing bytecode next to it
    wrapped = runpy.run_path(str(SPANS))["WRAPPED"]
    assert wrapped
    for _, module, attr in wrapped:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"
    assert isinstance(barrierchain.oracle.FullDecomposition, type)
    for module, attr, position, name in HOOK_ARGUMENTS:
        assert _parameter(getattr(importlib.import_module(module), attr), position) == name
    # args[0] of the wrapped __init__ is self
    assert _parameter(barrierchain.oracle.FullDecomposition.__init__, 1) == "spec"


def test_workload_arguments_parse(tmp_path):
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    parser = build_parser()
    for seed in (workloads["DEFAULT_SEED"], 1):
        for name in workloads["WORKLOADS"]:
            argv = workloads["argv"](name, seed, str(tmp_path))
            assert parser.parse_args(argv).experiment == argv[0]
