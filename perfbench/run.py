"""Benchmark runner for the barrierchain CLI.

    python3 perfbench/run.py --workload ensemble --seed 0 --seconds 30 --trace 0

Runs one workload (or ``all``) as repeated passes, each in a fresh
``worker.py`` process with BLAS pinned to one thread, until ``--seconds``
is used up (at least MIN_PASSES passes).  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end medians over passes, with times
scaled to the reference host speed (calibrate.py); with ``--trace 1`` they
are per-layer metrics from traced passes, plus the tracing overhead against
untraced passes in the same run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
MIN_PASSES = 3           # untraced passes per run
MIN_TRACED_PASSES = 2    # traced passes per run, so counts can be compared
PASS_TIMEOUT_S = 150.0
RUN_BUDGET_S = 170.0     # hard stop for starting further passes

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
RAW_TIMES = ("wall_s", "cpu_s", "setup_s")


def _env(outdir: str) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=outdir,
    )
    env.pop("BARRIERCHAIN_OUTDIR", None)
    return env


def _warm_up(env: dict) -> None:
    """Import the package once untimed, so bytecode caches exist before
    set-up time is measured."""
    proc = subprocess.run(
        [sys.executable, "-c", "import barrierchain.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("perfbench: cannot import barrierchain.cli from src/")


def _import_cal_s(env: dict) -> float:
    """Wall time of a fresh interpreter importing the third-party packages."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", calibrate.IMPORT_CODE], env=env, cwd=ROOT, check=True, timeout=120)
    return time.monotonic() - t0


def _scaled(workload: str, result: dict) -> dict:
    """End-to-end metrics of one pass, times in reference seconds."""
    compute = calibrate.reference_s(workload) / result["compute_cal_s"]
    return {
        "wall_s": result["wall_s"] * compute,
        "cpu_s": result["cpu_s"] * compute,
        "setup_s": result["setup_s"] * calibrate.IMPORT_REFERENCE_S / result["import_cal_s"],
        "peak_rss_mib": result["peak_rss_mib"],
    }


def _one_pass(workload: str, seed: int, trace: bool, env: dict, outdir: str) -> dict:
    passdir = tempfile.mkdtemp(dir=outdir)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), passdir, "1" if trace else "0"]
    try:
        import_cal_s = _import_cal_s(env)
        env["PERFBENCH_T0"] = repr(time.monotonic())
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            result = json.loads(lines[-1])
            if "wall_s" in result:
                result["import_cal_s"] = import_cal_s
                result["scaled"] = _scaled(workload, result)
            return result
        message = f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        message = f"worker timed out after {PASS_TIMEOUT_S} s"
    finally:
        shutil.rmtree(passdir, ignore_errors=True)
    n_ops = workloads.operations(workload)
    return {"attempted": n_ops, "failed": n_ops, "problems": [message]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _count_mismatches(traced: list[dict]) -> list[str]:
    """Deterministic counts that differ between traced passes."""
    import spans  # imports numpy, which untraced runs never need here

    first = traced[0]["per_layer"]
    return [
        f"{name}: {[p['per_layer'][name] for p in traced]}"
        for name in spans.DETERMINISTIC
        if any(p["per_layer"][name] != first[name] for p in traced[1:])
    ]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, outdir: str) -> dict:
    env = _env(outdir)
    _warm_up(env)
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []

    def more() -> bool:
        if not durations:
            return True
        elapsed = time.monotonic() - start
        if elapsed + max(durations) > RUN_BUDGET_S:
            return False
        if trace:
            if not plain or len(traced) < MIN_TRACED_PASSES:
                return True
        elif len(plain) < MIN_PASSES:
            return True
        return elapsed + statistics.median(durations) <= seconds

    while more():
        t0 = time.monotonic()
        # traced runs alternate plain and traced passes: plain, traced, traced, plain, ...
        traced_pass = trace and len(traced) < 2 * len(plain)
        (traced if traced_pass else plain).append(_one_pass(workload, seed, traced_pass, env, outdir))
        durations.append(time.monotonic() - t0)

    passes = plain + traced
    ok = [p for p in passes if "wall_s" in p]
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [msg for p in passes for msg in p.get("problems", [])][:20],
        "environment": ok[0]["environment"] if ok else None,
        "metrics": {},
        "spread": {},
    }
    if not trace:
        timed = [p for p in plain if "scaled" in p]
        if timed:
            for name, unit in END_TO_END:
                values = [p["scaled"][name] for p in timed]
                summary["metrics"][name] = {"value": statistics.median(values), "unit": unit}
                summary["spread"][name] = (_quartiles(values), values)
            for name in RAW_TIMES:
                summary["spread"]["raw_" + name] = (_quartiles([p[name] for p in timed]), [p[name] for p in timed])
        return summary

    good = [p for p in traced if "per_layer" in p]
    if good:
        mismatches = _count_mismatches(good) if len(good) > 1 else []
        if mismatches:
            summary["problems"] += ["deterministic counts differ between passes: " + m for m in mismatches]
            summary["failed"] = summary["attempted"]
        for name in good[0]["per_layer"]:
            unit = "s" if name.endswith("_s") else "ratio" if name.endswith(("_frac", "parallelism")) else "count"
            value = statistics.median(p["per_layer"][name] for p in good)
            summary["metrics"][name] = {"value": value, "unit": unit}
        plain_wall = [p["scaled"]["wall_s"] for p in plain if "scaled" in p]
        traced_wall = [p["scaled"]["wall_s"] for p in good]
        if plain_wall:
            summary["metrics"]["trace.overhead_ratio"] = {
                "value": statistics.median(traced_wall) / statistics.median(plain_wall), "unit": "ratio"}
        summary["pairs"] = good[0]["pairs"]
    return summary


def _report(summary: dict) -> None:
    """Human-readable lines, all prefixed with '#'."""
    w = summary["workload"]
    print(f"# {w}: seed={summary['seed']} trace={int(summary['trace'])} passes={summary['passes']}")
    if summary["environment"]:
        print(f"# {w}: environment {json.dumps(summary['environment'], sort_keys=True)}")
    for name, metric in summary["metrics"].items():
        print(f"# {w}: {name} = {metric['value']:.6g} {metric['unit']}")
    for name, ((q1, q2, q3), values) in summary["spread"].items():
        print(f"# {w}: {name}: median {q2:.6g} of n={len(values)}; q1 {q1:.6g}, q3 {q3:.6g};"
              f" passes {' '.join(f'{v:.6g}' for v in values)}")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"# {w}: failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for msg in summary["problems"]:
        print(f"# {w}: problem: {msg}")
    for name, parent, calls, total, own in summary.get("pairs", []):
        print(f"# {w}: span {name} <- {parent}: calls={calls} total_s={total:.6g} self_s={own:.6g}")


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0 (the CLI's generators reject negative seeds)")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=_seed, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "barrierchain" / "cli.py").is_file():
        print(f"perfbench: no barrierchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    outdir = tempfile.mkdtemp(dir=WORKDIR)
    try:
        summaries = [run_workload(w, args.seed, args.seconds, bool(args.trace), outdir) for w in names]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for summary in summaries:
        _report(summary)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
