"""Record reference.json: the default seed's outputs for every workload.

    python3 perfbench/record_reference.py

Run it on the commit whose outputs are the reference; the benchmark then
compares every default-seed pass against these numbers.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import barrierchain.cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    (HERE.parent / ".bench_build").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=HERE.parent / ".bench_build") as outdir:
            with contextlib.redirect_stdout(io.StringIO()):
                status = barrierchain.cli.main(workloads.argv(workload, workloads.DEFAULT_SEED, outdir))
            if status != 0:
                print(f"{workload}: cli.main returned {status}", file=sys.stderr)
                return 1
            outputs = workloads.read_outputs(workload, outdir)
            problems = [m for p in workloads.check(workload, workloads.DEFAULT_SEED, outdir, None) for m in p]
            if problems:
                print(f"{workload}: invariants fail: {problems[:5]}", file=sys.stderr)
                return 1
            reference[workload] = workloads.reference_view(workload, outputs)
        print(f"{workload}: recorded")
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
