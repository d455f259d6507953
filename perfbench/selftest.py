"""Self-test of the benchmark's deterministic counts.

    python3 perfbench/selftest.py

For each workload it makes two traced runs on the default seed and one on a
held-out seed, then asserts that:

* every count in ``spans.DETERMINISTIC`` is identical between the two
  default-seed runs (each run also compares its own traced passes);
* on the held-out seed those counts stay within HELD_OUT_REL of the
  default seed's, so a claim can be re-checked on a seed not used while
  writing it;
* every run reports ``correct: true``.

Exits 1 and names the offending counts if any assertion fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 101
HELD_OUT_REL = 0.05


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    failures = []
    for workload in workloads.WORKLOADS:
        first, second, held_out = (
            traced_run(workload, workloads.DEFAULT_SEED),
            traced_run(workload, workloads.DEFAULT_SEED),
            traced_run(workload, HELD_OUT_SEED),
        )
        for run, label in ((first, "first"), (second, "second"), (held_out, "held-out")):
            if not run["correct"]:
                failures.append(f"{workload}: {label} run not correct ({run['failed']} of {run['attempted']} failed)")
        for name in spans.DETERMINISTIC:
            a, b, c = (run["metrics"][name]["value"] for run in (first, second, held_out))
            print(f"{workload}: {name} = {a:g} / {b:g} (default seed), {c:g} (seed {HELD_OUT_SEED})")
            if a != b:
                failures.append(f"{workload}: {name} differs between runs: {a} vs {b}")
            if abs(c - a) > HELD_OUT_REL * abs(a):
                failures.append(f"{workload}: {name} on the held-out seed is {c}, default {a}")
    for msg in failures:
        print("FAIL", msg)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
