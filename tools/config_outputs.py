"""Run every shipped config through the CLI and print a hash of each output.

Usage: python tools/config_outputs.py [--blas-threads K] OUTDIR

Runs each ``configs/*.cfg``, plus the protocol config with smoothed switching
at ``--tau-s 0.5`` and at ``--tau-s 0.05`` (step halving stops after three
passes at the first and after two at the second) and at ``--tau-s 0.5
--window 10`` (the run ends inside the release switching window, so its
final state is a checkpoint state, not a spectral hop).  Each run gets a
fresh process with BLAS pinned to K threads (default 1); compare the output
at K = 1 with that at K = 2 to check that no output depends on the BLAS
thread count.  The script writes the
outputs under OUTDIR (new or empty) and prints ``sha256  name`` for every
file written, sorted by name.  Two checkouts produce byte-identical outputs
when this script prints the same lines on both, so compare them with
``diff``.  Each run's wall time, from
process start to exit, and its peak resident memory (the child's own
ru_maxrss, read by wait4) go to stderr, so stdout stays comparable.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def runs(outdir: Path) -> list[list[str]]:
    """One argv per CLI run; every run writes its files under outdir."""
    argvs = []
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        argvs.append([cfg.stem, "--config", str(cfg)])
    smoothed = {
        "tau0.5": ["--tau-s", "0.5"],
        "tau0.05": ["--tau-s", "0.05"],
        "tau0.5_window10": ["--tau-s", "0.5", "--window", "10"],
    }
    for tag, extra in smoothed.items():
        argvs.append([
            "protocol", "--config", str(ROOT / "configs" / "protocol.cfg"),
            *extra, "--out", str(outdir / f"protocol_{tag}.csv"),
        ])
    return argvs


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tools/config_outputs.py")
    parser.add_argument("--blas-threads", type=int, default=1, metavar="K", help="BLAS threads per run (default 1)")
    parser.add_argument("outdir", help="new or empty directory for the outputs")
    args = parser.parse_args(argv)
    if args.blas_threads < 1:
        parser.error(f"--blas-threads must be >= 1, got {args.blas_threads}")
    outdir = Path(args.outdir).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 2
    env = dict(os.environ, BARRIERCHAIN_OUTDIR=str(outdir), PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(args.blas_threads) for var in BLAS_THREAD_VARS})
    for args in runs(outdir):
        start = time.perf_counter()
        argv = [sys.executable, "-m", "barrierchain.cli", *args]
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        # wait4 reports this child's own peak; RUSAGE_CHILDREN would give the
        # largest peak of every child so far
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, argv)
        label = " ".join(Path(arg).name if os.sep in arg else arg for arg in args)
        print(f"{wall:7.2f} s  {usage.ru_maxrss / 1024:6.1f} MiB  {label}", file=sys.stderr)
    for path in sorted(outdir.iterdir()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
