"""Run every shipped config through the CLI and print a hash of each output.

Usage: python tools/config_outputs.py OUTDIR

Runs each ``configs/*.cfg``, plus the protocol config with smoothed switching
(``--tau-s 0.5``), in a fresh process with BLAS pinned to one thread, writes
the outputs under OUTDIR (new or empty) and prints ``sha256  name`` for every file written,
sorted by name.  Two checkouts produce byte-identical outputs when this
script prints the same lines on both, so compare them with ``diff``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def runs(outdir: Path) -> list[list[str]]:
    """One argv per CLI run; every run writes its files under outdir."""
    argvs = []
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        argvs.append([cfg.stem, "--config", str(cfg)])
    argvs.append([
        "protocol", "--config", str(ROOT / "configs" / "protocol.cfg"),
        "--tau-s", "0.5", "--out", str(outdir / "protocol_tau0.5.csv"),
    ])
    return argvs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/config_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 2
    env = dict(os.environ, BARRIERCHAIN_OUTDIR=str(outdir), PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    for args in runs(outdir):
        subprocess.run([sys.executable, "-m", "barrierchain.cli", *args], env=env, check=True,
                       stdout=subprocess.DEVNULL)
    for path in sorted(outdir.iterdir()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
