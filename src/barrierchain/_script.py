"""Entry point of the ``barrierchain`` console script.

A second BLAS thread buys the CLI's small matrices little wall time and
costs most of a core (README, "Pin BLAS to one thread"), so the script sets
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS to 1 wherever the
user has not set them.  BLAS reads them when numpy loads, so this module
imports only ``os`` and loads the CLI after setting them.  Importing
``barrierchain`` or ``barrierchain.cli`` sets nothing, and neither does
``python -m barrierchain.cli``.
"""

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main

    return cli_main(argv)
