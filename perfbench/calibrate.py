"""Host-speed calibration: fixed kernels that share no code with barrierchain.

The benchmark's host runs the same code at speeds that differ by up to 1.5x
over phases of seconds to minutes (shared cores, other tenants).  Raw times
follow that drift, so the end-to-end times are reported in *reference
seconds*: the measured time scaled by how much faster or slower the host ran
a fixed kernel at the same moment than on the reference host.

* ``compute_s(workload)`` times fixed compute kernels: by default a mix of
  the workloads' hot operations (a complex phase scan, small tridiagonal
  eigensolves with scalar Python work and float formatting, dense symmetric
  eigensolves).  ``oracle`` spends nearly all its time in dense LAPACK
  eigensolves, which the host's slow phases slow less than the mix, so it
  is calibrated with the dense eigensolves alone.  The worker runs the
  kernels right before and right after ``cli.main``; the pass's times are
  scaled by ``reference_s(workload)`` over the mean of the two readings.
* ``IMPORT_CODE`` is what a fresh interpreter runs to import barrierchain's
  third-party dependencies.  The runner times one such process right before
  each worker spawn and scales ``setup_s`` by ``IMPORT_REFERENCE_S`` over it.

The kernels depend only on numpy and scipy, so a change to barrierchain
moves the scaled times exactly as it moves the raw ones.  The reference
constants are medians measured on a 2-core Xeon VM (Python 3.11, numpy 2.4,
scipy 1.17, OpenBLAS on one thread); they only set the scale of the reported
numbers.  Raw times are reported next to the scaled ones on ``#`` lines.
"""

from __future__ import annotations

import math
import time

# median seconds of one run of each kernel on the reference host
KERNEL_REFERENCE_S = {"scan": 0.078, "steps": 0.060, "eigensolves": 0.043}
WORKLOAD_KERNELS = {"oracle": ("eigensolves",) * 4}
DEFAULT_KERNELS = ("scan", "steps", "eigensolves")
IMPORT_REFERENCE_S = 0.33
IMPORT_CODE = "import numpy, scipy.linalg, scipy.special"


def _kernels():
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    rng = np.random.default_rng(12345)
    energies = np.sort(rng.normal(size=60)) * 2.0
    weights = rng.random(60)
    times = np.arange(0.0, 750.0, 0.25)
    diagonal = rng.normal(size=30)
    off = -np.ones(29)
    psi0 = rng.normal(size=30) + 0j
    dense = rng.normal(size=(256, 256))
    dense = dense + dense.T

    def scan():
        for _ in range(8):
            amplitude = np.exp(-1j * np.multiply.outer(times, energies)) @ weights
            int(np.argmax(np.abs(amplitude) ** 2))

    def steps():
        psi = psi0
        rows = []
        for k in range(700):
            x = 1.0 / (1.0 + math.exp(-(k * 0.01 - 1.5)))
            w, v = eigh_tridiagonal(diagonal * x, off)
            psi = v @ (np.exp(-0.05j * w) * (v.T @ psi))
            rows.append(f"{x:.17g},{abs(psi[0]):.17g}")
        "\n".join(rows)

    def eigensolves():
        for _ in range(7):
            np.linalg.eigh(dense)

    return {"scan": scan, "steps": steps, "eigensolves": eigensolves}


def _names(workload: str) -> tuple[str, ...]:
    return WORKLOAD_KERNELS.get(workload, DEFAULT_KERNELS)


def reference_s(workload: str) -> float:
    """Time of ``compute_s(workload)`` on the reference host."""
    return sum(KERNEL_REFERENCE_S[name] for name in _names(workload))


def compute_s(workload: str) -> float:
    """Wall time of one run of the workload's calibration kernels, in seconds."""
    kernels = _kernels()
    start = time.perf_counter()
    for name in _names(workload):
        kernels[name]()
    return time.perf_counter() - start
