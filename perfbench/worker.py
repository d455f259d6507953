"""One benchmark pass in a fresh process; prints one JSON line.

    python3 perfbench/worker.py <workload> <seed> <outdir> <trace 0|1>

The parent puts its ``time.monotonic()`` reading from just before the spawn
in ``PERFBENCH_T0``; ``setup_s`` runs from there until the package is
imported and the CLI arguments are built.  ``wall_s`` and ``cpu_s`` cover
``cli.main`` alone, up to its return with outputs written; ``peak_rss_mib``
is read right after it, before the outputs are checked.  All three times are
raw; ``compute_cal_s`` is the mean of the calibration kernels' times right
before and right after ``cli.main``, which run.py uses to scale them.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import barrierchain.cli

import calibrate
import workloads


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> None:
    workload, seed, outdir, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4] == "1"
    argv = workloads.argv(workload, seed, outdir)
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_T0"])

    run = barrierchain.cli.main
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        run = spans.install(tracer)

    result = {"setup_s": setup_s}
    cal_before = calibrate.compute_s(workload)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = run(argv)
    except Exception:
        traceback.print_exc()
        status = None
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["compute_cal_s"] = (cal_before + calibrate.compute_s(workload)) / 2.0

    n_ops = workloads.operations(workload)
    if status != 0:
        problems = [["cli.main raised" if status is None else f"cli.main returned {status}"]] * n_ops
    else:
        try:
            problems = workloads.check(workload, seed, outdir, workloads.load_reference(workload, seed))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [[f"outputs unreadable: {type(exc).__name__}: {exc}"]] * n_ops
    result["attempted"] = n_ops
    result["failed"] = sum(1 for p in problems if p)
    result["problems"] = [msg for p in problems for msg in p][:20]
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        result["pairs"] = [[name, parent, *stats] for (name, parent), stats in sorted(tracer.pairs.items())]
    result["environment"] = _environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
