"""Outside-in tracer: wraps barrierchain's public functions without editing them.

Every wrapped function opens a span on entry and closes it on exit.  A
wrapper is rebound in every ``barrierchain`` module namespace that holds the
original object (``disorder.eigendecompose``, ``metrics.transition_amplitude``,
``protocol.evolve_many`` ...), so calls made through imported names are seen
too.  ``scipy.linalg.eigh_tridiagonal`` is patched both in ``spectral`` and on
``scipy.linalg`` itself (``protocol._cf4_step`` imports it at call time); its
calls are attributed to the calling module.

Span stacks are thread-local.  A span opened on a worker thread with an empty
stack is parented to the active ``disorder.monte_carlo`` span.  Spans are
aggregated per (function, parent) as they close, so no raw span list grows.
Self time is the span's duration minus the time its child spans cover:
same-thread children are nested and are summed; children on worker threads
may overlap, so the union of their intervals is subtracted.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute); the span name's prefix is the layer.
WRAPPED = (
    ("chain.build_hamiltonian", "barrierchain.chain", "build_hamiltonian"),
    ("spectral.eigendecompose", "barrierchain.spectral", "eigendecompose"),
    ("spectral.transition_amplitude", "barrierchain.spectral", "transition_amplitude"),
    ("spectral.evolve", "barrierchain.spectral", "evolve"),
    ("spectral.evolve_many", "barrierchain.spectral", "evolve_many"),
    ("metrics.max_fidelity", "barrierchain.metrics", "max_fidelity"),
    ("metrics.localization_report", "barrierchain.metrics", "localization_report"),
    ("metrics.average_fidelity", "barrierchain.metrics", "average_fidelity"),
    ("disorder.monte_carlo", "barrierchain.disorder", "monte_carlo"),
    ("disorder.sample_profile", "barrierchain.disorder", "sample_profile"),
    ("protocol.simulate_protocol", "barrierchain.protocol", "simulate_protocol"),
    ("protocol.optimize_interval", "barrierchain.protocol", "optimize_interval"),
    ("protocol.field_at", "barrierchain.protocol", "field_at"),
    ("oracle.oracle_transition_amplitude", "barrierchain.oracle", "oracle_transition_amplitude"),
    ("oracle.full_hamiltonian", "barrierchain.oracle", "full_hamiltonian"),
    ("csvio.format_csv", "barrierchain._csvio", "format_csv"),
)
FULL_DECOMPOSITION = "oracle.FullDecomposition"
EIGH_TRIDIAGONAL = ("spectral.eigh_tridiagonal", "protocol.eigh_tridiagonal")
CLI_MAIN = "cli.main"
FANOUT = "disorder.monte_carlo"

SPAN_NAMES = tuple(name for name, _, _ in WRAPPED) + (FULL_DECOMPOSITION, *EIGH_TRIDIAGONAL, CLI_MAIN)

# Counts that depend only on the inputs; they must repeat exactly between
# passes of one workload and seed.
DETERMINISTIC = (
    "spectral.transition_amplitude.phase_evals",
    "spectral.evolve_many.phase_evals",
    "spectral.eigh_tridiagonal.calls",
    "protocol.eigh_tridiagonal.calls",
    "oracle.FullDecomposition.dim_sum",
    "csvio.format_csv.rows",
    "disorder.monte_carlo.samples",
)


class _Span:
    __slots__ = ("name", "parent", "cross", "start", "nested", "intervals", "busy", "scan_step", "outer")

    def __init__(self, name: str, parent: "_Span | None", cross: bool):
        self.name = name
        self.parent = parent
        self.cross = cross          # parent lives on another thread
        self.nested = 0.0           # same-thread child time
        self.intervals: list[tuple[float, float]] = []  # cross-thread children
        self.busy = 0.0             # all child time, for the parallelism ratio
        self.scan_step: float | None = None  # grid step of a peak search's scan
        self.outer: _Span | None = None  # enclosing fan-out span
        self.start = time.perf_counter()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fanout: _Span | None = None
        # (name, parent name) -> [calls, total seconds, self seconds]
        self.pairs: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Span:
        stack = self._stack()
        if stack:
            span = _Span(name, stack[-1], cross=False)
        else:
            worker = threading.current_thread() is not threading.main_thread()
            parent = self._fanout if worker else None
            span = _Span(name, parent, cross=parent is not None)
        stack.append(span)
        if name == FANOUT:
            span.outer, self._fanout = self._fanout, span
        return span

    def leave(self, span: _Span) -> None:
        end = time.perf_counter()
        self._stack().pop()
        if span.name == FANOUT:
            self._fanout = span.outer
        duration = end - span.start
        with self._lock:
            self_time = duration - span.nested - _union_length(span.intervals)
            parent = span.parent
            stats = self.pairs[(span.name, parent.name if parent else "-")]
            stats[0] += 1
            stats[1] += duration
            stats[2] += self_time
            if span.name == FANOUT:
                self.counters["disorder.monte_carlo.busy"] += span.busy
                self.counters["disorder.monte_carlo.wall"] += duration
            if parent is not None:
                parent.busy += duration
                if span.cross:
                    parent.intervals.append((span.start, end))
                else:
                    parent.nested += duration

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, name: str, fn, after=None):
        """Span-recording wrapper; ``after(span, args, kwargs, result)`` runs
        once the span is closed, to update counters."""
        def wrapper(*args, **kwargs):
            span = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- per-function summaries -------------------------------------------

    def totals(self) -> dict[str, list[float]]:
        """name -> [calls, total, self] summed over parents."""
        out: dict[str, list[float]] = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for (name, _), (calls, total, own) in self.pairs.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        totals = self.totals()
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            calls, _, own = totals[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = own
        c = self.counters
        peaks = totals["metrics.max_fidelity"][0]
        out["spectral.transition_amplitude.phase_evals"] = c["spectral.transition_amplitude.phase_evals"]
        out["spectral.evolve_many.phase_evals"] = c["spectral.evolve_many.phase_evals"]
        out["metrics.max_fidelity.scan_points"] = c["metrics.max_fidelity.scan_points"]
        out["metrics.max_fidelity.refine_evals"] = c["metrics.max_fidelity.refine_evals"] / peaks if peaks else 0.0
        out["metrics.max_fidelity.edge_frac"] = c["metrics.max_fidelity.edge"] / peaks if peaks else 0.0
        out["disorder.monte_carlo.samples"] = c["disorder.monte_carlo.samples"]
        wall = c["disorder.monte_carlo.wall"]
        out["disorder.monte_carlo.parallelism"] = c["disorder.monte_carlo.busy"] / wall if wall else 0.0
        out["oracle.FullDecomposition.dim_sum"] = c["oracle.FullDecomposition.dim_sum"]
        out["csvio.format_csv.rows"] = c["csvio.format_csv.rows"]
        out["csvio.format_csv.bytes"] = c["csvio.format_csv.bytes"]
        return out


# ---------------------------------------------------------------------------
# counter hooks, run after the wrapped call returns


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _install_hooks(tracer: Tracer) -> dict:
    def transition_amplitude(span, args, kwargs, result):
        decomp = _arg(args, kwargs, 0, "decomp")
        t = np.asarray(_arg(args, kwargs, 3, "t"))
        tracer.count("spectral.transition_amplitude.phase_evals", t.size * decomp.n_sites)
        parent = span.parent
        if parent is not None and parent.name == "metrics.max_fidelity":
            if t.ndim == 0:
                tracer.count("metrics.max_fidelity.refine_evals")
            else:
                tracer.count("metrics.max_fidelity.scan_points", t.size)
                if parent.scan_step is None and t.size > 1:
                    parent.scan_step = float(t[1] - t[0])

    def evolve_many(span, args, kwargs, result):
        decomp = _arg(args, kwargs, 0, "decomp")
        times = np.asarray(_arg(args, kwargs, 2, "times"))
        tracer.count("spectral.evolve_many.phase_evals", times.size * decomp.n_sites)

    def max_fidelity(span, args, kwargs, result):
        window = _arg(args, kwargs, 1, "window")
        hi = float(window) if np.isscalar(window) else float(window[1])
        if span.scan_step is not None and hi - result[0] <= span.scan_step:
            tracer.count("metrics.max_fidelity.edge")

    def monte_carlo(span, args, kwargs, result):
        tracer.count("disorder.monte_carlo.samples", _arg(args, kwargs, 5, "n_samples"))

    def full_decomposition(span, args, kwargs, result):
        spec = _arg(args, kwargs, 1, "spec")  # args[0] is self
        tracer.count("oracle.FullDecomposition.dim_sum", 2**spec.n_sites)

    def format_csv(span, args, kwargs, result):
        columns = _arg(args, kwargs, 0, "columns")
        first = next(iter(columns.values()))
        tracer.count("csvio.format_csv.rows", len(first))
        tracer.count("csvio.format_csv.bytes", len(result.encode("utf-8")))

    return {
        "spectral.transition_amplitude": transition_amplitude,
        "spectral.evolve_many": evolve_many,
        "metrics.max_fidelity": max_fidelity,
        "disorder.monte_carlo": monte_carlo,
        "csvio.format_csv": format_csv,
        FULL_DECOMPOSITION: full_decomposition,
    }


def _rebind(original, replacement) -> None:
    """Replace ``original`` in every barrierchain module namespace."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "barrierchain" and not mod_name.startswith("barrierchain."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap every traced function; returns the traced ``cli.main``.

    Call after ``import barrierchain.cli`` so every module is loaded.
    """
    import scipy.linalg

    import barrierchain.cli
    import barrierchain.oracle

    hooks = _install_hooks(tracer)
    for name, module, attr in WRAPPED:
        original = getattr(sys.modules[module], attr)
        _rebind(original, tracer.wrap(name, original, hooks.get(name)))

    cls = barrierchain.oracle.FullDecomposition
    cls.__init__ = tracer.wrap(FULL_DECOMPOSITION, cls.__init__, hooks[FULL_DECOMPOSITION])

    eigh = scipy.linalg.eigh_tridiagonal

    def eigh_tridiagonal(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        layer = caller.rpartition(".")[2]
        span = tracer.enter(f"{layer}.eigh_tridiagonal")
        try:
            return eigh(*args, **kwargs)
        finally:
            tracer.leave(span)

    _rebind(eigh, eigh_tridiagonal)
    scipy.linalg.eigh_tridiagonal = eigh_tridiagonal

    return tracer.wrap(CLI_MAIN, barrierchain.cli.main)
