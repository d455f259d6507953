"""Full-grid peak searches kept as references for the pruned ``peak_search``.

These are the searches as they stood before pruning and before the
lockstep refinement: every grid point is evaluated by ``scan_amplitude``,
the search's own pointwise evaluator, each peak is refined by the scalar
golden section below, and the refinement objectives go through the public
amplitude functions (the pair concurrence through ``weighted_amplitude``
on the weights of p_{N-1} and p_N that its scan uses).  Tests require the
pruned, stacked search to return the same bits.
"""

import numpy as np

from barrierchain.metrics import _pointwise_product, average_fidelity
from barrierchain.spectral import (
    decompose,
    transition_amplitude,
    transition_weights,
    weighted_amplitude,
)

# grid points evaluated per call, to bound the (points, N) phase table
_CHUNK = 4096


def grid_times(lo: float, step: float, count: int) -> np.ndarray:
    """The first ``count`` points of the grid ``np.arange(lo, stop, step)``,
    with the bits of ``metrics._grid_point``: lo, lo + step, then
    lo + j ((lo + step) - lo)."""
    times = lo + np.arange(count) * ((lo + step) - lo)
    times[1:2] = lo + step
    return times


def scan_amplitude(decomp, weights, lo: float, step: float, count: int) -> np.ndarray:
    """prod_f |sum_k w_fk exp(-i lambda_k t_j)| at every grid time t_j,
    j = 0..count-1, by ``metrics._pointwise_product``; ``weights`` is one
    weight vector (N,) or F of them (F, N).  Returns a real array of length
    count.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    levels = decomp.eigenvalues[None]
    weights = np.asarray(weights).reshape(1, -1, decomp.n_sites)
    times = grid_times(lo, step, count)
    parts = []
    for begin in range(0, count, _CHUNK):
        chunk = times[begin : begin + _CHUNK]
        # one copy of the chain per point, as the search stacks its candidates
        owner = np.zeros(chunk.size, dtype=np.intp)
        parts.append(_pointwise_product(levels[owner], weights[owner], chunk))
    return np.concatenate(parts)


def _golden_section(fun, lo: float, hi: float, tol: float = 1e-4) -> float:
    """Deterministic golden-section maximizer of a unimodal function."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return c if fc >= fd else d


def full_grid_peak_search(objective, scan, lo: float, hi: float, step: float) -> tuple[float, float]:
    """Grid scan plus golden-section refinement; returns (t*, objective(t*)).

    ``scan`` maps the grid lo, lo + step, ... <= hi to the objective's values
    there.  The grid argmax (earliest on ties) is refined by golden section
    over +-1 step clipped to [lo, hi]; if refinement ends below the grid
    value, the grid point is kept.
    """
    if hi <= lo:
        raise ValueError("window must have positive length")
    grid = np.arange(lo, hi + step, step)
    grid = grid[grid <= hi]
    values = scan(grid)
    best = int(np.argmax(values))
    t_best = _golden_section(objective, max(lo, grid[best] - step), min(hi, grid[best] + step))
    value = objective(t_best)
    if value < values[best]:
        t_best = float(grid[best])
        value = objective(t_best)
    return float(t_best), value


def full_grid_max_fidelity(decomp, window, t_max=None) -> tuple[float, float]:
    lo, hi = float(window[0]), float(window[1])
    receiver = decomp.n_sites
    step = 0.25 if t_max is None else min(0.25, t_max / 200.0)
    weights = transition_weights(decomp, 1, receiver)

    def scan(grid):
        return scan_amplitude(decomp, weights, lo, step, grid.size)

    def objective(t):
        return abs(transition_amplitude(decomp, 1, receiver, t))

    t_star, abs_f = full_grid_peak_search(objective, scan, lo, hi, step)
    return t_star, average_fidelity(abs_f)


def full_grid_peak_pair_concurrence(spec, profile, state, window) -> tuple[float, float]:
    decomp = decompose(spec, profile)
    lo, hi = float(window[0]), float(window[1])
    step = 0.25
    start = decomp.eigenvectors[0, :] * state.alpha + decomp.eigenvectors[1, :] * state.beta

    w_nm1, w_n = decomp.eigenvectors[-2, :] * start, decomp.eigenvectors[-1, :] * start

    def scan(grid):
        return 2.0 * scan_amplitude(decomp, np.stack([w_nm1, w_n]), lo, step, grid.size)

    def objective(t):
        return 2.0 * abs(weighted_amplitude(decomp, w_nm1, t)) * abs(weighted_amplitude(decomp, w_n, t))

    return full_grid_peak_search(objective, scan, lo, hi, step)
