"""Transfer figures of merit and eigenstate localization analysis.

The end-to-end transition amplitude f_{N1}(t) fixes everything observable
about single-qubit transfer: the input-averaged fidelity

    Fbar = |f|/3 + |f|^2/6 + 1/2,

the transferred concurrence C = |f| (one half of a singlet shared with an
idle external qubit), and the Rabi transfer time t_MAX = pi / gap of the
pair of eigenstates bi-localized on sender and receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .chain import ChainSpec, FieldProfile, barrier_profile
from .spectral import (
    SpectralDecomposition,
    decompose,
    phase_tables,
    scan_block_length,
    scan_points,
    transition_amplitude,
    transition_weights,
)

_RANGE_SLACK = 1e-9
# eigenvalues within this of zero count as exact zero modes
_ZERO_MODE_TOL = 1e-9
# stride, in grid steps, of the coarse pass that prunes a peak search
_PRUNE_STRIDE = 16
# complex entries the tables of one batched coarse pass hold at most, together;
# the fine pass builds its phase tables in slices of the same size
_COARSE_ENTRIES = 1 << 16
_EPS = float(np.finfo(float).eps)
_UNIT = 0.5 * _EPS


def average_fidelity(abs_f):
    """Input-averaged transfer fidelity Fbar = |f|/3 + |f|^2/6 + 1/2.

    ``abs_f`` may be a scalar or an array; a scalar gives a float.  Values
    within 1e-9 of [0, 1] (round-off from the evolution) are clipped into
    it, anything further out raises ValueError.  The square is libm ``pow``
    (``np.float_power``), as Python's ``**`` on a float, so an array gives
    the same bits as element-by-element scalar calls; numpy's ``x**2`` is
    ``x*x``, which can differ in the last bit.
    """
    x = np.asarray(abs_f, dtype=float)
    in_range = (x >= -_RANGE_SLACK) & (x <= 1.0 + _RANGE_SLACK)
    if not np.all(in_range):
        raise ValueError(f"|f| must lie in [0, 1], got {x[~in_range].flat[0]}")
    x = np.clip(x, 0.0, 1.0)
    result = x / 3.0 + np.float_power(x, 2.0) / 6.0 + 0.5
    return float(result) if result.ndim == 0 else result


def ipr(vector: np.ndarray) -> float:
    """Inverse participation ratio (sum|a|^2)^2 / sum|a|^4; 1 = single site."""
    vector = np.asarray(vector)
    weights = np.abs(vector) ** 2
    total = weights.sum()
    if total == 0:
        raise ValueError("IPR of the zero vector is undefined")
    return float(total**2 / np.sum(weights**2))


def transfer_series(decomp: SpectralDecomposition, times: np.ndarray) -> dict[str, np.ndarray]:
    """|f_{N1}|, Fbar and C on a time grid, as the columns t, abs_f,
    avg_fidelity, concurrence (C = |f|) ready for ``format_csv``."""
    times = np.asarray(times, dtype=float)
    abs_f = np.abs(transition_amplitude(decomp, 1, decomp.n_sites, times))
    return {"t": times, "abs_f": abs_f, "avg_fidelity": average_fidelity(abs_f), "concurrence": abs_f}


@dataclass(frozen=True)
class LocalizationReport:
    """IPR per eigenstate plus the two physically distinguished pairs.

    barrier_pair: indices of the states sitting on the barrier sites;
    bilocalized_pair: the sender/receiver pair whose splitting sets the
    transfer time.  Indices refer to ascending eigenvalue order.
    """

    ipr_per_state: np.ndarray
    bilocalized_pair: tuple[int, int]
    barrier_pair: tuple[int, int]
    gap: float


def localization_report(decomp: SpectralDecomposition, profile: FieldProfile) -> LocalizationReport:
    """Identify barrier and sender/receiver pairs by site-overlap mass."""
    n = decomp.n_sites
    if n < 4:
        raise ValueError("localization analysis needs N >= 4")
    barrier_sites = profile.nonzero_sites()
    if len(barrier_sites) != 2:
        raise ValueError("profile does not single out two barrier sites")
    v = decomp.eigenvectors
    iprs = np.array([ipr(v[:, k]) for k in range(n)])
    barrier_mass = v[barrier_sites[0] - 1, :] ** 2 + v[barrier_sites[1] - 1, :] ** 2
    barrier_pair = tuple(sorted(int(k) for k in np.argsort(barrier_mass)[-2:]))
    end_mass = v[0, :] ** 2 + v[-1, :] ** 2
    end_mass = end_mass.copy()
    end_mass[list(barrier_pair)] = -1.0
    k1, k2 = sorted(int(k) for k in np.argsort(end_mass)[-2:])
    gap = float(decomp.eigenvalues[k2] - decomp.eigenvalues[k1])
    return LocalizationReport(iprs, (k1, k2), barrier_pair, gap)


def barrier_report(spec: ChainSpec, omega: float) -> LocalizationReport:
    """Localization report of the clean chain with barriers omega on sites 2 and N-1."""
    profile = barrier_profile(spec, omega)
    return localization_report(decompose(spec, profile), profile)


def bilocalized_pair_by_energy(decomp: SpectralDecomposition) -> tuple[int, int]:
    """Pair selection by eigenvalue position instead of overlap mass.

    The sender/receiver pair sits closest to zero on the side of the band
    opposite the barrier levels (below zero with the +2K_n sign convention,
    where the barrier levels exit the top of the spectrum; the mirrored
    convention flips both).  Exact zero modes are excluded.
    """
    w = decomp.eigenvalues
    barrier_side = 1.0 if abs(w[-1]) >= abs(w[0]) else -1.0
    candidates = np.nonzero(barrier_side * w < -_ZERO_MODE_TOL)[0]
    if candidates.size < 2:
        raise ValueError("no two eigenvalues on the expected side of zero")
    order = np.argsort(np.abs(w[candidates]))
    return tuple(sorted(int(candidates[k]) for k in order[:2]))


def rabi_transfer_time(report: LocalizationReport) -> float:
    """t_MAX = pi / gap of the bi-localized pair."""
    if report.gap <= 1e-12:
        raise ValueError("bi-localized pair is degenerate; period unresolvable")
    return float(np.pi / report.gap)


def golden_section(fun, lo, hi, tol: float = 1e-4):
    """Deterministic golden-section maximizer of unimodal functions, in lockstep.

    ``lo`` and ``hi`` are scalars or arrays of one shape, one bracket per
    entry, and ``fun`` maps an array of that shape (the probe points, one
    per bracket) to the values there.  Each bracket takes its own branch at
    every iteration and stops once it is at most ``tol`` wide, so every
    entry gets the bits a search over its bracket alone would.  Returns the
    maximizer of each bracket, a float when the brackets are scalars.

    Where the float spacing exceeds ``tol`` a bracket can stay wider than
    ``tol`` for ever, cycling through a few states (a, b, c, d).  ``fun``
    gives each probe the same value every time, so a bracket back at an
    earlier state cycles and stops there too; a bracket that would end
    otherwise never repeats a state, so its bits do not change.  The states
    are compared with the one kept at the last power-of-two iteration
    (Brent's cycle detection, which catches every cycle), starting only once
    the iterations a bracket shrinking by inv_phi needs have passed.
    """
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    active = b - a > tol
    widest = float(np.max(b - a, initial=tol))
    check_from = math.ceil(math.log(widest / tol) / -math.log(inv_phi)) + 1 if 0 < tol < widest < math.inf else 0
    iteration = 0
    while active.any():
        # left: the maximum lies in [a, d], and c becomes the new d
        left = active & (fc >= fd)
        right = active & ~left
        a, b = np.where(right, c, a), np.where(left, d, b)
        probe = np.where(left, b - inv_phi * (b - a), a + inv_phi * (b - a))
        value = fun(probe)
        c, d = np.where(left, probe, np.where(right, d, c)), np.where(left, c, np.where(right, probe, d))
        fc, fd = np.where(left, value, np.where(right, fd, fc)), np.where(left, fc, np.where(right, value, fd))
        active &= b - a > tol
        iteration += 1
        if iteration >= check_from:
            since = iteration - check_from
            if since & (since - 1) == 0:  # since = 0, 1, 2, 4, 8, ...
                kept = a, b, c, d
            else:
                active &= (a != kept[0]) | (b != kept[1]) | (c != kept[2]) | (d != kept[3])
    best = np.where(fc >= fd, c, d)
    return float(best) if best.ndim == 0 else best


def _grid_point(lo: float, step: float, i: int) -> float:
    """Element i of ``np.arange(lo, stop, step)``, by numpy's own fill
    arithmetic: lo, lo + step, then lo + i ((lo + step) - lo)."""
    if i == 0:
        return lo
    if i == 1:
        return lo + step
    return lo + i * ((lo + step) - lo)


def _grid_count(lo: float, hi: float, step: float) -> int:
    """Length of ``np.arange(lo, hi + step, step)`` once points above hi are
    dropped (the grid rises, so they form its tail)."""
    count = math.ceil(((hi + step) - lo) / step)
    while count > 0 and _grid_point(lo, step, count - 1) > hi:
        count -= 1
    return count


def _product_rule(per_factor: np.ndarray, ceilings: np.ndarray) -> np.ndarray:
    """Bounds on the change of prod_f |a_f|, one per chain, given (S, F)
    bounds on the change of each |a_f| and ceilings |a_f| <= u_f:
    sum_f x_f prod_{g != f} u_g."""
    n_factors = ceilings.shape[1]
    return sum(per_factor[:, f] * np.prod(np.delete(ceilings, f, axis=1), axis=1) for f in range(n_factors))


def _median_levels(levels: np.ndarray, magnitudes: np.ndarray) -> np.ndarray:
    """The |w_f|-weighted median level of each chain and factor, shape (S, F):
    the c that minimizes sum_k |w_fk| |lambda_k - c|."""
    order = np.argsort(levels, axis=1)
    ranked = np.take_along_axis(levels, order, axis=1)
    mass = np.cumsum(np.take_along_axis(magnitudes, order[:, None, :], axis=2), axis=2)
    middle = np.argmax(mass >= 0.5 * mass[:, :, -1:], axis=2)
    return np.take_along_axis(ranked, middle, axis=1)


def _slices(n_chains: int, per_chain: int) -> list[slice]:
    """Consecutive slices of a stack of chains, each holding at most
    _COARSE_ENTRIES complex entries at per_chain entries a chain (at least
    one chain each)."""
    size = max(1, _COARSE_ENTRIES // per_chain)
    return [slice(begin, min(begin + size, n_chains)) for begin in range(0, n_chains, size)]


def _product_error(per_factor: np.ndarray, ceilings: np.ndarray) -> np.ndarray:
    """Bounds on |prod_f |x_f| - prod_f |y_f||, one per chain, for two
    evaluations whose complex sums differ by at most per_factor (S, F) and
    whose exact sums lie within ceilings (S, F) in modulus, counting the
    rounding of both |.| (u each) and of both products (u per factor) and
    of the caller's comparisons against them."""
    change = per_factor * (1.0 + 2.0 * _UNIT) + 2.0 * _UNIT * ceilings
    roof = ceilings + change
    return _product_rule(change, roof) + 4.0 * ceilings.shape[1] * _UNIT * np.prod(roof, axis=1)


def _row_maxima(coarse: np.ndarray, count: int, block: int) -> np.ndarray:
    """Per chain and row of the blocked scan of ``count`` points, the
    largest coarse value (``coarse`` (chains, points), point j at grid index
    16j) at the ends of the cells the row meets; shape (chains, rows).

    Cell c spans grid points 16c..16(c+1), end points included, so row r,
    grid points rB..(r+1)B-1, meets the cells from the last coarse point
    before rB, lower[r], to the first one after (r+1)B-1, upper[r] (the
    last point for the last row).  The points lower[r]..lower[r+1]-1 are
    one ``np.maximum.reduceat`` segment (to the end for the last row);
    lower[r+1] = upper[r] - 1, so upper[r] - 1 and upper[r] are the rest.
    """
    edges = block * np.arange(-(-count // block) + 1) - 1
    lower = np.maximum(edges[:-1], 0) // _PRUNE_STRIDE
    upper = np.minimum(edges[1:] // _PRUNE_STRIDE + 1, coarse.shape[1] - 1)
    return np.maximum(np.maximum.reduceat(coarse, lower, axis=1), np.maximum(coarse[:, upper - 1], coarse[:, upper]))


def _kept_rows(levels: np.ndarray, weights: np.ndarray, lo: float, step: float, count: int, block: int) -> list[np.ndarray]:
    """Rows of each chain's blocked scan that can hold its grid maximum, for
    a stack of chains (``levels`` (S, N), ``weights`` (S, F, N)) that share
    the grid; one array of row indices per chain.

    A coarse scan at stride _PRUNE_STRIDE steps splits the grid into cells
    between neighbouring coarse points.  Within a cell the objective exceeds
    the larger end value by at most ``reach`` (slope bound times half the
    cell), so a cell whose bound lies below the coarse maximum cannot hold
    the grid maximum.  |a_f| does not change under a global phase, so each
    factor's slope bound sum_k |w_fk| |lambda_k - c_f| is taken about its
    weighted median level c_f.  ``slack`` covers the round-off of both
    scans, whose phases (unshifted) err by about eps |lambda_k| t, plus
    the proven bound (``PhaseTables.bound``) on how far the coarse pass's
    approximate phase tables move its values from the exact tables' ones;
    the rows kept are thus a superset of those an exact coarse pass keeps.
    A chain keeps every row when no cell could be dropped.

    Ceilings, reach, slack and the choice to prune are worked out for the
    whole stack at once.  The coarse pass of the pruning chains is one
    stacked scan of ``spectral.phase_tables``, (chains, 1, N) levels
    against (chains, F, N) weights, per slice of the stack whose tables
    hold at most _COARSE_ENTRIES entries.  Each slice maps its coarse
    values to rows once (``_row_maxima``, one ``np.maximum.reduceat``):
    rounding is monotone, so a row's largest coarse value plus reach plus
    margin is, bit for bit, the largest bound of the cells it meets, and a
    row is kept when that reaches the floor.  One flat ``np.nonzero`` over
    the slice gives every chain's rows.  Every step is per chain, so a chain's
    rows do not depend on the stack it is in.
    """
    n_chains, n_levels = levels.shape
    n_factors = weights.shape[1]
    n_rows = -(-count // block)
    every = np.arange(n_rows)
    kept = [every] * n_chains
    magnitudes = np.abs(weights)
    ceilings = magnitudes.sum(axis=2)
    offset = np.abs(levels[:, None, :] - _median_levels(levels, magnitudes)[:, :, None])
    stride = _PRUNE_STRIDE * step
    reach = 0.5 * stride * _product_rule((magnitudes * offset).sum(axis=2), ceilings)
    pruning = np.flatnonzero(reach < np.prod(ceilings, axis=1))
    if n_rows < 2 or pruning.size == 0:
        return kept
    # N for the sums, the largest |t| scanned for the phases
    horizon = n_levels + abs(lo) + (count + _PRUNE_STRIDE) * step
    spread = (magnitudes * (1.0 + np.abs(levels))[:, None, :]).sum(axis=2)
    slack = _product_rule(64.0 * _EPS * horizon * spread, ceilings)

    n_coarse = -(-(count - 1) // _PRUNE_STRIDE) + 1
    coarse_block = scan_block_length(n_coarse)
    coarse_rows = np.arange(-(-n_coarse // coarse_block))
    # coarse points past the last grid point only bound the final cell
    top = (count - 1) // _PRUNE_STRIDE + 1
    per_chain = n_factors * coarse_rows.size * (n_levels + coarse_block) + n_levels * (coarse_rows.size + coarse_block)
    for chunk in _slices(pruning.size, per_chain):
        part = pruning[chunk]
        tables = phase_tables(levels[part, None], lo, stride, coarse_block, coarse_rows.size)
        sums = tables.scan(weights[part], coarse_rows)
        margin = slack[part] + _product_error(tables.bound(weights[part]), ceilings[part])
        coarse = np.abs(sums.reshape(part.size, n_factors, -1)[:, :, :n_coarse]).prod(axis=1)
        floor = coarse[:, :top].max(axis=1) - margin
        bound = _row_maxima(coarse, count, block) + reach[part, None] + margin[:, None]
        hits = (bound >= floor[:, None]).ravel().nonzero()[0]
        ends = np.searchsorted(hits, n_rows * np.arange(part.size + 1)).tolist()
        rows = hits % n_rows
        for i, chain in enumerate(part.tolist()):
            kept[chain] = rows[ends[i] : ends[i + 1]]
    return kept


def _grid_argmax(
    levels: np.ndarray, weights: np.ndarray, kept: list[np.ndarray], lo: float, step: float, count: int, block: int
) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) of each chain's earliest maximum of prod_f |a_f| on
    the grid of ``count`` points, scanning only its ``kept`` rows of the
    blocked scan, with the bits of ``spectral.scan_rows``'s exact tables.

    The kept rows are scanned with ``spectral.phase_tables``, built per
    slice of the stack.  If eps bounds |approximate - exact| at every grid
    point, the exact argmax lies within 2 eps of the approximate maximum,
    so only the points that do are recomputed exactly, all chains' points
    in one ``spectral.scan_points`` call, and each chain takes the earliest
    of its exact maxima.  Each slice's tables are indexed once, starts as
    (rows, chains, N) and offsets as (chains, N, block), so a chain costs
    one gather, multiply and matmul, an ``abs`` (and a product over its
    factors when it has more than one), the end mask and one flat
    ``np.nonzero``, whose points come in grid order.
    """
    n_chains, n_factors, n_levels = weights.shape
    if n_chains == 0:
        return np.empty(0), np.empty(0)
    n_rows = -(-count // block)
    ceilings = np.abs(weights).sum(axis=2)
    n_near = np.empty(n_chains, dtype=np.intp)
    rows, columns = [], []
    for part in _slices(n_chains, n_levels * (n_rows + block)):
        tables = phase_tables(levels[part, None], lo, step, block, n_rows)
        tolerance = 2.0 * _product_error(tables.bound(weights[part]), ceilings[part])
        # starts (rows, chains, N) and offsets (chains, N, block), indexed once a slice
        starts = tables.starts[:, :, 0]
        offsets = np.moveaxis(tables.offsets[:, :, 0], 0, -1)
        for i, chain in enumerate(range(part.start, part.stop)):
            chain_rows = kept[chain]
            sums = (starts[chain_rows, i] * weights[chain, :, None, :]) @ offsets[i]
            values = np.abs(sums[0]) if n_factors == 1 else np.abs(sums).prod(axis=0)
            # points past the grid's end, in its last row, are never candidates,
            # however wide the bound
            values[-1, count - chain_rows[-1] * block :] = -np.inf
            # a flat np.nonzero: numpy's two-dimensional one is several times slower
            near_rows, near_columns = np.divmod((values >= values.max() - tolerance[i]).ravel().nonzero()[0], block)
            n_near[chain] = near_rows.size
            rows.append(chain_rows[near_rows])
            columns.append(near_columns)
    owner = np.repeat(np.arange(n_chains), n_near)
    rows, columns = np.concatenate(rows), np.concatenate(columns)
    exact = np.abs(scan_points(levels[owner], weights[owner], lo, step, block, rows, columns)).prod(axis=1)
    # each chain's points come in grid order, so its first hit of its maximum is the earliest
    segments = np.searchsorted(owner, np.arange(n_chains))
    hit = np.flatnonzero(exact == np.maximum.reduceat(exact, segments)[owner])
    best = hit[np.searchsorted(owner[hit], np.arange(n_chains))]
    times = [_grid_point(lo, step, int(i)) for i in rows[best] * block + columns[best]]
    return np.array(times, dtype=float), exact[best]


def peak_search(levels, weights, window: tuple[float, float], t_max: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Maxima over a window (lo, hi) of prod_f |a_sf(t)|, a_sf(t) = sum_k w_sfk exp(-i lambda_sk t),
    for a stack of S chains of one size.

    ``levels`` holds each chain's eigenvalues, shape (S, N), and ``weights``
    each chain's weight vectors, shape (S, F, N): one factor for |f|, two
    for the pair concurrence 2 |p_{N-1}| |p_N| (whose factor 2 the caller
    applies).  The grid is ``np.arange(lo, hi + step, step)`` without the
    points above hi, with step min(0.25, t_max/200) when the Rabi time
    ``t_max`` is known and 0.25 otherwise.  Each chain's argmax (earliest on
    ties) is refined by one lockstep ``golden_section`` over +-1 step
    clipped to [lo, hi], which evaluates the same weighted sums the scan
    does, and a chain whose refinement ends below its grid value keeps the
    grid point.  Returns the arrays (t*, product at t*), one entry per
    chain; each product has the bits of prod_f |``weighted_amplitude``|.

    Each chain scans only the blocks of ``scan_rows`` that can hold its
    maximum.  |a_f| does not change under a global phase, so for any c,
    |d|a_f|/dt| <= L_f(c) = sum_k |w_fk| |lambda_k - c| (Shubert, SIAM J.
    Numer. Anal. 9 (1972) 379); c_f, the |w_f|-weighted median level,
    minimizes it.  With |a_f| <= U_f = sum_k |w_fk| these bound the
    product's slope, so a coarse pass, one stacked scan for the whole
    stack, certifies which cells lie strictly below the grid maximum (see
    ``_kept_rows``).  Both passes scan approximate phase tables built by
    recurrence once per slice of the stack (``spectral.phase_tables``),
    with a proven bound on how far they move each value from the exact
    tables' one.  The coarse pass adds that bound to its slack; the fine
    pass recomputes exactly only the points within twice the bound of a
    chain's approximate maximum (``_grid_argmax``), so the argmax, the
    grid value the refinement is compared against and every returned bit
    are those of the full scan.
    """
    lo, hi = float(window[0]), float(window[1])
    if not -np.inf < lo < hi < np.inf:
        raise ValueError(f"window must be finite with positive length, got {(lo, hi)}")
    step = 0.25 if t_max is None else min(0.25, t_max / 200.0)
    count = _grid_count(lo, hi, step)
    block = scan_block_length(count)
    kept = _kept_rows(levels, weights, lo, step, count, block)
    t_grid, grid_value = _grid_argmax(levels, weights, kept, lo, step, count, block)

    def product(t: np.ndarray) -> np.ndarray:
        # per factor, a stacked (S, 1, N) @ (S, N, 1) matmul and np.hypot give
        # each chain the bits of abs(weighted_amplitude(...)) at its time;
        # np.abs on complex arrays and einsum round differently
        phases = np.exp(-1j * (t[:, None] * levels))[:, None, :]
        sums = ((phases @ weights[:, f, :, None])[:, 0, 0] for f in range(weights.shape[1]))
        return reduce(np.multiply, (np.hypot(z.real, z.imag) for z in sums))

    t_best = golden_section(product, np.maximum(lo, t_grid - step), np.minimum(hi, t_grid + step))
    value = product(t_best)
    fall = value < grid_value
    if fall.any():
        t_best = np.where(fall, t_grid, t_best)
        value = np.where(fall, product(t_best), value)
    return t_best, value


def max_fidelity(
    decomp: SpectralDecomposition,
    window: tuple[float, float],
    t_max: float | None = None,
) -> tuple[float, float]:
    """Peak of Fbar(t) over a window (lo, hi): grid scan plus golden-section refinement.

    ``peak_search`` on a stack of one chain, with the transfer weights of
    site 1 to site N as its one factor: it scans |f| on the grid cells that
    can hold the peak, and the refinement evaluates ``transition_amplitude``'s
    sum, bit for bit, at single times.  Ties on the grid resolve to the
    earliest time.  Returns (t*, Fbar*).  Ensembles and sweeps call
    ``peak_search`` on whole stacks.
    """
    weights = transition_weights(decomp, 1, decomp.n_sites)
    t_star, abs_f = peak_search(decomp.eigenvalues[None], weights[None, None], window, t_max)
    return float(t_star[0]), average_fidelity(abs_f[0])


def haar_qubits(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) arrays for n Haar-random qubit states (global phase fixed)."""
    rng = np.random.default_rng(seed)
    cos_theta = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    theta = np.arccos(cos_theta)
    return np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)
