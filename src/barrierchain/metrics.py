"""Transfer figures of merit and eigenstate localization analysis.

The end-to-end transition amplitude f_{N1}(t) fixes everything observable
about single-qubit transfer: the input-averaged fidelity

    Fbar = |f|/3 + |f|^2/6 + 1/2,

the transferred concurrence C = |f| (one half of a singlet shared with an
idle external qubit), and the Rabi transfer time t_MAX = pi / gap of the
pair of eigenstates bi-localized on sender and receiver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, FieldProfile, barrier_profile
from .spectral import SpectralDecomposition, decompose, scan_amplitude, transition_amplitude, transition_weights

_RANGE_SLACK = 1e-9
# eigenvalues within this of zero count as exact zero modes
_ZERO_MODE_TOL = 1e-9


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


def transfer_series(decomp: SpectralDecomposition, times: np.ndarray, sender: int = 1, receiver: int | None = None) -> dict[str, np.ndarray]:
    """|f|, Fbar and C on a time grid, as the columns t, abs_f, avg_fidelity,
    concurrence (C = |f|) ready for ``format_csv``."""
    receiver = decomp.n_sites if receiver is None else receiver
    times = np.asarray(times, dtype=float)
    abs_f = np.abs(transition_amplitude(decomp, sender, receiver, times))
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


def _peak_search(objective, scan, lo: float, hi: float, step: float) -> tuple[float, float]:
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


def max_fidelity(
    decomp: SpectralDecomposition,
    window: tuple[float, float] | float,
    t_max: float | None = None,
) -> tuple[float, float]:
    """Peak of Fbar(t) over a window: grid scan plus golden-section refinement.

    The grid is lo + j step up to hi, with step min(0.25, t_max/200) when the
    Rabi time is known and 0.25 otherwise; |f| on it comes from the blocked
    ``scan_amplitude``, and the refinement evaluates ``transition_amplitude``
    at single times.  Ties on the grid resolve to the earliest time.
    Returns (t*, Fbar*) for transfer from site 1 to site N.
    """
    lo, hi = (0.0, float(window)) if np.isscalar(window) else (float(window[0]), float(window[1]))
    receiver = decomp.n_sites
    step = 0.25 if t_max is None else min(0.25, t_max / 200.0)
    weights = transition_weights(decomp, 1, receiver)

    def scan(grid: np.ndarray) -> np.ndarray:
        return np.abs(scan_amplitude(decomp, weights, lo, step, grid.size))

    def objective(t: float) -> float:
        return abs(transition_amplitude(decomp, 1, receiver, t))

    t_star, abs_f = _peak_search(objective, scan, lo, hi, step)
    return t_star, average_fidelity(abs_f)


def receiver_fidelity(amplitudes: np.ndarray, alpha: complex, beta: complex, receiver: int | None = None) -> float:
    """F = <psi_in| rho_N |psi_in> from evolved site amplitudes.

    The chain is prepared in alpha|vac> + beta|sender>; after evolution the
    receiver qubit's reduced state is assembled from the amplitude arriving
    at the receiver site, with the standard compensating z-rotation applied
    there (the phase of f is known, so the receiver can always undo it).
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    receiver_amp = amplitudes[-1 if receiver is None else receiver - 1]
    a = abs(receiver_amp)
    rho = np.array(
        [
            [abs(alpha) ** 2 + abs(beta) ** 2 * (1.0 - a**2), alpha * np.conj(beta) * a],
            [np.conj(alpha) * beta * a, abs(beta) ** 2 * a**2],
        ],
        dtype=complex,
    )
    psi = np.array([alpha, beta], dtype=complex)
    return float(np.real(np.conj(psi) @ rho @ psi))


def haar_qubits(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) arrays for n Haar-random qubit states (global phase fixed)."""
    rng = np.random.default_rng(seed)
    cos_theta = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    theta = np.arccos(cos_theta)
    return np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)
