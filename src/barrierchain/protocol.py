"""Three-stage switched-field transfer protocol with trapping and storage.

The drive acts only on the barrier sites.  Writing U(t)|1> = sum beta_k(t)|k>,
the equations of motion are

    i d(beta_1)/dt   = -beta_2
    i d(beta_2)/dt   = -beta_1 - omega_2(t) beta_2 - beta_3
    i d(beta_j)/dt   = -beta_{j-1} - beta_{j+1}          (bulk)
    i d(beta_N-1)/dt = -beta_{N-2} - omega_{N-1}(t) beta_{N-1} - beta_N
    i d(beta_N)/dt   = -beta_{N-1},

i.e. a tridiagonal matrix with off-diagonal -1 and diagonal -omega_i(t) on
the two driven sites.  Note the drive convention differs from the static
sections, where a field K contributes +2K to the diagonal; here the listed
system is taken as-is, and it is the convention under which the stated
optimal interval (pi/2) K2^2 matches the mid-stage Rabi gap.

Smoothed (logistic) switching uses a fourth-order commutator-free
exponential integrator: each step multiplies by two exact exponentials of
Gauss-node field averages, so the evolution stays exactly unitary and is
exact wherever the drive is constant.  Away from the switching windows,
45 tau_s either side of t1 and t2, the logistic tails are below double
precision, and those stretches are propagated spectrally in one hop.  Ideal
steps (tau_s = 0) get the same partition with zero-width windows, which are
dropped, so they are propagated exactly as three spectral segments.

A step's two factors depend on (t, h) alone, never on the state, so each
pass plans a switching window in arrays before the state is touched: the
step starts and sizes, one field_at call on every Gauss node, and each
factor's two driven diagonal entries.  The loop over the state then runs,
per factor, one LAPACK stevd eigensolve and two matvecs.  stevd is the
routine scipy's eigh_tridiagonal selects by default, called directly
without the wrapper's per-call checks, so it returns the same eigenpairs
bit for bit.
A factor whose diagonal equals the previous factor's bit for bit, as on
flat logistic tails, reuses that eigenpair.  Eigenpairs are used as they
are computed and never stored for a whole pass, so memory stays flat.

Smoothed runs halve the step until the final fidelity settles, and every
pass but the accepted one is a probe: it only propagates, keeping each
constant region's decomposition and start state and each switching
window's checkpoint states.  A pass's final state is its last sample row:
the hop to t_end is evolve_many at that time alone, and a switching window
that holds t_end ends on it as its last checkpoint.  A probe reads its final
fidelity from that state.  The accepted pass is sampled once, storing only
the site-N amplitudes and the site-1 pre-send survival, through
evolve_many in chunks of _CHUNK_ROWS rows.  evolve_many gives any subset of
times the bits of the whole table, so every sample has them, and the
sampling's memory is bounded by the chunk, not by the number of samples.
The CLI writes the trajectory CSV in row chunks too (``_csvio.write_csv``),
so memory is bounded end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .chain import ChainSpec, FieldProfile
from .metrics import average_fidelity, golden_section
from .spectral import (
    SpectralDecomposition,
    decompose,
    evolve,
    evolve_many,
    site_state,
    tridiagonal_eigh,
)

# Logistic tails below exp(-45) ~ 3e-20 are treated as exactly constant.
_TAIL_WIDTHS = 45.0


@dataclass(frozen=True)
class SwitchingSchedule:
    """Step amplitudes K1 > K2 and the three switching times.

    The sender-side field omega_2 walks through {K1, K2, 0} and the
    receiver-side field omega_{N-1} through {0, K2, K1} on the intervals
    [t0, t1), [t1, t2], (t2, inf), with t2 = t1 + delta_t.

    smoothing_timescale tau_s = 0 means ideal steps; tau_s > 0 replaces the
    steps by logistics of rate alpha = 1/tau_s (sharper switching = smaller
    tau_s).
    """

    k1: float
    k2: float
    delta_t: float
    t1: float = 50.0
    t0: float = 0.0
    smoothing_timescale: float = 0.0

    def __post_init__(self) -> None:
        if not np.all(np.isfinite((self.k1, self.k2, self.delta_t, self.t1, self.t0, self.smoothing_timescale))):
            raise ValueError(f"schedule values must be finite: {self}")
        if self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("step amplitudes K1, K2 must be positive")
        if self.delta_t <= 0:
            raise ValueError("delta_t must be positive")
        if not self.t0 <= self.t1:
            raise ValueError("need t0 <= t1")
        if self.smoothing_timescale < 0:
            raise ValueError("smoothing_timescale must be >= 0")

    @property
    def t2(self) -> float:
        return self.t1 + self.delta_t

    @property
    def smoothing_rate(self) -> float:
        """Logistic rate alpha; 0 denotes ideal steps."""
        if self.smoothing_timescale == 0:
            return 0.0
        return 1.0 / self.smoothing_timescale


def field_at(schedule: SwitchingSchedule, t):
    """Drive fields (omega_2(t), omega_{N-1}(t)) on the two barrier sites.

    ``t`` may be a scalar or an array; a scalar gives two floats, an array
    two arrays of its shape.  The logistic form is defined for every t (its
    t -> -inf limit is K1 on the sender side); protocol runs themselves
    start at t0.
    """
    t = np.asarray(t, dtype=float)
    k1, k2 = schedule.k1, schedule.k2
    t1, t2 = schedule.t1, schedule.t2
    alpha = schedule.smoothing_rate
    if alpha == 0:
        omega2 = np.where(t < t1, k1, np.where(t <= t2, k2, 0.0))
        omega_nm1 = np.where(t < t1, 0.0, np.where(t <= t2, k2, k1))
    else:
        omega2 = k2 * expit(-alpha * (t - t2)) + (k1 - k2) * expit(-alpha * (t - t1))
        omega_nm1 = k2 * expit(alpha * (t - t1)) + (k1 - k2) * expit(alpha * (t - t2))
    if t.ndim == 0:
        return float(omega2), float(omega_nm1)
    return omega2, omega_nm1


def optimal_interval(n_sites: int, k2: float) -> float:
    """Closed-form transfer interval: (pi/2) K2^2 even, (pi/4)(N-3) K2 odd."""
    if not 0 < k2 < np.inf:
        raise ValueError(f"k2 must be positive and finite, got {k2}")
    if n_sites % 2 == 0:
        return 0.5 * np.pi * k2**2
    return 0.25 * np.pi * (n_sites - 3) * k2


def two_level_interval(k2: float) -> float:
    """Literal two-level prediction 2 pi K2^2 with the drive amplitude read
    as a static barrier field; reported next to the closed form and the
    numeric optimum, never asserted."""
    if not 0 < k2 < np.inf:
        raise ValueError(f"k2 must be positive and finite, got {k2}")
    return 2.0 * np.pi * k2**2


def _drive_diagonal(spec: ChainSpec, omega2: float, omega_nm1: float) -> np.ndarray:
    d = np.zeros(spec.n_sites)
    d[1] = -omega2
    d[spec.n_sites - 2] = -omega_nm1
    return d


def _stage_decomposition(spec: ChainSpec, omega2: float, omega_nm1: float) -> SpectralDecomposition:
    # fields K = -omega/2 make the static builder's 2K diagonal equal the
    # drive convention's -omega.
    profile = FieldProfile(_drive_diagonal(spec, omega2, omega_nm1) / 2.0)
    return decompose(spec, profile)


@dataclass(frozen=True, eq=False)
class ProtocolTrajectory:
    """Sampled protocol run plus the final state, the site amplitudes at
    times[-1]: the last sample row, so np.abs(final_state[-1]) is abs_f[-1]."""

    times: np.ndarray
    omega2: np.ndarray
    omega_nm1: np.ndarray
    abs_f: np.ndarray
    avg_fidelity: np.ndarray
    final_state: np.ndarray
    schedule: SwitchingSchedule
    survival_min_presend: float

    @property
    def final_avg_fidelity(self) -> float:
        return float(self.avg_fidelity[-1])


def _sample_grid(schedule: SwitchingSchedule, t_end: float, sample_dt: float) -> np.ndarray:
    """Sample times covering [t0, t_end] with t1, t2 hit exactly."""
    anchors = [schedule.t0, schedule.t1, schedule.t2, t_end]
    anchors = sorted({a for a in anchors if schedule.t0 <= a <= t_end})
    pieces = []
    for lo, hi in zip(anchors[:-1], anchors[1:]):
        pieces.append(np.arange(lo, hi, sample_dt))
    pieces.append(np.array([t_end]))
    return np.unique(np.concatenate(pieces))


# Commutator-free fourth-order coefficients (two Gauss nodes).
_NODES = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])
_WEIGHT_BIG = 0.25 + np.sqrt(3.0) / 6.0
_WEIGHT_SMALL = 0.25 - np.sqrt(3.0) / 6.0


def _switch_regions(schedule: SwitchingSchedule, t_end: float) -> list[tuple[float, float, bool]]:
    """(start, end, is_active) partition of [t0, t_end]; active regions need
    stepping, constant regions are propagated spectrally in one hop."""
    t0, t1, t2 = schedule.t0, schedule.t1, schedule.t2
    w = _TAIL_WIDTHS * schedule.smoothing_timescale
    windows = [(t1 - w, t1 + w), (t2 - w, t2 + w)]
    if windows[0][1] >= windows[1][0]:
        windows = [(windows[0][0], windows[1][1])]
    regions: list[tuple[float, float, bool]] = []
    cursor = t0
    for lo, hi in windows:
        lo = max(lo, t0)
        hi = min(hi, t_end)
        if hi <= cursor:
            continue
        if lo > cursor:
            regions.append((cursor, lo, False))
        if hi > lo:  # windows have zero width at tau_s = 0, ideal steps
            regions.append((max(cursor, lo), hi, True))
        cursor = hi
    if cursor < t_end:
        regions.append((cursor, t_end, False))
    return regions


def _integrate_active(
    spec: ChainSpec,
    schedule: SwitchingSchedule,
    psi: np.ndarray,
    t_start: float,
    checkpoints: np.ndarray,
    h0: float,
) -> list[np.ndarray]:
    """CF4-step from t_start through each checkpoint, landing exactly on
    every one; returns the state at each checkpoint.  The steps and factor
    diagonals are planned as arrays first (see the module docstring)."""
    n = spec.n_sites
    starts, sizes, counts = [], [], []
    t = t_start
    for tc in checkpoints:
        span = tc - t
        n_sub = 0
        if span > 0:
            n_sub = max(1, int(np.ceil(span / h0 - 1e-12)))
            h = span / n_sub
            starts.append(t + np.arange(n_sub) * h)
            sizes.append(np.full(n_sub, h))
            t = tc
        counts.append(n_sub)
    sizes = np.concatenate(sizes)
    omega2, omega_nm1 = field_at(schedule, np.concatenate(starts)[:, None] + sizes[:, None] * _NODES)
    # Each factor exponentiates da*H1 + db*H2 of the two node Hamiltonians:
    # off-diagonal -(da + db) = -1/2, and on each driven site da*d1 + db*d2
    # with d = -omega, the same products and sum as the full diagonals, so
    # every entry matches them bit for bit, signed zeros included.
    # Row 2s + f holds the (site 2, site N-1) entries of step s's factor f.
    weights = ((_WEIGHT_BIG, _WEIGHT_SMALL), (_WEIGHT_SMALL, _WEIGHT_BIG))
    factors = np.stack(
        [da * d[:, 0] + db * d[:, 1] for da, db in weights for d in (-omega2, -omega_nm1)], axis=1
    ).reshape(-1, 2)
    # a factor whose entries match the previous factor's bit for bit (flat
    # logistic tails) reuses its eigenpair
    bits = factors.view(np.int64)
    repeat = np.zeros(len(factors), dtype=bool)
    repeat[1:] = np.all(bits[1:] == bits[:-1], axis=1)
    repeat = repeat.tolist()

    diag = np.zeros(n)
    off = np.full(n - 1, -(_WEIGHT_BIG + _WEIGHT_SMALL))
    states = []
    k = 0
    for n_sub in counts:
        for _ in range(2 * n_sub):
            if not repeat[k]:
                diag[1], diag[n - 2] = factors[k]
                w, v = tridiagonal_eigh(diag, off)
            psi = v @ (np.exp(-1j * sizes[k // 2] * w) * (v.T @ psi))
            k += 1
        states.append(psi)
    return states


class StepControlError(RuntimeError):
    """Raised when halving the integrator step fails to converge."""


# Sample rows per evolve_many call when a pass is sampled: the tables of
# amplitudes then hold at most this many rows, however long the run.
_CHUNK_ROWS = 512


def _column(decomp: SpectralDecomposition, psi: np.ndarray, times: np.ndarray, site: int) -> np.ndarray:
    """``evolve_many(decomp, psi, times)[:, site]`` bit for bit, evaluated in
    chunks of _CHUNK_ROWS rows."""
    column = np.empty(times.size, dtype=complex)
    for a in range(0, times.size, _CHUNK_ROWS):
        column[a : a + _CHUNK_ROWS] = evolve_many(decomp, psi, times[a : a + _CHUNK_ROWS])[:, site]
    return column


def _checkpoints(inside: np.ndarray, hi: float) -> np.ndarray:
    """A switching window's checkpoints: its sample times and its end."""
    return np.unique(np.concatenate([inside, [hi]]))


def _propagate(
    spec: ChainSpec,
    schedule: SwitchingSchedule,
    t_end: float,
    sample_times: np.ndarray,
    h0: float,
) -> tuple[list[tuple], np.ndarray]:
    """One pass at base step h0 that propagates without sampling.

    Returns (regions, final_psi), final_psi being the pass's last sample
    row, the state at t_end.  Each region is a tuple
    (lo, hi, inside, decomp, states) with ``inside`` the sample times in
    it.  A constant region keeps its stage decomposition and, as
    ``states``, its state at lo; a switching window has decomp None and
    keeps the list of states at its checkpoints."""
    psi = site_state(spec.n_sites, 1)
    regions = []
    for lo, hi, active in _switch_regions(schedule, t_end):
        inside = sample_times[(sample_times >= lo) & ((sample_times < hi) | (hi == t_end))]
        if active:
            states = _integrate_active(spec, schedule, psi, lo, _checkpoints(inside, hi), h0)
            regions.append((lo, hi, inside, None, states))
            psi = states[-1]
        else:
            decomp = _stage_decomposition(spec, *field_at(schedule, 0.5 * (lo + hi)))
            regions.append((lo, hi, inside, decomp, psi))
            if hi == t_end:
                # the last sample row, with the bits sampling gives it
                psi = evolve_many(decomp, psi, [hi - lo])[0]
            else:
                psi = evolve(decomp, psi, hi - lo)
    return regions, psi


def _sample(schedule: SwitchingSchedule, regions: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """(site-N amplitudes at every sample time, site-1 survival probabilities
    sampled before t1) of a propagated pass.

    Both kinds of region square |amplitude| with libm pow
    (``np.float_power``), as ``**`` does on a float64 scalar: the array
    ``x ** 2`` is x*x, which rounds differently in about 1 of 1,400 values.
    """
    site_n: list[np.ndarray] = []
    presend: list[np.ndarray] = []
    for lo, hi, inside, decomp, states in regions:
        if decomp is not None:
            site_n.append(_column(decomp, states, inside - lo, -1))
            # pre-send survival carries a fast ripple at the dressed Rabi rate
            # sqrt(K1^2 + 4), only 4/(K1^2 + 4) deep, on top of the slow
            # second-order exchange (J13 = 1/K1) with site 3 and the bulk
            # that sets the floor; sample the ripple densely enough to hit
            # its minima.
            if lo < schedule.t1:
                fine_hi = min(hi, schedule.t1)
                dt_fine = 2.0 * np.pi / np.sqrt(schedule.k1**2 + 4.0) / 40.0
                fine = np.arange(lo, fine_hi, dt_fine)
                presend.append(np.float_power(np.abs(_column(decomp, states, fine - lo, 0)), 2.0))
        else:
            checkpoints = _checkpoints(inside, hi)
            table = np.array(states)
            presend.append(np.float_power(np.abs(table[checkpoints < schedule.t1, 0]), 2.0))
            site_n.append(table[np.isin(checkpoints, inside), -1])
    survival = np.concatenate(presend) if presend else np.empty(0)
    return np.concatenate(site_n), survival


def simulate_protocol(
    spec: ChainSpec,
    schedule: SwitchingSchedule,
    t_end: float | None = None,
    sample_dt: float = 0.05,
    step_hint: float | None = None,
    step_tolerance: float = 1e-8,
) -> ProtocolTrajectory:
    """Run the full three-stage protocol from |1> at t0.

    Ideal steps are the partition without switching windows and are
    exact.  Smoothed schedules start the integrator at step_hint (default
    tau_s / 8) and halve it until the final average fidelity moves by less
    than step_tolerance between passes.  Those passes are probes: each only
    propagates, and its final fidelity is read from its final state, the
    last sample row.  Only the accepted pass is sampled, once, in row
    chunks, so memory is bounded by the chunk, not by the number of samples
    (see the module docstring).
    """
    if spec.n_sites < 6:
        raise ValueError("protocol needs at least 6 sites")
    if t_end is None:
        t_end = schedule.t2 + 500.0
    if not schedule.t2 < t_end < np.inf:
        raise ValueError(f"t_end must be finite and lie beyond the release time t2, got {t_end}")
    if not 0 < sample_dt < np.inf:
        raise ValueError(f"sample_dt must be positive and finite, got {sample_dt}")
    sample_times = _sample_grid(schedule, t_end, sample_dt)

    if schedule.smoothing_timescale == 0:
        regions, psi = _propagate(spec, schedule, t_end, sample_times, np.inf)
    else:
        h = step_hint if step_hint is not None else schedule.smoothing_timescale / 8.0
        if not 0 < h < np.inf:
            raise ValueError(f"step_hint must be positive and finite, got {h}")
        # Sampling already caps the effective step at sample_dt; start at or
        # below it so each halving genuinely refines the integration.
        h = min(h, sample_dt)
        regions, psi = _propagate(spec, schedule, t_end, sample_times, h)
        previous = average_fidelity(np.abs(psi[-1]))
        for _ in range(14):
            h /= 2.0
            regions, psi = _propagate(spec, schedule, t_end, sample_times, h)
            current = average_fidelity(np.abs(psi[-1]))
            if abs(current - previous) < step_tolerance:
                break
            previous = current
        else:
            raise StepControlError(
                f"step halving did not converge to {step_tolerance:g} "
                f"(last step {h:g})"
            )

    site_n, presend = _sample(schedule, regions)
    abs_f = np.abs(site_n)
    omega2, omega_nm1 = field_at(schedule, sample_times)
    return ProtocolTrajectory(
        times=sample_times,
        omega2=omega2,
        omega_nm1=omega_nm1,
        abs_f=abs_f,
        avg_fidelity=average_fidelity(abs_f),
        final_state=psi,
        schedule=schedule,
        survival_min_presend=float(presend.min()) if presend.size else 1.0,
    )


def storage_fidelity(trajectory: ProtocolTrajectory, window: float) -> tuple[float, float]:
    """(mean, drift) of the average fidelity over [t2, t2 + window].

    Drift is the largest deviation from the window mean; a window that
    contains a single sample therefore reports zero drift.
    """
    if not 0 <= window < np.inf:
        raise ValueError(f"window must be finite and >= 0, got {window}")
    t2 = trajectory.schedule.t2
    if t2 + window > trajectory.times[-1] + 1e-9:
        raise ValueError("storage window extends past the simulated range")
    mask = (trajectory.times >= t2 - 1e-9) & (trajectory.times <= t2 + window + 1e-9)
    values = trajectory.avg_fidelity[mask]
    if values.size == 0:
        raise ValueError("no samples fall inside the storage window")
    mean = float(np.mean(values))
    drift = float(np.max(np.abs(values - mean)))
    return mean, drift


def optimize_interval(
    spec: ChainSpec,
    schedule: SwitchingSchedule,
    window: float = 100.0,
    n_grid: int = 41,
) -> tuple[float, float]:
    """Tune delta_t to maximize the post-release storage mean (ideal steps).

    Scans n_grid points over delta_t * [0.75, 1.25] around the
    schedule's interval, then refines by golden section.  Returns
    (delta_t_star, storage mean there).
    """
    if schedule.smoothing_timescale != 0:
        raise ValueError("interval optimization runs on ideal-step schedules")
    if not 0 <= window < np.inf:
        raise ValueError(f"window must be finite and >= 0, got {window}")
    stage1 = _stage_decomposition(spec, schedule.k1, 0.0)
    stage2 = _stage_decomposition(spec, schedule.k2, schedule.k2)
    stage3 = _stage_decomposition(spec, 0.0, schedule.k1)
    psi_t1 = evolve(stage1, site_state(spec.n_sites, 1), schedule.t1 - schedule.t0)
    taus = np.linspace(0.0, window, 201)

    def objective(delta_t: float) -> float:
        held = evolve(stage2, psi_t1, delta_t)
        tail = evolve_many(stage3, held, taus)
        return float(np.mean(average_fidelity(np.abs(tail[:, -1]))))

    lo = schedule.delta_t * 0.75
    hi = schedule.delta_t * 1.25
    grid = np.linspace(lo, hi, n_grid)
    values = [objective(d) for d in grid]
    best = int(np.argmax(values))
    a = grid[max(0, best - 1)]
    b = grid[min(n_grid - 1, best + 1)]
    dt_star = golden_section(objective, a, b, tol=1e-3)
    value = objective(dt_star)
    if value < values[best]:
        return float(grid[best]), float(values[best])
    return float(dt_star), float(value)
