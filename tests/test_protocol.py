import contextlib
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from barrierchain import protocol
from barrierchain._csvio import format_csv
from barrierchain.chain import ChainSpec, FieldProfile, build_hamiltonian
from barrierchain.protocol import (
    ProtocolTrajectory,
    StepControlError,
    SwitchingSchedule,
    _stage_decomposition,
    field_at,
    optimal_interval,
    optimize_interval,
    simulate_protocol,
    storage_fidelity,
    two_level_interval,
)
from barrierchain.spectral import evolve, evolve_many, site_state

_CHUNK = protocol._CHUNK_ROWS

N8 = ChainSpec(8)
DT8 = optimal_interval(8, 4.0)  # 8 pi


def schedule8(**overrides):
    kwargs = dict(k1=8.0, k2=4.0, delta_t=DT8, t1=5.0)
    kwargs.update(overrides)
    return SwitchingSchedule(**kwargs)


def test_schedule_validation():
    sch = schedule8()
    assert sch.t2 == pytest.approx(5.0 + DT8)
    assert sch.smoothing_rate == 0.0
    assert SwitchingSchedule(1.0, 0.5, 2.0, smoothing_timescale=0.25).smoothing_rate == 4.0
    with pytest.raises(ValueError):
        SwitchingSchedule(k1=0.0, k2=4.0, delta_t=1.0)
    with pytest.raises(ValueError):
        SwitchingSchedule(k1=8.0, k2=-4.0, delta_t=1.0)
    with pytest.raises(ValueError):
        SwitchingSchedule(k1=8.0, k2=4.0, delta_t=0.0)
    with pytest.raises(ValueError):
        SwitchingSchedule(k1=8.0, k2=4.0, delta_t=1.0, t0=9.0, t1=5.0)
    with pytest.raises(ValueError):
        SwitchingSchedule(k1=8.0, k2=4.0, delta_t=1.0, smoothing_timescale=-0.1)


@pytest.mark.parametrize("field", ["k1", "k2", "delta_t", "t1", "t0", "smoothing_timescale"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_schedule_rejects_non_finite_values(field, value):
    # NaN passes every range comparison, and tau_s = inf would give rate 0
    # (ideal steps) on the smoothed run's switching windows
    with pytest.raises(ValueError, match="finite"):
        schedule8(**{field: value})


def test_step_fields_hit_the_three_stages():
    sch = schedule8()
    # sending stage: sender fenced in, receiver open
    assert field_at(sch, 1.0) == (8.0, 0.0)
    # transfer stage is inclusive at both switch instants
    for t in (5.0, 12.0, sch.t2):
        assert field_at(sch, t) == (4.0, 4.0)
    # storage stage: mirror of the first
    assert field_at(sch, sch.t2 + 1.0) == (0.0, 8.0)
    assert all(type(omega) is float for omega in field_at(sch, 1.0))


def test_step_fields_accept_arrays():
    sch = schedule8()
    t = np.array([0.0, 5.0, sch.t2 + 3.0])
    omega2, omega_nm1 = field_at(sch, t)
    assert np.array_equal(omega2, [8.0, 4.0, 0.0])
    assert np.array_equal(omega_nm1, [0.0, 4.0, 8.0])


def test_smoothed_fields_reach_the_step_plateaus():
    sch = schedule8(smoothing_timescale=0.2)
    # far from both switches the logistic tails are numerically dead
    assert field_at(sch, sch.t1 - 30.0) == pytest.approx((8.0, 0.0), abs=1e-12)
    assert field_at(sch, (sch.t1 + sch.t2) / 2.0)[0] == pytest.approx(4.0, abs=1e-9)
    assert field_at(sch, sch.t2 + 30.0) == pytest.approx((0.0, 8.0), abs=1e-12)
    # halfway values at the switch instants
    assert field_at(sch, sch.t1)[0] == pytest.approx(4.0 + 2.0, abs=1e-9)
    # the CF4 step evaluates both Gauss nodes in one call; each entry must
    # equal the single-time fields bit for bit
    t = sch.t1 + np.linspace(-2.0, sch.delta_t + 2.0, 57)
    omega2, omega_nm1 = field_at(sch, t)
    assert list(zip(omega2.tolist(), omega_nm1.tolist())) == [field_at(sch, s) for s in t.tolist()]


def test_interval_closed_forms():
    assert optimal_interval(30, 30.0) == pytest.approx(0.5 * np.pi * 900.0)
    assert optimal_interval(23, 30.0) == pytest.approx(0.25 * np.pi * 20.0 * 30.0)
    assert two_level_interval(30.0) == pytest.approx(2.0 * np.pi * 900.0)
    with pytest.raises(ValueError):
        optimal_interval(30, 0.0)


@pytest.mark.parametrize("k2", [0.0, -1.0, np.nan, np.inf])
def test_interval_formulas_reject_bad_k2(k2):
    # NaN passes a plain k2 <= 0 test, and both formulas returned NaN for it
    with pytest.raises(ValueError, match="positive and finite"):
        optimal_interval(30, k2)
    with pytest.raises(ValueError, match="positive and finite"):
        two_level_interval(k2)


@pytest.mark.parametrize(
    "kwargs",
    [dict(t_end=np.nan), dict(t_end=np.inf), dict(sample_dt=np.nan), dict(sample_dt=np.inf),
     dict(step_hint=np.nan), dict(step_hint=np.inf), dict(step_hint=0.0),
     dict(step_tolerance=np.nan), dict(step_tolerance=np.inf), dict(step_tolerance=-np.inf),
     dict(step_tolerance=-1.0)],
)
def test_protocol_run_rejects_non_finite_inputs(kwargs):
    sch = schedule8(smoothing_timescale=0.5)
    kwargs = dict(dict(t_end=sch.t2 + 1.0), **kwargs)
    with pytest.raises(ValueError, match="finite"):
        simulate_protocol(N8, sch, **kwargs)


def test_step_protocol_frozen_regression():
    traj = simulate_protocol(N8, schedule8(), t_end=schedule8().t2 + 20.0)
    assert traj.final_avg_fidelity == pytest.approx(0.9731121742686015, abs=1e-9)
    assert traj.survival_min_presend == pytest.approx(0.825523119810136, abs=1e-9)
    assert abs(np.linalg.norm(traj.final_state) - 1.0) < 1e-10
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)


def test_smoothed_protocol_frozen_regression():
    sch = schedule8(smoothing_timescale=0.5)
    traj = simulate_protocol(N8, sch, t_end=sch.t2 + 20.0)
    assert traj.final_avg_fidelity == pytest.approx(0.9753634902578622, abs=1e-7)
    assert abs(np.linalg.norm(traj.final_state) - 1.0) < 1e-8


def test_sharp_smoothing_converges_to_steps():
    sch = schedule8(smoothing_timescale=0.01)
    smooth = simulate_protocol(N8, sch, t_end=sch.t2 + 20.0)
    steps = simulate_protocol(N8, schedule8(), t_end=sch.t2 + 20.0)
    assert abs(smooth.final_avg_fidelity - steps.final_avg_fidelity) < 1e-3


def test_segment_composition_matches_three_static_stages():
    # an ideal-steps run is an exact product of three static propagators
    sch = schedule8()
    t_end = sch.t2 + 7.0
    traj = simulate_protocol(N8, sch, t_end=t_end, sample_dt=0.5)
    d1 = _stage_decomposition(N8, sch.k1, 0.0)
    d2 = _stage_decomposition(N8, sch.k2, sch.k2)
    d3 = _stage_decomposition(N8, 0.0, sch.k1)
    manual = evolve(
        d3, evolve(d2, evolve(d1, site_state(8, 1), sch.t1), sch.delta_t), 7.0
    )
    assert np.max(np.abs(traj.final_state - manual)) < 1e-10


def test_storage_fidelity_window_handling():
    sch = schedule8()
    traj = simulate_protocol(N8, sch, t_end=sch.t2 + 40.0)
    mean, drift = storage_fidelity(traj, 40.0)
    assert 0.9 < mean <= 1.0
    assert drift < 0.06
    _, zero_drift = storage_fidelity(traj, 0.0)
    assert zero_drift == 0.0
    with pytest.raises(ValueError):
        storage_fidelity(traj, 80.0)
    for window in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            storage_fidelity(traj, window)
        with pytest.raises(ValueError, match="finite"):
            optimize_interval(N8, sch, window=window)


def test_weak_release_barrier_fails_to_trap():
    sch = schedule8(k1=0.3)
    traj = simulate_protocol(N8, sch, t_end=sch.t2 + 40.0)
    _, drift = storage_fidelity(traj, 40.0)
    assert drift > 0.1


def test_step_control_error_when_tolerance_is_unreachable():
    spec = ChainSpec(6)
    sch = SwitchingSchedule(k1=2.0, k2=1.0, delta_t=0.1, t1=0.05, smoothing_timescale=0.01)
    with pytest.raises(StepControlError):
        simulate_protocol(
            spec, sch, t_end=0.2, sample_dt=0.05, step_hint=0.05, step_tolerance=0.0
        )


def test_trajectory_csv_layout():
    sch = schedule8()
    traj = simulate_protocol(N8, sch, t_end=sch.t2 + 2.0, sample_dt=5.0)
    columns = {
        "t": traj.times,
        "omega2": traj.omega2,
        "omegaNm1": traj.omega_nm1,
        "abs_f": traj.abs_f,
        "avg_fidelity": traj.avg_fidelity,
    }
    text = format_csv(columns, {"n": 8})
    lines = text.strip().splitlines()
    assert lines[0] == "# n = 8"
    assert lines[1] == "t,omega2,omegaNm1,abs_f,avg_fidelity"
    assert len(lines) == 2 + len(traj.times)


def test_optimize_interval_beats_its_seed():
    sch = schedule8()
    dt_star, best = optimize_interval(N8, sch, window=30.0, n_grid=21)
    assert 0.75 * DT8 <= dt_star <= 1.25 * DT8

    # the tuned interval can only improve on the closed-form seed; the small
    # slack absorbs the different quadrature grids of the two estimates
    def storage_mean(delta_t):
        s = schedule8(delta_t=delta_t)
        traj = simulate_protocol(N8, s, t_end=s.t2 + 30.0)
        return storage_fidelity(traj, 30.0)[0]

    assert best >= storage_mean(DT8) - 5e-3


def test_protocol_needs_six_sites():
    with pytest.raises(ValueError):
        simulate_protocol(ChainSpec(5), schedule8())


def _reference_cf4_step(spec, schedule, psi, t, h):
    """The per-step CF4 kernel the planned pass replaced: both Gauss-node
    fields, two eigh_tridiagonal factors, two matvecs each."""
    omega2, omega_nm1 = protocol.field_at(schedule, t + h * protocol._NODES)
    d1 = protocol._drive_diagonal(spec, omega2[0], omega_nm1[0])
    d2 = protocol._drive_diagonal(spec, omega2[1], omega_nm1[1])
    big, small = protocol._WEIGHT_BIG, protocol._WEIGHT_SMALL
    off = np.full(spec.n_sites - 1, -(big + small))
    for da, db in ((big, small), (small, big)):
        w, v = eigh_tridiagonal(da * d1 + db * d2, off, lapack_driver="stevd")
        psi = v @ (np.exp(-1j * h * w) * (v.T @ psi))
    return psi


def _reference_integrate_active(spec, schedule, psi, t_start, checkpoints, h0, steps):
    """The per-step loop the planned pass replaced; appends each step's t to steps."""
    states = []
    t = t_start
    for tc in checkpoints:
        span = tc - t
        if span > 0:
            n_sub = max(1, int(np.ceil(span / h0 - 1e-12)))
            h = span / n_sub
            for j in range(n_sub):
                psi = _reference_cf4_step(spec, schedule, psi, t + j * h, h)
                steps.append(t + j * h)
            t = tc
        states.append(psi)
    return states


def _zero_tails(schedule, t):
    """The logistic drive with tails below 1e-12 cut to exact zeros."""
    omega2, omega_nm1 = field_at(schedule, t)
    return np.where(omega2 < 1e-12, 0.0, omega2), np.where(omega_nm1 < 1e-12, 0.0, omega_nm1)


# (spec, schedule, t_end - t2, sample_dt, h0, zero tails); in each case the
# first switching window ends on a stretch where both fields are exactly K2
CF4_CASES = {
    "n8": (N8, schedule8(smoothing_timescale=0.1), 5.0, 0.05, 0.025, False),
    "n8-zero-tails": (N8, schedule8(smoothing_timescale=0.1), 5.0, 0.05, 0.025, True),
    "n30-window": (ChainSpec(30), SwitchingSchedule(k1=60.0, k2=30.0, delta_t=5.0, t1=2.5,
                                                    smoothing_timescale=0.05),
                   1.0, 0.1, 0.01, True),
}


def _propagate_then_sample(spec, schedule, t_end, sample_times, h0):
    """One full pass at base step h0: (site_n, presend_survival, final_psi)."""
    regions, psi = protocol._propagate(spec, schedule, t_end, sample_times, h0)
    return (*protocol._sample(schedule, regions), psi)


@pytest.mark.parametrize("case", list(CF4_CASES))
def test_planned_cf4_pass_is_bit_identical_to_per_step_kernel(case, monkeypatch):
    spec, sch, tail, sample_dt, h0, zero_tails = CF4_CASES[case]
    if zero_tails:
        monkeypatch.setattr(protocol, "field_at", _zero_tails)
    t_end = sch.t2 + tail
    times = protocol._sample_grid(sch, t_end, sample_dt)

    solves = []

    def counted_eigh(d, e):
        # one entry per stacked row, each a solved factor's driven entries
        solves.extend(d[:, [1, -2]].copy())
        return eigh(d, e)

    eigh = protocol.tridiagonal_eigh
    monkeypatch.setattr(protocol, "tridiagonal_eigh", counted_eigh)
    planned = _propagate_then_sample(spec, sch, t_end, times, h0)
    steps = []
    # the last argument is the pass's factor pool, None here
    monkeypatch.setattr(protocol, "_integrate_active",
                        lambda *args: _reference_integrate_active(*args[:-1], steps))
    reference = _propagate_then_sample(spec, sch, t_end, times, h0)

    for got, want in zip(planned, reference):
        assert np.array_equal(got, want)
    assert planned[1].size > 0
    # the case exercises eigenpair reuse, and with zero tails a factor whose
    # driven entry is a signed zero built from a zero field
    assert len(solves) < 2 * len(steps)
    if zero_tails:
        assert any(np.any(d == 0.0) for d in solves)


def _on_main():
    return threading.current_thread() is threading.main_thread()


def _schedule(monkeypatch, schedule):
    """Make the next runs solve their factor tasks under one schedule and
    return the list that records, per stacked solve, whether the state-loop
    thread ran it.  "inline": one CPU, so no worker and this thread solves
    every task; "worker": this thread never claims a task, so the worker
    solves them all; "slow-worker": each of the worker's solves first
    sleeps, so this thread solves most tasks."""
    monkeypatch.setattr(protocol, "_cpu_count", lambda: 1 if schedule == "inline" else 2)
    if schedule == "worker":
        claim = protocol._TaskCursor.claim
        monkeypatch.setattr(protocol._TaskCursor, "claim", lambda cursor: None if _on_main() else claim(cursor))
    on_main = []

    def recorded(d, e):
        on_main.append(_on_main())
        if schedule == "slow-worker" and not on_main[-1]:
            time.sleep(0.02)
        return eigh(d, e)

    eigh = protocol.tridiagonal_eigh
    monkeypatch.setattr(protocol, "tridiagonal_eigh", recorded)
    return on_main


# (spec, schedule, psi's seed, t_start, checkpoints, h0): the window around
# t1 of the n30-smoothed run below, 3,600 factors in 50 tasks of 72
LONG_WINDOW = (ChainSpec(30), SwitchingSchedule(k1=60.0, k2=30.0, delta_t=optimal_interval(30, 30.0), t1=50.0,
                                                smoothing_timescale=0.5),
               3, 27.5, np.arange(28.0, 73.0, 0.5), 0.025)


def _long_window_run():
    """``_integrate_active`` over LONG_WINDOW from a random state, given
    the pass's factor pool."""
    spec, sch, seed, t_start, checkpoints, h0 = LONG_WINDOW
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=spec.n_sites) + 1j * rng.normal(size=spec.n_sites)
    psi /= np.linalg.norm(psi)
    return lambda pool: protocol._integrate_active(spec, sch, psi, t_start, checkpoints, h0, pool)


@pytest.mark.parametrize("case", [*CF4_CASES, "n30-long-window"])
def test_factor_solves_keep_every_bit_on_any_thread_count(case, monkeypatch):
    """Every checkpoint state of ``_integrate_active`` is the same whoever
    solves the factor tasks: this thread alone, the worker alone, or mostly
    this thread beside a slowed worker.  Tasks are stack_rows(N) factors
    under every schedule, so they differ only in where their stacked
    solves run."""
    if case == "n30-long-window":
        windows = _long_window_run()
    else:
        spec, sch, tail, sample_dt, h0, zero_tails = CF4_CASES[case]
        if zero_tails:
            monkeypatch.setattr(protocol, "field_at", _zero_tails)
        t_end = sch.t2 + tail
        times = protocol._sample_grid(sch, t_end, sample_dt)

        def windows(pool):
            regions, _ = protocol._propagate(spec, sch, t_end, times, h0, pool)
            return [state for *_, decomp, states in regions if decomp is None for state in states]

    runs, solvers = {}, {}
    for schedule in ("inline", "worker", "slow-worker"):
        with pytest.MonkeyPatch.context() as patched:
            solvers[schedule] = _schedule(patched, schedule)
            with protocol._factor_pool() as pool:
                assert (pool is None) == (schedule == "inline")
                runs[schedule] = windows(pool)
    assert all(solvers["inline"])
    assert not any(solvers["worker"])
    assert len(solvers["worker"]) == len(solvers["inline"])
    assert runs["inline"]
    for schedule in ("worker", "slow-worker"):
        assert len(runs[schedule]) == len(runs["inline"])
        assert all(np.array_equal(a, b) for a, b in zip(runs[schedule], runs["inline"]))
    if case == "n30-long-window":
        assert len(solvers["inline"]) == 50
        assert sum(solvers["slow-worker"]) > 25


def test_factor_worker_holds_at_most_the_lookahead(monkeypatch):
    """The worker never claims past the ``_LOOKAHEAD`` tasks from the next
    one the state loop needs, however slow that loop is: at most
    ``_LOOKAHEAD`` tasks are solved and not yet taken, read here as
    ``_LOOKAHEAD + 1`` because a take is counted just after the worker may
    claim again.  That bounds the eigendata a window holds."""
    on_main = _schedule(monkeypatch, "worker")
    lock = threading.Lock()
    live, peak = [0], [0]
    solve = protocol._solve_factors

    def counted(*args):
        solved = solve(*args)
        with lock:
            live[0] += 1
            peak[0] = max(peak[0], live[0])
        return solved

    tasks = protocol._solved_tasks

    def slow_state_loop(*args):
        with contextlib.closing(tasks(*args)) as inner:
            for solved in inner:
                with lock:
                    live[0] -= 1
                time.sleep(0.01)
                yield solved

    monkeypatch.setattr(protocol, "_solve_factors", counted)
    monkeypatch.setattr(protocol, "_solved_tasks", slow_state_loop)
    with protocol._factor_pool() as pool:
        _long_window_run()(pool)
    assert len(on_main) == 50 and not any(on_main)
    assert protocol._LOOKAHEAD <= peak[0] <= protocol._LOOKAHEAD + 1
    assert live[0] == 0


def test_factor_worker_stops_when_the_tasks_are_closed_early():
    """Closing the task generator after one task stops the worker: the
    pool's one thread is free for a new job, and no task is solved past the
    look-ahead of the task taken."""
    solved = []

    def solve(a, b):
        time.sleep(0.002)
        solved.append(a)
        return a

    with protocol._factor_pool() as pool:
        if pool is None:
            pytest.skip("one CPU: no worker")
        tasks = protocol._solved_tasks(solve, [(k, k + 1) for k in range(40)], pool)
        assert next(tasks) == 0
        tasks.close()
        assert pool.submit(len, solved).result(timeout=10) <= protocol._LOOKAHEAD + 1
    assert len(solved) <= protocol._LOOKAHEAD + 1


def test_factor_tasks_are_each_solved_once_under_fast_thread_switching(monkeypatch):
    """With the interpreter switching threads every microsecond, each task
    is still claimed by one thread only: every task is solved exactly once
    and taken in order."""
    monkeypatch.setattr(protocol, "_cpu_count", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            calls = []

            def solve(a, b):
                time.sleep(0)  # let the other thread run, so both claim tasks
                calls.append(a)
                return a

            with protocol._factor_pool() as pool:
                taken = list(protocol._solved_tasks(solve, [(k, k + 1) for k in range(300)], pool))
            assert taken == list(range(300))
            assert sorted(calls) == taken
    finally:
        sys.setswitchinterval(interval)


def test_factor_threads_end_with_the_call(monkeypatch):
    """The worker thread exists only inside simulate_protocol: it is gone
    after a return, after a StepControlError and after a worker's
    LinAlgError, which surfaces from the call; an error in the state loop
    stops it too.
    This thread claims no task, so the worker solves every one."""
    on_main = _schedule(monkeypatch, "worker")
    before = threading.active_count()
    sch = schedule8(smoothing_timescale=0.1)
    simulate_protocol(N8, sch, t_end=sch.t2 + 1.0)
    assert on_main and not any(on_main)
    assert threading.active_count() == before

    # fidelities that never settle: every halving pass runs, then the error
    with pytest.MonkeyPatch.context() as patched:
        fidelities = iter(np.arange(100.0))
        patched.setattr(protocol, "average_fidelity", lambda f: next(fidelities))
        on_main.clear()
        tiny = SwitchingSchedule(k1=2.0, k2=1.0, delta_t=0.1, t1=0.05, smoothing_timescale=0.001)
        with pytest.raises(StepControlError):
            simulate_protocol(ChainSpec(6), tiny, t_end=0.2, sample_dt=1.0, step_hint=1.0)
        assert on_main and not any(on_main)
        assert threading.active_count() == before

    solve = protocol.tridiagonal_eigh

    def failing(d, e):
        if not _on_main():
            raise np.linalg.LinAlgError("injected")
        return solve(d, e)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(protocol, "tridiagonal_eigh", failing)
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            simulate_protocol(N8, sch, t_end=sch.t2 + 1.0)
        assert threading.active_count() == before

    # a task whose second factor has no eigenvectors: the state loop fails
    # applying the first of a window's 25 tasks, with the worker waiting at
    # the look-ahead bound while the error passes through the pool's exit
    solve_factors = protocol._solve_factors

    def short(*args):
        v, slot, phases = solve_factors(*args)
        return v, slot[:1], phases

    monkeypatch.setattr(protocol, "_solve_factors", short)
    spec, sch = LONG_WINDOW[:2]
    with pytest.raises(IndexError):
        simulate_protocol(spec, sch, t_end=sch.t2 + 1.0)
    assert threading.active_count() == before


def test_factor_threads_stay_at_two_on_a_larger_host(monkeypatch):
    """A process that may run on eight CPUs still solves its factors on
    two threads, this one and one worker: two is the count measured."""
    monkeypatch.setattr(protocol, "_cpu_count", lambda: 8)
    before = threading.active_count()
    solvers, alive = set(), set()
    solve = protocol.tridiagonal_eigh

    def recorded(d, e):
        solvers.add(threading.current_thread().name)
        alive.add(threading.active_count())
        return solve(d, e)

    monkeypatch.setattr(protocol, "tridiagonal_eigh", recorded)
    sch = schedule8(smoothing_timescale=0.1)
    simulate_protocol(N8, sch, t_end=sch.t2 + 1.0)
    assert alive == {before + 1}
    assert len(solvers - {threading.current_thread().name}) <= 1


@pytest.mark.parametrize("n", [2, 6, 8, 30])
def test_tridiagonal_eigh_matches_stevd(n):
    """The protocol's eigensolver, numpy's eigh on a stack of dense bands,
    gives scipy stevd's levels and the magnitudes of its vectors bit for
    bit, on signed-zero diagonals too; the signs never reach a state,
    since each factor applies v (p * (v.T psi))."""
    rng = np.random.default_rng(n)
    d = rng.normal(scale=30.0, size=(20, n))
    d[rng.random((20, n)) < 0.3] = -0.0
    e = rng.normal(size=(20, n - 1))
    w, v = protocol.tridiagonal_eigh(d, e)
    for i in range(20):
        w_ref, v_ref = eigh_tridiagonal(d[i], e[i], lapack_driver="stevd")
        assert np.array_equal(w[i], w_ref)
        assert np.array_equal(np.abs(v[i]), np.abs(v_ref))


def test_logistic_is_expit_bit_for_bit():
    """``field_at``'s logistic gives scipy.special.expit's bits, across the
    band where exp(-x) overflows (x near -709.78), the saturation at 40 and
    the arguments of order 10^3 a switching window meets."""
    from scipy.special import expit

    rng = np.random.default_rng(11)
    x = np.concatenate([
        rng.uniform(-745.0, -700.0, 20000), rng.uniform(36.0, 41.0, 20000), rng.uniform(-3000.0, 3000.0, 20000),
        rng.normal(scale=3.0, size=20000),
        [-np.inf, -745.0, -709.8, -709.78, -709.0, -0.0, 0.0, 40.0, np.nextafter(40.0, 41.0), np.inf],
    ])
    assert np.array_equal(protocol._logistic(x).view(np.int64), expit(x).view(np.int64))
    assert protocol._logistic(np.float64(-709.5)).shape == ()
    schedule = SwitchingSchedule(k1=60.0, k2=30.0, delta_t=40.0, t1=50.0, smoothing_timescale=0.5)
    t = np.linspace(-400.0, 500.0, 20001)
    omega2, omega_nm1 = field_at(schedule, t)
    alpha, t1, t2 = 2.0, 50.0, 90.0
    # some of alpha (t - t1) fall in the band where exp(-x) nearly overflows
    assert np.any((alpha * (t - t1) > -709.8) & (alpha * (t - t1) < -709.0))
    assert np.array_equal(omega2, 30.0 * expit(-alpha * (t - t2)) + 30.0 * expit(-alpha * (t - t1)))
    assert np.array_equal(omega_nm1, 30.0 * expit(alpha * (t - t1)) + 30.0 * expit(alpha * (t - t2)))


def test_cf4_window_on_a_constant_drive_matches_the_exact_stage():
    # mid-stage, past the t1 switching window: both fields are K2 to double
    # precision, so the CF4 steps must reproduce the spectral propagation of
    # the same chain
    spec = ChainSpec(8)
    sch = schedule8(smoothing_timescale=0.1)
    t_start, checkpoints = 12.0, np.array([13.0, 14.5, 16.0])
    assert np.all(np.array(field_at(sch, np.linspace(t_start, checkpoints[-1], 101))) == 4.0)
    rng = np.random.default_rng(7)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi /= np.linalg.norm(psi)

    states = protocol._integrate_active(spec, sch, psi, t_start, checkpoints, 0.025)
    stage = _stage_decomposition(spec, 4.0, 4.0)
    for tc, state in zip(checkpoints, states):
        exact = evolve(stage, psi, tc - t_start)
        assert np.max(np.abs(state - exact)) <= 1e-12


def _reference_run_once(spec, schedule, t_end, sample_times, h0):
    """The full-table pass the propagate-then-sample pass replaced: every
    sample row of every site, on every pass."""
    n = spec.n_sites
    psi = site_state(n, 1)
    samples = np.empty((sample_times.size, n), dtype=complex)
    presend = []
    for lo, hi, active in protocol._switch_regions(schedule, t_end):
        mask = (sample_times >= lo) & (sample_times < hi)
        if hi == t_end:
            mask = (sample_times >= lo) & (sample_times <= hi)
        inside = sample_times[mask]
        if not active:
            decomp = _stage_decomposition(spec, *field_at(schedule, 0.5 * (lo + hi)))
            if inside.size:
                samples[mask] = evolve_many(decomp, psi, inside - lo)
            if lo < schedule.t1:
                dt_fine = 2.0 * np.pi / np.sqrt(schedule.k1**2 + 4.0) / 40.0
                fine = np.arange(lo, min(hi, schedule.t1), dt_fine)
                presend.append(np.abs(evolve_many(decomp, psi, fine - lo)[:, 0]) ** 2)
            psi = evolve(decomp, psi, hi - lo)
        else:
            checkpoints = np.unique(np.concatenate([inside, [hi]]))
            states = protocol._integrate_active(spec, schedule, psi, lo, checkpoints, h0)
            for tc, state in zip(checkpoints, states):
                if tc < schedule.t1:
                    presend.append(np.array([np.abs(state[0]) ** 2]))
            if inside.size:
                samples[mask] = np.array(states)[np.isin(checkpoints, inside)]
            psi = states[-1]
    return samples, np.concatenate(presend), psi


def _reference_simulate(spec, schedule, t_end, sample_dt, step_hint):
    """The step-halving loop over full-table passes; returns the sample
    times, the last pass and its step."""
    times = protocol._sample_grid(schedule, t_end, sample_dt)
    if schedule.smoothing_timescale == 0:
        return times, _reference_run_once(spec, schedule, t_end, times, np.inf)
    h = min(step_hint, sample_dt)
    run = _reference_run_once(spec, schedule, t_end, times, h)
    previous = protocol.average_fidelity(abs(run[0][-1, -1]))
    while True:
        h /= 2.0
        run = _reference_run_once(spec, schedule, t_end, times, h)
        current = protocol.average_fidelity(abs(run[0][-1, -1]))
        if abs(current - previous) < 1e-8:
            return times, run
        previous = current


# (schedule, t_end - t2, sample_dt, step_hint, passes): the smoothed cases
# end in a constant region and inside a switching window
PROBE_CASES = {
    "step": (schedule8(), 20.0, 0.05, None, 0),
    "smoothed-constant-end": (schedule8(smoothing_timescale=0.2), 10.0, 0.2, 0.2, 4),
    "smoothed-window-end": (schedule8(smoothing_timescale=2.0), 20.0, 0.2, 0.25, 3),
}


@pytest.mark.parametrize("case", list(PROBE_CASES))
def test_probe_passes_keep_every_bit_of_the_full_table_passes(case, monkeypatch):
    sch, tail, sample_dt, step_hint, passes = PROBE_CASES[case]
    t_end = sch.t2 + tail
    steps = []
    integrate = protocol._integrate_active

    def counted(*args):
        steps.append(args[5])  # h0
        return integrate(*args)

    monkeypatch.setattr(protocol, "_integrate_active", counted)
    traj = simulate_protocol(N8, sch, t_end=t_end, sample_dt=sample_dt, step_hint=step_hint)
    probed = list(steps)
    steps.clear()
    times, (samples, presend, _) = _reference_simulate(N8, sch, t_end, sample_dt, step_hint)

    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.abs_f, np.abs(samples[:, -1]))
    assert np.array_equal(traj.avg_fidelity, protocol.average_fidelity(np.abs(samples[:, -1])))
    assert traj.survival_min_presend == presend.min()
    assert np.array_equal(traj.final_state, samples[-1])
    # the same passes at the same steps, and sampling integrates nothing
    assert probed == steps
    assert len(set(steps)) == passes


FINAL_STATE_CASES = {
    **{case: (N8, *args[:-1]) for case, args in PROBE_CASES.items()},
    # the protocol config's run, at its optimized interval
    "n30-step": (ChainSpec(30), SwitchingSchedule(k1=60.0, k2=30.0, delta_t=1377.3979848963968, t1=50.0),
                 500.0, 0.05, None),
    "n30-smoothed": (ChainSpec(30), SwitchingSchedule(k1=60.0, k2=30.0, delta_t=optimal_interval(30, 30.0), t1=50.0,
                                                      smoothing_timescale=0.5),
                     100.0, 0.5, None),
}


@pytest.mark.parametrize("case", list(FINAL_STATE_CASES))
def test_final_state_is_the_last_sample_row(case):
    # a pass states its end once: the final state, the last sampled |f| and
    # the final fidelity the step halving compares all share its bits
    spec, sch, tail, sample_dt, step_hint = FINAL_STATE_CASES[case]
    traj = simulate_protocol(spec, sch, t_end=sch.t2 + tail, sample_dt=sample_dt, step_hint=step_hint)
    assert traj.times[-1] == sch.t2 + tail
    assert np.abs(traj.final_state)[-1] == traj.abs_f[-1]
    assert protocol.average_fidelity(np.abs(traj.final_state[-1])) == traj.final_avg_fidelity


def test_constant_regions_and_windows_square_survival_alike():
    # the same site-1 amplitudes, read once from a constant region's fine
    # survival grid and once as a switching window's checkpoint states,
    # give the same survival bits
    sch = SwitchingSchedule(k1=60.0, k2=30.0, delta_t=optimal_interval(30, 30.0), t1=50.0)
    spec = ChainSpec(30)
    decomp = _stage_decomposition(spec, sch.k1, 0.0)
    psi = site_state(30, 1)
    dt_fine = 2.0 * np.pi / np.sqrt(sch.k1**2 + 4.0) / 40.0
    fine = np.arange(0.0, sch.t1, dt_fine)
    constant = (0.0, sch.t1, np.empty(0), decomp, psi)
    window = (0.0, fine[-1], fine[:-1], None, list(evolve_many(decomp, psi, fine)))
    _, from_constant = protocol._sample(sch, [constant])
    _, from_window = protocol._sample(sch, [window])
    assert from_constant.size == fine.size
    assert np.array_equal(from_constant, from_window)


def _regions(sch, t_end):
    regions = protocol._switch_regions(sch, t_end)
    # a partition of [t0, t_end] into non-empty regions
    assert regions[0][0] == sch.t0 and regions[-1][1] == t_end
    assert all(a[1] == b[0] for a, b in zip(regions, regions[1:]))
    assert all(lo < hi for lo, hi, _ in regions)
    return regions


def test_switch_regions_partition_the_run():
    # ideal steps have no switching windows: the three stages, or two when
    # the run starts at t1
    sch = schedule8()
    t_end = sch.t2 + 20.0
    assert _regions(sch, t_end) == [(0.0, 5.0, False), (5.0, sch.t2, False), (sch.t2, t_end, False)]
    sch = schedule8(t1=0.0)
    assert _regions(sch, t_end) == [(0.0, sch.t2, False), (sch.t2, t_end, False)]
    # two separate windows of half-width 45 tau_s, the second one cut at t_end
    sch = schedule8(t1=10.0, smoothing_timescale=0.1)
    w = 45.0 * 0.1
    t_end = sch.t2 + 2.0
    assert _regions(sch, t_end) == [
        (0.0, 10.0 - w, False), (10.0 - w, 10.0 + w, True), (10.0 + w, sch.t2 - w, False), (sch.t2 - w, t_end, True),
    ]
    # windows that touch (90 tau_s == delta_t) or overlap merge into one
    for delta_t, tau_s in ((9.0, 0.1), (DT8, 0.3)):
        sch = schedule8(t1=20.0, delta_t=delta_t, smoothing_timescale=tau_s)
        w = 45.0 * tau_s
        t_end = sch.t2 + 20.0
        assert _regions(sch, t_end) == [(0.0, 20.0 - w, False), (20.0 - w, sch.t2 + w, True), (sch.t2 + w, t_end, False)]
    # a window that opens before t0 starts at t0
    sch = schedule8(t1=1.0, smoothing_timescale=0.1)
    assert _regions(sch, sch.t2 + 20.0)[0] == (0.0, 1.0 + 4.5, True)


# the edges of the current chunk, and fixed sizes that are whole multiples
# of it (2048) or leave a one-row last chunk (2049, 4097)
@pytest.mark.parametrize(
    "size",
    sorted({1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 2047, 2048, 2049, 4097}),
)
def test_chunked_column_is_bit_identical_to_the_whole_table(size, monkeypatch):
    rng = np.random.default_rng(size)
    decomp = _stage_decomposition(N8, 8.0, 0.0)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    times = np.sort(rng.uniform(0.0, 500.0, size))
    whole = evolve_many(decomp, psi, times)

    rows = []

    def counted(decomp, psi, times):
        rows.append(times.size)
        return evolve_many(decomp, psi, times)

    monkeypatch.setattr(protocol, "evolve_many", counted)
    for site in (0, -1):
        assert np.array_equal(protocol._column(decomp, psi, times, site), whole[:, site])
    # every row once per site
    assert sum(rows) == 2 * size
    assert max(rows) <= _CHUNK


def test_sampling_memory_is_bounded_by_the_chunk():
    # 39,276 sample rows; one rows x N complex table is 18 MiB
    spec = ChainSpec(30)
    sch = SwitchingSchedule(k1=60.0, k2=30.0, delta_t=optimal_interval(30, 30.0), t1=50.0)
    tracemalloc.start()
    try:
        traj = simulate_protocol(spec, sch, t_end=sch.t2 + 500.0, sample_dt=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = traj.times.size * spec.n_sites * np.dtype(complex).itemsize
    assert traj.times.size == 39276
    assert peak < table / 2
