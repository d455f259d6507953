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
from barrierchain.spectral import evolve, site_state

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


@pytest.mark.parametrize("case", list(CF4_CASES))
def test_planned_cf4_pass_is_bit_identical_to_per_step_kernel(case, monkeypatch):
    spec, sch, tail, sample_dt, h0, zero_tails = CF4_CASES[case]
    if zero_tails:
        monkeypatch.setattr(protocol, "field_at", _zero_tails)
    t_end = sch.t2 + tail
    times = protocol._sample_grid(sch, t_end, sample_dt)

    solves = []

    def counted_stevd(d, e):
        solves.append(d[[1, -2]].copy())
        return stevd(d, e)

    stevd = protocol.tridiagonal_eigh
    monkeypatch.setattr(protocol, "tridiagonal_eigh", counted_stevd)
    planned = protocol._run_once(spec, sch, t_end, times, h0)
    steps = []
    monkeypatch.setattr(protocol, "_integrate_active",
                        lambda *args: _reference_integrate_active(*args, steps))
    reference = protocol._run_once(spec, sch, t_end, times, h0)

    for got, want in zip(planned, reference):
        assert np.array_equal(got, want)
    assert planned[1].size > 0
    # the case exercises eigenpair reuse, and with zero tails a factor whose
    # driven entry is a signed zero built from a zero field
    assert len(solves) < 2 * len(steps)
    if zero_tails:
        assert any(np.any(d == 0.0) for d in solves)


@pytest.mark.parametrize("n", [2, 6, 8, 30])
def test_direct_stevd_matches_eigh_tridiagonal(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        d = rng.normal(scale=30.0, size=n)
        d[rng.random(n) < 0.3] = -0.0
        e = rng.normal(size=n - 1)
        w, v = protocol.tridiagonal_eigh(d, e)
        w_ref, v_ref = eigh_tridiagonal(d, e, lapack_driver="stevd")
        assert np.array_equal(w, w_ref)
        assert np.array_equal(v, v_ref)


@pytest.mark.parametrize("coupling", [1.0, 2.0])
def test_cf4_window_on_a_constant_drive_matches_the_exact_stage(coupling):
    # mid-stage, past the t1 switching window: both fields are K2 to double
    # precision, so the CF4 steps must reproduce the spectral propagation of
    # the same chain, coupling J included
    spec = ChainSpec(8, coupling=coupling)
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
