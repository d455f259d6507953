import numpy as np
import pytest

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
from barrierchain.spectral import eigendecompose, evolve, site_state

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
    assert abs(traj.final_state.norm() - 1.0) < 1e-10
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)


def test_smoothed_protocol_frozen_regression():
    sch = schedule8(smoothing_timescale=0.5)
    traj = simulate_protocol(N8, sch, t_end=sch.t2 + 20.0)
    assert traj.final_avg_fidelity == pytest.approx(0.9753634902578622, abs=1e-7)
    assert abs(traj.final_state.norm() - 1.0) < 1e-8


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
    assert np.max(np.abs(traj.final_state.amplitudes - manual.amplitudes)) < 1e-10


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
