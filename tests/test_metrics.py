import numpy as np
import pytest

from barrierchain._csvio import format_csv
from barrierchain.chain import ChainSpec, FieldProfile, barrier_profile, build_hamiltonian, uniform_profile
from barrierchain.metrics import (
    _golden_section,
    _peak_search,
    average_fidelity,
    bilocalized_pair_by_energy,
    haar_qubits,
    ipr,
    localization_report,
    max_fidelity,
    rabi_transfer_time,
    receiver_fidelity,
    transfer_series,
)
from barrierchain.spectral import eigendecompose, scan_amplitude, transition_amplitude, transition_weights


def decompose(n, omega):
    spec = ChainSpec(n)
    return eigendecompose(build_hamiltonian(spec, barrier_profile(spec, omega)))


def test_average_fidelity_anchors():
    assert average_fidelity(0.0) == pytest.approx(0.5)
    assert average_fidelity(1.0) == pytest.approx(1.0)
    assert average_fidelity(0.5) == pytest.approx(0.5 / 3.0 + 0.25 / 6.0 + 0.5)


def test_average_fidelity_range_check():
    with pytest.raises(ValueError):
        average_fidelity(1.1)
    with pytest.raises(ValueError):
        average_fidelity(-0.2)
    # tiny float excursions from the evolution are clamped, not rejected
    assert average_fidelity(1.0 + 1e-12) == pytest.approx(1.0)


def test_average_fidelity_array_is_bit_identical_to_scalar():
    x = np.array([0.8064621134539653, 0.0, 1.0, 1.0 + 1e-12])
    out = average_fidelity(x)
    assert isinstance(out, np.ndarray) and out.shape == x.shape
    assert isinstance(average_fidelity(x[0]), float)
    # the square is libm pow, as Python's **; numpy's x**2 (x*x) gives
    # 0.8772175612240944 for the first input
    assert out[0] == 0.8772175612240946
    assert out.tolist() == [0.8772175612240946, 0.5, 1.0, 1.0]
    clipped = [min(max(v, 0.0), 1.0) for v in x.tolist()]
    assert out.tolist() == [v / 3.0 + v**2 / 6.0 + 0.5 for v in clipped]
    assert out.tolist() == [average_fidelity(v) for v in x.tolist()]
    with pytest.raises(ValueError):
        average_fidelity(np.array([0.5, 1.1]))
    with pytest.raises(ValueError):
        average_fidelity(np.array([[0.5], [np.nan]]))


def test_ipr_bounds():
    assert ipr(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert ipr(np.ones(7) / np.sqrt(7)) == pytest.approx(7.0)
    assert ipr(np.array([1.0, 1.0j, 0.0])) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        ipr(np.zeros(4))


def test_ipr_scale_invariance():
    vec = np.array([0.3, -0.8, 0.1, 0.5])
    assert ipr(vec) == pytest.approx(ipr(3.7 * vec))


def test_transfer_series_columns():
    decomp = decompose(6, 4.0)
    times = np.linspace(0.0, 8.0, 9)
    series = transfer_series(decomp, times)
    assert list(series) == ["t", "abs_f", "avg_fidelity", "concurrence"]
    assert np.array_equal(series["t"], times)
    # the transferred concurrence is |f| itself
    assert np.array_equal(series["concurrence"], series["abs_f"])
    assert series["avg_fidelity"].tolist() == [average_fidelity(a) for a in series["abs_f"].tolist()]
    assert np.array_equal(series["abs_f"], np.abs(transition_amplitude(decomp, 1, 6, times)))
    # each row is the single-time amplitude, up to the summation order
    for t, abs_f in zip(series["t"].tolist(), series["abs_f"].tolist()):
        assert abs_f == pytest.approx(abs(transition_amplitude(decomp, 1, 6, t)), abs=1e-12)
    inner = transfer_series(decomp, times, sender=2, receiver=4)
    assert np.array_equal(inner["abs_f"], np.abs(transition_amplitude(decomp, 2, 4, times)))


def test_transfer_record_concurrence_equals_abs_f():
    decomp = decompose(6, 4.0)
    row = transfer_series(decomp, [3.7])
    assert row["concurrence"][0] == row["abs_f"][0]
    assert row["avg_fidelity"][0] == pytest.approx(average_fidelity(row["abs_f"][0]))


def test_transfer_series_matches_records():
    decomp = decompose(5, 2.0)
    times = np.linspace(0.0, 8.0, 9)
    series = transfer_series(decomp, times)
    assert len(series["t"]) == 9
    for t, abs_f in zip(series["t"][::3].tolist(), series["abs_f"][::3].tolist()):
        assert abs_f == pytest.approx(abs(transition_amplitude(decomp, 1, 5, t)), abs=1e-12)


def test_records_to_csv_layout():
    decomp = decompose(5, 2.0)
    text = format_csv(transfer_series(decomp, [0.0, 1.0]), {"n": 5})
    lines = text.strip().splitlines()
    assert lines[0] == "# n = 5"
    assert lines[1] == "t,abs_f,avg_fidelity,concurrence"
    assert len(lines) == 4


def test_localization_report_identifies_pairs():
    spec = ChainSpec(18)
    profile = barrier_profile(spec, 50.0)
    report = localization_report(eigendecompose(build_hamiltonian(spec, profile)), profile)
    # barrier levels are pushed to the top of the spectrum
    assert report.barrier_pair == (16, 17)
    assert report.gap > 0
    for k in report.bilocalized_pair:
        assert report.ipr_per_state[k] == pytest.approx(2.0, abs=0.2)


def test_localization_report_needs_two_barriers():
    spec = ChainSpec(8)
    with pytest.raises(ValueError):
        localization_report(
            eigendecompose(build_hamiltonian(spec, uniform_profile(spec))),
            uniform_profile(spec),
        )


@pytest.mark.parametrize("n,omega", [(18, 50.0), (22, 30.0), (16, 12.0)])
def test_pair_selection_methods_agree(n, omega):
    spec = ChainSpec(n)
    profile = barrier_profile(spec, omega)
    decomp = eigendecompose(build_hamiltonian(spec, profile))
    report = localization_report(decomp, profile)
    assert bilocalized_pair_by_energy(decomp) == report.bilocalized_pair


def test_rabi_transfer_time():
    spec = ChainSpec(12)
    profile = barrier_profile(spec, 10.0)
    report = localization_report(eigendecompose(build_hamiltonian(spec, profile)), profile)
    assert rabi_transfer_time(report) == pytest.approx(np.pi / report.gap)


def test_golden_section_finds_quadratic_peak():
    peak = _golden_section(lambda x: -((x - 1.7) ** 2), 0.0, 3.0, tol=1e-6)
    assert peak == pytest.approx(1.7, abs=1e-5)


def test_max_fidelity_two_site_chain():
    # N=2 has |f| = |sin t|, perfect transfer at pi/2
    spec = ChainSpec(2)
    decomp = eigendecompose(build_hamiltonian(spec, uniform_profile(spec)))
    t_star, fbar = max_fidelity(decomp, (0.0, 3.0))
    assert fbar == pytest.approx(1.0, abs=1e-9)
    assert t_star == pytest.approx(np.pi / 2.0, abs=1e-3)
    # |f| still rises at the window's end: the refinement stays inside the
    # window and falls back to the last grid point
    t_edge, f_edge = max_fidelity(decomp, (0.0, 1.0))
    assert t_edge == 1.0
    assert f_edge == pytest.approx(average_fidelity(np.sin(1.0)), abs=1e-12)


def test_max_fidelity_two_equal_peaks_resolve_deterministically():
    spec = ChainSpec(2)
    decomp = eigendecompose(build_hamiltonian(spec, uniform_profile(spec)))
    # the window holds two equal peaks, at pi/2 and 3 pi/2; the scan must
    # land on one of them and do so reproducibly
    t_star, fbar = max_fidelity(decomp, (0.0, 6.0))
    assert fbar == pytest.approx(1.0, abs=1e-9)
    assert min(abs(t_star - np.pi / 2.0), abs(t_star - 3.0 * np.pi / 2.0)) < 1e-3
    assert max_fidelity(decomp, (0.0, 6.0)) == (t_star, fbar)


def test_max_fidelity_scalar_window_and_errors():
    decomp = decompose(6, 4.0)
    t_a, f_a = max_fidelity(decomp, 30.0)
    t_b, f_b = max_fidelity(decomp, (0.0, 30.0))
    assert (t_a, f_a) == (t_b, f_b)
    with pytest.raises(ValueError):
        max_fidelity(decomp, (5.0, 5.0))


@pytest.mark.parametrize("hi", [4000.0, 20000.0])
def test_max_fidelity_matches_direct_scan(hi):
    """Gate 6's N=11, omega=10 chain: the blocked scan picks the direct
    scan's grid argmax, and the same refinement then gives the same peak."""
    decomp = decompose(11, 10.0)
    step = 0.25
    grid = np.arange(0.0, hi + step, step)
    grid = grid[grid <= hi]
    direct = np.abs(transition_amplitude(decomp, 1, 11, grid))
    blocked = np.abs(scan_amplitude(decomp, transition_weights(decomp, 1, 11), 0.0, step, grid.size))
    assert int(np.argmax(blocked)) == int(np.argmax(direct))

    def objective(t):
        return abs(transition_amplitude(decomp, 1, 11, t))

    t_ref, abs_f_ref = _peak_search(
        objective, lambda g: np.abs(transition_amplitude(decomp, 1, 11, g)), 0.0, hi, step
    )
    assert max_fidelity(decomp, (0.0, hi)) == (t_ref, average_fidelity(abs_f_ref))


def test_receiver_fidelity_limits():
    rng = np.random.default_rng(0)
    for _ in range(10):
        alpha, beta = haar_qubits(1, rng.integers(1 << 30))
        alpha, beta = complex(alpha[0]), complex(beta[0])
        perfect = np.zeros(5, dtype=complex)
        perfect[-1] = np.exp(1.3j)
        assert receiver_fidelity(perfect, alpha, beta) == pytest.approx(1.0)
        lost = np.zeros(5, dtype=complex)
        lost[1] = 1.0
        assert receiver_fidelity(lost, alpha, beta) == pytest.approx(abs(alpha) ** 2)


def test_receiver_fidelity_closed_form():
    # F = |a|^4 + |a b|^2 (1 - f^2) + |b|^4 f^2 + 2 |a b|^2 f for |f| = f
    alpha, beta = 0.6, 0.8j
    f = 0.55
    amps = np.zeros(4, dtype=complex)
    amps[-1] = f * np.exp(-0.7j)
    expected = (
        abs(alpha) ** 4
        + abs(alpha * beta) ** 2 * (1 - f**2)
        + abs(beta) ** 4 * f**2
        + 2 * abs(alpha * beta) ** 2 * f
    )
    assert receiver_fidelity(amps, alpha, beta) == pytest.approx(expected, abs=1e-14)


def test_haar_qubits_seeded_and_normalized():
    a1, b1 = haar_qubits(400, seed=5)
    a2, b2 = haar_qubits(400, seed=5)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert np.allclose(np.abs(a1) ** 2 + np.abs(b1) ** 2, 1.0, atol=1e-12)
    # uniform on the sphere: excitation weight averages 1/2
    a, b = haar_qubits(20000, seed=6)
    assert np.mean(np.abs(b) ** 2) == pytest.approx(0.5, abs=0.02)
