import numpy as np
import pytest

from barrierchain.chain import ChainSpec, barrier_profile, build_hamiltonian, ebit_barrier_profile
from barrierchain.ebit import (
    EbitState,
    dominant_pair_gap,
    ebit_window,
    evolve_ebit,
    pair_concurrence,
    peak_pair_concurrence,
)
from barrierchain.oracle import embed_amplitudes, reduced_state, wootters_concurrence
from barrierchain.spectral import eigendecompose, transition_amplitude

from _full_grid import full_grid_peak_pair_concurrence

HALF = 2.0 ** -0.5


def test_ebit_state_must_be_normalized():
    EbitState(HALF, -HALF)
    EbitState(0.6, 0.8j)
    with pytest.raises(ValueError):
        EbitState(1.0, 0.5)


def test_pair_concurrence_formula():
    p = np.zeros(6, dtype=complex)
    p[-2] = 0.3 * np.exp(0.2j)
    p[-1] = 0.4 * np.exp(-1.0j)
    assert pair_concurrence(p) == pytest.approx(0.24)
    assert pair_concurrence(np.zeros(6)) == 0.0


def test_evolve_ebit_initial_condition():
    spec = ChainSpec(9)
    profile = ebit_barrier_profile(spec, 6.0)
    state = EbitState(0.6, 0.8j)
    p = evolve_ebit(spec, profile, state, 0.0)
    assert p[0] == pytest.approx(0.6)
    assert p[1] == pytest.approx(0.8j)
    assert np.max(np.abs(p[2:])) < 1e-14


def test_evolve_ebit_is_linear_in_the_pair_state():
    spec = ChainSpec(8)
    profile = ebit_barrier_profile(spec, 5.0)
    decomp = eigendecompose(build_hamiltonian(spec, profile))
    state = EbitState(HALF, -HALF)
    t = 7.3
    p = evolve_ebit(spec, profile, state, t, decomp)
    for j in range(8):
        expected = HALF * transition_amplitude(decomp, 1, j + 1, t) - HALF * transition_amplitude(
            decomp, 2, j + 1, t
        )
        assert p[j] == pytest.approx(expected, abs=1e-12)


def test_evolve_ebit_rejects_wrong_barrier_layout():
    spec = ChainSpec(8)
    with pytest.raises(ValueError):
        evolve_ebit(spec, barrier_profile(spec, 5.0), EbitState(HALF, HALF), 1.0)
    with pytest.raises(ValueError):
        evolve_ebit(ChainSpec(9), ebit_barrier_profile(ChainSpec(8), 5.0), EbitState(HALF, HALF), 1.0)


def test_receiver_pair_concurrence_matches_wootters():
    # full-register partial trace agrees with 2 |p_{N-1} p_N| at random times
    spec = ChainSpec(8)
    profile = ebit_barrier_profile(spec, 5.0)
    state = EbitState(HALF, HALF)
    rng = np.random.default_rng(17)
    for t in rng.uniform(0.0, 40.0, 6):
        p = evolve_ebit(spec, profile, state, float(t))
        rho = reduced_state(embed_amplitudes(8, p), (7, 8))
        assert wootters_concurrence(rho) == pytest.approx(pair_concurrence(p), abs=1e-10)


def test_dominant_pair_gap_shrinks_with_barrier_height():
    spec = ChainSpec(15)
    state = EbitState(HALF, HALF)
    gaps = [
        dominant_pair_gap(spec, ebit_barrier_profile(spec, omega), state)
        for omega in (5.0, 15.0)
    ]
    assert gaps[0] > gaps[1] > 0


def test_ebit_window_covers_three_beats():
    spec = ChainSpec(15)
    lo, hi = ebit_window(spec, 8.0)
    gap = dominant_pair_gap(spec, ebit_barrier_profile(spec, 8.0), EbitState(HALF, HALF))
    assert lo == 0.0
    assert hi == pytest.approx(3.0 * np.pi / gap)


def test_peak_search_beats_its_own_grid():
    spec = ChainSpec(10)
    state = EbitState(HALF, HALF)
    for omega in (6.0, 15.0):  # omega=15: a long window, over 16384 grid points
        profile = ebit_barrier_profile(spec, omega)
        window = ebit_window(spec, omega)
        t_star, c_star = peak_pair_concurrence(spec, profile, state, window)
        grid = np.linspace(window[0], window[1], 4001)
        coarse = max(
            pair_concurrence(evolve_ebit(spec, profile, state, float(t))) for t in grid[::40]
        )
        assert window[0] <= t_star <= window[1]
        assert c_star >= coarse - 1e-12
    assert window[1] / 0.25 > 16384
    with pytest.raises(ValueError):
        peak_pair_concurrence(spec, profile, state, (5.0, 5.0))


@pytest.mark.parametrize("n", [9, 12, 21, 33])
@pytest.mark.parametrize("omega", [2.0, 6.0, 15.0, 45.0])
def test_pair_peak_search_is_bit_identical_to_full_grid(n, omega):
    spec = ChainSpec(n)
    profile = ebit_barrier_profile(spec, omega)
    window = ebit_window(spec, omega)
    for state in (EbitState(HALF, HALF), EbitState(HALF, -HALF)):
        result = peak_pair_concurrence(spec, profile, state, window)
        assert result == full_grid_peak_pair_concurrence(spec, profile, state, window)
        assert type(result[1]) is float


def test_peak_concurrence_improves_with_barrier_height():
    """Taller fences protect the pair better, so the achievable peak
    concurrence ranks with omega; frozen values guard the search itself."""
    spec = ChainSpec(33)
    state = EbitState(HALF, HALF)
    frozen = {5.0: 0.952242, 15.0: 0.994197, 45.0: 0.999498}
    peaks = []
    for omega, expected in frozen.items():
        profile = ebit_barrier_profile(spec, omega)
        _, c_star = peak_pair_concurrence(spec, profile, state, ebit_window(spec, omega))
        assert c_star == pytest.approx(expected, abs=1e-4)
        peaks.append(c_star)
    assert peaks[0] <= peaks[1] + 0.01
    assert peaks[1] <= peaks[2] + 0.01
