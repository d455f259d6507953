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
from barrierchain.metrics import _grid_count, _kept_rows, peak_search
from barrierchain.oracle import embed_amplitudes, reduced_state, wootters_concurrence
from barrierchain.spectral import (
    decompose,
    eigendecompose,
    scan_block_length,
    transition_amplitude,
    weighted_amplitude,
)

from _full_grid import full_grid_peak_pair_concurrence

HALF = 2.0 ** -0.5


def test_ebit_state_must_be_normalized():
    EbitState(HALF, -HALF)
    EbitState(0.6, 0.8j)
    with pytest.raises(ValueError):
        EbitState(1.0, 0.5)
    # NaN amplitudes pass the norm comparison unless rejected as such
    for alpha, beta in ((np.nan, np.nan), (np.nan, 1.0), (1.0, complex(0.0, np.inf))):
        with pytest.raises(ValueError, match="finite"):
            EbitState(alpha, beta)


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
        # the site-basis evolution agrees to round-off
        assert abs(result[1] - pair_concurrence(evolve_ebit(spec, profile, state, result[0]))) <= 1e-15


def _pair_chain(spec, omega, state):
    """Eigendecomposition and the (2, N) weights of p_{N-1} and p_N."""
    decomp = decompose(spec, ebit_barrier_profile(spec, omega))
    start = decomp.eigenvectors[0] * state.alpha + decomp.eigenvectors[1] * state.beta
    return decomp, np.stack([decomp.eigenvectors[-2] * start, decomp.eigenvectors[-1] * start])


@pytest.mark.parametrize("omega, kept", [(2.0, 29), (6.0, 35), (15.0, 49), (45.0, 78)])
def test_pair_search_prunes_its_grid(omega, kept):
    """Taken about each factor's weighted median level, the pair bound lets
    the N = 9 search drop rows from omega = 6 up (35 of 77 rows there, 49 of
    188 at omega = 15, 78 of 556 at omega = 45); at omega = 2 it keeps all
    29."""
    spec = ChainSpec(9)
    decomp, weights = _pair_chain(spec, omega, EbitState(HALF, HALF))
    window = ebit_window(spec, omega)
    count = _grid_count(*window, 0.25)
    block = scan_block_length(count)
    (rows,) = _kept_rows(decomp.eigenvalues[None], weights[None], window[0], 0.25, count, block)
    assert rows.size == kept
    if omega >= 6.0:
        assert rows.size < -(-count // block)


def test_stacked_pair_search_gives_each_chain_its_own_bits():
    """Three two-factor chains of one size in one search: each gets the bits
    of its own one-chain search, and each value is the product of its two
    weighted sums at its t*, bit for bit."""
    spec = ChainSpec(12)
    cases = [(2.0, EbitState(HALF, HALF)), (6.0, EbitState(HALF, -HALF)), (15.0, EbitState(0.6, 0.8j))]
    window = ebit_window(spec, 6.0)
    chains = [_pair_chain(spec, omega, state) for omega, state in cases]
    levels = np.array([decomp.eigenvalues for decomp, _ in chains])
    weights = np.array([w for _, w in chains])
    [(t_star, value)] = peak_search([(levels, weights)], window)
    assert len(set(t_star.tolist())) == 3
    for s, ((omega, state), (decomp, w)) in enumerate(zip(cases, chains)):
        [(alone_t, alone_value)] = peak_search([(levels[s : s + 1], weights[s : s + 1])], window)
        assert (t_star[s], value[s]) == (alone_t[0], alone_value[0])
        profile = ebit_barrier_profile(spec, omega)
        assert peak_pair_concurrence(spec, profile, state, window) == (t_star[s], 2.0 * value[s])
        amplitudes = [abs(weighted_amplitude(decomp, w_f, t_star[s])) for w_f in w]
        assert value[s] == amplitudes[0] * amplitudes[1]


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
