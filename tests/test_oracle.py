"""Cross-checks between the 2^N brute-force path and the fast sector path.

These tests are the ground truth layer: nothing here imports the spectral
expansion except as the object under test.
"""

import numpy as np
import pytest
import scipy.linalg

import barrierchain.oracle

from barrierchain.chain import ChainSpec, FieldProfile, barrier_profile, build_hamiltonian
from barrierchain.oracle import (
    FullDecomposition,
    all_up_state,
    embed_amplitudes,
    evolve_with_idle_ancilla,
    external_singlet_state,
    extract_amplitudes,
    full_evolve,
    full_hamiltonian,
    oracle_transition_amplitude,
    reduced_state,
    rk4_evolve,
    rk4_evolve_driven,
    single_excitation_state,
    site_index,
    total_magnetization,
    wootters_concurrence,
)
from barrierchain.spectral import eigendecompose, evolve, site_state, transition_amplitude


def random_profile(n, seed, scale=4.0):
    rng = np.random.default_rng(seed)
    return FieldProfile(rng.uniform(-scale, scale, n))


def test_site_index_convention():
    # site 1 is the most significant bit
    assert site_index(4, 1) == 0b1000
    assert site_index(4, 4) == 0b0001
    with pytest.raises(ValueError):
        site_index(4, 5)


def test_embed_extract_round_trip():
    amps = np.array([0.6, 0.0, 0.8j, 0.0])
    state = embed_amplitudes(4, amps)
    back, outside = extract_amplitudes(4, state)
    assert np.allclose(back, amps)
    assert outside == pytest.approx(0.0, abs=1e-15)


def test_helpers_match_per_site_loops():
    rng = np.random.default_rng(8)
    n = 6
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    sites = range(1, n + 1)
    amps, outside = extract_amplitudes(n, state)
    looped = np.array([state[site_index(n, site)] for site in sites])
    assert np.array_equal(amps, looped)
    expected = np.sqrt(np.linalg.norm(state) ** 2 - np.linalg.norm(looped) ** 2)
    assert outside == expected
    embedded = embed_amplitudes(n, amps)
    assert np.array_equal(embedded[[site_index(n, site) for site in sites]], amps)
    assert np.count_nonzero(embedded) == n
    popcount = np.array([bin(s).count("1") for s in range(2**n)])
    magnetization = float(np.sum(np.abs(state) ** 2 * (n - 2.0 * popcount)))
    assert total_magnetization(state) == magnetization


def test_full_hamiltonian_is_hermitian_and_size_capped():
    spec = ChainSpec(5)
    h = full_hamiltonian(spec, random_profile(5, seed=0))
    assert np.allclose(h, h.conj().T)
    for build in (full_hamiltonian, FullDecomposition):
        with pytest.raises(ValueError):
            build(ChainSpec(13), FieldProfile(np.zeros(13)))


def test_magnetization_is_conserved():
    spec = ChainSpec(5)
    profile = random_profile(5, seed=1)
    state = single_excitation_state(spec, 2)
    m0 = total_magnetization(state)
    assert m0 == pytest.approx(5 - 2)
    evolved = full_evolve(spec, profile, state, 4.2)
    assert total_magnetization(evolved) == pytest.approx(m0, abs=1e-12)
    # and the excitation never leaves its sector
    _, outside = extract_amplitudes(5, evolved)
    assert outside < 1e-12


def test_sector_reduction_reproduces_full_dynamics():
    for n, seed, t in ((4, 2, 1.5), (5, 3, 7.0), (6, 4, 13.2)):
        spec = ChainSpec(n)
        profile = random_profile(n, seed)
        fast = transition_amplitude(
            eigendecompose(build_hamiltonian(spec, profile)), 1, n, t
        )
        slow = oracle_transition_amplitude(spec, profile, 1, n, t)
        # complex agreement, not just magnitudes: the vacuum phase reference
        # makes both paths directly comparable
        assert abs(fast - slow) < 1e-10


def test_reduced_state_basics():
    spec = ChainSpec(4)
    state = single_excitation_state(spec, 3)
    rho = reduced_state(state, (3,))
    assert rho.shape == (2, 2)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert rho[1, 1].real == pytest.approx(1.0)  # site 3 is flipped
    rho_pair = reduced_state(state, (1, 3))
    assert rho_pair.shape == (4, 4)
    assert rho_pair[1, 1].real == pytest.approx(1.0)  # |0 on 1, 1 on 3>
    with pytest.raises(ValueError):
        reduced_state(state, (1, 1))
    with pytest.raises(ValueError):
        reduced_state(state, (0,))


def test_wootters_on_known_states():
    bell = np.zeros(4, dtype=complex)
    bell[1] = bell[2] = 1.0 / np.sqrt(2.0)
    assert wootters_concurrence(np.outer(bell, bell.conj())) == pytest.approx(1.0)
    product = np.zeros(4, dtype=complex)
    product[0] = 1.0
    assert wootters_concurrence(np.outer(product, product.conj())) == pytest.approx(0.0)


def test_wootters_single_excitation_closed_form():
    # amplitudes (p, q) on the pair: C = 2 |p q| regardless of the rest
    p, q = 0.3 * np.exp(0.4j), 0.5 * np.exp(-1.1j)
    state = np.zeros(8, dtype=complex)  # three qubits, keep (2, 3)
    state[0b010] = p
    state[0b001] = q
    state[0b100] = np.sqrt(1.0 - abs(p) ** 2 - abs(q) ** 2)
    rho = reduced_state(state, (2, 3))
    assert wootters_concurrence(rho) == pytest.approx(2.0 * abs(p * q), abs=1e-12)


def test_wootters_input_validation():
    with pytest.raises(ValueError):
        wootters_concurrence(np.eye(3))
    skew = np.eye(4, dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError):
        wootters_concurrence(skew)
    with pytest.raises(ValueError):
        wootters_concurrence(2.0 * np.eye(4) / 4.0 + np.eye(4) / 4.0)


def test_idle_ancilla_singlet_concurrence_tracks_abs_f():
    spec = ChainSpec(5)
    profile = barrier_profile(spec, 3.0)
    joint = external_singlet_state(spec)
    decomp = eigendecompose(build_hamiltonian(spec, profile))
    for t in (0.0, 2.2, 9.7):
        evolved = evolve_with_idle_ancilla(spec, profile, joint, t)
        rho = reduced_state(evolved, (1, spec.n_sites + 1), n_qubits=spec.n_sites + 1)
        expected = abs(transition_amplitude(decomp, 1, 5, t))
        assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-12)


def test_rk4_against_spectral():
    spec = ChainSpec(6)
    profile = random_profile(6, seed=5, scale=2.0)
    h = build_hamiltonian(spec, profile)
    start = site_state(6, 1)
    target = evolve(eigendecompose(h), start, 7.0)
    numeric = rk4_evolve(h, start, 7.0)
    assert np.max(np.abs(numeric - target)) < 1e-8


def test_rk4_driven_reduces_to_static():
    spec = ChainSpec(5)
    h = build_hamiltonian(spec, random_profile(5, seed=6, scale=2.0))
    start = site_state(5, 2)
    static = rk4_evolve(h, start, 3.0, n_steps=2048)
    driven = rk4_evolve_driven(lambda t: h.diagonal, h.off_diagonal, start, 0.0, 3.0, 2048)
    assert np.array_equal(static, driven)


def test_vacuum_is_stationary_up_to_phase():
    spec = ChainSpec(4)
    profile = random_profile(4, seed=7)
    evolved = full_evolve(spec, profile, all_up_state(spec), 5.0)
    assert abs(abs(evolved[0]) - 1.0) < 1e-12
    assert np.max(np.abs(evolved[1:])) < 1e-12


def _random_state(dim, rng):
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return state / np.linalg.norm(state)


@pytest.mark.parametrize("n", [5, 7])
def test_block_evolve_matches_dense_propagator(n):
    # a random state on all 2^N entries touches every invariant block
    rng = np.random.default_rng(n)
    spec = ChainSpec(n)
    profile = random_profile(n, seed=10 + n)
    h = full_hamiltonian(spec, profile)
    t = 2.3
    state = _random_state(2**n, rng)
    evolved = FullDecomposition(spec, profile).evolve(state, t)
    assert np.max(np.abs(evolved - scipy.linalg.expm(-1j * t * h) @ state)) <= 1e-12
    joint = _random_state(2 ** (n + 1), rng)
    dense = scipy.linalg.expm(-1j * t * np.kron(np.eye(2), h)) @ joint
    assert np.max(np.abs(evolve_with_idle_ancilla(spec, profile, joint, t) - dense)) <= 1e-12


def test_block_split_is_read_from_the_matrix(monkeypatch):
    # a transverse sx term on one site breaks magnetization conservation;
    # the oracle must follow the matrix, not the excitation number
    n, site, strength, t = 5, 3, 0.7, 3.1
    spec = ChainSpec(n)
    profile = barrier_profile(spec, 2.0)
    builder = barrierchain.oracle.full_hamiltonian

    def with_transverse_field(spec, profile):
        h = builder(spec, profile)
        states = np.arange(2**spec.n_sites)
        h[states ^ (1 << (spec.n_sites - site)), states] += strength
        return h

    monkeypatch.setattr(barrierchain.oracle, "full_hamiltonian", with_transverse_field)
    h = with_transverse_field(spec, profile)
    assert np.allclose(h, h.T)
    state = single_excitation_state(spec, 1)
    evolved = FullDecomposition(spec, profile).evolve(state, t)
    assert np.max(np.abs(evolved - scipy.linalg.expm(-1j * t * h) @ state)) <= 1e-12
    assert extract_amplitudes(n, evolved)[1] > 1e-3


@pytest.mark.parametrize("n", [11, 12])
def test_oracle_matches_spectral_path_at_its_size_cap(n):
    rng = np.random.default_rng(1100 + n)
    spec = ChainSpec(n)
    for _ in range(3):
        omega = rng.uniform(0.0, 60.0)
        t = rng.uniform(0.0, 30.0)
        profile = barrier_profile(spec, omega)
        fast = transition_amplitude(eigendecompose(build_hamiltonian(spec, profile)), 1, n, t)
        assert abs(fast - oracle_transition_amplitude(spec, profile, 1, n, t)) <= 1e-10
