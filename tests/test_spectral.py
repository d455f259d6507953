import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

from barrierchain.chain import ChainSpec, FieldProfile, barrier_profile, build_hamiltonian
from barrierchain.metrics import ipr
from barrierchain.spectral import (
    _CLUSTER_RTOL,
    _fix_signs,
    _parity_adapt,
    eigendecompose,
    evolve,
    evolve_many,
    scan_amplitude,
    site_state,
    transition_amplitude,
    transition_weights,
    tridiagonal_eigh,
)


def random_profile(n, seed, scale=3.0):
    rng = np.random.default_rng(seed)
    return FieldProfile(rng.uniform(-scale, scale, n))


def test_matches_dense_solver():
    spec = ChainSpec(9)
    h = build_hamiltonian(spec, random_profile(9, seed=1))
    decomp = eigendecompose(h)
    w, v = np.linalg.eigh(h.dense())
    assert np.allclose(decomp.eigenvalues, w, atol=1e-12)
    # eigenvectors agree up to per-column sign
    assert np.allclose(np.abs(decomp.eigenvectors), np.abs(v), atol=1e-10)


def test_eigenvalues_ascending_and_vectors_orthonormal():
    decomp = eigendecompose(build_hamiltonian(ChainSpec(12), random_profile(12, seed=2)))
    assert np.all(np.diff(decomp.eigenvalues) >= 0)
    gram = decomp.eigenvectors.T @ decomp.eigenvectors
    assert np.allclose(gram, np.eye(12), atol=1e-12)


def test_sign_convention_barrier_levels_exit_top():
    # +2K on the diagonal pushes the barrier-site levels above the band
    spec = ChainSpec(10)
    decomp = eigendecompose(build_hamiltonian(spec, barrier_profile(spec, 20.0)))
    assert decomp.eigenvalues[-1] > 30.0
    assert decomp.eigenvalues[-2] > 30.0
    assert decomp.eigenvalues[-3] < 2.5


def test_evolution_is_unitary_and_composes():
    decomp = eigendecompose(build_hamiltonian(ChainSpec(8), random_profile(8, seed=3)))
    psi0 = site_state(8, 1)
    one_shot = evolve(decomp, psi0, 11.5)
    assert abs(np.linalg.norm(one_shot) - 1.0) < 1e-12
    two_step = evolve(decomp, evolve(decomp, psi0, 4.25), 7.25)
    assert np.allclose(one_shot, two_step, atol=1e-12)
    # reversibility
    back = evolve(decomp, one_shot, -11.5)
    assert np.allclose(back, psi0, atol=1e-12)


def test_evolve_many_matches_single_shots():
    decomp = eigendecompose(build_hamiltonian(ChainSpec(6), random_profile(6, seed=4)))
    start = np.array([0.6, 0.0, 0.8j, 0.0, 0.0, 0.0])
    times = np.array([0.0, 1.0, 2.5, 17.0])
    grid = evolve_many(decomp, start, times)
    assert grid.shape == (4, 6)
    for row, t in zip(grid, times):
        assert np.allclose(row, evolve(decomp, start, t), atol=1e-12)


def test_evolution_casts_a_real_initial_vector_to_complex():
    # a real vector left uncast would take a real matmul and round differently
    times = np.array([0.0, 0.7, 13.0, 250.0])
    for n in (6, 37, 100):
        decomp = eigendecompose(build_hamiltonian(ChainSpec(n), random_profile(n, seed=n)))
        real = np.random.default_rng(n).standard_normal(n)
        cast = real.astype(complex)
        for t in times:
            assert np.array_equal(evolve(decomp, real, t), evolve(decomp, cast, t))
        assert np.array_equal(evolve_many(decomp, real, times), evolve_many(decomp, cast, times))


def test_transition_amplitude_matches_expm():
    spec = ChainSpec(7)
    h = build_hamiltonian(spec, random_profile(7, seed=5))
    decomp = eigendecompose(h)
    t = 6.3
    u = scipy.linalg.expm(-1j * h.dense() * t)
    assert abs(transition_amplitude(decomp, 1, 7, t) - u[6, 0]) < 1e-12
    assert abs(transition_amplitude(decomp, 3, 2, t) - u[1, 2]) < 1e-12


def test_transition_amplitude_array_times():
    decomp = eigendecompose(build_hamiltonian(ChainSpec(5), random_profile(5, seed=6)))
    times = np.linspace(0.0, 5.0, 11)
    f = transition_amplitude(decomp, 1, 5, times)
    assert f.shape == times.shape
    assert abs(f[3] - transition_amplitude(decomp, 1, 5, times[3])) < 1e-14
    with pytest.raises(ValueError):
        transition_amplitude(decomp, 0, 5, 1.0)


@pytest.mark.parametrize("n", [4, 10, 100])
def test_scan_amplitude_matches_transition_amplitude(n):
    spec = ChainSpec(n)
    chains = (
        (build_hamiltonian(spec, barrier_profile(spec, 10.0)), 1, n),
        (build_hamiltonian(spec, random_profile(n, seed=n, scale=1.0)), 1, 1),
    )
    step = 0.25
    for h, from_site, to_site in chains:
        decomp = eigendecompose(h)
        weights = transition_weights(decomp, from_site, to_site)
        for count in (1, 2, 17, 16001, 120001):
            for lo in (0.0, 37.3):
                scan = scan_amplitude(decomp, weights, lo, step, count)
                assert scan.shape == (count,)
                times = lo + step * np.arange(count)
                for a in range(0, count, 10000):  # bound the reference table
                    direct = transition_amplitude(decomp, from_site, to_site, times[a : a + 10000])
                    assert np.max(np.abs(scan[a : a + 10000] - direct)) <= 1e-11
    with pytest.raises(ValueError):
        scan_amplitude(decomp, weights, 0.0, step, 0)


def test_transition_amplitude_is_symmetric():
    # real symmetric H makes f_{ab} = f_{ba}
    decomp = eigendecompose(build_hamiltonian(ChainSpec(6), random_profile(6, seed=7)))
    for t in (0.7, 4.1):
        assert transition_amplitude(decomp, 1, 6, t) == pytest.approx(
            transition_amplitude(decomp, 6, 1, t)
        )


def test_mirror_symmetric_profile_transfers_symmetrically():
    spec = ChainSpec(9)
    profile = barrier_profile(spec, 7.0)
    decomp = eigendecompose(build_hamiltonian(spec, profile))
    flipped = FieldProfile(profile.local_fields[::-1])
    decomp_flipped = eigendecompose(build_hamiltonian(spec, flipped))
    for t in (2.0, 9.5):
        assert abs(transition_amplitude(decomp, 1, 9, t)) == pytest.approx(
            abs(transition_amplitude(decomp_flipped, 9, 1, t)), abs=1e-12
        )


def test_particle_hole_flip():
    # negating all fields mirrors the spectrum and keeps |f| unchanged
    spec = ChainSpec(8)
    profile = random_profile(8, seed=8)
    d_plus = eigendecompose(build_hamiltonian(spec, profile))
    d_minus = eigendecompose(build_hamiltonian(spec, profile.negated()))
    assert np.allclose(d_minus.eigenvalues, -d_plus.eigenvalues[::-1], atol=1e-12)
    for t in (1.3, 6.6):
        assert abs(transition_amplitude(d_plus, 1, 8, t)) == pytest.approx(
            abs(transition_amplitude(d_minus, 1, 8, t)), abs=1e-12
        )


def test_degenerate_barrier_pair_gets_definite_parity():
    """The barrier doublet at large omega is numerically degenerate; the
    returned eigenvectors must still be even/odd under site reversal so the
    IPR lands at 2 instead of an arbitrary value in [1, 2]."""
    spec = ChainSpec(18)
    decomp = eigendecompose(build_hamiltonian(spec, barrier_profile(spec, 50.0)))
    for k in (16, 17):
        vec = decomp.eigenvectors[:, k]
        assert ipr(vec) == pytest.approx(2.0, abs=0.01)
        parity = vec @ vec[::-1]
        assert abs(abs(parity) - 1.0) < 1e-9


def test_decomposition_is_deterministic():
    spec = ChainSpec(14)
    h = build_hamiltonian(spec, barrier_profile(spec, 30.0))
    a = eigendecompose(h)
    b = eigendecompose(h)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_zero_mode_is_field_independent_on_even_sites():
    # odd chain, fields on even sites only: the zero mode never sees them
    spec = ChainSpec(11)
    for omega in (0.0, 8.0, 64.0):
        decomp = eigendecompose(build_hamiltonian(spec, barrier_profile(spec, omega)))
        k = int(np.argmin(np.abs(decomp.eigenvalues)))
        assert abs(decomp.eigenvalues[k]) < 1e-10
        vec = decomp.eigenvectors[:, k]
        assert np.max(np.abs(vec[1::2])) < 1e-10
        assert abs(vec[0]) == pytest.approx(np.sqrt(2.0 / 12.0), abs=1e-12)


def _fix_signs_per_column(v):
    """The sign rule as a per-column loop: the reference for ``_fix_signs``."""
    v = v.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        significant = np.nonzero(np.abs(col) > 1e-11 * np.abs(col).max())[0]
        if col[significant[0]] < 0:
            v[:, k] = -col
    return v


def _deep_field_profile():
    # a 1e4 field on site 6 localizes one state there; its entries on sites
    # 1..3 (~1e-22..1e-13) fall below the threshold and alternate in sign
    fields = np.zeros(12)
    fields[5] = 1e4
    return ChainSpec(12), FieldProfile(fields)


def _presign_vectors(spec, profile):
    """Eigenvectors as ``eigendecompose`` holds them before the sign rule."""
    h = build_hamiltonian(spec, profile)
    w, v = eigh_tridiagonal(h.diagonal, h.off_diagonal)
    if np.array_equal(h.diagonal, h.diagonal[::-1]):
        v = _parity_adapt(w, v, _CLUSTER_RTOL * max(1.0, float(np.abs(w).max())))
    return h, w, v


def _first_significant(v):
    mag = np.abs(v)
    return np.argmax(mag > 1e-11 * mag.max(axis=0), axis=0)


@pytest.mark.parametrize(
    "spec, profile",
    [
        (ChainSpec(12), random_profile(12, seed=5)),
        (ChainSpec(11), barrier_profile(ChainSpec(11), 64.0)),
        (ChainSpec(18), barrier_profile(ChainSpec(18), 50.0)),
        _deep_field_profile(),
    ],
    ids=["random12", "barrier11", "barrier18-parity", "deep-field12"],
)
def test_fix_signs_rule(spec, profile):
    h, _, v = _presign_vectors(spec, profile)
    fixed = _fix_signs(v)
    assert np.array_equal(fixed, _fix_signs_per_column(v))
    assert np.array_equal(eigendecompose(h).eigenvectors, fixed)
    # the rule fixes each column's sign whatever sign it came in with
    flips = np.random.default_rng(3).choice([-1.0, 1.0], size=spec.n_sites)
    assert np.array_equal(_fix_signs(v * flips), fixed)
    assert np.all(fixed[_first_significant(fixed), np.arange(spec.n_sites)] > 0)


def test_fix_signs_threshold_skips_round_off_entries():
    # N=11 barrier chain: the zero mode's even-site entries are round-off
    _, w, v = _presign_vectors(ChainSpec(11), barrier_profile(ChainSpec(11), 64.0))
    k = int(np.argmin(np.abs(w)))
    fixed = _fix_signs(v)
    assert 0 < np.max(np.abs(fixed[1::2, k])) < 1e-11
    assert _first_significant(fixed)[k] == 0
    assert fixed[0, k] > 0
    # deep-field chain: the site-6 state's sign is set by its site-4 entry,
    # not by the sub-threshold site-1 entry of opposite sign
    _, _, v = _presign_vectors(*_deep_field_profile())
    fixed = _fix_signs(v)
    assert _first_significant(fixed)[-1] == 3
    assert fixed[3, -1] > 0 > fixed[0, -1]


@pytest.mark.parametrize("n", [2, 3, 10, 55, 100])
def test_eigendecompose_matches_eigh_tridiagonal_bit_for_bit(n):
    """``eigendecompose`` calls LAPACK stevd directly.  On random and
    barrier chains, mirror-symmetric ones included, w and v before the sign
    rule are scipy's ``eigh_tridiagonal`` bits, and so is the decomposition
    built from them."""
    spec = ChainSpec(n)
    rng = np.random.default_rng(n)
    profiles = [random_profile(n, seed) for seed in range(4)]
    halves = rng.uniform(-3.0, 3.0, n)
    profiles.append(FieldProfile(halves + halves[::-1]))
    profiles.append(FieldProfile(np.zeros(n)))
    if n >= 4:
        profiles += [barrier_profile(spec, omega) for omega in (0.5, 20.0, 100.0)]
    for profile in profiles:
        h = build_hamiltonian(spec, profile)
        w, v = tridiagonal_eigh(h.diagonal, h.off_diagonal)
        w_ref, v_ref = eigh_tridiagonal(h.diagonal, h.off_diagonal)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)
        _, w_pre, v_pre = _presign_vectors(spec, profile)
        decomp = eigendecompose(h)
        assert np.array_equal(decomp.eigenvalues, w_pre)
        assert np.array_equal(decomp.eigenvectors, _fix_signs(v_pre))
    assert sum(p.is_mirror_symmetric() for p in profiles) >= 2


def test_tridiagonal_eigh_raises_on_lapack_failure():
    with pytest.raises(np.linalg.LinAlgError):
        tridiagonal_eigh(np.array([0.0, np.nan, 1.0]), np.array([-1.0, -1.0]))


def test_site_state_validation():
    state = site_state(5, 3)
    assert state[2] == 1.0
    assert np.linalg.norm(state) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        site_state(5, 6)
    with pytest.raises(ValueError):
        site_state(5, 0)
