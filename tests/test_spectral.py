import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

from barrierchain import spectral
from barrierchain.chain import (
    ChainSpec,
    FieldProfile,
    SingleExcitationHamiltonian,
    barrier_profile,
    build_hamiltonian,
    ebit_barrier_profile,
)
from barrierchain.disorder import BARRIER_LEAKAGE, BULK_UNIFORM, DisorderModel, _ensemble_fields
from barrierchain.metrics import _grid_point, _pointwise_sums, ipr
from barrierchain.spectral import (
    _fix_signs,
    _parity_eigh,
    decompose,
    eigendecompose,
    evolve,
    evolve_many,
    phase_tables,
    scan_block_length,
    site_state,
    transfer_spectra,
    transition_amplitude,
    transition_weights,
    tridiagonal_eigh,
    weighted_amplitude,
)

from _full_grid import grid_times, scan_amplitude


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
                times = grid_times(lo, step, count)
                assert np.array_equal(times, np.arange(lo, lo + (count - 0.5) * step, step))
                assert times[: min(count, 20)].tolist() == [_grid_point(lo, step, j) for j in range(min(count, 20))]
                for a in range(0, count, 10000):  # bound the reference table
                    direct = np.abs(transition_amplitude(decomp, from_site, to_site, times[a : a + 10000]))
                    assert np.max(np.abs(scan[a : a + 10000] - direct)) <= 1e-11
                # each point has the bits of the scalar amplitude at its grid time
                for j in {0, count // 2, count - 1}:
                    assert scan[j] == abs(weighted_amplitude(decomp, weights, times[j]))
    with pytest.raises(ValueError):
        scan_amplitude(decomp, weights, 0.0, step, 0)


def _rule_chains(n):
    """Two random-field chains, and a barrier chain where N allows one."""
    spec = ChainSpec(n)
    profiles = [random_profile(n, seed=100 + n), random_profile(n, seed=200 + n)]
    if n >= 4:
        profiles.append(barrier_profile(spec, 10.0))
    return [eigendecompose(build_hamiltonian(spec, p)) for p in profiles]


@pytest.mark.parametrize("n", [2, 8, 30, 100])
def test_any_rows_or_times_get_the_whole_tables_bits(n):
    """numpy multiplies a lone row by gemv, which rounds unlike gemm;
    ``evolve_many`` hides that, so a single time gives the whole table's
    bits."""
    rng = np.random.default_rng(n)
    for decomp in _rule_chains(n):
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        times = rng.uniform(0.0, 500.0, 50)
        table = evolve_many(decomp, psi, times)
        for i, t in enumerate(times):
            assert np.array_equal(evolve_many(decomp, psi, [t]), table[i : i + 1])


def _table_chains():
    """Random-field and barrier chains, N 4..100, each with its transfer
    weights and the two weight vectors of the pair concurrence of a random
    start on sites 1 and 2."""
    rng = np.random.default_rng(21)
    for n in (4, 17, 55, 100):
        for profile in (random_profile(n, seed=300 + n), barrier_profile(ChainSpec(n), 30.0)):
            decomp = eigendecompose(build_hamiltonian(ChainSpec(n), profile))
            v = decomp.eigenvectors
            start = v[0] * rng.normal() + v[1] * (rng.normal() + 1j * rng.normal())
            yield decomp, np.stack([transition_weights(decomp, 1, n), v[-2] * start, v[-1] * start])


def _pointwise_scan(decomp, weights, times):
    """The pointwise sums of ``metrics._pointwise_sums`` at every time,
    shape (F, len(times)), in chunks that bound the phase table."""
    parts = []
    for begin in range(0, times.size, 4096):
        owner = np.zeros(min(4096, times.size - begin), dtype=np.intp)
        parts.append(_pointwise_sums(decomp.eigenvalues[None][owner], weights[None][owner], times[begin : begin + owner.size]))
    return np.concatenate(parts, axis=1)


@pytest.mark.parametrize(
    "count, lo, stride",
    [
        (120001, 37.3, 0.25), (7501, 37.3, 4.0), (16001, 1234.5, 0.25), (1001, 0.0, 4.0), (5, 2.0, 0.25),
        (1001, 0.1, 0.25), (401, 617.28394505, 6.1728394505),
    ],
    ids=["fine-120k", "coarse-120k", "fine-16k", "coarse-16k", "fine-5", "off-spacing", "rabi-step"],
)
def test_phase_table_bound_is_sound(count, lo, stride):
    """Every entry of the approximate tables' scan lies within
    ``PhaseTables.bound`` of the pointwise sum at its grid time, for the
    fine pass's grids (stride 0.25) and their coarse passes' (stride 16
    steps), up to 120k points and past the origin; the bound stays far
    below any difference a peak search resolves.  The tables are built at
    the grid's own spacing, which differs from the step at lo = 0.1 and
    at a Rabi-time step over (0.5 t_max, 2.5 t_max)."""
    block = scan_block_length(count)
    every = np.arange(-(-count // block))
    spacing = (lo + stride) - lo
    times = grid_times(lo, stride, count)
    for decomp, weights in _table_chains():
        if decomp.n_sites * count > 2.5e6:
            continue
        tables = phase_tables(decomp.eigenvalues[None], lo, spacing, block, every.size)
        approx = tables.scan(weights, every).reshape(3, -1)[:, :count]
        bound = tables.bound(weights)
        assert bound.shape == (3,)
        err = np.abs(approx - _pointwise_scan(decomp, weights, times)).max(axis=1)
        assert np.all(err <= bound)
        assert np.all(bound <= 1e-8 * np.abs(weights).sum(axis=1))
    # a stack gives each chain its own tables and bounds
    decomps = [eigendecompose(build_hamiltonian(ChainSpec(10), random_profile(10, seed=s))) for s in range(3)]
    levels = np.stack([d.eigenvalues for d in decomps])[:, None]
    weights = np.stack([transition_weights(d, 1, 10) for d in decomps])[:, None]
    stacked = phase_tables(levels, lo, stride, block, every.size)
    for s in range(3):
        alone = phase_tables(levels[s], lo, stride, block, every.size)
        assert np.array_equal(stacked.starts[:, s], alone.starts)
        assert np.array_equal(stacked.offsets[:, s], alone.offsets)
        assert np.array_equal(stacked.scan(weights, every)[s], alone.scan(weights[s], every))
        assert np.array_equal(stacked.bound(weights)[s], alone.bound(weights[s]))


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
    """Eigenvectors as ``eigendecompose`` holds them before the sign rule:
    the parity blocks' for a mirror-symmetric chain, scipy stevd's otherwise."""
    h = build_hamiltonian(spec, profile)
    if profile.is_mirror_symmetric():
        w, v = _parity_eigh(h.diagonal, h.off_diagonal)
    else:
        w, v = eigh_tridiagonal(h.diagonal, h.off_diagonal)
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
    """``tridiagonal_eigh`` (numpy's eigh on the dense band) gives w and v
    with the bits of scipy's ``eigh_tridiagonal`` (stevd) here.  On chains
    without mirror symmetry, so does the decomposition built from them.
    Mirror-symmetric chains are solved in their parity blocks instead: their
    levels agree with the whole chain's levels to round-off, and each
    vector is exactly even or odd, bit for bit."""
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
        if profile.is_mirror_symmetric():
            scale = max(1.0, float(np.abs(w).max()))
            assert np.max(np.abs(w_pre - w)) <= 8 * n * np.finfo(float).eps * scale
            mirrored = v_pre[::-1]
            assert np.all(np.all(mirrored == v_pre, axis=0) | np.all(mirrored == -v_pre, axis=0))
        else:
            assert np.array_equal(w_pre, w) and np.array_equal(v_pre, v)
    assert sum(p.is_mirror_symmetric() for p in profiles) >= 2


def _mirror_symmetric_chains():
    for n in [*range(2, 14), 55, 100]:
        spec = ChainSpec(n)
        rng = np.random.default_rng(100 + n)
        for _ in range(2):
            halves = rng.uniform(-3.0, 3.0, n)
            yield f"random{n}", spec, FieldProfile(halves + halves[::-1])
        yield f"clean{n}", spec, FieldProfile(np.zeros(n))
        if n >= 4:
            for omega in (0.5, 4.0, 50.0, 1e3):
                yield f"barrier{n}-{omega:g}", spec, barrier_profile(spec, omega)


def test_mirror_symmetric_chains_get_exact_parity_and_even_first_order():
    """Every eigenvector of a mirror-symmetric chain is even or odd under
    site reversal, the levels ascend, and of two equal levels the even one
    comes first.  The strong barriers make the barrier pair equal to
    round-off, so equal levels do occur."""
    ties = 0
    for label, spec, profile in _mirror_symmetric_chains():
        decomp = eigendecompose(build_hamiltonian(spec, profile))
        w, v = decomp.eigenvalues, decomp.eigenvectors
        parity = np.einsum("jk,jk->k", v, v[::-1])
        assert np.max(np.abs(np.abs(parity) - 1.0)) <= 1e-12, label
        assert np.all(np.diff(w) >= 0), label
        equal = np.nonzero(w[1:] == w[:-1])[0]
        assert np.all(parity[equal] > 0) and np.all(parity[equal + 1] < 0), label
        ties += equal.size
    assert ties > 0


def test_mirror_symmetric_diagonal_with_unequal_couplings_is_solved_whole():
    """The parity split needs the couplings mirror-symmetric as well: a
    mirror-symmetric diagonal with other couplings gets the whole-chain
    ``tridiagonal_eigh`` bits."""
    diagonal = np.array([1.0, -2.0, 0.5, -2.0, 1.0])
    h = SingleExcitationHamiltonian(diagonal, np.array([-1.0, -0.5, -1.5, -1.0]))
    w, v = tridiagonal_eigh(h.diagonal, h.off_diagonal)
    decomp = eigendecompose(h)
    assert np.array_equal(decomp.eigenvalues, w)
    assert np.array_equal(decomp.eigenvectors, _fix_signs(v))


def test_barrier_pair_ipr_and_weight_match_extended_precision():
    """N = 18, omega = 4: the barrier pair (levels 16 and 17) is split by
    3.5e-13.  The constants come from a 50-digit mpmath ``eighe`` solve of
    the same matrix (the odd state's IPR lies 2.6e-12 above the even
    state's).  A whole-chain stevd solve mixes the two parities here and
    gives IPR 2.11995 and weight 0.0071389."""
    spec = ChainSpec(18)
    decomp = eigendecompose(build_hamiltonian(spec, barrier_profile(spec, 4.0)))
    pair = decomp.eigenvectors[:, 16:]
    assert ipr(pair[:, 0]) == pytest.approx(2.1212956960121111, abs=1e-12)
    assert ipr(pair[:, 1]) == pytest.approx(2.1212956960147041, abs=1e-12)
    weights = np.abs(pair[0] * pair[-1])
    assert np.allclose(weights, 0.0071411230916, rtol=0.0, atol=1e-12)


def _same_bits(a, b):
    """Equal values with equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _kernel_rows(n):
    """Field rows of one length: zero-field, random and mirror-symmetric
    random chains, rows holding -0.0 (mirror-symmetric by value only), and
    barrier and e-bit-barrier chains, whose strong barriers give parity
    pairs of exactly equal levels."""
    spec = ChainSpec(n)
    rng = np.random.default_rng(300 + n)
    halves = rng.uniform(-3.0, 3.0, n)
    signed = np.zeros(n)
    signed[0] = -0.0
    rows = [np.zeros(n), np.full(n, -0.0), signed, halves + halves[::-1]]
    rows += [rng.uniform(-3.0, 3.0, n) for _ in range(2)]
    if n >= 4:
        rows += [barrier_profile(spec, omega).local_fields for omega in (0.5, 4.0, 50.0, 1e3)]
    if n >= 6:
        rows += [ebit_barrier_profile(spec, omega).local_fields for omega in (0.5, 50.0, 1e3)]
    return np.array(rows)


@pytest.mark.parametrize("n", [*range(2, 13), 31, 55, 100])
def test_transfer_spectra_match_decompose_bit_for_bit(n):
    """The kernel's levels and site-1 -> N weights are the bits of
    ``decompose`` followed by ``transition_weights``, row by row."""
    fields = _kernel_rows(n)
    levels, weights = transfer_spectra(fields)
    assert levels.shape == weights.shape == fields.shape
    for row, lam, w in zip(fields, levels, weights):
        decomp = decompose(ChainSpec(n), FieldProfile(row))
        assert _same_bits(lam, decomp.eigenvalues)
        assert _same_bits(w, transition_weights(decomp, 1, n))


def test_transfer_spectra_cover_exactly_degenerate_parity_pairs():
    ties = 0
    for n in (10, 31, 55, 100):
        levels, _ = transfer_spectra(_kernel_rows(n))
        ties += int(np.sum(levels[:, 1:] == levels[:, :-1]))
    assert ties > 0


@pytest.mark.parametrize("n", [2, 3, 10, 31])
def test_transfer_spectra_rows_get_their_own_bits_in_any_stack(n):
    """Mirror-symmetric and other rows, shuffled and repeated in one stack,
    each get the bits they get alone."""
    fields = _kernel_rows(n)
    order = np.random.default_rng(n).permutation(np.r_[np.arange(len(fields)), 0, 3])
    levels, weights = transfer_spectra(fields[order])
    for row, lam, w in zip(fields[order], levels, weights):
        alone = transfer_spectra(row[None])
        assert _same_bits(lam, alone[0][0]) and _same_bits(w, alone[1][0])


def test_transfer_spectra_bits_and_memory_do_not_depend_on_the_stack_size(monkeypatch):
    """The stack is solved in row chunks: a chunk of one or a few rows
    gives every row its bits, and a 2,000-chain stack at N = 40 never holds
    its 2,000 eigenvector matrices (25 MiB of them) at once."""
    fields = _kernel_rows(10)
    levels, weights = transfer_spectra(fields)
    monkeypatch.setattr(spectral, "_EIGH_ENTRIES", 60)
    small = transfer_spectra(fields)
    assert _same_bits(small[0], levels) and _same_bits(small[1], weights)
    monkeypatch.undo()
    stack = np.random.default_rng(8).uniform(-3.0, 3.0, (2000, 40))
    tracemalloc.start()
    try:
        transfer_spectra(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_transfer_spectra_input_guards():
    fields = _kernel_rows(6)
    for bad in (np.inf, -np.inf, np.nan):
        stack = fields.copy()
        stack[2, 1] = bad
        with pytest.raises(ValueError, match="local_fields must be finite"):
            transfer_spectra(stack)
    with pytest.raises(ValueError, match="stack"):
        transfer_spectra(fields[0])
    with pytest.raises(ValueError, match="n_sites"):
        transfer_spectra(np.zeros((3, 1)))
    levels, weights = transfer_spectra(np.zeros((0, 6)))
    assert levels.shape == weights.shape == (0, 6)


def test_tridiagonal_eigh_raises_on_lapack_failure():
    with pytest.raises(np.linalg.LinAlgError):
        tridiagonal_eigh(np.array([0.0, np.nan, 1.0]), np.array([-1.0, -1.0]))
    # a stack fails as a whole
    with pytest.raises(np.linalg.LinAlgError):
        tridiagonal_eigh(np.array([[0.0, 2.0, 1.0], [0.0, np.nan, 1.0]]), np.array([-1.0, -1.0]))


def test_tridiagonal_eigh_stacks_broadcast_and_single_sites():
    """A stack gives each matrix the bits it gets alone, with diagonals and
    off-diagonals broadcast against each other; a one-site matrix needs no
    off-diagonal entry."""
    rng = np.random.default_rng(4)
    d = rng.normal(scale=5.0, size=(2, 3, 7))
    e = rng.normal(size=(3, 6))
    w, v = tridiagonal_eigh(d, e)
    assert w.shape == (2, 3, 7) and v.shape == (2, 3, 7, 7)
    for i, j in np.ndindex(2, 3):
        w_one, v_one = tridiagonal_eigh(d[i, j], e[j])
        assert np.array_equal(w[i, j], w_one) and np.array_equal(v[i, j], v_one)
    w, v = tridiagonal_eigh(np.array([[2.5], [-1.0]]), np.empty(0))
    assert w.tolist() == [[2.5], [-1.0]] and v.tolist() == [[[1.0]], [[1.0]]]


def _stevd_rows(d, e):
    """``tridiagonal_eigh`` by one scipy stevd call per matrix, the solver the
    package used before numpy's stacked eigh."""
    d = np.asarray(d, dtype=float)
    e = np.broadcast_to(e, d.shape[:-1] + (d.shape[-1] - 1,))
    pairs = [eigh_tridiagonal(d[i], e[i], lapack_driver="stevd") for i in np.ndindex(d.shape[:-1])]
    n = d.shape[-1]
    w = np.array([w for w, _ in pairs]).reshape(d.shape)
    v = np.array([v for _, v in pairs]).reshape(d.shape + (n,))
    return w, v


def _guard_stacks():
    """Field stacks of the chain families the outputs are built from."""
    for n in range(2, 101):
        omegas = (0.0, 0.5, 4.0, 20.0, 100.0) if n >= 4 else ()
        yield f"barrier{n}", np.array([np.zeros(n), *(barrier_profile(ChainSpec(n), w).local_fields for w in omegas)])
    # strong barriers make the barrier pair exactly degenerate
    for n in (*range(2, 14), 18, 55, 100):
        halves = np.random.default_rng(200 + n).uniform(-3.0, 3.0, (3, n))
        rows = [*(halves + halves[:, ::-1])]
        if n >= 4:
            rows += [barrier_profile(ChainSpec(n), omega).local_fields for omega in (50.0, 1e3, 1e4)]
        yield f"mirror{n}", np.array(rows)
    for n, model in ((10, DisorderModel(BULK_UNIFORM, 1.0)), (10, DisorderModel(BULK_UNIFORM, 4.0)),
                     (30, DisorderModel(BARRIER_LEAKAGE, 20.0)), (33, DisorderModel(BULK_UNIFORM, 2.0))):
        spec = ChainSpec(n)
        (fields,) = _ensemble_fields([model], barrier_profile(spec, 20.0), 40, seed=2024)
        yield f"disorder{n}", fields


def test_levels_and_weights_match_scipy_stevd_bit_for_bit(monkeypatch):
    """The outputs' bits rest on numpy's LAPACK solving each tridiagonal as
    scipy's stevd did: ``transfer_spectra``'s levels and weights must equal,
    bit for bit, those of the same kernel with every stacked eigensolve
    replaced by one stevd call per matrix.  This fails loudly if a numpy or
    LAPACK build ever computes otherwise."""
    stacks = list(_guard_stacks())
    got = [transfer_spectra(fields) for _, fields in stacks]
    monkeypatch.setattr(spectral, "tridiagonal_eigh", _stevd_rows)
    ties = 0
    for (label, fields), (levels, weights) in zip(stacks, got):
        want_levels, want_weights = transfer_spectra(fields)
        assert _same_bits(levels, want_levels) and _same_bits(weights, want_weights), label
        ties += int(np.sum(levels[:, 1:] == levels[:, :-1]))
    assert ties > 0


def test_site_state_validation():
    state = site_state(5, 3)
    assert state[2] == 1.0
    assert np.linalg.norm(state) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        site_state(5, 6)
    with pytest.raises(ValueError):
        site_state(5, 0)
