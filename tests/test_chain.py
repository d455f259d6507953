import numpy as np
import pytest

from barrierchain.chain import (
    ChainSpec,
    FieldProfile,
    SingleExcitationHamiltonian,
    barrier_profile,
    build_hamiltonian,
    ebit_barrier_profile,
    parse_config_block,
    uniform_profile,
)


def test_chain_spec_validation():
    assert ChainSpec(4).n_sites == 4
    assert ChainSpec(4.0).n_sites == 4  # integral floats are coerced
    with pytest.raises(ValueError):
        ChainSpec(1)
    with pytest.raises(ValueError):
        ChainSpec(4.5)
    with pytest.raises(ValueError):
        ChainSpec(4, coupling=0.0)
    with pytest.raises(ValueError):
        ChainSpec(4, coupling=-1.0)


def test_field_profile_lookup_is_one_based():
    profile = FieldProfile(np.array([0.0, 3.0, 0.0, 7.0]))
    assert profile.field(2) == 3.0
    assert profile.field(4) == 7.0
    assert len(profile) == 4
    assert profile.nonzero_sites() == (2, 4)
    for bad in (0, 5):
        with pytest.raises(ValueError):
            profile.field(bad)


def test_field_profile_rejects_bad_arrays():
    with pytest.raises(ValueError):
        FieldProfile(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        FieldProfile(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        FieldProfile(np.array([0.0, np.inf]))


def test_field_profile_is_immutable():
    profile = FieldProfile(np.zeros(4))
    with pytest.raises(ValueError):
        profile.local_fields[0] = 1.0


def test_mirror_symmetry_and_negation():
    sym = FieldProfile(np.array([0.0, 5.0, 5.0, 0.0]))
    asym = FieldProfile(np.array([0.0, 5.0, 0.0, 0.0]))
    assert sym.is_mirror_symmetric()
    assert not asym.is_mirror_symmetric()
    assert np.array_equal(sym.negated().local_fields, -sym.local_fields)


@pytest.mark.parametrize("n", [4, 9, 18])
def test_barrier_profile_sites(n):
    profile = barrier_profile(ChainSpec(n), 12.5)
    assert profile.nonzero_sites() == (2, n - 1)
    assert profile.field(2) == 12.5
    assert profile.is_mirror_symmetric()


def test_barrier_profile_validation():
    with pytest.raises(ValueError):
        barrier_profile(ChainSpec(3), 1.0)
    with pytest.raises(ValueError):
        barrier_profile(ChainSpec(6), -0.5)


@pytest.mark.parametrize("n", [6, 11, 33])
def test_ebit_barrier_profile_sites(n):
    profile = ebit_barrier_profile(ChainSpec(n), 4.0)
    assert profile.nonzero_sites() == (3, n - 2)


def test_ebit_barrier_profile_needs_six_sites():
    with pytest.raises(ValueError):
        ebit_barrier_profile(ChainSpec(5), 4.0)


def test_hamiltonian_assembly():
    # diagonal is 2 K_n, off-diagonal a constant -J
    spec = ChainSpec(5, coupling=2.0)
    profile = FieldProfile(np.array([1.0, 0.0, -3.0, 0.0, 0.5]))
    h = build_hamiltonian(spec, profile)
    assert np.array_equal(h.diagonal, np.array([4.0, 0.0, -12.0, 0.0, 2.0]))
    assert np.array_equal(h.off_diagonal, np.full(4, -2.0))
    dense = h.dense()
    assert np.array_equal(dense, dense.T)
    assert dense[0, 2] == 0.0


def test_hamiltonian_profile_length_mismatch():
    with pytest.raises(ValueError):
        build_hamiltonian(ChainSpec(4), uniform_profile(ChainSpec(5)))
    with pytest.raises(ValueError):
        SingleExcitationHamiltonian(np.zeros(4), np.zeros(4))


def test_parse_config_block():
    cfg = parse_config_block(
        """
        # a comment line
        n_sites = 6
        coupling = 1.5   # trailing comment
        barrier-sites = [2, 5]
        label = max-concurrence
        """
    )
    assert cfg == {
        "n_sites": 6,
        "coupling": 1.5,
        "barrier_sites": [2, 5],
        "label": "max-concurrence",
    }
