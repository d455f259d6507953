import numpy as np
import pytest

from barrierchain.chain import ChainSpec, barrier_profile, build_hamiltonian
from barrierchain.disorder import (
    BARRIER_LEAKAGE,
    BULK_UNIFORM,
    DisorderModel,
    _ensemble_fields,
    default_window,
    monte_carlo,
    sample_profile,
)
from barrierchain.metrics import average_fidelity, localization_report, max_fidelity, rabi_transfer_time
from barrierchain.spectral import eigendecompose

N10 = ChainSpec(10)
WINDOW10 = default_window(N10, 20.0)


def test_bulk_model_touches_interior_sites_only():
    model = DisorderModel(BULK_UNIFORM, 2.0)
    assert model.affected_sites(N10) == (3, 4, 5, 6, 7, 8)
    low, high = model.bounds(N10)
    assert np.array_equal(low, np.full(6, -2.0))
    assert np.array_equal(high, np.full(6, 2.0))


def test_leakage_model_sites_and_bounds():
    model = DisorderModel(BARRIER_LEAKAGE, 40.0)
    assert model.affected_sites(N10) == (3, 4, 7, 8)
    low, high = model.bounds(N10)
    assert np.array_equal(low, np.zeros(4))
    assert np.array_equal(high, np.array([4.0, 1.0, 1.0, 4.0]))


def test_leakage_model_rejects_overlapping_sites():
    with pytest.raises(ValueError):
        DisorderModel(BARRIER_LEAKAGE, 10.0).affected_sites(ChainSpec(7))


def test_sample_profile_is_deterministic_and_local():
    base = barrier_profile(N10, 20.0)
    model = DisorderModel(BULK_UNIFORM, 1.5)
    a = sample_profile(model, base, sample_index=3, seed=11)
    b = sample_profile(model, base, sample_index=3, seed=11)
    c = sample_profile(model, base, sample_index=4, seed=11)
    assert np.array_equal(a.local_fields, b.local_fields)
    assert not np.array_equal(a.local_fields, c.local_fields)
    # barrier and end sites are never touched by the bulk model
    for site in (1, 2, 9, 10):
        assert a.field(site) == base.field(site)
    low, high = model.bounds(N10)
    draws = a.local_fields[2:8] - base.local_fields[2:8]
    assert np.all(draws >= low) and np.all(draws <= high)


@pytest.mark.parametrize(
    "n, model",
    [
        (10, DisorderModel(BULK_UNIFORM, 2.0)),
        (10, DisorderModel(BULK_UNIFORM, 0.2)),
        (10, DisorderModel(BARRIER_LEAKAGE, 40.0)),
        (30, DisorderModel(BARRIER_LEAKAGE, 7.5)),
    ],
    ids=["bulk2-n10", "bulk0.2-n10", "leakage40-n10", "leakage7.5-n30"],
)
def test_ensemble_fields_are_sample_profile_bit_for_bit(n, model):
    # an ensemble draws every sample's fields at once, from the same
    # per-sample Philox streams as sample_profile
    base = barrier_profile(ChainSpec(n), 40.0)
    fields = _ensemble_fields(model, base, 64, seed=2024)
    assert fields.shape == (64, n)
    for index in range(64):
        assert np.array_equal(fields[index], sample_profile(model, base, index, 2024).local_fields)


def test_leakage_draws_are_one_sided():
    base = barrier_profile(N10, 40.0)
    model = DisorderModel(BARRIER_LEAKAGE, 40.0)
    for index in range(20):
        profile = sample_profile(model, base, index, seed=2)
        for site, cap in ((3, 4.0), (4, 1.0), (7, 1.0), (8, 4.0)):
            delta = profile.field(site) - base.field(site)
            assert 0.0 <= delta <= cap


def test_zero_strength_ensemble_reproduces_clean_peak():
    result = monte_carlo(
        "max-fidelity", DisorderModel(BULK_UNIFORM, 0.0), N10, 20.0, WINDOW10,
        n_samples=4, seed=1,
    )
    base = barrier_profile(N10, 20.0)
    report = localization_report(eigendecompose(build_hamiltonian(N10, base)), base)
    _, clean = max_fidelity(
        eigendecompose(build_hamiltonian(N10, base)), WINDOW10,
        t_max=rabi_transfer_time(report),
    )
    assert result.mean_metric == pytest.approx(clean, abs=1e-12)
    # identical samples; only mean-subtraction rounding can leak in
    assert result.std_error <= 1e-12


def test_monte_carlo_summary_matches_samples():
    result = monte_carlo(
        "max-concurrence", DisorderModel(BULK_UNIFORM, 1.0), N10, 20.0, WINDOW10,
        n_samples=12, seed=5, keep_samples=True,
    )
    assert result.per_sample.shape == (12,)
    assert result.mean_metric == pytest.approx(np.mean(result.per_sample))
    assert result.std_error == pytest.approx(
        np.std(result.per_sample, ddof=1) / np.sqrt(12)
    )


def test_metric_pair_is_consistent():
    # max-fidelity is the fidelity at the same peak the concurrence metric finds
    shared = dict(n_samples=5, seed=13, keep_samples=True)
    model = DisorderModel(BULK_UNIFORM, 1.0)
    conc = monte_carlo("max-concurrence", model, N10, 20.0, WINDOW10, **shared)
    fid = monte_carlo("max-fidelity", model, N10, 20.0, WINDOW10, **shared)
    for c, f in zip(conc.per_sample, fid.per_sample):
        assert f == pytest.approx(average_fidelity(c), abs=1e-12)


def test_monte_carlo_input_guards():
    model = DisorderModel(BULK_UNIFORM, 1.0)
    with pytest.raises(ValueError):
        monte_carlo("peak", model, N10, 20.0, WINDOW10, n_samples=2, seed=0)
    with pytest.raises(ValueError):
        monte_carlo("max-fidelity", model, N10, 20.0, WINDOW10, n_samples=0, seed=0)


def test_default_window_is_three_rabi_periods():
    profile = barrier_profile(N10, 20.0)
    report = localization_report(eigendecompose(build_hamiltonian(N10, profile)), profile)
    lo, hi = default_window(N10, 20.0)
    assert lo == 0.0
    assert hi == pytest.approx(3.0 * rabi_transfer_time(report))


def test_bulk_curves_coincide_across_omega():
    """At fixed b the degradation is set by the bulk levels, not the barrier
    height, so strong-barrier curves collapse onto each other."""
    means = {}
    for omega in (20.0, 40.0):
        window = default_window(N10, omega)
        result = monte_carlo(
            "max-concurrence", DisorderModel(BULK_UNIFORM, 1.0), N10, omega, window,
            n_samples=60, seed=3,
        )
        means[omega] = (result.mean_metric, result.std_error)
    gap = abs(means[20.0][0] - means[40.0][0])
    combined = np.hypot(means[20.0][1], means[40.0][1])
    assert gap <= 2.0 * combined
