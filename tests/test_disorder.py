import numpy as np
import pytest

from barrierchain import disorder
from barrierchain.chain import ChainSpec, FieldProfile, barrier_profile, build_hamiltonian
from barrierchain.disorder import (
    BARRIER_LEAKAGE,
    BULK_UNIFORM,
    DisorderModel,
    _ensemble_fields,
    default_window,
    monte_carlo,
    sample_profile,
)
from barrierchain.metrics import average_fidelity, localization_report, max_fidelity, peak_search, rabi_transfer_time
from barrierchain.spectral import decompose, eigendecompose, transfer_spectra, transition_weights

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


@pytest.mark.parametrize("strength", [-1.0, np.nan, np.inf])
def test_model_strength_must_be_finite_and_non_negative(strength):
    for kind in (BULK_UNIFORM, BARRIER_LEAKAGE):
        with pytest.raises(ValueError, match="strength"):
            DisorderModel(kind, strength)


def test_bulk_model_names_a_strength_whose_draw_range_overflows():
    DisorderModel(BULK_UNIFORM, np.finfo(float).max / 2)
    with pytest.raises(ValueError, match="strength 1e\\+308"):
        DisorderModel(BULK_UNIFORM, 1e308)
    with pytest.raises(ValueError, match="strength"):
        DisorderModel(BULK_UNIFORM, np.float64(1e308))


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
    (fields,) = _ensemble_fields([model], base, 64, seed=2024)
    assert fields.shape == (64, n)
    for index in range(64):
        assert np.array_equal(fields[index], sample_profile(model, base, index, 2024).local_fields)


@pytest.mark.parametrize("seed", [0, 2024, 2**63, 2**64 - 1])
def test_rekeyed_draws_are_fresh_philox_draws(seed):
    """One re-keyed bit generator gives sample i the draws of a fresh
    Philox(key=[seed, i]) bit for bit, for every draw length 1..9: an odd
    length leaves part of a four-word block buffered, which the re-key
    must drop rather than hand to the next sample."""
    keys = [np.array([seed, i], dtype=np.uint64) for i in range(1000)]
    for size in range(1, 10):
        expected = np.array([np.random.Generator(np.random.Philox(key=key)).random(size) for key in keys])
        assert np.array_equal(disorder._unit_draws(seed, 1000, size), expected)


def test_leakage_draws_are_one_sided():
    base = barrier_profile(N10, 40.0)
    model = DisorderModel(BARRIER_LEAKAGE, 40.0)
    for index in range(20):
        profile = sample_profile(model, base, index, seed=2)
        for site, cap in ((3, 4.0), (4, 1.0), (7, 1.0), (8, 4.0)):
            delta = profile.field(site) - base.field(site)
            assert 0.0 <= delta <= cap


def test_zero_strength_ensemble_reproduces_clean_peak():
    (result,) = monte_carlo(
        "max-fidelity", [DisorderModel(BULK_UNIFORM, 0.0)], N10, 20.0, WINDOW10,
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


def _counting_solves(monkeypatch):
    """Record the bytes of every chain handed to the transfer-spectrum
    kernel, one entry per row (one solve each)."""
    calls = []

    def counted(fields):
        calls.extend(row.tobytes() for row in fields)
        return transfer_spectra(fields)

    monkeypatch.setattr(disorder, "transfer_spectra", counted)
    return calls


def _one_chain_search(fields, window, t_max):
    decomp = decompose(N10, FieldProfile(fields))
    [(_, abs_f)] = peak_search([(decomp.eigenvalues[None], transition_weights(decomp, 1, 10)[None, None])], window, t_max)
    return abs_f[0]


def test_zero_strength_ensemble_decomposes_the_clean_chain_once(monkeypatch):
    calls = _counting_solves(monkeypatch)
    (result,) = monte_carlo(
        "max-concurrence", [DisorderModel(BULK_UNIFORM, 0.0)], N10, 20.0, WINDOW10,
        n_samples=12, seed=1,
    )
    assert len(calls) == 1
    t_max = disorder._clean_rabi_time(N10, 20.0)
    clean = _one_chain_search(barrier_profile(N10, 20.0).local_fields, WINDOW10, t_max)
    assert result.per_sample.tolist() == [clean] * 12


def test_repeated_samples_are_searched_once_and_mapped_back(monkeypatch):
    """Samples equal byte for byte share one search and get its bits in
    their own positions; a -0.0 field is a sample of its own."""
    rng = np.random.default_rng(3)
    base = barrier_profile(N10, 20.0).local_fields
    distinct = [base + np.r_[0, 0, rng.uniform(-1, 1, 6), 0, 0] for _ in range(3)]
    signed = distinct[0].copy()
    signed[0] = -0.0
    pattern = [2, 0, 1, 0, 3, 2, 0, 1]
    fields = np.array([(distinct + [signed])[k] for k in pattern])
    monkeypatch.setattr(disorder, "_ensemble_fields", lambda *args: fields[None].copy())
    calls = _counting_solves(monkeypatch)
    (result,) = monte_carlo(
        "max-concurrence", [DisorderModel(BULK_UNIFORM, 1.0)], N10, 20.0, WINDOW10,
        n_samples=len(pattern), seed=0,
    )
    assert sorted(calls) == sorted({row.tobytes() for row in fields})
    assert len(calls) == 4
    t_max = disorder._clean_rabi_time(N10, 20.0)
    assert result.per_sample.tolist() == [_one_chain_search(row, WINDOW10, t_max) for row in fields]


def test_monte_carlo_summary_matches_samples():
    (result,) = monte_carlo(
        "max-concurrence", [DisorderModel(BULK_UNIFORM, 1.0)], N10, 20.0, WINDOW10,
        n_samples=12, seed=5,
    )
    assert result.per_sample.shape == (12,)
    assert result.mean_metric == pytest.approx(np.mean(result.per_sample))
    assert result.std_error == pytest.approx(
        np.std(result.per_sample, ddof=1) / np.sqrt(12)
    )


def test_metric_pair_is_consistent():
    # max-fidelity is the fidelity at the same peak the concurrence metric finds
    shared = dict(n_samples=5, seed=13)
    model = DisorderModel(BULK_UNIFORM, 1.0)
    (conc,) = monte_carlo("max-concurrence", [model], N10, 20.0, WINDOW10, **shared)
    (fid,) = monte_carlo("max-fidelity", [model], N10, 20.0, WINDOW10, **shared)
    for c, f in zip(conc.per_sample, fid.per_sample):
        assert f == pytest.approx(average_fidelity(c), abs=1e-12)


def test_monte_carlo_input_guards():
    model = DisorderModel(BULK_UNIFORM, 1.0)
    with pytest.raises(ValueError):
        monte_carlo("peak", [model], N10, 20.0, WINDOW10, n_samples=2, seed=0)
    with pytest.raises(ValueError):
        monte_carlo("max-fidelity", [model], N10, 20.0, WINDOW10, n_samples=0, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_monte_carlo_names_an_out_of_range_seed_before_any_draw(seed, monkeypatch):
    draws = []
    monkeypatch.setattr(disorder, "_unit_draws", lambda *key: draws.append(key))
    model = DisorderModel(BULK_UNIFORM, 1.0)
    with pytest.raises(ValueError, match=rf"seed .*{seed}"):
        monte_carlo("max-fidelity", [model], N10, 20.0, WINDOW10, n_samples=2, seed=seed)
    assert draws == []


@pytest.mark.parametrize("bad", [1.7, 2.0, np.float64(3.0), True, np.bool_(False), "3", None])
def test_a_non_integer_seed_or_index_is_named_before_any_draw(bad, monkeypatch):
    """A seed or sample index that is not an integer (a bool included) is
    rejected by name, not truncated to the integer below it, at every
    entry point and before any draw."""
    draws = []
    monkeypatch.setattr(disorder, "_unit_draws", lambda *key: draws.append(key))
    monkeypatch.setattr(disorder, "_sample_rng", lambda *key: draws.append(key))
    model = DisorderModel(BULK_UNIFORM, 1.0)
    base = barrier_profile(N10, 20.0)
    with pytest.raises(ValueError, match=r"^seed must be an integer"):
        monte_carlo("max-fidelity", [model], N10, 20.0, WINDOW10, n_samples=2, seed=bad)
    with pytest.raises(ValueError, match=r"^seed must be an integer"):
        sample_profile(model, base, sample_index=0, seed=bad)
    with pytest.raises(ValueError, match=r"^sample_index must be an integer"):
        sample_profile(model, base, sample_index=bad, seed=0)
    assert draws == []
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"^seed must be an integer"):
        disorder._unit_draws(bad, 2, 3)


@pytest.mark.parametrize("index", [-1, 2**64])
def test_sample_profile_names_an_out_of_range_index(index):
    with pytest.raises(ValueError, match=rf"sample_index must lie in \[0, 2\*\*64\), got {index}"):
        sample_profile(DisorderModel(BULK_UNIFORM, 1.0), barrier_profile(N10, 20.0), index, 0)


def test_numpy_integer_keys_draw_as_python_ints():
    model = DisorderModel(BULK_UNIFORM, 1.0)
    base = barrier_profile(N10, 20.0)
    expected = sample_profile(model, base, 3, 2**64 - 1).local_fields
    assert np.array_equal(sample_profile(model, base, np.int64(3), np.uint64(2**64 - 1)).local_fields, expected)
    assert np.array_equal(disorder._unit_draws(np.uint64(2**64 - 1), 4, 6), disorder._unit_draws(2**64 - 1, 4, 6))


def test_monte_carlo_of_no_models_is_empty():
    assert monte_carlo("max-fidelity", [], N10, 20.0, WINDOW10, n_samples=2, seed=0) == []


def test_stack_draws_once_per_site_set_and_searches_each_distinct_sample_once(monkeypatch):
    """Every bulk strength maps the same per-sample draws, the leakage
    model draws its own, and the clean chain at b = 0 is solved once
    for the whole stack."""
    keys = []
    unit_draws = disorder._unit_draws

    def counted(seed, n_samples, size):
        keys.extend((seed, index) for index in range(n_samples))
        return unit_draws(seed, n_samples, size)

    monkeypatch.setattr(disorder, "_unit_draws", counted)
    calls = _counting_solves(monkeypatch)
    models = [DisorderModel(BULK_UNIFORM, b) for b in (0.0, 1.0, 2.0)] + [DisorderModel(BARRIER_LEAKAGE, 20.0)]
    results = monte_carlo("max-concurrence", models, N10, 20.0, WINDOW10, n_samples=6, seed=4)
    assert [result.per_sample.shape for result in results] == [(6,)] * 4
    assert sorted(keys) == sorted([(4, i) for i in range(6)] * 2)
    assert len(calls) == len(set(calls)) == 1 + 3 * 6
    base = barrier_profile(N10, 20.0)
    t_max = disorder._clean_rabi_time(N10, 20.0)
    for model, result in zip(models, results):
        fields = [sample_profile(model, base, i, 4).local_fields for i in range(6)]
        assert result.per_sample.tolist() == [_one_chain_search(row, WINDOW10, t_max) for row in fields]


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
        (result,) = monte_carlo(
            "max-concurrence", [DisorderModel(BULK_UNIFORM, 1.0)], N10, omega, window,
            n_samples=60, seed=3,
        )
        means[omega] = (result.mean_metric, result.std_error)
    gap = abs(means[20.0][0] - means[40.0][0])
    combined = np.hypot(means[20.0][1], means[40.0][1])
    assert gap <= 2.0 * combined
