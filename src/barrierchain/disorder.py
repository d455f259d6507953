"""Static-disorder ensembles over transfer metrics.

Two defect models: 'bulk-uniform' draws K_n ~ Uniform(-b, b) on the interior
sites 3..N-2 (sender, receiver, and barrier sites are assumed under control),
and 'barrier-leakage' puts K ~ Uniform(0, omega/10) on sites 3 and N-2 plus
K ~ Uniform(0, omega/40) on sites 4 and N-3, modelling barrier fields that
bleed onto their neighbors.

Each sample's fields come from a counter-based Philox stream keyed by
(seed, sample_index), so a sample's value depends on nothing but its own
index; a seed or index that is not an integer in [0, 2**64) is rejected
by name before any draw.  ``monte_carlo`` runs every ensemble of one
(chain, omega, window) as one stack: each sample draws its unit variates
once per distinct affected-site set, so every bulk strength b maps the
same draws to its own fields.  A stack draws through one Philox bit
generator re-keyed to (seed, i) before each sample (``_unit_draws``),
which gives sample i the stream a fresh ``Philox(key=[seed, i])`` gives
(``sample_profile``, the reference path) without building one per
sample.  The stack solves each distinct sample once, in one
``spectral.transfer_spectra`` call that returns only the levels and
end-to-end weights a search needs: samples whose fields are equal byte
for byte (every sample at b = 0, where each is the clean chain) share one
solve and one search.  It then searches all their peaks at once, in one
``metrics.peak_search`` call whose lockstep refinement gives each sample
the bits a search of that sample alone would, and maps the peaks back to
each ensemble in sample-index order, so an ensemble's results do not
depend on the others in its stack.  Each mean is reduced with numpy's
pairwise summation over the index-ordered sample array.  The clean chain's
Rabi time, which sets both ``default_window`` and the scan step, is worked
out once per (chain, omega).  Nothing here takes a thread count; the CLI's
``--threads`` flag is parsed and ignored.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import ChainSpec, barrier_profile, FieldProfile
from .metrics import average_fidelity, barrier_report, peak_search, rabi_transfer_time
from .spectral import transfer_spectra

BULK_UNIFORM = "bulk-uniform"
BARRIER_LEAKAGE = "barrier-leakage"


@dataclass(frozen=True)
class DisorderModel:
    """Defect kind plus its single strength parameter.

    strength is the half-width b for bulk-uniform and the barrier field
    omega whose fractions leak for barrier-leakage.
    """

    kind: str
    strength: float

    def __post_init__(self) -> None:
        if self.kind not in (BULK_UNIFORM, BARRIER_LEAKAGE):
            raise ValueError(f"unknown disorder kind {self.kind!r}")
        if not 0 <= self.strength < np.inf:
            raise ValueError(f"strength must be finite and >= 0, got {self.strength}")
        if self.kind == BULK_UNIFORM and not np.isfinite(2.0 * float(self.strength)):
            raise ValueError(f"bulk-uniform strength {self.strength} has a draw range 2b that is not finite")

    def affected_sites(self, spec: ChainSpec) -> tuple[int, ...]:
        n = spec.n_sites
        if self.kind == BULK_UNIFORM:
            sites = tuple(range(3, n - 1))
            if not sites:
                raise ValueError(f"no interior sites 3..N-2 for N = {n}")
            return sites
        sites = (3, 4, n - 3, n - 2)
        if len(set(sites)) != 4 or sites[1] >= sites[2]:
            raise ValueError(f"leakage sites 3,4,N-3,N-2 collide for N = {n}")
        return sites

    def bounds(self, spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
        """(low, high) per affected site, in site order."""
        sites = self.affected_sites(spec)
        if self.kind == BULK_UNIFORM:
            b = self.strength
            return np.full(len(sites), -b), np.full(len(sites), b)
        near = self.strength / 10.0
        next_near = self.strength / 40.0
        return np.zeros(4), np.array([near, next_near, next_near, near])


def _check_key(name: str, value) -> None:
    """Reject a Philox key word (seed or sample index) that is not an
    integer in [0, 2**64), naming it; a bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 0 <= int(value) < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")


def _sample_rng(seed: int, sample_index: int) -> np.random.Generator:
    key = np.array([seed, sample_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _unit_draws(seed: int, n_samples: int, size: int) -> np.ndarray:
    """Unit variates of samples 0..n_samples-1, shaped (n_samples, size):
    row i is bit for bit ``_sample_rng(seed, i).random(size)``.

    Philox is counter based (Salmon et al., SC'11, "Parallel random
    numbers: as easy as 1, 2, 3"): its stream is fixed by its key and
    counter alone.  So one bit generator is set, before each sample, to
    the state of a fresh ``Philox(key=[seed, i])``: the state a fresh
    Philox(key=[seed, 0]) starts in (counter 0, an empty buffer, no stored
    32-bit half) with the key's second word set to i.  That drops whatever
    part of a four-word block the previous sample left buffered.
    """
    _check_key("seed", seed)
    bit_generator = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    fresh = bit_generator.state
    key = fresh["state"]["key"]
    generator = np.random.Generator(bit_generator)
    units = np.empty((n_samples, size))
    for i in range(n_samples):
        key[1] = i
        bit_generator.state = fresh
        generator.random(out=units[i])
    return units


def sample_profile(model: DisorderModel, base: FieldProfile, sample_index: int, seed: int) -> FieldProfile:
    """One disorder realization added to a base profile.

    Deterministic in (seed, sample_index), each an integer in [0, 2**64);
    the base barrier sites are never touched by the bulk model.
    """
    _check_key("seed", seed)
    _check_key("sample_index", sample_index)
    spec = ChainSpec(len(base))
    sites = model.affected_sites(spec)
    low, high = model.bounds(spec)
    draws = _sample_rng(seed, sample_index).uniform(low, high)
    fields = base.local_fields.copy()
    for site, value in zip(sites, draws):
        fields[site - 1] += value
    return FieldProfile(fields)


def _ensemble_fields(models: Sequence[DisorderModel], base: FieldProfile, n_samples: int, seed: int) -> np.ndarray:
    """Fields of samples 0..n_samples-1 under each model, shaped
    (models, samples, N); entry [m, i] is bit for bit the fields of
    ``sample_profile(models[m], base, i, seed)``.

    Each sample draws its unit variates from its own (seed, index) Philox
    stream once per distinct affected-site set, all samples through one
    re-keyed bit generator (``_unit_draws``), and each model applies the
    map low + (high - low) u that ``Generator.uniform`` applies to them to
    every sample at once.
    """
    spec = ChainSpec(len(base))
    units: dict[tuple[int, ...], np.ndarray] = {}
    fields = np.tile(base.local_fields, (len(models), n_samples, 1))
    for model, model_fields in zip(models, fields):
        sites = model.affected_sites(spec)
        if sites not in units:
            units[sites] = _unit_draws(seed, n_samples, len(sites))
        low, high = model.bounds(spec)
        model_fields[:, np.array(sites) - 1] += low + (high - low) * units[sites]
    return fields


@dataclass(frozen=True)
class EnsembleResult:
    """Monte Carlo summary; std_error = sample std / sqrt(n_samples), and
    per_sample holds each sample's metric in sample-index order."""

    n_samples: int
    seed: int
    mean_metric: float
    std_error: float
    per_sample: np.ndarray


MAX_CONCURRENCE = "max-concurrence"
MAX_FIDELITY = "max-fidelity"


@lru_cache
def _clean_rabi_time(spec: ChainSpec, omega: float) -> float:
    """t_MAX of the clean barrier chain, reported once per (chain, omega):
    a caller's ``default_window`` and the ``monte_carlo`` runs in that
    window share one ``barrier_report``."""
    return rabi_transfer_time(barrier_report(spec, omega))


def default_window(spec: ChainSpec, omega: float, factor: float = 3.0) -> tuple[float, float]:
    """[0, factor t_MAX] of the clean barrier chain; the default 3 is
    generous enough that a disorder-shifted Rabi peak still falls inside."""
    return (0.0, factor * _clean_rabi_time(spec, omega))


def monte_carlo(
    metric: str,
    models: Sequence[DisorderModel],
    chain: ChainSpec,
    omega: float,
    window: tuple[float, float],
    n_samples: int,
    seed: int,
) -> list[EnsembleResult]:
    """Average the peak transfer metric over disorder realizations, one
    ensemble per model, returned in the order of ``models``.

    The ensembles share the chain, omega and window, and run as one stack:
    every distinct sample of the stack (by the bytes of its fields) is
    solved once, by one ``transfer_spectra`` call that returns only its
    eigenvalues and transfer weights; one ``peak_search`` call then serves every
    ensemble, with a grid step fixed by the clean chain's Rabi time so all
    samples see identical scan parameters.  Repeated samples take their
    peak from the one search of their fields, and each sample's peak has
    the bits a search of that sample alone gives, so each ensemble's
    result is the one a call with that model alone returns.
    """
    if metric not in (MAX_CONCURRENCE, MAX_FIDELITY):
        raise ValueError(f"unknown metric {metric!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    _check_key("seed", seed)
    base = barrier_profile(chain, omega)
    t_max = _clean_rabi_time(chain, omega)
    fields = _ensemble_fields(models, base, n_samples, seed).reshape(-1, chain.n_sites)
    # rows equal byte for byte (so -0.0 and 0.0 stay apart) are one chain
    keys = fields.view(np.dtype((np.void, fields.itemsize * chain.n_sites)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    levels, weights = transfer_spectra(fields[first])
    # peak concurrence is |f| at the peak (Fbar is monotone in |f|)
    [(_, abs_f)] = peak_search([(levels, weights[:, None])], window, t_max=t_max)
    abs_f = abs_f[inverse].reshape(len(models), n_samples)
    stack = abs_f if metric == MAX_CONCURRENCE else average_fidelity(abs_f)
    return [
        EnsembleResult(
            n_samples=n_samples,
            seed=seed,
            mean_metric=float(np.mean(values)),
            std_error=float(np.std(values, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0,
            per_sample=values,
        )
        for values in stack
    ]
