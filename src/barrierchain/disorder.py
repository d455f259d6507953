"""Static-disorder ensembles over transfer metrics.

Two defect models: 'bulk-uniform' draws K_n ~ Uniform(-b, b) on the interior
sites 3..N-2 (sender, receiver, and barrier sites are assumed under control),
and 'barrier-leakage' puts K ~ Uniform(0, omega/10) on sites 3 and N-2 plus
K ~ Uniform(0, omega/40) on sites 4 and N-3, modelling barrier fields that
bleed onto their neighbors.

Each sample's fields come from a counter-based Philox stream keyed by
(seed, sample_index), so a sample's value depends on nothing but its own
index.  An ensemble decomposes its samples one by one in index order, then
searches all their peaks at once: one ``metrics.transfer_peaks`` call, whose
lockstep refinement gives each sample the bits a search of that sample
alone would.  The mean is reduced with numpy's pairwise summation over the
index-ordered sample array.  Nothing here takes a thread count; the CLI's
``--threads`` flag is parsed and ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, barrier_profile, FieldProfile
from .metrics import average_fidelity, barrier_report, rabi_transfer_time, transfer_peaks
from .spectral import decompose, transition_weights

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
        if self.strength < 0:
            raise ValueError("strength must be >= 0")

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


def _sample_rng(seed: int, sample_index: int) -> np.random.Generator:
    key = np.array([seed, sample_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_profile(model: DisorderModel, base: FieldProfile, sample_index: int, seed: int) -> FieldProfile:
    """One disorder realization added to a base profile.

    Deterministic in (seed, sample_index); the base barrier sites are never
    touched by the bulk model.
    """
    spec = ChainSpec(len(base))
    sites = model.affected_sites(spec)
    low, high = model.bounds(spec)
    draws = _sample_rng(seed, sample_index).uniform(low, high)
    fields = base.local_fields.copy()
    for site, value in zip(sites, draws):
        fields[site - 1] += value
    return FieldProfile(fields)


def _ensemble_fields(model: DisorderModel, base: FieldProfile, n_samples: int, seed: int) -> np.ndarray:
    """Fields of samples 0..n_samples-1, row i bit for bit those of
    ``sample_profile(model, base, i, seed)``.

    The sites and bounds are worked out once.  Each sample draws its unit
    variates from its own (seed, index) Philox stream, and the map
    low + (high - low) u that ``Generator.uniform`` applies to them is
    applied to every sample at once.
    """
    spec = ChainSpec(len(base))
    sites = np.array(model.affected_sites(spec)) - 1
    low, high = model.bounds(spec)
    units = np.array([_sample_rng(seed, i).random(sites.size) for i in range(n_samples)])
    fields = np.tile(base.local_fields, (n_samples, 1))
    fields[:, sites] += low + (high - low) * units
    return fields


@dataclass(frozen=True)
class EnsembleResult:
    """Monte Carlo summary; std_error = sample std / sqrt(n_samples)."""

    n_samples: int
    seed: int
    mean_metric: float
    std_error: float
    per_sample: np.ndarray | None = None


MAX_CONCURRENCE = "max-concurrence"
MAX_FIDELITY = "max-fidelity"


def default_window(spec: ChainSpec, omega: float, factor: float = 3.0) -> tuple[float, float]:
    """[0, factor t_MAX] of the clean barrier chain; the default 3 is
    generous enough that a disorder-shifted Rabi peak still falls inside."""
    return (0.0, factor * rabi_transfer_time(barrier_report(spec, omega)))


def monte_carlo(
    metric: str,
    model: DisorderModel,
    chain: ChainSpec,
    omega: float,
    window: tuple[float, float],
    n_samples: int,
    seed: int,
    keep_samples: bool = False,
) -> EnsembleResult:
    """Average the peak transfer metric over disorder realizations.

    Every sample rebuilds and re-diagonalizes its own chain, keeping only
    its eigenvalues and transfer weights; one ``transfer_peaks`` search
    then serves the whole ensemble, with a grid step fixed by the clean
    chain's Rabi time so all samples see identical scan parameters.  Each
    sample's peak has the bits a search of that sample alone gives.
    """
    if metric not in (MAX_CONCURRENCE, MAX_FIDELITY):
        raise ValueError(f"unknown metric {metric!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    base = barrier_profile(chain, omega)
    t_max = rabi_transfer_time(barrier_report(chain, omega))
    levels = np.empty((n_samples, chain.n_sites))
    weights = np.empty((n_samples, chain.n_sites))
    for i, fields in enumerate(_ensemble_fields(model, base, n_samples, seed)):
        decomp = decompose(chain, FieldProfile(fields))
        levels[i] = decomp.eigenvalues
        weights[i] = transition_weights(decomp, 1, chain.n_sites)
    # peak concurrence is |f| at the peak (Fbar is monotone in |f|)
    _, abs_f = transfer_peaks(levels, weights, window, t_max=t_max)
    values = abs_f if metric == MAX_CONCURRENCE else average_fidelity(abs_f)
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return EnsembleResult(
        n_samples=n_samples,
        seed=seed,
        mean_metric=mean,
        std_error=std_error,
        per_sample=values if keep_samples else None,
    )
