"""Static-disorder ensembles over transfer metrics.

Two defect models: 'bulk-uniform' draws K_n ~ Uniform(-b, b) on the interior
sites 3..N-2 (sender, receiver, and barrier sites are assumed under control),
and 'barrier-leakage' puts K ~ Uniform(0, omega/10) on sites 3 and N-2 plus
K ~ Uniform(0, omega/40) on sites 4 and N-3, modelling barrier fields that
bleed onto their neighbors.

Each sample's fields come from a counter-based Philox stream keyed by
(seed, sample_index), so results are independent of worker count and
execution order by construction; the mean is reduced with numpy's pairwise
summation over the index-ordered sample array.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, barrier_profile, FieldProfile
from .metrics import barrier_report, max_fidelity, rabi_transfer_time
from .spectral import decompose, transition_amplitude

RNG_KIND = "philox 2x64 key=(seed, sample_index)"

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
    threads: int | None = None,
    keep_samples: bool = False,
) -> EnsembleResult:
    """Average the peak transfer metric over disorder realizations.

    Every sample rebuilds and re-diagonalizes its own chain; the peak search
    uses a grid step fixed by the clean chain's Rabi time so all samples see
    identical scan parameters.
    """
    if metric not in (MAX_CONCURRENCE, MAX_FIDELITY):
        raise ValueError(f"unknown metric {metric!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    base = barrier_profile(chain, omega)
    t_max = rabi_transfer_time(barrier_report(chain, omega))

    def one_sample_value(index: int) -> float:
        profile = sample_profile(model, base, index, seed)
        decomp = decompose(chain, profile)
        t_star, fbar = max_fidelity(decomp, window, t_max=t_max)
        if metric == MAX_FIDELITY:
            return fbar
        # peak concurrence is |f| at the same peak (Fbar is monotone in |f|)
        return abs(transition_amplitude(decomp, 1, chain.n_sites, t_star))

    values = np.empty(n_samples)
    if threads is None or threads <= 1:
        for i in range(n_samples):
            values[i] = one_sample_value(i)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for i, value in enumerate(pool.map(one_sample_value, range(n_samples))):
                values[i] = value
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return EnsembleResult(
        n_samples=n_samples,
        seed=seed,
        mean_metric=mean,
        std_error=std_error,
        per_sample=values if keep_samples else None,
    )
