"""Entangled-pair transfer across the chain.

Two scenarios share the one-excitation propagator and differ only in the
readout.  With an idle external qubit holding half a singlet with site 1,
the transferred concurrence is just |f_{N1}(t)|.  With the pair encoded on
sites (1, 2) and barriers moved to sites 3 and N-2, the state
alpha|1> + beta|2> evolves by linearity to amplitudes p_j, and the
entanglement arriving on the receiver pair (N-1, N) is

    C_{N-1,N}(t) = 2 |p_{N-1}| |p_N|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, FieldProfile, ebit_barrier_profile
from .metrics import peak_search
from .spectral import SpectralDecomposition, decompose, evolve


@dataclass(frozen=True)
class EbitState:
    """Initial single-excitation superposition alpha|1> + beta|2>."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        if not np.all(np.isfinite([self.alpha, self.beta])):
            raise ValueError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"|alpha|^2 + |beta|^2 must be 1, got {norm}")


def _check_ebit_profile(spec: ChainSpec, profile: FieldProfile) -> None:
    if len(profile) != spec.n_sites:
        raise ValueError("profile length does not match the chain")
    expected = (3, spec.n_sites - 2)
    if profile.nonzero_sites() not in ((), expected):
        raise ValueError(f"pair transfer expects barriers on sites {expected}")


def evolve_ebit(
    spec: ChainSpec,
    profile: FieldProfile,
    state: EbitState,
    t: float,
    decomp: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Site amplitudes p_j(t) = alpha f_{j1}(t) + beta f_{j2}(t)."""
    _check_ebit_profile(spec, profile)
    if decomp is None:
        decomp = decompose(spec, profile)
    initial = np.zeros(spec.n_sites, dtype=complex)
    initial[0] = state.alpha
    initial[1] = state.beta
    return evolve(decomp, initial, t)


def pair_concurrence(p: np.ndarray) -> float:
    """Concurrence of the receiver pair, 2 |p_{N-1} p_N|."""
    p = np.asarray(p, dtype=complex)
    return float(2.0 * abs(p[-2]) * abs(p[-1]))


def dominant_pair_gap(
    spec: ChainSpec,
    profile: FieldProfile,
    state: EbitState,
) -> float:
    """Eigenvalue splitting of the two stationary states that carry most of
    the initial pair.

    The sender amplitudes expand as c_k = a_k1 alpha + a_k2 beta; the two
    eigenstates with the largest |c_k|^2 set the beat frequency of the
    entanglement revival.
    """
    _check_ebit_profile(spec, profile)
    decomp = decompose(spec, profile)
    weights = np.abs(
        decomp.eigenvectors[0, :] * state.alpha + decomp.eigenvectors[1, :] * state.beta
    ) ** 2
    top = np.argsort(weights)[-2:]
    gap = abs(float(decomp.eigenvalues[top[0]] - decomp.eigenvalues[top[1]]))
    if gap < 1e-12:
        raise ValueError("dominant eigenstate pair is degenerate; no finite beat period")
    return gap


def ebit_window(
    spec: ChainSpec,
    omega: float,
    state: EbitState | None = None,
) -> tuple[float, float]:
    """Search window [0, 3 pi / gap] sized by the pair configuration itself.

    The gap is the splitting of the dominant doublet for the launched state
    (equal superposition by default), so the window tracks the slower beat of
    the fenced pair rather than the single-qubit transfer time, which can be
    orders of magnitude shorter at large omega.
    """
    if state is None:
        state = EbitState(2.0 ** -0.5, 2.0 ** -0.5)
    profile = ebit_barrier_profile(spec, omega)
    gap = dominant_pair_gap(spec, profile, state)
    return (0.0, 3.0 * np.pi / gap)


def peak_pair_concurrence(
    spec: ChainSpec,
    profile: FieldProfile,
    state: EbitState,
    window: tuple[float, float],
) -> tuple[float, float]:
    """(t*, C*) maximizing the receiver-pair concurrence over a window.

    ``metrics.peak_search`` over |p_{N-1}| |p_N| on a grid of step 0.25,
    the same scan-plus-golden-section search as the fidelity peak, on a
    stack of one chain with two factors, the spectral weights of p_{N-1}
    and p_N.  ``evolve_ebit`` gives the same amplitudes to round-off.
    """
    _check_ebit_profile(spec, profile)
    decomp = decompose(spec, profile)
    start = decomp.eigenvectors[0, :] * state.alpha + decomp.eigenvectors[1, :] * state.beta
    weights = np.stack([decomp.eigenvectors[-2, :] * start, decomp.eigenvectors[-1, :] * start])
    t_star, product = peak_search(decomp.eigenvalues[None], weights[None], window)
    # 2 |p_{N-1}| |p_N|: doubling is exact, so it commutes with the search
    return float(t_star[0]), float(2.0 * product[0])
