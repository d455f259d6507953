"""Eigendecomposition of the one-excitation block and exact spectral evolution.

All dynamics in this package go through the spectral expansion

    beta(t) = sum_k a_k <a_k|beta(0)> exp(-i lambda_k t),

which is exactly unitary in floating point.  The piecewise-constant segment
solution sometimes written with the characteristic determinant P(lambda) and
its minors Q_{k,s}(lambda) is the same expansion: by Cramer's rule the
minors-over-dP/dlambda ratio at a simple eigenvalue equals the spectral
projector element a_{k,s} a_{k,j}, so no determinants are ever computed.

Peak searches evaluate the expansion on long uniform grids t_j = lo + j dt
(up to ~300k points), which a direct (n_times x N) table of exponentials
would hold whole.  ``scan_amplitude`` instead splits j = b B + m with block
length B = ceil(sqrt(n_times)), so t_j = t_b + m dt and

    sum_k w_k exp(-i lambda_k t_j)
        = sum_k [w_k exp(-i lambda_k t_b)] [exp(-i lambda_k m dt)],

one (blocks x N) by (N x B) matrix product over two tables of about
sqrt(n_times) x N exponentials each.  Its rounding matches the direct
table's: there each phase lambda_k t_j is rounded once, with an absolute
error of order eps |lambda_k t_j|; here lambda_k t_b and lambda_k m dt are
rounded separately, neither larger in magnitude than lambda_k t_j (lo >= 0),
and the product of two unit-modulus factors adds a relative error of a few
eps.  Both tables thus carry errors of the same order, eps |lambda_k| t, per
term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .chain import ChainSpec, FieldProfile, SingleExcitationHamiltonian, build_hamiltonian

# Relative eigenvalue spacing below which two states are treated as one
# degenerate cluster.  Kept far below any physical Rabi gap (>= 1/(2 omega^2)
# for the fields studied here) and above the LAPACK eigenvalue jitter.
_CLUSTER_RTOL = 64.0 * np.finfo(float).eps

# LAPACK stevd, the routine scipy's eigh_tridiagonal selects by default,
# called without the wrapper's per-call input checks and lookup
_stevd = get_lapack_funcs("stevd", dtype=np.float64)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns) of H."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=float)
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def n_sites(self) -> int:
        return self.eigenvalues.size


def site_state(n_sites: int, site: int) -> np.ndarray:
    """Complex site amplitudes with the excitation on one 1-based site."""
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} outside 1..{n_sites}")
    amplitudes = np.zeros(n_sites, dtype=complex)
    amplitudes[site - 1] = 1.0
    return amplitudes


def _parity_adapt(w: np.ndarray, v: np.ndarray, tol: float) -> np.ndarray:
    """Rotate degenerate clusters onto definite-parity combinations.

    For a mirror-symmetric profile H commutes with site reversal R, so
    eigenvectors can be chosen R-even or R-odd.  Dense solvers return an
    arbitrary mixture inside numerically degenerate clusters (the barrier
    pair splits only exponentially in N), which would make localization
    measures platform-dependent; diagonalizing R restricted to each cluster
    restores the physical basis deterministically.
    """
    v = v.copy()
    i = 0
    n = w.size
    while i < n:
        j = i + 1
        while j < n and w[j] - w[j - 1] <= tol:
            j += 1
        if j - i > 1:
            block = v[:, i:j]
            overlap = block.T @ block[::-1, :]
            _, rot = np.linalg.eigh(0.5 * (overlap + overlap.T))
            v[:, i:j] = block @ rot
        i = j
    return v


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each column positive.

    A component is non-negligible above 1e-11 of its column's largest
    magnitude, so round-off entries (such as the even-site entries of an
    odd chain's zero mode) never decide the sign.
    """
    mag = np.abs(v)
    first = np.argmax(mag > 1e-11 * mag.max(axis=0), axis=0)
    return np.where(v[first, np.arange(v.shape[1])] < 0, -v, v)


def tridiagonal_eigh(diagonal: np.ndarray, off_diagonal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) of a real symmetric tridiagonal matrix by LAPACK stevd.

    The same eigenpairs, bit for bit, as scipy's ``eigh_tridiagonal`` with
    its default driver; raises LinAlgError when stevd reports failure.
    """
    w, v, info = _stevd(diagonal, off_diagonal)
    if info != 0:
        raise np.linalg.LinAlgError(f"stevd failed (info = {info})")
    return w, v


def eigendecompose(h: SingleExcitationHamiltonian) -> SpectralDecomposition:
    """Full decomposition, eigenvalues ascending, deterministic vector signs.

    Mirror-symmetric inputs additionally get definite-parity eigenvectors
    inside degenerate clusters (see _parity_adapt).
    """
    w, v = tridiagonal_eigh(h.diagonal, h.off_diagonal)
    if np.array_equal(h.diagonal, h.diagonal[::-1]):
        scale = max(1.0, float(np.abs(w).max()))
        v = _parity_adapt(w, v, _CLUSTER_RTOL * scale)
    return SpectralDecomposition(w, _fix_signs(v))


def decompose(spec: ChainSpec, profile: FieldProfile) -> SpectralDecomposition:
    """Decomposition of the chain ``spec`` under the local fields ``profile``."""
    return eigendecompose(build_hamiltonian(spec, profile))


def evolve(decomp: SpectralDecomposition, initial: np.ndarray, t: float) -> np.ndarray:
    """Site amplitudes exp(-i H t) @ initial through the spectral expansion.

    ``initial`` is cast to complex first: a real vector would take a real
    matmul for the coefficients and round differently.
    """
    coeffs = decomp.eigenvectors.T @ np.asarray(initial, dtype=complex)
    phases = np.exp(-1j * decomp.eigenvalues * t)
    return decomp.eigenvectors @ (phases * coeffs)


def evolve_many(decomp: SpectralDecomposition, initial: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Amplitudes on a whole time grid; returns an (n_times, N) array."""
    times = np.asarray(times, dtype=float)
    coeffs = decomp.eigenvectors.T @ np.asarray(initial, dtype=complex)
    phases = np.exp(-1j * np.outer(times, decomp.eigenvalues))
    return (phases * coeffs) @ decomp.eigenvectors.T


def transition_weights(decomp: SpectralDecomposition, from_site: int, to_site: int) -> np.ndarray:
    """Spectral weights a_{k,to} a_{k,from} of the transition amplitude."""
    n = decomp.n_sites
    for site in (from_site, to_site):
        if not 1 <= site <= n:
            raise ValueError(f"site {site} outside 1..{n}")
    return decomp.eigenvectors[to_site - 1, :] * decomp.eigenvectors[from_site - 1, :]


def weighted_amplitude(decomp: SpectralDecomposition, weights: np.ndarray, t):
    """sum_k w_k exp(-i lambda_k t) for given spectral weights.

    ``t`` may be a scalar or an array; the result matches its shape.
    """
    t = np.asarray(t, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(t, decomp.eigenvalues))
    result = phases @ weights
    return complex(result) if result.ndim == 0 else result


def transition_amplitude(decomp: SpectralDecomposition, from_site: int, to_site: int, t):
    """f_{to,from}(t) = sum_k a_{k,to} a_{k,from} exp(-i lambda_k t).

    ``t`` may be a scalar or an array; the result matches its shape.
    """
    return weighted_amplitude(decomp, transition_weights(decomp, from_site, to_site), t)


def scan_block_length(count: int) -> int:
    """Block length B = ceil(sqrt(count)) of the blocked scan of ``count`` points."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return math.isqrt(count - 1) + 1


def scan_rows(
    levels: np.ndarray, weights: np.ndarray, lo: float, step: float, block: int, rows: np.ndarray
) -> np.ndarray:
    """Rows of the blocked scan table of sum_k w_k exp(-i lambda_k t) for the
    eigenvalues ``levels``: entry [r, m] is the amplitude at grid index
    rows[r] * block + m, i.e. at time lo + (rows[r] block + m) step.

    A subset of rows gives the same bits as those rows of the whole table as
    long as at least two rows are passed: numpy multiplies a single row by
    BLAS gemv rather than gemm, which can round the sums differently.
    """
    starts = lo + step * (np.asarray(rows) * block)
    offsets = step * np.arange(block)
    coarse = np.exp(-1j * np.multiply.outer(starts, levels)) * weights
    fine = np.exp(-1j * np.multiply.outer(offsets, levels))
    return coarse @ fine.T


def scan_amplitude(decomp: SpectralDecomposition, weights: np.ndarray, lo: float, step: float, count: int) -> np.ndarray:
    """sum_k w_k exp(-i lambda_k (lo + j step)) for j = 0..count-1.

    Evaluated as a blocked phase table (see the module docstring) whose two
    exponential tables hold O(sqrt(count) N) entries; returns a complex
    array of length count.
    """
    block = scan_block_length(count)
    rows = np.arange(-(-count // block))
    return scan_rows(decomp.eigenvalues, weights, lo, step, block, rows).reshape(-1)[:count]
