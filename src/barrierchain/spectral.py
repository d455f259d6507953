"""Eigendecomposition of the one-excitation block and exact spectral evolution.

All dynamics in this package go through the spectral expansion

    beta(t) = sum_k a_k <a_k|beta(0)> exp(-i lambda_k t),

which is exactly unitary in floating point.  The piecewise-constant segment
solution sometimes written with the characteristic determinant P(lambda) and
its minors Q_{k,s}(lambda) is the same expansion: by Cramer's rule the
minors-over-dP/dlambda ratio at a simple eigenvalue equals the spectral
projector element a_{k,s} a_{k,j}, so no determinants are ever computed.

Every eigensolve goes through ``tridiagonal_eigh``, which hands a whole
stack of tridiagonals, as dense lower bands, to one ``np.linalg.eigh``
call: numpy is the package's one runtime dependency.  Its levels and the
magnitudes of its vectors are those of LAPACK stevd bit for bit, which
the tests check against scipy on every chain family the outputs use.

A mirror-symmetric matrix (every clean barrier chain) commutes with site
reversal R, and its barrier pair is a parity doublet whose splitting can
be as small as round-off.  A whole-chain solver mixes such a doublet's
parities, so ``eigendecompose`` solves the even and odd parity blocks
apart instead: every eigenvector is exactly even or odd, and of two equal
levels the even one comes first.

A peak search needs only each chain's levels and its site-1 -> N weights
a_{k,1} a_{k,N}, not its eigenvectors, so ``transfer_spectra`` returns just
those for a whole stack of field rows, with the bits of ``decompose``
followed by ``transition_weights``: a mirror-symmetric row goes through the
same parity blocks (``_parity_blocks``, shared with ``_parity_eigh``), and
its weights come from the first entries of the block vectors.

Peak searches evaluate the expansion on long uniform grids t_j = lo + j dt
(up to ~300k points), which a direct (n_times x N) table of exponentials
would hold whole.  The blocked scan instead splits j = b B + m with block
length B = ceil(sqrt(n_times)) (``scan_block_length``), so t_j = t_b + m dt
and

    sum_k w_k exp(-i lambda_k t_j)
        = sum_k [w_k exp(-i lambda_k t_b)] [exp(-i lambda_k m dt)],

one (rows x N) by (N x B) matrix product over a start table of the rows
it keeps and an offset table of B columns.  ``phase_tables`` builds both
tables approximately: the offset entry for m is exp(-i lambda dt)^m and
the start entry for row r is exp(-i lambda lo) exp(-i lambda B dt)^r,
powers of one exponential per level built by repeated doubling (one
vectorized product per bit, the power squared for the next bit) for a
whole stack of chains at once, instead of one libm exponential per entry.
``PhaseTables.bound`` bounds how far each scanned value lies from the
pointwise sum at the grid time, so a caller can prune by the approximate
values and evaluate pointwise only the points that can still be the
maximum (``metrics.peak_search``).

numpy multiplies a lone row by BLAS gemv, which rounds unlike gemm, so
``evolve_many`` multiplies a lone row next to a copy of itself
(``_table_product``): any subset of times gets the whole table's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, FieldProfile, SingleExcitationHamiltonian, build_hamiltonian, hamiltonian_bands

# unit round-off u = eps / 2 of float64
_UNIT = 0.5 * float(np.finfo(float).eps)
# dense matrix entries one stacked eigensolve holds at most (``stack_rows``)
_EIGH_ENTRIES = 1 << 16


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
    """(w, v) of real symmetric tridiagonal matrices, ``diagonal`` (..., N)
    and ``off_diagonal`` (..., N-1) broadcast against each other: levels
    ascending (..., N), vectors as the columns of (..., N, N).

    The dense lower bands of the whole stack go to one ``np.linalg.eigh``
    call, which raises LinAlgError when LAPACK fails.  Its stacked vectors
    are C-ordered, and its levels and the magnitudes of its vectors equal
    those of LAPACK stevd, scipy's default ``eigh_tridiagonal``, bit for
    bit on every chain family the outputs use (``tests/test_spectral.py``);
    a vector's sign may differ, which neither ``_fix_signs`` nor any product
    of two of its entries sees.
    """
    d = np.asarray(diagonal, dtype=float)
    e = np.asarray(off_diagonal, dtype=float)
    n = d.shape[-1]
    shape = np.broadcast_shapes(d.shape[:-1], e.shape[:-1])
    dense = np.zeros(shape + (n, n))
    # entry (i, i) of the flattened matrix is i (N + 1), entry (i + 1, i) N + i (N + 1)
    band = dense.reshape(shape + (n * n,))
    band[..., :: n + 1] = d
    band[..., n :: n + 1] = e
    return np.linalg.eigh(dense, UPLO="L")


def _parity_blocks(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d_even, e_even, d_odd, e_odd): the parity blocks of mirror-symmetric
    tridiagonals with diagonals ``d`` (..., N) and off-diagonals ``e`` (...,
    N-1), broadcast against each other.

    In the basis (|j> +- |N+1-j>)/sqrt2, j <= m = N // 2, the even and odd
    blocks are tridiagonals of m sites whose last diagonal entries are
    d_m + e_m and d_m - e_m at N = 2m.  At N = 2m+1 the even block also
    holds the centre site, coupled to it by sqrt2 e_m, and the odd block is
    d[:m] with e[:m-1].
    """
    n = d.shape[-1]
    m = n // 2
    k = n - m
    d_even, e_even = d[..., :k].copy(), e[..., : k - 1].copy()
    d_odd = d[..., :m].copy()
    if n % 2:
        e_even[..., m - 1] *= math.sqrt(2.0)
    else:
        d_even[..., m - 1] += e[..., m - 1]
        d_odd[..., m - 1] -= e[..., m - 1]
    return d_even, e_even, d_odd, e[..., : m - 1]


def _parity_eigh(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) of a mirror-symmetric tridiagonal from its two parity blocks
    (``_parity_blocks``), each solved by ``tridiagonal_eigh``.

    With k = N - m even levels, an even vector is [u[:m]/sqrt2, u_m (odd N
    only), u[:m] reversed/sqrt2], an odd one [u/sqrt2, 0 (odd N only), -u
    reversed/sqrt2].  A stable sort of the even levels followed by the odd
    ones puts the even one of two equal levels first.
    """
    n, m = d.size, d.size // 2
    k = n - m
    d_even, e_even, d_odd, e_odd = _parity_blocks(d, e)
    w_even, u_even = tridiagonal_eigh(d_even, e_even)
    w_odd, u_odd = tridiagonal_eigh(d_odd, e_odd)
    v = np.zeros((n, n))
    v[:m, :k] = u_even[:m] / math.sqrt(2.0)
    v[m:k, :k] = u_even[m:]
    v[:m, k:] = u_odd / math.sqrt(2.0)
    v[k:, :k] = v[m - 1 :: -1, :k]
    v[k:, k:] = -v[m - 1 :: -1, k:]
    w = np.concatenate([w_even, w_odd])
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def stack_rows(n: int) -> int:
    """Rows of n-site tridiagonals one stacked ``tridiagonal_eigh`` call
    takes: at most _EIGH_ENTRIES dense entries, and at least one row, so
    a stack's eigenvector matrices never exist all at once."""
    return max(1, _EIGH_ENTRIES // (n * n))


def _end_rows(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levels and the first and last entries of every eigenvector of a stack
    of tridiagonals (``d`` (S, n), ``e`` broadcast against it), each (S, n).
    The stack is solved in chunks of ``stack_rows`` rows."""
    n = d.shape[-1]
    levels, first, last = np.empty(d.shape), np.empty(d.shape), np.empty(d.shape)
    size = stack_rows(n)
    for a in range(0, d.shape[0], size):
        levels[a : a + size], v = tridiagonal_eigh(d[a : a + size], e)
        first[a : a + size], last[a : a + size] = v[:, 0], v[:, -1]
    return levels, first, last


def eigendecompose(h: SingleExcitationHamiltonian) -> SpectralDecomposition:
    """Full decomposition, eigenvalues ascending, deterministic vector signs.

    A mirror-symmetric input (diagonal and couplings alike) is solved in
    its parity blocks (``_parity_eigh``): each eigenvector is exactly even
    or odd, and the even one of two equal levels comes first.  Any other
    input gets ``tridiagonal_eigh``'s (w, v) as returned.
    """
    d, e = h.diagonal, h.off_diagonal
    if np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1]):
        w, v = _parity_eigh(d, e)
    else:
        w, v = tridiagonal_eigh(d, e)
    return SpectralDecomposition(w, _fix_signs(v))


def decompose(spec: ChainSpec, profile: FieldProfile) -> SpectralDecomposition:
    """Decomposition of the chain ``spec`` under the local fields ``profile``."""
    return eigendecompose(build_hamiltonian(spec, profile))


def transfer_spectra(fields) -> tuple[np.ndarray, np.ndarray]:
    """Levels and end-to-end weights of a stack of chains, without their
    eigenvectors.

    ``fields`` (S, N) holds one chain's local fields K_n per row.  Returns
    (levels, weights), both (S, N): row s is bit for bit the eigenvalues of
    ``decompose(ChainSpec(N), FieldProfile(fields[s]))`` and its
    ``transition_weights(decomp, 1, N)``.  A mirror-symmetric row is solved
    in its parity blocks as ``_parity_eigh`` solves it: its end entries are
    u_1/sqrt2 and +-u_1/sqrt2 of a block vector u, so an even level weighs
    (u_1/sqrt2)(u_1/sqrt2) and an odd one (-u_1/sqrt2)(u_1/sqrt2), merged
    by the same stable sort.  Any other row weighs v_N v_1 of its
    ``tridiagonal_eigh`` vectors.  ``_fix_signs`` flips whole vectors, which
    leaves both products' bits unchanged.  The rows without mirror
    symmetry and each parity block of the others are solved as stacks
    (``_end_rows``), one ``tridiagonal_eigh`` call per chunk of rows, and no
    step runs row by row.  A non-finite field raises the ValueError that
    ``FieldProfile`` raises.
    """
    fields = np.asarray(fields, dtype=float)
    if fields.ndim != 2:
        raise ValueError(f"fields must be a (chains, sites) stack, got shape {fields.shape}")
    if not np.all(np.isfinite(fields)):
        raise ValueError("local_fields must be finite")
    n = ChainSpec(fields.shape[1]).n_sites
    d, e = hamiltonian_bands(fields)
    # every coupling is -1, so the diagonal alone decides mirror symmetry
    mirror = np.all(d == d[:, ::-1], axis=1)
    levels = np.empty(fields.shape)
    weights = np.empty(fields.shape)
    rows = np.flatnonzero(~mirror)
    levels[rows], first, last = _end_rows(d[rows], e)
    weights[rows] = last * first
    rows = np.flatnonzero(mirror)
    d_even, e_even, d_odd, e_odd = _parity_blocks(d[rows], e)
    w_even, first_even, _ = _end_rows(d_even, e_even)
    w_odd, first_odd, _ = _end_rows(d_odd, e_odd)
    w = np.concatenate([w_even, w_odd], axis=1)
    first = np.concatenate([first_even, first_odd], axis=1) / math.sqrt(2.0)
    parity = np.where(np.arange(n) < w_even.shape[1], 1.0, -1.0)
    order = np.argsort(w, axis=1, kind="stable")
    levels[rows] = np.take_along_axis(w, order, axis=1)
    weights[rows] = np.take_along_axis((parity * first) * first, order, axis=1)
    return levels, weights


def evolve(decomp: SpectralDecomposition, initial: np.ndarray, t: float) -> np.ndarray:
    """Site amplitudes exp(-i H t) @ initial through the spectral expansion.

    ``initial`` is cast to complex first: a real vector would take a real
    matmul for the coefficients and round differently.
    """
    coeffs = decomp.eigenvectors.T @ np.asarray(initial, dtype=complex)
    phases = np.exp(-1j * decomp.eigenvalues * t)
    return decomp.eigenvectors @ (phases * coeffs)


def _table_product(table: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``table @ columns`` with a lone row of ``table`` multiplied next to a
    copy of itself, so that gemm, not gemv, rounds it (module docstring)."""
    if table.shape[-2] != 1:
        return table @ columns
    return (np.concatenate([table, table], axis=-2) @ columns)[..., :1, :]


def evolve_many(decomp: SpectralDecomposition, initial: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Amplitudes on a whole time grid; returns an (n_times, N) array."""
    times = np.asarray(times, dtype=float)
    coeffs = decomp.eigenvectors.T @ np.asarray(initial, dtype=complex)
    phases = np.exp(-1j * np.outer(times, decomp.eigenvalues))
    return _table_product(phases * coeffs, decomp.eigenvectors.T)


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


def _powers(first: np.ndarray, phases: np.ndarray, count: int) -> np.ndarray:
    """Table (count, ..., N) whose entry m is first times exp(-i phases)^m:
    entries 2^j..2^(j+1)-1 are entries 0..2^j-1 times the 2^j-th power,
    and the power is squared for the next bit.  The power axis leads, so
    each product runs over the whole stack's levels at once."""
    table = np.empty((count,) + first.shape, dtype=complex)
    table[0] = first
    factor = np.exp(-1j * phases)
    done = 1
    while done < count:
        size = min(done, count - done)
        np.multiply(table[:size], factor, out=table[done : done + size])
        done += size
        factor = factor * factor
    return table


@dataclass(frozen=True, eq=False)
class PhaseTables:
    """Approximate phase tables of the blocked scan (module docstring):
    ``starts`` (rows, ..., N) and ``offsets`` (block, ..., N), and ``error``
    (..., N), per level a bound on the phase and rounding errors of one
    start and one offset entry and of one pointwise evaluation together."""

    starts: np.ndarray
    offsets: np.ndarray
    error: np.ndarray

    def scan(self, weights: np.ndarray, rows) -> np.ndarray:
        """The approximate blocked scan of the given rows: weights (..., N)
        broadcast against the tables' levels, and the result has (len(rows),
        block) in place of N, entry [..., r, m] at grid index rows[r] block + m."""
        coarse = np.moveaxis(self.starts[rows], 0, -2) * np.asarray(weights)[..., None, :]
        return coarse @ np.moveaxis(self.offsets, 0, -1)

    def bound(self, weights: np.ndarray) -> np.ndarray:
        """A bound, one per weight vector, on |``scan`` - pointwise| over
        every entry: sum_k |w_k| (1 + e_k) (e_k + (4N + 16) u), where the
        pointwise value at grid index j rounds the grid time t_j, takes one
        product lambda_k t_j, one exponential and one dot, as
        ``metrics._pointwise_sums`` does.

        With sigma and omega a start and an offset entry's errors, one
        term of the scan errs by at most |w| (e + e^2/4 + 2.9u (1 + e +
        e^2/4)) for e = sigma + omega, and its gemm by sqrt(2) gamma_{N+2}
        sum_k |w_k| (1 + e_k + e_k^2/4); the pointwise term errs by its
        phase and exponential errors, and its dot by sqrt(2) gamma_{N+2}
        sum_k |w_k| (1 + e_k).  ``error`` sums both sides' entry errors,
        and the constants above are rounded up.
        """
        n_levels = self.error.shape[-1]
        per_level = (1.0 + self.error) * (self.error + (4 * n_levels + 16) * _UNIT)
        return (np.abs(weights) * per_level).sum(axis=-1)


def phase_tables(levels: np.ndarray, lo: float, step: float, block: int, n_rows: int) -> PhaseTables:
    """Approximate tables of the blocked scan of the grid lo + j ``step``
    for eigenvalues ``levels`` (..., N): starts for the rows 0..n_rows-1
    and offsets for 0..block-1, by repeated doubling (module docstring).

    ``step`` is the grid's own spacing: numpy's arange fills lo, lo + dt,
    then lo + j ((lo + dt) - lo), so a caller passes (lo + dt) - lo, and
    each grid time t_j then lies within u (|lo| + 2.01 j step) of lo + j
    step.  The phases of the approximate entries err by at most u |lambda|
    (|lo| + 2.01 (n_rows - 1) B step + (B - 1) step), those of a pointwise
    evaluation, with the rounding of lambda t_j, by u |lambda| (2 |lo| +
    3.02 j step).  The m-th power is a product of m copies of one
    exponential, each of error 4u, through m complex roundings of sqrt(2)
    gamma_2 < 2.9u (each squaring doubles the error it inherits; Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Lemma 3.5 and
    section 3.6), so a
    start and an offset entry add at most (6.9 (n_rows + B) + 8) u
    together, and the pointwise exponential 4u more: ``error`` rounds these
    up to u (6 |lambda| span + 7 (n_rows + B) + 16), span = |lo| + n_rows B
    step.
    """
    levels = np.asarray(levels, dtype=float)
    starts = _powers(np.exp(-1j * (lo * levels)), levels * (block * step), n_rows)
    offsets = _powers(np.ones(levels.shape, dtype=complex), levels * step, block)
    span = abs(lo) + n_rows * block * step
    error = _UNIT * (6.0 * span * np.abs(levels) + 7 * (n_rows + block) + 16)
    return PhaseTables(starts, offsets, error)
