"""Eigendecomposition of the one-excitation block and exact spectral evolution.

All dynamics in this package go through the spectral expansion

    beta(t) = sum_k a_k <a_k|beta(0)> exp(-i lambda_k t),

which is exactly unitary in floating point.  The piecewise-constant segment
solution sometimes written with the characteristic determinant P(lambda) and
its minors Q_{k,s}(lambda) is the same expansion: by Cramer's rule the
minors-over-dP/dlambda ratio at a simple eigenvalue equals the spectral
projector element a_{k,s} a_{k,j}, so no determinants are ever computed.

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
would hold whole.  ``scan_rows`` instead splits j = b B + m with block
length B = ceil(sqrt(n_times)), so t_j = t_b + m dt and

    sum_k w_k exp(-i lambda_k t_j)
        = sum_k [w_k exp(-i lambda_k t_b)] [exp(-i lambda_k m dt)],

one (rows x N) by (N x B) matrix product over two tables of about
sqrt(n_times) x N exponentials each, for whichever blocks b a peak search
keeps.  Its rounding matches the direct table's: there each phase
lambda_k t_j is rounded once, with an absolute error of order
eps |lambda_k t_j|; here lambda_k t_b and lambda_k m dt are rounded
separately, neither larger in magnitude than lambda_k t_j (lo >= 0), and the
product of two unit-modulus factors adds a relative error of a few eps.
Both tables thus carry errors of the same order, eps |lambda_k| t, per
term.

This module alone builds such tables.  gemm rounds each row alike whichever
rows share the call, but numpy multiplies a lone row by BLAS gemv, which
rounds differently, so ``scan_rows`` and ``evolve_many`` multiply a lone row
next to a copy of itself: any subset of rows or times gets the whole table's
bits.  Columns follow a like rule (OpenBLAS's zgemm kernels take the columns
in groups of four, and a table's last one to three columns by narrower
kernels): a product over the aligned four-column group holding a point, with
the last group run to the table's end, gives that point the whole table's
bits, and ``scan_points`` recomputes single points that way.  Windows of one
or two columns inside the table, and a lone last column, round differently.

Peak searches scan with approximate tables instead (``phase_tables``): the
offset entry for m is exp(-i lambda dt)^m and the start entry for row r is
exp(-i lambda lo) exp(-i lambda B dt)^r, powers of one exponential per
level built by repeated doubling (one vectorized product per bit, the power
squared for the next bit) for a whole stack of chains at once, instead of
one libm exponential per entry.  Their phases err by at most about
2u |lambda| t (u = eps/2), the exact tables' by 3u |lambda| t, and each of
the m factors of a power adds one exponential's error (4u) and one complex
product's (sqrt(2) gamma_2; Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., Lemma 3.5 and section 3.6).  ``PhaseTables.bound``
sums these, with each gemm's own error sqrt(2) gamma_{N+2} sum_k |w_k|, into
a bound on |approximate - exact| per weight vector, so a caller can prune
by the approximate values and recompute exactly only the
points that can still be the maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .chain import ChainSpec, FieldProfile, SingleExcitationHamiltonian, build_hamiltonian, hamiltonian_bands

# LAPACK stevd, the routine scipy's eigh_tridiagonal selects by default,
# called without the wrapper's per-call input checks and lookup
_stevd = get_lapack_funcs("stevd", dtype=np.float64)

# unit round-off u = eps / 2 of float64
_UNIT = 0.5 * float(np.finfo(float).eps)


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
    """(w, v) of a real symmetric tridiagonal matrix by LAPACK stevd.

    The same eigenpairs, bit for bit, as scipy's ``eigh_tridiagonal`` with
    its default driver; raises LinAlgError when stevd reports failure.
    """
    w, v, info = _stevd(diagonal, off_diagonal)
    if info != 0:
        raise np.linalg.LinAlgError(f"stevd failed (info = {info})")
    return w, v


def _parity_blocks(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d_even, e_even, d_odd, e_odd): the parity blocks of mirror-symmetric
    tridiagonals with diagonals ``d`` (..., N) and off-diagonals ``e`` (...,
    N-1), broadcast against each other.

    In the basis (|j> +- |N+1-j>)/sqrt2, j <= m = N // 2, the even and odd
    blocks are tridiagonals of m sites whose last diagonal entries are
    d_m + e_m and d_m - e_m at N = 2m.  At N = 2m+1 the even block also
    holds the centre site, coupled to it by sqrt2 e_m, and the odd block is
    d[:m] with e[:m-1].  Each off-diagonal keeps at least one entry, as the
    stevd wrapper wants, even for a block of one site.
    """
    n = d.shape[-1]
    m = n // 2
    k = n - m
    d_even, e_even = d[..., :k].copy(), e[..., : max(k - 1, 1)].copy()
    d_odd = d[..., :m].copy()
    if n % 2:
        e_even[..., m - 1] *= math.sqrt(2.0)
    else:
        d_even[..., m - 1] += e[..., m - 1]
        d_odd[..., m - 1] -= e[..., m - 1]
    return d_even, e_even, d_odd, e[..., : max(m - 1, 1)]


def _parity_eigh(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) of a mirror-symmetric tridiagonal from its two parity blocks
    (``_parity_blocks``), each solved by stevd.

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


def eigendecompose(h: SingleExcitationHamiltonian) -> SpectralDecomposition:
    """Full decomposition, eigenvalues ascending, deterministic vector signs.

    A mirror-symmetric input (diagonal and couplings alike) is solved in
    its parity blocks (``_parity_eigh``): each eigenvector is exactly even
    or odd, and the even one of two equal levels comes first.  Any other
    input gets stevd's (w, v) as returned.
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
    by the same stable sort.  Any other row weighs v_N v_1 of stevd's
    vectors.  ``_fix_signs`` flips whole vectors, which leaves both
    products' bits unchanged.  The finite check, the symmetry test, the
    block setup, the merge and the weights run once for the whole stack;
    only the stevd calls go row by row.  A non-finite field raises the
    ValueError that ``FieldProfile`` raises.
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
    for i in np.flatnonzero(~mirror):
        levels[i], v = tridiagonal_eigh(d[i], e)
        weights[i] = v[-1] * v[0]
    rows = np.flatnonzero(mirror)
    d_even, e_even, d_odd, e_odd = _parity_blocks(d[rows], e)
    k = d_even.shape[-1]
    w = np.empty((rows.size, n))
    first = np.empty((rows.size, n))
    for j in range(rows.size):
        w[j, :k], u = tridiagonal_eigh(d_even[j], e_even)
        first[j, :k] = u[0]
        w[j, k:], u = tridiagonal_eigh(d_odd[j], e_odd)
        first[j, k:] = u[0]
    first /= math.sqrt(2.0)
    parity = np.where(np.arange(n) < k, 1.0, -1.0)
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


def scan_rows(
    levels: np.ndarray, weights: np.ndarray, lo: float, step: float, block: int, rows: np.ndarray
) -> np.ndarray:
    """Rows of the blocked scan table of sum_k w_k exp(-i lambda_k t) for the
    eigenvalues ``levels``: entry [..., r, m] is the amplitude at grid index
    rows[r] * block + m, i.e. at time lo + (rows[r] block + m) step.

    ``levels`` (..., N) broadcasts against ``weights`` (..., N), and the
    result has their broadcast shape with (len(rows), block) in place of N.
    Every row has the bits it has in the whole table, whichever rows are
    passed.
    """
    levels = np.asarray(levels)[..., None, :]
    starts = lo + step * (np.asarray(rows) * block)
    offsets = step * np.arange(block)
    coarse = np.exp(-1j * (starts[:, None] * levels)) * np.asarray(weights)[..., None, :]
    fine = np.exp(-1j * (offsets[:, None] * levels))
    return _table_product(coarse, np.swapaxes(fine, -1, -2))


def scan_points(
    levels: np.ndarray, weights: np.ndarray, lo: float, step: float, block: int, rows, columns
) -> np.ndarray:
    """Single entries of the blocked scan tables of ``scan_rows``, for C
    chains at once: entry [c, f] is the one at row rows[c], column
    columns[c] of chain c's table for weights[c, f], with the whole table's
    bits.

    ``levels`` has shape (C, N) and ``weights`` (C, F, N).  Each point
    multiplies two copies of its exact start row (so that gemm, not gemv,
    rounds it) by the offset columns of the aligned group of four holding
    it, widened by the block mod 4 columns after it: the last group then
    runs to the table's end, and every product has the same width, so all
    points share one stacked product (module docstring).
    """
    rows, columns = np.asarray(rows), np.asarray(columns)
    width = min(block, 4 + block % 4)
    first = np.minimum(columns - columns % 4, block - width)
    starts = lo + step * (rows * block)
    coarse = np.exp(-1j * (starts[:, None] * levels))[:, None, None, :] * np.asarray(weights)[:, :, None, :]
    offsets = step * (first[:, None] + np.arange(width))
    fine = np.exp(-1j * (offsets[:, :, None] * levels[:, None, :]))
    table = np.concatenate([coarse, coarse], axis=-2) @ np.swapaxes(fine, -1, -2)[:, None]
    return table[np.arange(rows.size), :, 0, columns - first]


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
    (..., N), per level a bound on the errors of one start and one offset
    entry, approximate and exact tables together."""

    starts: np.ndarray
    offsets: np.ndarray
    error: np.ndarray

    def scan(self, weights: np.ndarray, rows) -> np.ndarray:
        """The approximate table of ``scan_rows`` for the given rows: weights
        (..., N) broadcast against the tables' levels, and the result has
        (len(rows), block) in place of N."""
        coarse = np.moveaxis(self.starts[rows], 0, -2) * np.asarray(weights)[..., None, :]
        return coarse @ np.moveaxis(self.offsets, 0, -1)

    def bound(self, weights: np.ndarray) -> np.ndarray:
        """A bound on |``scan`` - ``scan_rows``| over every entry, one per
        weight vector: sum_k |w_k| (1 + e_k) (e_k + (4N + 16) u).

        With sigma and omega a start and an offset entry's errors, one
        term of either product errs by at most |w| (e + e^2/4 + 2.9u (1 + e
        + e^2/4)) for e = sigma + omega, and its gemm by sqrt(2) gamma_{N+2}
        sum_k |w_k| (1 + e_k + e_k^2/4); ``error`` sums sigma and omega over
        both tables, and the constants above are rounded up.
        """
        n_levels = self.error.shape[-1]
        per_level = (1.0 + self.error) * (self.error + (4 * n_levels + 16) * _UNIT)
        return (np.abs(weights) * per_level).sum(axis=-1)


def phase_tables(levels: np.ndarray, lo: float, step: float, block: int, n_rows: int) -> PhaseTables:
    """Approximate tables of ``scan_rows`` for eigenvalues ``levels`` (...,
    N): starts for the rows 0..n_rows-1 and offsets for 0..block-1, by
    repeated doubling (module docstring).

    The phases of the approximate entries err by at most u |lambda| (|lo| +
    2.01 (n_rows - 1) B dt + (B - 1) dt), those of the exact tables by 3u
    |lambda| (|lo| + (n_rows - 1) B dt + (B - 1) dt).  The m-th power is a
    product of m copies of one exponential, each of error 4u, through m
    complex roundings of sqrt(2) gamma_2 < 2.9u (each squaring doubles the
    error it inherits), so a start and an offset entry add at most (6.9
    (n_rows + B) + 8) u together, and the exact tables' two exponentials
    8u more: ``error`` rounds these up to u (6 |lambda| span + 7 (n_rows +
    B) + 16), span = |lo| + n_rows B dt.
    """
    levels = np.asarray(levels, dtype=float)
    starts = _powers(np.exp(-1j * (lo * levels)), levels * (block * step), n_rows)
    offsets = _powers(np.ones(levels.shape, dtype=complex), levels * step, block)
    span = abs(lo) + n_rows * block * step
    error = _UNIT * (6.0 * span * np.abs(levels) + 7 * (n_rows + block) + 16)
    return PhaseTables(starts, offsets, error)
