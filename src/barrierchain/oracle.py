"""Brute-force validators independent of the spectral fast path.

Everything here works in the full 2^N Hilbert space, built directly from the
Pauli terms of the chain Hamiltonian, or integrates the one-excitation ODE
system step by step.  None of it shares code with the tridiagonal spectral
engine, which is the point: agreement between the two paths validates the
sector reduction, Eq.-of-motion signs, and the concurrence formulas.

A state is evolved on the invariant blocks of H that it reaches, without
building the 2^N matrix: a breadth-first search from each basis state in
the state's support applies the terms' bit flips, and only the block it
reaches is assembled from the terms and diagonalized densely.  The split is
read from the terms, not from magnetization, so a term that broke
conservation would merge blocks instead of being dropped.  A site
excitation touches one N-state block, so any N works; a block larger than
4096 states (the 2^12 states of the old dense cap) is refused.  The dense
matrix ``full_hamiltonian`` (N <= 12) is kept as the reference that tests
compare the blocks against.  Blocks are diagonalized by numpy's dense
``eigh``, a general solver that never sees the tridiagonal structure; the
oracle's independence comes from building its blocks from Pauli terms.

Basis convention: site n maps to bit (N - n), so site 1 is the most
significant bit and the all-up state is index 0.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainSpec, FieldProfile

_MAX_FULL_SITES = 12   # the dense reference matrix, 2^12 x 2^12 = 128 MiB
_MAX_BLOCK_STATES = 4096  # largest block the oracle diagonalizes, the old 2^12


def site_index(n_sites: int, site: int) -> int:
    """Basis index of the state with the excitation on one 1-based site."""
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} outside 1..{n_sites}")
    return 1 << (n_sites - site)


def all_up_state(spec: ChainSpec) -> np.ndarray:
    state = np.zeros(2**spec.n_sites, dtype=complex)
    state[0] = 1.0
    return state


def single_excitation_state(spec: ChainSpec, site: int) -> np.ndarray:
    state = np.zeros(2**spec.n_sites, dtype=complex)
    state[site_index(spec.n_sites, site)] = 1.0
    return state


def _site_indices(n_sites: int) -> np.ndarray:
    """Basis indices of the one-excitation states for sites 1..N, in order."""
    return 1 << (n_sites - np.arange(1, n_sites + 1))


def embed_amplitudes(n_sites: int, amplitudes: np.ndarray) -> np.ndarray:
    """Lift one-excitation site amplitudes to a full 2^N vector."""
    state = np.zeros(2**n_sites, dtype=complex)
    state[_site_indices(n_sites)] = np.asarray(amplitudes, dtype=complex)
    return state


def extract_amplitudes(n_sites: int, state: np.ndarray) -> tuple[np.ndarray, float]:
    """Project a full vector onto the one-excitation sector.

    Returns (site amplitudes, norm of the component outside the sector).
    """
    state = np.asarray(state, dtype=complex)
    amplitudes = state[_site_indices(n_sites)]
    outside = np.linalg.norm(state) ** 2 - np.linalg.norm(amplitudes) ** 2
    return amplitudes, float(np.sqrt(max(outside, 0.0)))


def _terms(spec: ChainSpec, profile: FieldProfile) -> tuple[list[float], list[tuple[int, int, float]]]:
    """The chain's terms, read by both the dense builder and the block oracle.

    Returns (fields, moves).  ``fields[n - 1]`` is K_n, so basis state s
    has energy -sum_n fields[n - 1] * sz_n(s).  Each move (mask, source, c)
    adds c (|s ^ mask><s| + h.c.) for every basis state s with
    s & mask == source; the hop 1/2 (sx sx + sy sy) = s+ s- + s- s+ between
    sites n and n + 1 is the move from (1, 0) to (0, 1) on their bit pair.
    """
    n = spec.n_sites
    fields = [profile.field(site) for site in range(1, n + 1)]
    moves = []
    for site in range(1, n):
        mask_hi = 1 << (n - site)
        mask_lo = 1 << (n - site - 1)
        moves.append((mask_hi | mask_lo, mask_hi, -1.0))
    return fields, moves


def full_hamiltonian(spec: ChainSpec, profile: FieldProfile) -> np.ndarray:
    """Dense 2^N matrix of -J [ 1/2 sum (sx sx + sy sy) + sum K_n sz ]."""
    n = spec.n_sites
    if n > _MAX_FULL_SITES:
        raise ValueError(f"dense Hamiltonian is capped at N = {_MAX_FULL_SITES}, got {n}")
    fields, moves = _terms(spec, profile)
    dim = 2**n
    states = np.arange(dim)
    h = np.zeros((dim, dim))
    # sz eigenvalue is +1 for bit 0 (spin up), -1 for bit 1.
    diag = np.zeros(dim)
    for site, field in enumerate(fields, start=1):
        bit = (states >> (n - site)) & 1
        diag -= field * (1.0 - 2.0 * bit)
    h[states, states] = diag
    for mask, source, coefficient in moves:
        movable = states[(states & mask) == source]
        partner = movable ^ mask
        h[partner, movable] += coefficient
        h[movable, partner] += coefficient
    return h


class FullDecomposition:
    """The full Hamiltonian, evolved on the invariant blocks a state reaches.

    Nothing here builds the 2^N matrix: each block is found from its seed
    state by a breadth-first search over the chain's moves and assembled
    from the terms alone, bit for bit as ``full_hamiltonian`` holds it.
    Basis states are Python ints, so any N works.  The search refuses a
    block past ``_MAX_BLOCK_STATES`` (4096) states as it grows, so no
    eigensolve is larger than 4096 x 4096.
    """

    def __init__(self, spec: ChainSpec, profile: FieldProfile):
        self.spec = spec
        self.profile = profile
        self._fields, self._moves = _terms(spec, profile)

    def _block(self, seed: int) -> tuple[list[int], np.ndarray]:
        """Sorted basis states the moves connect to ``seed``, and H on them."""
        reached = {seed}
        frontier = [seed]
        couplings = []  # (row state, column state, c), moves in order per column
        while frontier:
            grown = []
            for state in frontier:
                for mask, source, coefficient in self._moves:
                    if (state & mask) in (source, source ^ mask):
                        other = state ^ mask
                        couplings.append((other, state, coefficient))
                        if other not in reached:
                            reached.add(other)
                            grown.append(other)
                if len(reached) > _MAX_BLOCK_STATES:
                    raise ValueError(
                        f"block of state {seed} exceeds {_MAX_BLOCK_STATES} states"
                    )
            frontier = grown
        block = sorted(reached)
        position = {state: k for k, state in enumerate(block)}
        n = self.spec.n_sites
        width = (n + 7) // 8
        packed = b"".join(state.to_bytes(width, "big") for state in block)
        packed = np.frombuffer(packed, dtype=np.uint8).reshape(len(block), width)
        bits = np.unpackbits(packed, axis=1)[:, -n:]  # column k: the bit of site k + 1
        # the same sum, in the same site order, as full_hamiltonian's diagonal
        diag = np.zeros(len(block))
        for column, field in enumerate(self._fields):
            diag -= field * (1.0 - 2.0 * bits[:, column])
        h = np.diag(diag)
        for row, column, coefficient in couplings:
            h[position[row], position[column]] += coefficient
        return block, h

    @staticmethod
    def _propagate(h: np.ndarray, local: np.ndarray, t: float) -> np.ndarray:
        w, v = np.linalg.eigh(h)
        return v @ (np.exp(-1j * w * t) * (v.conj().T @ local))

    def _amplitude(self, source: int, target: int, t: float) -> np.complex128:
        """<target| exp(-i H t) |source> for two basis states on one block."""
        block, h = self._block(source)
        local = np.zeros(len(block), dtype=complex)
        local[block.index(source)] = 1.0
        return self._propagate(h, local, t)[block.index(target)]

    def evolve(self, state: np.ndarray, t: float) -> np.ndarray:
        """exp(-i H t) @ state for a dense 2^N vector, one eigensolve per block.

        Every block the state touches is found, and its size checked,
        before the first eigensolve.
        """
        state = np.asarray(state, dtype=complex)
        pending = state != 0
        blocks = []
        while pending.any():
            block, h = self._block(int(np.argmax(pending)))
            block = np.array(block)
            blocks.append((block, h))
            pending[block] = False
        evolved = np.zeros_like(state)
        for block, h in blocks:
            evolved[block] = self._propagate(h, state[block], t)
        return evolved


def full_evolve(spec: ChainSpec, profile: FieldProfile, initial: np.ndarray, t: float) -> np.ndarray:
    """One-shot evolution of a full 2^N state vector."""
    return FullDecomposition(spec, profile).evolve(initial, t)


def total_magnetization(state: np.ndarray) -> float:
    """Expectation of sum_n sz_n."""
    state = np.asarray(state, dtype=complex)
    n = int(np.log2(state.size))
    states = np.arange(state.size)
    popcount = sum((states >> bit) & 1 for bit in range(n))
    return float(np.sum(np.abs(state) ** 2 * (n - 2.0 * popcount)))


def reduced_state(state: np.ndarray, kept_sites, n_qubits: int | None = None) -> np.ndarray:
    """Partial trace of a pure state onto one or two 1-based sites."""
    state = np.asarray(state, dtype=complex)
    n = int(np.log2(state.size)) if n_qubits is None else n_qubits
    if 2**n != state.size:
        raise ValueError("state dimension is not a power of two")
    kept = [int(s) for s in kept_sites]
    if len(kept) not in (1, 2) or len(set(kept)) != len(kept):
        raise ValueError("kept_sites must name one or two distinct sites")
    for site in kept:
        if not 1 <= site <= n:
            raise ValueError(f"site {site} outside 1..{n}")
    tensor = state.reshape((2,) * n)
    axes = [site - 1 for site in kept]
    moved = np.moveaxis(tensor, axes, range(len(axes)))
    block = moved.reshape(2 ** len(kept), -1)
    return block @ block.conj().T


def wootters_concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence max(0, mu1 - mu2 - mu3 - mu4)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("expected a 4x4 two-qubit density matrix")
    if not np.allclose(rho, rho.conj().T, atol=1e-8):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValueError("density matrix trace must be 1")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("density matrix has a negative eigenvalue")
    yy = np.array(
        [
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
        ]
    )
    # mu_i = sqrt(eigvals(rho @ yy @ rho* @ yy)) are the singular values of
    # sqrt(rho) @ yy @ conj(sqrt(rho)); the SVD keeps the near-zero ones at
    # machine precision instead of sqrt(eigenvalue noise)
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    mu = np.linalg.svd(root @ yy @ root.conj(), compute_uv=False)
    mu.sort()
    return float(max(0.0, mu[-1] - mu[-2] - mu[-3] - mu[-4]))


def external_singlet_state(spec: ChainSpec) -> np.ndarray:
    """(|0>_a sigma_1^+ |vac> + |1>_a |vac>)/sqrt2 on an (N+1)-qubit register.

    Qubit 1 is an idle external ancilla; chain sites occupy qubits 2..N+1.
    """
    n = spec.n_sites
    state = np.zeros(2 ** (n + 1), dtype=complex)
    state[site_index(n, 1)] = 1.0 / np.sqrt(2.0)   # ancilla up, excitation on site 1
    state[1 << n] = 1.0 / np.sqrt(2.0)             # ancilla flipped, chain vacuum
    return state


def evolve_with_idle_ancilla(spec: ChainSpec, profile: FieldProfile, joint_state: np.ndarray, t: float) -> np.ndarray:
    """Evolve an (N+1)-qubit state whose first qubit is decoupled."""
    joint_state = np.asarray(joint_state, dtype=complex)
    decomp = FullDecomposition(spec, profile)
    blocks = joint_state.reshape(2, -1)
    return np.vstack([decomp.evolve(block, t) for block in blocks]).reshape(-1)


def _tridiag_matvec(diagonal: np.ndarray, off_diagonal: np.ndarray, vec: np.ndarray) -> np.ndarray:
    out = diagonal * vec
    out[:-1] += off_diagonal * vec[1:]
    out[1:] += off_diagonal * vec[:-1]
    return out


def rk4_evolve_driven(
    diagonal_at,
    off_diagonal: np.ndarray,
    initial: np.ndarray,
    t_start: float,
    t_end: float,
    n_steps: int,
) -> np.ndarray:
    """RK4 for a tridiagonal Hamiltonian with a time-dependent diagonal."""
    off_diagonal = np.asarray(off_diagonal, dtype=float)
    beta = np.asarray(initial, dtype=complex).copy()
    h = (t_end - t_start) / n_steps

    def deriv(t: float, b: np.ndarray) -> np.ndarray:
        return -1j * _tridiag_matvec(np.asarray(diagonal_at(t), dtype=float), off_diagonal, b)

    t = t_start
    for _ in range(n_steps):
        k1 = deriv(t, beta)
        k2 = deriv(t + h / 2.0, beta + (h / 2.0) * k1)
        k3 = deriv(t + h / 2.0, beta + (h / 2.0) * k2)
        k4 = deriv(t + h, beta + h * k3)
        beta = beta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return beta


def oracle_transition_amplitude(spec: ChainSpec, profile: FieldProfile, from_site: int, to_site: int, t: float) -> complex:
    """f_{to,from}(t) via the full 2^N path, phase-referenced to the vacuum.

    The one-excitation block used by the fast path drops the constant
    vacuum energy, so full-space amplitudes carry an extra global phase
    exp(-i E_vac t); dividing it out makes the two paths comparable as
    complex numbers, not just in magnitude.
    """
    decomp = FullDecomposition(spec, profile)
    n = spec.n_sites
    amplitude = decomp._amplitude(site_index(n, from_site), site_index(n, to_site), t)
    return complex(amplitude / decomp._amplitude(0, 0, t))
