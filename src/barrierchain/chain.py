"""Chain geometry, local-field profiles, and the single-excitation Hamiltonian.

The model is an open XX spin-1/2 chain of N sites with uniform exchange J
and site-local z fields K_n,

    H = -J [ 1/2 sum_n (sx_n sx_{n+1} + sy_n sy_{n+1}) + sum_n K_n sz_n ].

J is the unit of energy and 1/J the unit of time, and no interface takes
it as a parameter: with the fields K_n in units of J, H(J) = J H(1), so a
chain at any J is the J = 1 chain on a rescaled clock.  Total magnetization
is conserved, so the one-excitation block is an N x N symmetric tridiagonal
matrix with diagonal 2*K_n and constant off-diagonal -1.  Sites are
numbered 1..N in every public interface.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ChainSpec:
    """Chain size.  The exchange J is the energy unit, not a field: H(J) = J H(1)."""

    n_sites: int

    def __post_init__(self) -> None:
        if int(self.n_sites) != self.n_sites or self.n_sites < 2:
            raise ValueError(f"n_sites must be an integer >= 2, got {self.n_sites}")
        object.__setattr__(self, "n_sites", int(self.n_sites))


@dataclass(frozen=True, eq=False)
class FieldProfile:
    """Local fields K_n in units of J; ``local_fields[n-1]`` belongs to site n."""

    local_fields: np.ndarray

    def __post_init__(self) -> None:
        fields = _readonly(self.local_fields)
        if fields.ndim != 1:
            raise ValueError("local_fields must be one-dimensional")
        if not np.all(np.isfinite(fields)):
            raise ValueError("local_fields must be finite")
        object.__setattr__(self, "local_fields", fields)

    def __len__(self) -> int:
        return self.local_fields.size

    def field(self, site: int) -> float:
        """K at a 1-based site index."""
        if not 1 <= site <= len(self):
            raise ValueError(f"site {site} outside 1..{len(self)}")
        return float(self.local_fields[site - 1])

    def nonzero_sites(self) -> tuple[int, ...]:
        """1-based sites carrying a nonzero field."""
        return tuple(int(i) + 1 for i in np.nonzero(self.local_fields)[0])

    def is_mirror_symmetric(self) -> bool:
        """True when K_n = K_{N+1-n} exactly."""
        return bool(np.array_equal(self.local_fields, self.local_fields[::-1]))

    def negated(self) -> "FieldProfile":
        return FieldProfile(-self.local_fields)


def uniform_profile(spec: ChainSpec) -> FieldProfile:
    """All K_n = 0 (the homogeneous chain)."""
    return FieldProfile(np.zeros(spec.n_sites))


def _mirror_pair_profile(spec: ChainSpec, omega: float, site: int) -> FieldProfile:
    """Fields K_n = omega on sites ``site`` and N+1-site, zero elsewhere."""
    if spec.n_sites < 2 * site:
        raise ValueError(f"barrier sites {site} and N-{site - 1} need N >= {2 * site}")
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    fields = np.zeros(spec.n_sites)
    fields[site - 1] = omega
    fields[spec.n_sites - site] = omega
    return FieldProfile(fields)


def barrier_profile(spec: ChainSpec, omega: float) -> FieldProfile:
    """Fields K_n = omega on the barrier sites 2 and N-1, zero elsewhere."""
    return _mirror_pair_profile(spec, omega, 2)


def ebit_barrier_profile(spec: ChainSpec, omega: float) -> FieldProfile:
    """Fields K_n = omega on sites 3 and N-2, used for entangled-pair transfer."""
    return _mirror_pair_profile(spec, omega, 3)


@dataclass(frozen=True, eq=False)
class SingleExcitationHamiltonian:
    """One-excitation block; ``build_hamiltonian`` writes diagonal 2*K_n and off-diagonal -1."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self) -> None:
        d = _readonly(self.diagonal)
        e = _readonly(self.off_diagonal)
        if d.size < 2:
            raise ValueError(f"a chain needs N >= 2 sites, got {d.size}")
        if e.size != d.size - 1:
            raise ValueError("off_diagonal must have length N-1")
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "off_diagonal", e)

    @property
    def n_sites(self) -> int:
        return self.diagonal.size

    def dense(self) -> np.ndarray:
        h = np.diag(self.diagonal)
        idx = np.arange(self.n_sites - 1)
        h[idx, idx + 1] = self.off_diagonal
        h[idx + 1, idx] = self.off_diagonal
        return h


def build_hamiltonian(spec: ChainSpec, profile: FieldProfile) -> SingleExcitationHamiltonian:
    """Assemble the one-excitation tridiagonal matrix for a field profile."""
    if len(profile) != spec.n_sites:
        raise ValueError(
            f"profile length {len(profile)} does not match n_sites {spec.n_sites}"
        )
    return SingleExcitationHamiltonian(*hamiltonian_bands(profile.local_fields))


def hamiltonian_bands(fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal 2*K_n, shaped like ``fields`` (..., N), and the off-diagonal
    -1 of length N-1 shared by every chain, of the one-excitation block."""
    fields = np.asarray(fields, dtype=float)
    return 2.0 * fields, np.full(fields.shape[-1] - 1, -1.0)


# --- plain-text config blocks -------------------------------------------------
#
# The CLI's --config files are key = value blocks, one flag per line with
# dashes or underscores in its name, e.g.
#
#     n = 10
#     omega_list = [10.0, 20.0, 40.0]
#     metric = max-concurrence
#
# Values are Python literals; any other value (max-concurrence) stays a string.


def parse_config_block(text: str) -> dict:
    """Parse ``key = value`` lines ('#' starts a comment) into a dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        try:
            out[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            out[key] = value
    return out
