"""Chain geometry, local-field profiles, and the single-excitation Hamiltonian.

The model is an open XX spin-1/2 chain of N sites with uniform exchange J
and site-local z fields K_n,

    H = -J [ 1/2 sum_n (sx_n sx_{n+1} + sy_n sy_{n+1}) + sum_n K_n sz_n ].

Total magnetization is conserved, so the one-excitation block is an N x N
symmetric tridiagonal matrix with diagonal 2*K_n and constant off-diagonal
-J (energies in units of J, times in 1/J).  Sites are numbered 1..N in every
public interface.
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
    """Chain size and energy unit."""

    n_sites: int
    coupling: float = 1.0

    def __post_init__(self) -> None:
        if int(self.n_sites) != self.n_sites or self.n_sites < 2:
            raise ValueError(f"n_sites must be an integer >= 2, got {self.n_sites}")
        if not (self.coupling > 0):
            raise ValueError(f"coupling must be positive, got {self.coupling}")
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


def barrier_profile(spec: ChainSpec, omega: float) -> FieldProfile:
    """Fields K_n = omega on the barrier sites 2 and N-1, zero elsewhere."""
    if spec.n_sites < 4:
        raise ValueError("barrier sites 2 and N-1 need N >= 4")
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    fields = np.zeros(spec.n_sites)
    fields[1] = omega
    fields[spec.n_sites - 2] = omega
    return FieldProfile(fields)


def ebit_barrier_profile(spec: ChainSpec, omega: float) -> FieldProfile:
    """Fields K_n = omega on sites 3 and N-2, used for entangled-pair transfer."""
    if spec.n_sites < 6:
        raise ValueError("barrier sites 3 and N-2 need N >= 6")
    if omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    fields = np.zeros(spec.n_sites)
    fields[2] = omega
    fields[spec.n_sites - 3] = omega
    return FieldProfile(fields)


@dataclass(frozen=True, eq=False)
class SingleExcitationHamiltonian:
    """One-excitation block: diagonal 2*K_n, constant off-diagonal -J."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self) -> None:
        d = _readonly(self.diagonal)
        e = _readonly(self.off_diagonal)
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
    diagonal = 2.0 * spec.coupling * profile.local_fields
    off_diagonal = np.full(spec.n_sites - 1, -spec.coupling)
    return SingleExcitationHamiltonian(diagonal, off_diagonal)


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
