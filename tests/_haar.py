"""Haar-random single-qubit states, for the tests that average over inputs."""

import numpy as np


def haar_qubits(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) arrays for n Haar-random qubit states (global phase fixed)."""
    rng = np.random.default_rng(seed)
    cos_theta = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    theta = np.arccos(cos_theta)
    return np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)
