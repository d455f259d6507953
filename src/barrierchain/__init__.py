"""Spin-chain state transfer through switchable local-field barriers.

Single-excitation simulator for uniformly coupled XX chains where strong
local fields on interior sites act as potential barriers.  Includes exact
spectral dynamics, transfer-quality metrics, a reduced two- and three-level
effective picture, static-disorder ensembles, entanglement transfer for a
shared singlet, the time-dependent trap/store/release protocol, and a full
Hilbert-space oracle for cross-checks on small chains.

Each public name is imported from the module that defines it, e.g.
``barrierchain.metrics.max_fidelity``, ``barrierchain.disorder.monte_carlo``,
``barrierchain.protocol.simulate_protocol`` or
``barrierchain.oracle.oracle_transition_amplitude``.  Importing the package
itself loads no submodule.
"""

__version__ = "0.1.0"
