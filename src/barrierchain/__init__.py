"""Spin-chain state transfer through switchable local-field barriers.

Single-excitation simulator for uniformly coupled XX chains where strong
local fields on interior sites act as potential barriers.  Includes exact
spectral dynamics, transfer-quality metrics, a reduced two- and three-level
effective picture, static-disorder ensembles, entanglement transfer for a
shared singlet, the time-dependent trap/store/release protocol, and a full
Hilbert-space oracle for cross-checks on small chains.
"""

from .chain import (
    ChainSpec,
    FieldProfile,
    SingleExcitationHamiltonian,
    barrier_profile,
    build_hamiltonian,
    ebit_barrier_profile,
    profile_from_config,
    profile_to_config,
    uniform_profile,
)
from .disorder import (
    BARRIER_LEAKAGE,
    BULK_UNIFORM,
    DisorderModel,
    EnsembleResult,
    default_window,
    monte_carlo,
    sample_profile,
)
from .ebit import (
    EbitState,
    dominant_pair_gap,
    ebit_window,
    evolve_ebit,
    pair_concurrence,
    peak_pair_concurrence,
    singlet_transfer_concurrence,
)
from .effective import (
    EffectiveCouplings,
    EffectiveModel,
    GapComparison,
    effective_couplings,
    effective_dynamics,
    effective_gap,
    effective_model,
    predicted_vs_exact_gap,
)
from .metrics import (
    LocalizationReport,
    average_fidelity,
    bilocalized_pair_by_energy,
    haar_qubits,
    ipr,
    localization_report,
    max_fidelity,
    rabi_transfer_time,
    receiver_fidelity,
    transfer_series,
)
from .oracle import (
    FullDecomposition,
    full_evolve,
    full_hamiltonian,
    oracle_transition_amplitude,
    reduced_state,
    wootters_concurrence,
)
from .protocol import (
    ProtocolTrajectory,
    StepControlError,
    SwitchingSchedule,
    field_at,
    optimal_interval,
    optimize_interval,
    simulate_protocol,
    storage_fidelity,
    two_level_interval,
)
from .spectral import (
    AmplitudeVector,
    SpectralDecomposition,
    eigendecompose,
    evolve,
    evolve_many,
    site_state,
    transition_amplitude,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeVector",
    "BARRIER_LEAKAGE",
    "BULK_UNIFORM",
    "ChainSpec",
    "DisorderModel",
    "EbitState",
    "EffectiveCouplings",
    "EffectiveModel",
    "EnsembleResult",
    "FieldProfile",
    "FullDecomposition",
    "GapComparison",
    "LocalizationReport",
    "ProtocolTrajectory",
    "SingleExcitationHamiltonian",
    "SpectralDecomposition",
    "StepControlError",
    "SwitchingSchedule",
    "average_fidelity",
    "barrier_profile",
    "bilocalized_pair_by_energy",
    "build_hamiltonian",
    "default_window",
    "dominant_pair_gap",
    "ebit_barrier_profile",
    "ebit_window",
    "effective_couplings",
    "effective_dynamics",
    "effective_gap",
    "effective_model",
    "eigendecompose",
    "evolve",
    "evolve_ebit",
    "evolve_many",
    "field_at",
    "full_evolve",
    "full_hamiltonian",
    "haar_qubits",
    "ipr",
    "localization_report",
    "max_fidelity",
    "monte_carlo",
    "optimal_interval",
    "optimize_interval",
    "oracle_transition_amplitude",
    "pair_concurrence",
    "peak_pair_concurrence",
    "predicted_vs_exact_gap",
    "profile_from_config",
    "profile_to_config",
    "rabi_transfer_time",
    "receiver_fidelity",
    "reduced_state",
    "sample_profile",
    "simulate_protocol",
    "singlet_transfer_concurrence",
    "site_state",
    "storage_fidelity",
    "transfer_series",
    "transition_amplitude",
    "two_level_interval",
    "uniform_profile",
    "wootters_concurrence",
]
