"""Simulation and analysis of time-bin photonic qubits from a driven
spin-cavity emitter."""

from .core import (BlochVector, ConfigError, InsufficientStatisticsError,
                   LaserId, PhysicalParams, PulseSequence, ResonantPulse,
                   TimeBinState, ValidationError, load_params, purity_bound)
from .dynamics import (expected_visibility, generate_state,
                       sequence_drives, sequence_for_pgen,
                       two_pulse_sequence, visibility_curve)
from .measurement import (FringeScan, HbtResult, MichelsonResult,
                          background_rate_for_g2, calibrate_background_for_g2,
                          filter_transmission, fringe_scan, gate, hbt_g2,
                          michelson, michelson_expected, reject_reset_light,
                          spectral_filter)
from .montecarlo import EventStream, Origin, run
from .tomography import (FringeFit, bloch_of_state, direction_fidelity,
                         fidelity, fit_fringe, qubit_phase, reconstruct,
                         unwrap_phases)
from .wdm import RecoveryReport, WdmSpec, build_wdm_sequence, recovery_report

__version__ = "0.1.0"

__all__ = [
    "BlochVector", "ConfigError", "EventStream", "FringeFit", "FringeScan",
    "HbtResult", "InsufficientStatisticsError", "LaserId",
    "MichelsonResult", "Origin", "PhysicalParams",
    "PulseSequence", "RecoveryReport", "ResonantPulse", "TimeBinState",
    "ValidationError", "WdmSpec", "background_rate_for_g2",
    "bloch_of_state", "build_wdm_sequence", "calibrate_background_for_g2",
    "direction_fidelity", "expected_visibility",
    "fidelity", "filter_transmission", "fit_fringe", "fringe_scan", "gate",
    "generate_state", "hbt_g2", "load_params",
    "michelson", "michelson_expected", "purity_bound", "qubit_phase",
    "reconstruct", "recovery_report", "reject_reset_light",
    "run", "sequence_drives", "sequence_for_pgen",
    "spectral_filter",
    "two_pulse_sequence", "unwrap_phases", "visibility_curve",
]
