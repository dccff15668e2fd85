"""Simulation and analysis of time-bin photonic qubits from a driven
spin-cavity emitter."""

from .core import (BlochVector, ConfigError, InsufficientStatisticsError,
                   LaserId, PhysicalParams, PulseSequence, ResonantPulse,
                   TimeBinState, ValidationError, load_params, purity_bound,
                   save_params, validate)
from .dynamics import (coherent_fraction, derive_drive, excitation_probability,
                       expected_visibility, generate_state, intensity_for_angle,
                       rotation_angle, sequence_drives, sequence_for_pgen,
                       two_pulse_sequence, visibility_curve)
from .measurement import (FringeScan, HbtResult, MichelsonResult,
                          background_rate_for_g2, calibrate_background_for_g2,
                          filter_transmission, fringe_scan, gate, hbt_g2,
                          michelson, michelson_expected, reject_reset_light,
                          spectral_filter)
from .montecarlo import EventStream, Origin, run
from .tomography import (FringeFit, bloch_of_state, direction_fidelity,
                         fidelity, fit_fringe, qubit_phase, reconstruct,
                         unwrap_phases, write_states_csv)
from .wdm import (RecoveryReport, WdmSpec, WdmState, build_wdm_sequence,
                  recovery_report, wdm_state)

__version__ = "0.1.0"

__all__ = [
    "BlochVector", "ConfigError", "EventStream", "FringeFit", "FringeScan",
    "HbtResult", "InsufficientStatisticsError", "LaserId",
    "MichelsonResult", "Origin", "PhysicalParams",
    "PulseSequence", "RecoveryReport", "ResonantPulse", "TimeBinState",
    "ValidationError", "WdmSpec", "WdmState", "background_rate_for_g2",
    "bloch_of_state", "build_wdm_sequence", "calibrate_background_for_g2",
    "coherent_fraction", "derive_drive",
    "direction_fidelity", "excitation_probability", "expected_visibility",
    "fidelity", "filter_transmission", "fit_fringe", "fringe_scan", "gate",
    "generate_state", "hbt_g2", "intensity_for_angle", "load_params",
    "michelson", "michelson_expected", "purity_bound", "qubit_phase",
    "reconstruct", "recovery_report", "reject_reset_light", "rotation_angle",
    "run",
    "save_params", "sequence_drives", "sequence_for_pgen",
    "spectral_filter",
    "two_pulse_sequence", "unwrap_phases", "validate", "visibility_curve",
    "wdm_state", "write_states_csv",
]
