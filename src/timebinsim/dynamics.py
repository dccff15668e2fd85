"""Closed-form model of two-pulse Raman generation of a time-bin qubit.

A hole spin in |h> is driven twice per window.  Each resonant pulse of area
theta transfers the spin to the trion (and emits a Raman photon into its
time bin) with probability sin^2(theta/2); the pulse area follows from the
drive intensity as theta = theta_ref * sqrt(I / I_ref).  A pi/2 followed by
a pi pulse therefore splits the emission 50/50 between the early and late
bins and always produces exactly one photon.

Raman emission during the drive is only partly phase-coherent: modelling the
pulse as a square drive of duration tau_p (Rabi rate Omega = theta / tau_p),
the coherent share of the emitted light is

    C(Gamma, Omega) = 2 Gamma^2 / (2 Gamma^2 + Omega^2),    Gamma = 1 / T1.

Weak driving (Omega -> 0) is fully coherent; hard driving degrades the
coherence, and shorter radiative lifetimes (larger Gamma) protect it.  The
qubit coherence additionally decays with the hole-spin coherence time: bins
separated by dt retain a factor exp(-dt / T2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PhysicalParams,
    PulseSequence,
    ResonantPulse,
    TimeBinState,
    validate,
    write_csv,
)

# Intensity calibration: an intensity of 1.0 realises a pi/2 rotation.
REFERENCE_INTENSITY = 1.0
REFERENCE_ANGLE = math.pi / 2


@dataclass(frozen=True)
class DriveDerived:
    """Quantities derived from one pulse's drive settings."""

    theta: float  # rotation angle (rad)
    rabi: float  # angular Rabi frequency Omega = theta / tau_p (rad/ps)
    excitation: float  # sin^2(theta/2)
    coherent_fraction: float  # coherent share of the emitted light


def rotation_angle(intensity: float) -> float:
    """Pulse area from drive intensity: theta scales with sqrt(intensity)."""
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    return REFERENCE_ANGLE * math.sqrt(intensity / REFERENCE_INTENSITY)


def intensity_for_angle(theta: float) -> float:
    """Inverse of rotation_angle."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    return REFERENCE_INTENSITY * (theta / REFERENCE_ANGLE) ** 2


def excitation_probability(theta: float) -> float:
    """Probability that a pulse of area theta excites the spin-trion transition."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    return min(1.0, math.sin(theta / 2.0) ** 2)


def coherent_fraction(gamma: float, rabi: float) -> float:
    """Coherent share of Raman emission, 2 Gamma^2 / (2 Gamma^2 + Omega^2).

    ``gamma`` is the radiative decay rate 1/T1 (1/ps) and ``rabi`` the
    angular Rabi frequency of the drive (rad/ps).  Equals 1 in the weak
    drive limit and falls monotonically with drive strength.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if rabi < 0:
        raise ValueError("rabi must be >= 0")
    g2 = 2.0 * gamma * gamma
    return g2 / (g2 + rabi * rabi)


def derive_drive(pulse: ResonantPulse, params: PhysicalParams) -> DriveDerived:
    theta = rotation_angle(pulse.intensity)
    rabi = theta / params.pulse_duration
    return DriveDerived(
        theta=theta,
        rabi=rabi,
        excitation=excitation_probability(theta),
        coherent_fraction=coherent_fraction(params.gamma, rabi),
    )


def sequence_drives(sequence: PulseSequence,
                    params: PhysicalParams) -> tuple[DriveDerived, ...]:
    return tuple(derive_drive(p, params) for p in sequence.pulses)


def two_pulse_sequence(scale: float = 1.0, phase2: float = 0.0) -> PulseSequence:
    """Standard pi/2 + pi drive pair (1:4 intensity ratio), optionally scaled.

    ``scale`` multiplies both intensities, preserving the ratio; ``phase2``
    is the optical phase programmed onto the second pulse, which becomes the
    qubit phase of the generated time-bin state.
    """
    seq = PulseSequence(pulses=(
        ResonantPulse(intensity=scale * REFERENCE_INTENSITY),
        ResonantPulse(intensity=scale * 4.0 * REFERENCE_INTENSITY, phase=phase2),
    ))
    validate(seq)
    return seq


def sequence_for_pgen(p_gen: float, phase2: float = 0.0) -> PulseSequence:
    """Two-pulse 1:4 drive whose *second* pulse excites with probability p_gen."""
    if not 0.0 <= p_gen <= 1.0:
        raise ValueError("p_gen must lie in [0, 1]")
    theta2 = 2.0 * math.asin(math.sqrt(p_gen))
    i2 = intensity_for_angle(theta2)
    return two_pulse_sequence(scale=i2 / 4.0, phase2=phase2)


def generate_state(sequence: PulseSequence, params: PhysicalParams) -> TimeBinState:
    """Closed-form time-bin state produced by the two-pulse drive.

    The early bin is populated with probability p_hole * e1, the late bin
    with p_hole * (1 - e1) * e2 (the spin must have survived the first
    pulse).  The cross-bin coherence carries the spin dephasing factor
    exp(-dt/T2) and the geometric mean of the two pulses' coherent
    fractions; its argument is the phase difference between the pulses.
    Two free-running lasers of different colour redraw their relative phase
    every window, which averages the coherence to zero.
    """
    validate(sequence)
    p0, p1 = sequence.pulses
    d0, d1 = derive_drive(p0, params), derive_drive(p1, params)
    h = params.p_hole_init
    p_early = h * d0.excitation
    p_late = h * (1.0 - d0.excitation) * d1.excitation
    if sequence.random_interlaser_phase and p0.laser_id is not p1.laser_id:
        coherence = 0j
    else:
        dephasing = math.exp(-params.bin_separation / params.t2_spin)
        mag = math.sqrt(p_early * p_late) * dephasing * math.sqrt(
            d0.coherent_fraction * d1.coherent_fraction)
        arg = p0.phase - p1.phase
        coherence = mag * complex(math.cos(arg), math.sin(arg))
    state = TimeBinState(p_early=p_early, p_late=p_late, coherence=coherence)
    validate(state)
    return state


def expected_visibility(p_gen: float, params: PhysicalParams) -> float:
    """Predicted interference visibility at a given generation probability.

    Follows the brightest-pulse convention: ``p_gen`` is read as the second
    (pi-like) pulse's excitation probability, whose Rabi rate dominates the
    coherence loss, so V = exp(-dt/T2) * C(Gamma, Omega_2).
    """
    if not 0.0 <= p_gen <= 1.0:
        raise ValueError("p_gen must lie in [0, 1]")
    theta2 = 2.0 * math.asin(math.sqrt(p_gen))
    rabi2 = theta2 / params.pulse_duration
    dephasing = math.exp(-params.bin_separation / params.t2_spin)
    return dephasing * coherent_fraction(params.gamma, rabi2)


def visibility_curve(p_gen_grid, t1_list, params: PhysicalParams) -> list[tuple[float, float, float]]:
    """Rows of (p_gen, t1_ps, visibility) over a grid of generation probabilities."""
    rows = []
    for t1 in t1_list:
        p = PhysicalParams(**{**params.to_dict(), "t1_radiative": float(t1)})
        validate(p)
        for pg in np.asarray(p_gen_grid, dtype=float):
            rows.append((float(pg), float(t1), expected_visibility(float(pg), p)))
    return rows


def write_visibility_csv(rows, path) -> None:
    write_csv(path, "p_gen,t1_ps,visibility", rows)
