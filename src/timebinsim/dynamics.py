"""Closed-form model of two-pulse Raman generation of a time-bin qubit.

A hole spin in |h> is driven twice per window.  Each resonant pulse of area
theta transfers the spin to the trion (and emits a Raman photon into its
time bin) with probability sin^2(theta/2); the pulse area follows from the
drive intensity as theta = (pi/2) sqrt(I), so an intensity of 1 is a pi/2
pulse.  A pi/2 followed by a pi pulse therefore splits the emission 50/50
between the early and late bins and always produces exactly one photon.

Raman emission during the drive is only partly phase-coherent: modelling the
pulse as a square drive of duration tau_p (Rabi rate Omega = theta / tau_p),
the coherent share of the emitted light is

    C(Gamma, Omega) = 2 Gamma^2 / (2 Gamma^2 + Omega^2),    Gamma = 1 / T1.

Weak driving (Omega -> 0) is fully coherent; hard driving degrades the
coherence, and shorter radiative lifetimes (larger Gamma) protect it.  The
qubit coherence additionally decays with the hole-spin coherence time: bins
separated by dt retain a factor D = exp(-dt / T2).  "Visibility" here means
the degree of coherence, |coh| / sqrt(p_early p_late): D sqrt(C_0 C_1) in
``generate_state``, D C_min in :mod:`timebinsim.measurement`'s routing; the
two agree when both pulses have the same intensity.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .core import PhysicalParams, PulseSequence, ResonantPulse, TimeBinState

# Intensity calibration: a pulse of intensity I has area (pi/2) sqrt(I).
_HALF_PI = math.pi / 2


class _Drive(NamedTuple):
    excitation: float  # sin^2(theta/2)
    coherent_fraction: float  # coherent share of the emitted light


def _coherent_fraction(theta: float, params: PhysicalParams) -> float:
    """C(Gamma, Omega) of a square pulse of area ``theta``, Omega = theta / tau_p."""
    rabi = theta / params.pulse_duration
    g2 = 2.0 * params.gamma * params.gamma
    return g2 / (g2 + rabi * rabi)


def _late_angle(p_gen: float) -> float:
    """Area theta_2 = 2 asin(sqrt(p_gen)) of a pulse that excites with
    probability ``p_gen``."""
    if not 0.0 <= p_gen <= 1.0:
        raise ValueError("p_gen must lie in [0, 1]")
    return 2.0 * math.asin(math.sqrt(p_gen))


def sequence_drives(sequence: PulseSequence,
                    params: PhysicalParams) -> tuple[_Drive, ...]:
    """Each pulse's (excitation, coherent_fraction), in sequence order: a
    pulse of intensity I has area theta = (pi/2) sqrt(I), excites with
    probability sin^2(theta/2) and emits the coherent share C(Gamma, Omega)."""
    thetas = [_HALF_PI * math.sqrt(p.intensity) for p in sequence.pulses]
    return tuple(_Drive(excitation=min(1.0, math.sin(t / 2.0) ** 2),
                        coherent_fraction=_coherent_fraction(t, params))
                 for t in thetas)


def two_pulse_sequence(scale: float = 1.0, phase2: float = 0.0) -> PulseSequence:
    """Standard pi/2 + pi drive pair (1:4 intensity ratio), optionally scaled.

    ``scale`` multiplies both intensities, preserving the ratio; ``phase2``
    is the optical phase programmed onto the second pulse, which becomes the
    qubit phase of the generated time-bin state.
    """
    return PulseSequence(pulses=(
        ResonantPulse(intensity=float(scale)),
        ResonantPulse(intensity=scale * 4.0, phase=phase2),
    ))


def sequence_for_pgen(p_gen: float, phase2: float = 0.0) -> PulseSequence:
    """Two-pulse 1:4 drive whose *second* pulse excites with probability p_gen."""
    i2 = (_late_angle(p_gen) / _HALF_PI) ** 2
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
    d0, d1 = sequence_drives(sequence, params)
    p0, p1 = sequence.pulses
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
    return TimeBinState(p_early=p_early, p_late=p_late, coherence=coherence)


def expected_visibility(p_gen: float, params: PhysicalParams) -> float:
    """Predicted interference visibility at a given generation probability.

    Follows the brightest-pulse convention: ``p_gen`` is read as the second
    (pi-like) pulse's excitation probability, whose Rabi rate dominates the
    coherence loss, so V = exp(-dt/T2) * C(Gamma, Omega_2).
    """
    theta2 = _late_angle(p_gen)
    dephasing = math.exp(-params.bin_separation / params.t2_spin)
    return dephasing * _coherent_fraction(theta2, params)


def visibility_curve(p_gen_grid, t1_list, params: PhysicalParams) -> list[tuple[float, float, float]]:
    """Rows of (p_gen, t1_ps, visibility) over a grid of generation probabilities."""
    rows = []
    for t1 in t1_list:
        p = replace(params, t1_radiative=float(t1))
        for pg in np.asarray(p_gen_grid, dtype=float):
            rows.append((float(pg), float(t1), expected_visibility(float(pg), p)))
    return rows
