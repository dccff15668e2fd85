"""Fringe fitting and single-qubit state reconstruction.

The interferometer's middle-slot counts versus phase follow
``N(phi) = A * (1 + V * cos(phi + phi0))``.  Fitting a reference scan and a
phase-modulated scan gives the programmed qubit phase as
``phi0_ref - phi0_mod``; together with the bin occupations and the fringe
visibility this fixes the Bloch vector of the emitted time-bin qubit.

The fringe model is linear in ``(1, cos phi, sin phi)``, so the fit is a
closed-form weighted linear least-squares solve with no iterative solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BlochVector, TimeBinState
from .measurement import FringeScan


@dataclass(frozen=True)
class FringeFit:
    amplitude: float
    visibility: float
    phase: float  # fringe offset phi0, wrapped to (-pi, pi]
    amplitude_err: float
    visibility_err: float
    phase_err: float
    phase_defined: bool


def _wrap(phi: float) -> float:
    w = float(np.mod(phi + np.pi, 2.0 * np.pi) - np.pi)
    return np.pi if w == -np.pi else w


def fit_fringe(phases, counts=None) -> FringeFit:
    """Least-squares fit of ``A * (1 + V cos(phi + phi0))`` to count data.

    Accepts either a :class:`~timebinsim.measurement.FringeScan` or explicit
    (phases, counts) arrays.  Points carry Poisson weights
    ``1 / max(counts, 1)``.  The model is fitted as
    ``a + b cos(phi) + c sin(phi)``, whose weighted least-squares solution
    and covariance are exact; ``A = |a|``, ``V = hypot(b, c) / A`` and
    ``phi0 = atan2(-c, b)``, with errors propagated through the Jacobian of
    that map.  The result is canonicalised to ``V`` in ``[0, 1]`` and
    ``phi0`` in ``(-pi, pi]``.  Perfectly flat data fits a fringe of zero
    visibility with an undefined phase.
    """
    if isinstance(phases, FringeScan):
        if counts is not None:
            raise ValueError("pass either a FringeScan or (phases, counts), not both")
        phases, counts = phases.phases, phases.middle_counts
    phases = np.asarray(phases, float)
    counts = np.asarray(counts, float)
    if phases.shape != counts.shape or phases.ndim != 1:
        raise ValueError("phases and counts must be 1-d arrays of equal length")
    if phases.size < 4:
        raise ValueError("need at least 4 points to fit a fringe")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")

    amp0 = float(counts.mean())
    if np.ptp(counts) == 0:
        return FringeFit(amplitude=amp0, visibility=0.0, phase=0.0,
                         amplitude_err=0.0, visibility_err=0.0,
                         phase_err=float("nan"), phase_defined=False)

    design = np.stack([np.ones_like(phases), np.cos(phases), np.sin(phases)], axis=1)
    weights = 1.0 / np.maximum(counts, 1.0)
    try:
        cov = np.linalg.inv(design.T @ (weights[:, None] * design))
    except np.linalg.LinAlgError:
        raise ValueError("phases must hold at least 3 distinct setpoints "
                         "modulo 2*pi to fit a fringe") from None
    a, b, c = cov @ (design.T @ (weights * counts))

    r = float(np.hypot(b, c))
    amp = abs(float(a))
    vis = r / amp
    jac = np.array([[1.0, 0.0, 0.0],
                    [-vis / a, b / (r * amp), c / (r * amp)],
                    [0.0, c / r ** 2, -b / r ** 2]])
    errs = np.sqrt(np.diag(jac @ cov @ jac.T))
    vis = min(vis, 1.0)
    ph = _wrap(float(np.arctan2(-c, b)))
    defined = vis > 1e-9
    return FringeFit(amplitude=amp, visibility=vis, phase=ph,
                     amplitude_err=float(errs[0]), visibility_err=float(errs[1]),
                     phase_err=float(errs[2]) if defined else float("nan"),
                     phase_defined=defined)


def qubit_phase(reference: FringeFit, modulated: FringeFit) -> float:
    """Programmed qubit phase from a reference and a modulated fringe fit,
    wrapped to ``(-pi, pi]``."""
    if not (reference.phase_defined and modulated.phase_defined):
        raise ValueError("qubit phase needs two fits with defined fringe phases")
    return _wrap(reference.phase - modulated.phase)


def unwrap_phases(values) -> np.ndarray:
    """Remove 2*pi jumps from a monotonically scanned phase series."""
    return np.unwrap(np.asarray(values, float))


def reconstruct(p_early: float, p_late: float, visibility: float,
                phase: float) -> BlochVector:
    """Bloch vector of the normalised qubit from measured ingredients.

    ``phase`` is the qubit phase (late-bin amplitude phase), so ``phase=0``
    maps to +x and ``phase=pi/2`` to +y.
    """
    if p_early < 0 or p_late < 0:
        raise ValueError("bin occupations must be >= 0")
    total = p_early + p_late
    if total <= 0:
        raise ValueError("cannot reconstruct a state with no photons")
    if total > 1.0 + 1e-6:
        raise ValueError("bin occupations must sum to at most 1")
    if not 0 <= visibility <= 1:
        raise ValueError("visibility must lie in [0, 1]")
    q0 = p_early / total
    q1 = p_late / total
    r = visibility * np.sqrt(q0 * q1)
    return BlochVector(x=2.0 * r * np.cos(phase), y=2.0 * r * np.sin(phase),
                       z=q0 - q1)


def bloch_of_state(state: TimeBinState) -> BlochVector:
    """Bloch vector of a sub-normalised two-bin state, conditioned on a
    photon being present (vacuum weight divided out)."""
    total = state.p_early + state.p_late
    if total <= 0:
        raise ValueError("state has no photonic weight")
    return BlochVector(x=2.0 * state.coherence.real / total,
                       y=-2.0 * state.coherence.imag / total,
                       z=(state.p_early - state.p_late) / total)


def fidelity(measured: BlochVector, target: BlochVector) -> float:
    """Overlap of a (possibly mixed) measured state with a pure target:
    ``F = (1 + m . t) / 2``.  The target must be unit length."""
    if abs(target.norm - 1.0) > 1e-9:
        raise ValueError("fidelity target must be a pure state (unit Bloch vector)")
    return 0.5 * (1.0 + measured.dot(target))


def direction_fidelity(measured: BlochVector, target: BlochVector) -> float:
    """Fidelity between the directions of two Bloch vectors, ignoring their
    lengths.  Useful when depolarisation is understood and only the qubit's
    orientation is under test."""
    return fidelity(measured.normalized(), target.normalized())
