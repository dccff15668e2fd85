"""Two-colour (wavelength-multiplexed) qubit generation and recovery.

A two-colour program always drives the early bin with the red-detuned laser
and the late bin with the blue-detuned one.  This tags each time bin with
its own photon energy, so the bins can be demultiplexed downstream with a
narrow passband filter.  Unless the two lasers are phase-locked, their
relative optical phase drifts freely between windows and the cross-bin
coherence averages away - the bins are then recoverable individually but
the qubit phase is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (InsufficientStatisticsError, LaserId, PhysicalParams,
                   PulseSequence, ResonantPulse, TimeBinState, validate,
                   write_csv)
from .dynamics import generate_state
from .measurement import reject_reset_light, spectral_filter
from .montecarlo import EventStream, run


@dataclass(frozen=True)
class WdmSpec:
    """Detunings (ueV, relative to the bare line) of the red laser, which
    drives the early bin, and the blue laser, which drives the late bin,
    plus an optional locked relative phase between the lasers
    (free-running per window when ``None``)."""

    red_detuning: float = -9.55
    blue_detuning: float = 9.55
    locked_phase: float | None = None

    def violations(self) -> list[str]:
        v = []
        if not self.red_detuning < 0 < self.blue_detuning:
            v.append("red_detuning/blue_detuning: need red < 0 < blue")
        if self.locked_phase is not None and not np.isfinite(self.locked_phase):
            v.append("locked_phase: must be finite when set")
        return v

    @classmethod
    def for_splitting(cls, spin_splitting_uev: float,
                      locked_phase: float | None = None) -> "WdmSpec":
        """Detunings straddling the line by half the ground-state splitting."""
        half = 0.5 * spin_splitting_uev
        return cls(red_detuning=-half, blue_detuning=half,
                   locked_phase=locked_phase)


def build_wdm_sequence(spec: WdmSpec | None = None) -> PulseSequence:
    """Early-bin pi/2 pulse in red, late-bin pi pulse in blue (the late
    pulse is brighter to compensate for ground-state depletion by the
    first pulse).

    With no locked phase the sequence is flagged so each simulated window
    draws a fresh relative phase between the two lasers.
    """
    spec = spec or WdmSpec()
    validate(spec)
    locked = spec.locked_phase is not None
    seq = PulseSequence(
        pulses=(
            ResonantPulse(intensity=1.0, laser_id=LaserId.RED,
                          detuning=spec.red_detuning),
            ResonantPulse(intensity=4.0,
                          phase=spec.locked_phase if locked else 0.0,
                          laser_id=LaserId.BLUE, detuning=spec.blue_detuning),
        ),
        random_interlaser_phase=not locked,
    )
    validate(seq)
    return seq


@dataclass(frozen=True)
class WdmState:
    red: TimeBinState  # early-bin channel at the red energy
    blue: TimeBinState  # late-bin channel at the blue energy
    combined: TimeBinState  # both channels; zero coherence unless locked
    relative_phase_known: bool


def wdm_state(spec: WdmSpec | None = None,
              params: PhysicalParams | None = None) -> WdmState:
    """Analytic state of the two-colour sequence, split by colour channel."""
    spec = spec or WdmSpec()
    params = params or PhysicalParams()
    combined = generate_state(build_wdm_sequence(spec), params)
    return WdmState(red=TimeBinState(p_early=combined.p_early, p_late=0.0),
                    blue=TimeBinState(p_early=0.0, p_late=combined.p_late),
                    combined=combined,
                    relative_phase_known=spec.locked_phase is not None)


# ---------------------------------------------------------------------------
# Demultiplexing report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryRow:
    label: str  # "none" / "red" / "blue"
    early: int
    late: int
    total: int  # events entering the filter

    @property
    def transmitted(self) -> int:
        return self.early + self.late

    @property
    def early_frac(self) -> float:
        return self.early / self.transmitted if self.transmitted else float("nan")

    @property
    def late_frac(self) -> float:
        return self.late / self.transmitted if self.transmitted else float("nan")


@dataclass
class RecoveryReport:
    spec: WdmSpec
    rows: list[RecoveryRow]
    n_trajectories: int
    seed: int

    def row(self, label: str) -> RecoveryRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def to_csv(self, path) -> None:
        out = [(r.label, r.early_frac, r.late_frac, r.transmitted, r.total)
               for r in self.rows]
        write_csv(path, "filter,early_frac,late_frac,transmitted,total", out)


def recovery_report(spec: WdmSpec | None = None,
                    params: PhysicalParams | None = None, *,
                    n_trajectories: int = 100_000, seed: int = 0,
                    fwhm_uev: float = 5.0, extinction: float = 1e-3,
                    stream: EventStream | None = None) -> RecoveryReport:
    """Early/late fractions without a filter and behind each colour filter.

    Pass ``stream`` to re-analyse existing events (its sequence should come
    from :func:`build_wdm_sequence`); otherwise ``n_trajectories`` windows
    are simulated under ``seed``.
    """
    spec = spec or WdmSpec()
    params = params or PhysicalParams()
    if stream is None:
        stream = run(build_wdm_sequence(spec), params, n_trajectories, seed)
    stream = reject_reset_light(stream)

    channels = (("none", None), ("red", spec.red_detuning),
                ("blue", spec.blue_detuning))
    rows = []
    for label, center in channels:
        if center is None:
            sub = stream
        else:
            sub = spectral_filter(stream, center, fwhm_uev, extinction=extinction)
        if len(sub) == 0:
            raise InsufficientStatisticsError(
                f"filter {label!r} transmitted no events")
        bins = sub.columns["bin_index"]
        rows.append(RecoveryRow(label=label, early=int(np.sum(bins == 0)),
                                late=int(np.sum(bins >= 1)), total=len(stream)))
    return RecoveryReport(spec=spec, rows=rows,
                          n_trajectories=stream.n_trajectories,
                          seed=stream.seed)
