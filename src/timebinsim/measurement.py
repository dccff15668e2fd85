"""Detection-side models: gating, delay interferometer, filters, HBT.

The unbalanced Michelson interferometer has a fixed arm-length difference
equal to the bin separation.  On the monitored output port each photon is
routed stochastically:

* 1/4 -> its own side peak (short arm for an early-bin photon, long arm for
  a late-bin photon),
* 1/2 -> the overlap slot, where it is detected with probability
  ``(1 + cos(dphi + phase_if)) / 2``; ``dphi`` is the photon's cross-bin
  phase when it interferes and an independent uniform wash phase otherwise,
* 1/4 -> the unmonitored port (lost).

Only photons whose full emission amplitude stayed phase-locked to both
driving pulses interfere.  A sequence drives each of its two bins with one
pulse, so a coherent photon's ``bin_index`` names the pulse ``i`` it came
from; it passes the lock test with probability ``C_min / C_i`` (``C_min`` is
the smaller of the two coherent fractions), so the overlap fringe carries a
visibility of ``C_min`` times the spin-dephasing envelope.  Incoherent,
background and flash photons never interfere.

One routing kernel gives every event its slot or loses it.  :func:`michelson`
builds the stream of detections from the slots; :func:`fringe_scan` only
counts them, so a scan setpoint copies and sorts no events.

All randomness is drawn from substreams derived from the event stream's
master seed, so every measurement is reproducible and independent
measurements on the same stream do not perturb one another.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .core import (InsufficientStatisticsError, PhysicalParams, PulseSequence,
                   TimeBinState, ValidationError, write_csv)
from .dynamics import sequence_drives
from .montecarlo import CODE_BY_ORIGIN, EventStream, Origin, derived_seed, run

_TAG_MICHELSON = 0x4D49
_TAG_FILTER = 0x464C
_TAG_HBT = 0x4842
_TAG_FRINGE = 0x4652

_TWO_PI = 2.0 * np.pi

# Halvings of the background-rate bracket in calibrate_background_for_g2.
_BISECTION_STEPS = 14


def _bits(x: float) -> int:
    """Float -> raw 64-bit pattern, for keying substreams on real values."""
    return int(np.float64(x).view(np.uint64))


def _substream(*entropy: int) -> Generator:
    return Generator(Philox(seed=SeedSequence([int(e) for e in entropy])))


# ---------------------------------------------------------------------------
# Gating
# ---------------------------------------------------------------------------

def gate(stream: EventStream, start_ps: float, stop_ps: float) -> EventStream:
    """Keep events with ``start_ps <= t < stop_ps``."""
    if not stop_ps > start_ps:
        raise ValueError("gate requires stop_ps > start_ps")
    t = stream.columns["timestamp_ps"]
    return stream.subset((t >= start_ps) & (t < stop_ps))


# ---------------------------------------------------------------------------
# Delay interferometer
# ---------------------------------------------------------------------------

# Output slots on the monitored port, in arrival order.
SLOT_SIDE_EARLY = 0
SLOT_MIDDLE = 1
SLOT_SIDE_LATE = 2
_SLOT_LOST = 3  # the unmonitored port, or undetected in the overlap slot


@dataclass
class MichelsonResult:
    detections: EventStream
    slots: np.ndarray  # int8 per detection, SLOT_* above
    n_input: int

    @property
    def n_detected(self) -> int:
        return len(self.detections)

    @property
    def n_lost(self) -> int:
        return self.n_input - self.n_detected

    def slot_counts(self) -> tuple[int, int, int]:
        """Detections in (early side, middle, late side)."""
        return tuple(int(c) for c in np.bincount(self.slots, minlength=3))


def _routing_inputs(stream: EventStream) -> tuple[np.ndarray, ...]:
    """Per-event routing inputs, the same at every setpoint: the SLOT_SIDE_*
    of the event's own bin (int8), the probability C_min / C_own that it
    stays locked to both pulses (0 unless coherent), and the cross-bin phase
    it then carries, early-bin amplitude phase minus late-bin phase."""
    cols = stream.columns
    phases = cols["phase_rad"]
    late = cols["bin_index"] >= 1
    drives = sequence_drives(stream.sequence, stream.params)
    cfrac = np.array([d.coherent_fraction for d in drives])
    early_phase, late_phase = (p.phase for p in stream.sequence.pulses)
    coherent = cols["origin"] == CODE_BY_ORIGIN[Origin.COHERENT_RAMAN]
    lock_p = np.where(coherent, cfrac.min() / cfrac[late.astype(np.intp)], 0.0)
    dphi = np.where(late, early_phase - phases, phases - late_phase)
    own_side = np.where(late, np.int8(SLOT_SIDE_LATE), np.int8(SLOT_SIDE_EARLY))
    return own_side, lock_p, dphi


def _route(own_side: np.ndarray, lock_p: np.ndarray, dphi: np.ndarray,
           seed: int, interferometer_phase: float, salt: int) -> np.ndarray:
    """Slot of every event (``SLOT_*`` or ``_SLOT_LOST``) as int8.

    Each event takes a row of four uniforms from the substream keyed on
    (seed, phase, salt): [0] routes it ([0, 1/4) own side peak, [1/4, 3/4)
    overlap slot, the rest lost), [1] decides the lock, [2] the detection
    in the overlap slot and [3] the wash phase of an unlocked event.
    """
    rng = _substream(seed, _TAG_MICHELSON, _bits(interferometer_phase), salt)
    u = rng.random((len(own_side), 4))
    side = u[:, 0] < 0.25
    slot = np.where(side, own_side, np.int8(_SLOT_LOST))
    overlap = np.flatnonzero(~side & (u[:, 0] < 0.75))
    uo = u[overlap]
    phase_term = np.where(uo[:, 1] < lock_p[overlap], dphi[overlap],
                          _TWO_PI * uo[:, 3])
    p_detect = 0.5 * (1.0 + np.cos(phase_term + interferometer_phase))
    slot[overlap[uo[:, 2] < p_detect]] = SLOT_MIDDLE
    return slot


def michelson(stream: EventStream, interferometer_phase: float = 0.0, *,
              salt: int = 0) -> MichelsonResult:
    """Send every event through the delay interferometer at a fixed phase.

    The detections form a stream of their own, in stream order, each
    delayed by the arm it took; ``slots`` names each detection's slot.
    """
    own_side, lock_p, dphi = _routing_inputs(stream)
    slot = _route(own_side, lock_p, dphi, stream.seed, interferometer_phase, salt)
    keep = slot != _SLOT_LOST
    # The long arm delays a side-peak photon from the late bin and an
    # overlap photon from the early bin.
    delayed = ((slot == SLOT_SIDE_LATE)
               | ((slot == SLOT_MIDDLE) & (own_side == SLOT_SIDE_EARLY)))[keep]
    detections = stream.subset(keep)
    cols = detections.columns
    cols["timestamp_ps"] = cols["timestamp_ps"] + stream.params.bin_separation_ps * delayed
    order = detections._sort()
    return MichelsonResult(detections=detections, slots=slot[keep][order],
                           n_input=len(stream))


def michelson_expected(state: TimeBinState, interferometer_phase: float,
                       params: PhysicalParams) -> tuple[float, float, float]:
    """Analytic per-window detection probabilities (early side, middle, late side).

    The side peaks are phase-independent at a quarter of each bin's
    occupation; the overlap slot carries the cross-bin coherence::

        middle = (p_early + p_late)/4 + |coh|/2 * cos(arg(coh) + phase_if)
    """
    chi = float(np.angle(state.coherence)) if state.coherence else 0.0
    mag = abs(state.coherence)
    middle = 0.25 * (state.p_early + state.p_late) + 0.5 * mag * np.cos(chi + interferometer_phase)
    return (0.25 * state.p_early, float(middle), 0.25 * state.p_late)


# ---------------------------------------------------------------------------
# Fringe scans
# ---------------------------------------------------------------------------

@dataclass
class FringeScan:
    phases: np.ndarray  # interferometer phase setpoints, rad
    middle_counts: np.ndarray
    side_counts: np.ndarray
    n_input: np.ndarray

    def to_csv(self, path) -> None:
        rows = zip(self.phases.tolist(), self.middle_counts.tolist(),
                   self.side_counts.tolist())
        write_csv(path, "phase_rad,middle_counts,side_counts", rows)


def reject_reset_light(stream: EventStream) -> EventStream:
    """Drop reset-flash events, as the acquisition front end does.

    The reset light sits ~1.4e5 ueV above the emission band and arrives at
    the window start, so a real setup removes it completely (spectrally and
    by time-tagging) before any photon reaches the analysis path.
    """
    return stream.subset(~stream.origin_mask(Origin.RESET_FLASH))


def fringe_scan(source: EventStream | PulseSequence, phases, *,
                params: PhysicalParams | None = None,
                n_trajectories: int | None = None,
                seed: int | None = None, salt: int = 0) -> FringeScan:
    """Middle- and side-slot counts versus interferometer phase.

    With an :class:`EventStream` source the same recorded events are
    re-measured at every setpoint (fresh detection randomness each time).
    With a :class:`PulseSequence` source a fresh simulation of
    ``n_trajectories`` windows is acquired per setpoint, as in a live scan;
    ``params``, ``n_trajectories`` and ``seed`` are then required.  Reset
    light never reaches the interferometer (see :func:`reject_reset_light`).

    Each setpoint counts the slots that ``michelson(reject_reset_light(stream),
    phase, salt=salt)`` detects, from the same draws.
    """
    phases = np.atleast_1d(np.asarray(phases, float))
    if phases.size < 4:
        raise ValueError("a fringe scan needs at least 4 phase setpoints")
    recorded = isinstance(source, EventStream)
    if not recorded and (params is None or n_trajectories is None or seed is None):
        raise ValueError("sequence source requires params, n_trajectories and seed")

    counts = np.empty((phases.size, _SLOT_LOST + 1), np.int64)
    for k, phi in enumerate(phases):
        if k == 0 or not recorded:  # a recorded stream is prepared once
            stream = source if recorded else run(source, params, n_trajectories,
                                                 derived_seed(seed, _TAG_FRINGE, k))
            keep = ~stream.origin_mask(Origin.RESET_FLASH)
            routing = [a[keep] for a in _routing_inputs(stream)]
        slots = _route(*routing, stream.seed, float(phi), salt)
        counts[k] = np.bincount(slots, minlength=_SLOT_LOST + 1)
    return FringeScan(phases=phases, middle_counts=counts[:, SLOT_MIDDLE],
                      side_counts=counts[:, SLOT_SIDE_EARLY] + counts[:, SLOT_SIDE_LATE],
                      n_input=counts.sum(axis=1))


# ---------------------------------------------------------------------------
# Spectral filtering
# ---------------------------------------------------------------------------

def lorentzian_line(energy_uev, center_uev: float, fwhm_uev: float):
    """Unit-peak Lorentzian passband, one pass: ``1 / (1 + x**2)`` with
    ``x = 2 (E - center) / fwhm``.  ``|x|`` is capped at ``2**501``, where
    the line is already below ``2**-1000``, so nothing overflows."""
    cap = 2.0 ** 500 * abs(float(fwhm_uev))  # a Python float: inf, no warning
    x = 2.0 * np.clip(np.asarray(energy_uev, float) - center_uev, -cap, cap) / fwhm_uev
    return 1.0 / (1.0 + x * x)


def filter_transmission(energy_uev, center_uev: float, fwhm_uev: float,
                        extinction: float = 1e-3):
    """Double-pass Lorentzian transmission with an out-of-band leakage floor."""
    line = lorentzian_line(energy_uev, center_uev, fwhm_uev)
    return np.maximum(line * line, extinction)


def spectral_filter(stream: EventStream, center_uev: float, fwhm_uev: float, *,
                    extinction: float = 1e-3, salt: int = 0) -> EventStream:
    """Bernoulli-transmit each event through the passband filter."""
    if fwhm_uev <= 0:
        raise ValueError("fwhm_uev must be > 0")
    if not 0 <= extinction <= 1:
        raise ValueError("extinction must lie in [0, 1]")
    trans = filter_transmission(stream.columns["energy_uev"], center_uev,
                                fwhm_uev, extinction)
    rng = _substream(stream.seed, _TAG_FILTER, _bits(center_uev),
                     _bits(fwhm_uev), salt)
    keep = rng.random(len(stream)) < trans
    return stream.subset(keep)


# ---------------------------------------------------------------------------
# Intensity correlations (HBT)
# ---------------------------------------------------------------------------

@dataclass
class HbtResult:
    lags: np.ndarray  # pulse-period lags, -window..window
    g2: np.ndarray
    coincidences: np.ndarray
    norm: float
    se: np.ndarray  # rough 1-sigma on each g2 point

    @property
    def zero_lag(self) -> float:
        return float(self.g2[len(self.g2) // 2])

    def to_csv(self, path) -> None:
        rows = [(int(self.lags[i]), float(self.g2[i])) for i in range(len(self.lags))]
        write_csv(path, "lag_periods,g2", rows)


def hbt_g2(stream: EventStream, *, window: int = 5, salt: int = 0) -> HbtResult:
    """Normalised cross-correlation of a 50/50 detector split, per pulse period.

    Counts are aggregated per sequence window (trajectory windows laid end
    to end), split between two detectors, and cross-correlated at integer
    period lags.  ``g2`` normalises by the mean side-peak coincidence rate
    over ``1 <= |lag| <= window``.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    period_ps = stream.params.window_ps(stream.sequence.n_bins)
    n_periods = stream.n_trajectories + 1  # decay tails may spill one period
    t = stream.columns["timestamp_ps"]
    traj = stream.columns["trajectory_id"]
    period = traj + np.floor_divide(t, period_ps).astype(np.int64)
    period = np.clip(period, 0, n_periods - 1)

    rng = _substream(stream.seed, _TAG_HBT, salt)
    to_a = rng.random(len(stream)) < 0.5
    n_a = np.bincount(period[to_a], minlength=n_periods).astype(np.float64)
    n_b = np.bincount(period[~to_a], minlength=n_periods).astype(np.float64)

    lags = np.arange(-window, window + 1)
    coinc = np.zeros(lags.size)
    for i, k in enumerate(lags):
        if abs(k) >= n_periods:
            continue  # the lag exceeds the acquisition: no pairs to count
        if k >= 0:
            coinc[i] = float(np.dot(n_a[: n_periods - k], n_b[k:]))
        else:
            coinc[i] = float(np.dot(n_a[-k:], n_b[: n_periods + k]))
    side = coinc[lags != 0]
    norm = float(side.mean())
    if norm <= 0:
        raise InsufficientStatisticsError(
            "no side-peak coincidences: not enough events to normalise g2")
    g2 = coinc / norm
    se = np.sqrt(np.maximum(coinc, 1.0)) / norm
    return HbtResult(lags=lags, g2=g2, coincidences=coinc, norm=norm, se=se)


def background_rate_for_g2(p_photon: float, target_g2: float) -> float:
    """Background rate per window giving ``g2(0) = target`` for a source
    emitting one photon per window with probability ``p_photon``.

    Inverts ``g2(0) = lam * (2 p + lam) / (p + lam)^2`` for the Poisson
    background rate ``lam``.
    """
    if not 0 < target_g2 < 1:
        raise ValueError("target_g2 must lie in (0, 1)")
    if not 0 < p_photon <= 1:
        raise ValueError("p_photon must lie in (0, 1]")
    return p_photon * (1.0 / np.sqrt(1.0 - target_g2) - 1.0)


def calibrate_background_for_g2(sequence: PulseSequence, params: PhysicalParams,
                                target_g2: float, *,
                                n_trajectories: int = 200_000, seed: int = 0,
                                window: int = 5) -> float:
    """Bisect the background rate until the simulated ``g2(0)`` hits the target.

    Each bisection step re-simulates ``n_trajectories`` windows with the
    candidate rate under the same master seed (common random numbers), so
    the measured ``g2(0)`` is monotone in the rate and the search is
    deterministic.  Streams are prepared as in the experiment (reset light
    rejected, events gated to their own window) before correlating.  The
    analytic rate from :func:`background_rate_for_g2` seeds the upper
    bracket.  A target below one expected zero-lag coincidence at the
    bracket's upper end raises :class:`InsufficientStatisticsError`.
    """
    if not 0 < target_g2 < 1:
        raise ValueError("target_g2 must lie in (0, 1)")

    def measured(rate: float) -> HbtResult:
        p = replace(params, background_rate=rate)
        stream = run(sequence, p, n_trajectories, seed)
        prepared = gate(reject_reset_light(stream), 0.0,
                        p.window_ps(sequence.n_bins))
        return hbt_g2(prepared, window=window)

    lo, hi = 0.0, 4.0 * background_rate_for_g2(1.0, target_g2)
    if hi == 0.0:  # the bracket below could never grow from zero
        raise ValidationError([f"target_g2: {target_g2!r} is too small to "
                               "resolve a background rate"])
    while (at_hi := measured(hi)).zero_lag < target_g2:
        hi *= 2.0
        if hi > 1.0:
            raise InsufficientStatisticsError(
                "could not bracket the target g2 within the supported "
                "background-rate range")
    # At the target, g2(0) * norm is the expected number of zero-lag
    # coincidences; below one, the run cannot tell the target from zero.
    if target_g2 * at_hi.norm < 1.0:
        raise InsufficientStatisticsError(
            f"target g2 {target_g2!r} expects {target_g2 * at_hi.norm:.3g} "
            f"zero-lag coincidences in {n_trajectories} windows, fewer than 1")
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if measured(mid).zero_lag < target_g2:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
