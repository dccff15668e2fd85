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

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import erfcx, ndtr

from .core import (InsufficientStatisticsError, PhysicalParams, PulseSequence,
                   TimeBinState, ValidationError, validate, write_csv)
from .dynamics import generate_state, sequence_drives
from .montecarlo import CODE_BY_ORIGIN, EventStream, Origin, derived_seed, run

_TAG_MICHELSON = 0x4D49
_TAG_FILTER = 0x464C
_TAG_HBT = 0x4842
_TAG_FRINGE = 0x4652

_TWO_PI = 2.0 * np.pi

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


def michelson_expected(state: TimeBinState,
                       interferometer_phase: float) -> tuple[float, float, float]:
    """Analytic per-window detection probabilities (early side, middle, late side).

    The side peaks are phase-independent at a quarter of each bin's
    occupation; the overlap slot carries the state's degree of coherence
    ``D`` as its fringe visibility::

        middle = (p_early + p_late)/4 * (1 + D * cos(arg(coh) + phase_if)),
        D = |coh| / sqrt(p_early * p_late)

    That is the visibility :func:`~timebinsim.tomography.reconstruct`
    assumes, at any bin balance.  The state's coherence holds the pulses'
    coherent fractions as sqrt(C_0 C_1), the routing's fringe as C_min
    (``expected_visibility``), so the two agree when both pulses have the
    same intensity.
    """
    balance = np.sqrt(state.p_early * state.p_late)
    degree = abs(state.coherence) / balance if balance else 0.0
    chi = float(np.angle(state.coherence))
    middle = 0.25 * (state.p_early + state.p_late) * (
        1.0 + degree * np.cos(chi + interferometer_phase))
    return (0.25 * state.p_early, float(middle), 0.25 * state.p_late)


# ---------------------------------------------------------------------------
# Fringe scans
# ---------------------------------------------------------------------------

@dataclass
class FringeScan:
    phases: np.ndarray  # interferometer phase setpoints, rad
    middle_counts: np.ndarray
    early_side_counts: np.ndarray
    late_side_counts: np.ndarray
    n_input: np.ndarray

    def to_csv(self, path) -> None:
        rows = zip(self.phases.tolist(), self.middle_counts.tolist(),
                   (self.early_side_counts + self.late_side_counts).tolist())
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
                      early_side_counts=counts[:, SLOT_SIDE_EARLY],
                      late_side_counts=counts[:, SLOT_SIDE_LATE],
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
    """Poisson background rate ``lam`` per window giving ``g2(0) = target``
    for a source emitting one photon per window with probability
    ``p = p_photon``: inverts ``g2(0) = lam * (2 p + lam) / (p + lam)^2``."""
    if not 0 < target_g2 < 1:
        raise ValueError("target_g2 must lie in (0, 1)")
    if not 0 < p_photon <= 1:
        raise ValueError("p_photon must lie in (0, 1]")
    return p_photon * (1.0 / np.sqrt(1.0 - target_g2) - 1.0)


def _delay_cdf(x: float, t1: float, sigma: float) -> float:
    """CDF of Exp(t1) + N(0, sigma) at x: ``Phi(r) - exp(a^2/2 - x/t1) Phi(r - a)``
    with r = x/sigma, a = sigma/t1.  For r <= a the second term is taken as
    ``erfcx((a - r)/sqrt2)/2 * exp(-r^2/2)``, which cannot overflow."""
    if sigma == 0.0:
        return -math.expm1(-x / t1)
    r, a = x / sigma, sigma / t1
    if r > a:  # the exponent is then <= 0
        tail = math.exp(0.5 * a * a - x / t1) * float(ndtr(r - a))
    else:
        tail = 0.5 * float(erfcx((a - r) / math.sqrt(2.0))) * math.exp(-0.5 * r * r)
    return max(float(ndtr(r)) - tail, 0.0)


def gated_photon_probability(sequence: PulseSequence,
                             params: PhysicalParams) -> float:
    """p_gate, the probability that a window holds a photon inside the gate
    [0, W) (see :func:`calibrate_background_for_g2`)."""
    state = generate_state(sequence, params)
    dt, w = params.bin_separation_ps, params.window_ps(sequence.n_bins)
    return sum(p * _delay_cdf(w - i * dt, params.t1_radiative, params.detector_jitter)
               for i, p in enumerate((state.p_early, state.p_late)))


def measure_g2(sequence: PulseSequence, params: PhysicalParams,
               n_trajectories: int, seed: int, *, window: int = 5) -> HbtResult:
    """:func:`hbt_g2` of a fresh run prepared as in the experiment: reset
    light rejected and events gated to their own window."""
    stream = reject_reset_light(run(sequence, params, n_trajectories, seed))
    return hbt_g2(gate(stream, 0.0, params.window_ps(sequence.n_bins)), window=window)


def calibrate_background_for_g2(sequence: PulseSequence, params: PhysicalParams,
                                target_g2: float, *,
                                n_trajectories: int = 200_000, seed: int = 0,
                                window: int = 5) -> float:
    """Background rate per window at which :func:`measure_g2` expects
    ``g2(0) = target``: :func:`background_rate_for_g2` at ``p_gate =
    p_early F(W) + p_late F(W - dt)``, the probability that a window's photon
    lands inside the gate [0, W), with the bins of :func:`generate_state` and
    F the CDF of the delay Exp(T1) + N(0, detector_jitter) after a pulse (an
    arrival clamped to 0 stays inside; the reset flash is rejected in full,
    and all background falls inside the gate).  One check run of
    ``n_trajectories`` windows at ``seed`` over ``window`` lags confirms it.
    A target that no photon reaches, below one expected zero-lag coincidence
    (``n lam (2 p + lam) / 4``), needing more stray events than a run holds,
    or whose check run is over 5 sigma off raises InsufficientStatisticsError."""
    if background_rate_for_g2(1.0, target_g2) == 0.0:  # 1 - target rounds to 1
        raise ValidationError([f"target_g2: {target_g2!r} is too small to "
                               "resolve a background rate"])
    p_gate = gated_photon_probability(sequence, params)
    if p_gate == 0.0:
        raise InsufficientStatisticsError(
            f"target g2 {target_g2!r}: no photon reaches the gate "
            f"[0, {params.window_ps(sequence.n_bins):g}) ps")
    rate = background_rate_for_g2(p_gate, target_g2)
    expected = n_trajectories * rate * (2.0 * p_gate + rate) / 4.0
    if expected < 1.0:
        raise InsufficientStatisticsError(
            f"target g2 {target_g2!r} expects {expected:.3g} zero-lag "
            f"coincidences in {n_trajectories} windows, fewer than 1")
    try:
        check = measure_g2(sequence, replace(params, background_rate=rate),
                           n_trajectories, seed, window=window)
    except ValidationError as exc:  # only the run's stray-event bound is left
        raise InsufficientStatisticsError(
            f"target g2 {target_g2!r} needs a background rate of {rate:.4g} "
            f"per window: {exc}") from None
    pull = (check.zero_lag - target_g2) / check.se[len(check.g2) // 2]
    if abs(pull) > 5.0:
        raise InsufficientStatisticsError(
            f"target g2 {target_g2!r}: a check run at rate {rate:.4g} measured "
            f"g2(0) = {check.zero_lag:.4g}, {pull:+.1f} sigma off")
    return rate
