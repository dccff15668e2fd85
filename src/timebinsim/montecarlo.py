"""Trajectory-level Monte-Carlo sampling of photon emission events.

Each trajectory simulates one pulse-sequence window: reset (optionally
emitting a Poisson number of non-resonant "flash" photons at the window
start), spin preparation with probability ``p_hole_init``, then the early
pulse and the late pulse.  The late pulse fires only while the spin is
still in |h>, so a window can never yield more than one real (Raman)
photon, and with one pulse per bin an event's ``bin_index`` names the pulse
that emitted it.  On emission the photon is tagged with its origin:

* ``CoherentRaman`` with the per-pulse probability 2G^2/(2G^2+Omega_i^2) -
  energy pinned to the pulse detuning, phase inherited from the laser,
* ``IncoherentDecay`` otherwise - random phase, energy drawn from a
  Lorentzian of FWHM ``cavity_linewidth`` around the bare transition.

Uncorrelated background counts (uniform arrival time, random phase, broad
energy) are overlaid per window with mean ``background_rate``.

Determinism contract: every trajectory owns a fixed-width block of the
Philox counter space derived from the master seed (trajectory ``i`` uses
draws ``[i*K, (i+1)*K)``, ``K = 72`` for every sequence), so results are
bit-identical for any chunk size or execution order.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import ndtri

from .core import (LaserId, PhysicalParams, PulseSequence, ValidationError,
                   validate)
from .dynamics import sequence_drives

# Non-resonant reset flash sits far above the Raman photons in energy
# (~850 nm pump against ~940 nm emission, i.e. roughly +0.14 eV).
RESET_FLASH_ENERGY_UEV = 1.396e5

# Capacity of the per-trajectory draw block for Poisson-distributed event
# counts.  Counts are sampled by inverted CDF truncated at the cap; for the
# supported rates (<= 1 per window) the truncated tail is < 1e-10.
_FLASH_CAP = 12
_BG_CAP = 16
_MAX_RATE = 1.0

_TWO_PI = 2.0 * np.pi


class Origin(enum.Enum):
    COHERENT_RAMAN = "CoherentRaman"
    INCOHERENT_DECAY = "IncoherentDecay"
    BACKGROUND = "Background"
    RESET_FLASH = "ResetFlash"


ORIGIN_BY_CODE = {0: Origin.COHERENT_RAMAN, 1: Origin.INCOHERENT_DECAY,
                  2: Origin.BACKGROUND, 3: Origin.RESET_FLASH}
CODE_BY_ORIGIN = {o: c for c, o in ORIGIN_BY_CODE.items()}


_COLUMNS = ("trajectory_id", "timestamp_ps", "energy_uev", "origin",
            "phase_rad", "bin_index")
_DTYPES = {"trajectory_id": np.int64, "timestamp_ps": np.float64,
           "energy_uev": np.float64, "origin": np.uint8,
           "phase_rad": np.float64, "bin_index": np.int32}


@dataclass
class EventStream:
    """Column-oriented list of photon events plus full run provenance.

    Events are sorted by (trajectory_id, timestamp).
    """

    params: PhysicalParams
    sequence: PulseSequence
    seed: int
    n_trajectories: int
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.columns["trajectory_id"]) if self.columns else 0

    def subset(self, mask: np.ndarray) -> "EventStream":
        cols = {k: v[mask] for k, v in self.columns.items()}
        return EventStream(params=self.params, sequence=self.sequence,
                           seed=self.seed, n_trajectories=self.n_trajectories,
                           columns=cols)

    def _sort(self) -> np.ndarray:
        """Put the events in stream order; returns the permutation applied."""
        c = self.columns
        order = np.lexsort((c["timestamp_ps"], c["trajectory_id"]))
        self.columns = {k: v[order] for k, v in c.items()}
        return order

    def origin_mask(self, *origins: Origin) -> np.ndarray:
        codes = [CODE_BY_ORIGIN[o] for o in origins]
        return np.isin(self.columns["origin"], codes)

    @property
    def photon_mask(self) -> np.ndarray:
        """True for real emitted photons (coherent or incoherent Raman)."""
        return self.origin_mask(Origin.COHERENT_RAMAN, Origin.INCOHERENT_DECAY)

    # -- serialisation -----------------------------------------------------

    def to_csv(self, path) -> None:
        from .core import format_float
        lines = [",".join(_COLUMNS)]
        c = self.columns
        for i in range(len(self)):
            lines.append(
                f"{c['trajectory_id'][i]},{format_float(c['timestamp_ps'][i])},"
                f"{format_float(c['energy_uev'][i])},"
                f"{ORIGIN_BY_CODE[int(c['origin'][i])].value},"
                f"{format_float(c['phase_rad'][i])},{c['bin_index'][i]}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path, *, params, sequence, seed=0, n_trajectories=0) -> "EventStream":
        name_by_value = {o.value: c for c, o in ORIGIN_BY_CODE.items()}
        rows = []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != ",".join(_COLUMNS):
                raise ValueError(f"unexpected event CSV header: {header!r}")
            for line in fh:
                line = line.strip()
                if line:
                    rows.append(line.split(","))
        cols = {
            "trajectory_id": np.array([int(r[0]) for r in rows], np.int64),
            "timestamp_ps": np.array([float(r[1]) for r in rows], np.float64),
            "energy_uev": np.array([float(r[2]) for r in rows], np.float64),
            "origin": np.array([name_by_value[r[3]] for r in rows], np.uint8),
            "phase_rad": np.array([float(r[4]) for r in rows], np.float64),
            "bin_index": np.array([int(r[5]) for r in rows], np.int32),
        }
        return cls(params=params, sequence=sequence, seed=seed,
                   n_trajectories=n_trajectories, columns=cols)

    _MAGIC = b"TBQ1"

    def to_binary(self, path) -> None:
        """Fixed-width little-endian records with a JSON provenance header."""
        rec = np.empty(len(self), dtype=self._binary_dtype())
        for name in _COLUMNS:
            rec[name] = self.columns[name]
        header = json.dumps({
            "params": self.params.to_dict(),
            "sequence": self.sequence.to_dict(),
            "seed": self.seed,
            "n_trajectories": self.n_trajectories,
        }, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(self._MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            fh.write(struct.pack("<Q", len(self)))
            fh.write(rec.tobytes())

    @staticmethod
    def _binary_dtype() -> np.dtype:
        return np.dtype([("trajectory_id", "<i8"), ("timestamp_ps", "<f8"),
                         ("energy_uev", "<f8"), ("origin", "<u1"),
                         ("phase_rad", "<f8"), ("bin_index", "<i4")])

    @classmethod
    def from_binary(cls, path) -> "EventStream":
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:4] != cls._MAGIC:
            raise ValueError("not an event-stream binary file")
        truncated = ValueError(f"truncated event-stream binary file: {path}")
        dtype = cls._binary_dtype()
        try:
            (hlen,) = struct.unpack_from("<I", data, 4)
            (n,) = struct.unpack_from("<Q", data, 8 + hlen)
        except struct.error:
            raise truncated from None
        start = 16 + hlen
        if len(data) - start < n * dtype.itemsize:
            raise truncated
        try:
            meta = json.loads(data[8:8 + hlen].decode())
            provenance = {"params": PhysicalParams.from_dict(meta["params"]),
                          "sequence": PulseSequence.from_dict(meta["sequence"]),
                          "seed": int(meta["seed"]),
                          "n_trajectories": int(meta["n_trajectories"])}
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed event-stream header: {path}: "
                             f"{type(exc).__name__}: {exc}") from None
        rec = np.frombuffer(data, dtype=dtype, count=n, offset=start)
        cols = {name: np.ascontiguousarray(rec[name]).astype(_DTYPES[name])
                for name in _COLUMNS}
        return cls(columns=cols, **provenance)


# ---------------------------------------------------------------------------
# Per-trajectory draw layout: slot indices into a trajectory's fixed block
# of uniform draws.  The width is a multiple of 4 (one Philox counter tick).
# ---------------------------------------------------------------------------

_SPIN = 0
_EMISSION = 1  # early pulse; the late pulse uses _EMISSION + 1
_ORIGIN = 3
_DECAY = 4
_JITTER = 5
_KICK = 6
_INC_PHASE = 7
_INC_ENERGY = 8
_INTERLASER = 9
_FLASH_COUNT = 10
_FLASH0 = 11
_BG_COUNT = _FLASH0 + _FLASH_CAP
_BG_T0 = _BG_COUNT + 1
_BG_PHASE0 = _BG_T0 + _BG_CAP
_BG_ENERGY0 = _BG_PHASE0 + _BG_CAP
_WIDTH = _BG_ENERGY0 + _BG_CAP  # 72


def derived_seed(*entropy: int) -> int:
    """64-bit master seed for a sub-run, derived from integer ``entropy``."""
    return int(SeedSequence([int(e) for e in entropy]).generate_state(1, np.uint64)[0])


def _poisson_cdf(rate: float, cap: int) -> np.ndarray:
    """P(N <= k) for k = 0..cap, N ~ Poisson(rate), from the pmf recurrence."""
    return np.cumsum(np.cumprod(np.r_[np.exp(-rate), rate / np.arange(1, cap + 1)]))


def _truncated_poisson_counts(rate: float, u: np.ndarray, cap: int) -> np.ndarray:
    if rate <= 0:
        return np.zeros(u.shape, np.int64)
    cdf = _poisson_cdf(rate, cap)
    return np.clip(np.searchsorted(cdf, u, side="right"), 0, cap).astype(np.int64)


def _safe_ndtri(u: np.ndarray) -> np.ndarray:
    return ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))


def _simulate_block(sequence: PulseSequence, params: PhysicalParams,
                    draws: np.ndarray, traj_start: int) -> dict[str, np.ndarray]:
    """Vectorised kernel: one row of uniform draws per trajectory."""
    m = draws.shape[0]
    traj_ids = np.arange(traj_start, traj_start + m, dtype=np.int64)

    drives = sequence_drives(sequence, params)
    pulses = sequence.pulses
    dt_ps = params.bin_separation_ps
    window = params.window_ps(sequence.n_bins)

    exc = np.array([d.excitation for d in drives])
    cfrac = np.array([d.coherent_fraction for d in drives])
    phases = np.array([p.phase for p in pulses])
    detunings = np.array([p.detuning for p in pulses])
    is_blue = np.array([p.laser_id is LaserId.BLUE for p in pulses])

    # --- spin preparation, early pulse, then late pulse ---------------------
    in_hole = draws[:, _SPIN] < params.p_hole_init
    early = in_hole & (draws[:, _EMISSION] < exc[0])
    late = in_hole & ~early & (draws[:, _EMISSION + 1] < exc[1])
    has = early | late
    idx = late[has].astype(np.int64)  # pulse index == bin index
    n_ph = idx.size

    coherent = draws[has, _ORIGIN] < cfrac[idx]

    t = (idx * dt_ps
         - params.t1_radiative * np.log1p(-draws[has, _DECAY])
         + params.detector_jitter * _safe_ndtri(draws[has, _JITTER]))
    t = np.maximum(t, 0.0)

    # Spin dephasing between the bins: one Gaussian phase kick per
    # trajectory, riding on the late-bin amplitude with standard deviation
    # sqrt(2*dt/T2), so the cross-bin ensemble coherence carries
    # <exp(i*kick)> = exp(-dt/T2).
    kick = _safe_ndtri(draws[has, _KICK])
    kick_sigma_by_pulse = np.sqrt(
        2.0 * params.bin_separation * np.arange(2) / params.t2_spin)

    # Free-running two-colour drives settle on a new relative optical phase
    # every window; single-colour (or locked) drives keep zero offset.
    if sequence.random_interlaser_phase:
        delta_rb = _TWO_PI * draws[has, _INTERLASER]
    else:
        delta_rb = np.zeros(n_ph)

    # Amplitude-phase extras per pulse for this trajectory: the dephasing
    # kick rides on the late-bin amplitude, the inter-laser offset on the
    # blue pulses.  A coherent event stores its own amplitude phase minus
    # the partner's extras, so the interferometer can recover the cross-bin
    # phase difference from the event plus the (known) pulse program alone.
    extras = kick[:, None] * kick_sigma_by_pulse[None, :] + delta_rb[:, None] * is_blue[None, :]
    own_extra = np.take_along_axis(extras, idx[:, None], axis=1)[:, 0]
    partner_extra = np.take_along_axis(extras, 1 - idx[:, None], axis=1)[:, 0]

    phase = np.where(
        coherent,
        phases[idx] + own_extra - partner_extra,
        _TWO_PI * draws[has, _INC_PHASE],
    )
    energy = np.where(
        coherent,
        detunings[idx],
        0.5 * params.cavity_linewidth * np.tan(np.pi * (draws[has, _INC_ENERGY] - 0.5)),
    )
    origin = np.where(coherent, CODE_BY_ORIGIN[Origin.COHERENT_RAMAN],
                      CODE_BY_ORIGIN[Origin.INCOHERENT_DECAY]).astype(np.uint8)

    parts = [{
        "trajectory_id": traj_ids[has],
        "timestamp_ps": t,
        "energy_uev": energy,
        "origin": origin,
        "phase_rad": np.mod(phase, _TWO_PI),
        "bin_index": idx.astype(np.int32),
    }]

    # --- reset flash photons (window start) --------------------------------
    if params.reset_flash_rate > 0:
        fcount = _truncated_poisson_counts(params.reset_flash_rate,
                                           draws[:, _FLASH_COUNT], _FLASH_CAP)
        for j in range(int(fcount.max()) if fcount.size else 0):
            sel = fcount > j
            k = int(sel.sum())
            parts.append({
                "trajectory_id": traj_ids[sel],
                "timestamp_ps": np.zeros(k),
                "energy_uev": np.full(k, RESET_FLASH_ENERGY_UEV),
                "origin": np.full(k, CODE_BY_ORIGIN[Origin.RESET_FLASH], np.uint8),
                "phase_rad": _TWO_PI * draws[sel, _FLASH0 + j],
                "bin_index": np.zeros(k, np.int32),
            })

    # --- uncorrelated background --------------------------------------------
    if params.background_rate > 0:
        bcount = _truncated_poisson_counts(params.background_rate,
                                           draws[:, _BG_COUNT], _BG_CAP)
        for j in range(int(bcount.max()) if bcount.size else 0):
            sel = bcount > j
            bt = window * draws[sel, _BG_T0 + j]
            parts.append({
                "trajectory_id": traj_ids[sel],
                "timestamp_ps": bt,
                "energy_uev": params.spin_splitting * (2.0 * draws[sel, _BG_ENERGY0 + j] - 1.0),
                "origin": np.full(sel.sum(), CODE_BY_ORIGIN[Origin.BACKGROUND], np.uint8),
                "phase_rad": _TWO_PI * draws[sel, _BG_PHASE0 + j],
                "bin_index": np.clip(bt / dt_ps, 0, sequence.n_bins - 1).astype(np.int32),
            })

    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def run(sequence: PulseSequence, params: PhysicalParams, n_trajectories: int,
        seed: int, *, chunk_size: int = 1 << 17) -> EventStream:
    """Simulate ``n_trajectories`` windows under a master seed.

    The result is a pure function of (sequence, params, n_trajectories,
    seed); ``chunk_size`` only bounds memory and never changes the output.
    """
    validate(sequence)
    validate(params)
    if n_trajectories < 0:
        raise ValueError("n_trajectories must be >= 0")
    capped = [f"{name}: must be <= {_MAX_RATE} (per-window Poisson draws are capped)"
              for name in ("background_rate", "reset_flash_rate")
              if getattr(params, name) > _MAX_RATE]
    if capped:
        raise ValidationError(capped)

    pieces: list[dict[str, np.ndarray]] = []
    start = 0
    while start < n_trajectories:
        m = min(chunk_size, n_trajectories - start)
        bg = Philox(seed=SeedSequence(int(seed)))
        bg.advance(start * _WIDTH // 4)
        draws = Generator(bg).random((m, _WIDTH))
        pieces.append(_simulate_block(sequence, params, draws, traj_start=start))
        start += m

    if pieces:
        cols = {k: np.concatenate([p[k] for p in pieces]) for k in pieces[0]}
    else:
        cols = {k: np.empty(0, _DTYPES[k]) for k in _COLUMNS}
    stream = EventStream(params=params, sequence=sequence, seed=int(seed),
                         n_trajectories=int(n_trajectories), columns=cols)
    stream._sort()
    return stream
