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

Determinism contract: every random stream is a Philox generator keyed by
:func:`_keyed_rng` and read front to back, so a draw width need not be a
whole number of Philox's four-uniform counter ticks.  Window ``i`` takes
draws ``[3i, 3i+3)`` of the stream of the master seed: its outcome, then
one Poisson count uniform per kind of stray light.  Each photon takes the
next five uniforms of the stream keyed on ``(seed, _PHOTONS)``, in window
order; each reset-flash event takes one uniform, and each background event
three, of the stream keyed on ``(seed, kind)``, in (window, j) order.  So
results are bit-identical for any chunk size.  An event record is one
``_RECORD`` row; a ``.bin`` file holds its little-endian form.
"""

from __future__ import annotations

import enum
import json
import struct
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import ndtri, pdtr

from .core import LaserId, PhysicalParams, PulseSequence, ValidationError
from .dynamics import sequence_drives

# Non-resonant reset flash sits far above the Raman photons in energy
# (~850 nm pump against ~940 nm emission, i.e. roughly +0.14 eV).
RESET_FLASH_ENERGY_UEV = 1.396e5

# Most stray events (reset flash plus background) a run may expect, rate
# times windows.  Memory grows with the events: a 200,000-window run at the
# bound peaks near 1.10 GB RSS.
_MAX_STRAY_EVENTS = 2.0 ** 24

_TWO_PI = 2.0 * np.pi

# Events per write of the event CSV writer: bounds its row strings in memory.
_CSV_CHUNK = 1 << 16


class Origin(enum.Enum):
    COHERENT_RAMAN = "CoherentRaman"
    INCOHERENT_DECAY = "IncoherentDecay"
    BACKGROUND = "Background"
    RESET_FLASH = "ResetFlash"


ORIGIN_BY_CODE = dict(enumerate(Origin))
CODE_BY_ORIGIN = {o: c for c, o in ORIGIN_BY_CODE.items()}

# One event: the columns of an EventStream, in file order, with native dtypes.
_RECORD = np.dtype([("trajectory_id", np.int64), ("timestamp_ps", np.float64),
                    ("energy_uev", np.float64), ("origin", np.uint8),
                    ("phase_rad", np.float64), ("bin_index", np.int32)])


def _stream_order(traj: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Permutation into stream order, that of ``np.lexsort((t, traj))``: a
    stable sort by window, then a time sort of the windows holding several
    events."""
    order = np.argsort(traj, kind="stable")
    same = traj[order[1:]] == traj[order[:-1]]
    shared = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
    sub = order[shared]
    order[shared] = sub[np.lexsort((t[sub], traj[sub]))]
    return order


@dataclass
class EventStream:
    """Column-oriented list of photon events plus full run provenance.

    Events are sorted by (trajectory_id, timestamp).
    """

    params: PhysicalParams
    sequence: PulseSequence
    seed: int
    n_trajectories: int
    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.columns["trajectory_id"])

    def subset(self, mask: np.ndarray) -> "EventStream":
        rows = np.flatnonzero(mask)  # one gather per column beats a mask per column
        return replace(self, columns={k: v.take(rows) for k, v in self.columns.items()})

    def _sort(self) -> np.ndarray:
        """Put the events in stream order; returns the permutation applied
        (see :func:`_stream_order`)."""
        c = self.columns
        order = _stream_order(c["trajectory_id"], c["timestamp_ps"])
        self.columns = {k: v[order] for k, v in c.items()}
        return order

    def origin_mask(self, *origins: Origin) -> np.ndarray:
        origin, codes = self.columns["origin"], [CODE_BY_ORIGIN[o] for o in origins]
        return origin == codes[0] if len(codes) == 1 else np.isin(origin, codes)

    @property
    def photon_mask(self) -> np.ndarray:
        """True for real emitted photons (coherent or incoherent Raman)."""
        return self.origin_mask(Origin.COHERENT_RAMAN, Origin.INCOHERENT_DECAY)

    # -- serialisation -----------------------------------------------------

    def to_csv(self, path) -> None:
        """One row per event; every float in its shortest round-trip repr,
        as :func:`~timebinsim.core.format_float` writes it."""
        c = self.columns
        names = [o.value for o in Origin]
        with open(path, "w") as fh:
            fh.write(",".join(_RECORD.names) + "\n")
            for lo in range(0, len(self), _CSV_CHUNK):
                traj, t, e, origin, p, b = (c[k][lo:lo + _CSV_CHUNK].tolist()
                                            for k in _RECORD.names)
                fh.write("".join(
                    f"{i},{ti!r},{ei!r},{names[o]},{pi!r},{bi}\n"
                    for i, ti, ei, o, pi, bi in zip(traj, t, e, origin, p, b)))

    @classmethod
    def from_csv(cls, path, *, params, sequence, seed=0, n_trajectories=0) -> "EventStream":
        """Read what :meth:`to_csv` writes; a malformed row or an unknown
        origin raises ``ValueError`` with numpy's message, which names the
        row and column."""
        code_by_name = {o.value: c for c, o in ORIGIN_BY_CODE.items()}
        converters = {_RECORD.names.index("origin"): code_by_name.__getitem__}
        with open(path) as fh:
            header = fh.readline().strip()
            if header != ",".join(_RECORD.names):
                raise ValueError(f"unexpected event CSV header: {header!r}")
            try:
                with warnings.catch_warnings():  # a header-only file is an empty stream
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    rec = np.loadtxt(fh, dtype=_RECORD, delimiter=",", comments=None,
                                     ndmin=1, converters=converters)
            except ValueError as exc:
                raise ValueError(f"malformed event CSV {path}: {exc}") from exc
        cols = {k: np.ascontiguousarray(rec[k]) for k in _RECORD.names}
        return cls(params=params, sequence=sequence, seed=seed,
                   n_trajectories=n_trajectories, columns=cols)

    _MAGIC = b"TBQ1"

    def to_binary(self, path) -> None:
        """Fixed-width little-endian records with a JSON provenance header."""
        rec = np.empty(len(self), dtype=_RECORD.newbyteorder("<"))
        for name in _RECORD.names:
            rec[name] = self.columns[name]
        header = json.dumps({
            "params": asdict(self.params),
            "sequence": asdict(self.sequence),
            "seed": self.seed,
            "n_trajectories": self.n_trajectories,
        }, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(self._MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            fh.write(struct.pack("<Q", len(self)))
            fh.write(rec.tobytes())

    @classmethod
    def from_binary(cls, path) -> "EventStream":
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:4] != cls._MAGIC:
            raise ValueError("not an event-stream binary file")
        truncated = ValueError(f"truncated event-stream binary file: {path}")
        dtype = _RECORD.newbyteorder("<")
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
        cols = {name: rec[name].astype(_RECORD[name]) for name in _RECORD.names}
        if n and (code := cols["origin"].max()) >= len(Origin):
            raise ValueError(f"malformed event-stream binary file: {path}: "
                             f"origin code {code} is not an Origin")
        return cls(columns=cols, **provenance)


# Key of the photon stream next to the master seed: nonzero, or (seed, key),
# at most three words, would draw the window stream itself (see _keyed_rng).
_PHOTONS = 0x5048


def _keyed_rng(*entropy: int) -> Generator:
    """The Philox generator keyed on integer ``entropy``: every random stream
    of the package, read front to back.  A key ending in 0 draws the stream
    of the key without that 0 only while it fills at most four 32-bit words,
    SeedSequence's zero-padded pool; a 0 past the pool moves the draws."""
    return Generator(Philox(seed=SeedSequence([int(e) for e in entropy])))


def derived_seed(*entropy: int) -> int:
    """64-bit master seed for a sub-run, derived from integer ``entropy``."""
    return int(SeedSequence([int(e) for e in entropy]).generate_state(1, np.uint64)[0])


def _poisson_counts(rate: float, u: np.ndarray) -> np.ndarray:
    """Poisson(rate) counts by inverse CDF of the uniforms ``u``; the table
    grows until it covers the largest uniform, so no count is truncated."""
    if rate == 0.0:
        return np.zeros(len(u), np.intp)
    size = 16
    while (cdf := np.maximum.accumulate(pdtr(np.arange(size), rate)))[-1] <= u.max():
        size *= 2
    return np.searchsorted(cdf, u, side="right")


def _safe_ndtri(u: np.ndarray) -> np.ndarray:
    return ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))


def _simulate_block(sequence: PulseSequence, params: PhysicalParams,
                    draws: np.ndarray, traj_start: int, photons: Generator,
                    stray: dict[Origin, Generator]) -> dict[str, np.ndarray]:
    """Vectorised kernel: one row of three window uniforms per trajectory in
    ``draws``, five uniforms per photon from ``photons`` and the uniforms
    each stray event reads from that kind's generator in ``stray``."""
    m = len(draws)
    traj_ids = np.arange(traj_start, traj_start + m, dtype=np.int64)
    outcome, flash_count, bg_count = draws.T

    drives = sequence_drives(sequence, params)
    pulses = sequence.pulses
    dt_ps = params.bin_separation_ps
    window = params.window_ps(sequence.n_bins)

    e0, e1 = (d.excitation for d in drives)
    cfrac = np.array([d.coherent_fraction for d in drives])
    phases = np.array([p.phase for p in pulses])
    detunings = np.array([p.detuning for p in pulses])
    is_blue = np.array([p.laser_id is LaserId.BLUE for p in pulses])

    # --- one outcome per window: early, late (the spin survived the early
    # pulse) or no photon, with generate_state's p_early and p_late ---------
    p_early = params.p_hole_init * e0
    p_late = params.p_hole_init * (1.0 - e0) * e1
    has = outcome < p_early + p_late
    idx = (outcome[has] >= p_early).astype(np.int64)  # pulse index == bin index
    # A coherent photon reads its last two uniforms as dephasing kick and
    # inter-laser phase, an incoherent one as phase and energy.
    origin_u, decay_u, jitter_u, u3, u4 = photons.random((idx.size, 5)).T

    coherent = origin_u < cfrac[idx]

    t = (idx * dt_ps
         - params.t1_radiative * np.log1p(-decay_u)
         + params.detector_jitter * _safe_ndtri(jitter_u))
    t = np.maximum(t, 0.0)

    # Spin dephasing between the bins: one Gaussian phase kick per
    # trajectory, riding on the late-bin amplitude with standard deviation
    # sqrt(2*dt/T2), so the cross-bin ensemble coherence carries
    # <exp(i*kick)> = exp(-dt/T2).
    kick = _safe_ndtri(u3)
    kick_sigma_by_pulse = np.sqrt(
        2.0 * params.bin_separation * np.arange(2) / params.t2_spin)

    # Free-running two-colour drives settle on a new relative optical phase
    # every window; single-colour (or locked) drives keep zero offset.
    delta_rb = _TWO_PI * u4 if sequence.random_interlaser_phase else 0.0

    # Amplitude-phase extras of a pulse for this trajectory: the dephasing
    # kick rides on the late-bin amplitude, the inter-laser offset on the
    # blue pulses.  A coherent event stores its own amplitude phase minus
    # the partner's extras, so the interferometer can recover the cross-bin
    # phase difference from the event plus the (known) pulse program alone.
    own_extra = kick * kick_sigma_by_pulse[idx] + delta_rb * is_blue[idx]
    partner_extra = kick * kick_sigma_by_pulse[1 - idx] + delta_rb * is_blue[1 - idx]

    phase = np.where(
        coherent,
        phases[idx] + own_extra - partner_extra,
        _TWO_PI * u3,
    )
    energy = np.where(
        coherent,
        detunings[idx],
        0.5 * params.cavity_linewidth * np.tan(np.pi * (u4 - 0.5)),
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

    # --- stray light: one Poisson layer per kind ---------------------------
    # A flash event takes the next uniform of its kind's generator (phase),
    # a background event the next three (time, phase, energy), in (window,
    # j) order; chunks are drawn in window order, so the events never
    # depend on the chunking.
    for origin, rate, count_u, width in (
            (Origin.RESET_FLASH, params.reset_flash_rate, flash_count, 1),
            (Origin.BACKGROUND, params.background_rate, bg_count, 3)):
        count = _poisson_counts(rate, count_u)
        u = stray[origin].random((int(count.sum()), width))
        if origin is Origin.RESET_FLASH:
            t, phase_u = np.zeros(len(u)), u[:, 0]
            energy = np.full(len(u), RESET_FLASH_ENERGY_UEV)
        else:
            t, phase_u = window * u[:, 0], u[:, 1]
            energy = params.spin_splitting * (2.0 * u[:, 2] - 1.0)
        parts.append({
            "trajectory_id": np.repeat(traj_ids, count),
            "timestamp_ps": t,
            "energy_uev": energy,
            "origin": np.full(len(u), CODE_BY_ORIGIN[origin], np.uint8),
            "phase_rad": _TWO_PI * phase_u,
            "bin_index": np.clip(t / dt_ps, 0, sequence.n_bins - 1).astype(np.int32),
        })
        del u, phase_u

    return _concatenate(parts)


def _concatenate(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Columns of ``parts`` joined in order, one column at a time, each
    part's pieces of a column dropped as soon as that column is joined."""
    return {key: np.concatenate([p.pop(key) for p in parts]) for key in _RECORD.names}


def run(sequence: PulseSequence, params: PhysicalParams, n_trajectories: int,
        seed: int, *, chunk_size: int = 1 << 17) -> EventStream:
    """Simulate ``n_trajectories`` windows under a master seed.

    The result is a pure function of (sequence, params, n_trajectories,
    seed); ``chunk_size`` only bounds memory and never changes the output.
    """
    if n_trajectories < 0:
        raise ValueError("n_trajectories must be >= 0")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    stray_mean = (params.background_rate + params.reset_flash_rate) * n_trajectories
    if stray_mean > _MAX_STRAY_EVENTS:
        raise ValidationError([
            f"background_rate, reset_flash_rate: {n_trajectories} windows expect "
            f"{stray_mean:.4g} stray events, more than {_MAX_STRAY_EVENTS:.0f}"])

    windows, photons = _keyed_rng(seed), _keyed_rng(seed, _PHOTONS)
    stray = {o: _keyed_rng(seed, CODE_BY_ORIGIN[o])
             for o in (Origin.RESET_FLASH, Origin.BACKGROUND)}
    # Blocks cover disjoint, increasing window ranges, so sorting each block
    # as it comes and joining them gives the whole stream's sort.
    pieces: list[dict[str, np.ndarray]] = []
    start = 0
    while start < n_trajectories:
        m = min(chunk_size, n_trajectories - start)
        draws = windows.random((m, 3))
        block = _simulate_block(sequence, params, draws, traj_start=start,
                                photons=photons, stray=stray)
        order = _stream_order(block["trajectory_id"], block["timestamp_ps"])
        pieces.append({k: block.pop(k)[order] for k in _RECORD.names})
        # Dropped only after the sort: dropped inside the kernel, the
        # uniforms left glibc trimming and re-faulting its heap on almost every
        # run of a g2 calibration (about 0.2 s of system time per calibration).
        del draws
        start += m

    cols = (_concatenate(pieces) if pieces
            else {k: np.empty(0, _RECORD[k]) for k in _RECORD.names})
    return EventStream(params=params, sequence=sequence, seed=int(seed),
                       n_trajectories=int(n_trajectories), columns=cols)
