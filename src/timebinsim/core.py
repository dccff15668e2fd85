"""Value types and parameter handling shared by every other module.

Unit conventions, used consistently across the package:

* timestamps and lifetimes: picoseconds, except where a field is explicitly
  quoted in nanoseconds (spin coherence time and bin separation, which are
  conventionally reported in ns),
* photon energies and detunings: micro-eV, relative to the undetuned
  optical transition,
* phases and rotation angles: radians,
* rates (background, reset flash): mean counts per pulse-sequence window.

All value types are immutable, and constructing one checks every invariant:
an invalid value raises ``ValidationError`` listing *all* violations at once,
by field name, so a bad parameter file produces one complete error message
instead of a scavenger hunt.  A field whose value does not have its declared
type (a string for a ``float``, say) is a ``ValidationError`` too, naming
that field, and then the invariants are not checked.
"""

from __future__ import annotations

import enum
import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import ClassVar


class ConfigError(ValueError):
    """Raised for malformed or unknown keys in a parameter file."""


class ValidationError(ValueError):
    """Raised when one or more invariants are violated.

    ``violations`` holds one human-readable string per violated invariant,
    each prefixed with the offending field name.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InsufficientStatisticsError(RuntimeError):
    """Raised when a measurement has too few events to be meaningful."""


# Tolerance used when checking the cross-bin coherence against the
# populations (Cauchy-Schwarz bound).
PURITY_TOL = 1e-12

# Fitted Bloch vectors may poke out of the unit ball by statistical noise;
# this is the documented slack allowed by BlochVector validation.
EPS_FIT = 1e-6


class LaserId(str, enum.Enum):
    """Which of the two Raman drive lasers a pulse comes from."""

    RED = "Red"
    BLUE = "Blue"


# Declared field type, as the annotation text that `from __future__ import
# annotations` leaves in Field.type -> (accepted types, what the value must be).
_FIELD_TYPES = {
    "float": (numbers.Real, "a number"),
    "complex": (numbers.Complex, "a number"),
    "float | None": ((numbers.Real, type(None)), "a number or None"),
    "LaserId": (LaserId, "a LaserId"),
}


class _Checked:
    """Base of the value types: ``__post_init__`` raises ValidationError
    unless every field has its declared type and ``violations()``, the
    type's list of broken invariants, is empty."""

    def __post_init__(self):
        wrong = [f"{f.name}: must be {_FIELD_TYPES[f.type][1]}" for f in fields(self)
                 if f.type in _FIELD_TYPES
                 and not isinstance(getattr(self, f.name), _FIELD_TYPES[f.type][0])]
        if violations := wrong or self.violations():
            raise ValidationError(violations)


def _param(default: float, unit: str, doc: str):
    return field(default=default, metadata={"unit": unit, "doc": doc})


@dataclass(frozen=True)
class PhysicalParams(_Checked):
    """Device and environment constants for the emitter/detector chain.

    Defaults describe a cavity-enhanced quantum-dot hole spin driven in the
    spin-flip Raman configuration: a Purcell-shortened radiative lifetime of
    250 ps, a hole-spin coherence time of a few ns, and a 1.5 ns separation
    between the early and late emission bins.
    """

    t1_radiative: float = _param(250.0, "ps", "radiative lifetime of the optical transition")
    t2_spin: float = _param(6.0, "ns", "hole-spin coherence time")
    bin_separation: float = _param(1.5, "ns", "early/late time-bin separation")
    pulse_duration: float = _param(1000.0, "ps", "resonant drive pulse width")
    p_hole_init: float = _param(0.5, "1", "probability the reset prepares the hole state")
    cavity_linewidth: float = _param(2.6, "ueV", "FWHM of the incoherent emission line")
    background_rate: float = _param(0.0, "1/window", "mean background photons per window")
    detector_jitter: float = _param(30.0, "ps", "Gaussian detector timing sigma")
    spin_splitting: float = _param(19.1, "ueV", "total ground-state splitting")
    reset_flash_rate: float = _param(0.1, "1/window", "mean reset-flash photons per window")

    # -- unit helpers ----------------------------------------------------
    @property
    def bin_separation_ps(self) -> float:
        return self.bin_separation * 1e3

    @property
    def gamma(self) -> float:
        """Radiative decay rate 1/T1 in 1/ps."""
        return 1.0 / self.t1_radiative

    def window_ps(self, n_bins: int) -> float:
        """Length of one pulse-sequence window in ps."""
        return n_bins * self.bin_separation_ps

    def violations(self) -> list[str]:
        v = [f"{f.name}: must be finite" for f in fields(self)
             if not math.isfinite(getattr(self, f.name))]
        # Scales up to 1e100 keep every drawn time, phase and energy finite.
        # From 1e-100 up, 2 Gamma^2 = 2 / t1^2 in the coherent fraction is finite.
        if not 1e-100 <= self.t1_radiative <= 1e100:
            v.append("t1_radiative: must lie in [1e-100, 1e100]")
        for name in ("t2_spin", "bin_separation", "pulse_duration",
                     "cavity_linewidth", "spin_splitting"):
            if not 0 < getattr(self, name) <= 1e100:
                v.append(f"{name}: must lie in (0, 1e100]")
        for name in ("background_rate", "detector_jitter", "reset_flash_rate"):
            if not 0 <= getattr(self, name) <= 1e100:
                v.append(f"{name}: must lie in [0, 1e100]")
        if self.t2_spin > 0 and not self.bin_separation / self.t2_spin <= 1e100:
            v.append("t2_spin: must be >= 1e-100 * bin_separation")
        if not 0.0 <= self.p_hole_init <= 1.0:
            v.append("p_hole_init: must lie in [0, 1]")
        if self.pulse_duration > 0 and self.bin_separation > 0 \
                and self.pulse_duration >= self.bin_separation_ps:
            v.append("pulse_duration: must be shorter than bin_separation")
        return v

    @classmethod
    def from_dict(cls, d: dict) -> "PhysicalParams":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown parameter keys: {', '.join(unknown)}")
        return cls(**{k: float(val) for k, val in d.items()})


# name -> (unit, description); drives the parameter-file docs and CLI help
PARAM_FIELDS: dict[str, tuple[str, str]] = {
    f.name: (f.metadata["unit"], f.metadata["doc"]) for f in fields(PhysicalParams)}


@dataclass(frozen=True)
class ResonantPulse(_Checked):
    """One resonant drive pulse.

    ``intensity`` is in units of the reference intensity that realises a
    pi/2 rotation (see :mod:`timebinsim.dynamics`); the rotation angle scales
    with its square root.  ``detuning`` is the pulse's optical detuning from
    the bare transition in ueV, which a coherently scattered photon inherits.
    """

    intensity: float
    phase: float = 0.0
    laser_id: LaserId = LaserId.RED
    detuning: float = 0.0

    def violations(self) -> list[str]:
        v = []
        if not 0.0 <= self.intensity < math.inf:
            v.append("intensity: must be finite and >= 0")
        if not math.isfinite(self.phase):
            v.append("phase: must be finite")
        if not math.isfinite(self.detuning):
            v.append("detuning: must be finite")
        return v

    @classmethod
    def from_dict(cls, d: dict) -> "ResonantPulse":
        return cls(
            intensity=float(d["intensity"]),
            phase=float(d["phase"]),
            laser_id=LaserId(d["laser_id"]),
            detuning=float(d["detuning"]),
        )


@dataclass(frozen=True)
class PulseSequence(_Checked):
    """The drive program for one generation window: ``pulses`` is
    (early, late), and a pulse's position names the time bin it drives.

    A reset precedes every window, and a window always holds ``n_bins == 2``
    bins.  The two pulses may differ in colour (wavelength multiplexing).
    ``random_interlaser_phase`` marks two-colour sequences whose lasers are
    free-running: the relative optical phase between the colours is then
    redrawn uniformly for every trajectory instead of being fixed by the
    pulse ``phase`` fields.
    """

    pulses: tuple[ResonantPulse, ...]
    random_interlaser_phase: bool = False
    n_bins: ClassVar[int] = 2

    def __post_init__(self):
        if isinstance(self.pulses, Sequence):
            object.__setattr__(self, "pulses", tuple(self.pulses))
        super().__post_init__()

    def violations(self) -> list[str]:
        if not isinstance(self.pulses, tuple):
            return ["pulses: must be a sequence (early, late)"]
        if len(self.pulses) != 2:
            return [f"pulses: need two pulses (early, late), got {len(self.pulses)}"]
        if not all(isinstance(p, ResonantPulse) for p in self.pulses):
            return ["pulses: each must be a ResonantPulse"]
        return []

    @classmethod
    def from_dict(cls, d: dict) -> "PulseSequence":
        return cls(
            pulses=tuple(ResonantPulse.from_dict(p) for p in d["pulses"]),
            random_interlaser_phase=bool(d.get("random_interlaser_phase", False)),
        )


@dataclass(frozen=True)
class TimeBinState(_Checked):
    """Sub-normalised two-bin photonic state.

    ``p_early`` and ``p_late`` are occupation probabilities of the early and
    late bins; any remaining probability is vacuum (no photon emitted).
    ``coherence`` is the early-late off-diagonal element of the one-photon
    block; its magnitude can never exceed sqrt(p_early * p_late).
    """

    p_early: float
    p_late: float
    coherence: complex = 0j

    def violations(self) -> list[str]:
        v = []
        if not self.p_early >= 0:
            v.append("p_early: must be >= 0")
        if not self.p_late >= 0:
            v.append("p_late: must be >= 0")
        if self.p_early + self.p_late > 1.0 + PURITY_TOL:
            v.append("p_early+p_late: total occupation exceeds 1")
        if self.p_early >= 0 and self.p_late >= 0 \
                and not abs(self.coherence) <= purity_bound(self) + PURITY_TOL:
            v.append("coherence: |coherence| must be finite and <= sqrt(p_early*p_late)")
        return v

    @property
    def p_total(self) -> float:
        return self.p_early + self.p_late


@dataclass(frozen=True)
class BlochVector(_Checked):
    x: float
    y: float
    z: float

    @property
    def norm(self) -> float:
        return math.sqrt(self.x ** 2 + self.y ** 2 + self.z ** 2)

    def normalized(self) -> "BlochVector":
        n = self.norm
        if n == 0:
            raise ValueError("cannot normalise a zero Bloch vector")
        return BlochVector(self.x / n, self.y / n, self.z / n)

    def dot(self, other: "BlochVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def violations(self) -> list[str]:
        v = []
        if not self.norm <= 1.0 + EPS_FIT:
            v.append("x,y,z: norm must be finite and <= 1 within the fit tolerance")
        return v


def purity_bound(state: TimeBinState) -> float:
    """Largest coherence magnitude compatible with the state's populations."""
    return math.sqrt(max(state.p_early, 0.0) * max(state.p_late, 0.0))


# ---------------------------------------------------------------------------
# Parameter files: flat "name = value" lines, '#' comments, fixed units.
# ---------------------------------------------------------------------------

def parse_params_text(text: str) -> PhysicalParams:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'name = value', got {raw!r}")
        name, _, val = line.partition("=")
        name = name.strip()
        val = val.strip()
        if name in values:
            raise ConfigError(f"line {lineno}: duplicate key {name!r}")
        try:
            values[name] = float(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: value for {name!r} is not a number: {val!r}")
    return PhysicalParams.from_dict(values)


def load_params(path: str | Path) -> PhysicalParams:
    """Load a parameter file, rejecting unknown keys; missing keys keep defaults."""
    return parse_params_text(Path(path).read_text())


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips the float (stable across runs)."""
    return repr(float(x))


def write_csv(path: str | Path, header: str, rows: Iterable[Iterable]) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(
            format_float(c) if isinstance(c, float) else str(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n")
