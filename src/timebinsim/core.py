"""Value types and parameter handling shared by every other module.

Unit conventions, used consistently across the package:

* timestamps and lifetimes: picoseconds, except where a field is explicitly
  quoted in nanoseconds (spin coherence time and bin separation, which are
  conventionally reported in ns),
* photon energies and detunings: micro-eV, relative to the undetuned
  optical transition,
* phases and rotation angles: radians,
* rates (background, reset flash): mean counts per pulse-sequence window.

All value types are immutable.  ``validate`` checks every invariant of an
object and reports *all* violations at once, by field name, so a bad
parameter file produces one complete error message instead of a scavenger
hunt.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar, Iterable


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


class LaserId(enum.Enum):
    """Which of the two Raman drive lasers a pulse comes from."""

    RED = "Red"
    BLUE = "Blue"


@dataclass(frozen=True)
class PhysicalParams:
    """Device and environment constants for the emitter/detector chain.

    Defaults describe a cavity-enhanced quantum-dot hole spin driven in the
    spin-flip Raman configuration: a Purcell-shortened radiative lifetime of
    250 ps, a hole-spin coherence time of a few ns, and a 1.5 ns separation
    between the early and late emission bins.
    """

    t1_radiative: float = 250.0  # ps, radiative lifetime of the optical transition
    t2_spin: float = 6.0  # ns, hole-spin coherence time
    bin_separation: float = 1.5  # ns, early/late time-bin separation
    pulse_duration: float = 1000.0  # ps, resonant drive pulse width (square-pulse model)
    p_hole_init: float = 0.5  # probability the reset leaves the spin in |h>
    cavity_linewidth: float = 2.6  # ueV, FWHM of the incoherent emission line
    background_rate: float = 0.0  # mean background photons per window
    detector_jitter: float = 30.0  # ps, Gaussian timing smear (sigma)
    spin_splitting: float = 19.1  # ueV, total ground-state (Zeeman) splitting
    reset_flash_rate: float = 0.1  # mean reset-flash photons per window

    # -- unit helpers ----------------------------------------------------
    @property
    def t2_spin_ps(self) -> float:
        return self.t2_spin * 1e3

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
        for name in ("t1_radiative", "t2_spin", "bin_separation", "pulse_duration",
                     "cavity_linewidth", "spin_splitting"):
            if not getattr(self, name) > 0:
                v.append(f"{name}: must be > 0")
        for name in ("background_rate", "detector_jitter", "reset_flash_rate"):
            if not getattr(self, name) >= 0:
                v.append(f"{name}: must be >= 0")
        if not 0.0 <= self.p_hole_init <= 1.0:
            v.append("p_hole_init: must lie in [0, 1]")
        if self.pulse_duration > 0 and self.bin_separation > 0 \
                and self.pulse_duration >= self.bin_separation_ps:
            v.append("pulse_duration: must be shorter than bin_separation")
        return v

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "PhysicalParams":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown parameter keys: {', '.join(unknown)}")
        return cls(**{k: float(val) for k, val in d.items()})


# name -> (unit, description); drives the parameter-file docs and CLI help
PARAM_FIELDS: dict[str, tuple[str, str]] = {
    "t1_radiative": ("ps", "radiative lifetime of the optical transition"),
    "t2_spin": ("ns", "hole-spin coherence time"),
    "bin_separation": ("ns", "early/late time-bin separation"),
    "pulse_duration": ("ps", "resonant drive pulse width"),
    "p_hole_init": ("1", "probability the reset prepares the hole state"),
    "cavity_linewidth": ("ueV", "FWHM of the incoherent emission line"),
    "background_rate": ("1/window", "mean background photons per window"),
    "detector_jitter": ("ps", "Gaussian detector timing sigma"),
    "spin_splitting": ("ueV", "total ground-state splitting"),
    "reset_flash_rate": ("1/window", "mean reset-flash photons per window"),
}


@dataclass(frozen=True)
class ResonantPulse:
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
        if not isinstance(self.laser_id, LaserId):
            v.append("laser_id: must be a LaserId")
        if not math.isfinite(self.detuning):
            v.append("detuning: must be finite")
        return v

    def to_dict(self) -> dict:
        return {
            "intensity": self.intensity,
            "phase": self.phase,
            "laser_id": self.laser_id.value,
            "detuning": self.detuning,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ResonantPulse":
        return cls(
            intensity=float(d["intensity"]),
            phase=float(d["phase"]),
            laser_id=LaserId(d["laser_id"]),
            detuning=float(d["detuning"]),
        )


@dataclass(frozen=True)
class PulseSequence:
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
        object.__setattr__(self, "pulses", tuple(self.pulses))

    def violations(self) -> list[str]:
        v = []
        if len(self.pulses) != 2:
            v.append(f"pulses: need two pulses (early, late), got {len(self.pulses)}")
        for i, p in enumerate(self.pulses):
            v.extend(f"pulses[{i}].{s}" for s in p.violations())
        return v

    def to_dict(self) -> dict:
        return {
            "pulses": [p.to_dict() for p in self.pulses],
            "random_interlaser_phase": self.random_interlaser_phase,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PulseSequence":
        return cls(
            pulses=tuple(ResonantPulse.from_dict(p) for p in d["pulses"]),
            random_interlaser_phase=bool(d.get("random_interlaser_phase", False)),
        )


@dataclass(frozen=True)
class TimeBinState:
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
                and abs(self.coherence) > purity_bound(self) + PURITY_TOL:
            v.append("coherence: |coherence| exceeds sqrt(p_early*p_late)")
        return v

    @property
    def p_total(self) -> float:
        return self.p_early + self.p_late


@dataclass(frozen=True)
class BlochVector:
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
        if self.norm > 1.0 + EPS_FIT:
            v.append("x,y,z: norm exceeds 1 beyond the fit tolerance")
        return v


def purity_bound(state: TimeBinState) -> float:
    """Largest coherence magnitude compatible with the state's populations."""
    return math.sqrt(max(state.p_early, 0.0) * max(state.p_late, 0.0))


def validate(obj) -> None:
    """Check every invariant of ``obj``; raise ValidationError listing all failures."""
    try:
        violations = obj.violations()
    except AttributeError:  # pragma: no cover - programming error
        raise TypeError(f"{type(obj).__name__} has no invariants to validate")
    if violations:
        raise ValidationError(violations)


# ---------------------------------------------------------------------------
# Parameter files: flat "name = value" lines, '#' comments, fixed units.
# ---------------------------------------------------------------------------

def parse_params_text(text: str) -> PhysicalParams:
    values: dict[str, float] = {}
    unknown: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'name = value', got {raw!r}")
        name, _, val = line.partition("=")
        name = name.strip()
        val = val.strip()
        if name not in PARAM_FIELDS:
            unknown.append(name)
            continue
        try:
            values[name] = float(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: value for {name!r} is not a number: {val!r}")
    if unknown:
        raise ConfigError(f"unknown parameter keys: {', '.join(sorted(unknown))}")
    return PhysicalParams(**values)


def load_params(path: str | Path) -> PhysicalParams:
    """Load a parameter file, rejecting unknown keys; missing keys keep defaults."""
    params = parse_params_text(Path(path).read_text())
    validate(params)
    return params


def params_text(params: PhysicalParams) -> str:
    lines = ["# physical parameters (units fixed per field)"]
    for name, (unit, desc) in PARAM_FIELDS.items():
        lines.append(f"{name} = {getattr(params, name)!r}  # [{unit}] {desc}")
    return "\n".join(lines) + "\n"


def save_params(params: PhysicalParams, path: str | Path) -> None:
    Path(path).write_text(params_text(params))


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips the float (stable across runs)."""
    return repr(float(x))


def write_csv(path: str | Path, header: str, rows: Iterable[Iterable]) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(
            format_float(c) if isinstance(c, float) else str(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n")
