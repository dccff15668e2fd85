"""Command-line front end.

Each subcommand runs one named experiment and writes its artifacts into the
directory given by ``--out``: CSV data files plus a ``<command>.meta.json``
sidecar recording the resolved physical parameters, the seed and every other
flag as parsed, so any result can be regenerated bit-for-bit.  A run's files
appear in ``--out`` only once all of them and the sidecar are written, so a
failed run leaves no partial output behind.

Exit codes: 0 success, 2 configuration or validation problem, 3 a
statistics-dependent result could not be computed from the events; a run
stopped by SIGTERM exits 143 and also leaves no partial output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import threading
from dataclasses import asdict, replace

import numpy as np

from .core import (ConfigError, InsufficientStatisticsError, PARAM_FIELDS,
                   PhysicalParams, PulseSequence, ValidationError, load_params, write_csv)
from .dynamics import (expected_visibility, generate_state, sequence_for_pgen,
                       two_pulse_sequence, visibility_curve)
from .measurement import calibrate_background_for_g2, fringe_scan, measure_g2
from .montecarlo import derived_seed, run
from .tomography import (bloch_of_state, direction_fidelity, fit_fringe,
                         qubit_phase, reconstruct)
from .wdm import WdmSpec, recovery_report


# Parsed arguments that are not recorded as the sidecar's ``options``: the
# subcommand and its handler, where the files go, and what ``params`` and
# ``seed`` already record.
_NOT_OPTIONS = {"command", "func", "out", "config", "param", "seed"}


class _OutDir:
    """Writer into the --out directory that publishes a run all at once.

    Files are staged in a temporary sibling of --out and moved into it only
    after the sidecar is written; :meth:`discard` removes whatever is left
    staged, so a failed run leaves no partial output behind.
    """

    def __init__(self, root: str):
        self.root = root
        self.written: list[str] = []
        if os.path.exists(root) and not os.path.isdir(root):
            raise ConfigError(f"--out {root!r} exists and is not a directory")
        parent = os.path.dirname(os.path.abspath(root))
        try:
            os.makedirs(parent, exist_ok=True)
            self.staging = tempfile.mkdtemp(
                prefix=f".{os.path.basename(root)}.", dir=parent)
        except OSError as exc:
            raise ConfigError(f"--out {root!r}: cannot create a staging "
                              f"directory: {exc}") from None

    def write(self, name: str, writer) -> None:
        writer(os.path.join(self.staging, name))
        self.written.append(name)

    def sidecar(self, args, params: PhysicalParams) -> None:
        options = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
        meta = {"command": args.command, "params": asdict(params), "seed": args.seed,
                "options": options, "files": sorted(self.written)}
        name = f"{args.command}.meta.json"
        with open(os.path.join(self.staging, name), "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
        os.makedirs(self.root, exist_ok=True)
        for f in self.written + [name]:
            os.replace(os.path.join(self.staging, f), os.path.join(self.root, f))

    def discard(self) -> None:
        shutil.rmtree(self.staging, ignore_errors=True)


def _resolve_params(args) -> PhysicalParams:
    try:
        params = load_params(args.config) if args.config else PhysicalParams()
    except OSError as exc:
        raise ConfigError(f"--config {args.config!r}: {exc.strerror}") from None
    except (UnicodeDecodeError, ConfigError, ValidationError) as exc:
        raise ConfigError(f"--config {args.config!r}: {exc}") from None
    overrides = {}
    for item in args.param or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--param expects NAME=VALUE, got {item!r}")
        try:
            overrides[name.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"--param {name.strip()}: not a number: {value!r}") from None
    if overrides:
        params = PhysicalParams.from_dict({**asdict(params), **overrides})
    return params


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of numbers: {text!r}") from None


def _measure_visibility(seq: PulseSequence, params: PhysicalParams,
                        n_trajectories: int, scan_points: int, seed: int):
    """One fringe scan of a drive sequence plus its fit."""
    scan = fringe_scan(seq, np.linspace(0.0, 2.0 * np.pi, scan_points, endpoint=False),
                       params=params, n_trajectories=n_trajectories, seed=seed)
    return scan, fit_fringe(scan)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_visibility_sweep(args, params: PhysicalParams, out: _OutDir) -> int:
    grid = np.linspace(args.p_min, args.p_max, args.points)
    t1_list = _parse_floats(args.t1)
    rows = visibility_curve(grid, t1_list, params)
    out.write("visibility_curve.csv", lambda p: write_csv(
        p, "p_gen,t1_ps,visibility", rows))

    mc_rows = []
    for k, p_gen in enumerate(np.linspace(max(args.p_min, 0.1), args.p_max,
                                          args.mc_points)):
        _, fit = _measure_visibility(sequence_for_pgen(float(p_gen)), params,
                                     args.trajectories, args.scan_points,
                                     derived_seed(args.seed, k))
        mc_rows.append((float(p_gen), fit.visibility, fit.visibility_err,
                        expected_visibility(float(p_gen), params)))
    out.write("visibility_mc.csv", lambda p: write_csv(
        p, "p_gen,visibility,visibility_err,expected", mc_rows))

    out.sidecar(args, params)
    print(f"wrote analytic curve ({len(rows)} rows) and {len(mc_rows)} "
          f"Monte-Carlo points to {args.out}")
    return 0


def cmd_phase_qubits(args, params: PhysicalParams, out: _OutDir) -> int:
    programmed = (_parse_floats(args.phases) if args.phases is not None
                  else list(np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)))
    if not programmed:
        raise ConfigError(f"--phases {args.phases!r}: no phases given")

    ref_scan, reference = _measure_visibility(
        sequence_for_pgen(args.p_gen), params, args.trajectories,
        args.scan_points, derived_seed(args.seed, 0))
    out.write("fringe_reference.csv", ref_scan.to_csv)

    fit_rows, state_rows = [], []
    for k, delta in enumerate(programmed, start=1):
        seq = sequence_for_pgen(args.p_gen, phase2=delta)
        scan, fit = _measure_visibility(seq, params, args.trajectories,
                                        args.scan_points, derived_seed(args.seed, k))
        out.write(f"fringe_{k:02d}.csv", scan.to_csv)
        if not (reference.phase_defined and fit.phase_defined):
            raise InsufficientStatisticsError(
                f"setpoint {k}: too few photons to define a fringe phase")
        recovered = qubit_phase(reference, fit)
        fit_rows.append((delta, recovered, fit.visibility, fit.visibility_err))

        # Populations from the scan's own side peaks, as a detector counts
        # them: background photons count in the bin they arrive in.
        early = int(scan.early_side_counts.sum())
        late = int(scan.late_side_counts.sum())
        if early + late == 0:
            raise InsufficientStatisticsError(
                f"setpoint {k}: the fringe scan saw no side-peak photons")
        vec = reconstruct(early / (early + late), late / (early + late),
                          fit.visibility, recovered)
        target = bloch_of_state(generate_state(seq, params))
        state_rows.append((vec.x, vec.y, vec.z, direction_fidelity(vec, target),
                           fit.visibility, recovered))

    out.write("fits.csv", lambda p: write_csv(
        p, "programmed_rad,recovered_rad,visibility,visibility_err", fit_rows))
    out.write("bloch.csv", lambda p: write_csv(
        p, "x,y,z,fidelity,visibility,phase_rad", state_rows))
    out.sidecar(args, params)
    expected = expected_visibility(args.p_gen, params)
    print(f"wrote {len(programmed)} setpoints to {args.out} "
          f"(expected visibility {expected:.4f})")
    return 0


def cmd_wdm(args, params: PhysicalParams, out: _OutDir) -> int:
    spec = WdmSpec.for_splitting(params.spin_splitting,
                                 locked_phase=args.locked_phase)
    report = recovery_report(spec, params, n_trajectories=args.trajectories,
                             seed=args.seed, fwhm_uev=args.fwhm,
                             extinction=args.extinction)
    out.write("recovery.csv", report.to_csv)
    out.sidecar(args, params)
    for row in report.rows:
        print(f"{row.label:>5}: early {row.early_frac:.4f}  "
              f"late {row.late_frac:.4f}  ({row.transmitted} events)")
    return 0


def cmd_g2(args, params: PhysicalParams, out: _OutDir) -> int:
    seq = two_pulse_sequence(scale=args.scale)
    if args.calibrate_g2 is not None:
        params = replace(params, background_rate=calibrate_background_for_g2(
            seq, params, args.calibrate_g2, n_trajectories=args.trajectories,
            seed=derived_seed(args.seed, 1), window=args.window))
    elif args.background is not None:
        params = replace(params, background_rate=args.background)
    result = measure_g2(seq, params, args.trajectories, args.seed,
                        window=args.window)
    out.write("g2.csv", result.to_csv)
    out.sidecar(args, params)
    mid = len(result.g2) // 2
    if args.calibrate_g2 is not None:
        print(f"calibrated background rate: {params.background_rate:.6f} per window")
    print(f"g2(0) = {result.zero_lag:.4f} +- {result.se[mid]:.4f} "
          f"({int(result.coincidences[mid])} zero-lag coincidences)")
    return 0


def cmd_simulate(args, params: PhysicalParams, out: _OutDir) -> int:
    seq = sequence_for_pgen(args.p_gen, phase2=args.phase2)
    stream = run(seq, params, args.trajectories, args.seed)
    if args.binary:
        out.write("events.bin", stream.to_binary)
    else:
        out.write("events.csv", stream.to_csv)
    out.sidecar(args, params)
    print(f"wrote {len(stream)} events from {args.trajectories} windows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _checked(convert, ok, requirement: str):
    """argparse type: ``convert`` the text, then require ``ok(value)``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a valid {convert.__name__}: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    return parse


_COUNT = _checked(int, lambda n: n >= 1, ">= 1")
_NON_NEGATIVE = _checked(int, lambda n: n >= 0, ">= 0")
_SCAN_POINTS = _checked(int, lambda n: n >= 4, ">= 4")
_UNIT_INTERVAL = _checked(float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
_OPEN_UNIT_INTERVAL = _checked(float, lambda x: 0.0 < x < 1.0, "in (0, 1)")
_POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "finite and > 0")


def _param_table() -> str:
    lines = ["configuration keys (via --config FILE or --param NAME=VALUE):"]
    for name, (unit, desc) in PARAM_FIELDS.items():
        lines.append(f"  {name:<18} [{unit}] {desc}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timebinsim",
        description="Simulate and analyse spin-photon time-bin qubit generation.",
        epilog=_param_table(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help_text: str):
        return sub.add_parser(name, help=help_text, epilog=_param_table(),
                              formatter_class=argparse.RawDescriptionHelpFormatter)

    def add_common(p, trajectories: int):
        p.add_argument("--config", help="physical-parameter file (name = value lines)")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="override a single physical parameter (repeatable)")
        p.add_argument("--seed", type=_NON_NEGATIVE, default=0,
                       help="master RNG seed")
        p.add_argument("--trajectories", type=_COUNT, default=trajectories,
                       help="number of simulated pulse-sequence windows")
        p.add_argument("--out", required=True, help="output directory")

    p = add_parser("visibility-sweep",
                   "analytic + Monte-Carlo fringe visibility vs drive strength")
    add_common(p, trajectories=20_000)
    p.add_argument("--p-min", type=_UNIT_INTERVAL, default=0.05)
    p.add_argument("--p-max", type=_UNIT_INTERVAL, default=1.0)
    p.add_argument("--points", type=_NON_NEGATIVE, default=20,
                   help="points on the analytic curve")
    p.add_argument("--t1", default="250",
                   help="comma-separated radiative lifetimes in ps")
    p.add_argument("--mc-points", type=_NON_NEGATIVE, default=5,
                   help="Monte-Carlo check points across the sweep")
    p.add_argument("--scan-points", type=_SCAN_POINTS, default=12,
                   help="interferometer setpoints per fringe scan")
    p.set_defaults(func=cmd_visibility_sweep)

    p = add_parser("phase-qubits",
                   "program qubit phases and read them back from fringes")
    add_common(p, trajectories=20_000)
    p.add_argument("--p-gen", type=_UNIT_INTERVAL, default=1.0,
                   help="target generation probability")
    p.add_argument("--phases", help="comma-separated programmed phases in rad")
    p.add_argument("--scan-points", type=_SCAN_POINTS, default=12,
                   help="interferometer setpoints per fringe scan")
    p.set_defaults(func=cmd_phase_qubits)

    p = add_parser("wdm", "two-colour bin demultiplexing report")
    add_common(p, trajectories=100_000)
    p.add_argument("--locked-phase", type=float, default=None,
                   help="lock the inter-laser phase to this value (rad)")
    p.add_argument("--fwhm", type=_POSITIVE, default=5.0,
                   help="recovery filter FWHM per pass (ueV)")
    p.add_argument("--extinction", type=_UNIT_INTERVAL, default=1e-3,
                   help="filter out-of-band leakage floor")
    p.set_defaults(func=cmd_wdm)

    p = add_parser("g2", "pulsed intensity-correlation histogram")
    add_common(p, trajectories=200_000)
    rate = p.add_mutually_exclusive_group()  # each sets the background rate
    rate.add_argument("--background", type=float, default=None,
                      help="override the background rate per window")
    rate.add_argument("--calibrate-g2", type=_OPEN_UNIT_INTERVAL, default=None,
                      metavar="TARGET",
                      help="first set the background rate that gives this g2(0)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="drive intensity scale (1.0 = pi/2 + pi)")
    p.add_argument("--window", type=_COUNT, default=5,
                   help="maximum period lag for the histogram")
    p.set_defaults(func=cmd_g2)

    p = add_parser("simulate", "dump raw photon events")
    add_common(p, trajectories=10_000)
    p.add_argument("--p-gen", type=_UNIT_INTERVAL, default=1.0)
    p.add_argument("--phase2", type=float, default=0.0,
                   help="phase of the late-bin pulse (rad)")
    p.add_argument("--binary", action="store_true",
                   help="write fixed-width binary instead of CSV")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    # SIGTERM unwinds through the finally that discards the staged files.
    previous = (signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
                if threading.current_thread() is threading.main_thread() else None)
    out = None
    try:
        out = _OutDir(args.out)
        return args.func(args, _resolve_params(args), out)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InsufficientStatisticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if out is not None:
            out.discard()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
