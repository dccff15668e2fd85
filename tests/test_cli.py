import contextlib
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timebinsim import EventStream, PhysicalParams, run, sequence_for_pgen
from timebinsim import cli, measurement, montecarlo
from timebinsim.cli import main
from timebinsim.core import PARAM_FIELDS


def read_lines(path):
    return path.read_text().splitlines()


# -- argument and configuration errors ----------------------------------------

def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "visibility-sweep" in capsys.readouterr().out


def test_unknown_parameter_key_fails_before_writing(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["simulate", "--trajectories", "10", "--out", str(out),
                 "--param", "nonsense=1"]) == 2
    assert not out.exists()
    assert "nonsense" in capsys.readouterr().err


def test_non_numeric_parameter_value_fails(tmp_path, capsys):
    assert main(["simulate", "--trajectories", "10",
                 "--out", str(tmp_path / "o"),
                 "--param", "t1_radiative=abc"]) == 2
    assert "not a number" in capsys.readouterr().err


def test_invalid_parameter_value_fails_validation(tmp_path, capsys):
    assert main(["simulate", "--trajectories", "10",
                 "--out", str(tmp_path / "o"),
                 "--param", "t1_radiative=-5"]) == 2
    assert "t1_radiative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--param", "t1_radiative=inf"],
    ["simulate", "--param", "background_rate=1e300"],
    ["simulate", "--trajectories", "-5"],
    ["simulate", "--p-gen", "1.5"],
    ["wdm", "--fwhm", "0"],
    ["wdm", "--extinction", "2"],
    ["g2", "--calibrate-g2", "1.5"],
    ["g2", "--window", "0"],
    ["phase-qubits", "--scan-points", "3"],
    ["simulate", "--seed", "-1"],
    ["visibility-sweep", "--p-min", "2"],
    ["visibility-sweep", "--p-max", "nan"],
    ["visibility-sweep", "--t1", "0"],
    ["visibility-sweep", "--t1", "inf"],
    ["visibility-sweep", "--t1", "-5"],
    ["visibility-sweep", "--points", "-1"],
    ["visibility-sweep", "--mc-points", "-1"],
    ["g2", "--scale", "inf"],
    ["g2", "--calibrate-g2", "1e-17"],
    ["simulate", "--param", "t2_spin=1e-320"],
    ["simulate", "--param", "cavity_linewidth=1e308"],
])
def test_bad_numeric_input_is_a_usage_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("flag,target", [
    ("--config", "missing.txt"),
    ("--config", "."),
    ("--out", "file"),
    ("--out", "file/o"),
])
def test_bad_paths_are_usage_errors(tmp_path, capsys, flag, target):
    (tmp_path / "file").write_text("kept\n")
    # a repeated --out replaces the first one
    assert main(["simulate", "--trajectories", "10", "--out", str(tmp_path / "o"),
                 flag, str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


_SPECIALS = st.sampled_from(["nan", "inf", "-inf", "-0.0", "-1"])


def _text(values):
    """Argument text: one of ``values`` nine times in ten, else a special."""
    return st.integers(0, 9).flatmap(
        lambda k: _SPECIALS if k == 0 else values.map(str))


def _ints(low: int, high: int):
    return _text(st.integers(low, high))


_FLOAT = _text(st.one_of(st.floats(0, 1), st.floats(-10, 10),
                         st.floats(allow_nan=True, allow_infinity=True)))
_FUZZ_FLAGS = {
    "simulate": {"--p-gen": _FLOAT, "--phase2": _FLOAT},
    "g2": {"--background": _FLOAT, "--calibrate-g2": _FLOAT, "--scale": _FLOAT,
           "--window": _ints(-2, 6)},
    "wdm": {"--locked-phase": _FLOAT, "--fwhm": _FLOAT, "--extinction": _FLOAT},
    "visibility-sweep": {"--p-min": _FLOAT, "--p-max": _FLOAT,
                         "--points": _ints(-2, 20), "--mc-points": _ints(-2, 2),
                         "--t1": st.lists(_FLOAT, min_size=1, max_size=2).map(",".join)},
}


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.data())
def test_fuzzed_numeric_flags_never_raise(data):
    command = data.draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    # --flag=value, so that argparse takes a value such as -inf as the value
    argv = [command, "--seed=" + data.draw(_ints(0, 2 ** 70)),
            "--trajectories=" + data.draw(_ints(0, 20))]
    if command == "visibility-sweep":
        argv += ["--scan-points=4"]
    for flag, values in _FUZZ_FLAGS[command].items():
        if data.draw(st.booleans()):
            argv += [f"{flag}={data.draw(values)}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", os.path.join(tmp, "o")])
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_every_subcommand_documents_the_parameter_keys(capsys):
    for cmd in ("visibility-sweep", "phase-qubits", "wdm", "g2", "simulate"):
        assert main([cmd, "--help"]) == 0
        text = capsys.readouterr().out
        for key in PARAM_FIELDS:
            assert key in text, f"{cmd} --help is missing {key}"


def test_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "params.txt"
    cfg.write_text("# device\nt1_radiative = 100.0\n")
    out = tmp_path / "o"
    assert main(["simulate", "--trajectories", "20", "--out", str(out),
                 "--config", str(cfg), "--param", "detector_jitter=0"]) == 0
    meta = json.loads((out / "simulate.meta.json").read_text())
    assert meta["params"]["t1_radiative"] == 100.0
    assert meta["params"]["detector_jitter"] == 0.0
    capsys.readouterr()


def test_non_utf8_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "params.txt"
    cfg.write_bytes(b"t1_radiative = 1\xff\xfe\n")
    assert main(["simulate", "--trajectories", "10", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(cfg) in err


@pytest.mark.parametrize("text,fragment", [
    ("t1_radiative = 100\nt1_radiative = 200\n", "line 2: duplicate key 't1_radiative'"),
    ("t1_radiative = -3\n", "t1_radiative: must lie in"),
])
def test_config_file_errors_name_the_file(tmp_path, capsys, text, fragment):
    cfg = tmp_path / "params.txt"
    cfg.write_text(text)
    assert main(["simulate", "--trajectories", "10", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"--config {str(cfg)!r}: " in err and fragment in err


_CONFIG_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "1e-320", "-1", "0", "2.5", "x"]),
    st.floats(0.0, 10.0).map(repr))
_CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(PARAM_FIELDS)), _CONFIG_VALUES).map(
        lambda kv: f"{kv[0]} = {kv[1]}".encode()),
    st.sampled_from([b"", b"# comment", b"junk", b"=", b"= 1", b"a = b = c",
                     b"lifetime = 3", b"t1_radiative = 1\xff\xfe", b"\x80\x81"]))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.lists(_CONFIG_LINES, max_size=6))
def test_fuzzed_config_files_never_raise(lines):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as cfg_dir, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        cfg = os.path.join(cfg_dir, "params.txt")
        with open(cfg, "wb") as fh:
            fh.write(b"\n".join(lines))
        code = main(["simulate", "--config", cfg, "--trajectories=20",
                     "--out", os.path.join(tmp, "o")])
        left = os.listdir(tmp)
    assert code in (0, 2, 3), (lines, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert left == (["o"] if code == 0 else []), (lines, left)


# -- simulate ------------------------------------------------------------------

def test_simulate_writes_csv_events_and_sidecar(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["simulate", "--trajectories", "50", "--seed", "4",
                 "--out", str(out)]) == 0
    stream = EventStream.from_csv(out / "events.csv", params=PhysicalParams(),
                                  sequence=sequence_for_pgen(1.0))
    direct = run(sequence_for_pgen(1.0), PhysicalParams(), 50, 4)
    assert len(stream) == len(direct) > 0
    meta = json.loads((out / "simulate.meta.json").read_text())
    assert meta["command"] == "simulate"
    assert meta["seed"] == 4
    assert meta["files"] == ["events.csv"]
    assert meta["options"]["trajectories"] == 50
    assert set(meta["params"]) == set(PARAM_FIELDS)
    capsys.readouterr()


def test_simulate_binary_round_trip(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["simulate", "--binary", "--trajectories", "40", "--seed", "6",
                 "--p-gen", "0.7", "--phase2", "0.25", "--out", str(out)]) == 0
    loaded = EventStream.from_binary(out / "events.bin")
    assert loaded.seed == 6
    assert loaded.n_trajectories == 40
    direct = run(sequence_for_pgen(0.7, phase2=0.25), PhysicalParams(), 40, 6)
    for name in direct.columns:
        assert np.array_equal(loaded.columns[name], direct.columns[name])
    capsys.readouterr()


def test_identical_invocations_produce_identical_bytes(tmp_path, capsys):
    args = ["simulate", "--trajectories", "60", "--seed", "9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("events.csv", "simulate.meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    capsys.readouterr()


# -- analysis subcommands --------------------------------------------------------

def test_visibility_sweep_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["visibility-sweep", "--trajectories", "800", "--points", "5",
                 "--mc-points", "2", "--scan-points", "8", "--t1", "100,250",
                 "--out", str(out)]) == 0
    curve = read_lines(out / "visibility_curve.csv")
    assert curve[0] == "p_gen,t1_ps,visibility"
    assert len(curve) == 1 + 5 * 2
    t1_seen = {float(ln.split(",")[1]) for ln in curve[1:]}
    assert t1_seen == {100.0, 250.0}
    mc = read_lines(out / "visibility_mc.csv")
    assert mc[0] == "p_gen,visibility,visibility_err,expected"
    assert len(mc) == 1 + 2
    capsys.readouterr()


def test_phase_qubits_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["phase-qubits", "--trajectories", "600", "--scan-points", "8",
                 "--phases", "0.5,1.0", "--seed", "2", "--out", str(out)]) == 0
    meta = json.loads((out / "phase-qubits.meta.json").read_text())
    assert meta["files"] == sorted(["fringe_reference.csv", "fringe_01.csv",
                                    "fringe_02.csv", "fits.csv", "bloch.csv"])
    fits = read_lines(out / "fits.csv")
    assert fits[0] == "programmed_rad,recovered_rad,visibility,visibility_err"
    assert len(fits) == 3
    for line, programmed in zip(fits[1:], (0.5, 1.0)):
        vals = [float(x) for x in line.split(",")]
        assert vals[0] == programmed
        assert abs(math.remainder(vals[1] - programmed, 2 * math.pi)) < 0.3
    bloch = read_lines(out / "bloch.csv")
    assert bloch[0] == "x,y,z,fidelity,visibility,phase_rad"
    assert len(bloch) == 3
    capsys.readouterr()


def test_wdm_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["wdm", "--trajectories", "3000", "--param", "p_hole_init=1",
                 "--out", str(out)]) == 0
    lines = read_lines(out / "recovery.csv")
    assert lines[0] == "filter,early_frac,late_frac,transmitted,total"
    assert len(lines) == 4
    red = lines[2].split(",")
    assert red[0] == "red"
    assert float(red[1]) > 0.95  # early fraction behind the red filter
    capsys.readouterr()


def test_g2_defaults_to_a_background_free_stream(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["g2", "--trajectories", "4000", "--out", str(out)]) == 0
    lines = read_lines(out / "g2.csv")
    assert lines[0] == "lag_periods,g2"
    by_lag = {int(ln.split(",")[0]): float(ln.split(",")[1]) for ln in lines[1:]}
    assert by_lag[0] == 0.0
    assert set(by_lag) == set(range(-5, 6))
    capsys.readouterr()


def test_g2_with_calibration(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["g2", "--trajectories", "3000", "--calibrate-g2", "0.05",
                 "--out", str(out)]) == 0
    meta = json.loads((out / "g2.meta.json").read_text())
    assert meta["options"]["calibrated_background"] > 0
    assert meta["params"]["background_rate"] == \
        meta["options"]["calibrated_background"]
    assert "calibrated background rate" in capsys.readouterr().out


def test_g2_calibration_uses_the_histogram_window(tmp_path, capsys, monkeypatch):
    seen = {}

    def fake_calibration(*args, **kwargs):
        seen.update(kwargs)
        return 0.01

    monkeypatch.setattr(cli, "calibrate_background_for_g2", fake_calibration)
    assert main(["g2", "--trajectories", "3000", "--calibrate-g2", "0.05",
                 "--window", "3", "--out", str(tmp_path / "o")]) == 0
    assert seen["window"] == 3
    capsys.readouterr()


def test_g2_needs_enough_statistics(tmp_path, capsys):
    assert main(["g2", "--trajectories", "1",
                 "--out", str(tmp_path / "o")]) == 3
    assert "error" in capsys.readouterr().err


def test_phase_qubits_without_photons_fails_cleanly(tmp_path, capsys):
    assert main(["phase-qubits", "--p-gen", "0", "--trajectories", "50",
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []  # neither --out nor its staging area


def test_phase_qubits_without_side_peak_photons_fails_cleanly(tmp_path, capsys):
    # Seed 4 gives both scans a fringe phase, but setpoint 1 routes none of
    # its 8 photons to a side peak.
    assert main(["phase-qubits", "--trajectories", "2", "--scan-points", "4",
                 "--phases", "0.5", "--param", "p_hole_init=1", "--seed", "4",
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "side-peak" in err
    assert list(tmp_path.iterdir()) == []


def test_g2_calibration_below_one_coincidence_fails_cleanly(tmp_path, capsys,
                                                           monkeypatch):
    calls = []
    real_run = measurement.run
    monkeypatch.setattr(measurement, "run",
                        lambda *a, **k: calls.append(1) or real_run(*a, **k))
    # the default 200,000 windows: the target is out of reach before any run
    assert main(["g2", "--calibrate-g2", "1e-15",
                 "--out", str(tmp_path / "o")]) == 3
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("param", ["p_hole_init=0", "t1_radiative=1e100"])
def test_g2_calibration_without_gated_photons_fails_cleanly(tmp_path, capsys,
                                                            param):
    # with no photon inside the gate no background rate reaches the target
    assert main(["g2", "--calibrate-g2", "0.01", "--param", param,
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "no photon reaches the gate" in err
    assert list(tmp_path.iterdir()) == []


def test_stray_rates_above_one_per_window_run(tmp_path, capsys):
    for argv in (["simulate", "--param", "background_rate=2"],
                 ["g2", "--background", "2"]):
        assert main(argv + ["--trajectories", "2000",
                            "--out", str(tmp_path / argv[0])]) == 0
    capsys.readouterr()


def test_g2_calibrates_a_target_above_the_old_rate_cap(tmp_path, capsys):
    # the closed-form rate, 0.207 per window, checked at a fresh seed
    assert main(["g2", "--calibrate-g2", "0.5", "--trajectories", "20000",
                 "--out", str(tmp_path / "o")]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    g2, se = (float(x) for x in line.split()[2:5:2])  # "g2(0) = X +- S (...)"
    assert abs(g2 - 0.5) < 5 * se


def test_g2_calibration_beyond_one_runs_memory_fails_cleanly(tmp_path):
    # the closed-form rate is near 157 background photons per window, 3.1e7
    # stray events at the default 200,000 windows; the address-space cap
    # turns a run that tried to hold them into a MemoryError instead of
    # exhausting the host's memory.  One-thread BLAS pools keep the import
    # of numpy and scipy far below the cap on hosts with many cores.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    cap = 2 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    threads = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, "-m", "timebinsim.cli", "g2", "--calibrate-g2", "0.99999",
         "--out", str(tmp_path / "o")],
        env={**os.environ, **threads, "PYTHONPATH": src}, preexec_fn=limit,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert "0.99999" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_g2_calibration_beyond_one_runs_memory_draws_nothing(tmp_path, capsys,
                                                            monkeypatch):
    # the bound is checked before the first run draws a single event
    def block(*args, **kwargs):
        raise AssertionError("a window was simulated")

    monkeypatch.setattr(montecarlo, "_simulate_block", block)
    assert main(["g2", "--calibrate-g2", "0.99999",
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "0.99999" in err and "stray events" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wdm_with_a_subnormal_fwhm_does_not_overflow(tmp_path, capsys):
    assert main(["wdm", "--fwhm", "5e-324", "--trajectories", "300",
                 "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()


def test_sigterm_discards_the_staged_output(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "timebinsim.cli", "phase-qubits",
         "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not os.listdir(tmp_path):  # wait for the staging directory
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode != 0
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []
