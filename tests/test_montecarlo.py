import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import Generator, Philox, SeedSequence
from scipy import stats
from scipy.special import ndtri

from timebinsim import (EventStream, LaserId, Origin, PhysicalParams,
                        PulseSequence, ResonantPulse, ValidationError,
                        filter_transmission, generate_state, measurement,
                        montecarlo, run, two_pulse_sequence)
from timebinsim.core import format_float
from timebinsim.dynamics import sequence_drives
from timebinsim.montecarlo import (CODE_BY_ORIGIN, ORIGIN_BY_CODE,
                                   RESET_FLASH_ENERGY_UEV)

from oracle_values import C_HALF_PI, C_PI


def _columns_equal(a: EventStream, b: EventStream) -> bool:
    # bitwise: np.array_equal ignores the sign of -0.0 and fails on nan
    return a.columns.keys() == b.columns.keys() and all(
        a.columns[k].dtype == b.columns[k].dtype
        and a.columns[k].tobytes() == b.columns[k].tobytes() for k in a.columns)


def test_same_seed_is_bit_identical(params):
    seq = two_pulse_sequence()
    s1 = run(seq, params, 5000, seed=42)
    s2 = run(seq, params, 5000, seed=42)
    assert _columns_equal(s1, s2)
    s3 = run(seq, params, 5000, seed=43)
    assert not _columns_equal(s1, s3)


@pytest.mark.parametrize("chunk_size", [1, 777, 1023])
def test_chunk_size_never_changes_the_result(params, chunk_size):
    seq = two_pulse_sequence()
    heavy = replace(params, background_rate=2.5, reset_flash_rate=1.5)
    for cfg in (params, heavy):
        whole = run(seq, cfg, 4096, seed=7)
        chunked = run(seq, cfg, 4096, seed=7, chunk_size=chunk_size)
        assert _columns_equal(whole, chunked)


def test_longer_run_extends_a_shorter_one(params):
    # every window reads its own draws of the source stream, and stray
    # events are drawn in window order, so a longer run extends a shorter
    # one window for window, stray events included
    seq = two_pulse_sequence()
    cfg = replace(params, background_rate=2.5, reset_flash_rate=1.5)
    short = run(seq, cfg, 1000, seed=3)
    longer = run(seq, cfg, 1777, seed=3)
    assert _columns_equal(short, longer.subset(longer.columns["trajectory_id"] < 1000))


_BLUE_LATE = PulseSequence(
    pulses=(ResonantPulse(intensity=1.0, phase=0.3, detuning=-9.55),
            ResonantPulse(intensity=4.0, phase=2.2, laser_id=LaserId.BLUE,
                          detuning=9.55)),
    random_interlaser_phase=True)


def _philox(*key: int) -> Generator:
    return Generator(Philox(SeedSequence(list(key))))


@pytest.mark.parametrize("chunk_size", [1 << 17, 777])
def test_events_take_consecutive_uniforms_of_their_stream(params, chunk_size):
    n, seed = 3000, 21
    cfg = replace(params, background_rate=2.5, reset_flash_rate=1.5)
    stream = run(_BLUE_LATE, cfg, n, seed=seed, chunk_size=chunk_size)
    window = cfg.window_ps(2)
    # a flash event reads one uniform (phase), a background event three
    # (time, phase, energy), in (window, j) order: the first N rows, no more
    for origin, width in ((Origin.RESET_FLASH, 1), (Origin.BACKGROUND, 3)):
        got = stream.subset(stream.origin_mask(origin)).columns
        count = np.bincount(got["trajectory_id"], minlength=n)
        u = _philox(seed, CODE_BY_ORIGIN[origin]).random((int(count.sum()), width))
        traj = np.repeat(np.arange(n), count)
        if origin is Origin.RESET_FLASH:
            t, phase_u = np.zeros(len(u)), u[:, 0]
            energy = np.full(len(u), RESET_FLASH_ENERGY_UEV)
        else:
            t, phase_u = window * u[:, 0], u[:, 1]
            energy = cfg.spin_splitting * (2.0 * u[:, 2] - 1.0)
        order = np.lexsort((t, traj))
        assert np.array_equal(got["trajectory_id"], traj[order])
        assert np.array_equal(got["timestamp_ps"], t[order])
        assert np.array_equal(got["energy_uev"], energy[order])
        assert np.array_equal(got["phase_rad"], 2.0 * np.pi * phase_u[order])
    # a window emits at most one photon, so the photons stand in window
    # order; each reads the next five uniforms of the photon key: origin,
    # decay, jitter, then kick and inter-laser phase if coherent, phase and
    # energy if not
    got = stream.subset(stream.photon_mask).columns
    origin_u, decay_u, jitter_u, u3, u4 = _philox(seed, montecarlo._PHOTONS).random(
        (len(got["origin"]), 5)).T
    b = got["bin_index"]
    cfrac = np.array([d.coherent_fraction for d in sequence_drives(_BLUE_LATE, cfg)])
    coherent = origin_u < cfrac[b]
    assert np.array_equal(got["origin"] == CODE_BY_ORIGIN[Origin.COHERENT_RAMAN],
                          coherent)
    t = np.maximum(b * cfg.bin_separation_ps - cfg.t1_radiative * np.log1p(-decay_u)
                   + cfg.detector_jitter * ndtri(np.clip(jitter_u, 1e-12, 1 - 1e-12)),
                   0.0)
    assert np.array_equal(got["timestamp_ps"], t)
    inc = ~coherent
    assert np.array_equal(got["phase_rad"][inc], 2.0 * np.pi * u3[inc])
    assert np.array_equal(got["energy_uev"][inc],
                          0.5 * cfg.cavity_linewidth * np.tan(np.pi * (u4[inc] - 0.5)))
    assert np.array_equal(got["energy_uev"][coherent],
                          np.array([-9.55, 9.55])[b[coherent]])
    # the kick rides on the late bin, the inter-laser phase on the blue one
    kick = ndtri(np.clip(u3, 1e-12, 1 - 1e-12)) * np.sqrt(
        2.0 * cfg.bin_separation / cfg.t2_spin)
    late = kick + 2.0 * np.pi * u4
    phase = np.array([0.3, 2.2])[b] + np.where(b == 1, late, -late)
    assert np.allclose(np.exp(1j * got["phase_rad"][coherent]),
                       np.exp(1j * phase[coherent]), rtol=0, atol=1e-12)


def test_run_streams_never_alias(params, monkeypatch):
    keys = []

    def keyed(*entropy):
        keys.append(entropy)
        return _philox(*entropy)

    monkeypatch.setattr(montecarlo, "_keyed_rng", keyed)
    seed = 5
    run(two_pulse_sequence(), params, 10, seed=seed)
    # the window, photon, reset-flash and background streams
    assert len(keys) == 4 and all(k[0] == seed for k in keys)
    first = {_philox(*k).random() for k in keys}
    assert len(first) == 4


def test_a_final_zero_counts_only_past_four_words():
    keyed = montecarlo._keyed_rng
    # SeedSequence pads its pool of four 32-bit words with zeros: a photon key
    # of 0 would draw the window stream, even under the largest master seed
    assert keyed(7, 2, 3, 0).random() == keyed(7, 2, 3).random()
    assert keyed(2 ** 64 - 1, 0).random() == keyed(2 ** 64 - 1).random()
    # and mixes in every word past it
    assert keyed(7, 2, 3, 4, 0).random() != keyed(7, 2, 3, 4).random()
    key = (7, measurement._TAG_FILTER, measurement._bits(-9.55), measurement._bits(5.0))
    assert keyed(*key, 0).random() != keyed(*key).random()
    # the filter draws from its key with the final 0
    energy = np.linspace(-20.0, 20.0, 1000)
    expected = keyed(*key, 0).random(1000) < filter_transmission(energy, -9.55, 5.0, 0.0)
    assert np.array_equal(measurement._filter_keep(7, energy, -9.55, 5.0, 0.0), expected)


@st.composite
def _unsorted_events(draw):
    """Columns that stress the sort: trajectory ids in any order or in
    stream order with some events delayed by one bin (as ``michelson``
    leaves them), many equal (trajectory, time) pairs and clamped t = 0."""
    n = draw(st.integers(0, 40))
    traj = np.array(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)), np.int64)
    t = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.5, 1.5, 80.0, 2.0e3]),
                               min_size=n, max_size=n)))
    if draw(st.booleans()):
        order = np.lexsort((t, traj))
        traj, t = traj[order], t[order]
        delayed = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
        t = t + 100.0 * delayed
    return traj, t


@settings(derandomize=True, max_examples=300)
@given(_unsorted_events())
@example((np.empty(0, np.int64), np.empty(0)))
@example((np.array([3], np.int64), np.array([0.0])))
def test_sort_applies_the_lexsort_permutation(events):
    traj, t = events
    cols = {"trajectory_id": traj, "timestamp_ps": t,
            "energy_uev": np.arange(len(t), dtype=np.float64)}
    stream = EventStream(params=PhysicalParams(), sequence=two_pulse_sequence(),
                         seed=0, n_trajectories=7, columns=dict(cols))
    expected = np.lexsort((t, traj))
    assert np.array_equal(stream._sort(), expected)
    for key, values in cols.items():
        assert np.array_equal(stream.columns[key], values[expected])


@pytest.mark.parametrize("rate", [0.05, 0.7, 3.0])
def test_stray_counts_per_window_are_poisson(clean_params, rate):
    n = 20_000
    cfg = replace(clean_params, p_hole_init=0.0, background_rate=rate,
                  reset_flash_rate=rate)
    stream = run(two_pulse_sequence(), cfg, n, seed=31)
    for origin in (Origin.RESET_FLASH, Origin.BACKGROUND):
        per_window = np.bincount(
            stream.columns["trajectory_id"][stream.origin_mask(origin)], minlength=n)
        # pool the upper tail into one cell holding at least 5 expected windows
        top = int(stats.poisson.isf(5.0 / n, rate))
        observed = np.bincount(np.minimum(per_window, top), minlength=top + 1)
        expected = n * np.r_[stats.poisson.pmf(np.arange(top), rate),
                             stats.poisson.sf(top - 1, rate)]
        chi2 = stats.chisquare(observed, expected)
        assert chi2.pvalue > 1e-3, (origin, rate, observed, expected)


def test_importing_the_package_leaves_scipy_stats_unloaded():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    subprocess.run(
        [sys.executable, "-c",
         "import timebinsim, sys; assert 'scipy.stats' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)


def test_full_drive_emits_exactly_one_photon_per_window(clean_params):
    n = 20_000
    stream = run(two_pulse_sequence(), clean_params, n, seed=1)
    photons = stream.subset(stream.photon_mask)
    counts = np.bincount(photons.columns["trajectory_id"], minlength=n)
    assert counts.min() == 1 and counts.max() == 1
    early = np.mean(photons.columns["bin_index"] == 0)
    assert abs(early - 0.5) < 3 * np.sqrt(0.25 / n)


def test_at_most_one_photon_at_any_drive(clean_params):
    stream = run(two_pulse_sequence(scale=0.3), clean_params, 10_000, seed=2)
    photons = stream.subset(stream.photon_mask)
    counts = np.bincount(photons.columns["trajectory_id"], minlength=10_000)
    assert counts.max() <= 1


@pytest.mark.parametrize("scale", [0.3, 1.0])
@pytest.mark.parametrize("p_hole_init", [0.5, 1.0])
def test_window_outcomes_follow_the_closed_form_state(clean_params, scale, p_hole_init):
    n = 100_000
    cfg = replace(clean_params, p_hole_init=p_hole_init)
    seq = two_pulse_sequence(scale=scale)
    stream = run(seq, cfg, n, seed=17)
    bins = stream.subset(stream.photon_mask).columns["bin_index"]
    state = generate_state(seq, cfg)
    early, late = int(np.sum(bins == 0)), int(np.sum(bins == 1))
    for k, p in ((early, state.p_early), (late, state.p_late),
                 (n - early - late, 1.0 - state.p_early - state.p_late)):
        sigma = np.sqrt(n * p * (1.0 - p))
        # a share of 0 or 1 must come out exactly
        assert abs(k - n * p) <= max(4.0 * sigma, 0.5), (k, n * p, sigma)


def test_hole_preparation_thins_every_trajectory(params):
    n = 20_000
    stream = run(two_pulse_sequence(), params, n, seed=3)  # p_hole_init = 0.5
    photons = stream.subset(stream.photon_mask)
    frac = len(photons) / n
    assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / n)


def test_origin_split_matches_coherent_fractions(clean_params):
    n = 40_000
    stream = run(two_pulse_sequence(), clean_params, n, seed=4)
    photons = stream.subset(stream.photon_mask)
    coh = photons.origin_mask(Origin.COHERENT_RAMAN)
    for bin_index, expected in ((0, C_HALF_PI), (1, C_PI)):
        sel = photons.columns["bin_index"] == bin_index
        frac = float(np.mean(coh[sel]))
        sigma = np.sqrt(expected * (1 - expected) / sel.sum())
        assert abs(frac - expected) < 3 * sigma


def test_emission_times_follow_radiative_decay(clean_params):
    quiet = replace(clean_params, detector_jitter=0.0)
    stream = run(two_pulse_sequence(), quiet, 8000, seed=5)
    photons = stream.subset(stream.photon_mask)
    t = photons.columns["timestamp_ps"]
    bins = photons.columns["bin_index"]
    delays = np.concatenate([t[bins == 0], t[bins == 1] - 1500.0])
    assert delays.min() >= 0
    assert abs(delays.mean() - 250.0) < 3 * 250.0 / np.sqrt(delays.size)
    ks = stats.kstest(delays, "expon", args=(0, 250.0))
    assert ks.pvalue > 0.01


def test_coherent_energy_is_the_pulse_detuning(clean_params):
    seq = PulseSequence(pulses=tuple(replace(p, detuning=-9.55)
                                     for p in two_pulse_sequence().pulses))
    stream = run(seq, clean_params, 4000, seed=6)
    coh = stream.subset(stream.origin_mask(Origin.COHERENT_RAMAN))
    assert np.all(coh.columns["energy_uev"] == -9.55)
    inc = stream.subset(stream.origin_mask(Origin.INCOHERENT_DECAY))
    # Lorentzian line: half the incoherent energies within one half-width
    inside = np.mean(np.abs(inc.columns["energy_uev"]) < clean_params.cavity_linewidth / 2)
    assert abs(inside - 0.5) < 3 * np.sqrt(0.25 / len(inc))


def test_reset_flash_properties(params):
    n = 30_000
    stream = run(two_pulse_sequence(), params, n, seed=7)
    flash = stream.subset(stream.origin_mask(Origin.RESET_FLASH))
    assert np.all(flash.columns["timestamp_ps"] == 0.0)
    assert np.all(flash.columns["energy_uev"] == RESET_FLASH_ENERGY_UEV)
    assert not np.any(stream.photon_mask & stream.origin_mask(Origin.RESET_FLASH))
    rate = len(flash) / n
    assert abs(rate - params.reset_flash_rate) < 3 * np.sqrt(params.reset_flash_rate / n)


def test_background_only_stream(clean_params):
    cfg = replace(clean_params, p_hole_init=0.0, background_rate=0.5)
    n = 20_000
    stream = run(two_pulse_sequence(), cfg, n, seed=8)
    assert np.all(stream.origin_mask(Origin.BACKGROUND))
    t = stream.columns["timestamp_ps"]
    window = cfg.window_ps(2)
    assert t.min() >= 0 and t.max() < window
    assert abs(len(stream) / n - 0.5) < 3 * np.sqrt(0.5 / n)
    bins = stream.columns["bin_index"]
    assert set(np.unique(bins)) <= {0, 1}


def test_silent_configuration_yields_empty_stream(clean_params):
    seq = PulseSequence(pulses=(ResonantPulse(intensity=0.0),
                                ResonantPulse(intensity=0.0)))
    stream = run(seq, clean_params, 1000, seed=9)
    assert len(stream) == 0
    assert len(run(two_pulse_sequence(), clean_params, 0, seed=9)) == 0


def test_events_are_sorted(params):
    stream = run(two_pulse_sequence(), params, 500, seed=10)
    traj = stream.columns["trajectory_id"]
    t = stream.columns["timestamp_ps"]
    assert np.all(np.diff(traj) >= 0)
    same = np.diff(traj) == 0
    assert np.all(np.diff(t)[same] >= 0)


def test_csv_round_trip_is_exact(tmp_path, params):
    seq = two_pulse_sequence()
    stream = run(seq, params, 300, seed=12)
    path = tmp_path / "events.csv"
    stream.to_csv(path)
    back = EventStream.from_csv(path, params=params, sequence=seq,
                                seed=stream.seed,
                                n_trajectories=stream.n_trajectories)
    assert _columns_equal(stream, back)
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ValueError, match="header"):
        EventStream.from_csv(bad, params=params, sequence=seq)


_EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2, np.finfo(np.float64).max,
                np.nan, np.inf, -np.inf]


def _edge_stream(n: int = len(_EDGE_FLOATS)) -> EventStream:
    """Events whose columns hold every edge-case float and integer."""
    x = np.resize(np.array(_EDGE_FLOATS), n)
    traj = np.arange(n, dtype=np.int64)
    traj[-1:] = np.iinfo(np.int64).max
    bins = np.resize(np.array([0, 1, -1, np.iinfo(np.int32).max], np.int32), n)
    cols = {"trajectory_id": traj, "timestamp_ps": x, "energy_uev": x[::-1].copy(),
            "origin": (np.arange(n) % len(ORIGIN_BY_CODE)).astype(np.uint8),
            "phase_rad": np.roll(x, 3), "bin_index": bins}
    return EventStream(params=PhysicalParams(), sequence=two_pulse_sequence(),
                       seed=0, n_trajectories=n, columns=cols)


def _read_csv(path) -> EventStream:
    return EventStream.from_csv(path, params=PhysicalParams(),
                                sequence=two_pulse_sequence(), n_trajectories=0)


def test_csv_writes_every_float_as_format_float(tmp_path):
    stream = _edge_stream()
    path = tmp_path / "edge.csv"
    stream.to_csv(path)
    c = stream.columns
    rows = [",".join(montecarlo._RECORD.names)] + [
        f"{c['trajectory_id'][i]},{format_float(c['timestamp_ps'][i])},"
        f"{format_float(c['energy_uev'][i])},{ORIGIN_BY_CODE[int(c['origin'][i])].value},"
        f"{format_float(c['phase_rad'][i])},{c['bin_index'][i]}" for i in range(len(stream))]
    assert path.read_text() == "\n".join(rows) + "\n"
    assert _columns_equal(_read_csv(path), stream)


def test_csv_bytes_do_not_depend_on_the_write_chunk(tmp_path, monkeypatch):
    stream = _edge_stream(23)
    stream.to_csv(tmp_path / "whole.csv")
    monkeypatch.setattr(montecarlo, "_CSV_CHUNK", 4)
    stream.to_csv(tmp_path / "chunked.csv")
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_csv_reads_empty_and_one_event_files(tmp_path):
    for n in (0, 1):
        path = tmp_path / f"{n}.csv"
        _edge_stream(n).to_csv(path)
        assert len(path.read_text().splitlines()) == 1 + n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = _read_csv(path)
        assert _columns_equal(back, _edge_stream(n))


@pytest.mark.parametrize("row, match", [
    ("3,1.5,0.0,Background,0.25", "5 were found at row"),
    ("3,1.5,0.0,Background,0.25,1,7", "7 were found at row"),
    ("3,fast,0.0,Background,0.25,1", "'fast' .*at row"),
    ("3.5,1.5,0.0,Background,0.25,1", "'3.5' .*at row"),
    ("3,1.5,0.0,Background,0.25,4294967296", "'4294967296' .*at row"),
    ("3,1.5,0.0,Laser,0.25,1", "'Laser' .*at row"),
])
def test_csv_rejects_a_bad_row_by_number(tmp_path, row, match):
    path = tmp_path / "bad.csv"
    header = ",".join(montecarlo._RECORD.names)
    path.write_text(f"{header}\n0,1.0,2.0,CoherentRaman,0.5,0\n\n{row}\n")
    with pytest.raises(ValueError, match=f"malformed event CSV .*bad.csv: .*{match}"):
        _read_csv(path)


def test_binary_round_trip_restores_provenance(tmp_path, params):
    seq = two_pulse_sequence(phase2=1.1)
    stream = run(seq, params, 300, seed=13)
    path = tmp_path / "events.bin"
    stream.to_binary(path)
    back = EventStream.from_binary(path)
    assert _columns_equal(stream, back)
    assert back.params == params
    assert back.sequence == seq
    assert back.seed == 13
    assert back.n_trajectories == 300
    with pytest.raises(ValueError, match="binary"):
        (tmp_path / "junk.bin").write_bytes(b"XXXXXX")
        EventStream.from_binary(tmp_path / "junk.bin")
    whole = path.read_bytes()
    hlen = int.from_bytes(whole[4:8], "little")
    # a header that still carries the retired two-bin keys loads unchanged
    meta = json.loads(whole[8:8 + hlen])
    meta["sequence"].update(n_bins=2, reset_before=True)
    for i, pulse in enumerate(meta["sequence"]["pulses"]):
        pulse["bin_index"] = i
    header = json.dumps(meta, sort_keys=True).encode()
    old = tmp_path / "old.bin"
    old.write_bytes(b"TBQ1" + len(header).to_bytes(4, "little") + header
                    + whole[8 + hlen:])
    back = EventStream.from_binary(old)
    assert _columns_equal(stream, back)
    assert (back.params, back.sequence, back.seed) == (params, seq, 13)
    # cut inside the header length, the header, the count and the records
    for cut in (6, 8 + hlen // 2, 8 + hlen + 4, len(whole) - 1):
        short = tmp_path / f"short{cut}.bin"
        short.write_bytes(whole[:cut])
        with pytest.raises(ValueError, match="truncated"):
            EventStream.from_binary(short)
    # a first record whose origin byte names no Origin
    unknown = bytearray(whole)
    unknown[16 + hlen + montecarlo._RECORD.fields["origin"][1]] = 7
    (tmp_path / "origin7.bin").write_bytes(bytes(unknown))
    with pytest.raises(ValueError, match="malformed event-stream binary file"):
        EventStream.from_binary(tmp_path / "origin7.bin")
    # headers that parse but break an invariant of the params or sequence
    def edited(change):
        meta = json.loads(whole[8:8 + hlen])
        change(meta["params"], meta["sequence"]["pulses"])
        return json.dumps(meta).encode()

    invalid = (edited(lambda params, pulses: params.update(t1_radiative=-250.0)),
               edited(lambda params, pulses: pulses[0].update(intensity=-1.0)),
               edited(lambda params, pulses: pulses.append(pulses[0])))
    for header in (b"{}", b"[1]", b"xx", *invalid):
        bad = tmp_path / "bad_header.bin"
        bad.write_bytes(b"TBQ1" + len(header).to_bytes(4, "little") + header
                        + (0).to_bytes(8, "little"))
        with pytest.raises(ValueError, match="malformed event-stream header"):
            EventStream.from_binary(bad)


def test_run_bounds_its_expected_stray_events(params, monkeypatch):
    class Drawn(Exception):
        pass

    def block(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(montecarlo, "_simulate_block", block)
    bound = montecarlo._MAX_STRAY_EVENTS
    seq = two_pulse_sequence()
    # (background + reset flash) x windows, just under and just over the bound
    under = replace(params, background_rate=bound / 1000 - 0.2)
    with pytest.raises(Drawn):
        run(seq, under, 1000, seed=0)
    over = replace(params, background_rate=bound / 1000)
    with pytest.raises(ValidationError, match="stray events"):
        run(seq, over, 1000, seed=0)
    with pytest.raises(ValidationError, match="stray events"):
        run(seq, replace(params, reset_flash_rate=1.0), int(bound) + 1, seed=0)


def test_run_peaks_near_the_size_of_its_stream():
    # each block is sorted as it comes and the columns are joined one at a
    # time, so the run never holds its events much more than once
    cfg = replace(PhysicalParams(), background_rate=2.0)
    run(two_pulse_sequence(), cfg, 1000, seed=1)  # keeps one-off set-up out of the peak
    tracemalloc.start()
    try:
        stream = run(two_pulse_sequence(), cfg, 300_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(column.nbytes for column in stream.columns.values())
    assert peak <= 2.5 * held, peak / held


def test_run_validates_inputs(params, clean_params):
    with pytest.raises(ValueError):
        run(two_pulse_sequence(), params, -1, seed=0)
    for cfg in (clean_params, params):
        for chunk_size in (0, -1):
            with pytest.raises(ValueError, match="chunk_size"):
                run(two_pulse_sequence(), cfg, 10, seed=1, chunk_size=chunk_size)
    with pytest.raises(ValidationError, match="t1_radiative"):
        run(two_pulse_sequence(), PhysicalParams(t1_radiative=-1.0), 10, seed=0)
