import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from timebinsim import (EventStream, Origin, PhysicalParams, PulseSequence,
                        ResonantPulse, montecarlo, run, two_pulse_sequence)
from timebinsim.montecarlo import RESET_FLASH_ENERGY_UEV

from oracle_values import C_HALF_PI, C_PI


def _columns_equal(a: EventStream, b: EventStream) -> bool:
    return all(np.array_equal(a.columns[k], b.columns[k]) for k in a.columns)


def test_same_seed_is_bit_identical(params):
    seq = two_pulse_sequence()
    s1 = run(seq, params, 5000, seed=42)
    s2 = run(seq, params, 5000, seed=42)
    assert _columns_equal(s1, s2)
    s3 = run(seq, params, 5000, seed=43)
    assert not _columns_equal(s1, s3)


def test_chunk_size_never_changes_the_result(params):
    seq = two_pulse_sequence()
    whole = run(seq, params, 4096, seed=7)
    chunked = run(seq, params, 4096, seed=7, chunk_size=777)
    assert _columns_equal(whole, chunked)


def test_draw_block_is_counter_aligned():
    assert montecarlo._WIDTH % 4 == 0


@pytest.mark.parametrize("cap", [montecarlo._FLASH_CAP, montecarlo._BG_CAP])
def test_poisson_table_matches_scipy(cap):
    k = np.arange(cap + 1)
    for rate in np.linspace(0.0, 1.0, 2001)[1:]:
        np.testing.assert_allclose(montecarlo._poisson_cdf(rate, cap),
                                   stats.poisson.cdf(k, rate), rtol=0, atol=1e-14)


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


def test_rates_beyond_the_poisson_cap_are_rejected(clean_params):
    with pytest.raises(ValueError, match="background_rate"):
        run(two_pulse_sequence(), replace(clean_params, background_rate=1.5),
            10, seed=0)
    with pytest.raises(ValueError, match="reset_flash_rate"):
        run(two_pulse_sequence(), replace(clean_params, reset_flash_rate=2.0),
            10, seed=0)


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
    for header in (b"{}", b"[1]", b"xx"):
        bad = tmp_path / "bad_header.bin"
        bad.write_bytes(b"TBQ1" + len(header).to_bytes(4, "little") + header
                        + (0).to_bytes(8, "little"))
        with pytest.raises(ValueError, match="malformed event-stream header"):
            EventStream.from_binary(bad)


def test_run_validates_inputs(params):
    with pytest.raises(ValueError):
        run(two_pulse_sequence(), params, -1, seed=0)
    bad = PhysicalParams(t1_radiative=-1.0)
    with pytest.raises(Exception):
        run(two_pulse_sequence(), bad, 10, seed=0)
