import math

import pytest
from hypothesis import given, strategies as st

from timebinsim import (BlochVector, ConfigError, LaserId, PhysicalParams,
                        PulseSequence, ResonantPulse, TimeBinState,
                        ValidationError, load_params, purity_bound,
                        save_params, validate)
from timebinsim.core import format_float, parse_params_text


def test_default_params_are_valid(params):
    validate(params)  # must not raise


def test_validation_reports_all_violations_at_once():
    bad = PhysicalParams(t1_radiative=-1.0, p_hole_init=2.0, background_rate=-0.5)
    with pytest.raises(ValidationError) as err:
        validate(bad)
    text = str(err.value)
    assert "t1_radiative" in text
    assert "p_hole_init" in text
    assert "background_rate" in text
    assert len(err.value.violations) == 3


def test_pulse_must_fit_inside_a_bin():
    with pytest.raises(ValidationError, match="pulse_duration"):
        validate(PhysicalParams(pulse_duration=2000.0, bin_separation=1.5))


def test_unit_helpers(params):
    assert params.t2_spin_ps == 6000.0
    assert params.bin_separation_ps == 1500.0
    assert params.gamma == pytest.approx(1 / 250.0)
    assert params.window_ps(2) == 3000.0


def test_params_dict_round_trip(params):
    assert PhysicalParams.from_dict(params.to_dict()) == params


def test_params_from_dict_rejects_unknown_keys(params):
    d = params.to_dict()
    d["t1_radiatve"] = 250.0  # typo
    with pytest.raises(ConfigError, match="t1_radiatve"):
        PhysicalParams.from_dict(d)


def test_parse_params_text_defaults_and_comments():
    p = parse_params_text("# comment only\n\nt1_radiative = 100  # trailing\n")
    assert p.t1_radiative == 100.0
    assert p.t2_spin == 6.0  # untouched default


@pytest.mark.parametrize("text,fragment", [
    ("t1_radiative 100", "expected 'name = value'"),
    ("t1_radiative = fast", "not a number"),
    ("lifetime = 100", "unknown parameter keys: lifetime"),
])
def test_parse_params_text_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_params_text(text)


def test_param_file_round_trip(tmp_path, params):
    path = tmp_path / "params.txt"
    save_params(params, path)
    assert load_params(path) == params


def test_load_params_validates(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text("t1_radiative = -3\n")
    with pytest.raises(ValidationError):
        load_params(path)


# -- pulse programs ---------------------------------------------------------

def _pulse(laser=LaserId.RED, **kw):
    return ResonantPulse(intensity=1.0, laser_id=laser, **kw)


def test_sequence_round_trip():
    seq = PulseSequence(pulses=(_pulse(), _pulse(LaserId.BLUE, phase=0.3)),
                        random_interlaser_phase=True)
    validate(seq)
    assert seq.n_bins == 2
    assert PulseSequence.from_dict(seq.to_dict()) == seq


def test_sequence_rejects_double_booking():
    # two bins hold two pulses; a third would share a bin with another
    seq = PulseSequence(pulses=(_pulse(), _pulse(), _pulse()))
    with pytest.raises(ValidationError, match="pulses: need two pulses"):
        validate(seq)
    # a second colour does not make room for a second pulse in one bin
    with pytest.raises(ValidationError, match="pulses: need two pulses"):
        validate(PulseSequence(pulses=(_pulse(), _pulse(), _pulse(LaserId.BLUE))))


def test_sequence_rejects_out_of_range_bin():
    # a pulse's position is its bin: positions past (early, late) are out of
    # range, and a single pulse leaves the late bin without one
    for pulses in ((_pulse(),), (_pulse(), _pulse(), _pulse())):
        with pytest.raises(ValidationError, match="pulses: need two pulses"):
            validate(PulseSequence(pulses=pulses))


def test_negative_intensity_is_reported_with_bin_prefix():
    seq = PulseSequence(pulses=(_pulse(), ResonantPulse(intensity=-2.0)))
    with pytest.raises(ValidationError, match=r"pulses\[1\].intensity"):
        validate(seq)
    for bad in (math.inf, math.nan):
        assert ResonantPulse(intensity=bad).violations() == [
            "intensity: must be finite and >= 0"]


# -- states -----------------------------------------------------------------

def test_state_purity_examples():
    validate(TimeBinState(p_early=0.5, p_late=0.5, coherence=0.389))
    validate(TimeBinState(p_early=0.5, p_late=0.5, coherence=0.5))  # boundary
    with pytest.raises(ValidationError, match="coherence"):
        validate(TimeBinState(p_early=0.5, p_late=0.5, coherence=0.6))


def test_state_occupation_cap():
    with pytest.raises(ValidationError, match="total occupation"):
        validate(TimeBinState(p_early=0.7, p_late=0.4))


def test_purity_bound_value():
    assert purity_bound(TimeBinState(p_early=0.32, p_late=0.5)) == pytest.approx(0.4)


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 2 * math.pi))
def test_states_on_the_purity_boundary_validate(p0, rest, arg):
    p1 = (1 - p0) * rest
    mag = purity_bound(TimeBinState(p_early=p0, p_late=p1))
    state = TimeBinState(p_early=p0, p_late=p1,
                         coherence=mag * complex(math.cos(arg), math.sin(arg)))
    assert state.violations() == []


def test_bloch_vector_geometry():
    v = BlochVector(0.6, 0.0, 0.8)
    assert v.norm == pytest.approx(1.0)
    assert v.dot(BlochVector(1, 0, 0)) == pytest.approx(0.6)
    n = BlochVector(3, 0, 4).normalized()
    assert (n.x, n.z) == pytest.approx((0.6, 0.8))
    with pytest.raises(ValueError):
        BlochVector(0, 0, 0).normalized()
    with pytest.raises(ValidationError):
        validate(BlochVector(1.1, 0, 0))
    validate(BlochVector(1.0000005, 0, 0))  # inside the fit slack


def test_validate_rejects_plain_objects():
    with pytest.raises(TypeError):
        validate(object())


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x
