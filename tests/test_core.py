import math
import numbers
from dataclasses import asdict, fields, replace

import pytest
from hypothesis import given, strategies as st

from timebinsim import (BlochVector, ConfigError, LaserId, PhysicalParams,
                        PulseSequence, ResonantPulse, TimeBinState,
                        ValidationError, WdmSpec, load_params, purity_bound)
from timebinsim.core import format_float, parse_params_text


def test_default_params_are_valid(params):
    assert params.violations() == []


def test_validation_reports_all_violations_at_once():
    with pytest.raises(ValidationError) as err:
        PhysicalParams(t1_radiative=-1.0, p_hole_init=2.0, background_rate=-0.5)
    text = str(err.value)
    assert "t1_radiative" in text
    assert "p_hole_init" in text
    assert "background_rate" in text
    assert len(err.value.violations) == 3


def test_pulse_must_fit_inside_a_bin():
    with pytest.raises(ValidationError, match="pulse_duration"):
        PhysicalParams(pulse_duration=2000.0, bin_separation=1.5)


def test_unit_helpers(params):
    assert params.bin_separation_ps == 1500.0
    assert params.gamma == pytest.approx(1 / 250.0)
    assert params.window_ps(2) == 3000.0


def test_params_dict_round_trip(params):
    assert PhysicalParams.from_dict(asdict(params)) == params


def test_params_from_dict_rejects_unknown_keys(params):
    d = asdict(params)
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
    ("t1_radiative = 100\nt1_radiative = 200", "line 2: duplicate key 't1_radiative'"),
])
def test_parse_params_text_errors(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_params_text(text)


def test_param_file_round_trip(tmp_path):
    params = PhysicalParams(t1_radiative=123.456, p_hole_init=0.1 + 0.2)
    path = tmp_path / "params.txt"
    path.write_text("".join(f"{name} = {value!r}  # note\n"
                            for name, value in asdict(params).items()))
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
    assert seq.n_bins == 2
    assert PulseSequence.from_dict(asdict(seq)) == seq


def test_sequence_rejects_double_booking():
    # two bins hold two pulses; a third would share a bin with another
    with pytest.raises(ValidationError, match="pulses: need two pulses"):
        PulseSequence(pulses=(_pulse(), _pulse(), _pulse()))
    # a second colour does not make room for a second pulse in one bin
    with pytest.raises(ValidationError, match="pulses: need two pulses"):
        PulseSequence(pulses=(_pulse(), _pulse(), _pulse(LaserId.BLUE)))


def test_sequence_rejects_out_of_range_bin():
    # a pulse's position is its bin: positions past (early, late) are out of
    # range, and a single pulse leaves the late bin without one
    for pulses in ((_pulse(),), (_pulse(), _pulse(), _pulse())):
        with pytest.raises(ValidationError, match="pulses: need two pulses"):
            PulseSequence(pulses=pulses)


def test_bad_intensity_is_reported_by_field():
    for bad in (-2.0, math.inf, math.nan):
        with pytest.raises(ValidationError) as err:
            ResonantPulse(intensity=bad)
        assert err.value.violations == ["intensity: must be finite and >= 0"]


# -- states -----------------------------------------------------------------

def test_state_purity_examples():
    TimeBinState(p_early=0.5, p_late=0.5, coherence=0.389)
    TimeBinState(p_early=0.5, p_late=0.5, coherence=0.5)  # boundary
    with pytest.raises(ValidationError, match="coherence"):
        TimeBinState(p_early=0.5, p_late=0.5, coherence=0.6)


def test_state_occupation_cap():
    with pytest.raises(ValidationError, match="total occupation"):
        TimeBinState(p_early=0.7, p_late=0.4)


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
    n = BlochVector(0.3, 0, 0.4).normalized()
    assert (n.x, n.z) == pytest.approx((0.6, 0.8))
    with pytest.raises(ValueError):
        BlochVector(0, 0, 0).normalized()
    with pytest.raises(ValidationError):
        BlochVector(1.1, 0, 0)
    BlochVector(1.0000005, 0, 0)  # inside the fit slack


@pytest.mark.parametrize("valid,name,bad", [
    (PhysicalParams(), "p_hole_init", 2.0),
    (PhysicalParams(), "t1_radiative", 1e-200),
    (ResonantPulse(intensity=1.0), "intensity", -1.0),
    (PulseSequence(pulses=(_pulse(), _pulse())), "pulses", (_pulse(),)),
    (TimeBinState(p_early=0.5, p_late=0.5), "coherence", 0.6),
    (BlochVector(1.0, 0.0, 0.0), "x", 1.1),
    (WdmSpec(), "locked_phase", math.nan),
    (PhysicalParams(), "p_hole_init", "0.5"),
    (ResonantPulse(intensity=1.0), "intensity", "1"),
    (PulseSequence(pulses=(_pulse(), _pulse())), "pulses", (1, 2)),
    (TimeBinState(p_early=0.5, p_late=0.5), "coherence", math.nan),
    (BlochVector(1.0, 0.0, 0.0), "x", math.nan),
    (PulseSequence(pulses=(_pulse(), _pulse())), "pulses", None),
    (WdmSpec(), "locked_phase", "x"),
    (ResonantPulse(intensity=1.0), "laser_id", "Red"),
], ids=["params", "t1", "pulse", "sequence", "state", "bloch", "wdm", "params-str",
        "pulse-str", "sequence-ints", "state-nan", "bloch-nan", "sequence-none",
        "wdm-str", "pulse-laser-str"])
def test_invalid_values_cannot_be_constructed(valid, name, bad):
    kwargs = {f.name: getattr(valid, f.name) for f in fields(valid)}
    for build in (lambda: type(valid)(**{**kwargs, name: bad}),
                  lambda: replace(valid, **{name: bad})):
        with pytest.raises(ValidationError) as err:
            build()
        assert any(name in v.split(":")[0] for v in err.value.violations)


_ALL_SET = (PhysicalParams(), ResonantPulse(intensity=1.0),
            PulseSequence(pulses=(_pulse(), _pulse())),
            TimeBinState(p_early=0.5, p_late=0.5, coherence=0.1j),
            BlochVector(1.0, 0.0, 0.0), WdmSpec(locked_phase=0.4))


@pytest.mark.parametrize("valid,name", [
    (valid, f.name) for valid in _ALL_SET for f in fields(valid)
    if isinstance(getattr(valid, f.name), numbers.Number)
    and not isinstance(getattr(valid, f.name), bool)
], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_a_string_in_any_number_field_is_a_validation_error(valid, name):
    with pytest.raises(ValidationError) as err:
        replace(valid, **{name: "0.5"})
    assert [v.split(":")[0] for v in err.value.violations] == [name]


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x
