import ast
import math
from decimal import Decimal
from pathlib import Path

import mpmath as mp
import pytest

import oracle_mpmath

_SOURCE = Path(__file__).with_name("oracle_values.py").read_text()


def _stated_literals() -> dict[str, str]:
    """Each constant's number exactly as written in oracle_values.py; a dict
    constant gives one ``NAME[key]`` entry per item."""
    stated = {}
    for node in ast.parse(_SOURCE).body:
        if not isinstance(node, ast.Assign):
            continue
        name = node.targets[0].id
        if isinstance(node.value, ast.Dict):
            for key, value in zip(node.value.keys, node.value.values):
                stated[f"{name}[{key.value!r}]"] = ast.get_source_segment(_SOURCE, value)
        else:
            stated[name] = ast.get_source_segment(_SOURCE, node.value)
    return stated


def _recomputed() -> dict[str, object]:
    flat = {}
    for name, value in oracle_mpmath.values().items():
        if isinstance(value, dict):
            flat.update({f"{name}[{key!r}]": v for key, v in value.items()})
        else:
            flat[name] = value
    return flat


STATED = _stated_literals()
RECOMPUTED = _recomputed()


def test_the_script_covers_every_constant():
    assert sorted(STATED) == sorted(RECOMPUTED)


@pytest.mark.parametrize("name", sorted(STATED))
def test_constant_matches_the_mpmath_script_to_its_stated_digits(name):
    """Within half a unit of the last stated digit, plus the one rounding of
    the true value to a double that a shortest repr may carry."""
    literal = Decimal(STATED[name])
    half_unit = Decimal(5).scaleb(literal.as_tuple().exponent - 1)
    value = RECOMPUTED[name]
    slack = Decimal(math.ulp(float(value)))
    error = abs(Decimal(mp.nstr(value, 40, strip_zeros=False)) - literal)
    assert error <= half_unit + slack, (name, mp.nstr(value, 20), STATED[name])
