"""Exact-rational helpers: coercion, common denominators, scaled integers."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wfalab import ExactnessError, common_denominator, frac, scaled_int

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


def test_frac_accepts_exact_inputs():
    assert frac(3) == Fraction(3)
    assert frac("3/4") == Fraction(3, 4)
    assert frac("-7") == Fraction(-7)
    assert frac(Fraction(5, 6)) == Fraction(5, 6)


def test_frac_rejects_floats_and_bools():
    with pytest.raises(ExactnessError):
        frac(0.5)
    with pytest.raises(ExactnessError):
        frac(True)


def test_common_denominator_is_lcm():
    assert common_denominator([Fraction(1, 4), Fraction(5, 6), Fraction(2)]) == 12
    assert common_denominator([Fraction(3)]) == 1


def test_scaled_int_exact_and_guarded():
    assert scaled_int(Fraction(3, 4), 8) == 6
    assert scaled_int(Fraction(-5), 3) == -15
    with pytest.raises(ExactnessError):
        scaled_int(Fraction(1, 3), 4)


@given(st.lists(rationals, min_size=1, max_size=8))
def test_common_denominator_clears_every_value(vals):
    scale = common_denominator(vals)
    assert scale >= 1
    for v in vals:
        assert scaled_int(v, scale) == v * scale
