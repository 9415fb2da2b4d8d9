"""Small helpers for exact rational arithmetic.

The whole engine works in fractions.Fraction.  Floats are rejected at the
boundary instead of being silently converted, because a single float sneaking
in would poison every downstream equality check.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import ExactnessError


def frac(value) -> Fraction:
    """Coerce ints, strings like "3/4", and Fractions to Fraction.

    Floats raise ExactnessError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ExactnessError(f"expected an exact rational, got bool {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExactnessError(f"cannot parse {value!r} as a rational") from exc
    raise ExactnessError(
        f"expected an exact rational, got {type(value).__name__} {value!r}"
    )


def common_denominator(values: Iterable[Fraction]) -> int:
    """lcm of the denominators of ``values`` (1 for an empty iterable)."""
    out = 1
    for v in values:
        out = lcm(out, v.denominator)
    return out


def scaled_int(value: Fraction, scale: int) -> int:
    """Return value * scale as an int; the caller guarantees divisibility."""
    num = value.numerator * scale
    if num % value.denominator:
        raise ExactnessError(f"{value} does not scale to an integer at {scale}")
    return num // value.denominator
