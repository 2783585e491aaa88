"""Exact rational conversion and formatting.

All distances in this package are `fractions.Fraction` values.  Floats
are rejected everywhere: the library's decisions hinge on exact equality
(for example "does this entry equal the diameter"), which binary
rounding would silently corrupt.  Decimal strings like "1.5" parse
exactly (denominator a power of ten).

Parsed values are bounded: a short token such as "1e100000000" would
otherwise force a huge integer, and a numerator or denominator longer
than Python's int-to-string limit could be read but never emitted.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# Python's default limit for int <-> str conversion: a longer numerator
# or denominator could not be emitted.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS


def parse_rational(token: str) -> Fraction:
    """Parse "p/q", an integer, or a decimal string into an exact Fraction.

    Raises ParseError when the numerator or denominator would exceed
    MAX_DIGITS digits; an exponent beyond MAX_DIGITS is refused before
    any integer is built.
    """
    text = token.strip()
    _, marker, exponent = text.lower().partition("e")
    if marker:
        digits = exponent.lstrip("+-").lstrip("0")
        if len(digits) > len(str(MAX_DIGITS)) or (
            digits.isdecimal() and int(digits) > MAX_DIGITS
        ):
            raise ParseError(
                f"exponent of {token!r} is beyond the {MAX_DIGITS}-digit limit"
            )
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {token!r}") from exc
    if abs(value.numerator) >= _TOO_LONG or value.denominator >= _TOO_LONG:
        raise ParseError(f"{token!r} has more than {MAX_DIGITS} digits")
    return value


def as_rational(value: Fraction | int | str) -> Fraction:
    """Coerce ints, strings, and Fractions to Fraction; refuse floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(
        f"expected an exact rational (Fraction, int, or string), got {type(value).__name__}: "
        f"{value!r}; floats are rejected to keep arithmetic exact"
    )


def positive_rational(value: Fraction | int | str, what: str) -> Fraction:
    """Coerce like `as_rational`, then refuse zero and negative values."""
    r = as_rational(value)
    if r <= ZERO:
        raise ValueError(f"{what} must be positive, got {format_rational(r)}")
    return r


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p" or "p/q"; round trips through parse_rational."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
