"""Reference decimal formatter: the ``Fraction`` round trip that
``rrsim.metrics._format`` replaced with integer arithmetic on the
numerator and denominator.

``round_half_up`` scales, floors and compares a ``Fraction`` remainder;
``format_decimal`` scales the rounded value back up and pads its digits.
The differential test in ``test_metrics.py`` requires the shipped
``format_average`` and ``format_percent`` to produce the same text.
"""
from __future__ import annotations

from fractions import Fraction


def round_half_up(value: Fraction, digits: int) -> Fraction:
    """Round to ``digits`` decimals, halves away from zero."""
    sign = -1 if value < 0 else 1
    scale = 10 ** digits
    scaled = abs(value) * scale
    whole = scaled.numerator // scaled.denominator
    if (scaled - whole) * 2 >= 1:
        whole += 1
    return Fraction(sign * whole, scale)


def format_decimal(value: Fraction, digits: int) -> str:
    rounded = round_half_up(value, digits)
    scaled = rounded * 10 ** digits
    text = str(abs(int(scaled))).rjust(digits + 1, "0")
    sign = "-" if rounded < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:]}"
