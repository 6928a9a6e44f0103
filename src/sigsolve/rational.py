"""Helpers for exact rationals: parsing, rendering, decimal square roots,
integers over a common denominator.

All quantities in this package are `fractions.Fraction`; floats never enter
any computation. Decimal output exists purely for human-readable rendering.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

SIGNIFICANT_DIGITS = 12


def numerators(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """The values times the lcm of their denominators, and that lcm."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def parse_rational(token: str) -> Fraction:
    """Parse 'p/q', an integer, or a decimal literal into a Fraction."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {token!r}") from exc


def format_compact(value: Fraction) -> str:
    """Exact decimal when the denominator is 2^a*5^b, else 'p/q'.

    Mirrors the usual table style: 9/10 prints as 0.9, 29/10 as 2.9. Such a
    denominator divides 10^bit_length, so the quotient is exact at this precision.
    """
    num, den = value.numerator, value.denominator
    if 10 ** den.bit_length() % den:
        return str(value)
    with localcontext() as ctx:
        ctx.prec = len(str(abs(num))) + den.bit_length()
        return format(Decimal(num) / Decimal(den), "f")


def sqrt_decimal(square: Fraction) -> str:
    """Decimal rendering of sqrt(square) to SIGNIFICANT_DIGITS digits."""
    if square < 0:
        raise ValueError("square root of a negative rational")
    if square == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = SIGNIFICANT_DIGITS + 20
        root = (Decimal(square.numerator) / Decimal(square.denominator)).sqrt()
    return format(root, f".{SIGNIFICANT_DIGITS}g")
