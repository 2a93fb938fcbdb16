"""Deterministic rendering helpers shared by reports and the CLI."""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat

from .indices import MAX_EXACT_DIGITS, IndexValue

_TOO_LONG = 10**MAX_EXACT_DIGITS  # the least int with more than MAX_EXACT_DIGITS digits


def format_fraction(value) -> str:
    """Exact rational as ``p/q`` (or plain ``p`` for integers).

    A numerator or denominator longer than ``MAX_EXACT_DIGITS`` digits is
    refused with a ``ValueError``, whatever the interpreter's own limit on
    printing ints, so the output never depends on that setting.
    """
    frac = Fraction(value)
    if abs(frac.numerator) >= _TOO_LONG or frac.denominator >= _TOO_LONG:
        raise ValueError(f"exact value too long to print: more than {MAX_EXACT_DIGITS} digits")
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def format_decimal(value) -> str:
    """Decimal rendering with 12 significant digits."""
    return f"{float(value):.12g}"


def format_index_value(value: IndexValue) -> str:
    if value.exact:
        return f"{format_fraction(value.value)} ({format_decimal(value.value)})"
    return format_decimal(value.value)


def format_sequence(runs) -> str:
    """Rendering of maximal runs: ((7, 1), (4, 1), (2, 3), (1, 3)) -> ``[7, 4, 2^3, 1^3]``."""
    parts = (f"{value}^{count}" if count > 1 else f"{value}" for value, count in runs)
    return "[" + ", ".join(parts) + "]"


def plain_sequence(runs) -> str:
    """Space-separated rendering of every entry, used inside CSV fields."""
    return " ".join(" ".join(repeat(str(value), count)) for value, count in runs)
