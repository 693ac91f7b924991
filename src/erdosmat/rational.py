"""Exact rational scalars and their text form.

Every scalar this package returns is a ``fractions.Fraction``: stored
reduced, with a positive denominator, so equal values always have an
identical representation and comparisons are exact.  Matrices hold
integer numerators over one common denominator instead (see ``linalg``)
and build ``Fraction`` entries only when asked.  There is no
floating-point mode anywhere in the core; decimals appear only as
optional *additional* renderings in the CLI.

This module owns the text grammar shared by matrix files, JSON payloads
and the CLI: ``p`` or ``p/q`` in ASCII digits, with an optional leading
minus and a nonzero denominator (``3/6`` parses to ``1/2``, ``-0/5`` to
``0``).  ``parse_ratio`` reads a literal as a reduced integer pair and
``parse_rational`` as a ``Fraction``; ``format_ratio`` writes an integer
pair back in lowest terms, so a matrix prints from its numerators and
scale.  The matrix parser matches whole lines of literals against the
same ``_RATIONAL_RE`` and calls ``parse_ratio`` only to word an error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

Rational = Fraction

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_ratio(text: str) -> tuple:
    """Parse a ``p`` or ``p/q`` literal into ``(p, q)`` in lowest terms, q > 0."""
    token = text.strip()
    m = _RATIONAL_RE.fullmatch(token)
    if m is None:
        raise ValueError(f"malformed rational literal {token!r}")
    numerator, denominator = m.groups()
    if denominator is None:
        return int(numerator), 1
    denominator = int(denominator)
    if denominator == 0:
        raise ValueError(f"zero denominator in rational literal {token!r}")
    numerator = int(numerator)
    g = gcd(numerator, denominator)
    return numerator // g, denominator // g


def parse_rational(text: str) -> Fraction:
    """Parse a ``p`` or ``p/q`` literal into a reduced Fraction."""
    return Fraction(*parse_ratio(text))


def format_rational(value: Fraction | int) -> str:
    """Render a rational as ``p`` or ``p/q``, never as a decimal."""
    q = as_rational(value)
    return format_ratio(q.numerator, q.denominator)


def format_ratio(p: int, q: int) -> str:
    """Render the integer ratio p / q, for q > 0, as ``p`` or ``p/q`` in lowest terms."""
    g = gcd(p, q)
    if g == q:
        return str(p // g)
    return f"{p // g}/{q // g}"


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction or literal string to a Fraction.

    Floats are rejected: silently promoting binary floating point would
    break the exactness guarantee of everything downstream.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")
