import math
import random
from fractions import Fraction

import pytest

from erdosmat.rational import (
    as_rational, format_ratio, format_rational, parse_ratio, parse_rational,
)


def test_parse_reduces():
    assert parse_rational("3/6") == Fraction(1, 2)
    q = parse_rational("3/6")
    assert (q.numerator, q.denominator) == (1, 2)


def test_parse_zero_normalization():
    q = parse_rational("-0/5")
    assert (q.numerator, q.denominator) == (0, 1)


def test_parse_plain_and_negative():
    assert parse_rational("7/5") == Fraction(7, 5)
    assert parse_rational("-12") == Fraction(-12)
    assert parse_rational("  7/5 ") == Fraction(7, 5)


@pytest.mark.parametrize("bad", ["", "1.5", "abc", "--1", "1/-2", "1/2/3", "1 / 2"])
def test_parse_malformed(bad):
    with pytest.raises(ValueError, match="malformed"):
        parse_rational(bad)


@pytest.mark.parametrize("bad", ["\u0663/\u0664", "\uff11", "1/\uff12", "\u0967", "1_000"])
def test_parse_rejects_non_ascii_digits(bad):
    # int() accepts these; the grammar is ASCII p and p/q
    with pytest.raises(ValueError, match="malformed rational literal"):
        parse_rational(bad)
    with pytest.raises(ValueError, match="malformed rational literal"):
        parse_ratio(bad)


def test_parse_ratio_reduced_pairs():
    assert parse_ratio("3/6") == (1, 2)
    assert parse_ratio("-0/5") == (0, 1)
    assert parse_ratio("-12") == (-12, 1)
    assert parse_ratio(" -10/4 ") == (-5, 2)
    with pytest.raises(ValueError, match="zero denominator in rational literal '3/0'"):
        parse_ratio("3/0")
    rng = random.Random(5)
    for _ in range(200):
        p, q = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        f = Fraction(p, q)
        assert parse_ratio(f"{p}/{q}") == (f.numerator, f.denominator)


def test_parse_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("3/0")


def test_format():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(0) == "0"
    # integer pairs print in lowest terms, as their Fraction does
    for p in range(-12, 13):
        for q in range(1, 13):
            assert format_ratio(p, q) == format_rational(Fraction(p, q))
    assert format_ratio(6 * 10**20, 4 * 10**20) == "3/2"


def test_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert parse_rational(format_rational(q)) == q


def test_field_axioms_exact():
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = (
            Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if b != 0:
            assert (a / b) * b == a


def test_results_always_reduced():
    rng = random.Random(13)
    for _ in range(100):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        for q in (a + b, a - b, a * b):
            assert math.gcd(q.numerator, q.denominator) == 1
            assert q.denominator > 0


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError, match="exact rational"):
        as_rational(0.5)


def test_as_rational_accepts_int_fraction_str():
    assert as_rational(3) == Fraction(3)
    assert as_rational("3/9") == Fraction(1, 3)
    assert as_rational(Fraction(2, 4)) == Fraction(1, 2)
