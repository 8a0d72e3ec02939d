from decimal import Decimal
from fractions import Fraction

import pytest

from qsymx import exactnum as en


def test_as_fraction_reads_exact_values_only():
    for value, expected in ((3, 3), (Fraction(1, 3), Fraction(1, 3)), ("-3/6", Fraction(-1, 2)),
                            ("-3", -3), ("0.5", Fraction(1, 2)), ("1e-1", Fraction(1, 10))):
        assert en.as_fraction(value) == expected and type(en.as_fraction(value)) is Fraction
    # Decimal(0.1) holds the binary approximation of 0.1; a Decimal is
    # refused whatever it holds, as a float and a bool are
    for bad in (0.5, True, Decimal(0.1), Decimal("0.1"), Decimal(2), None, [1]):
        with pytest.raises(TypeError, match="refusing"):
            en.as_fraction(bad)
    with pytest.raises(ValueError):
        en.as_fraction("0.1.2")


def test_binomial_basic():
    assert en.binomial(4, 2) == 6
    assert en.binomial(5, 0) == 1
    assert en.binomial(3, 5) == 0
    assert en.binomial(3, -1) == 0
    with pytest.raises(ValueError):
        en.binomial(-1, 0)


def test_falling_binomial_negative_top():
    assert en.falling_binomial(-1, 3) == -1
    assert en.falling_binomial(-2, 2) == 3
    assert en.falling_binomial(2, 1) == 2
    assert en.falling_binomial(5, -1) == 0
    # agrees with the ordinary binomial on non-negative tops
    for n in range(8):
        for k in range(10):
            assert en.falling_binomial(n, k) == en.binomial(n, k)


def test_falling_binomial_rejects_non_int_arguments():
    for m, k in ((3.0, 2), (3, 2.0), (True, 1), (Fraction(3), 2)):
        with pytest.raises(ValueError, match="plain ints"):
            en.falling_binomial(m, k)
    # True == 1.0 == 1 hash alike, so the check must come before the cache
    assert en.falling_binomial(1, 1) == 1
    for m in (True, 1.0):
        with pytest.raises(ValueError, match="plain ints"):
            en.falling_binomial(m, 1)


def test_multinomial():
    assert en.multinomial([1, 1, 1]) == 6
    assert en.multinomial([2, 0, 0]) == 1
    assert en.multinomial([2, 1, 1]) == 12  # 4!/2!
    assert en.multinomial([]) == 1
    with pytest.raises(ValueError):
        en.multinomial([2, -1])


def test_multinomial_rejects_a_bool_part():
    for parts in ([True, 1], [2, 1.0]):
        with pytest.raises(ValueError, match="non-negative ints"):
            en.multinomial(parts)


def test_bivariate_catalan_rejects_a_bool():
    # True == 1 and 2.0 == 2 hash as the ints do: the arguments are checked
    # before the cache, which already holds (1, 1) and (2, 1)
    assert (en.bivariate_catalan(1, 1), en.bivariate_catalan(2, 1)) == (2, 4)
    for m, n in ((True, 1), (1, False), (2.0, 1), (-1, 2)):
        with pytest.raises(ValueError, match="requires ints"):
            en.bivariate_catalan(m, n)


def test_bivariate_catalan_small():
    assert en.bivariate_catalan(0, 0) == 1
    assert en.bivariate_catalan(1, 1) == 2
    assert en.bivariate_catalan(2, 3) == 12


def test_bivariate_catalan_symmetry():
    for m in range(21):
        for n in range(21):
            assert en.bivariate_catalan(m, n) == en.bivariate_catalan(n, m)


def test_bivariate_catalan_parity():
    for total in range(1, 41):
        for m in range(total + 1):
            assert en.bivariate_catalan(m, total - m) % 2 == 0


def test_central_binomial_and_catalan():
    assert en.central_binomial(0) == 1
    assert en.central_binomial(2) == 6
    assert en.catalan(3) == 5
    assert [en.catalan(m) for m in range(6)] == [1, 1, 2, 5, 14, 42]


def test_specializations():
    for n in range(41):
        assert en.bivariate_catalan(0, n) == en.binomial(2 * n, n)
        assert en.bivariate_catalan(1, n) == 2 * en.catalan(n)


def test_central_catalan():
    assert en.central_catalan(3, 1) == 2
    assert en.central_catalan(1, 0) == 1
    assert en.central_catalan(3, 0) == Fraction(1, 2)
    with pytest.raises(ValueError):
        en.central_catalan(5, 0)
    # closed binomial forms of the four families
    for h in range(12):
        assert en.central_catalan(1, h) == en.binomial(4 * h + 2, h)
        assert en.central_catalan(2, h) == Fraction(
            (2 * h + 1) * en.binomial(4 * h + 1, h), 4 * h + 1
        )
        assert en.central_catalan(3, h) == Fraction(en.binomial(4 * h, h), 2)
        assert en.central_catalan(4, h) == en.binomial(4 * h + 1, h)


def test_half_binomial():
    assert en.half_binomial(0, 1) == Fraction(-1, 2)
    assert en.half_binomial(1, 0) == 1
    assert (-1) * 4 * en.half_binomial(0, 1) == 2 == en.bivariate_catalan(0, 1)


def test_half_binomial_rejects_a_bool():
    for m, k in ((True, 1), (1, True), (0.5, 1)):
        with pytest.raises(ValueError, match="requires ints"):
            en.half_binomial(m, k)


def test_half_binomial_bridge():
    for m in range(16):
        for n in range(16):
            expected = (-1) ** n * 4 ** (m + n) * en.half_binomial(m, m + n)
            assert expected == en.bivariate_catalan(m, n)


def test_two_adic_valuation_and_digit_sum():
    assert en.two_adic_valuation(12) == 2
    assert en.binary_digit_sum(5) == 2
    assert en.two_adic_valuation(en.bivariate_catalan(2, 3)) == 2
    with pytest.raises(ValueError):
        en.two_adic_valuation(0)


def test_integer_functions_reject_what_is_not_a_plain_int():
    # True == 1 and 2.0 == 2, but neither is an int anyone meant
    calls = {
        en.binomial: [(True, 1), (3, True), (4.0, 2), (Fraction(4), 2)],
        en.central_binomial: [(True,), (2.0,), (Fraction(2),)],
        en.catalan: [(True,), (3.0,)],
        en.central_catalan: [(True, 2), (1, False), (1.0, 2), (1, 2.0)],
        en.two_adic_valuation: [(True,), (12.0,), (Fraction(12),)],
        en.binary_digit_sum: [(True,), (5.0,)],
    }
    for function, cases in calls.items():
        for args in cases:
            with pytest.raises(ValueError, match=function.__name__):
                function(*args)
    # a negative argument is reported as the caller gave it
    for function in (en.central_binomial, en.catalan, en.binary_digit_sum):
        message = r"%s requires an int m >= 0, got -1$" % function.__name__
        with pytest.raises(ValueError, match=message):
            function(-1)
    assert en.central_catalan(1, 2) == en.binomial(10, 2) == 45


def test_two_adic_valuation_structure():
    for total in range(1, 41):
        digit_sum = en.binary_digit_sum(total)
        legendre = 0
        t = total
        while t:
            legendre += t
            t //= 2
        for p in range(total + 1):
            value = en.bivariate_catalan(p, total - p)
            assert en.two_adic_valuation(value) == digit_sum
            reduced = Fraction(value, 4 ** total)
            assert reduced.denominator == 2 ** legendre
            assert reduced.numerator % 2 == 1
