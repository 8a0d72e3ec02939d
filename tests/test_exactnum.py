from fractions import Fraction

import pytest

from qsymx import exactnum as en


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
    for m, n in ((True, 1), (1, False), (2.0, 1)):
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
