"""Exact combinatorial numbers: binomials, multinomials, bivariate Catalan
numbers and their relatives.

All arithmetic in this package is exact.  Integers are Python ints (arbitrary
precision) and rationals are ``fractions.Fraction`` (always reduced, positive
denominator).  Floating point is never used: most of the interesting values
here are dyadic rationals, and a float would silently absorb exactly the
powers of 2 the identities keep track of.
"""

from fractions import Fraction
from math import comb, factorial

__all__ = [
    "as_fraction",
    "binomial",
    "falling_binomial",
    "multinomial",
    "bivariate_catalan",
    "central_binomial",
    "catalan",
    "central_catalan",
    "half_binomial",
    "two_adic_valuation",
    "binary_digit_sum",
]


def as_fraction(value) -> Fraction:
    """Coerce an exact value (int, Fraction, or "p/q" string) to Fraction.
    A Fraction is returned as it is.

    Floats are rejected: Fraction(0.1) would quietly encode the binary
    approximation, which is precisely the failure mode exact arithmetic is
    here to rule out.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            "refusing float coefficient %r; use Fraction or an int" % (value,)
        )
    return Fraction(value)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for n >= 0; zero outside 0 <= k <= n.

    >>> binomial(4, 2), binomial(5, 0), binomial(3, 5), binomial(3, -1)
    (6, 1, 0, 0)
    """
    if n < 0:
        raise ValueError("binomial requires n >= 0, got n=%d" % n)
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def falling_binomial(m: int, k: int) -> int:
    """Generalized binomial coefficient with integer (possibly negative) top:
    m (m-1) ... (m-k+1) / k!.  Zero for k < 0.

    >>> falling_binomial(-1, 3), falling_binomial(-3, 2), falling_binomial(2, 1)
    (-1, 6, 2)
    """
    if k < 0:
        return 0
    num = 1
    for j in range(k):
        num *= m - j
    q, r = divmod(num, factorial(k))
    if r:
        raise ArithmeticError("falling_binomial(%d, %d) is not an integer" % (m, k))
    return q


def multinomial(parts) -> int:
    """Multinomial coefficient (sum parts)! / prod(part!)."""
    parts = list(parts)
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be non-negative: %r" % (parts,))
    result = 1
    total = 0
    for p in parts:
        total += p
        result *= comb(total, p)
    return result


def bivariate_catalan(m: int, n: int) -> int:
    """The bivariate Catalan number C(m, n) = (2m)! (2n)! / (m! (m+n)! n!).

    Computed by the factorial formula so it can serve as an independent
    oracle for the recursions it satisfies.  The division is asserted exact;
    a nonzero remainder signals an arithmetic bug, not a caller error.

    >>> bivariate_catalan(0, 0), bivariate_catalan(1, 1), bivariate_catalan(2, 3)
    (1, 2, 12)
    """
    if m < 0 or n < 0:
        raise ValueError("bivariate_catalan requires m, n >= 0")
    num = factorial(2 * m) * factorial(2 * n)
    den = factorial(m) * factorial(m + n) * factorial(n)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("bivariate_catalan(%d, %d): inexact division" % (m, n))
    return q


def central_binomial(m: int) -> int:
    """B(m) = C(2m, m), the central binomial coefficient."""
    return binomial(2 * m, m)


def catalan(m: int) -> int:
    """The Catalan number C(2m, m) / (m + 1)."""
    q, r = divmod(binomial(2 * m, m), m + 1)
    if r:
        raise ArithmeticError("catalan(%d): inexact division" % m)
    return q


def central_catalan(family: int, h: int) -> Fraction:
    """The four families of central Catalan numbers, as exact halves of
    bivariate Catalan numbers:

        family 1: C(2h+1, h+1)/2    family 2: C(2h, h+1)/2
        family 3: C(2h, h)/2        family 4: C(2h+1, h)/2

    Returned as a Fraction because family 3 at h = 0 is 1/2.
    """
    if family == 1:
        value = bivariate_catalan(2 * h + 1, h + 1)
    elif family == 2:
        value = bivariate_catalan(2 * h, h + 1)
    elif family == 3:
        value = bivariate_catalan(2 * h, h)
    elif family == 4:
        value = bivariate_catalan(2 * h + 1, h)
    else:
        raise ValueError("central_catalan family must be 1..4, got %r" % (family,))
    return Fraction(value, 2)


def half_binomial(m: int, k: int) -> Fraction:
    """Binomial coefficient with half-integer top, C(m - 1/2, k), via the
    falling product (m - 1/2)(m - 3/2)...(m - 1/2 - k + 1) / k!.

    >>> half_binomial(0, 1), half_binomial(1, 0)
    (Fraction(-1, 2), Fraction(1, 1))
    """
    if k < 0:
        raise ValueError("half_binomial requires k >= 0")
    num = 1
    for j in range(k):
        num *= 2 * m - 1 - 2 * j
    return Fraction(num, (1 << k) * factorial(k))


def two_adic_valuation(x: int) -> int:
    """Largest e with 2^e dividing x; x must be nonzero."""
    if x == 0:
        raise ValueError("two_adic_valuation(0) is undefined")
    return (x & -x).bit_length() - 1


def binary_digit_sum(m: int) -> int:
    """Number of 1 bits in the binary expansion of m >= 0."""
    if m < 0:
        raise ValueError("binary_digit_sum requires m >= 0")
    return m.bit_count()
