"""Exact combinatorial numbers: binomials, multinomials, bivariate Catalan
numbers and their relatives.

All arithmetic in this package is exact.  Integers are Python ints (arbitrary
precision) and rationals are ``fractions.Fraction`` (always reduced, positive
denominator).  Floating point is never used: most of the interesting values
here are dyadic rationals, and a float would silently absorb exactly the
powers of 2 the identities keep track of.

``LinearCombination`` is the one linear-combination core, the base of the
QSym, tensor and permutation-algebra elements.  ``from_terms`` takes each
integral coefficient from one bounded table of shared ``Fraction``s, one
object per value (safe, as Fractions are immutable), so that equal elements
compare their coefficients by identity.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

__all__ = [
    "as_fraction",
    "LinearCombination",
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
    """Coerce an exact value to Fraction: an int, a Fraction (returned as
    it is when its type is Fraction) or a string that Fraction reads
    exactly, such as "p/q", "-3", "0.5" or "1e-1".  Anything else raises
    TypeError.

    Floats are rejected: Fraction(0.1) would quietly encode the binary
    approximation, which is precisely the failure mode exact arithmetic is
    here to rule out.  So are Decimals, which may hold that approximation
    (Decimal(0.1)).  Bools are rejected too: True is an int to Fraction,
    but never a coefficient anyone meant.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
        raise TypeError(
            "refusing %s coefficient %r; use Fraction or an int"
            % (type(value).__name__, value)
        )
    return Fraction(value)


# a hopf-products pass makes about 30,900 integral coefficients of 41 values
_integral = lru_cache(maxsize=1024)(Fraction)


def _summand(c: Fraction):
    """c as an int when it is integral, else c itself."""
    return c.numerator if c.denominator == 1 else c


class LinearCombination:
    """A finite linear combination of basis keys with exact coefficients,
    stored as ``coeffs`` = {key: nonzero Fraction}, in the basis named by
    ``basis``.

    A subclass names its space by two class attributes: ``BASES``, the
    allowed basis names (None for a space with one basis), and ``key``, a
    function that validates one basis key.  The constructor validates each
    key, coerces each coefficient with as_fraction and drops zeros.
    ``terms`` reads the coefficients back with the integral ones as ints,
    and ``from_terms`` adds up terms with trusted keys; every producer of
    the package goes from the one to the other.  Arithmetic needs two
    elements of the same class (TypeError otherwise) and basis (ValueError
    otherwise); a scalar factor is an int or a Fraction (TypeError
    otherwise).
    """

    __slots__ = ("basis", "coeffs")
    BASES = (None,)

    def __init__(self, basis, coeffs=None):
        self.check_basis(basis)
        key = self.key
        clean = {}
        for k, c in (coeffs or {}).items():
            c = as_fraction(c)
            if c:
                clean[key(k)] = c
        self.basis = basis
        self.coeffs = clean

    @classmethod
    def check_basis(cls, basis):
        """Raise ValueError unless basis is one of the class's bases."""
        if basis not in cls.BASES:
            raise ValueError(
                "basis must be %s, got %r" % (" or ".join(map(repr, cls.BASES)), basis)
            )

    @classmethod
    def from_terms(cls, basis, terms):
        """The element sum c * B_key over an iterable of (key, c) terms,
        where c is an int or a Fraction; repeated keys add up.

        The keys are trusted: each must already be a valid key of the class
        (the constructor is the validating route).  Sums of int terms stay
        ints, and each nonzero sum becomes a Fraction at the end, the one
        shared Fraction of its value.  The basis is checked."""
        cls.check_basis(basis)
        total = {}
        for k, c in terms:
            if k in total:
                total[k] += c
            else:
                total[k] = c
        element = cls.__new__(cls)
        element.basis = basis
        element.coeffs = {
            k: c if type(c) is Fraction else _integral(c) for k, c in total.items() if c
        }
        return element

    @classmethod
    def bilinear(cls, basis, x, y, rule):
        """The bilinear extension of rule to x and y: the sum of
        a * b * count B_key over the terms (k, a) of x, (l, b) of y and
        the items (key, count) of rule(k, l), a {key: int multiplicity}
        mapping with trusted keys.  Integral coefficients multiply as ints."""

        def terms():
            y_terms = y.terms()
            for k, a in x.terms():
                for l, b in y_terms:
                    ab = a * b
                    for key, count in rule(k, l).items():
                        yield key, ab * count

        return cls.from_terms(basis, terms())

    def terms(self) -> list:
        """The (key, coefficient) pairs, each integral coefficient read as
        an int, so that products and sums of integral coefficients stay in
        int arithmetic."""
        return [(k, _summand(c)) for k, c in self.coeffs.items()]

    @classmethod
    def require(cls, x):
        """Raise TypeError unless x is an element of this very class."""
        if type(x) is not cls:
            raise TypeError("expected a %s, got %s" % (cls.__name__, type(x).__name__))

    def check_compatible(self, other):
        """Raise unless other is an element of the same class and basis."""
        self.require(other)
        if other.basis != self.basis:
            raise ValueError(
                "mixed-basis arithmetic (%s vs %s); convert explicitly"
                % (self.basis, other.basis)
            )

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.basis == self.basis
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.basis, frozenset(self.coeffs.items())))

    def __add__(self, other):
        self.check_compatible(other)
        return self.from_terms(self.basis, itertools.chain(self.terms(), other.terms()))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.from_terms(self.basis, ((k, -c) for k, c in self.terms()))

    def __mul__(self, scalar):
        # a scalar is an int or a Fraction, never a string to parse, a
        # float, a bool or a Decimal, in either operand order
        if not isinstance(scalar, (int, Fraction)) or isinstance(scalar, bool):
            raise TypeError(
                "no product of %s with %s" % (type(self).__name__, type(scalar).__name__)
            )
        c = _summand(scalar) if isinstance(scalar, Fraction) else scalar
        return self.from_terms(self.basis, ((k, v * c) for k, v in self.terms()))

    __rmul__ = __mul__


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for n >= 0; zero outside 0 <= k <= n.

    >>> binomial(4, 2), binomial(5, 0), binomial(3, 5), binomial(3, -1)
    (6, 1, 0, 0)
    """
    if type(n) is not int or type(k) is not int:
        raise ValueError("binomial needs plain ints, got (%r, %r)" % (n, k))
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
    if type(m) is not int or type(k) is not int:
        raise ValueError("falling_binomial needs plain ints, got (%r, %r)" % (m, k))
    return _falling_binomial(m, k)


# one verify --all --depth deep asks for about 160 distinct arguments
@lru_cache(maxsize=1024)
def _falling_binomial(m: int, k: int) -> int:
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
    if any(type(p) is not int or p < 0 for p in parts):
        raise ValueError("multinomial parts must be non-negative ints: %r" % (parts,))
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
    a nonzero remainder signals an arithmetic bug, not a caller error.  The
    arguments are validated on every call, before the cache is read, so a
    bool or float never reaches a cached int's entry.

    >>> bivariate_catalan(0, 0), bivariate_catalan(1, 1), bivariate_catalan(2, 3)
    (1, 2, 12)
    """
    if type(m) is not int or type(n) is not int or m < 0 or n < 0:
        raise ValueError("bivariate_catalan requires ints m, n >= 0, got (%r, %r)" % (m, n))
    return _bivariate_catalan(m, n)


# one verify --all --depth deep asks for about 1,300 distinct arguments
@lru_cache(maxsize=4096)
def _bivariate_catalan(m: int, n: int) -> int:
    num = factorial(2 * m) * factorial(2 * n)
    den = factorial(m) * factorial(m + n) * factorial(n)
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("bivariate_catalan(%d, %d): inexact division" % (m, n))
    return q


def central_binomial(m: int) -> int:
    """B(m) = C(2m, m), the central binomial coefficient, for an int m >= 0."""
    if type(m) is not int or m < 0:
        raise ValueError("central_binomial requires an int m >= 0, got %r" % (m,))
    return comb(2 * m, m)


def catalan(m: int) -> int:
    """The Catalan number C(2m, m) / (m + 1), for an int m >= 0."""
    if type(m) is not int or m < 0:
        raise ValueError("catalan requires an int m >= 0, got %r" % (m,))
    q, r = divmod(comb(2 * m, m), m + 1)
    if r:
        raise ArithmeticError("catalan(%d): inexact division" % m)
    return q


# family: the offsets (a, b) of C(2h + a, h + b)
_CENTRAL_OFFSETS = {1: (1, 1), 2: (0, 1), 3: (0, 0), 4: (1, 0)}


def central_catalan(family: int, h: int) -> Fraction:
    """The four families of central Catalan numbers, as exact halves of
    bivariate Catalan numbers:

        family 1: C(2h+1, h+1)/2    family 2: C(2h, h+1)/2
        family 3: C(2h, h)/2        family 4: C(2h+1, h)/2

    Returned as a Fraction because family 3 at h = 0 is 1/2.
    """
    if type(family) is not int or type(h) is not int:
        raise ValueError("central_catalan needs plain ints, got (%r, %r)" % (family, h))
    if family not in _CENTRAL_OFFSETS:
        raise ValueError("central_catalan family must be 1..4, got %r" % (family,))
    a, b = _CENTRAL_OFFSETS[family]
    return Fraction(bivariate_catalan(2 * h + a, h + b), 2)


def half_binomial(m: int, k: int) -> Fraction:
    """Binomial coefficient with half-integer top, C(m - 1/2, k), via the
    falling product (m - 1/2)(m - 3/2)...(m - 1/2 - k + 1) / k!.

    >>> half_binomial(0, 1), half_binomial(1, 0)
    (Fraction(-1, 2), Fraction(1, 1))
    """
    if type(m) is not int or type(k) is not int or k < 0:
        raise ValueError("half_binomial requires ints m and k >= 0, got (%r, %r)" % (m, k))
    num = 1
    for j in range(k):
        num *= 2 * m - 1 - 2 * j
    return Fraction(num, (1 << k) * factorial(k))


def two_adic_valuation(x: int) -> int:
    """Largest e with 2^e dividing x; x must be a nonzero int."""
    if type(x) is not int:
        raise ValueError("two_adic_valuation needs a plain int, got %r" % (x,))
    if x == 0:
        raise ValueError("two_adic_valuation(0) is undefined")
    return (x & -x).bit_length() - 1


def binary_digit_sum(m: int) -> int:
    """Number of 1 bits in the binary expansion of an int m >= 0."""
    if type(m) is not int or m < 0:
        raise ValueError("binary_digit_sum requires an int m >= 0, got %r" % (m,))
    return m.bit_count()
