"""Characters on quasi-symmetric functions: closed-form evaluators for the
canonical family, and the truncated convolution group used as an
independent oracle.

Closed forms and the oracle share no code on purpose.  The closed-form
evaluators are direct arithmetic in terms of bivariate Catalan numbers; the
oracle side only knows the universal character's defining values and three
operations of the convolution group: the product, the quotient a^-1 b and
the square root.  It splits phi = phi_+ phi_- into even and odd characters
by the uniqueness argument of Aguiar-Bergeron-Sottile (Combinatorial Hopf
algebras and generalized Dehn-Sommerville relations, Compositio Math. 142
(2006), Thm 1.5): bar(phi_+) = phi_+ and bar(phi_-) = phi_-^-1, so

    bar(phi)^-1 phi = phi_-^2,    phi_+ = phi bar(phi_-).

Comparing the two sides entrywise is the central acceptance test of the
package.

The M-basis closed forms depend on a composition only through its weight
and its shape: the number of parts, the number of odd parts and the
parities of the first and last parts.  They are written once, in
``_closed_M``; ``eval_M`` computes one shape, and ``restrict`` walks the
shapes of a whole degree from those of the degree below and evaluates each
distinct shape once.

``TruncatedCharacter`` stores each degree as a row of integer numerators
over one denominator, reduced so that the gcd of the denominator and the
row is 1; its ``tables`` and ``value`` hand out Fractions.  The oracle runs
on these rows through one deconcatenation kernel indexed by partial-sum
bitmask.  The kernel works by blocks: the cut at partial sum s splits each
composition of n that has s as a partial sum into one of s and one of
n - s, so its terms form the outer product of the degree-s row and the
degree-(n - s) row, which the kernel adds one slice (contiguous, or of
stride 2^s) per nonzero entry of the shorter row, times one int factor per
cut.  The product, the quotient and the square root all follow one rule
(``_cut_factors``): degree n of the result goes over one common
denominator E_n, the lcm of the denominator products that meet in it, and
the term of each product is put over E_n by the int factor E_n over that
product, which for a cut is folded into the scalar the kernel takes from
the shorter row.  In ``convolve`` these are the products of the two
operands' denominators in degrees s and n - s; the quotient and the square
root add the denominator of the row they solve against.  Each of the three
reduces every degree it builds before the next degree reads it, so
``_from_rows`` stores rows as they come.  So every step is exact integer
arithmetic on reduced rows, and the only division, the halving in the
square root, is checked against the denominators it may reach.

The definitional h-sums ``h_minus`` and ``h_plus`` walk the unit gaps of a
composition with a signed census of peak states (``_gap_step``,
``_census_total``); ``_h_rows`` walks the same rule once over the tree of
gap choices, giving the sums of every composition of each weight up to a
bound with every prefix shared.

Character ids are stable strings: "zeta", "zeta-plus", "zeta-minus",
"zeta-inv", "zeta-inv-plus", "zeta-inv-minus", "counit", "zeta-pow:<m>".
"""

import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm

from . import exactnum as en
from .compositions import (
    Composition,
    all_compositions,
    composition,
    conjugate,
    p_minus,
    p_plus,
    reversal,
    to_index,
)
from .permutations import Permutation, descent_composition, permutation
from .qsym import QSymElement, antipode, qsym_basis, t_involution

__all__ = [
    "ZETA",
    "ZETA_PLUS",
    "ZETA_MINUS",
    "ZETA_INV",
    "ZETA_INV_PLUS",
    "ZETA_INV_MINUS",
    "COUNIT",
    "CHARACTER_IDS",
    "zeta_power",
    "eval_M",
    "eval_F",
    "eval_element",
    "eval_perm",
    "TruncatedCharacter",
    "restrict",
    "convolve",
    "inverse",
    "bar",
    "decompose",
    "compose_antipode",
    "compose_T",
    "h_minus",
    "h_plus",
]

ZETA = "zeta"
ZETA_PLUS = "zeta-plus"
ZETA_MINUS = "zeta-minus"
ZETA_INV = "zeta-inv"
ZETA_INV_PLUS = "zeta-inv-plus"
ZETA_INV_MINUS = "zeta-inv-minus"
COUNIT = "counit"

CHARACTER_IDS = (
    ZETA,
    ZETA_PLUS,
    ZETA_MINUS,
    ZETA_INV,
    ZETA_INV_PLUS,
    ZETA_INV_MINUS,
    COUNIT,
)

_POW_PREFIX = "zeta-pow:"


def zeta_power(m: int) -> str:
    """Id of the m-th convolution power of the universal character."""
    if type(m) is not int:
        raise ValueError("zeta_power needs a plain int power, got %r" % (m,))
    return "%s%d" % (_POW_PREFIX, m)


@lru_cache(maxsize=256)
def _parse_id(char_id: str):
    """Split an id into (kind, power); power is None except for zeta-pow.
    Memoized: every eval_M and eval_F call parses its id."""
    if char_id in CHARACTER_IDS:
        return char_id, None
    if char_id.startswith(_POW_PREFIX):
        power = char_id[len(_POW_PREFIX):]
        if re.fullmatch(r"-?[0-9]+", power):
            return "zeta-pow", int(power)
        raise ValueError(
            "unknown character id %r (the power must be a plain integer, "
            "as in %s or %s)" % (char_id, zeta_power(3), zeta_power(-2))
        )
    raise ValueError("unknown character id %r" % (char_id,))


def _closed_M(kind: str, power, n: int, shape) -> Fraction:
    """The M-basis closed forms: the value of character kind (with power,
    for zeta-pow) on M_alpha, for alpha of weight n and shape
    (k, k_o, first_odd, last_odd): its number of parts, its number of odd
    parts, and 1 or 0 for an odd or even first and last part.  The empty
    composition has shape (0, 0, 0, 0)."""
    k, k_o, first_odd, last_odd = shape
    if kind == "counit":
        return Fraction(1 if k == 0 else 0)
    if kind == "zeta":
        return Fraction(1 if k <= 1 else 0)
    if kind == "zeta-pow":
        return Fraction(en.falling_binomial(power, k))
    if kind == "zeta-inv":
        return Fraction(-1 if k % 2 else 1)
    if k == 0:
        return Fraction(1)

    k_e = k - k_o
    if kind == "zeta-minus":
        if not last_odd:
            return Fraction(0)
        h = k_o // 2
        sign = -1 if k_e % 2 else 1
        return Fraction(sign * en.bivariate_catalan(0, h), 4 ** h)
    if kind == "zeta-plus":
        if n % 2:
            return Fraction(0)
        if k == 1:
            return Fraction(1)
        if first_odd and last_odd:
            sign = 1 if k_e % 2 else -1
            return Fraction(sign * en.bivariate_catalan(1, k_o // 2 - 1), 2 ** k_o)
        return Fraction(0)
    if kind == "zeta-inv-minus":
        if not first_odd:
            return Fraction(0)
        h = k_o // 2
        sign = -1 if k % 2 else 1
        return Fraction(sign * en.bivariate_catalan(0, h), 4 ** h)
    if kind == "zeta-inv-plus":
        if n % 2:
            return Fraction(0)
        sign = -1 if k % 2 else 1
        return Fraction(sign * en.bivariate_catalan(0, k_o // 2), 2 ** k_o)
    raise AssertionError(kind)


def eval_M(char_id: str, alpha: Composition) -> Fraction:
    """Value of a closed-form character on the monomial basis element of
    alpha; a part that is not a positive int raises ValueError."""
    kind, power = _parse_id(char_id)
    alpha = composition(alpha)
    if not alpha:
        return _closed_M(kind, power, 0, (0, 0, 0, 0))
    shape = (len(alpha), sum(a & 1 for a in alpha), alpha[0] & 1, alpha[-1] & 1)
    return _closed_M(kind, power, sum(alpha), shape)


def eval_F(char_id: str, alpha: Composition) -> Fraction:
    """Value of a closed-form character on the fundamental basis element of
    alpha; a part that is not a positive int raises ValueError."""
    kind, power = _parse_id(char_id)
    alpha = composition(alpha)
    n = sum(alpha)
    k = len(alpha)
    if kind == "counit":
        return Fraction(1 if k == 0 else 0)
    if kind == "zeta":
        return Fraction(1 if k <= 1 else 0)
    if kind == "zeta-pow":
        return Fraction(en.falling_binomial(power + n - k, n))
    if kind == "zeta-inv":
        if all(a == 1 for a in alpha):
            return Fraction(-1 if n % 2 else 1)
        return Fraction(0)
    if kind == "zeta-minus":
        p = p_minus(alpha)
        fl = n // 2
        sign = -1 if p % 2 else 1
        return Fraction(sign * en.bivariate_catalan(p, fl - p), 4 ** fl)
    if kind == "zeta-plus":
        if n % 2:
            return Fraction(0)
        q = p_plus(alpha)
        sign = -1 if q % 2 else 1
        return Fraction(sign * en.bivariate_catalan(q, n // 2 - q), 2 ** n)
    if kind == "zeta-inv-minus":
        p = p_minus(reversal(alpha))
        fl = n // 2
        sign = -1 if (n + p) % 2 else 1
        return Fraction(sign * en.bivariate_catalan(p, fl - p), 4 ** fl)
    if kind == "zeta-inv-plus":
        if n % 2:
            return Fraction(0)
        q = p_plus(conjugate(alpha))
        sign = -1 if q % 2 else 1
        return Fraction(sign * en.bivariate_catalan(q, n // 2 - q), 2 ** n)
    raise AssertionError(kind)


def eval_element(char_id: str, x: QSymElement) -> Fraction:
    """Linear extension to an arbitrary element, dispatching on its basis."""
    QSymElement.require(x)
    evaluate = eval_M if x.basis == "M" else eval_F
    total = Fraction(0)
    for alpha, c in x.coeffs.items():
        total += c * evaluate(char_id, alpha)
    return total


def eval_perm(char_id: str, sigma: Permutation) -> Fraction:
    """Value of the pulled-back character on the permutation basis element
    F_sigma: the descent map sends F_sigma to F of the descent composition
    of sigma, so this is eval_F there, for every character id.  A word
    that is not a permutation of 1..n raises ValueError."""
    return eval_F(char_id, descent_composition(permutation(sigma)))


def _require_degree(max_degree):
    if type(max_degree) is not int or max_degree < 0:
        raise ValueError("max_degree must be a non-negative int, got %r" % (max_degree,))


def _reduced(row, d: int):
    """row / d in lowest terms as a row: both divided by gcd(d, *row)."""
    g = gcd(d, *row)
    if g == 1:
        return row, d
    return [v // g for v in row], d // g


def _over_lcm(values):
    """(numerators, d): ints or Fractions put over d, the lcm of their
    denominators, which leaves gcd(d, *numerators) == 1."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


class TruncatedCharacter:
    """A linear functional on QSym truncated at degree N, stored as one
    dense row of monomial-basis values per degree (row n has one entry per
    composition of n, indexed by partial-sum bitmask).  The value at mask
    in degree n is numerators[n][mask] / denominators[n], with every row
    reduced (gcd(denominators[n], *numerators[n]) == 1), so equal
    characters have equal rows.  The constructor takes ints as they are and
    every other value (a Fraction or a "p/q" string) through
    exactnum.as_fraction, so a bool or a float raises TypeError; ``tables``
    and ``value`` hand out Fractions."""

    __slots__ = ("max_degree", "numerators", "denominators")

    def __init__(self, max_degree: int, tables):
        _require_degree(max_degree)
        # an int has a numerator and a denominator of its own
        tables = [[v if type(v) is int else en.as_fraction(v) for v in row] for row in tables]
        if len(tables) != max_degree + 1:
            raise ValueError("expected %d degree tables" % (max_degree + 1,))
        for n, row in enumerate(tables):
            want = 1 if n == 0 else 1 << (n - 1)
            if len(row) != want:
                raise ValueError("degree-%d table must have %d entries" % (n, want))
        rows = [_over_lcm(row) for row in tables]
        self.max_degree = max_degree
        self.numerators = tuple(tuple(row) for row, _ in rows)
        self.denominators = tuple(d for _, d in rows)

    @classmethod
    def _from_rows(cls, rows, denominators) -> "TruncatedCharacter":
        """The character whose degree-n values are rows[n] / denominators[n],
        from rows that are already reduced (gcd(denominators[n], *rows[n])
        == 1), as every producer of rows leaves them."""
        self = object.__new__(cls)
        self.max_degree = len(rows) - 1
        self.numerators = tuple(tuple(row) for row in rows)
        self.denominators = tuple(denominators)
        return self

    @property
    def tables(self) -> tuple:
        """The values as Fractions, one tuple per degree, built on each
        access."""
        return tuple(
            tuple(Fraction(v, d) for v in row)
            for row, d in zip(self.numerators, self.denominators)
        )

    def value(self, alpha) -> Fraction:
        alpha = composition(alpha)
        n = sum(alpha)
        if n > self.max_degree:
            raise ValueError(
                "composition of weight %d exceeds truncation %d" % (n, self.max_degree)
            )
        return Fraction(self.numerators[n][to_index(alpha)], self.denominators[n])

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedCharacter)
            and self.max_degree == other.max_degree
            and self.denominators == other.denominators
            and self.numerators == other.numerators
        )

    def __repr__(self):
        return "TruncatedCharacter(N=%d)" % self.max_degree


def _shape_walk(max_degree: int):
    """For n = 0..max_degree, yield (n, shapes, index): the distinct shapes
    of the compositions of n (see _closed_M), and by mask the index in
    shapes of each composition's shape.

    Degree n + 1 comes from degree n: a mask without its top bit n - 1 is a
    composition of n whose last part grew by 1, and a mask with it one that
    gained a new last part 1."""
    shapes, index = [(0, 0, 0, 0)], [0]
    yield 0, shapes, index
    if max_degree < 1:
        return
    shapes, index = [(1, 1, 1, 1)], [0]
    yield 1, shapes, index
    for n in range(2, max_degree + 1):
        ids, grown, appended = {}, [], []
        for k, k_o, first_odd, last_odd in shapes:
            odd = 1 - last_odd
            shape = (k, k_o + odd - last_odd, odd if k == 1 else first_odd, odd)
            grown.append(ids.setdefault(shape, len(ids)))
            appended.append(ids.setdefault((k + 1, k_o + 1, first_odd, 1), len(ids)))
        shapes = list(ids)
        index = [grown[i] for i in index] + [appended[i] for i in index]
        yield n, shapes, index


def restrict(char_id: str, max_degree: int) -> TruncatedCharacter:
    """Tabulate a closed-form character on every composition of every
    degree up to max_degree: the closed form once per distinct shape of a
    degree, over the lcm of those values' denominators."""
    kind, power = _parse_id(char_id)
    _require_degree(max_degree)
    rows, denominators = [], []
    for n, shapes, index in _shape_walk(max_degree):
        numerators, d = _over_lcm([_closed_M(kind, power, n, shape) for shape in shapes])
        rows.append([numerators[i] for i in index])
        denominators.append(d)
    return TruncatedCharacter._from_rows(rows, denominators)


def _require_same_degree(phi: TruncatedCharacter, psi: TruncatedCharacter):
    if phi.max_degree != psi.max_degree:
        raise ValueError(
            "truncation degrees differ: %d vs %d" % (phi.max_degree, psi.max_degree)
        )


def _cut_factors(products):
    """(E, factors) for the products of denominators that meet in one
    degree of a recursion: E is their lcm, and factors[i] = E // products[i]
    puts the term of products[i] over E."""
    common = lcm(*products)
    return common, [common // p for p in products]


def _proper_cuts(left, right, n: int, factors) -> list[int]:
    """The deconcatenation kernel: for every composition of n (by mask), the
    sum of factors[s] * left(first parts) * right(remaining parts) over its
    proper cuts, s being the weight of the first parts.

    The cut at partial sum s (bit s - 1) covers exactly the masks
    ``high << s | 1 << (s - 1) | low``, leaving low in degree s and high in
    degree n - s, so it adds the outer product of left[s] and right[n - s]
    to the row, times factors[s].  It is added by slices, once per nonzero
    entry of the shorter of the two rows, with factors[s] folded into that
    entry: r * left[s] over the contiguous block of 2^(s-1) masks that share
    high, or l * right[n - s] over the masks of stride 2^s that share low.
    Only degrees 1..n-1 of left and right are read, so a recursion may pass
    tables that end at degree n - 1.
    """
    row = [0] * (1 << (n - 1))
    for s in range(1, n):
        a, b, f = left[s], right[n - s], factors[s]
        half = 1 << (s - 1)
        if len(b) <= len(a):
            for high, r in enumerate(b):
                if r:
                    r *= f
                    start = high << s | half
                    stop = start + half
                    row[start:stop] = [x + r * v for x, v in zip(row[start:stop], a)]
        else:
            step = half << 1
            for low, l in enumerate(a):
                if l:
                    l *= f
                    start = half | low
                    row[start::step] = [x + l * v for x, v in zip(row[start::step], b)]
    return row


def _quotient_rows(a: TruncatedCharacter, b: TruncatedCharacter):
    """(rows, denominators) of x = a^-1 b for a(1) = 1, from a x = b:
    x_n = b_n - a_n x_0 - sum over proper cuts of a(left) x(right), put
    over the lcm of b's denominator (slot 0) and the products of a's and
    x's denominators that meet in degree n (slot s for a_s x_(n-s)), and
    reduced before the next degree reads it."""
    a_rows, a_d = a.numerators, a.denominators
    x0 = b.numerators[0][0]
    x, x_d = [[x0]], [b.denominators[0]]
    for n in range(1, len(a_rows)):
        common, f = _cut_factors(
            [b.denominators[n]] + [a_d[s] * x_d[n - s] for s in range(1, n + 1)]
        )
        cuts = _proper_cuts(a_rows, x, n, f)
        b_n, a_n = f[0], x0 * f[n]
        row, d = _reduced(
            [b_n * w - a_n * v - y for w, v, y in zip(b.numerators[n], a_rows[n], cuts)], common
        )
        x.append(row)
        x_d.append(d)
    return x, x_d


def _halve(row: list[int], d: int, bound: int):
    """row / 2d in lowest terms, as (row, denominator); a denominator that
    does not divide bound means a fault."""
    row, d = _reduced(row, 2 * d)
    if bound % d:
        raise ArithmeticError("denominator %d does not divide %d in an exact halving" % (d, bound))
    return row, d


def convolve(phi: TruncatedCharacter, psi: TruncatedCharacter) -> TruncatedCharacter:
    """Convolution product: on M_alpha, the sum over deconcatenations
    alpha = (first i parts | rest) of phi(left) psi(right).  It runs on the
    stored rows, with degree n over the lcm of the products of the
    operands' denominators that meet in it (see _cut_factors): degree 0 is
    a * b, and degree n is f_0 a psi_n + f_n phi_n b plus the proper cuts."""
    _require_same_degree(phi, psi)
    left, right = phi.numerators, psi.numerators
    left_d, right_d = phi.denominators, psi.denominators
    a, b = left[0][0], right[0][0]
    row, d = _reduced([a * b], left_d[0] * right_d[0])
    rows, denominators = [row], [d]
    for n in range(1, len(left)):
        common, f = _cut_factors([left_d[s] * right_d[n - s] for s in range(n + 1)])
        cuts = _proper_cuts(left, right, n, f)
        a_n, b_n = a * f[0], b * f[n]
        row = [a_n * r + v * b_n + x for v, r, x in zip(left[n], right[n], cuts)]
        row, d = _reduced(row, common)
        rows.append(row)
        denominators.append(d)
    return TruncatedCharacter._from_rows(rows, denominators)


def inverse(phi: TruncatedCharacter) -> TruncatedCharacter:
    """Convolution inverse, as the quotient phi^-1 counit; requires
    phi(1) = 1."""
    if phi.value(()) != 1:
        raise ValueError("inverse requires phi(1) = 1")
    rows = [[1]] + [[0] * (1 << (n - 1)) for n in range(1, phi.max_degree + 1)]
    counit = TruncatedCharacter._from_rows(rows, [1] * len(rows))
    return TruncatedCharacter._from_rows(*_quotient_rows(phi, counit))


def bar(phi: TruncatedCharacter) -> TruncatedCharacter:
    """The degree-sign involution: degree-n values pick up (-1)^n."""
    rows = [[-v for v in row] if n % 2 else row for n, row in enumerate(phi.numerators)]
    return TruncatedCharacter._from_rows(rows, phi.denominators)


def decompose(phi: TruncatedCharacter):
    """Split phi (with phi(1) = 1) into its even and odd parts, returning
    (phi_plus, phi_minus) with phi = phi_plus * phi_minus in convolution.

    This is the oracle: it uses only phi's own values and the convolution
    group, never the closed forms.  By Aguiar-Bergeron-Sottile, Thm 1.5,
    phi_- is the square root of bar(phi)^-1 phi with phi_-(1) = 1, and
    phi_+ = phi bar(phi_-).  The square root is solved one degree at a time
    from (phi_-^2)_n = 2 (phi_-)_n + sum over proper cuts of
    phi_-(left) phi_-(right), so each of the quotient, the square root and
    the product makes one kernel pass per degree.

    Every step runs on reduced integer rows with one denominator per
    degree, as convolve does: degree n of the square root goes over the lcm
    of the square's denominator (slot 0) and the products of phi_-'s
    denominators that meet in it.  With c twice the lcm of phi's
    denominators, (phi_-)_n has a denominator dividing c**n (for integer
    phi, 2-adic valuation at least 1 - n), so a halving whose reduced
    denominator does not divide c**n can only come from a fault; it raises
    ArithmeticError.
    """
    if phi.value(()) != 1:
        raise ValueError("decompose requires phi(1) = 1")
    c = 2 * lcm(*phi.denominators)
    square, square_d = _quotient_rows(bar(phi), phi)
    minus, minus_d = [[1]], [1]
    for n in range(1, len(square)):
        common, f = _cut_factors([square_d[n]] + [minus_d[s] * minus_d[n - s] for s in range(1, n)])
        cuts = _proper_cuts(minus, minus, n, f)
        row, d = _halve([f[0] * v - y for v, y in zip(square[n], cuts)], common, c ** n)
        minus.append(row)
        minus_d.append(d)
    del square  # freed before the product builds its table
    phi_minus = TruncatedCharacter._from_rows(minus, minus_d)
    return convolve(phi, bar(phi_minus)), phi_minus


def _compose(phi: TruncatedCharacter, f) -> TruncatedCharacter:
    """phi composed with a linear map f on QSym: on M_alpha, the value of
    phi on the M-basis element f(M_alpha)."""

    def value(alpha):
        image = f(qsym_basis("M", alpha))
        return sum((c * phi.value(beta) for beta, c in image.coeffs.items()), Fraction(0))

    tables = [[value(alpha) for alpha in all_compositions(n)] for n in range(phi.max_degree + 1)]
    return TruncatedCharacter(phi.max_degree, tables)


def compose_antipode(phi: TruncatedCharacter) -> TruncatedCharacter:
    """phi composed with the antipode."""
    return _compose(phi, antipode)


def compose_T(phi: TruncatedCharacter) -> TruncatedCharacter:
    """phi composed with the reversal involution T."""
    return _compose(phi, t_involution)


# the walk's start: before the first gap, one part 1, not counted, and the
# sign (-1)^(k + counted + 1) = +1
_CENSUS_START = {(0, False, True): 1}


def _gap_step(states: dict, augmented: bool):
    """(grown, started): the census states after one more unit gap, from
    those before it, where the last part grows and where a new part starts.
    A cut gap leads to started only, any other gap to both, whose keys are
    disjoint (the last part is > 1 in grown only), so to grown | started.

    A state is (closed parts > 1 counted, last part > 1, still one part),
    and its int multiplicity carries the sign (-1)^(k + counted + 1): a new
    part negates it unless the part it closes is counted.  p_minus counts
    every closed part > 1; p_plus counts none while the first part is open
    (see _census_total)."""
    grown, started = {}, {}
    for (q, big, single), c in states.items():
        key = (q, True, single)
        grown[key] = grown.get(key, 0) + c
        if big and not (augmented and single):
            key = (q + 1, False, False)
        else:
            key, c = (q, False, False), -c
        started[key] = started.get(key, 0) + c
    return grown, started


def _census_total(states: dict, augmented: bool) -> dict:
    """{q: summed multiplicity} of the walked states, q being the peaks:
    the closed parts counted for p_minus, where the last part never counts;
    for p_plus, 0 on one part and otherwise 1 + the closed parts counted,
    with the sign of that extra peak."""
    census = {}
    for (q, big, single), c in states.items():
        if augmented:
            q, c = (0, c) if single else (q + 1, -c)
        census[q] = census.get(q, 0) + c
    return census


def _peak_census(alpha: Composition, augmented: bool) -> dict:
    """{q: the sum of (-1)^(k(beta) + q + 1) over the refinements beta of
    alpha with q peaks}, the peaks being p_plus(beta) if augmented, else
    p_minus(beta): one _gap_step per unit gap of alpha, a gap being a cut
    where it is a partial sum of alpha."""
    if not alpha:
        return {0: -1}  # the one refinement (), with k = 0 and no peak
    cuts = set(accumulate(alpha))
    states = _CENSUS_START
    for gap in range(1, sum(alpha)):
        grown, states = _gap_step(states, augmented)
        if gap not in cuts:
            states = grown | states
    return _census_total(states, augmented)


def _h_rows(n_max: int, augmented: bool) -> dict:
    """{n: [the h-sum of each composition of n, by mask]} for n = 1..n_max,
    or only the even n if augmented: h_minus, or h_plus if augmented, as
    ints.

    One depth-first walk over the tree of gap choices shares every prefix
    among the weights: a node at depth n - 1 holds the census states of the
    gaps of one composition of n (mask, its partial sums), and its children
    take gap n free (a composition of n + 1 with the same mask) or cut (the
    mask with bit n - 1 set).  So the census of every composition of 1..n_max
    costs one _gap_step per inner node, about 2^(n_max - 1) in all, against
    n - 1 per composition of n for _peak_census.

    >>> _h_rows(3, False)
    {1: [1], 2: [0, -2], 3: [4, 0, 4, 2]}
    """
    rows = {n: [0] * (1 << (n - 1)) for n in range(1 + augmented, n_max + 1, 1 + augmented)}
    weights = {
        n: [en.bivariate_catalan(q, n // 2 - q) for q in range(n // 2 + 1)] for n in rows
    }
    shares = {n: {} for n in rows}
    # (states, n, mask) of the nodes still to visit, the free child on top
    stack = [(_CENSUS_START, 1, 0)]
    while stack:
        states, n, mask = stack.pop()
        if n in rows:
            # the h-sum is linear in the states: each state's share is
            # read once per weight through _census_total
            w, share, total = weights[n], shares[n], 0
            for key, c in states.items():
                if key not in share:
                    census = _census_total({key: 1}, augmented)
                    share[key] = sum(s * w[q] for q, s in census.items())
                total += c * share[key]
            rows[n][mask] = total
        if n < n_max:
            grown, started = _gap_step(states, augmented)
            stack.append((started, n + 1, mask | 1 << (n - 1)))
            stack.append((grown | started, n + 1, mask))
    return rows


def _h_sum(alpha: Composition, augmented: bool) -> Fraction:
    """The alternating sum over refinements beta of alpha of
    (-1)^(k(beta) + q + 1) C(q, n//2 - q), q the peaks of beta, added as
    ints from the peak census, with one weight per peak count it holds."""
    half = sum(alpha) // 2
    return Fraction(sum(
        c * en.bivariate_catalan(q, half - q) for q, c in _peak_census(alpha, augmented).items()
    ))


def h_minus(alpha: Composition) -> Fraction:
    """The definitional alternating sum over refinements beta of alpha of
    (-1)^(k(beta) + p_minus(beta) + 1) C(p_minus(beta), floor(n/2) - p_minus(beta));
    -1 at the empty composition.  A part that is not a positive int raises
    ValueError."""
    return _h_sum(composition(alpha), False)


def h_plus(alpha: Composition) -> Fraction:
    """Companion sum with the augmented peak statistic; the weight of alpha
    must be even, and its parts positive ints (ValueError otherwise)."""
    alpha = composition(alpha)
    n = sum(alpha)
    if n % 2:
        raise ValueError("h_plus requires even weight, got %d" % n)
    return _h_sum(alpha, True)
