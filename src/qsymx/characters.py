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
cut.  ``convolve`` runs on the stored rows as they are: degree n of the
product goes over one common denominator, the lcm E_n of the products of
the two operands' denominators in degrees s and n - s, and the factor of
the cut at s is E_n over that product, folded into the scalar the kernel
takes from the shorter row.  ``decompose`` and ``inverse`` keep one scale
instead: on entry degree n is multiplied by c**n, with c the lcm of the
input denominators (twice that in ``decompose``, whose halving must be
exact), and every cut factor is 1.  Scaling degree n by c**n commutes with
convolution, so every step in between is exact integer arithmetic, and the
only division, the halving in the square root, is checked to leave no
remainder.  On exit each row is divided by the gcd of its denominator and
its entries.

Character ids are stable strings: "zeta", "zeta-plus", "zeta-minus",
"zeta-inv", "zeta-inv-plus", "zeta-inv-minus", "counit", "zeta-pow:<m>".
"""

import re
from fractions import Fraction
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


def _parse_id(char_id: str):
    """Split an id into (kind, power); power is None except for zeta-pow."""
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
        denominators = [lcm(*(v.denominator for v in row)) for row in tables]
        self.max_degree = max_degree
        self.numerators = tuple(
            tuple(v.numerator * (d // v.denominator) for v in row)
            for row, d in zip(tables, denominators)
        )
        self.denominators = tuple(denominators)

    @classmethod
    def _from_rows(cls, rows, denominators) -> "TruncatedCharacter":
        """The character whose degree-n values are rows[n] / denominators[n]."""
        self = object.__new__(cls)
        self.max_degree = len(rows) - 1
        reduced = [_reduced(row, d) for row, d in zip(rows, denominators)]
        self.numerators = tuple(tuple(row) for row, _ in reduced)
        self.denominators = tuple(d for _, d in reduced)
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
        values = [_closed_M(kind, power, n, shape) for shape in shapes]
        d = lcm(*(v.denominator for v in values))
        numerators = [v.numerator * (d // v.denominator) for v in values]
        rows.append([numerators[i] for i in index])
        denominators.append(d)
    return TruncatedCharacter._from_rows(rows, denominators)


def _require_same_degree(phi: TruncatedCharacter, psi: TruncatedCharacter):
    if phi.max_degree != psi.max_degree:
        raise ValueError(
            "truncation degrees differ: %d vs %d" % (phi.max_degree, psi.max_degree)
        )


def _scaled(phi: TruncatedCharacter, c: int) -> list[list[int]]:
    """phi's rows as ints: the degree-n values times c**n, that is
    numerators[n] times the one factor c**n / denominators[n]."""
    rows = []
    for n, (row, d) in enumerate(zip(phi.numerators, phi.denominators)):
        factor = c ** n // d
        rows.append([v * factor for v in row])
    return rows


def _unscaled(rows, c: int) -> TruncatedCharacter:
    """The character whose degree-n values are rows[n] / c**n."""
    return TruncatedCharacter._from_rows(rows, [c ** n for n in range(len(rows))])


def _cut_factors(left_d, right_d, n: int):
    """(E, factors) for degree n of the product of two characters with
    denominators left_d and right_d: E is the lcm over s = 0..n of
    left_d[s] * right_d[n - s], and factors[s] = E // (left_d[s] * right_d[n - s])
    puts the cut at s over E."""
    products = [left_d[s] * right_d[n - s] for s in range(n + 1)]
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


def _product_rows(left, right, factors) -> list[list[int]]:
    """Integer tables of the convolution product, with factors[n] the cut
    factors of degree n (see _proper_cuts): degree 0 is a * b, and degree n
    is f_0 a right_n + f_n left_n b plus the proper cuts."""
    a, b = left[0][0], right[0][0]
    rows = [[a * b]]
    for n in range(1, len(left)):
        f = factors[n]
        cuts = _proper_cuts(left, right, n, f)
        a_n, b_n = a * f[0], b * f[n]
        rows.append([a_n * r + v * b_n + x for v, r, x in zip(left[n], right[n], cuts)])
    return rows


def _quotient_rows(a, b) -> list[list[int]]:
    """Scaled tables of x = a^-1 b for a(1) = 1, from a x = b:
    x_n = b_n - a_n x_0 - sum over proper cuts of a(left) x(right)."""
    x0 = b[0][0]
    x = [[x0]]
    ones = [1] * len(b)
    for n in range(1, len(b)):
        cuts = _proper_cuts(a, x, n, ones)
        x.append([w - v * x0 - y for w, v, y in zip(b[n], a[n], cuts)])
    return x


def _bar_rows(rows) -> list[list]:
    """The degree-sign involution: degree-n values pick up (-1)^n."""
    return [[-v for v in row] if n % 2 else row for n, row in enumerate(rows)]


def _halve(row: list[int]) -> list[int]:
    """Exact halves of the entries of row; an odd entry means a fault."""
    odd = next((v for v in row if v & 1), None)
    if odd is not None:
        raise ArithmeticError("odd value %d in an exact halving" % odd)
    return [v >> 1 for v in row]


def convolve(phi: TruncatedCharacter, psi: TruncatedCharacter) -> TruncatedCharacter:
    """Convolution product: on M_alpha, the sum over deconcatenations
    alpha = (first i parts | rest) of phi(left) psi(right).  It runs on the
    stored rows, with degree n over the lcm of the products of the
    operands' denominators that meet in it (see _cut_factors)."""
    _require_same_degree(phi, psi)
    scales = [
        _cut_factors(phi.denominators, psi.denominators, n) for n in range(phi.max_degree + 1)
    ]
    rows = _product_rows(phi.numerators, psi.numerators, [f for _, f in scales])
    return TruncatedCharacter._from_rows(rows, [common for common, _ in scales])


def inverse(phi: TruncatedCharacter) -> TruncatedCharacter:
    """Convolution inverse, as the quotient phi^-1 counit; requires
    phi(1) = 1."""
    if phi.value(()) != 1:
        raise ValueError("inverse requires phi(1) = 1")
    c = lcm(*phi.denominators)
    counit = [[1]] + [[0] * (1 << (n - 1)) for n in range(1, phi.max_degree + 1)]
    return _unscaled(_quotient_rows(_scaled(phi, c), counit), c)


def bar(phi: TruncatedCharacter) -> TruncatedCharacter:
    """The degree-sign involution: degree-n values pick up (-1)^n."""
    return TruncatedCharacter._from_rows(_bar_rows(phi.numerators), phi.denominators)


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

    It runs on integer tables: with d the lcm of phi's denominators and
    c = 2d, degree n is scaled by c**n.  For integer phi, phi_- and phi_+
    have 2-adic valuation at least 1 - n in degree n, so every scaled value
    is an integer and an odd value in the halving can only come from a
    fault; it raises ArithmeticError.
    """
    if phi.value(()) != 1:
        raise ValueError("decompose requires phi(1) = 1")
    c = 2 * lcm(*phi.denominators)
    rows = _scaled(phi, c)
    square = _quotient_rows(_bar_rows(rows), rows)
    minus = [[1]]
    ones = [1] * len(rows)
    for n in range(1, len(rows)):
        cuts = _proper_cuts(minus, minus, n, ones)
        minus.append(_halve([v - x for v, x in zip(square[n], cuts)]))
    del square  # freed before the product builds its table
    plus = _product_rows(rows, _bar_rows(minus), [ones] * len(rows))
    return _unscaled(plus, c), _unscaled(minus, c)


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


def _peak_census(alpha: Composition, augmented: bool) -> dict:
    """{q: the sum of (-1)^(k(beta) + q + 1) over the refinements beta of
    alpha with q peaks}, the peaks being p_plus(beta) if augmented, else
    p_minus(beta).

    One walk over the n - 1 unit gaps of alpha: at a partial sum of alpha
    a new part starts, and at any other gap the last part either grows or
    a new part starts.  A state is (closed parts > 1 counted, last part > 1,
    still one part), and its multiplicity carries the sign
    (-1)^(k + counted + 1), so a new part negates it unless the part it
    closes is counted.  p_minus counts every closed part > 1; p_plus is 0 on
    one part and otherwise 1 + the closed parts > 1 after the first."""
    if not alpha:
        return {0: -1}  # the one refinement (), with k = 0 and no peak
    cuts = set(accumulate(alpha))
    states = {(0, False, True): 1}
    for gap in range(1, sum(alpha)):
        walked, free = {}, gap not in cuts
        for (q, big, single), c in states.items():
            if free:
                key = (q, True, single)
                walked[key] = walked.get(key, 0) + c
            if big and not (augmented and single):
                key = (q + 1, False, False)
            else:
                key, c = (q, False, False), -c
            walked[key] = walked.get(key, 0) + c
        states = walked
    census = {}
    for (q, big, single), c in states.items():
        if augmented:
            q, c = (0, c) if single else (q + 1, -c)
        census[q] = census.get(q, 0) + c
    return census


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
