"""Characters on quasi-symmetric functions: closed-form evaluators for the
canonical family, and the truncated convolution group used as an
independent oracle.

Closed forms and the oracle share no code on purpose.  The closed-form
evaluators are direct arithmetic in terms of bivariate Catalan numbers; the
oracle side only knows the universal character's defining values and the
convolution group: the product, the inverse (solved from phi x = counit)
and the even/odd split.  It splits phi = phi_+ phi_- into even and odd
characters by the uniqueness argument of Aguiar-Bergeron-Sottile
(Combinatorial Hopf algebras and generalized Dehn-Sommerville relations,
Compositio Math. 142 (2006), Thm 1.5): bar(phi_+) = phi_+ and
bar(phi_-) = phi_-^-1, so the parts solve

    phi = phi_+ phi_-,    phi_- bar(phi_-) = counit,

one degree at a time in one paired recursion (``decompose``): phi_+ is 0 in
odd degrees, where phi_- follows from the first equation, and in even
degrees phi_- is half a signed sum of its own lower degrees by the second
equation, then phi_+ follows from the first.  The former route, phi_- as
the square root of bar(phi)^-1 phi and phi_+ = phi bar(phi_-), lives in
the tests as a reference.  Comparing the two sides entrywise is the
central acceptance test of the package.

The M-basis closed forms depend on a composition only through its weight
and its shape: the number of parts, the number of odd parts and the
parities of the first and last parts.  They are written once, in
``_closed_M``; ``eval_M`` computes one shape, and ``restrict`` walks the
shapes of a whole degree from those of the degree below and evaluates each
distinct shape once.

``TruncatedCharacter`` stores each degree as a row of integer numerators
over one denominator, reduced so that the gcd of the denominator and the
row is 1; its ``tables`` and ``value`` hand out Fractions.  The oracle runs
on these rows through one deconcatenation kernel by blocks of masks
(``_proper_cuts``), with one int factor per cut.  The product, the inverse
and both equations of the split follow one scale rule (``_cut_factors``):
degree n of the result goes over the lcm of the denominator products that
meet in it, and each term's share of that lcm rides on its cut's factor.
Each reduces every degree it builds before the next degree reads it, so
every step is exact integer arithmetic on reduced rows, and the only
division, the halving of phi_- in even degrees, is checked against the
denominators it may reach.

The definitional h-sums ``h_minus`` and ``h_plus`` walk the unit gaps of a
composition with a signed census of peak states (``_gap_step``,
``_census_total``), one composition at a time; they are the public API and
the reference for the registry, which sums the same terms over the
refinements of every composition of a weight in one super-mask pass and
walks its signed census of all compositions of m with ``_gap_step`` too.

Character ids are stable strings: "zeta", "zeta-plus", "zeta-minus",
"zeta-inv", "zeta-inv-plus", "zeta-inv-minus", "counit", "zeta-pow:<m>".
The closed forms read "counit", "zeta" and "zeta-inv" as the powers
zeta^0, zeta^1 and zeta^-1, whose values are C(m, k(alpha)) on M_alpha and
C(m + n - k(alpha), n) on F_alpha for alpha of weight n.
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


_POWERS = {COUNIT: 0, ZETA: 1, ZETA_INV: -1}


def _parse_id(char_id: str):
    """Split an id into (kind, power); power is None except for zeta-pow,
    the kind of the counit, zeta and zeta-inv too, as zeta^0, zeta^1 and
    zeta^-1."""
    if char_id in _POWERS:
        return "zeta-pow", _POWERS[char_id]
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
    if kind == "zeta-pow":
        return Fraction(en.falling_binomial(power, k))
    if k == 0:
        return Fraction(1)

    k_e = k - k_o
    if kind in (ZETA_MINUS, ZETA_INV_MINUS):
        # zeta-minus needs an odd last part, zeta-inv-minus an odd first
        # part and the sign (-1)^k in place of (-1)^k_e
        inv = kind == ZETA_INV_MINUS
        if not (first_odd if inv else last_odd):
            return Fraction(0)
        h = k_o // 2
        sign = -1 if (k if inv else k_e) % 2 else 1
        return Fraction(sign * en.bivariate_catalan(0, h), 4 ** h)
    if n % 2:
        return Fraction(0)
    if kind == ZETA_PLUS:
        if k == 1:
            return Fraction(1)
        if first_odd and last_odd:
            sign = 1 if k_e % 2 else -1
            return Fraction(sign * en.bivariate_catalan(1, k_o // 2 - 1), 2 ** k_o)
        return Fraction(0)
    sign = -1 if k % 2 else 1  # zeta-inv-plus
    return Fraction(sign * en.bivariate_catalan(0, k_o // 2), 2 ** k_o)


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
    alpha; a part that is not a positive int raises ValueError.

    The parts take one rule: (-1)^p C(p, n//2 - p) / 4^(n//2), p being
    p_minus of alpha (zeta-minus) or of its reversal (zeta-inv-minus), or
    p_plus of alpha (zeta-plus) or of its conjugate (zeta-inv-plus).  The
    even parts are 0 in odd weight n, and the inverse's parts take the
    extra sign (-1)^n, which is 1 wherever zeta-inv-plus is not 0."""
    kind, power = _parse_id(char_id)
    alpha = composition(alpha)
    n = sum(alpha)
    if kind == "zeta-pow":
        return Fraction(en.falling_binomial(power + n - len(alpha), n))
    inv = kind in (ZETA_INV_MINUS, ZETA_INV_PLUS)
    if kind in (ZETA_PLUS, ZETA_INV_PLUS):
        if n % 2:
            return Fraction(0)
        p = p_plus(conjugate(alpha) if inv else alpha)
    else:
        p = p_minus(reversal(alpha) if inv else alpha)
    half = n // 2
    sign = -1 if (p + n * inv) % 2 else 1
    return Fraction(sign * en.bivariate_catalan(p, half - p), 4 ** half)


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
    """(numerators, d): exact values put over d, the lcm of their
    denominators, which leaves gcd(d, *numerators) == 1.  Only a row with a
    value other than an int or a Fraction goes through exactnum.as_fraction
    value by value, so a bool, a float or a Decimal raises TypeError."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values, 1
    if not kinds <= {int, Fraction}:
        values = [en.as_fraction(v) for v in values]
    denominators = [v.denominator for v in values]
    d = lcm(*denominators)
    return [v.numerator * (d // e) for v, e in zip(values, denominators)], d


class TruncatedCharacter:
    """A linear functional on QSym truncated at degree N, stored as one
    dense row of monomial-basis values per degree (row n has one entry per
    composition of n, indexed by partial-sum bitmask).  The value at mask
    in degree n is numerators[n][mask] / denominators[n], with every row
    reduced (gcd(denominators[n], *numerators[n]) == 1), so equal
    characters have equal rows.  The constructor takes each row in one pass
    (_over_lcm), so a bool, a float or a Decimal raises TypeError, and a
    string such as "p/q" or "0.5" is read as a Fraction; ``tables`` and
    ``value`` hand out Fractions."""

    __slots__ = ("max_degree", "numerators", "denominators")

    def __init__(self, max_degree: int, tables):
        _require_degree(max_degree)
        rows = [_over_lcm(list(row)) for row in tables]
        if len(rows) != max_degree + 1:
            raise ValueError("expected %d degree tables" % (max_degree + 1,))
        for n, (row, _) in enumerate(rows):
            want = 1 if n == 0 else 1 << (n - 1)
            if len(row) != want:
                raise ValueError("degree-%d table must have %d entries" % (n, want))
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


def _shape_children(shape):
    """(grown, appended): the shapes of a composition of weight n >= 1 with
    the given shape after its last part grows by 1, and after it gains a
    new last part 1."""
    k, k_o, first_odd, last_odd = shape
    odd = 1 - last_odd
    grown = (k, k_o + odd - last_odd, odd if k == 1 else first_odd, odd)
    return grown, (k + 1, k_o + 1, first_odd, 1)


def _shape_walk(max_degree: int):
    """For n = 0..max_degree, yield (n, shapes, index): the distinct shapes
    of the compositions of n (see _closed_M), and by mask the index in
    shapes of each composition's shape.

    Degree n + 1 comes from degree n: a mask without its top bit n - 1 is a
    composition of n whose last part grew by 1, and a mask with it one that
    gained a new last part 1 (_shape_children)."""
    shapes, index = [(0, 0, 0, 0)], [0]
    yield 0, shapes, index
    if max_degree < 1:
        return
    shapes, index = [(1, 1, 1, 1)], [0]
    yield 1, shapes, index
    for n in range(2, max_degree + 1):
        ids, grown, appended = {}, [], []
        for shape in shapes:
            grown_shape, appended_shape = _shape_children(shape)
            grown.append(ids.setdefault(grown_shape, len(ids)))
            appended.append(ids.setdefault(appended_shape, len(ids)))
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
    puts the term of products[i] over E.  A product of 0 marks a slot with
    no term: it stays out of E and its factor is 0."""
    common = lcm(*filter(None, products))
    return common, [common // p if p else 0 for p in products]


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
    A cut is skipped where its factor is 0, reading neither row, or where
    it meets an all-zero row, as every odd row of phi_+ is.  Only
    degrees 1..n-1 of left and right are read, so a recursion may pass
    tables that end at degree n - 1.
    """
    row = [0] * (1 << (n - 1))
    for s in range(1, n):
        f = factors[s]
        a, b = left[s], right[n - s]
        if not (f and any(a) and any(b)):
            continue
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
    """Convolution inverse x, solved from phi x = counit for phi(1) = 1:
    x_0 = 1, and x_n = -(phi_n + the proper cuts of phi x) for n >= 1, put
    over the lcm of the products of phi's and x's denominators that meet in
    degree n (slot s for phi_s x_(n-s)) and reduced before the next degree
    reads it."""
    if phi.value(()) != 1:
        raise ValueError("inverse requires phi(1) = 1")
    rows, rows_d = phi.numerators, phi.denominators
    x, x_d = [[1]], [1]
    for n in range(1, len(rows)):
        common, f = _cut_factors([0] + [rows_d[s] * x_d[n - s] for s in range(1, n + 1)])
        cuts = _proper_cuts(rows, x, n, f)
        a = f[n]
        row, d = _reduced([-(a * v + y) for v, y in zip(rows[n], cuts)], common)
        x.append(row)
        x_d.append(d)
    return TruncatedCharacter._from_rows(x, x_d)


def bar(phi: TruncatedCharacter) -> TruncatedCharacter:
    """The degree-sign involution: degree-n values pick up (-1)^n."""
    rows = [[-v for v in row] if n % 2 else row for n, row in enumerate(phi.numerators)]
    return TruncatedCharacter._from_rows(rows, phi.denominators)


def _pairing_sum(minus, minus_d, n: int):
    """(row, E) with row / E = 2 (phi_-)_n for even n, from
    phi_- bar(phi_-) = counit in degree n: 2 (phi_-)_n + the sum over
    proper cuts of (-1)^s phi_-(left) phi_-(right) = 0, s being the weight
    of left.  The sign (-1)^(s + 1) is folded into the cut factors, so no
    bar row is built; E is the lcm of the products of phi_-'s denominators
    that meet in degree n."""
    common, f = _cut_factors([0] + [minus_d[s] * minus_d[n - s] for s in range(1, n)])
    f = [v if s % 2 else -v for s, v in enumerate(f)]
    return _proper_cuts(minus, minus, n, f), common


def decompose(phi: TruncatedCharacter):
    """Split phi (with phi(1) = 1) into its even and odd parts, returning
    (phi_plus, phi_minus) with phi = phi_plus * phi_minus in convolution.

    This is the oracle: it uses only phi's own values and the convolution
    group, never the closed forms.  By Aguiar-Bergeron-Sottile, Thm 1.5,
    the parts P = phi_+ and Q = phi_- are the one solution of phi = P Q,
    P = bar(P) (so P is 0 in odd degrees) and Q bar(Q) = counit, with
    P(1) = Q(1) = 1.  One paired recursion solves them a degree at a time:
    in odd degree n, P_n = 0 and Q_n = phi_n - (the proper cuts of P Q),
    one kernel pass whose cut factors are 0 at odd s, where P is 0; in even
    degree n, Q_n is half the signed pairing sum of Q bar(Q) = counit
    (_pairing_sum), then P_n = phi_n - Q_n - (the proper cuts of P Q), two
    kernel passes.  So degree N takes N + N // 2 kernel passes.

    Every step runs on reduced integer rows with one denominator per
    degree, as convolve does: degree n goes over the lcm of the
    denominator products that meet in it (slot 0 for phi_n, slot n for
    Q_n) and is reduced before the next degree reads it.  With c twice the
    lcm of phi's denominators, Q_n has a denominator dividing c**n (for
    integer phi, 2-adic valuation at least 1 - n), so a halving whose
    reduced denominator does not divide c**n can only come from a fault; it
    raises ArithmeticError.
    """
    if phi.value(()) != 1:
        raise ValueError("decompose requires phi(1) = 1")
    c = 2 * lcm(*phi.denominators)
    rows, rows_d = phi.numerators, phi.denominators
    plus, plus_d, minus, minus_d = [[1]], [1], [[1]], [1]
    for n in range(1, len(rows)):
        products = [rows_d[n]] + [0 if s % 2 else plus_d[s] * minus_d[n - s] for s in range(1, n)]
        if n % 2:
            common, f = _cut_factors(products)
            cuts = _proper_cuts(plus, minus, n, f)
            row, d = _reduced([f[0] * v - y for v, y in zip(rows[n], cuts)], common)
            minus.append(row)
            minus_d.append(d)
            plus.append([0] * len(row))
            plus_d.append(1)
        else:
            odd, odd_d = _halve(*_pairing_sum(minus, minus_d, n), c ** n)
            minus.append(odd)
            minus_d.append(odd_d)
            common, f = _cut_factors(products + [odd_d])
            cuts = _proper_cuts(plus, minus, n, f)
            a, b = f[0], f[n]
            row, d = _reduced([a * v - b * w - y for v, w, y in zip(rows[n], odd, cuts)], common)
            plus.append(row)
            plus_d.append(d)
    return TruncatedCharacter._from_rows(plus, plus_d), TruncatedCharacter._from_rows(minus, minus_d)


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
