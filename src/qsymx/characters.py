"""Characters on quasi-symmetric functions: closed-form evaluators for the
canonical family, and the truncated convolution group used as an
independent oracle.

Closed forms and the oracle share no code on purpose.  The closed-form
evaluators are direct arithmetic in terms of bivariate Catalan numbers; the
oracle side only knows the universal character's defining values and the
convolution-group recursions

    (phi^-1)_n = - sum_{i=1..n} phi_i (phi^-1)_{n-i}

    (-1)^n phi_n = 2 (phi_+)_n + (phi^-1)_n
                   + sum_{i+j+k=n, i,j,k<n} (phi_+)_i (phi^-1)_j (phi_+)_k

    (phi_-)_n = phi_n - sum_{i=1..n} (phi_+)_i (phi_-)_{n-i}

with (phi^-1)_0 = (phi_+)_0 = (phi_-)_0 = counit.  Comparing the two sides
entrywise is the central acceptance test of the package.

All three recursions, and the convolution product, run through one
deconcatenation kernel on integer tables indexed by partial-sum bitmask.
On entry, degree n of a table is scaled by c**n, with c the lcm of the
input denominators (twice that in ``decompose``, which halves); on exit each
value is turned back into Fraction(v, c**n).  Scaling degree n by c**n
commutes with convolution, so every step in between is exact integer
arithmetic, and the only division, the halving in ``decompose``, is checked
to leave no remainder.  ``TruncatedCharacter`` itself stores Fractions.

Character ids are stable strings: "zeta", "zeta-plus", "zeta-minus",
"zeta-inv", "zeta-inv-plus", "zeta-inv-minus", "counit", "zeta-pow:<m>".
"""

import re
from fractions import Fraction
from math import lcm

from . import exactnum as en
from .compositions import (
    Composition,
    all_compositions,
    coarsenings,
    conjugate,
    from_index,
    p_minus,
    p_plus,
    refinements,
    reversal,
    stats,
    to_index,
)
from .permutations import Permutation, descent_composition
from .qsym import QSymElement

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


def eval_M(char_id: str, alpha: Composition) -> Fraction:
    """Value of a closed-form character on the monomial basis element of
    alpha."""
    kind, power = _parse_id(char_id)
    k = len(alpha)
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

    st = stats(alpha)
    n = st.weight
    if kind == "zeta-minus":
        if alpha[-1] % 2 == 0:
            return Fraction(0)
        h = st.k_o // 2
        sign = -1 if st.k_e % 2 else 1
        return Fraction(sign * en.bivariate_catalan(0, h), 4 ** h)
    if kind == "zeta-plus":
        if n % 2:
            return Fraction(0)
        if k == 1:
            return Fraction(1)
        if alpha[0] % 2 and alpha[-1] % 2:
            sign = 1 if st.k_e % 2 else -1
            return Fraction(sign * en.bivariate_catalan(1, st.k_o // 2 - 1), 2 ** st.k_o)
        return Fraction(0)
    if kind == "zeta-inv-minus":
        if alpha[0] % 2 == 0:
            return Fraction(0)
        h = st.k_o // 2
        sign = -1 if k % 2 else 1
        return Fraction(sign * en.bivariate_catalan(0, h), 4 ** h)
    if kind == "zeta-inv-plus":
        if n % 2:
            return Fraction(0)
        sign = -1 if k % 2 else 1
        return Fraction(sign * en.bivariate_catalan(0, st.k_o // 2), 2 ** st.k_o)
    raise AssertionError(kind)


def eval_F(char_id: str, alpha: Composition) -> Fraction:
    """Value of a closed-form character on the fundamental basis element of
    alpha."""
    kind, power = _parse_id(char_id)
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
    of sigma, so this is eval_F there, for every character id."""
    return eval_F(char_id, descent_composition(sigma))


class TruncatedCharacter:
    """A linear functional on QSym truncated at degree N, stored as one
    dense table of monomial-basis values per degree (table n has one entry
    per composition of n, indexed by partial-sum bitmask).  Values go
    through exactnum.as_fraction, so a float raises TypeError."""

    __slots__ = ("max_degree", "tables")

    def __init__(self, max_degree: int, tables):
        if max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        tables = tuple(tuple(en.as_fraction(v) for v in row) for row in tables)
        if len(tables) != max_degree + 1:
            raise ValueError("expected %d degree tables" % (max_degree + 1,))
        for n, row in enumerate(tables):
            want = 1 if n == 0 else 1 << (n - 1)
            if len(row) != want:
                raise ValueError("degree-%d table must have %d entries" % (n, want))
        self.max_degree = max_degree
        self.tables = tables

    @classmethod
    def tabulate(cls, max_degree: int, fn) -> "TruncatedCharacter":
        tables = [
            [fn(alpha) for alpha in all_compositions(n)]
            for n in range(max_degree + 1)
        ]
        return cls(max_degree, tables)

    def value(self, alpha) -> Fraction:
        n = mask = 0
        for a in alpha:
            if type(a) is not int or a < 1:
                raise ValueError(
                    "composition parts must be positive integers: %r" % (tuple(alpha),)
                )
            if n:
                mask |= 1 << (n - 1)
            n += a
        if n > self.max_degree:
            raise ValueError(
                "composition of weight %d exceeds truncation %d" % (n, self.max_degree)
            )
        return self.tables[n][mask]

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedCharacter)
            and self.max_degree == other.max_degree
            and self.tables == other.tables
        )

    def __repr__(self):
        return "TruncatedCharacter(N=%d)" % self.max_degree


def restrict(char_id: str, max_degree: int) -> TruncatedCharacter:
    """Tabulate a closed-form character on every composition of every
    degree up to max_degree."""
    return TruncatedCharacter.tabulate(max_degree, lambda a: eval_M(char_id, a))


def _require_same_degree(phi: TruncatedCharacter, psi: TruncatedCharacter):
    if phi.max_degree != psi.max_degree:
        raise ValueError(
            "truncation degrees differ: %d vs %d" % (phi.max_degree, psi.max_degree)
        )


def _denominator_lcm(*chars: TruncatedCharacter) -> int:
    return lcm(*{v.denominator for phi in chars for row in phi.tables for v in row})


def _scaled(phi: TruncatedCharacter, c: int, base: int = 1) -> list[list[int]]:
    """phi's tables as ints: the degree-n values times base * c**n."""
    rows = []
    for n, row in enumerate(phi.tables):
        scale = base * c ** n
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    return rows


def _unscaled(rows, c: int, base: int = 1) -> TruncatedCharacter:
    """The character whose degree-n values are rows[n] / (base * c**n)."""
    tables = []
    for n, row in enumerate(rows):
        scale = base * c ** n
        tables.append([Fraction(v, scale) for v in row])
    return TruncatedCharacter(len(rows) - 1, tables)


def _proper_cuts(left, right, n: int) -> list[int]:
    """The deconcatenation kernel: for every composition of n (by mask), the
    sum of left(first parts) * right(remaining parts) over its proper cuts.

    A set bit ``low`` of mask is the partial sum s = low.bit_length(); the
    cut there leaves mask & (low - 1) in degree s and mask >> s in degree
    n - s.  Only degrees 1..n-1 of left and right are read, so a recursion
    may pass tables that end at degree n - 1.
    """
    row = []
    for mask in range(1 << (n - 1)):
        total = 0
        rest = mask
        while rest:
            low = rest & -rest
            s = low.bit_length()
            total += left[s][mask & (low - 1)] * right[n - s][mask >> s]
            rest ^= low
        row.append(total)
    return row


def _inverse_rows(rows) -> list[list[int]]:
    """Scaled tables of the convolution inverse of scaled tables with
    degree-0 value 1: (phi^-1)_n = -phi_n - sum over proper cuts."""
    inv = [[1]]
    for n in range(1, len(rows)):
        cuts = _proper_cuts(rows, inv, n)
        inv.append([-(v + x) for v, x in zip(rows[n], cuts)])
    return inv


def _halve(row) -> list[int]:
    """Exact halves of the entries of row; an odd entry means a fault."""
    halves = []
    for v in row:
        q, r = divmod(v, 2)
        if r:
            raise ArithmeticError("odd value %d in an exact halving" % v)
        halves.append(q)
    return halves


def convolve(phi: TruncatedCharacter, psi: TruncatedCharacter) -> TruncatedCharacter:
    """Convolution product: on M_alpha, the sum over deconcatenations
    alpha = (first i parts | rest) of phi(left) psi(right)."""
    _require_same_degree(phi, psi)
    c = _denominator_lcm(phi, psi)
    # degree 0 is scaled by base, so that non-integer phi(1), psi(1) work
    base = lcm(phi.tables[0][0].denominator, psi.tables[0][0].denominator)
    left, right = _scaled(phi, c, base), _scaled(psi, c, base)
    a, b = left[0][0], right[0][0]
    rows = [[a * b]]
    for n in range(1, phi.max_degree + 1):
        cuts = _proper_cuts(left, right, n)
        rows.append([a * r + v * b + x for v, r, x in zip(left[n], right[n], cuts)])
    return _unscaled(rows, c, base * base)


def inverse(phi: TruncatedCharacter) -> TruncatedCharacter:
    """Convolution inverse, by the degree recursion; requires phi(1) = 1."""
    if phi.value(()) != 1:
        raise ValueError("inverse requires phi(1) = 1")
    c = _denominator_lcm(phi)
    return _unscaled(_inverse_rows(_scaled(phi, c)), c)


def bar(phi: TruncatedCharacter) -> TruncatedCharacter:
    """The degree-sign involution: degree-n values pick up (-1)^n."""
    tables = [
        [(-v if n % 2 else v) for v in row] for n, row in enumerate(phi.tables)
    ]
    return TruncatedCharacter(phi.max_degree, tables)


def decompose(phi: TruncatedCharacter):
    """Split phi (with phi(1) = 1) into its even and odd parts, returning
    (phi_plus, phi_minus) with phi = phi_plus * phi_minus in convolution.

    This is the oracle: it uses only phi's own values, the inverse
    recursion, and the two decomposition recursions, never the closed
    forms.  It runs on integer tables: with d the lcm of phi's
    denominators and c = 2d, degree n is scaled by c**n, which makes every
    value of phi^-1, phi_+, phi_- and G = phi^-1 phi_+ an integer.  The
    three-fold sum of the module docstring is regrouped by its left piece,

        corr = sum_proper phi^-1(left) phi_+(right)
               + sum_proper phi_+(left) G(right),
        G_n  = (phi^-1)_n + (phi_+)_n + sum_proper phi^-1(left) phi_+(right),

    so each degree of phi_+ takes two kernel passes, each linear in the
    number of parts.  Then 2 (phi_+)_n = (-1)^n phi_n - (phi^-1)_n - corr,
    and that halving is checked to be exact.  For integer phi, phi_- (the
    square root of bar(phi)^-1 phi) and phi_+ = phi bar(phi_-) have 2-adic
    valuation at least 1 - n in degree n, so an odd value can only come
    from a fault; it raises ArithmeticError.
    """
    if phi.value(()) != 1:
        raise ValueError("decompose requires phi(1) = 1")
    c = 2 * _denominator_lcm(phi)
    rows = _scaled(phi, c)
    inv = _inverse_rows(rows)
    plus, g, minus = [[1]], [[1]], [[1]]
    for n in range(1, len(rows)):
        inv_plus = _proper_cuts(inv, plus, n)
        plus_g = _proper_cuts(plus, g, n)
        sign = -1 if n % 2 else 1
        plus.append(
            _halve(
                sign * v - i - x - y
                for v, i, x, y in zip(rows[n], inv[n], inv_plus, plus_g)
            )
        )
        g.append([i + p + x for i, p, x in zip(inv[n], plus[n], inv_plus)])
        cuts = _proper_cuts(plus, minus, n)
        minus.append([v - p - x for v, p, x in zip(rows[n], plus[n], cuts)])
    return _unscaled(plus, c), _unscaled(minus, c)


def compose_antipode(phi: TruncatedCharacter) -> TruncatedCharacter:
    """phi composed with the antipode: on M_alpha this is (-1)^(k(alpha))
    times the sum of phi over all coarsenings of the reversal of alpha."""
    tables = []
    for n in range(phi.max_degree + 1):
        row = []
        for alpha in all_compositions(n):
            total = Fraction(0)
            for gamma in coarsenings(reversal(alpha)):
                total += phi.value(gamma)
            row.append(-total if len(alpha) % 2 else total)
        tables.append(row)
    return TruncatedCharacter(phi.max_degree, tables)


def compose_T(phi: TruncatedCharacter) -> TruncatedCharacter:
    """phi composed with the reversal involution T."""
    tables = []
    for n in range(phi.max_degree + 1):
        size = 1 if n == 0 else 1 << (n - 1)
        row = [
            phi.tables[n][to_index(reversal(from_index(n, mask)))]
            for mask in range(size)
        ]
        tables.append(row)
    return TruncatedCharacter(phi.max_degree, tables)


def h_minus(alpha: Composition) -> Fraction:
    """The definitional alternating sum over refinements beta of alpha of
    (-1)^(k(beta) + p_minus(beta) + 1) C(p_minus(beta), floor(n/2) - p_minus(beta))."""
    n = sum(alpha)
    fl = n // 2
    total = Fraction(0)
    for beta in refinements(alpha):
        p = p_minus(beta)
        sign = -1 if (len(beta) + p + 1) % 2 else 1
        total += sign * en.bivariate_catalan(p, fl - p)
    return total


def h_plus(alpha: Composition) -> Fraction:
    """Companion sum with the augmented peak statistic; the weight of alpha
    must be even."""
    n = sum(alpha)
    if n % 2:
        raise ValueError("h_plus requires even weight, got %d" % n)
    half = n // 2
    total = Fraction(0)
    for beta in refinements(alpha):
        q = p_plus(beta)
        sign = -1 if (len(beta) + q + 1) % 2 else 1
        total += sign * en.bivariate_catalan(q, half - q)
    return total
