"""The definitional oracle route: convolution, inverse and even/odd
decomposition computed directly over ``Fraction`` values, one composition at
a time, by slicing tuples at every deconcatenation.

This is the route the package used before its bitmask kernel on integer
rows over per-degree denominators, and its ``decompose`` is the former
three-fold recursion for phi_+, not the paired recursion on phi = phi_+
phi_- and phi_- bar(phi_-) = counit that the package now takes
(Aguiar-Bergeron-Sottile, Compositio Math. 142 (2006), Thm 1.5).  It stays
here, slow and literal, as the reference the oracle is compared against.
It only reads values through ``TruncatedCharacter.value`` and builds
results through the public constructor.

``decompose_by_square_root`` is the package's former route on integer
rows: the square bar(phi)^-1 phi = phi_-^2, by the package's ``inverse``
and ``convolve``, its square root phi_- one degree at a time, and the
product phi_+ = phi bar(phi_-).  It runs on the package's kernel and scale
rule, and rows are reduced, so it gives the same rows and denominators,
not only the same values.

``proper_cuts`` is the package's former deconcatenation kernel, which
walks the set bits of every mask one at a time; it is the reference for
the block kernel ``characters._proper_cuts`` on integer rows.  The walk
keeps the terms of each cut apart (``cut_rows``), so that one walk serves
every factor vector of a pair (``cut_sum``).

``over_lcm`` is the constructor's former conversion of a table to rows,
value by value: the reference for the one-pass conversion of
``TruncatedCharacter``.
"""

from fractions import Fraction
from math import lcm

from qsymx import characters as ch
from qsymx import exactnum as en
from qsymx.characters import TruncatedCharacter
from qsymx.compositions import all_compositions, to_index


def over_lcm(tables):
    """(numerators, denominators) of a table as the constructor once stored
    them: ints as they are and every other value through
    exactnum.as_fraction, then each row over the lcm of its denominators."""
    tables = [[v if type(v) is int else en.as_fraction(v) for v in row] for row in tables]
    denominators = tuple(lcm(*(v.denominator for v in row)) for row in tables)
    numerators = tuple(
        tuple(v.numerator * (d // v.denominator) for v in row)
        for row, d in zip(tables, denominators)
    )
    return numerators, denominators


def cut_rows(left, right, n: int) -> list[list[int]]:
    """The terms of the deconcatenation kernel, one row per cut: row s holds,
    for every composition of n (by mask) with a partial sum s, the product
    left(first parts) * right(remaining parts) of its cut there, and 0 for
    the others; row 0 (no proper cut) is all 0.

    A set bit ``low`` of mask is the partial sum s = low.bit_length(); the
    cut there leaves mask & (low - 1) in degree s and mask >> s in degree
    n - s.  Only degrees 1..n-1 of left and right are read, so a recursion
    may pass tables that end at degree n - 1.
    """
    rows = [[0] * (1 << (n - 1)) for _ in range(n)]
    for mask in range(1 << (n - 1)):
        rest = mask
        while rest:
            low = rest & -rest
            s = low.bit_length()
            rows[s][mask] = left[s][mask & (low - 1)] * right[n - s][mask >> s]
            rest ^= low
    return rows


def cut_sum(rows, factors=None) -> list[int]:
    """The kernel's row from the cut_rows of one pair: the sum over the
    proper cuts s of factors[s] * rows[s]; without factors, every factor
    is 1."""
    total = rows[0]
    for s in range(1, len(rows)):
        f = 1 if factors is None else factors[s]
        if f:
            total = [t + f * v for t, v in zip(total, rows[s])]
    return total


def proper_cuts(left, right, n: int, factors=None) -> list[int]:
    """The deconcatenation kernel: for every composition of n (by mask), the
    sum of factors[s] * left(first parts) * right(remaining parts) over its
    proper cuts, s being the weight of the first parts; without factors,
    every factor is 1.  The set bits of every mask are walked one at a
    time (cut_rows)."""
    return cut_sum(cut_rows(left, right, n), factors)


def convolve(phi: TruncatedCharacter, psi: TruncatedCharacter) -> TruncatedCharacter:
    """On M_alpha, the sum over deconcatenations alpha = (first i parts |
    rest) of phi(left) psi(right)."""
    assert phi.max_degree == psi.max_degree
    tables = []
    for n in range(phi.max_degree + 1):
        row = []
        for alpha in all_compositions(n):
            total = Fraction(0)
            for i in range(len(alpha) + 1):
                total += phi.value(alpha[:i]) * psi.value(alpha[i:])
            row.append(total)
        tables.append(row)
    return TruncatedCharacter(phi.max_degree, tables)


def inverse(phi: TruncatedCharacter) -> TruncatedCharacter:
    """Convolution inverse by the degree recursion
    (phi^-1)_n = - sum_{i=1..k} phi(first i parts) (phi^-1)(rest)."""
    assert phi.value(()) == 1
    tables: list[list[Fraction]] = [[Fraction(1)]]

    def inv_value(alpha):
        return tables[sum(alpha)][to_index(alpha)]

    for n in range(1, phi.max_degree + 1):
        row = []
        for alpha in all_compositions(n):
            total = Fraction(0)
            for i in range(1, len(alpha) + 1):
                total += phi.value(alpha[:i]) * inv_value(alpha[i:])
            row.append(-total)
        tables.append(row)
    return TruncatedCharacter(phi.max_degree, tables)


def decompose(phi: TruncatedCharacter):
    """(phi_plus, phi_minus) by the three-fold recursion

        (-1)^n phi_n = 2 (phi_+)_n + (phi^-1)_n
                       + sum_{left|mid|right, no piece of weight n}
                         phi_+(left) phi^-1(mid) phi_+(right)

    and phi_- = phi_+^-1 phi, as a recursion over deconcatenations."""
    assert phi.value(()) == 1
    n_max = phi.max_degree
    phi_inv = inverse(phi)

    plus_tables: list[list[Fraction]] = [[Fraction(1)]]

    def plus_value(alpha):
        return plus_tables[sum(alpha)][to_index(alpha)]

    for n in range(1, n_max + 1):
        row = []
        for alpha in all_compositions(n):
            k = len(alpha)
            corr = Fraction(0)
            for s in range(k + 1):
                left = alpha[:s]
                if sum(left) == n:
                    continue
                pl = plus_value(left)
                if not pl:
                    continue
                for t in range(s, k + 1):
                    mid = alpha[s:t]
                    right = alpha[t:]
                    if sum(mid) == n or sum(right) == n:
                        continue
                    corr += pl * phi_inv.value(mid) * plus_value(right)
            signed_phi = phi.value(alpha)
            if n % 2:
                signed_phi = -signed_phi
            row.append((signed_phi - phi_inv.value(alpha) - corr) / 2)
        plus_tables.append(row)
    phi_plus = TruncatedCharacter(n_max, plus_tables)

    minus_tables: list[list[Fraction]] = [[Fraction(1)]]

    def minus_value(alpha):
        return minus_tables[sum(alpha)][to_index(alpha)]

    for n in range(1, n_max + 1):
        row = []
        for alpha in all_compositions(n):
            total = Fraction(0)
            for i in range(1, len(alpha) + 1):
                total += phi_plus.value(alpha[:i]) * minus_value(alpha[i:])
            row.append(phi.value(alpha) - total)
        minus_tables.append(row)
    phi_minus = TruncatedCharacter(n_max, minus_tables)

    return phi_plus, phi_minus


def decompose_by_square_root(phi: TruncatedCharacter):
    """(phi_plus, phi_minus) as phi_- = the square root of bar(phi)^-1 phi
    with phi_-(1) = 1 and phi_+ = phi bar(phi_-), on reduced integer rows:
    the square root is solved from (phi_-^2)_n = 2 (phi_-)_n + the proper
    cuts of phi_- phi_-, over the lcm of the square's denominator (slot 0)
    and the products of phi_-'s denominators, and halved with the check
    against c**n, c twice the lcm of phi's denominators."""
    assert phi.value(()) == 1
    c = 2 * lcm(*phi.denominators)
    square = ch.convolve(ch.inverse(ch.bar(phi)), phi)
    square, square_d = square.numerators, square.denominators
    minus, minus_d = [[1]], [1]
    for n in range(1, len(square)):
        common, f = ch._cut_factors(
            [square_d[n]] + [minus_d[s] * minus_d[n - s] for s in range(1, n)]
        )
        cuts = ch._proper_cuts(minus, minus, n, f)
        row, d = ch._halve([f[0] * v - y for v, y in zip(square[n], cuts)], common, c ** n)
        minus.append(row)
        minus_d.append(d)
    phi_minus = TruncatedCharacter._from_rows(minus, minus_d)
    return ch.convolve(phi, ch.bar(phi_minus)), phi_minus
