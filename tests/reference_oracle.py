"""The definitional oracle route: convolution, inverse and even/odd
decomposition computed directly over ``Fraction`` values, one composition at
a time, by slicing tuples at every deconcatenation.

This is the route the package used before its integer-scaled bitmask
kernel, and its ``decompose`` is the former three-fold recursion for phi_+,
not the square root of bar(phi)^-1 phi that the package now takes
(Aguiar-Bergeron-Sottile, Compositio Math. 142 (2006), Thm 1.5).  It stays
here, slow and literal, as the reference the oracle is compared against.
It only reads values through ``TruncatedCharacter.value`` and builds
results through the public constructor.

``proper_cuts`` is the package's former deconcatenation kernel, which
walks the set bits of every mask one at a time; it is the reference for
the block kernel ``characters._proper_cuts`` on integer rows.
"""

from fractions import Fraction

from qsymx.characters import TruncatedCharacter
from qsymx.compositions import all_compositions, to_index


def proper_cuts(left, right, n: int) -> list[int]:
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
