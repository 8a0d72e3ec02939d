"""Permutations in one-line notation, descent and peak statistics, shuffles,
and the shuffle-product algebra spanned by permutations.

A permutation of n is a tuple containing each of 1..n exactly once; () is
the (unique) permutation of 0.
"""

import itertools

from .compositions import Composition, from_index
from .exactnum import LinearCombination

__all__ = [
    "Permutation",
    "permutation",
    "parse_permutation",
    "format_permutation",
    "descent_set",
    "descent_composition",
    "peak_sets",
    "interior_peaks",
    "augmented_peaks",
    "shuffles",
    "all_permutations",
    "DEFAULT_PERMUTATION_BOUND",
    "SSymElement",
    "ssym_basis",
    "multiply_ssym",
]

Permutation = tuple[int, ...]

DEFAULT_PERMUTATION_BOUND = 9


def permutation(word) -> Permutation:
    """Validate a word on {1..n} and return it as a permutation.  Letters
    must be ints; nothing is coerced."""
    sigma = tuple(word)
    if any(type(x) is not int for x in sigma):
        raise ValueError("permutation letters must be integers: %r" % (sigma,))
    if sorted(sigma) != list(range(1, len(sigma) + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (len(sigma), sigma))
    return sigma


def parse_permutation(text: str) -> Permutation:
    """Parse "312546" (digits, n <= 9) or "3,1,2,5,4,6" (any n); "()" is
    the empty permutation."""
    text = text.strip()
    if text in ("()", ""):
        return ()
    if "," in text:
        return permutation(int(x) for x in text.split(","))
    return permutation(int(ch) for ch in text)


def format_permutation(sigma: Permutation) -> str:
    if not sigma:
        return "()"
    if len(sigma) <= 9:
        return "".join(str(x) for x in sigma)
    return ",".join(str(x) for x in sigma)


def descent_set(sigma: Permutation) -> frozenset[int]:
    """{i in [n-1] : sigma(i) > sigma(i+1)}."""
    return frozenset(i for i in range(1, len(sigma)) if sigma[i - 1] > sigma[i])


def descent_composition(sigma: Permutation) -> Composition:
    """The composition of n whose partial sums are the descent set.

    >>> descent_composition((3, 1, 2, 5, 4, 6))
    (1, 3, 2)
    """
    n = len(sigma)
    mask = 0
    for i in descent_set(sigma):
        mask |= 1 << (i - 1)
    return from_index(n, mask)


def peak_sets(sigma: Permutation) -> tuple[frozenset[int], frozenset[int]]:
    """(interior, augmented) peak sets.  The augmented set counts positions
    i in [n-1] with sigma(i-1) < sigma(i) > sigma(i+1) under the convention
    sigma(0) = 0; the interior set drops position 1.

    >>> tuple(sorted(s) for s in peak_sets((3, 1, 2, 5, 4, 6)))
    ([4], [1, 4])
    """
    n = len(sigma)
    aug = frozenset(
        i
        for i in range(1, n)
        if (0 if i == 1 else sigma[i - 2]) < sigma[i - 1] > sigma[i]
    )
    return aug - {1}, aug


def augmented_peaks(sigma: Permutation) -> int:
    """len(peak_sets(sigma)[1]) without building the sets."""
    count = 0
    prev = 0
    for i in range(len(sigma) - 1):
        cur = sigma[i]
        if prev < cur > sigma[i + 1]:
            count += 1
        prev = cur
    return count


def interior_peaks(sigma: Permutation) -> int:
    """len(peak_sets(sigma)[0]) without building the sets."""
    count = augmented_peaks(sigma)
    if len(sigma) >= 2 and sigma[0] > sigma[1]:
        count -= 1
    return count


def shuffles(sigma: Permutation, tau: Permutation) -> list[Permutation]:
    """All shuffles of sigma with tau shifted up by len(sigma): exactly
    binomial(n+m, n) permutations of n+m, each preserving the relative
    order of sigma and of the shifted tau."""
    n = len(sigma)
    shifted = tuple(x + n for x in tau)

    def merge(a, b):
        if not a:
            yield b
            return
        if not b:
            yield a
            return
        for rest in merge(a[1:], b):
            yield (a[0],) + rest
        for rest in merge(a, b[1:]):
            yield (b[0],) + rest

    return list(merge(sigma, shifted))


def all_permutations(n: int, bound: int = DEFAULT_PERMUTATION_BOUND):
    """Iterate over S_n in lexicographic order.  Enumerating S_n is
    factorial work, so n is capped by an explicit bound."""
    if n > bound:
        raise ValueError("all_permutations(%d) exceeds bound %d" % (n, bound))
    return itertools.permutations(range(1, n + 1))


class SSymElement(LinearCombination):
    """A finite linear combination of permutation basis elements, with
    exact rational coefficients.  Zero coefficients are never stored."""

    __slots__ = ()
    key = staticmethod(permutation)

    def __init__(self, coeffs=None):
        super().__init__(None, coeffs)

    def __mul__(self, other):
        if isinstance(other, SSymElement):
            return multiply_ssym(self, other)
        return super().__mul__(other)

    def __repr__(self):
        if not self.coeffs:
            return "SSym(0)"
        bits = []
        for sigma in sorted(self.coeffs):
            c = self.coeffs[sigma]
            word = format_permutation(sigma)
            bits.append("F_%s" % word if c == 1 else "%s*F_%s" % (c, word))
        return "SSym(%s)" % " + ".join(bits)


def ssym_basis(sigma) -> SSymElement:
    return SSymElement({tuple(sigma): 1})


def multiply_ssym(x: SSymElement, y: SSymElement) -> SSymElement:
    """Bilinear extension of the shuffle product on basis elements."""
    x.check_compatible(y)

    def terms():
        for sigma, a in x.coeffs.items():
            for tau, b in y.coeffs.items():
                ab = a * b
                for rho in shuffles(sigma, tau):
                    yield rho, ab

    return SSymElement.from_terms(None, terms())
