"""Permutations in one-line notation, descent and peak statistics, shuffles,
and the shuffle-product algebra spanned by permutations.

A permutation of n is a tuple containing each of 1..n exactly once; () is
the (unique) permutation of 0.
"""

import itertools

from .compositions import Composition, _ascii_int, _mask_pass, all_compositions, from_index
from .exactnum import LinearCombination, multinomial

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
    "descent_classes",
    "SSymElement",
    "ssym_basis",
    "multiply_ssym",
]

Permutation = tuple[int, ...]

_PERMUTATION_CAP = 9


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
    try:
        letters = [_ascii_int(x) for x in (text.split(",") if "," in text else text)]
    except ValueError:
        raise ValueError("cannot parse permutation %r" % text) from None
    return permutation(letters)


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
    shifted = [x + n for x in tau]
    out = []
    # sigma's letters go to the positions of each n-subset, in lexicographic
    # order: those with sigma's first letter in front come first, recursively
    for positions in itertools.combinations(range(n + len(tau)), n):
        word = shifted.copy()
        for i, x in zip(positions, sigma):
            word.insert(i, x)
        out.append(tuple(word))
    return out


def all_permutations(n: int):
    """Iterate over S_n in lexicographic order.  Enumerating S_n is
    factorial work, so n is capped at _PERMUTATION_CAP."""
    if type(n) is not int or n < 0:
        raise ValueError("n must be a non-negative int, got %r" % (n,))
    if n > _PERMUTATION_CAP:
        raise ValueError("all_permutations(%d) exceeds the cap %d" % (n, _PERMUTATION_CAP))
    return itertools.permutations(range(1, n + 1))


def descent_classes(n: int):
    """Yield (representative, count) for each descent set S of S_n, in
    increasing bitmask order (bit i-1 for descent i): count is the number
    of permutations of n with descent set S, and the representative is the
    one whose runs, of the lengths from_index(n, S), take decreasing blocks
    of values.

    A statistic that depends only on the descent set, such as the peak
    counts, is summed over S_n by weighting each representative by its
    count: 2^(n-1) classes in place of n! permutations.  The counts come
    from the multinomials alpha(T), the number of permutations whose
    descents lie in T, by Moebius inversion over the sub-masks T of S
    (Stanley, EC1, section 2.2).

    >>> list(descent_classes(3))
    [((1, 2, 3), 1), ((3, 1, 2), 2), ((2, 3, 1), 2), ((3, 2, 1), 1)]
    """
    runs = all_compositions(n)
    counts = _mask_pass([multinomial(alpha) for alpha in runs], n, False, -1)
    for alpha, count in zip(runs, counts):
        top, sigma = n, []
        for a in alpha:
            sigma.extend(range(top - a + 1, top + 1))
            top -= a
        yield tuple(sigma), count


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
    return SSymElement.bilinear(
        None, x, y, lambda sigma, tau: dict.fromkeys(shuffles(sigma, tau), 1)
    )
