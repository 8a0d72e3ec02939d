"""Compositions of non-negative integers and their combinatorics.

A composition is a plain tuple of positive ints; the empty tuple is the
composition of 0.  Compositions of n are identified with subsets of
{1, ..., n-1} through their proper partial sums, stored as a bitmask
(bit i-1 set  <=>  i is a partial sum).  The bitmask gives O(1) refinement
tests and a canonical dense index 0 .. 2^(n-1)-1 used by the character
tables.  Enumeration is one walk, ``coarsenings``: each later part is either
added to the last part so far or appended as a new part, which lists the
results in increasing bitmask order; ``all_compositions`` and
``refinements`` are built from it.
"""

from functools import lru_cache

__all__ = [
    "Composition",
    "composition",
    "parse_composition",
    "format_composition",
    "to_index",
    "from_index",
    "all_compositions",
    "p_minus",
    "p_plus",
    "refinements",
    "coarsenings",
    "reversal",
    "conjugate",
    "LatticePath",
    "delannoy_paths",
    "quasi_shuffle",
    "ribbon_cuts",
]

Composition = tuple[int, ...]

# Lattice paths are tuples over these step symbols.
HORIZONTAL = "H"
VERTICAL = "V"
DIAGONAL = "D"
LatticePath = tuple[str, ...]


def composition(parts) -> Composition:
    """Validate an iterable of parts and return it as a composition.  Parts
    must be positive ints; nothing is coerced."""
    alpha = tuple(parts)
    for a in alpha:
        if type(a) is not int or a < 1:
            raise ValueError(
                "composition parts must be positive integers: %r" % (alpha,)
            )
    return alpha


def _ascii_int(text: str) -> int:
    """int(text), refusing what int() alone would coerce: "1_2" (read as 12)
    and non-ASCII digits such as "\u0663" (read as 3) raise ValueError."""
    if "_" in text or not text.isascii():
        raise ValueError("invalid literal for an integer: %r" % (text,))
    return int(text)


def parse_composition(text: str) -> Composition:
    """Parse the text form used by the CLI: comma-separated parts, "()" for
    the empty composition.

    >>> parse_composition("2,1,3"), parse_composition("()")
    ((2, 1, 3), ())
    """
    text = text.strip()
    if text in ("()", ""):
        return ()
    try:
        parts = [_ascii_int(piece) for piece in text.split(",")]
    except ValueError:
        raise ValueError("cannot parse composition %r" % text) from None
    return composition(parts)


def format_composition(alpha: Composition) -> str:
    """Inverse of parse_composition."""
    if not alpha:
        return "()"
    return ",".join(str(a) for a in alpha)


def to_index(alpha: Composition) -> int:
    """Bitmask of the proper partial sums of alpha (bit i-1 for sum i)."""
    mask = 0
    acc = 0
    for a in alpha[:-1]:
        acc += a
        mask |= 1 << (acc - 1)
    return mask


def from_index(n: int, mask: int) -> Composition:
    """Composition of n whose proper partial sums are the set bits of mask."""
    if n == 0:
        return ()
    parts = []
    prev = 0
    for i in range(1, n):
        if mask >> (i - 1) & 1:
            parts.append(i - prev)
            prev = i
    parts.append(n - prev)
    return tuple(parts)


def all_compositions(n: int) -> list[Composition]:
    """All 2^(n-1) compositions of n (one for n = 0), in increasing bitmask
    order.

    >>> all_compositions(3)
    [(3,), (1, 2), (2, 1), (1, 1, 1)]
    """
    if type(n) is not int or n < 0:
        raise ValueError("n must be a non-negative int, got %r" % (n,))
    if n == 0:
        return [()]
    return coarsenings((1,) * n)


def p_minus(alpha: Composition) -> int:
    """Parts > 1 other than the last: the upper corners of the ribbon
    diagram of alpha, and the interior peaks of any permutation with
    descent composition alpha.

    >>> p_minus((1, 3, 1, 2, 2))
    2
    """
    # the parts are positive, so those > 1 are the ones that are not 1
    return len(alpha) - 1 - alpha[:-1].count(1) if alpha else 0


def p_plus(alpha: Composition) -> int:
    """1 + (parts > 1 other than the first and the last), 0 for at most one
    part: the upper corners after a square is glued to the left of the first
    row, and the augmented peaks of a permutation with descent composition
    alpha.

    >>> p_plus((1, 3, 1, 2, 2)), p_plus((7,))
    (3, 0)
    """
    k = len(alpha)
    if k <= 1:
        return 0
    return k - 1 - alpha[1:-1].count(1)


def refinements(alpha: Composition) -> list[Composition]:
    """All beta with beta >= alpha (including alpha), in bitmask order:
    each part of alpha is refined on its own, and the later part's choice
    varies slowest.

    >>> refinements((2, 2))
    [(2, 2), (1, 1, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    out = [()]
    for a in alpha:
        out = [beta + gamma for gamma in all_compositions(a) for beta in out]
    return out


def coarsenings(alpha: Composition) -> list[Composition]:
    """All beta with beta <= alpha (alpha refines beta), in bitmask order:
    each later part of alpha is either added to the last part so far or
    appended as a new part, and the later part's choice varies slowest.

    >>> coarsenings((1, 2, 1))
    [(4,), (1, 3), (3, 1), (1, 2, 1)]
    """
    out = [alpha[:1]]
    for a in alpha[1:]:
        out = [beta[:-1] + (beta[-1] + a,) for beta in out] + [beta + (a,) for beta in out]
    return out


def _mask_pass(values, n: int, supersets: bool, sign: int) -> list:
    """Yates' pass, one bit at a time, over a row indexed by the masks of
    degree n (Stanley, EC1, section 2.2): entry S of the result sums
    sign^|T ^ S| values[T] over the T containing S if supersets (with sign
    1, F-basis values from M-basis values, the T being the refinements of
    S), else over the T inside S (with sign -1, Moebius inversion).

    >>> _mask_pass([1, 2, 3, 4], 3, True, 1), _mask_pass([1, 2, 3, 4], 3, False, -1)
    ([10, 6, 7, 4], [1, 1, 2, 0])
    """
    row = list(values)
    for i in range(n - 1):
        bit = 1 << i
        for low in range(0, len(row), 2 * bit):
            high = low + bit
            without, with_bit = row[low:high], row[high:high + bit]
            if supersets:
                row[low:high] = [a + sign * b for a, b in zip(without, with_bit)]
            else:
                row[high:high + bit] = [b + sign * a for a, b in zip(without, with_bit)]
    return row


def reversal(alpha: Composition) -> Composition:
    return alpha[::-1]


def conjugate(alpha: Composition) -> Composition:
    """The composition of the ribbon diagram reflected across y = x:
    complement of the partial-sum set of the reversal.

    >>> conjugate((2, 3, 1, 2, 2))
    (1, 2, 3, 1, 2, 1)
    >>> conjugate((1, 1))
    (2,)
    """
    n = sum(alpha)
    if n <= 1:
        return alpha
    full = (1 << (n - 1)) - 1
    # the partial sums of the reversal are n minus those of alpha
    return from_index(n, full & ~to_index(alpha[::-1]))


@lru_cache(maxsize=512)
def _delannoy_paths(p: int, q: int) -> tuple[LatticePath, ...]:
    if p == 0 and q == 0:
        return ((),)
    out: list[LatticePath] = []
    if p > 0:
        out.extend((HORIZONTAL,) + tail for tail in _delannoy_paths(p - 1, q))
    if q > 0:
        out.extend((VERTICAL,) + tail for tail in _delannoy_paths(p, q - 1))
    if p > 0 and q > 0:
        out.extend((DIAGONAL,) + tail for tail in _delannoy_paths(p - 1, q - 1))
    return tuple(out)


def delannoy_paths(p: int, q: int) -> list[LatticePath]:
    """All lattice paths from (0,0) to (p,q) with unit horizontal, vertical
    and diagonal steps, in a fixed (H < V < D at each point) order."""
    if p < 0 or q < 0:
        raise ValueError("endpoint coordinates must be non-negative")
    return list(_delannoy_paths(p, q))


def quasi_shuffle(alpha: Composition, beta: Composition, path: LatticePath) -> Composition:
    """Quasi-shuffle of alpha and beta along a Delannoy path: a horizontal
    step consumes the next part of alpha, a vertical step the next part of
    beta, a diagonal step consumes one of each and emits their sum."""
    out = []
    i = j = 0
    for step in path:
        if step == HORIZONTAL:
            out.append(alpha[i])
            i += 1
        elif step == VERTICAL:
            out.append(beta[j])
            j += 1
        elif step == DIAGONAL:
            out.append(alpha[i] + beta[j])
            i += 1
            j += 1
        else:
            raise ValueError("unknown step %r" % (step,))
    if i != len(alpha) or j != len(beta):
        raise ValueError(
            "path endpoint (%d, %d) does not match lengths (%d, %d)"
            % (i, j, len(alpha), len(beta))
        )
    return tuple(out)


def ribbon_cuts(alpha: Composition) -> list[tuple[Composition, Composition]]:
    """The n+1 ways of cutting the ribbon diagram of alpha in two, as
    (left, right) pairs in order of the cut position 0..n along the ribbon,
    which is the weight of left.  A cut strictly inside a row of length a at
    offset t splits that row into a trailing row of t squares and a leading
    row of a - t squares; a cut at a row boundary splits between parts.

    >>> ribbon_cuts((2,))
    [((), (2,)), ((1,), (1,)), ((2,), ())]
    """
    n = sum(alpha)
    cuts = [((), alpha)]
    for j, a in enumerate(alpha):
        for t in range(1, a):
            cuts.append((alpha[:j] + (t,), (a - t,) + alpha[j + 1:]))
        cuts.append((alpha[: j + 1], alpha[j + 1:]))
    assert len(cuts) == n + 1
    return cuts


def _cut_peaks(alpha: Composition) -> list[tuple[int, int, int]]:
    """(p_minus(left), p_plus(left), p_minus(right)) for each ribbon cut
    (left, right) of alpha, in cut-position order, in one pass over the
    parts that carries a prefix count of parts > 1 and a suffix count.

    A cut inside part j, or at its end, leaves the parts > 1 before part j
    to the left piece, whose last part is the piece of part j; the right
    piece keeps the parts > 1 after part j other than the last part of
    alpha, and one more when its first part, the a - t remaining squares of
    part j, is > 1 and not the last part.

    >>> _cut_peaks((3, 1))
    [(0, 0, 1), (0, 0, 1), (0, 0, 0), (0, 0, 0), (1, 1, 0)]
    """
    k = len(alpha)
    right = sum(1 for a in alpha[:-1] if a > 1)
    cuts = [(0, 0, right)]
    left = 0
    head = 1 if alpha and alpha[0] > 1 else 0
    for j, a in enumerate(alpha):
        last = j == k - 1
        if a > 1 and not last:
            right -= 1
        lp = 0 if j == 0 else 1 + left - head
        # offsets t = 1 .. a - 2 leave a - t > 1 squares on the right, then
        # t = a - 1 and the cut at the end of the part
        inner = right if last else right + 1
        cuts += [(left, lp, inner)] * (a - 2) + [(left, lp, right)] * min(a, 2)
        if a > 1:
            left += 1
    return cuts
