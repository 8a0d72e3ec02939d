"""Compositions of non-negative integers and their combinatorics.

A composition is a plain tuple of positive ints, () for 0.  A composition
of n is also the bitmask of its proper partial sums (bit i-1 set <=> i is a
partial sum), its index 0 .. 2^(n-1)-1 in the character tables.
``coarsenings`` enumerates in increasing bitmask order, and
``all_compositions`` and ``refinements`` are built from it.
"""

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
    "ribbon_cuts",
]

Composition = tuple[int, ...]


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
    sign^|T ^ S| values[T] over the T containing S if supersets, else over
    the T inside S.  Its users: the registry's sums over refinements and
    coarsenings (identities), the descent classes (permutations), and the
    basis change and M antipode of qsym.

    Bit i pairs each mask without it with the mask with it, by whichever
    kind of slice pair is fewer: for each offset t below the bit, the
    slices of step 2^(i+1) from t and from t + 2^i; else for each block of
    2^(i+1) masks, its two contiguous halves.

    >>> _mask_pass([1, 2, 3, 4], 3, True, 1), _mask_pass([1, 2, 3, 4], 3, False, -1)
    ([10, 6, 7, 4], [1, 1, 2, 0])

    Sub-mask sums are the basis change: M_(2,1) - M_(1,1,1), by the masks
    (3), (1,2), (2,1), (1,1,1), is F_(2,1) - 2 F_(1,1,1) (sign -1), and back
    (sign 1).

    >>> _mask_pass([0, 0, 1, -1], 3, False, -1), _mask_pass([0, 0, 1, -2], 3, False, 1)
    ([0, 0, 1, -2], [0, 0, 1, -1])
    """
    row = list(values)
    for i in range(n - 1):
        bit = 1 << i
        step = 2 * bit
        if bit * step < len(row):
            pairs = [(slice(t, None, step), slice(t + bit, None, step)) for t in range(bit)]
        else:
            pairs = [(slice(low, low + bit), slice(low + bit, low + step))
                     for low in range(0, len(row), step)]
        for without, with_bit in pairs:
            a_row, b_row = row[without], row[with_bit]
            if supersets:
                row[without] = [a + sign * b for a, b in zip(a_row, b_row)]
            else:
                row[with_bit] = [b + sign * a for a, b in zip(a_row, b_row)]
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

