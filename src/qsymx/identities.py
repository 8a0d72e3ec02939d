"""Executable registry of the combinatorial identities satisfied by the
bivariate Catalan numbers and the canonical characters.

Every check evaluates both sides of one identity over an exhaustive
parameter domain, exactly.  Left sides come from definitional sums
(enumeration of compositions, lattice paths, or permutations); right sides
come from closed forms.  Character-derived identities recompute the
characters from their closed forms, never from the decomposition oracle, so
that the two routes stay independent.  A check yields each side as it is
computed, an int or a Fraction; verify compares them and reports the two
sides of the first counterexample as Fractions.

A check's bounds live only in its domain text in the registry: each {N}
there is one bound, scaled by the depth profile and passed to the check as
an int argument, in the order the bounds appear.  "small" halves the stated
bounds, "standard" uses them as is, "deep" raises them by three quarters
(``_scale_for``).

A check computes once what the cases of its domain share, with one rule
per statistic (README describes each check's rule): sums over refinements
or coarsenings are one mask pass per weight (compositions._mask_pass),
shapes come from characters._shape_walk, counts over compositions or words
go by state (characters._gap_step, _shuffle_census), maps on compositions
read rows of masks (_rev_con_masks), and the Delannoy sums of central_prod
and catalan_prod are each one int over one denominator.
"""

import re
from collections import Counter, namedtuple
from collections.abc import Callable, Iterator
from fractions import Fraction
from math import lcm

# exactnum is looked up through the module, so that a function patched on
# the module is the one the checks see
from . import characters, exactnum as en
from .compositions import _mask_pass, all_compositions, p_minus, p_plus
from .permutations import augmented_peaks, descent_classes, interior_peaks

__all__ = [
    "CheckReport",
    "Counterexample",
    "registry_ids",
    "verify",
    "verify_all",
    "DEPTHS",
]

DEPTHS = ("small", "standard", "deep")

Case = tuple[dict, int | Fraction, int | Fraction]


# immutable records; namedtuple rather than a dataclass, so that importing
# the package does not load dataclasses (and with it inspect, ast and dis)
class Counterexample(namedtuple("Counterexample", "params left right")):
    """The first failing case of a check: its params dict and both sides as
    Fractions."""

    __slots__ = ()


class CheckReport(
    namedtuple("CheckReport", "id domain cases status counterexample", defaults=(None,))
):
    """One check's run: id, domain text, case count, status ("pass" or
    "fail") and the first Counterexample, or None."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _scale_for(depth: str) -> Callable[[int], int]:
    """The map of a stated bound b at depth: "small" halves it (rounding
    up, at least 1), "standard" keeps it, "deep" raises it by three
    quarters, b + max(1, 3b // 4), so 10 becomes 17 and 12 becomes 21."""
    if depth == "small":
        return lambda b: max(1, (b + 1) // 2)
    if depth == "standard":
        return lambda b: b
    if depth == "deep":
        return lambda b: b + max(1, 3 * b // 4)
    raise ValueError("depth must be one of %s, got %r" % (DEPTHS, depth))


def _b_over_4(h: int) -> Fraction:
    """B(h) / 4^h."""
    return Fraction(en.central_binomial(h), 4 ** h)


# ---------------------------------------------------------------------------
# the checks, in registry order


def _classical_conv(m_max: int) -> Iterator[Case]:
    """B(m) = 2 sum_{i=1..m} Cat(i-1) B(m-i)."""
    for m in range(1, m_max + 1):
        rhs = 2 * sum(en.catalan(i - 1) * en.central_binomial(m - i) for i in range(1, m + 1))
        yield {"m": m}, en.central_binomial(m), rhs


def _classical_conv2(m_max: int) -> Iterator[Case]:
    """4^m = sum_{i=0..m} B(i) B(m-i)."""
    for m in range(0, m_max + 1):
        rhs = sum(en.central_binomial(i) * en.central_binomial(m - i) for i in range(m + 1))
        yield {"m": m}, 4 ** m, rhs


def _central_prod(b: int) -> Iterator[Case]:
    """Multiplicativity of the odd canonical character on all-ones
    compositions, as an alternating Delannoy-path sum over central binomial
    coefficients; plus the two specializations spelled out separately.
    Each alternating sum is one int over one denominator: the terms
    (s / (n+m-d)) B(s/2) / 4^(s/2), s = n + m - 2d, over
    lcm(n+m-d) 4^((n+m)//2), and those of n = m over 4^n."""
    b_over_4 = [_b_over_4(h) for h in range((b + 1) // 2 + 1)]
    for n in range(0, b + 1):
        for m in range(0, b + 1):
            if n == 0 and m == 0:
                continue
            # s // 2 = half - d; the term of s = 0 (d = n = m) is 0
            half, common = (n + m) // 2, lcm(*range(max(n, m), n + m + 1))
            lhs = 0
            for d in range(min(n, m) + 1):
                term = (n + m - 2 * d) * (common // (n + m - d)) * en.multinomial([n - d, m - d, d])
                lhs += (-1) ** d * term * en.central_binomial(half - d) << 2 * d
            rhs = b_over_4[n // 2] * b_over_4[m // 2]
            yield {"n": n, "m": m}, Fraction(lhs, common << 2 * half), rhs
    for n in range(1, b + 1):
        lhs = (n + 1) * b_over_4[(n + 1) // 2] - (n - 1) * b_over_4[(n - 1) // 2]
        yield {"special": "n>=m=1", "n": n}, lhs, b_over_4[n // 2]
    for n in range(1, b + 1):
        lhs = 0
        for d in range(n):
            term = en.binomial(2 * n - d - 1, d) * en.central_binomial(n - d) ** 2 << 2 * d
            lhs += -term if d % 2 else term
        yield {"special": "n=m", "n": n}, Fraction(lhs, 4 ** n), b_over_4[n // 2] ** 2


def _catalan_prod(b: int) -> Iterator[Case]:
    """Multiplicativity of the even canonical character on all-ones
    compositions: an alternating path sum over Catalan numbers.  Each sum is
    one int over one denominator: the terms 2^(2d-1) s (s-1) / (N (N-1)),
    s = n + m - 2d and N = n + m - d, over 2 lcm(max(n, m) - 1 .. n + m),
    which N (N-1) = lcm(N, N-1) divides."""
    for n in range(1, b + 1):
        for m in range(1, b + 1):
            if (n, m) == (1, 1) or (n - m) % 2:
                continue
            half, common = (n + m) // 2, lcm(*range(max(n, m) - 1, n + m + 1))
            lhs = 0
            for d in range(min(n, m) + (n != m)):  # s = 0 at d = n = m
                s, big = n + m - 2 * d, n + m - d
                term = s * (s - 1) * (common // (big * (big - 1))) * en.multinomial([n - d, m - d, d])
                term = term * en.catalan(half - d - 1) << 2 * d
                lhs += term if d % 2 else -term
            rhs = en.catalan(n // 2 - 1) * en.catalan(m // 2 - 1) if n % 2 == 0 else 0
            yield {"n": n, "m": m}, Fraction(lhs, 2 * common), rhs
    for k in range(1, (b - 1) // 2 + 1):
        rhs = Fraction(2 * (2 * k - 1), k + 1) * en.catalan(k - 1)
        yield {"special": "m=1", "n": 2 * k + 1}, en.catalan(k), rhs
    for n in range(2, b + 1):
        lhs = 0
        for d in range(n):
            term = (4 ** d * (2 * n - 2 * d - 1) * en.binomial(2 * n - d - 2, d)
                    * en.catalan(n - d - 1) ** 2)
            lhs += term if d % 2 else -term
        rhs = en.catalan(n // 2 - 1) ** 2 if n % 2 == 0 else 0
        yield {"special": "n=m", "n": n}, lhs, rhs


def _odd_head_rows(n_max: int) -> Iterator[tuple]:
    """For n = 1..n_max, yield (n, row, shapes, index): the shapes of the
    compositions of n and by mask the index in shapes of each one's shape,
    from characters._shape_walk (a shape being (k, k_o, first part odd,
    last part odd), k_o counting the odd parts of the k), and the
    antipode-sum summand of each composition alpha of n, by mask, over
    4^(n//2): (-1)^(k - k_o) B(h) 4^(n//2 - h) with h = floor(k_o/2) if the
    first part of alpha is odd, else 0.  Each summand is computed once per
    shape."""
    for n, shapes, index in characters._shape_walk(n_max):
        if not n:
            continue
        weights = [en.central_binomial(h) * 4 ** (n // 2 - h) for h in range(n // 2 + 1)]
        heads = []
        for k, k_o, first_odd, _ in shapes:
            w = weights[k_o // 2] if first_odd else 0
            heads.append(-w if (k - k_o) & 1 else w)
        yield n, [heads[i] for i in index], shapes, index


def _antipode_sums(n_max: int, strict: bool) -> Iterator[Case]:
    """Evaluating the odd character against the monomial antipode: for every
    beta, the weighted sum over coarsenings with odd first part collapses to
    the single beta term (or 0 when the last part is even).  With strict,
    the sum over proper coarsenings with odd first part vanishes when beta
    has an even number of even parts and matching end parities (an empty
    sum counts as 0); the other beta are left out.  Right sides and the
    strict filter are read once per shape."""
    for n, row, shapes, index in _odd_head_rows(n_max):
        d = 4 ** (n // 2)
        sums = _mask_pass(row, n, False, 1)
        if strict:
            # None marks a shape the strict variant leaves out
            rhs = [0 if not (k - k_o) % 2 and first_odd == last_odd else None
                   for k, k_o, first_odd, last_odd in shapes]
            sums = [total - own for total, own in zip(sums, row)]
        else:
            rhs = [_b_over_4(k_o // 2) if last_odd else 0 for _, k_o, _, last_odd in shapes]
        for beta, total, i in zip(all_compositions(n), sums, index):
            if rhs[i] is not None:
                yield {"beta": beta}, Fraction(total, d), rhs[i]


def _class_size(n: int, r: int, s: int) -> int:
    """binomial((n+r)/2 - 1, r+s-1) binomial(r+s-1, r-1): the number of
    compositions of n with odd first part, r odd parts and s even parts."""
    return en.binomial((n + r) // 2 - 1, r + s - 1) * en.binomial(r + s - 1, r - 1)


def _class_census(n_max: int) -> dict:
    """{n: {(r, s): the number of compositions of n with odd first part, r
    odd parts and s even parts}} for n = 1..n_max.

    The compositions are counted by shape, degree n + 1 from degree n as
    characters._shape_walk grows it (characters._shape_children), so a
    degree costs one step per shape, not per composition.

    >>> _class_census(3)
    {1: {(1, 0): 1}, 2: {(2, 0): 1}, 3: {(1, 0): 1, (1, 1): 1, (3, 0): 1}}
    """
    counts = {(1, 1, 1, 1): 1}
    census = {}
    for n in range(1, n_max + 1):
        if n > 1:
            children: dict = {}
            for shape, c in counts.items():
                for child in characters._shape_children(shape):
                    children[child] = children.get(child, 0) + c
            counts = children
        classes: dict = {}
        for (k, k_o, first_odd, _), c in counts.items():
            if first_odd:
                key = (k_o, k - k_o)
                classes[key] = classes.get(key, 0) + c
        census[n] = classes
    return census


def _tn_vandermonde(n_max: int, census_max: int) -> Iterator[Case]:
    """The all-ones specialization of the strict antipode sum, grouped by
    (odd parts, even parts): the grouped sum vanishes, each inner
    alternating sum vanishes by Vandermonde convolution, and the size of
    each (r, s) class matches its product-of-binomials count, counted by
    one census walk (_class_census)."""
    for n in range(1, n_max + 1):
        # the terms B(r//2) / 4^(r//2) over 4^(n//2)
        total = 0
        for r in range(1, n):
            if (n - r) % 2:
                continue
            weight = en.central_binomial(r // 2) << 2 * (n // 2 - r // 2)
            for s in range(0, (n - r) // 2 + 1):
                term = _class_size(n, r, s) * weight
                total += -term if s % 2 else term
        yield {"part": "tn-sum", "n": n}, Fraction(total, 4 ** (n // 2)), 0
    for n in range(1, n_max + 1):
        for r in range(1, n):
            if (n - r) % 2:
                continue
            inner = sum((-1) ** s * _class_size(n, r, s) for s in range(0, (n - r) // 2 + 1))
            yield {"part": "vandermonde", "n": n, "r": r}, inner, 0
    census = _class_census(census_max)
    for n in range(1, census_max + 1):
        for r in range(1, n + 1):
            if (n - r) % 2:
                continue
            for s in range(0, (n - r) // 2 + 1):
                params = {"part": "count", "n": n, "r": r, "s": s}
                yield params, census[n].get((r, s), 0), _class_size(n, r, s)


def _signed_census(m: int, first: int) -> dict:
    """{j: sum of (-1)^(number of parts) over the compositions of m with j
    parts > 1 from position first on}; first is 0 or 1, and m >= first.

    One walk over the m - 1 unit gaps, every gap free, with the census
    transition of characters.h_minus (first 0) and h_plus (first 1),
    characters._gap_step.  A final state (q, last part > 1, still one part)
    with multiplicity c, whose sign is (-1)^(k + q + 1), has j = q plus its
    last part if that counts, and (-1)^k = c (-1)^(q + 1)."""
    if m == 0:
        return {0: 1}
    augmented = first == 1
    states = characters._CENSUS_START
    for _ in range(m - 1):
        grown, started = characters._gap_step(states, augmented)
        states = grown | started
    census: dict = {}
    for (q, big, single), c in states.items():
        j = q + (big and not (augmented and single))
        census[j] = census.get(j, 0) + (c if q % 2 else -c)
    return census


def _signs(m_max: int, first: int) -> Iterator[Case]:
    """sum over compositions of m with j parts > 1 of (-1)^(number of parts)
    equals (-1)^(m+j) binomial(floor(m/2), j).  With first = 1, the parts
    > 1 are counted away from the first position: zero for even m, the
    same value for odd m (m = 0 is a genuine exception and is excluded)."""
    for m in range(first, m_max + 1):
        census = _signed_census(m, first)
        for j in range(0, m + 1):
            rhs = 0 if first and m % 2 == 0 else (-1) ** (m + j) * en.binomial(m // 2, j)
            yield {"m": m, "j": j}, census.get(j, 0), rhs


def _g_convolve(bound: int) -> Iterator[Case]:
    """4^m C(i,j) = sum_b binomial(m,b) C(i+b, m+j-b), read from one table
    of C(p, q) for p, q <= 2 bound."""
    c = [[en.bivariate_catalan(p, q) for q in range(2 * bound + 1)] for p in range(2 * bound + 1)]
    for i in range(0, bound + 1):
        for j in range(0, bound + 1):
            for m in range(0, bound + 1):
                rhs = sum(en.binomial(m, b) * c[i + b][m + j - b] for b in range(m + 1))
                yield {"i": i, "j": j, "m": m}, 4 ** m * c[i][j], rhs


def _h_row(comps: list, peaks: Callable) -> list[int]:
    """The h-sum of each composition alpha of n >= 1, by mask, from comps,
    the compositions of n by mask: the sum over the refinements beta of
    alpha of (-1)^(k(beta) + p + 1) C(p, n//2 - p) with p = peaks(beta),
    as characters.h_minus (p_minus) and h_plus (p_plus) define it.  The
    refinements are the super-masks, so it is one super-mask pass over the
    peak-weight row with the sign (-1)^(k(beta) + 1) folded in.

    >>> _h_row(all_compositions(3), p_minus)
    [4, 0, 4, 2]
    """
    weights = _peak_weight_row(comps, peaks)
    signed = [w if len(beta) % 2 else -w for beta, w in zip(comps, weights)]
    return _mask_pass(signed, sum(comps[0]), True, 1)


def _h_closed(n_max: int, augmented: bool) -> Iterator[Case]:
    """The definitional h_minus sum (_h_row) against its closed form, read
    once per shape: (-1)^(n-1) 2^(n-k_o) C(0, k_o//2) for an odd last part,
    else 0.  With augmented, the h_plus sum on even weight: 2^n on one
    part, 2^(n-k_o) C(1, k_o//2 - 1) for odd end parts, else 0."""
    for n, shapes, index in characters._shape_walk(n_max):
        if not n or augmented and n % 2:
            continue
        if augmented:
            rhs = [2 ** n if k == 1 else 2 ** (n - k_o) * en.bivariate_catalan(1, k_o // 2 - 1)
                   if first_odd and last_odd else 0 for k, k_o, first_odd, last_odd in shapes]
        else:
            rhs = [(-1) ** (n - 1) * 2 ** (n - k_o) * en.bivariate_catalan(0, k_o // 2)
                   if last_odd else 0 for _, k_o, _, last_odd in shapes]
        comps = all_compositions(n)
        for alpha, lhs, i in zip(comps, _h_row(comps, p_plus if augmented else p_minus), index):
            yield {"alpha": alpha}, lhs, rhs[i]


def _over_row(row: list, d: int) -> list:
    """Each value of row over d, as an int where d divides it."""
    return row if d == 1 else [v // d if v % d == 0 else Fraction(v, d) for v in row]


def _ribbon_cut_row(left: list, right: list, n: int, factors: list) -> list[int]:
    """For every composition of n (by mask), the sum over its ribbon cuts
    at positions i = 0..n of factors[i] * left[i][l] * right[n - i][r], l
    and r being the masks of the left and right pieces; left and right are
    rows by weight, indexed by mask, with one entry at weight 0.

    A cut at 0 < i < n leaves the low bits of the mask, m & (2^(i-1) - 1),
    to the left piece and the high bits, m >> i, to the right piece, for
    either value of bit i - 1 (a cut between parts or inside one), so it
    adds the outer product of left[i] and right[n - i], each entry on both
    masks, by slices as characters._proper_cuts does: r * left[i] twice
    over the contiguous block of 2^i masks that share the high bits, or
    l * right[n - i], each entry twice, over the masks of stride 2^(i-1)
    that share the low bits.

    >>> _ribbon_cut_row([[1], [2], [3, 4]], [[1], [5], [6, 7]], 2, [1, 10, 100])
    [406, 507]
    """
    f, g = factors[0] * left[0][0], factors[n] * right[0][0]
    row = [f * r + l * g for l, r in zip(left[n], right[n])]
    for i in range(1, n):
        f = factors[i]
        if not f:
            continue
        a, b = left[i], right[n - i]
        if len(b) <= len(a):
            both = a + a
            width = len(both)
            for high, r in enumerate(b):
                if r:
                    r *= f
                    start = high * width
                    stop = start + width
                    row[start:stop] = [x + r * v for x, v in zip(row[start:stop], both)]
        else:
            both = [v for v in b for _ in (0, 1)]
            step = len(a)
            for low, l in enumerate(a):
                if l:
                    l *= f
                    row[low::step] = [x + l * v for x, v in zip(row[low::step], both)]
    return row


def _peak_weight_row(comps: list, peaks: Callable) -> list[int]:
    """The row of (-1)^p C(p, n//2 - p) over comps, the compositions of n by
    mask, with p = peaks(alpha); the weights are looked up through exactnum
    at call time."""
    half = sum(comps[0]) // 2
    weights = [(-1) ** p * en.bivariate_catalan(p, half - p) for p in range(half + 1)]
    return [weights[peaks(alpha)] for alpha in comps]


def _app_f1(n_max: int) -> Iterator[Case]:
    """Ribbon-cut convolution of the even and odd characters recovers the
    universal character on the fundamental basis: the cuts at even
    positions, with p_plus of the left piece and p_minus of the right."""
    comps = [all_compositions(w) for w in range(n_max + 1)]
    left = [_peak_weight_row(c, p_plus) for c in comps]
    right = [_peak_weight_row(c, p_minus) for c in comps]
    for n in range(1, n_max + 1):
        lhs = _ribbon_cut_row(left, right, n, [1 - i % 2 for i in range(n + 1)])
        rhs = 4 ** (n // 2)
        for alpha, total in zip(comps[n], lhs):
            yield {"alpha": alpha}, total, rhs if len(alpha) == 1 else 0


def _app_f2(n_max: int) -> Iterator[Case]:
    """The odd character convolved with its bar image is the counit, as a
    vanishing ribbon-cut sum over the common denominator 4^(n//2): the bar
    image negates the left pieces of odd weight, and for even n a cut at an
    odd position is over 4^(n/2 - 1), so its factor is 4."""
    comps = [all_compositions(w) for w in range(n_max + 1)]
    right = [_peak_weight_row(c, p_minus) for c in comps]
    left = [[-v for v in row] if w % 2 else row for w, row in enumerate(right)]
    for n in range(1, n_max + 1):
        factors = [4 if i % 2 and n % 2 == 0 else 1 for i in range(n + 1)]
        totals = _over_row(_ribbon_cut_row(left, right, n, factors), 4 ** (n // 2))
        for alpha, total in zip(comps[n], totals):
            yield {"alpha": alpha}, total, 0


def _cc_convolution(a: int, b: int, h: int) -> Fraction:
    """sum_{j=0..h} C_a(j) C_b(h-j) over the central Catalan families a, b."""
    return sum(en.central_catalan(a, j) * en.central_catalan(b, h - j) for j in range(h + 1))


def _cg(h_max: int, lhs_pair: tuple, rhs_terms: tuple) -> Iterator[Case]:
    """Central Catalan convolution identities: for 1 <= h <= h_max,
    sum C_a C_b at h, (a, b) = lhs_pair, equals the sum over the
    (factor, a, b, shift) of rhs_terms of factor times sum C_a C_b at
    h - shift (_cc_convolution)."""
    for h in range(1, h_max + 1):
        rhs = sum(f * _cc_convolution(a, b, h - shift) for f, a, b, shift in rhs_terms)
        yield {"h": h}, _cc_convolution(*lhs_pair, h), rhs


def _signed_peak_sum(census: dict, half: int) -> int:
    """sum over a {peaks p: count c} census of c (-1)^p C(p, half - p): the
    signed peak sum of the allperms_* and shuffle_* checks."""
    return sum((-1) ** p * c * en.bivariate_catalan(p, half - p) for p, c in census.items())


def _allperms_sums(n_max: int, augmented: bool) -> Iterator[Case]:
    """Summing the signed interior-peak weights over all of S_n gives
    4^floor(n/2) (the n-th shuffle power of the one-letter basis element,
    evaluated by the odd character); with augmented, the augmented-peak
    weights on even n > 0 sum to 0.  Peaks depend only on the descent set,
    so S_n is counted by descent classes."""
    peaks = augmented_peaks if augmented else interior_peaks
    for n in range(2 * augmented, n_max + 1, 1 + augmented):
        census: Counter = Counter()
        for word, count in descent_classes(n):
            census[peaks(word)] += count
        yield {"n": n}, _signed_peak_sum(census, n // 2), 0 if augmented else 4 ** (n // 2)


def _shuffle_census(total: int, augmented: bool) -> dict:
    """{(n, m): {peaks: count}} for n + m <= total: the shuffles of 1..n
    with n+1..n+m (permutations.shuffles) counted by augmented peaks, or
    by interior peaks.

    Both words increase, so a shuffle descends exactly where a letter of
    the second word (tau) is followed by one of the first (sigma), and that
    tau letter is an augmented peak, an interior one from position 2 on.  A
    shuffle is a lattice path of n sigma steps and m tau steps, and one walk
    over the points (n, m) counts every path once for all n and m: at each
    point the {peaks: count} of the paths that a sigma step would not
    (flat) and would (ready) give a peak.

    >>> [sorted(_shuffle_census(2, augmented)[1, 1].items()) for augmented in (True, False)]
    [[(0, 1), (1, 1)], [(0, 2)]]
    """
    paths, none = {(0, 0): (Counter([0]), Counter())}, (Counter(), Counter())
    for n in range(total + 1):
        for m in range(n == 0, total + 1 - n):  # from (0, 1), past the start
            # a sigma step makes a pending tau letter a peak
            flat, ready = paths.get((n - 1, m), none)
            f = flat + Counter({p + 1: c for p, c in ready.items()})
            # a tau step leaves its letter pending, but a tau letter at
            # position 1 is no interior peak
            r = sum(paths.get((n, m - 1), none), Counter())
            paths[n, m] = (r, f) if (n, m) == (0, 1) and not augmented else (f, r)
    return {point: flat + ready for point, (flat, ready) in paths.items()}


def _shuffle_sums(total: int, augmented: bool) -> Iterator[Case]:
    """Signed interior-peak weights summed over the shuffles of two identity
    words, n + m <= total; with augmented, the augmented-peak weights for n
    and m of equal parity.  The peaks are counted by _shuffle_census."""
    census = _shuffle_census(total, augmented)
    for n in range(0, total + 1):
        for m in range(0, total - n + 1):
            if augmented and (n - m) % 2:
                continue
            rhs = en.bivariate_catalan(0, n // 2) * en.bivariate_catalan(0, m // 2)
            if n % 2:
                # 0 for augmented peaks, else a factor 4 when m is odd too
                rhs = 0 if augmented else rhs * 4 ** (m % 2)
            yield {"n": n, "m": m}, _signed_peak_sum(census[n, m], (n + m) // 2), rhs


def _app_zetainv_m(m_max: int) -> Iterator[Case]:
    """sum_{j<m} 2^(2m-2j-1) Cat(j) = 4^m - binomial(2m, m)."""
    for m in range(1, m_max + 1):
        lhs = sum(2 ** (2 * m - 2 * j - 1) * en.catalan(j) for j in range(m))
        yield {"m": m}, lhs, 4 ** m - en.binomial(2 * m, m)


def _app_zetainv_plus_m(n_max: int) -> Iterator[Case]:
    """Even-character analogue of the antipode sum, over coarsenings with
    both end parts odd (even weight).  The summands are summed over 2^n,
    then the sum of beta is divided by 2^(n - k_o); summand, divisor and
    right side are read once per shape."""
    for n, shapes, index in characters._shape_walk(n_max):
        if n % 2:
            continue
        heads, rhs = [], []
        for k, k_o, first_odd, last_odd in shapes:
            # Cat(h - 1) for h = floor(k_o/2) >= 1, as both end parts are odd
            w = en.catalan(k_o // 2 - 1) << (n + 1 - k_o) if first_odd and last_odd else 0
            heads.append(-w if (k - k_o) & 1 else w)
            rhs.append(2 ** k_o - en.binomial(k_o, k_o // 2))
        sums = _mask_pass([heads[i] for i in index], n, False, 1)
        for beta, total, i in zip(all_compositions(n), sums, index):
            k_o = shapes[i][1]
            lhs, rest = divmod(total, 1 << (n - k_o))
            if rest:
                raise ArithmeticError("the sum of %r is not a multiple of 2^%d" % (beta, n - k_o))
            yield {"beta": beta}, lhs, rhs[i]


def _gessel_rec(bound: int) -> Iterator[Case]:
    """C(b, a+c) = 4^c C(b, a) - sum_{j=1..c} 4^(c-j) C(b+1, a+j-1).  The
    right side runs along c: it is 4 times that of c - 1 less the new term
    C(b+1, a+c-1)."""
    for a in range(0, bound + 1):
        for b in range(0, bound + 1):
            rhs = en.bivariate_catalan(b, a)
            for c in range(0, bound + 1):
                if c:
                    rhs = 4 * rhs - en.bivariate_catalan(b + 1, a + c - 1)
                yield {"a": a, "b": b, "c": c}, en.bivariate_catalan(b, a + c), rhs


def _gessel_sums(bound: int, catalan: bool) -> Iterator[Case]:
    """binomial(2b, b) = C(b,c)/4^c + sum_{j=1..c} C(b+1, j-1)/4^j; with
    catalan, 2 Cat(b) = C(b, c+1)/4^c + sum_j C(b+1, j)/4^j.  The right
    side is one int over 4^c."""
    for b in range(0, bound + 1):
        lhs = 2 * en.catalan(b) if catalan else en.binomial(2 * b, b)
        for c in range(0, bound + 1):
            rhs = en.bivariate_catalan(b, c + catalan) + sum(
                en.bivariate_catalan(b + 1, j - 1 + catalan) << 2 * (c - j) for j in range(1, c + 1)
            )
            yield {"b": b, "c": c}, lhs, Fraction(rhs, 4 ** c)


def _associator(bound: int) -> Iterator[Case]:
    """With H(a,b,c) = C(a, b+c) - C(b, a+c):
    H(a,b,c)/4^c = sum_j H(b+1, a+1, j-2)/4^j.  Over 4^c, the right side
    runs along c: 4 times that of c - 1 plus the new term H(b+1, a+1, c-2)."""

    def H(x, y, z):
        return en.bivariate_catalan(x, y + z) - en.bivariate_catalan(y, x + z)

    for a in range(0, bound + 1):
        for b in range(0, bound + 1):
            rhs = 0
            for c in range(0, bound + 1):
                # both sides over 4^c
                if c:
                    rhs = 4 * rhs + H(b + 1, a + 1, c - 2)
                d = 4 ** c
                yield {"a": a, "b": b, "c": c}, Fraction(H(a, b, c), d), Fraction(rhs, d)


def _power2(bound: int) -> Iterator[Case]:
    """The 2-adic valuation of C(p,q) is the binary digit sum of p+q;
    equivalently C(p,q)/4^(p+q) reduces to an odd numerator over 2^k with
    k = sum_i floor((p+q)/2^i)."""
    for total in range(1, bound + 1):
        k = 0
        t = total
        while t:
            k += t
            t //= 2
        for p in range(0, total + 1):
            q = total - p
            value = en.bivariate_catalan(p, q)
            yield (
                {"part": "valuation", "p": p, "q": q},
                en.two_adic_valuation(value),
                en.binary_digit_sum(total),
            )
            reduced = Fraction(value, 4 ** total)
            yield {"part": "reduced", "p": p, "q": q}, reduced.denominator, 2 ** k


def _zeta_power(n_max: int) -> Iterator[Case]:
    """The closed binomial formulas for convolution powers of the universal
    character, in both bases, against iterated truncated convolution (and
    the group inverse for negative powers).  The M-basis closed forms are
    read from the rows of restrict, the F-basis ones from eval_F."""
    zeta_t = characters.restrict(characters.ZETA, n_max)
    powers = {0: characters.restrict(characters.COUNIT, n_max)}
    for m in range(1, 4):
        powers[m] = characters.convolve(powers[m - 1], zeta_t)
    for m in range(1, 4):
        powers[-m] = characters.inverse(powers[m])
    comps = [all_compositions(n) for n in range(n_max + 1)]
    for m in range(-3, 4):
        char_id = characters.zeta_power(m)
        closed, table = characters.restrict(char_id, n_max), powers[m]
        for n in range(0, n_max + 1):
            row, d = table.numerators[n], table.denominators[n]
            # phi(F_alpha) sums phi(M_beta) over the super-masks beta of alpha
            f_row = _over_row(_mask_pass(row, n, True, 1), d)
            closed_row = _over_row(closed.numerators[n], closed.denominators[n])
            # the zeta-pow F form depends on n and the number of parts only
            by_parts: dict = {}
            for alpha, closed_v, v, f in zip(comps[n], closed_row, _over_row(row, d), f_row):
                yield {"basis": "M", "m": m, "alpha": alpha}, closed_v, v
                k = len(alpha)
                if k not in by_parts:
                    by_parts[k] = characters.eval_F(char_id, alpha)
                yield {"basis": "F", "m": m, "alpha": alpha}, by_parts[k], f


def _rev_con_masks(n: int) -> tuple[list[int], list[int]]:
    """The masks of the reversal and of the conjugate of each composition
    of n >= 1, by mask: rev[m] = rev[m >> 1] >> 1 | (m & 1) << (n - 2)
    reverses the n - 1 bits, and the conjugate's mask is the complement of
    the reversal's (compositions.conjugate).

    >>> _rev_con_masks(3)
    ([0, 2, 1, 3], [3, 1, 2, 0])
    """
    rev = [0] * (1 << (n - 1))
    for m in range(1, len(rev)):
        rev[m] = rev[m >> 1] >> 1 | (m & 1) << (n - 2)
    return rev, [len(rev) - 1 & ~r for r in rev]


def _peak_rev_con(n_max: int) -> Iterator[Case]:
    """How the two peak statistics transform under reversal and
    conjugation: two invariances and the two three-case corrections.  The
    statistics are read from rows by mask, one p_minus and one p_plus per
    composition, at the masks of the reversal and the conjugate
    (_rev_con_masks)."""
    for n in range(1, n_max + 1):
        comps = all_compositions(n)
        minuses, pluses = [p_minus(a) for a in comps], [p_plus(a) for a in comps]
        for alpha, minus, plus, rev, con in zip(comps, minuses, pluses, *_rev_con_masks(n)):
            # the corrections: reversal adds 1 for a first part 1 and takes
            # 1 for a last part 1; conjugation adds 1, less 1 per end part 1
            first, last = alpha[0] == 1, alpha[-1] == 1
            yield {"part": "p-minus-conjugate", "alpha": alpha}, minuses[con], minus
            yield {"part": "p-plus-reversal", "alpha": alpha}, pluses[rev], plus
            yield {"part": "p-minus-reversal", "alpha": alpha}, minuses[rev], minus + first - last
            if n >= 2:
                expect_con = plus + 1 - first - last
                yield {"part": "p-plus-conjugate", "alpha": alpha}, pluses[con], expect_con


# id -> (check, domain text); each {N} in the text is one bound of the check.
# Mirrored checks bind one generator with a flag, or with a small table:
# cg6 to cg8 read C3 C3 = 2 C2 C1 (at h - 1), C3 C4 = C2 C3 + C1 C1 (at
# h - 1) and C4 C4 = 2 C3 C1 as an (a, b) pair and (factor, a, b, shift) terms
_REGISTRY: dict[str, tuple[Callable[..., Iterator[Case]], str]] = {
    "classical_conv": (_classical_conv, "1 <= m <= {30}"),
    "classical_conv2": (_classical_conv2, "0 <= m <= {30}"),
    "central_prod": (_central_prod, "0 <= n, m <= {12}, not both 0, plus specials"),
    "catalan_prod": (_catalan_prod, "1 <= n, m <= {12}, n = m mod 2, not both 1, plus specials"),
    "antipode_sum": (lambda n_max: _antipode_sums(n_max, False), "all beta of weight 1..{10}"),
    "app_antipodeM": (lambda n_max: _antipode_sums(n_max, True),
                      "beta of weight 1..{10} with even-part count even and matching end parities"),
    "tn_vandermonde": (_tn_vandermonde, "grouped sum and Vandermonde for n <= {14}; class census for n <= {12}"),
    "signs_a": (lambda m_max: _signs(m_max, 0), "0 <= m <= {14}, 0 <= j <= m"),
    "signs_b": (lambda m_max: _signs(m_max, 1), "1 <= m <= {14}, 0 <= j <= m"),
    "g_convolve": (_g_convolve, "0 <= i, j, m <= {10}"),
    "h_minus_closed": (lambda n_max: _h_closed(n_max, False), "all alpha of weight 1..{10}"),
    "h_plus_closed": (lambda n_max: _h_closed(n_max, True), "all alpha of even weight 2..{10}"),
    "app_f1": (_app_f1, "all alpha of weight 1..{10}"),
    "app_f2": (_app_f2, "all alpha of weight 1..{10}"),
    "cg6": (lambda h_max: _cg(h_max, (3, 3), ((2, 2, 1, 1),)), "1 <= h <= {12}"),
    "cg7": (lambda h_max: _cg(h_max, (3, 4), ((1, 2, 3, 0), (1, 1, 1, 1))), "1 <= h <= {12}"),
    "cg8": (lambda h_max: _cg(h_max, (4, 4), ((2, 3, 1, 0),)), "1 <= h <= {12}"),
    "allperms_minus": (lambda n_max: _allperms_sums(n_max, False),
                       "0 <= n <= {9}"),
    "allperms_plus": (lambda n_max: _allperms_sums(n_max, True),
                      "even n, 2 <= n <= {9}"),
    "shuffle_minus": (lambda total: _shuffle_sums(total, False),
                      "n, m >= 0 with n + m <= {10}"),
    "shuffle_plus": (lambda total: _shuffle_sums(total, True),
                     "n = m mod 2 with n + m <= {10}"),
    "app_zetainv_m": (_app_zetainv_m, "1 <= m <= {30}"),
    "app_zetainv_plus_m": (_app_zetainv_plus_m, "all beta of even weight 0..{10}"),
    "gessel_rec": (_gessel_rec, "0 <= a, b, c <= {10}"),
    "binomial_gessel": (lambda bound: _gessel_sums(bound, False), "0 <= b, c <= {10}"),
    "catalan_gessel": (lambda bound: _gessel_sums(bound, True), "0 <= b, c <= {10}"),
    "associator": (_associator, "0 <= a, b, c <= {10}"),
    "power2": (_power2, "0 < p + q <= {40}"),
    "zeta_power": (_zeta_power, "-3 <= m <= 3, both bases, weights up to {8}"),
    "peak_rev_con": (_peak_rev_con, "all alpha of weight 1..{10}"),
}

_BOUND = re.compile(r"\{([0-9]+)\}")


def registry_ids() -> list[str]:
    return list(_REGISTRY)


def verify(check_id: str, depth: str = "standard") -> CheckReport:
    """Run one registry check over its (depth-scaled) domain and report the
    number of cases, pass/fail, and the first counterexample if any."""
    if check_id not in _REGISTRY:
        raise KeyError("unknown identity id %r" % (check_id,))
    fn, template = _REGISTRY[check_id]
    scale = _scale_for(depth)
    bounds: list[int] = []

    def fill(match):
        bounds.append(scale(int(match.group(1))))
        return str(bounds[-1])

    domain = _BOUND.sub(fill, template)
    cases = 0
    counterexample = None
    for params, left, right in fn(*bounds):
        cases += 1
        if counterexample is None and left != right:
            counterexample = Counterexample(
                params=params, left=en.as_fraction(left), right=en.as_fraction(right)
            )
    status = "pass" if counterexample is None else "fail"
    return CheckReport(
        id=check_id,
        domain=domain,
        cases=cases,
        status=status,
        counterexample=counterexample,
    )


def verify_all(depth: str = "standard") -> list[CheckReport]:
    """Run the whole registry in its fixed order."""
    return [verify(check_id, depth) for check_id in registry_ids()]
