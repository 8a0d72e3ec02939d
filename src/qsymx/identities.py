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
bounds, "standard" uses them as is, "deep" raises them by half
(``_scale_for``).  The S_n checks sum over the 2^(n-1) descent classes, not
the n! permutations, so deep runs S_13 in about 0.1 s, and the coarsenings
of beta are the sub-masks of its mask, so the sums over them take one
sub-mask pass per weight.  signs_a and signs_b walk the unit gaps of m
instead of listing its compositions, app_f1 and app_f2 read the peak counts
of both pieces of every ribbon cut from one pass along alpha,
h_minus_closed and h_plus_closed read the h-sums of every composition of
each weight from one walk that shares prefixes (characters._h_rows), and
peak_rev_con reads each alpha's peak statistics once.  The whole battery
takes about 2.4 to 4.8 s at deep (median 3.3 s over 23 runs) against 0.2
to 0.35 s at standard (``qsymx verify --all``, interpreter start-up
included; Python 3.11.7 on a shared 2-vCPU machine).  In process,
standard is led by zeta_power (about 0.02 s), then central_prod, associator
and app_f2 (about 0.01 s each); deep by tn_vandermonde, app_f2, zeta_power,
antipode_sum, app_f1 and h_minus_closed (0.45 to 0.22 s each), most of
which visit every composition of each weight up to 15.
"""

import re
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

# exactnum is looked up through the module, so that a function patched on
# the module is the one the checks see
from . import characters, exactnum as en
from .compositions import (
    _cut_peaks,
    _mask_pass,
    all_compositions,
    conjugate,
    p_minus,
    p_plus,
    reversal,
)
from .permutations import augmented_peaks, descent_classes, interior_peaks, shuffles

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
    up, at least 1), "standard" keeps it, "deep" raises it by half,
    b + max(1, b // 2), so 10 becomes 15 and 9 becomes 13."""
    if depth == "small":
        return lambda b: max(1, (b + 1) // 2)
    if depth == "standard":
        return lambda b: b
    if depth == "deep":
        return lambda b: b + max(1, b // 2)
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
    coefficients; plus the two specializations spelled out separately."""
    for n in range(0, b + 1):
        for m in range(0, b + 1):
            if n == 0 and m == 0:
                continue
            lhs = 0
            for d in range(min(n, m) + 1):
                s = n + m - 2 * d
                if s == 0:
                    continue
                term = Fraction(s, n + m - d) * en.multinomial([n - d, m - d, d])
                term *= _b_over_4(s // 2)
                lhs += -term if d % 2 else term
            yield {"n": n, "m": m}, lhs, _b_over_4(n // 2) * _b_over_4(m // 2)
    for n in range(1, b + 1):
        lhs = (n + 1) * _b_over_4((n + 1) // 2) - (n - 1) * _b_over_4((n - 1) // 2)
        yield {"special": "n>=m=1", "n": n}, lhs, _b_over_4(n // 2)
    for n in range(1, b + 1):
        lhs = 0
        for d in range(n):
            term = Fraction(en.binomial(2 * n - d - 1, d) * en.central_binomial(n - d) ** 2,
                            4 ** (n - d))
            lhs += -term if d % 2 else term
        yield {"special": "n=m", "n": n}, lhs, _b_over_4(n // 2) ** 2


def _catalan_prod(b: int) -> Iterator[Case]:
    """Multiplicativity of the even canonical character on all-ones
    compositions: an alternating path sum over Catalan numbers."""
    for n in range(1, b + 1):
        for m in range(1, b + 1):
            if (n, m) == (1, 1) or (n - m) % 2:
                continue
            lhs = 0
            for d in range(min(n, m) + 1):
                s = n + m - 2 * d
                if s == 0:
                    continue
                # 2^(2d-1) (s / (n+m-d)) ((s-1) / (n+m-d-1))
                term = Fraction(4 ** d, 2) * Fraction(s, n + m - d) * Fraction(s - 1, n + m - d - 1)
                term *= en.multinomial([n - d, m - d, d]) * en.catalan((n + m) // 2 - d - 1)
                lhs += term if d % 2 else -term
            rhs = en.catalan(n // 2 - 1) * en.catalan(m // 2 - 1) if n % 2 == 0 else 0
            yield {"n": n, "m": m}, lhs, rhs
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


def _odd_head_row(n: int) -> list[int]:
    """The antipode-sum summand of each composition alpha of n, by mask,
    over 4^(n//2): (-1)^(k_e) B(h) 4^(n//2 - h) with h = floor(k_o/2) if the
    first part of alpha is odd, else 0 (k_o, k_e: its odd and even parts)."""
    weights = [en.central_binomial(h) * 4 ** (n // 2 - h) for h in range(n // 2 + 1)]
    row = []
    for alpha in all_compositions(n):
        k_o = sum(a & 1 for a in alpha)
        w = weights[k_o // 2] if alpha[0] & 1 else 0
        row.append(-w if (len(alpha) - k_o) & 1 else w)
    return row


def _antipode_sum(n_max: int) -> Iterator[Case]:
    """Evaluating the odd character against the monomial antipode: for every
    beta, the weighted sum over coarsenings with odd first part collapses to
    the single beta term (or 0 when the last part is even)."""
    for n in range(1, n_max + 1):
        d = 4 ** (n // 2)
        sums = _mask_pass(_odd_head_row(n), n, False, 1)
        for beta, total in zip(all_compositions(n), sums):
            rhs = _b_over_4(sum(a & 1 for a in beta) // 2) if beta[-1] & 1 else 0
            yield {"beta": beta}, Fraction(total, d), rhs


def _app_antipodeM(n_max: int) -> Iterator[Case]:
    """Strict-coarsening variant: when beta has an even number of even parts
    and matching end parities, the sum over proper coarsenings with odd
    first part vanishes.  An empty sum counts as 0."""
    for n in range(1, n_max + 1):
        row, d = _odd_head_row(n), 4 ** (n // 2)
        sums = _mask_pass(row, n, False, 1)
        for beta, total, own in zip(all_compositions(n), sums, row):
            k_e = len(beta) - sum(a & 1 for a in beta)
            if k_e % 2 or (beta[0] - beta[-1]) % 2:
                continue
            yield {"beta": beta}, Fraction(total - own, d), 0


def _class_size(n: int, r: int, s: int) -> int:
    """binomial((n+r)/2 - 1, r+s-1) binomial(r+s-1, r-1): the number of
    compositions of n with odd first part, r odd parts and s even parts."""
    return en.binomial((n + r) // 2 - 1, r + s - 1) * en.binomial(r + s - 1, r - 1)


def _tn_vandermonde(n_max: int, census_max: int) -> Iterator[Case]:
    """The all-ones specialization of the strict antipode sum, grouped by
    (odd parts, even parts): the grouped sum vanishes, each inner
    alternating sum vanishes by Vandermonde convolution, and the size of
    each (r, s) class matches its product-of-binomials count."""
    for n in range(1, n_max + 1):
        total = 0
        for r in range(1, n):
            if (n - r) % 2:
                continue
            for s in range(0, (n - r) // 2 + 1):
                term = _class_size(n, r, s) * _b_over_4(r // 2)
                total += -term if s % 2 else term
        yield {"part": "tn-sum", "n": n}, total, 0
    for n in range(1, n_max + 1):
        for r in range(1, n):
            if (n - r) % 2:
                continue
            inner = sum((-1) ** s * _class_size(n, r, s) for s in range(0, (n - r) // 2 + 1))
            yield {"part": "vandermonde", "n": n, "r": r}, inner, 0
    for n in range(1, census_max + 1):
        census: Counter = Counter()
        for alpha in all_compositions(n):
            if alpha[0] % 2:
                k_o = sum(a & 1 for a in alpha)
                census[(k_o, len(alpha) - k_o)] += 1
        for r in range(1, n + 1):
            if (n - r) % 2:
                continue
            for s in range(0, (n - r) // 2 + 1):
                params = {"part": "count", "n": n, "r": r, "s": s}
                yield params, census[(r, s)], _class_size(n, r, s)


def _signed_census(m: int, first: int) -> dict:
    """{j: sum of (-1)^(number of parts) over the compositions of m with j
    parts > 1 from position first on}; first is 0 or 1, and m >= first.

    One walk over the m - 1 unit gaps, as characters._peak_census walks
    refinements: at each gap the last part either grows or is closed and a
    new part 1 starts.  A state is (closed parts > 1 counted, last part > 1,
    last part exempt because it is part 0 and first is 1), and its int
    multiplicity carries the sign (-1)^(parts so far)."""
    if m == 0:
        return {0: 1}
    states = {(0, False, first == 1): -1}
    for _ in range(m - 1):
        walked: dict = {}
        for (j, big, exempt), c in states.items():
            key = (j, True, exempt)
            walked[key] = walked.get(key, 0) + c
            key = (j + 1 if big and not exempt else j, False, False)
            walked[key] = walked.get(key, 0) - c
        states = walked
    census: dict = {}
    for (j, big, exempt), c in states.items():
        j = j + 1 if big and not exempt else j
        census[j] = census.get(j, 0) + c
    return census


def _signs_a(m_max: int) -> Iterator[Case]:
    """sum over compositions of m with j parts > 1 of (-1)^(number of parts)
    equals (-1)^(m+j) binomial(floor(m/2), j)."""
    for m in range(0, m_max + 1):
        census = _signed_census(m, 0)
        for j in range(0, m + 1):
            yield {"m": m, "j": j}, census.get(j, 0), (-1) ** (m + j) * en.binomial(m // 2, j)


def _signs_b(m_max: int) -> Iterator[Case]:
    """Same with parts > 1 counted away from the first position: zero for
    even m, the signs_a value for odd m.  (m = 0 is a genuine exception and
    is excluded.)"""
    for m in range(1, m_max + 1):
        census = _signed_census(m, 1)
        for j in range(0, m + 1):
            rhs = 0 if m % 2 == 0 else (-1) ** (m + j) * en.binomial(m // 2, j)
            yield {"m": m, "j": j}, census.get(j, 0), rhs


def _g_convolve(bound: int) -> Iterator[Case]:
    """4^m C(i,j) = sum_b binomial(m,b) C(i+b, m+j-b)."""
    for i in range(0, bound + 1):
        for j in range(0, bound + 1):
            for m in range(0, bound + 1):
                lhs = 4 ** m * en.bivariate_catalan(i, j)
                rhs = sum(
                    en.binomial(m, b) * en.bivariate_catalan(i + b, m + j - b)
                    for b in range(m + 1)
                )
                yield {"i": i, "j": j, "m": m}, lhs, rhs


def _h_minus_closed(n_max: int) -> Iterator[Case]:
    """The definitional h_minus sum against its closed form; the sums of
    each weight come from one shared-prefix walk (characters._h_rows)."""
    rows = characters._h_rows(n_max, False)
    for n in range(1, n_max + 1):
        for alpha, lhs in zip(all_compositions(n), rows[n]):
            rhs = 0
            if alpha[-1] % 2:
                k_o = sum(a & 1 for a in alpha)
                rhs = (-1) ** (n - 1) * 2 ** (n - k_o) * en.bivariate_catalan(0, k_o // 2)
            yield {"alpha": alpha}, lhs, rhs


def _h_plus_closed(n_max: int) -> Iterator[Case]:
    """The definitional h_plus sum against its closed form (even weight),
    the sums again from characters._h_rows."""
    rows = characters._h_rows(n_max, True)
    for n in range(2, n_max + 1, 2):
        for alpha, lhs in zip(all_compositions(n), rows[n]):
            if len(alpha) == 1:
                rhs = 2 ** n
            elif alpha[0] % 2 and alpha[-1] % 2:
                k_o = sum(a & 1 for a in alpha)
                rhs = 2 ** (n - k_o) * en.bivariate_catalan(1, k_o // 2 - 1)
            else:
                rhs = 0
            yield {"alpha": alpha}, lhs, rhs


def _catalan_grid(half: int) -> list[list[int]]:
    """[p][q] -> C(p, q) for p + q <= half, looked up through exactnum at
    call time."""
    return [[en.bivariate_catalan(p, q) for q in range(half + 1 - p)] for p in range(half + 1)]


def _app_f1(n_max: int) -> Iterator[Case]:
    """Ribbon-cut convolution of the even and odd characters recovers the
    universal character on the fundamental basis."""
    for n in range(1, n_max + 1):
        fl = n // 2
        grid = _catalan_grid(fl)
        for alpha in all_compositions(n):
            lhs = 0
            # the cuts at the even positions 2j, j = 0 .. fl
            for j, (_, lp, rm) in enumerate(_cut_peaks(alpha)[::2]):
                term = grid[lp][j - lp] * grid[rm][fl - j - rm]
                lhs += -term if (lp + rm) % 2 else term
            rhs = 4 ** fl if len(alpha) == 1 else 0
            yield {"alpha": alpha}, lhs, rhs


def _app_f2(n_max: int) -> Iterator[Case]:
    """The odd character convolved with its bar image is the counit, as a
    vanishing ribbon-cut sum."""
    for n in range(1, n_max + 1):
        half = n // 2
        grid = _catalan_grid(half)
        for alpha in all_compositions(n):
            # each term over the common denominator 4^half
            lhs = 0
            for i, (lm, _, rm) in enumerate(_cut_peaks(alpha)):
                fi, fr = i // 2, (n - i) // 2
                term = grid[lm][fi - lm] * grid[rm][fr - rm] << 2 * (half - fi - fr)
                lhs += -term if (lm + rm + i) % 2 else term
            yield {"alpha": alpha}, Fraction(lhs, 4 ** half), 0


def _cc_convolution(a: int, b: int, h: int) -> Fraction:
    """sum_{j=0..h} C_a(j) C_b(h-j) over the central Catalan families a, b."""
    return sum(en.central_catalan(a, j) * en.central_catalan(b, h - j) for j in range(h + 1))


def _cg6(h_max: int) -> Iterator[Case]:
    """sum C3 C3 = 2 sum C2 C1 (central Catalan convolution, index sum 6)."""
    for h in range(1, h_max + 1):
        yield {"h": h}, _cc_convolution(3, 3, h), 2 * _cc_convolution(2, 1, h - 1)


def _cg7(h_max: int) -> Iterator[Case]:
    """sum C3 C4 = sum C2 C3 + sum C1 C1 (index sum 7)."""
    for h in range(1, h_max + 1):
        rhs = _cc_convolution(2, 3, h) + _cc_convolution(1, 1, h - 1)
        yield {"h": h}, _cc_convolution(3, 4, h), rhs


def _cg8(h_max: int) -> Iterator[Case]:
    """sum C4 C4 = 2 sum C3 C1 (index sum 8)."""
    for h in range(1, h_max + 1):
        yield {"h": h}, _cc_convolution(4, 4, h), 2 * _cc_convolution(3, 1, h)


def _signed_peak_sum(words: Iterable, peaks: Callable, half: int) -> int:
    """sum over the (word w, multiplicity c) pairs of c (-1)^p C(p, half - p),
    with p = peaks(w): the signed peak census of the allperms_* and
    shuffle_* checks."""
    census: Counter = Counter()
    for word, multiplicity in words:
        census[peaks(word)] += multiplicity
    return sum((-1) ** p * count * en.bivariate_catalan(p, half - p) for p, count in census.items())


def _allperms_minus(n_max: int) -> Iterator[Case]:
    """Summing the signed interior-peak weights over all of S_n gives
    4^floor(n/2) (the n-th shuffle power of the one-letter basis element,
    evaluated by the odd character).  Peaks depend only on the descent set,
    so S_n is summed by descent classes."""
    for n in range(0, n_max + 1):
        lhs = _signed_peak_sum(descent_classes(n), interior_peaks, n // 2)
        yield {"n": n}, lhs, 4 ** (n // 2)


def _allperms_plus(n_max: int) -> Iterator[Case]:
    """Same with augmented peaks on even n > 0: the sum vanishes."""
    for n in range(2, n_max + 1, 2):
        lhs = _signed_peak_sum(descent_classes(n), augmented_peaks, n // 2)
        yield {"n": n}, lhs, 0


def _shuffle_minus(total: int) -> Iterator[Case]:
    """Signed interior-peak weights summed over shuffles of two identity
    words."""
    for n in range(0, total + 1):
        for m in range(0, total - n + 1):
            words = shuffles(tuple(range(1, n + 1)), tuple(range(1, m + 1)))
            lhs = _signed_peak_sum(((w, 1) for w in words), interior_peaks, (n + m) // 2)
            factor = 4 if (n % 2 and m % 2) else 1
            rhs = factor * en.bivariate_catalan(0, n // 2) * en.bivariate_catalan(0, m // 2)
            yield {"n": n, "m": m}, lhs, rhs


def _shuffle_plus(total: int) -> Iterator[Case]:
    """Signed augmented-peak weights over the same shuffles, for n and m of
    equal parity."""
    for n in range(0, total + 1):
        for m in range(0, total - n + 1):
            if (n - m) % 2:
                continue
            words = shuffles(tuple(range(1, n + 1)), tuple(range(1, m + 1)))
            lhs = _signed_peak_sum(((w, 1) for w in words), augmented_peaks, (n + m) // 2)
            rhs = 0
            if n % 2 == 0:
                rhs = en.bivariate_catalan(0, n // 2) * en.bivariate_catalan(0, m // 2)
            yield {"n": n, "m": m}, lhs, rhs


def _app_zetainv_m(m_max: int) -> Iterator[Case]:
    """sum_{j<m} 2^(2m-2j-1) Cat(j) = 4^m - binomial(2m, m)."""
    for m in range(1, m_max + 1):
        lhs = sum(2 ** (2 * m - 2 * j - 1) * en.catalan(j) for j in range(m))
        yield {"m": m}, lhs, 4 ** m - en.binomial(2 * m, m)


def _app_zetainv_plus_m(n_max: int) -> Iterator[Case]:
    """Even-character analogue of the antipode sum, over coarsenings with
    both end parts odd (even weight).  The summands are summed over 2^n,
    then the sum of beta is divided by 2^(n - k_o)."""
    for n in range(0, n_max + 1, 2):
        # Cat(h - 1) at h - 1, for the h = floor(k_o/2) >= 1 of the summands
        catalans = [en.catalan(h) for h in range(n // 2)]
        comps = all_compositions(n)
        row = []
        for alpha in comps:
            a_o = sum(a & 1 for a in alpha)
            w = catalans[a_o // 2 - 1] << (n + 1 - a_o) if alpha and alpha[0] & alpha[-1] & 1 else 0
            row.append(-w if (len(alpha) - a_o) & 1 else w)
        for beta, total in zip(comps, _mask_pass(row, n, False, 1)):
            k_o = sum(a & 1 for a in beta)
            lhs, rest = divmod(total, 1 << (n - k_o))
            if rest:
                raise ArithmeticError("the sum of %r is not a multiple of 2^%d" % (beta, n - k_o))
            yield {"beta": beta}, lhs, 2 ** k_o - en.binomial(k_o, k_o // 2)


def _gessel_rec(bound: int) -> Iterator[Case]:
    """C(b, a+c) = 4^c C(b, a) - sum_{j=1..c} 4^(c-j) C(b+1, a+j-1)."""
    for a in range(0, bound + 1):
        for b in range(0, bound + 1):
            for c in range(0, bound + 1):
                rhs = 4 ** c * en.bivariate_catalan(b, a) - sum(
                    4 ** (c - j) * en.bivariate_catalan(b + 1, a + j - 1)
                    for j in range(1, c + 1)
                )
                yield {"a": a, "b": b, "c": c}, en.bivariate_catalan(b, a + c), rhs


def _binomial_gessel(bound: int) -> Iterator[Case]:
    """binomial(2b, b) = C(b,c)/4^c + sum_j C(b+1, j-1)/4^j."""
    for b in range(0, bound + 1):
        for c in range(0, bound + 1):
            rhs = Fraction(en.bivariate_catalan(b, c), 4 ** c) + sum(
                Fraction(en.bivariate_catalan(b + 1, j - 1), 4 ** j) for j in range(1, c + 1)
            )
            yield {"b": b, "c": c}, en.binomial(2 * b, b), rhs


def _catalan_gessel(bound: int) -> Iterator[Case]:
    """2 Cat(b) = C(b, c+1)/4^c + sum_j C(b+1, j)/4^j."""
    for b in range(0, bound + 1):
        for c in range(0, bound + 1):
            rhs = Fraction(en.bivariate_catalan(b, c + 1), 4 ** c) + sum(
                Fraction(en.bivariate_catalan(b + 1, j), 4 ** j) for j in range(1, c + 1)
            )
            yield {"b": b, "c": c}, 2 * en.catalan(b), rhs


def _associator(bound: int) -> Iterator[Case]:
    """With H(a,b,c) = C(a, b+c) - C(b, a+c):
    H(a,b,c)/4^c = sum_j H(b+1, a+1, j-2)/4^j."""

    def H(x, y, z):
        return en.bivariate_catalan(x, y + z) - en.bivariate_catalan(y, x + z)

    for a in range(0, bound + 1):
        for b in range(0, bound + 1):
            for c in range(0, bound + 1):
                # both sides over 4^c
                rhs = sum(H(b + 1, a + 1, j - 2) * 4 ** (c - j) for j in range(1, c + 1))
                lhs, rhs = Fraction(H(a, b, c), 4 ** c), Fraction(rhs, 4 ** c)
                yield {"a": a, "b": b, "c": c}, lhs, rhs


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
    the group inverse for negative powers)."""
    zeta_t = characters.restrict(characters.ZETA, n_max)
    powers = {0: characters.restrict(characters.COUNIT, n_max)}
    for m in range(1, 4):
        powers[m] = characters.convolve(powers[m - 1], zeta_t)
    for m in range(1, 4):
        powers[-m] = characters.inverse(powers[m])
    for m in range(-3, 4):
        char_id = characters.zeta_power(m)
        table = powers[m]
        for n in range(0, n_max + 1):
            row, d = table.numerators[n], table.denominators[n]
            # phi(F_alpha) sums phi(M_beta) over the super-masks beta of alpha
            f_row = _mask_pass(row, n, True, 1)
            for mask, alpha in enumerate(all_compositions(n)):
                yield (
                    {"basis": "M", "m": m, "alpha": alpha},
                    characters.eval_M(char_id, alpha),
                    Fraction(row[mask], d),
                )
                yield (
                    {"basis": "F", "m": m, "alpha": alpha},
                    characters.eval_F(char_id, alpha),
                    Fraction(f_row[mask], d),
                )


def _peak_rev_con(n_max: int) -> Iterator[Case]:
    """How the two peak statistics transform under reversal and
    conjugation: two invariances and the two three-case corrections.  Each
    alpha's statistics, conjugate and reversal are computed once."""
    for n in range(1, n_max + 1):
        for alpha in all_compositions(n):
            a1, ak = alpha[0], alpha[-1]
            minus, plus = p_minus(alpha), p_plus(alpha)
            con, rev = conjugate(alpha), reversal(alpha)
            yield {"part": "p-minus-conjugate", "alpha": alpha}, p_minus(con), minus
            yield {"part": "p-plus-reversal", "alpha": alpha}, p_plus(rev), plus
            if (a1 == 1) == (ak == 1):
                expect_rev = minus
            elif a1 != 1:  # a1 > 1, ak == 1
                expect_rev = minus - 1
            else:  # a1 == 1, ak > 1
                expect_rev = minus + 1
            yield {"part": "p-minus-reversal", "alpha": alpha}, p_minus(rev), expect_rev
            if n >= 2:
                if (a1 == 1) != (ak == 1):
                    expect_con = plus
                elif a1 == 1:  # both end parts are 1
                    expect_con = plus - 1
                else:  # neither end part is 1
                    expect_con = plus + 1
                yield {"part": "p-plus-conjugate", "alpha": alpha}, p_plus(con), expect_con


# id -> (check, domain text); each {N} in the text is one bound of the check
_REGISTRY: dict[str, tuple[Callable[..., Iterator[Case]], str]] = {
    "classical_conv": (_classical_conv, "1 <= m <= {30}"),
    "classical_conv2": (_classical_conv2, "0 <= m <= {30}"),
    "central_prod": (_central_prod, "0 <= n, m <= {12}, not both 0, plus specials"),
    "catalan_prod": (_catalan_prod, "1 <= n, m <= {12}, n = m mod 2, not both 1, plus specials"),
    "antipode_sum": (_antipode_sum, "all beta of weight 1..{10}"),
    "app_antipodeM": (_app_antipodeM, "beta of weight 1..{10} with even-part count even and matching end parities"),
    "tn_vandermonde": (_tn_vandermonde, "grouped sum and Vandermonde for n <= {14}; class census for n <= {12}"),
    "signs_a": (_signs_a, "0 <= m <= {14}, 0 <= j <= m"),
    "signs_b": (_signs_b, "1 <= m <= {14}, 0 <= j <= m"),
    "g_convolve": (_g_convolve, "0 <= i, j, m <= {10}"),
    "h_minus_closed": (_h_minus_closed, "all alpha of weight 1..{10}"),
    "h_plus_closed": (_h_plus_closed, "all alpha of even weight 2..{10}"),
    "app_f1": (_app_f1, "all alpha of weight 1..{10}"),
    "app_f2": (_app_f2, "all alpha of weight 1..{10}"),
    "cg6": (_cg6, "1 <= h <= {12}"),
    "cg7": (_cg7, "1 <= h <= {12}"),
    "cg8": (_cg8, "1 <= h <= {12}"),
    "allperms_minus": (_allperms_minus, "0 <= n <= {9}"),
    "allperms_plus": (_allperms_plus, "even n, 2 <= n <= {9}"),
    "shuffle_minus": (_shuffle_minus, "n, m >= 0 with n + m <= {10}"),
    "shuffle_plus": (_shuffle_plus, "n = m mod 2 with n + m <= {10}"),
    "app_zetainv_m": (_app_zetainv_m, "1 <= m <= {30}"),
    "app_zetainv_plus_m": (_app_zetainv_plus_m, "all beta of even weight 0..{10}"),
    "gessel_rec": (_gessel_rec, "0 <= a, b, c <= {10}"),
    "binomial_gessel": (_binomial_gessel, "0 <= b, c <= {10}"),
    "catalan_gessel": (_catalan_gessel, "0 <= b, c <= {10}"),
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
