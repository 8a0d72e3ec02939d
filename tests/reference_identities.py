"""The definitional route of the registry checks that compute once what
their cases share: part statistics counted inline, ints summed over one
denominator per degree, whole rows per weight and running sums.

Each check here is the form the package ran before those changes: it takes
the part statistics of every composition from ``stats``, adds rational
terms one Fraction at a time, looks up each peak weight once per
refinement, calls ``p_minus``/``p_plus`` on both pieces of every ribbon
cut, sums the F-basis values of a table over ``refinements`` and calls
``eval_F`` on every composition, lists every composition to count classes,
sums over j afresh for every c, lists every shuffle word to count its
peaks, builds each composition's conjugate and reversal, and asks
``bivariate_catalan`` for every summand afresh.  The central Catalan
convolutions and the two Gessel sums are the per-check generators that the
registry serves from one generator per mirrored family, adding one Fraction
per term.
They stay here, slow and literal, as the references that the registry's
checks must match case by case (``CHECKS``, by registry id, each taking the
same bounds as its registry check).
"""

from collections import Counter
from fractions import Fraction

from qsymx import characters
from qsymx import exactnum as en
from qsymx.compositions import (
    all_compositions,
    coarsenings,
    conjugate,
    p_minus,
    p_plus,
    refinements,
    reversal,
    ribbon_cuts,
)
from qsymx.permutations import augmented_peaks, interior_peaks, shuffles
from reference_closed_forms import stats


def _b_over_4(h):
    return Fraction(en.central_binomial(h), 4 ** h)


def central_prod(b):
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


def catalan_prod(b):
    for n in range(1, b + 1):
        for m in range(1, b + 1):
            if (n, m) == (1, 1) or (n - m) % 2:
                continue
            lhs = 0
            for d in range(min(n, m) + 1):
                s = n + m - 2 * d
                if s == 0:
                    continue
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


def _odd_head_weight(alpha):
    st = stats(alpha)
    value = _b_over_4(st.k_o // 2)
    return -value if st.k_e % 2 else value


def antipode_sum(n_max):
    for n in range(1, n_max + 1):
        for beta in all_compositions(n):
            lhs = sum(_odd_head_weight(alpha) for alpha in coarsenings(beta) if alpha[0] % 2)
            rhs = _b_over_4(stats(beta).k_o // 2) if beta[-1] % 2 else 0
            yield {"beta": beta}, lhs, rhs


def app_antipodeM(n_max):
    for n in range(1, n_max + 1):
        for beta in all_compositions(n):
            st = stats(beta)
            if st.k_e % 2 or (beta[0] - beta[-1]) % 2:
                continue
            lhs = sum(
                _odd_head_weight(alpha)
                for alpha in coarsenings(beta)
                if alpha != beta and alpha[0] % 2
            )
            yield {"beta": beta}, lhs, 0


def _class_size(n, r, s):
    return en.binomial((n + r) // 2 - 1, r + s - 1) * en.binomial(r + s - 1, r - 1)


def tn_vandermonde(n_max, census_max):
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
        census = Counter()
        for alpha in all_compositions(n):
            if alpha[0] % 2:
                st = stats(alpha)
                census[(st.k_o, st.k_e)] += 1
        for r in range(1, n + 1):
            if (n - r) % 2:
                continue
            for s in range(0, (n - r) // 2 + 1):
                params = {"part": "count", "n": n, "r": r, "s": s}
                yield params, census[(r, s)], _class_size(n, r, s)


def _signed_census(m, stat):
    census = Counter()
    for gamma in all_compositions(m):
        st = stats(gamma)
        census[getattr(st, stat)] += (-1) ** st.k
    return census


def signs_a(m_max):
    for m in range(0, m_max + 1):
        census = _signed_census(m, "v")
        for j in range(0, m + 1):
            yield {"m": m, "j": j}, census[j], (-1) ** (m + j) * en.binomial(m // 2, j)


def signs_b(m_max):
    for m in range(1, m_max + 1):
        census = _signed_census(m, "u")
        for j in range(0, m + 1):
            rhs = 0 if m % 2 == 0 else (-1) ** (m + j) * en.binomial(m // 2, j)
            yield {"m": m, "j": j}, census[j], rhs


def g_convolve(bound):
    for i in range(0, bound + 1):
        for j in range(0, bound + 1):
            for m in range(0, bound + 1):
                lhs = 4 ** m * en.bivariate_catalan(i, j)
                rhs = sum(
                    en.binomial(m, b) * en.bivariate_catalan(i + b, m + j - b)
                    for b in range(m + 1)
                )
                yield {"i": i, "j": j, "m": m}, lhs, rhs


def _h_sum(alpha, peaks, half):
    total = 0
    for beta in refinements(alpha):
        q = peaks(beta)
        term = en.bivariate_catalan(q, half - q)
        total += -term if (len(beta) + q + 1) % 2 else term
    return Fraction(total)


def h_minus_closed(n_max):
    for n in range(1, n_max + 1):
        for alpha in all_compositions(n):
            rhs = 0
            if alpha[-1] % 2:
                k_o = stats(alpha).k_o
                rhs = (-1) ** (n - 1) * 2 ** (n - k_o) * en.bivariate_catalan(0, k_o // 2)
            yield {"alpha": alpha}, _h_sum(alpha, p_minus, n // 2), rhs


def h_plus_closed(n_max):
    for n in range(2, n_max + 1, 2):
        for alpha in all_compositions(n):
            if len(alpha) == 1:
                rhs = 2 ** n
            elif alpha[0] % 2 and alpha[-1] % 2:
                k_o = stats(alpha).k_o
                rhs = 2 ** (n - k_o) * en.bivariate_catalan(1, k_o // 2 - 1)
            else:
                rhs = 0
            yield {"alpha": alpha}, _h_sum(alpha, p_plus, n // 2), rhs


def app_f1(n_max):
    for n in range(1, n_max + 1):
        for alpha in all_compositions(n):
            cuts = ribbon_cuts(alpha)
            fl = n // 2
            lhs = 0
            for j in range(fl + 1):
                left, right = cuts[2 * j]
                lp = p_plus(left)
                rm = p_minus(right)
                term = en.bivariate_catalan(lp, j - lp) * en.bivariate_catalan(rm, fl - j - rm)
                lhs += -term if (lp + rm) % 2 else term
            rhs = 4 ** fl if len(alpha) == 1 else 0
            yield {"alpha": alpha}, lhs, rhs


def app_f2(n_max):
    for n in range(1, n_max + 1):
        for alpha in all_compositions(n):
            lhs = 0
            for i, (left, right) in enumerate(ribbon_cuts(alpha)):
                lm = p_minus(left)
                rm = p_minus(right)
                fi, fr = i // 2, (n - i) // 2
                term = Fraction(
                    en.bivariate_catalan(lm, fi - lm) * en.bivariate_catalan(rm, fr - rm),
                    4 ** (fi + fr),
                )
                lhs += -term if (lm + rm + i) % 2 else term
            yield {"alpha": alpha}, lhs, 0


def _cc_convolution(a, b, h):
    return sum(en.central_catalan(a, j) * en.central_catalan(b, h - j) for j in range(h + 1))


def cg6(h_max):
    for h in range(1, h_max + 1):
        yield {"h": h}, _cc_convolution(3, 3, h), 2 * _cc_convolution(2, 1, h - 1)


def cg7(h_max):
    for h in range(1, h_max + 1):
        rhs = _cc_convolution(2, 3, h) + _cc_convolution(1, 1, h - 1)
        yield {"h": h}, _cc_convolution(3, 4, h), rhs


def cg8(h_max):
    for h in range(1, h_max + 1):
        yield {"h": h}, _cc_convolution(4, 4, h), 2 * _cc_convolution(3, 1, h)


def app_zetainv_plus_m(n_max):
    for n in range(0, n_max + 1, 2):
        for beta in all_compositions(n):
            k_o = stats(beta).k_o
            lhs = 0
            for alpha in coarsenings(beta):
                if alpha and alpha[0] % 2 and alpha[-1] % 2:
                    st = stats(alpha)
                    term = 2 ** (k_o - st.k_o + 1) * en.catalan(st.k_o // 2 - 1)
                    lhs += -term if st.k_e % 2 else term
            yield {"beta": beta}, lhs, 2 ** k_o - en.binomial(k_o, k_o // 2)


def _signed_peak_sum(words, peaks, half):
    census = Counter()
    for word, multiplicity in words:
        census[peaks(word)] += multiplicity
    return sum((-1) ** p * count * en.bivariate_catalan(p, half - p) for p, count in census.items())


def shuffle_minus(total):
    for n in range(0, total + 1):
        for m in range(0, total - n + 1):
            words = shuffles(tuple(range(1, n + 1)), tuple(range(1, m + 1)))
            lhs = _signed_peak_sum(((w, 1) for w in words), interior_peaks, (n + m) // 2)
            factor = 4 if (n % 2 and m % 2) else 1
            rhs = factor * en.bivariate_catalan(0, n // 2) * en.bivariate_catalan(0, m // 2)
            yield {"n": n, "m": m}, lhs, rhs


def shuffle_plus(total):
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


def gessel_rec(bound):
    for a in range(0, bound + 1):
        for b in range(0, bound + 1):
            for c in range(0, bound + 1):
                rhs = 4 ** c * en.bivariate_catalan(b, a) - sum(
                    4 ** (c - j) * en.bivariate_catalan(b + 1, a + j - 1)
                    for j in range(1, c + 1)
                )
                yield {"a": a, "b": b, "c": c}, en.bivariate_catalan(b, a + c), rhs


def binomial_gessel(bound):
    for b in range(0, bound + 1):
        for c in range(0, bound + 1):
            rhs = Fraction(en.bivariate_catalan(b, c), 4 ** c) + sum(
                Fraction(en.bivariate_catalan(b + 1, j - 1), 4 ** j) for j in range(1, c + 1)
            )
            yield {"b": b, "c": c}, en.binomial(2 * b, b), rhs


def catalan_gessel(bound):
    for b in range(0, bound + 1):
        for c in range(0, bound + 1):
            rhs = Fraction(en.bivariate_catalan(b, c + 1), 4 ** c) + sum(
                Fraction(en.bivariate_catalan(b + 1, j), 4 ** j) for j in range(1, c + 1)
            )
            yield {"b": b, "c": c}, 2 * en.catalan(b), rhs


def associator(bound):
    def H(x, y, z):
        return en.bivariate_catalan(x, y + z) - en.bivariate_catalan(y, x + z)

    for a in range(0, bound + 1):
        for b in range(0, bound + 1):
            for c in range(0, bound + 1):
                lhs = Fraction(H(a, b, c), 4 ** c)
                rhs = sum(Fraction(H(b + 1, a + 1, j - 2), 4 ** j) for j in range(1, c + 1))
                yield {"a": a, "b": b, "c": c}, lhs, rhs


def zeta_power(n_max):
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
            for alpha in all_compositions(n):
                yield (
                    {"basis": "M", "m": m, "alpha": alpha},
                    characters.eval_M(char_id, alpha),
                    table.value(alpha),
                )
                yield (
                    {"basis": "F", "m": m, "alpha": alpha},
                    characters.eval_F(char_id, alpha),
                    sum(table.value(beta) for beta in refinements(alpha)),
                )


def peak_rev_con(n_max):
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


CHECKS = {
    "central_prod": central_prod,
    "catalan_prod": catalan_prod,
    "antipode_sum": antipode_sum,
    "app_antipodeM": app_antipodeM,
    "tn_vandermonde": tn_vandermonde,
    "signs_a": signs_a,
    "signs_b": signs_b,
    "g_convolve": g_convolve,
    "h_minus_closed": h_minus_closed,
    "h_plus_closed": h_plus_closed,
    "app_f1": app_f1,
    "app_f2": app_f2,
    "cg6": cg6,
    "cg7": cg7,
    "cg8": cg8,
    "shuffle_minus": shuffle_minus,
    "shuffle_plus": shuffle_plus,
    "app_zetainv_plus_m": app_zetainv_plus_m,
    "gessel_rec": gessel_rec,
    "binomial_gessel": binomial_gessel,
    "catalan_gessel": catalan_gessel,
    "associator": associator,
    "zeta_power": zeta_power,
    "peak_rev_con": peak_rev_con,
}
