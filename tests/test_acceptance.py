"""Acceptance suite: the package's exit criteria, run at full stated bounds
with exact (zero-tolerance) equality throughout.  One pass/fail line is
printed per criterion (run pytest with -s to see them as they complete).
"""

import contextlib
import functools
import io
import itertools
import json
import time
from collections import Counter
from fractions import Fraction

import pytest

import reference_oracle
from reference_closed_forms import stats
from qsymx import characters as ch
from qsymx import cli
from qsymx import compositions as co
from qsymx import exactnum as en
from qsymx import identities as idn
from qsymx import permutations as pm
from qsymx import qsym as qs


class _Failures(dict):
    """The checks of a criterion that fail, each mapped to its first
    failing case, or to the exception the check raised."""

    def check(self, name, case, holds):
        """Record case under name if holds() is false and name has not failed."""
        if name not in self:
            try:
                if not holds():
                    self[name] = case
            except Exception as exc:
                self[name] = exc


@contextlib.contextmanager
def _reported(number: int, name: str, note: str = "", limit: float | None = None):
    """Print the criterion's pass/fail line when the block ends, with note
    formatted by the block's wall time in seconds; a block slower than
    limit fails."""
    ok = False
    start = time.perf_counter()
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        suffix = " (%s)" % (note % elapsed) if note else ""
        print("[acceptance] criterion %d %-28s %s%s" % (number, name, status, suffix))
    assert limit is None or elapsed < limit


def comps_up_to(max_degree):
    return [a for n in range(max_degree + 1) for a in co.all_compositions(n)]


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    with _reported(1, "oracle equivalence N=9",
                   "%.2fs; square root = three-fold recursion at N=10", limit=10.0):
        oracle_plus, oracle_minus = ch.decompose(ch.restrict(ch.ZETA, 9))
        closed_plus = ch.restrict(ch.ZETA_PLUS, 9)
        closed_minus = ch.restrict(ch.ZETA_MINUS, 9)
        entries = 0
        for n in range(10):
            for alpha in co.all_compositions(n):
                assert oracle_plus.value(alpha) == closed_plus.value(alpha)
                assert oracle_minus.value(alpha) == closed_minus.value(alpha)
                entries += 2
        assert entries == 2 * 512
        # the square-root oracle against the literal three-fold recursion
        for char_id in (ch.ZETA, ch.ZETA_INV, ch.zeta_power(3)):
            phi = ch.restrict(char_id, 10)
            assert ch.decompose(phi) == reference_oracle.decompose(phi), char_id


# -- criterion 2 -------------------------------------------------------------

def _f_basis_failures(max_degree):
    """Criterion 2 for alpha of weight at most max_degree: eval_F against
    eval_element on the M expansion of F_alpha.  Each character id that
    fails is mapped to its first failing alpha."""
    ids = ch.CHARACTER_IDS + tuple(ch.zeta_power(m) for m in (-3, 2, 3))
    failed = _Failures()
    for alpha in comps_up_to(max_degree):
        expansion = qs.to_M(qs.qsym_basis("F", alpha))
        for char_id in ids:
            failed.check(char_id, alpha, lambda: (
                ch.eval_F(char_id, alpha) == ch.eval_element(char_id, expansion)))
    return failed


def test_criterion_2_f_basis_closed_forms():
    with _reported(2, "F-basis closed forms n<=9"):
        assert _f_basis_failures(9) == {}


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_identity_battery():
    with _reported(3, "identity battery (standard)", "%.2fs", limit=120.0):
        reports = idn.verify_all("standard")
        failed = [r for r in reports if not r.passed]
        assert not failed, failed
        assert len(reports) == len(idn.registry_ids())


# -- criterion 4 -------------------------------------------------------------

def _antipode_convolution(x, side):
    total = qs.qsym_zero(x.basis)
    for (left, right), c in qs.coproduct(x).coeffs.items():
        l_elt = qs.qsym_basis(x.basis, left)
        r_elt = qs.qsym_basis(x.basis, right)
        pair = (qs.antipode(l_elt), r_elt) if side == "left" else (l_elt, qs.antipode(r_elt))
        total = total + c * qs.multiply(*pair)
    return total


def _iterated_coproduct(tensor, side):
    out = {}
    for (left, right), c in tensor.coeffs.items():
        target = left if side == "left" else right
        inner = qs.coproduct(qs.qsym_basis(tensor.basis, target))
        for (a, b), d in inner.coeffs.items():
            key = (a, b, right) if side == "left" else (left, a, b)
            out[key] = out.get(key, Fraction(0)) + c * d
    return {k: v for k, v in out.items() if v}


def _hopf_failures(max_degree):
    """Criterion 4 on basis elements of total weight at most max_degree.
    In each basis: coassociativity, the antipode axiom, S(S(x)) = x,
    associativity, commutativity and the coproduct of a product.  Across
    the bases: the basis change of S, of the coproduct and of a product.
    And one product with a non-integral coefficient, against its expansion
    written out: a law with the element on both sides would not see a
    coefficient misread on both sides.  Each failing check is mapped to its
    first failing case."""
    comps = comps_up_to(max_degree)
    pairs = [
        (a, b)
        for a, b in itertools.product(comps, repeat=2)
        if sum(a) + sum(b) <= max_degree
    ]
    failed = _Failures()
    for basis in ("M", "F"):
        for a in comps:
            x = qs.qsym_basis(basis, a)
            tensor = qs.coproduct(x)
            failed.check(basis + " coassociativity", a, lambda: (
                _iterated_coproduct(tensor, "left") == _iterated_coproduct(tensor, "right")))
            eps = qs.counit(x) * qs.qsym_one(basis)
            failed.check(basis + " antipode axiom", a, lambda: (
                _antipode_convolution(x, "left") == eps == _antipode_convolution(x, "right")))
            failed.check(basis + " S(S(x))", a, lambda: qs.antipode(qs.antipode(x)) == x)
        for a, b, c in itertools.product(comps, repeat=3):
            if sum(a) + sum(b) + sum(c) > max_degree:
                continue
            x, y, z = (qs.qsym_basis(basis, t) for t in (a, b, c))
            failed.check(basis + " associativity", (a, b, c), lambda: (
                qs.multiply(qs.multiply(x, y), z) == qs.multiply(x, qs.multiply(y, z))))
        for a, b in pairs:
            x, y = qs.qsym_basis(basis, a), qs.qsym_basis(basis, b)
            xy = qs.multiply(x, y)
            failed.check(basis + " commutativity", (a, b), lambda: xy == qs.multiply(y, x))
            failed.check(basis + " coproduct of a product", (a, b), lambda: (
                qs.coproduct(xy) == qs.multiply_tensor(qs.coproduct(x), qs.coproduct(y))))
    for a in comps:
        x = qs.qsym_basis("M", a)
        failed.check("basis change of S", a, lambda: (
            qs.to_F(qs.antipode(x)) == qs.antipode(qs.to_F(x))))
        pushed = {}
        for (l, r), c in qs.coproduct(x).coeffs.items():
            for la, ca in qs.to_F(qs.qsym_basis("M", l)).coeffs.items():
                for rb, cb in qs.to_F(qs.qsym_basis("M", r)).coeffs.items():
                    pushed[(la, rb)] = pushed.get((la, rb), Fraction(0)) + c * ca * cb
        pushed = {k: v for k, v in pushed.items() if v}
        failed.check("basis change of the coproduct", a, lambda: (
            pushed == qs.coproduct(qs.to_F(x)).coeffs))
    for a, b in pairs:
        x, y = qs.qsym_basis("M", a), qs.qsym_basis("M", b)
        failed.check("basis change of a product", (a, b), lambda: (
            qs.to_F(qs.multiply(x, y)) == qs.multiply(qs.to_F(x), qs.to_F(y))))
    half = Fraction(1, 2)
    x = qs.QSymElement("M", {(1,): half, (2,): 1})
    expansion = qs.QSymElement("M", {
        (2,): half * half, (1, 1): half, (1, 2): 1, (2, 1): 1, (3,): 1, (4,): 1, (2, 2): 2,
    })
    failed.check("M product of a non-integral element", x, lambda: (
        qs.multiply(x, x) == expansion))
    return failed


def test_criterion_4_hopf_axioms():
    with _reported(4, "Hopf axioms deg<=6"):
        assert _hopf_failures(6) == {}


# -- criterion 5 -------------------------------------------------------------

def _character_failures(n_max):
    """Criterion 5 at truncation n_max: the six canonical characters are
    multiplicative on products of M basis elements ("multiplicativity");
    zeta-minus composed with S is its bar image ("odd S"); zeta-plus is
    fixed by bar and by T ("even bar", "even T"); and the parts of zeta^-1
    are bar(zeta-minus) composed with T ("inverse odd part") and
    zeta-plus^-1 ("inverse even part"); the parts of zeta and of zeta^-1
    multiply back to them ("product of parts").  Each failing check is
    mapped to its first failing case."""
    ids = [char_id for char_id in ch.CHARACTER_IDS if char_id != ch.COUNIT]
    tables = {char_id: ch.restrict(char_id, n_max) for char_id in ids}
    comps = comps_up_to(n_max)
    failed = _Failures()
    for alpha, beta in itertools.product(comps, repeat=2):
        if sum(alpha) + sum(beta) > n_max:
            continue
        product = qs.multiply(qs.qsym_basis("M", alpha), qs.qsym_basis("M", beta))
        for char_id, table in tables.items():
            failed.check("multiplicativity", (char_id, alpha, beta), lambda: (
                sum((c * table.value(g) for g, c in product.coeffs.items()), Fraction(0))
                == table.value(alpha) * table.value(beta)))
    zm, zp = tables[ch.ZETA_MINUS], tables[ch.ZETA_PLUS]
    failed.check("odd S", n_max, lambda: ch.compose_antipode(zm) == ch.bar(zm))
    failed.check("even bar", n_max, lambda: ch.bar(zp) == zp)
    failed.check("even T", n_max, lambda: ch.compose_T(zp) == zp)
    failed.check("inverse odd part", n_max, lambda: (
        tables[ch.ZETA_INV_MINUS] == ch.compose_T(ch.bar(zm))))
    failed.check("inverse even part", n_max, lambda: tables[ch.ZETA_INV_PLUS] == ch.inverse(zp))
    for whole, plus, minus in ((ch.ZETA, zp, zm),
                               (ch.ZETA_INV, tables[ch.ZETA_INV_PLUS],
                                tables[ch.ZETA_INV_MINUS])):
        failed.check("product of parts", (whole, n_max), lambda: (
            ch.convolve(plus, minus) == tables[whole]))
    return failed


def test_criterion_5_character_properties():
    with _reported(5, "character properties N=8"):
        assert _character_failures(8) == {}


# -- criterion 6 -------------------------------------------------------------

def _eval_perm_by_peaks(char_id, sigma):
    """The peak formulas on F_sigma, the reference for eval_perm (which
    goes through eval_F and the descent composition): zeta is 1 on
    permutations without descents, zeta-minus is signed by the interior
    peaks and zeta-plus by the augmented peaks."""
    n = len(sigma)
    if char_id == ch.ZETA:
        return Fraction(1 if not pm.descent_set(sigma) else 0)
    if char_id == ch.ZETA_MINUS:
        p, scale = pm.interior_peaks(sigma), 4 ** (n // 2)
    elif n % 2:
        return Fraction(0)
    else:
        p, scale = pm.augmented_peaks(sigma), 2 ** n
    sign = -1 if p % 2 else 1
    return Fraction(sign * en.bivariate_catalan(p, n // 2 - p), scale)


def _permutation_failures(max_n):
    """Criterion 6 on S_n for n <= max_n: the interior and augmented peaks
    against p_minus and p_plus of the descent composition, and eval_perm
    against eval_F ("eval_perm") and against the peak formulas.  Then, for
    |sigma| + |tau| <= 5, the descent map of the shuffle product against
    F_Des(sigma) F_Des(tau) ("descent map").  Each failing check is mapped
    to its first failing case."""
    failed = _Failures()
    for n in range(max_n + 1):
        for sigma in itertools.permutations(range(1, n + 1)):
            alpha = pm.descent_composition(sigma)
            failed.check("interior peaks", sigma,
                         lambda: pm.interior_peaks(sigma) == co.p_minus(alpha))
            failed.check("augmented peaks", sigma,
                         lambda: pm.augmented_peaks(sigma) == co.p_plus(alpha))
            for char_id in (ch.ZETA, ch.ZETA_MINUS, ch.ZETA_PLUS):
                value = ch.eval_perm(char_id, sigma)
                failed.check("eval_perm", (char_id, sigma),
                             lambda: value == ch.eval_F(char_id, alpha))
                failed.check("peak formulas", (char_id, sigma),
                             lambda: value == _eval_perm_by_peaks(char_id, sigma))
    words = [w for n in range(6) for w in itertools.permutations(range(1, n + 1))]
    for sigma, tau in ((s, t) for s in words for t in words if len(s) + len(t) <= 5):
        shuffled = pm.multiply_ssym(pm.ssym_basis(sigma), pm.ssym_basis(tau))
        rule = qs.multiply(qs.qsym_basis("F", pm.descent_composition(sigma)),
                           qs.qsym_basis("F", pm.descent_composition(tau)))
        failed.check("descent map", (sigma, tau), lambda: qs.descent_map(shuffled) == rule)
    return failed


def test_criterion_6_permutation_layer():
    with _reported(6, "permutation layer"):
        assert _permutation_failures(7) == {}


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_appendix():
    with _reported(7, "appendix restatements"):
        for alpha in comps_up_to(9):
            st = stats(alpha)
            n, k, k_e, k_o = st.weight, st.k, st.k_e, st.k_o
            fl = n // 2
            # zeta-minus, M basis
            if k == 0:
                expected = Fraction(1)
            elif alpha[-1] % 2:
                expected = (-1) ** (k_e + k_o // 2) * en.half_binomial(0, k_o // 2)
            else:
                expected = Fraction(0)
            assert ch.eval_M(ch.ZETA_MINUS, alpha) == expected
            # zeta-plus, M basis
            if k == 0:
                expected = Fraction(1)
            elif n % 2:
                expected = Fraction(0)
            elif k == 1:
                expected = Fraction(1)
            elif alpha[0] % 2 and alpha[-1] % 2:
                expected = (-1) ** (k_e + k_o // 2) * en.half_binomial(1, k_o // 2)
            else:
                expected = Fraction(0)
            assert ch.eval_M(ch.ZETA_PLUS, alpha) == expected
            # zeta-minus, F basis
            expected = (-1) ** fl * en.half_binomial(co.p_minus(alpha), fl)
            assert ch.eval_F(ch.ZETA_MINUS, alpha) == expected
            # zeta-plus, F basis
            if n % 2 == 0:
                expected = (-1) ** (n // 2) * en.half_binomial(co.p_plus(alpha), n // 2)
                assert ch.eval_F(ch.ZETA_PLUS, alpha) == expected
            else:
                assert ch.eval_F(ch.ZETA_PLUS, alpha) == 0
            # inverse odd part, M basis
            if k == 0:
                expected = Fraction(1)
            elif alpha[0] % 2:
                expected = (-1) ** (k + k_o // 2) * en.half_binomial(0, k_o // 2)
            else:
                expected = Fraction(0)
            assert ch.eval_M(ch.ZETA_INV_MINUS, alpha) == expected
            # inverse even part, M basis
            if n % 2 == 0:
                expected = (-1) ** (k + k_o // 2) * en.half_binomial(0, k_o // 2)
                assert ch.eval_M(ch.ZETA_INV_PLUS, alpha) == expected
            else:
                assert ch.eval_M(ch.ZETA_INV_PLUS, alpha) == 0
            # inverse odd part, F basis
            expected = (-1) ** ((n + 1) // 2) * en.half_binomial(
                co.p_minus(co.reversal(alpha)), fl
            )
            assert ch.eval_F(ch.ZETA_INV_MINUS, alpha) == expected
            # inverse even part, F basis
            if n % 2 == 0:
                expected = (-1) ** (n // 2) * en.half_binomial(
                    co.p_plus(co.conjugate(alpha)), n // 2
                )
                assert ch.eval_F(ch.ZETA_INV_PLUS, alpha) == expected
            else:
                assert ch.eval_F(ch.ZETA_INV_PLUS, alpha) == 0
        # convolution powers against iterated convolve/inverse at N = 8
        report = idn.verify("zeta_power", "standard")
        assert report.passed, report.counterexample


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_number_theory():
    with _reported(8, "2-adic valuation <=40"):
        report = idn.verify("power2", "standard")
        assert report.passed, report.counterexample
        assert report.cases == 2 * sum(total + 1 for total in range(1, 41))


# -- criterion 9 -------------------------------------------------------------
#
# One fault matrix.  Each row plants a fault in one layer and names the
# catchers that must all fire: "registry:<id>" (the check at depth small
# reports a counterexample), "criterion k:<check>" (a named check of
# criterion k, at a small size) or "decompose" (qsymx decompose --degree 6
# exits 1 with mismatches, or stops at an odd halving).  An exception in a
# catcher is not a catch: it fails the row.

def _plus_one_at(*point):
    """The fault: one more than the real value at one argument tuple."""
    return lambda real: lambda *args: real(*args) + (args == point)


def _negated_when(hit):
    """The fault: the real value, negated on the arguments hit accepts."""
    return lambda real: lambda *args: -real(*args) if hit(*args) else real(*args)


def _drop_last(real):
    """The fault: the real list without its last element."""
    return lambda *args: real(*args)[:-1]


def _drop_last_cut(real):
    """The fault: the kernel skips the proper cut at the largest partial
    sum of each composition."""
    def cuts(left, right, n, factors):
        row = real(left, right, n, factors)
        for mask in range(1, len(row)):
            s = mask.bit_length()
            row[mask] -= factors[s] * left[s][mask ^ 1 << (s - 1)] * right[n - s][mask >> s]
        return row
    return cuts


def _quotient_rows_without_unit_term(a, b):
    """The quotient recursion with the a_n x_0 term dropped."""
    x, x_d = [list(b.numerators[0])], [b.denominators[0]]
    for n in range(1, b.max_degree + 1):
        common, f = ch._cut_factors(
            [b.denominators[n]] + [a.denominators[s] * x_d[n - s] for s in range(1, n + 1)]
        )
        cuts = ch._proper_cuts(a.numerators, x, n, f)
        row, d = ch._reduced([f[0] * w - y for w, y in zip(b.numerators[n], cuts)], common)
        x.append(row)
        x_d.append(d)
    return x, x_d


def _last_part_parity_flipped_in_degree_5(real):
    """The fault: the shape walk gives every composition of 5 the wrong
    parity of its last part."""
    def walk(max_degree):
        for n, shapes, index in real(max_degree):
            if n == 5:
                shapes = [(k, k_o, first, 1 - last) for k, k_o, first, last in shapes]
            yield n, shapes, index
    return walk


def _row_left_undivided(real):
    """The fault: the reduction divides the denominator by g = gcd(d, *row)
    but skips the division of the row."""
    return lambda row, d: (row, real(row, d)[1])


def _gap_step_sign_by_gaps(real):
    """The fault: the census step negates where the last part grows as well
    as where a new part starts, so each sign counts the gaps walked, not
    the parts.  A fault that only missed the (-1)^q of the peaks would
    leave h_minus((2, 2)) = 0, whose census is {0: 0, 1: 0}."""
    def step(states, augmented):
        grown, started = real(states, augmented)
        return {key: -c for key, c in grown.items()}, started
    return step


def _one_more_in_a_class_of_4(real):
    """The fault: the descent class {2} of S_4 counts one permutation too
    many."""
    def classes(n):
        for mask, (sigma, count) in enumerate(real(n)):
            yield sigma, count + (n == 4 and mask == 0b010)
    return classes


def _product_F_tau_sigma_ascent(alpha, beta):
    """Gessel's rule where a letter of tau followed by a letter of sigma
    counts as an ascent: only two letters of one word can descend."""
    sigma, tau = (pm.permutation(itertools.chain.from_iterable(
        range(sum(g[j + 1:]) + 1, sum(g[j:]) + 1) for j in range(len(g))
    )) for g in (alpha, beta))  # descent compositions alpha and beta
    m, counts = len(sigma), Counter()
    for w in pm.shuffles(sigma, tau):
        mask = sum(1 << (i - 1) for i in range(1, len(w))
                   if w[i] < w[i - 1] and (w[i] > m) == (w[i - 1] > m))
        counts[co.from_index(len(w), mask)] += 1
    return counts


def _product_M_no_diagonal(alpha, beta):
    """The quasi-shuffle product without the diagonal step, which adds a
    part of alpha to a part of beta."""
    paths = co.delannoy_paths(len(alpha), len(beta))
    return Counter(co.quasi_shuffle(alpha, beta, p) for p in paths if "D" not in p)


def _from_terms_overwriting(real):
    """The fault: a repeated key keeps its last coefficient instead of the
    sum of its coefficients."""
    return classmethod(lambda cls, basis, terms: real.__func__(cls, basis, dict(terms).items()))


FAULTS = [
    ("exactnum.bivariate_catalan", _plus_one_at(2, 3), ("registry:gessel_rec", "registry:power2")),
    ("exactnum.central_binomial", _plus_one_at(3),
     ("registry:classical_conv", "registry:central_prod")),
    ("exactnum.catalan", _plus_one_at(3), ("registry:catalan_prod", "registry:app_zetainv_m")),
    # no product of two basis elements repeats a key: the fault shows where
    # products are summed, in multiply_tensor and in multiply on F expansions
    ("exactnum.LinearCombination.from_terms", _from_terms_overwriting,
     ("criterion 4:M coproduct of a product", "criterion 4:F coproduct of a product",
      "criterion 4:basis change of a product")),
    # int() truncates 1/2 to 0; the laws of criterion 4 read the same
    # truncated coefficient on both sides
    ("exactnum._summand", lambda real: int, ("criterion 4:M product of a non-integral element",)),
    ("characters._proper_cuts", _drop_last_cut, ("decompose", "registry:zeta_power")),
    # every term counted over its own denominator, not the degree's common
    # one; the registry convolves only integer characters
    ("characters._cut_factors",
     lambda real: lambda products: (real(products)[0], [1] * len(products)),
     ("criterion 5:product of parts", "criterion 5:inverse even part", "decompose")),
    # the halving skipped: phi_- comes out doubled from degree 1 on
    ("characters._halve", lambda real: lambda row, d, bound: real([2 * v for v in row], d, bound),
     ("decompose",)),
    ("characters._quotient_rows", lambda real: _quotient_rows_without_unit_term,
     ("decompose", "registry:zeta_power", "criterion 5:inverse even part")),
    ("characters._closed_M",
     _negated_when(lambda kind, power, n, shape: kind == ch.ZETA_MINUS and shape[0] == 3),
     ("criterion 2:zeta-minus", "decompose")),
    ("characters._shape_walk", _last_part_parity_flipped_in_degree_5,
     ("decompose", "criterion 5:multiplicativity")),
    # the closed forms build reduced rows, so only the oracle's results,
    # reduced on the way out of the kernel, see this fault
    ("characters._reduced", _row_left_undivided,
     ("decompose", "criterion 5:product of parts")),
    # the one census transition, shared by the per-alpha h_minus/h_plus and
    # the shared-prefix walk the registry reads
    ("characters._gap_step", _gap_step_sign_by_gaps,
     ("registry:h_minus_closed", "registry:h_plus_closed")),
    ("characters.eval_F", _negated_when(lambda c, a: c == ch.ZETA_PLUS and len(a) == 2),
     ("criterion 2:zeta-plus", "criterion 6:peak formulas")),
    # the F coproduct loses its term (alpha, ()); the registry reads the
    # ribbon cuts through _cut_peaks, not ribbon_cuts
    ("compositions.ribbon_cuts", _drop_last,
     ("criterion 4:F coassociativity", "criterion 4:F coproduct of a product",
      "criterion 4:basis change of the coproduct")),
    # every right piece counts one part > 1 fewer, never below 0
    ("compositions._cut_peaks",
     lambda real: lambda alpha: [(lm, lp, max(rm - 1, 0)) for lm, lp, rm in real(alpha)],
     ("registry:app_f1", "registry:app_f2")),
    ("compositions.conjugate", lambda real: co.reversal,
     ("registry:peak_rev_con", "criterion 4:basis change of S")),
    ("compositions.refinements", _drop_last, ("criterion 2:zeta",)),
    ("compositions.coarsenings", _drop_last, ("criterion 4:M antipode axiom",)),
    ("compositions.p_minus", lambda real: lambda alpha: sum(a > 1 for a in alpha),
     ("criterion 6:interior peaks", "registry:peak_rev_con")),
    ("compositions.p_plus", lambda real: lambda alpha: max(real(alpha) - 1, 0),
     ("criterion 6:augmented peaks", "registry:peak_rev_con")),
    ("compositions.to_index",
     lambda real: lambda alpha: real(alpha[::-1] if len(alpha) == 3 else alpha),
     ("criterion 4:F S(S(x))", "registry:peak_rev_con")),
    # the pass skips the top bit of each degree
    ("compositions._mask_pass",
     lambda real: lambda values, n, supersets, sign: real(values, n - 1, supersets, sign),
     ("registry:zeta_power", "registry:allperms_minus", "registry:allperms_plus",
      "registry:antipode_sum", "registry:app_zetainv_plus_m")),
    ("permutations.shuffles", _drop_last, ("registry:shuffle_minus", "criterion 6:descent map")),
    ("permutations.descent_composition", lambda real: lambda sigma: real(sigma)[::-1],
     ("criterion 6:interior peaks",)),
    ("permutations.descent_classes", _one_more_in_a_class_of_4,
     ("registry:allperms_minus", "registry:allperms_plus")),
    ("permutations.interior_peaks", lambda real: pm.augmented_peaks,
     ("registry:allperms_minus", "criterion 6:interior peaks")),
    # sigma(0) = sigma(1) in place of sigma(0) = 0: position 1 is never a peak
    ("permutations.augmented_peaks", lambda real: lambda sigma: real(sigma[:1] + sigma),
     ("registry:allperms_plus", "criterion 6:augmented peaks")),
    ("qsym._product_F", lambda real: _product_F_tau_sigma_ascent,
     ("criterion 4:basis change of a product", "criterion 6:descent map")),
    ("qsym._product_M", lambda real: _product_M_no_diagonal,
     ("criterion 4:basis change of a product", "criterion 5:multiplicativity")),
    ("qsym.antipode",
     _negated_when(lambda x: x.basis == "M" and any(len(a) == 2 for a in x.coeffs)),
     ("criterion 4:M antipode axiom", "criterion 5:odd S")),
    ("qsym.t_involution", lambda real: lambda x: x, ("criterion 5:inverse odd part",)),
    ("qsym.descent_map", lambda real: lambda x: qs.t_involution(real(x)),
     ("criterion 6:descent map",)),
    # every summand counted as if its number of even parts were even
    ("identities._odd_head_row", lambda real: lambda n: [abs(v) for v in real(n)],
     ("registry:antipode_sum", "registry:app_antipodeM")),
    # every composition counted as if its number of parts were even
    ("identities._signed_census",
     lambda real: lambda m, first: {j: abs(c) for j, c in real(m, first).items()},
     ("registry:signs_a", "registry:signs_b")),
    ("identities._cc_convolution", _plus_one_at(3, 3, 2), ("registry:cg6",)),
    ("identities._signed_peak_sum",
     lambda real: lambda words, peaks, half: real(words, peaks, half) + (half == 2),
     ("registry:allperms_minus", "registry:allperms_plus", "registry:shuffle_minus",
      "registry:shuffle_plus")),
]

_MODULES = {m.__name__.rpartition(".")[2]: m for m in (en, co, pm, qs, ch, idn, cli)}

# each criterion's failing checks, at the size the matrix runs it
_CRITERIA = {
    "criterion 2": lambda: _f_basis_failures(6),
    "criterion 4": lambda: _hopf_failures(4),
    "criterion 5": lambda: _character_failures(5),
    "criterion 6": lambda: _permutation_failures(6),
}


def _plant(monkeypatch, target, fault):
    """Replace target by fault(real): "module.Class.name" on its class,
    "module.name" in every module that holds it."""
    module, *classes, name = target.split(".")
    owner = functools.reduce(getattr, classes, _MODULES[module])
    real = getattr(owner, name)
    holders = [owner] if classes else [m for m in _MODULES.values() if vars(m).get(name) is real]
    for holder in holders:
        monkeypatch.setattr(holder, name, fault(real))


def _caught(catchers):
    """{catcher: what it reports} for each of the catchers that sees a
    fault."""
    found, criteria = {}, {}
    for catcher in catchers:
        kind, _, name = catcher.partition(":")
        if kind == "registry":
            report = idn.verify(name, "small")
            if not report.passed:
                example = report.counterexample
                assert example.params and example.left != example.right, report
                found[catcher] = example
        elif kind == "decompose":
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(["decompose", "--degree", "6", "--json"])
            except ArithmeticError as exc:  # an odd value in a halving
                assert "exact halving" in str(exc), exc
                found[catcher] = exc
                continue
            mismatches = json.loads(out.getvalue())["mismatches"]
            assert code == (1 if mismatches else 0), (code, mismatches)
            if mismatches:
                found[catcher] = mismatches
        else:
            if kind not in criteria:
                criteria[kind] = _CRITERIA[kind]()
            if name in criteria[kind]:
                case = criteria[kind][name]
                if isinstance(case, Exception):
                    raise case
                found[catcher] = case
    return found


@pytest.mark.parametrize(
    "target, fault, catchers",
    [pytest.param(None, None, sorted({c for row in FAULTS for c in row[2]}), id="no fault")]
    + [pytest.param(*row, id=row[0]) for row in FAULTS],
)
def test_criterion_9_fault_matrix(monkeypatch, target, fault, catchers):
    with _reported(9, "fault matrix: %s" % (target or "no fault")):
        if target is not None:
            _plant(monkeypatch, target, fault)
        found = _caught(catchers)
        # with no fault no catcher may fire; with a fault every one must
        assert set(found) == (set() if target is None else set(catchers)), found


def test_gap_step_fault_reaches_both_census_routes(monkeypatch):
    # the criterion 9 fault on the census transition changes the per-alpha
    # sum too (h_minus((2, 2)) = 0 becomes -8), and the walk agrees with it
    real = ch.h_minus((2, 2))
    _plant(monkeypatch, "characters._gap_step", _gap_step_sign_by_gaps)
    faulty = ch.h_minus((2, 2))
    assert faulty != real
    assert ch._h_rows(4, False)[4][co.to_index((2, 2))] == faulty
