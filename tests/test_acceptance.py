"""Acceptance suite: the package's exit criteria, run at full stated bounds
with exact (zero-tolerance) equality throughout.  One pass/fail line is
printed per criterion (run pytest with -s to see them as they complete).
"""

import contextlib
import io
import itertools
import json
import time
from fractions import Fraction

from qsymx import characters as ch
from qsymx import cli
from qsymx import compositions as co
from qsymx import exactnum as en
from qsymx import identities as idn
from qsymx import permutations as pm
from qsymx import qsym as qs


def _report(number: int, name: str, ok: bool, note: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = " (%s)" % note if note else ""
    print("[acceptance] criterion %d %-28s %s%s" % (number, name, status, suffix))


def comps_up_to(max_degree):
    return [a for n in range(max_degree + 1) for a in co.all_compositions(n)]


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    ok = False
    start = time.perf_counter()
    try:
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
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        _report(1, "oracle equivalence N=9", ok, "%.2fs" % elapsed)
    assert elapsed < 10.0


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_f_basis_closed_forms():
    ok = False
    try:
        ids = (ch.ZETA, ch.COUNIT, ch.ZETA_PLUS, ch.ZETA_MINUS, ch.ZETA_INV,
               ch.ZETA_INV_PLUS, ch.ZETA_INV_MINUS,
               ch.zeta_power(-3), ch.zeta_power(2), ch.zeta_power(3))
        for alpha in comps_up_to(9):
            expansion = qs.to_M(qs.qsym_basis("F", alpha))
            for char_id in ids:
                assert ch.eval_F(char_id, alpha) == ch.eval_element(char_id, expansion)
        ok = True
    finally:
        _report(2, "F-basis closed forms n<=9", ok)


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_identity_battery():
    ok = False
    start = time.perf_counter()
    try:
        reports = idn.verify_all("standard")
        failed = [r for r in reports if not r.passed]
        assert not failed, failed
        assert len(reports) == len(idn.registry_ids())
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        _report(3, "identity battery (standard)", ok, "%.2fs" % elapsed)
    assert elapsed < 120.0


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


def _product_check_failures(max_degree):
    """The criterion-4 checks on pairs of basis elements of total weight at
    most max_degree that fail for some pair, each mapped to the first
    (basis, a, b) that fails it: in each basis, commutativity and
    coproduct(xy) = multiply_tensor(coproduct(x), coproduct(y)); and
    to_F(M_a M_b) = to_F(M_a) to_F(M_b)."""
    comps = comps_up_to(max_degree)
    pairs = [
        (a, b)
        for a, b in itertools.product(comps, repeat=2)
        if sum(a) + sum(b) <= max_degree
    ]
    failed = {}
    for basis in ("M", "F"):
        for a, b in pairs:
            x, y = qs.qsym_basis(basis, a), qs.qsym_basis(basis, b)
            xy = qs.multiply(x, y)
            if xy != qs.multiply(y, x):
                failed.setdefault(basis + " commutativity", (basis, a, b))
            if qs.coproduct(xy) != qs.multiply_tensor(qs.coproduct(x), qs.coproduct(y)):
                failed.setdefault(basis + " coproduct of a product", (basis, a, b))
    for a, b in pairs:
        x, y = qs.qsym_basis("M", a), qs.qsym_basis("M", b)
        if qs.to_F(qs.multiply(x, y)) != qs.multiply(qs.to_F(x), qs.to_F(y)):
            failed.setdefault("basis change of a product", ("M", a, b))
    return failed


def test_criterion_4_hopf_axioms():
    ok = False
    try:
        comps = comps_up_to(6)
        for basis in ("M", "F"):
            singles = [qs.qsym_basis(basis, a) for a in comps]
            # coassociativity, antipode axiom, involutivity of S
            for x in singles:
                tensor = qs.coproduct(x)
                assert _iterated_coproduct(tensor, "left") == _iterated_coproduct(tensor, "right")
                eps = qs.counit(x) * qs.qsym_one(basis)
                assert _antipode_convolution(x, "left") == eps
                assert _antipode_convolution(x, "right") == eps
                assert qs.antipode(qs.antipode(x)) == x
            # associativity on triples
            for a, b, c in itertools.product(comps, repeat=3):
                if sum(a) + sum(b) + sum(c) > 6:
                    continue
                x, y, z = (qs.qsym_basis(basis, t) for t in (a, b, c))
                assert qs.multiply(qs.multiply(x, y), z) == qs.multiply(x, qs.multiply(y, z))
        # basis-change commutation
        for a in comps:
            x = qs.qsym_basis("M", a)
            assert qs.to_F(qs.antipode(x)) == qs.antipode(qs.to_F(x))
            pushed = {}
            for (l, r), c in qs.coproduct(x).coeffs.items():
                for la, ca in qs.to_F(qs.qsym_basis("M", l)).coeffs.items():
                    for rb, cb in qs.to_F(qs.qsym_basis("M", r)).coeffs.items():
                        pushed[(la, rb)] = pushed.get((la, rb), Fraction(0)) + c * ca * cb
            pushed = {k: v for k, v in pushed.items() if v}
            assert pushed == qs.coproduct(qs.to_F(x)).coeffs
        # commutativity, compatibility and basis change on pairs
        failures = _product_check_failures(6)
        assert not failures, failures
        ok = True
    finally:
        _report(4, "Hopf axioms deg<=6", ok)


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_character_properties():
    ok = False
    try:
        n_max = 8
        ids = (ch.ZETA, ch.ZETA_PLUS, ch.ZETA_MINUS, ch.ZETA_INV,
               ch.ZETA_INV_PLUS, ch.ZETA_INV_MINUS)
        tables = {char_id: ch.restrict(char_id, n_max) for char_id in ids}
        comps = comps_up_to(n_max)
        for alpha, beta in itertools.product(comps, repeat=2):
            if sum(alpha) + sum(beta) > n_max:
                continue
            product = qs.multiply(qs.qsym_basis("M", alpha), qs.qsym_basis("M", beta))
            for char_id, table in tables.items():
                lhs = sum(
                    (c * table.value(g) for g, c in product.coeffs.items()),
                    Fraction(0),
                )
                assert lhs == table.value(alpha) * table.value(beta), (char_id, alpha, beta)
        zm, zp = tables[ch.ZETA_MINUS], tables[ch.ZETA_PLUS]
        assert ch.compose_antipode(zm) == ch.bar(zm)
        assert ch.bar(zp) == zp
        assert ch.compose_T(zp) == zp
        assert tables[ch.ZETA_INV_MINUS] == ch.compose_T(ch.bar(zm))
        assert tables[ch.ZETA_INV_PLUS] == ch.inverse(zp)
        ok = True
    finally:
        _report(5, "character properties N=8", ok)


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


def test_criterion_6_permutation_layer():
    ok = False
    try:
        for n in range(8):
            for sigma in itertools.permutations(range(1, n + 1)):
                alpha = pm.descent_composition(sigma)
                assert pm.interior_peaks(sigma) == co.p_minus(alpha)
                assert pm.augmented_peaks(sigma) == co.p_plus(alpha)
                for char_id in (ch.ZETA, ch.ZETA_MINUS, ch.ZETA_PLUS):
                    assert ch.eval_perm(char_id, sigma) == ch.eval_F(char_id, alpha)
                    assert ch.eval_perm(char_id, sigma) == _eval_perm_by_peaks(char_id, sigma)
        for n in range(10):
            fl = n // 2
            minus_total = Fraction(0)
            plus_total = Fraction(0)
            for sigma in itertools.permutations(range(1, n + 1)):
                p = pm.interior_peaks(sigma)
                term = en.bivariate_catalan(p, fl - p)
                minus_total += -term if p % 2 else term
                if n and n % 2 == 0:
                    q = pm.augmented_peaks(sigma)
                    term = en.bivariate_catalan(q, n // 2 - q)
                    plus_total += -term if q % 2 else term
            assert minus_total == 4 ** fl, n
            if n and n % 2 == 0:
                assert plus_total == 0, n
        ok = True
    finally:
        _report(6, "permutation layer", ok)


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_appendix():
    ok = False
    try:
        for alpha in comps_up_to(9):
            st = co.stats(alpha)
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
        ok = True
    finally:
        _report(7, "appendix restatements", ok)


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_number_theory():
    ok = False
    try:
        report = idn.verify("power2", "standard")
        assert report.passed, report.counterexample
        assert report.cases == 2 * sum(total + 1 for total in range(1, 41))
        ok = True
    finally:
        _report(8, "2-adic valuation <=40", ok)


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_mutation_smoke(monkeypatch):
    ok = False
    try:
        real = en.bivariate_catalan

        def mutated(m, n):
            value = real(m, n)
            return value + 1 if (m, n) == (2, 3) else value

        monkeypatch.setattr(en, "bivariate_catalan", mutated)
        reports = idn.verify_all("small")
        failed = [r for r in reports if not r.passed]
        assert failed, "mutation was not detected by any check"
        for report in failed:
            assert report.counterexample is not None
            assert report.counterexample.left != report.counterexample.right
            assert report.counterexample.params
        ok = True
    finally:
        _report(9, "mutation smoke test", ok)


def _drop_last_cut(left, right, n):
    """The deconcatenation kernel with a planted fault: the proper cut at
    the largest partial sum of each composition is skipped."""
    row = []
    for mask in range(1 << (n - 1)):
        total = 0
        rest = mask & ~(1 << (mask.bit_length() - 1)) if mask else 0
        while rest:
            low = rest & -rest
            s = low.bit_length()
            total += left[s][mask & (low - 1)] * right[n - s][mask >> s]
            rest ^= low
        row.append(total)
    return row


def test_criterion_9_mutation_smoke_kernel(monkeypatch):
    ok = False
    try:
        monkeypatch.setattr(ch, "_proper_cuts", _drop_last_cut)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["decompose", "--degree", "6", "--json"])
        assert code == 1, "planted kernel fault: decompose exited %r" % code
        assert json.loads(out.getvalue())["mismatches"] > 0
        closed = (ch.restrict(ch.ZETA_PLUS, 7), ch.restrict(ch.ZETA_MINUS, 7))
        assert ch.decompose(ch.restrict(ch.ZETA, 7)) != closed
        ok = True
    finally:
        _report(9, "mutation smoke test (kernel)", ok)


def _product_F_tau_sigma_ascent(alpha, beta):
    """Gessel's rule with a planted fault: a letter of tau followed by a
    letter of sigma counts as an ascent."""
    m, n = sum(alpha), sum(beta)
    des_sigma, des_tau = co.to_index(alpha), co.to_index(beta)
    masks = {}
    stack = [(0, 0, 0, False)]
    while stack:
        i, j, mask, after_tau = stack.pop()
        p = i + j
        if p == m + n:
            masks[mask] = masks.get(mask, 0) + 1
            continue
        if i < m:
            descent = not after_tau and i and des_sigma >> (i - 1) & 1
            stack.append((i + 1, j, mask | 1 << (p - 1) if descent else mask, False))
        if j < n:
            descent = after_tau and des_tau >> (j - 1) & 1
            stack.append((i, j + 1, mask | 1 << (p - 1) if descent else mask, True))
    return {co.from_index(m + n, mask): count for mask, count in masks.items()}


def _product_M_no_diagonal(alpha, beta):
    """The quasi-shuffle product with a planted fault: the diagonal step,
    which adds a part of alpha to a part of beta, is dropped."""
    k, l = len(alpha), len(beta)
    row = [{beta[j:]: 1} for j in range(l + 1)]
    for i in range(k - 1, -1, -1):
        prev = row
        row = [None] * l + [{alpha[i:]: 1}]
        for j in range(l - 1, -1, -1):
            out = {}
            for head, tails in (((alpha[i],), prev[j]), ((beta[j],), row[j + 1])):
                for tail, count in tails.items():
                    out[head + tail] = out.get(head + tail, 0) + count
            row[j] = out
    return row[0]


def _from_terms_overwriting(cls, basis, terms):
    """The linear-combination summing routine with a planted fault: a
    repeated key keeps its last coefficient instead of the sum."""
    element = cls.__new__(cls)
    en.LinearCombination.__init__(element, basis, dict(terms))
    return element


def test_criterion_9_mutation_smoke_lincomb(monkeypatch):
    ok = False
    try:
        monkeypatch.setattr(
            en.LinearCombination, "from_terms", classmethod(_from_terms_overwriting)
        )
        failed = _product_check_failures(4)
        # a product of two basis elements has no repeated key, so the fault
        # shows where several products are summed: in multiply_tensor, and in
        # multiply on the F expansions of M basis elements
        for check in ("M coproduct of a product", "F coproduct of a product",
                      "basis change of a product"):
            assert check in failed, failed
        ok = True
    finally:
        _report(9, "mutation smoke test (sums)", ok)


def test_criterion_9_mutation_smoke_f_product(monkeypatch):
    ok = False
    try:
        monkeypatch.setattr(qs, "_product_F", _product_F_tau_sigma_ascent)
        failed = _product_check_failures(4)
        assert "basis change of a product" in failed, failed
        ok = True
    finally:
        _report(9, "mutation smoke test (F product)", ok)


def test_criterion_9_mutation_smoke_m_product(monkeypatch):
    ok = False
    try:
        monkeypatch.setattr(qs, "_product_M", _product_M_no_diagonal)
        failed = _product_check_failures(4)
        assert "basis change of a product" in failed, failed
        ok = True
    finally:
        _report(9, "mutation smoke test (M product)", ok)
