import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_closed_forms
import reference_identities
import reference_oracle as ref
from qsymx import characters as ch
from qsymx import compositions as co
from qsymx import exactnum as en
from qsymx import permutations as pm
from qsymx import qsym as qs

ALL_IDS = list(ch.CHARACTER_IDS) + [ch.zeta_power(m) for m in (-3, -1, 2, 3)]


def comps_up_to(max_degree):
    return [a for n in range(max_degree + 1) for a in co.all_compositions(n)]


def test_eval_M_examples():
    assert ch.eval_M(ch.ZETA_PLUS, (2,)) == 1
    assert ch.eval_M(ch.ZETA_MINUS, (1, 1)) == Fraction(1, 2)
    assert ch.eval_M(ch.ZETA_INV, (2, 1)) == 1
    assert ch.eval_M(ch.zeta_power(2), (1, 1)) == 1
    assert ch.eval_M(ch.ZETA, (3,)) == 1
    assert ch.eval_M(ch.ZETA, (1, 2)) == 0
    assert ch.eval_M(ch.ZETA_PLUS, (3,)) == 0
    assert ch.eval_M(ch.COUNIT, ()) == 1
    assert ch.eval_M(ch.COUNIT, (3,)) == 0


def test_eval_M_value_at_unit():
    for char_id in ALL_IDS:
        assert ch.eval_M(char_id, ()) == 1
        assert ch.eval_F(char_id, ()) == 1


def test_unknown_id():
    with pytest.raises(ValueError):
        ch.eval_M("zeta-bogus", (1,))
    with pytest.raises(ValueError):
        ch.eval_M("zeta-pow:x", (1,))


def test_eval_M_rejects_a_bad_composition():
    for char_id, alpha in ((ch.ZETA, (2.5,)), (ch.ZETA_MINUS, (0, 3)), (ch.ZETA_INV, (-1,)),
                           (ch.ZETA_PLUS, (True, 1))):
        with pytest.raises(ValueError, match="positive integers"):
            ch.eval_M(char_id, alpha)
    assert ch.eval_M(ch.ZETA_MINUS, []) == 1


def test_eval_F_examples():
    assert ch.eval_F(ch.ZETA_MINUS, (2,)) == Fraction(1, 2)
    assert ch.eval_F(ch.ZETA_PLUS, (2,)) == Fraction(1, 2)
    assert ch.eval_F(ch.ZETA_INV, (1, 1, 1)) == -1
    assert ch.eval_F(ch.ZETA_INV, (2, 1)) == 0
    assert ch.eval_F(ch.ZETA, (5,)) == 1


def test_eval_F_rejects_a_bad_composition():
    for alpha in ((2.5,), (0, 2), (True,)):
        with pytest.raises(ValueError):
            ch.eval_F(ch.ZETA, alpha)


def test_eval_element():
    assert ch.eval_element(ch.ZETA, qs.qsym_basis("M", (3,))) == 1
    assert ch.eval_element(ch.ZETA_MINUS, qs.qsym_zero("M")) == 0
    # value of zeta-minus on M_(2) through its F expansion: 1/2 - 1/2 = 0
    x = qs.to_F(qs.qsym_basis("M", (2,)))
    assert ch.eval_element(ch.ZETA_MINUS, x) == 0
    assert ch.eval_M(ch.ZETA_MINUS, (2,)) == 0
    with pytest.raises(TypeError):
        ch.eval_element(ch.ZETA, pm.ssym_basis((2, 1)))


def test_eval_perm_examples():
    assert ch.eval_perm(ch.ZETA_MINUS, (1, 3, 2)) == Fraction(-1, 2)
    for sigma in itertools.permutations((1, 2, 3)):
        assert ch.eval_perm(ch.ZETA_PLUS, sigma) == 0
    assert ch.eval_perm(ch.ZETA_MINUS, (1, 2)) == Fraction(1, 2)
    assert ch.eval_perm(ch.ZETA, (1, 2, 3)) == 1
    assert ch.eval_perm(ch.ZETA, (2, 1, 3)) == 0
    assert ch.eval_perm(ch.ZETA_INV, (3, 2, 1)) == -1


def test_eval_perm_rejects_a_bad_permutation():
    for sigma in ((1, 1), (5, 9, 2), (1.0, 2)):
        with pytest.raises(ValueError):
            ch.eval_perm(ch.ZETA_MINUS, sigma)


def test_restrict_examples():
    eps = ch.restrict(ch.COUNIT, 3)
    for n in range(4):
        for alpha in co.all_compositions(n):
            assert eps.value(alpha) == (1 if alpha == () else 0)
    z = ch.restrict(ch.ZETA, 2)
    assert z.value((1,)) == 1 and z.value((2,)) == 1 and z.value((1, 1)) == 0
    zm = ch.restrict(ch.ZETA_MINUS, 2)
    assert zm.value((1,)) == 1 and zm.value((2,)) == 0
    assert zm.value((1, 1)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        zm.value((3,))


REFERENCE_IDS = list(ch.CHARACTER_IDS) + [ch.zeta_power(m) for m in range(-3, 4)]


@pytest.mark.parametrize("char_id", REFERENCE_IDS)
def test_closed_forms_match_the_per_composition_reference(char_id):
    degree = 10
    assert ch.restrict(char_id, degree).tables == reference_closed_forms.restrict(
        char_id, degree).tables
    for alpha in comps_up_to(degree):
        assert ch.eval_M(char_id, alpha) == reference_closed_forms.eval_M(char_id, alpha)


def test_truncated_character_validation():
    with pytest.raises(ValueError):
        ch.TruncatedCharacter(1, [[Fraction(1)]])
    with pytest.raises(ValueError):
        ch.TruncatedCharacter(1, [[Fraction(1)], [Fraction(1), Fraction(0)]])


def test_truncated_character_rejects_floats():
    with pytest.raises(TypeError):
        ch.TruncatedCharacter(1, [[1.0], [0.1]])
    with pytest.raises(TypeError):
        ch.TruncatedCharacter(1, [[True], [False]])
    exact = ch.TruncatedCharacter(1, [[1], ["1/10"]])
    assert exact.tables == ((Fraction(1),), (Fraction(1, 10),))


def test_truncated_character_rejects_a_non_int_degree():
    # the tables are valid for degrees 2 and 1
    for max_degree, tables in ((2.0, [[1], [1], [1, 1]]), (True, [[1], [1]])):
        with pytest.raises(ValueError, match="non-negative int"):
            ch.TruncatedCharacter(max_degree, tables)


def test_zeta_power_rejects_a_non_int_power():
    for m in (2.5, True, "2"):
        with pytest.raises(ValueError, match="plain int"):
            ch.zeta_power(m)
    assert ch.zeta_power(-2) == "zeta-pow:-2"


def test_convolve_matches_coproduct_route():
    # convolution is evaluation through the coproduct; check the internal
    # deconcatenation sum against the qsym coproduct, term by term
    phi = ch.restrict(ch.ZETA_PLUS, 5)
    psi = ch.restrict(ch.ZETA_MINUS, 5)
    conv = ch.convolve(phi, psi)
    for alpha in comps_up_to(5):
        through_coproduct = Fraction(0)
        for (left, right), c in qs.coproduct(qs.qsym_basis("M", alpha)).coeffs.items():
            through_coproduct += c * phi.value(left) * psi.value(right)
        assert conv.value(alpha) == through_coproduct


def test_decompose_contract_on_generic_character():
    # a character with no closed-form even/odd parts still decomposes into
    # an even times an odd factor
    phi = ch.restrict(ch.zeta_power(3), 6)
    plus, minus = ch.decompose(phi)
    eps = ch.restrict(ch.COUNIT, 6)
    assert ch.convolve(plus, minus) == phi
    assert ch.bar(plus) == plus
    assert ch.convolve(minus, ch.bar(minus)) == eps
    assert ch.convolve(ch.bar(minus), minus) == eps


def test_convolve_examples():
    zp = ch.restrict(ch.ZETA_PLUS, 2)
    zm = ch.restrict(ch.ZETA_MINUS, 2)
    assert ch.convolve(zp, zm).value((1, 1)) == 0
    eps = ch.restrict(ch.COUNIT, 4)
    phi = ch.restrict(ch.ZETA_MINUS, 4)
    assert ch.convolve(eps, phi) == phi
    assert ch.convolve(phi, eps) == phi
    z3 = ch.restrict(ch.ZETA, 3)
    assert ch.convolve(z3, ch.restrict(ch.ZETA_INV, 3)) == ch.restrict(ch.COUNIT, 3)
    with pytest.raises(ValueError):
        ch.convolve(z3, ch.restrict(ch.ZETA, 4))


def test_inverse():
    z = ch.restrict(ch.ZETA, 4)
    assert ch.inverse(z) == ch.restrict(ch.ZETA_INV, 4)
    eps = ch.restrict(ch.COUNIT, 4)
    assert ch.inverse(eps) == eps
    phi = ch.restrict(ch.ZETA_MINUS, 5)
    assert ch.inverse(ch.inverse(phi)) == phi
    bad = ch.TruncatedCharacter(0, [[Fraction(0)]])
    with pytest.raises(ValueError):
        ch.inverse(bad)


def test_bar():
    z = ch.restrict(ch.ZETA, 2)
    assert ch.bar(z).value((1,)) == -1
    phi = ch.restrict(ch.ZETA_MINUS, 5)
    assert ch.bar(ch.bar(phi)) == phi
    zp = ch.restrict(ch.ZETA_PLUS, 4)
    assert ch.bar(zp) == zp
    psi = ch.restrict(ch.ZETA, 4)
    rho = ch.restrict(ch.ZETA_INV, 4)
    assert ch.bar(ch.convolve(rho, psi)) == ch.convolve(ch.bar(rho), ch.bar(psi))


def test_decompose_oracle_equivalence_midsize():
    plus, minus = ch.decompose(ch.restrict(ch.ZETA, 7))
    assert plus == ch.restrict(ch.ZETA_PLUS, 7)
    assert minus == ch.restrict(ch.ZETA_MINUS, 7)


def test_decompose_counit_and_contract():
    eps = ch.restrict(ch.COUNIT, 4)
    assert ch.decompose(eps) == (eps, eps)
    phi = ch.restrict(ch.ZETA, 6)
    plus, minus = ch.decompose(phi)
    assert ch.convolve(plus, minus) == phi
    assert ch.bar(plus) == plus
    assert ch.convolve(minus, ch.bar(minus)) == ch.restrict(ch.COUNIT, 6)
    with pytest.raises(ValueError):
        ch.decompose(ch.TruncatedCharacter(0, [[Fraction(2)]]))


def test_decompose_zeta_inverse():
    plus, minus = ch.decompose(ch.restrict(ch.ZETA_INV, 7))
    assert plus == ch.restrict(ch.ZETA_INV_PLUS, 7)
    assert minus == ch.restrict(ch.ZETA_INV_MINUS, 7)


def test_compose_antipode_and_T():
    z = ch.restrict(ch.ZETA, 4)
    assert ch.compose_antipode(z) == ch.inverse(z)
    zp = ch.restrict(ch.ZETA_PLUS, 4)
    assert ch.compose_T(zp) == zp
    phi = ch.restrict(ch.ZETA_MINUS, 5)
    assert ch.compose_T(ch.compose_T(phi)) == phi


def test_parity_relations():
    n_max = 6
    zm = ch.restrict(ch.ZETA_MINUS, n_max)
    zp = ch.restrict(ch.ZETA_PLUS, n_max)
    assert ch.compose_antipode(zm) == ch.bar(zm)  # zeta-minus is odd
    assert ch.bar(zp) == zp                       # zeta-plus is even
    assert ch.compose_T(zp) == zp
    assert ch.restrict(ch.ZETA_INV_MINUS, n_max) == ch.compose_T(ch.bar(zm))
    assert ch.restrict(ch.ZETA_INV_PLUS, n_max) == ch.inverse(zp)


def test_convolution_group_laws():
    n_max = 6
    eps = ch.restrict(ch.COUNIT, n_max)
    members = [
        ch.restrict(ch.ZETA, n_max),
        ch.restrict(ch.ZETA_PLUS, n_max),
        ch.restrict(ch.ZETA_MINUS, n_max),
        ch.restrict(ch.ZETA_INV, n_max),
    ]
    for phi in members:
        assert ch.convolve(eps, phi) == phi
        assert ch.convolve(phi, eps) == phi
        assert ch.convolve(phi, ch.inverse(phi)) == eps
        assert ch.convolve(ch.inverse(phi), phi) == eps
    for a, b, c in itertools.product(members, repeat=3):
        assert ch.convolve(ch.convolve(a, b), c) == ch.convolve(a, ch.convolve(b, c))


def test_f_m_consistency():
    for char_id in ALL_IDS:
        for alpha in comps_up_to(6):
            expanded = ch.eval_element(char_id, qs.to_M(qs.qsym_basis("F", alpha)))
            assert ch.eval_F(char_id, alpha) == expanded
            # and the other way: pushing an M element into the F basis does
            # not change any character value
            m_elt = qs.qsym_basis("M", alpha)
            assert ch.eval_element(char_id, qs.to_F(m_elt)) == ch.eval_M(char_id, alpha)


def test_multiplicativity_small():
    ids = [ch.ZETA, ch.ZETA_PLUS, ch.ZETA_MINUS, ch.ZETA_INV,
           ch.ZETA_INV_PLUS, ch.ZETA_INV_MINUS]
    comps = comps_up_to(5)
    tables = {char_id: ch.restrict(char_id, 5) for char_id in ids}
    for alpha, beta in itertools.product(comps, repeat=2):
        if sum(alpha) + sum(beta) > 5:
            continue
        product = qs.multiply(qs.qsym_basis("M", alpha), qs.qsym_basis("M", beta))
        for char_id, table in tables.items():
            lhs = sum(
                (c * table.value(gamma) for gamma, c in product.coeffs.items()),
                Fraction(0),
            )
            assert lhs == table.value(alpha) * table.value(beta)


def test_perm_consistency():
    from qsymx.permutations import descent_composition

    for n in range(6):
        for sigma in itertools.permutations(range(1, n + 1)):
            alpha = descent_composition(sigma)
            for char_id in (ch.ZETA, ch.ZETA_MINUS, ch.ZETA_PLUS):
                assert ch.eval_perm(char_id, sigma) == ch.eval_F(char_id, alpha)


def test_h_sums():
    assert ch.h_minus((1,)) == 1
    assert ch.h_minus((2,)) == 0
    assert ch.h_plus((2,)) == 4
    with pytest.raises(ValueError):
        ch.h_plus((2, 1))
    # closed forms on a couple of hand-sized compositions
    assert ch.h_minus((2, 1)) == (-1) ** 2 * 2 ** (3 - 1) * en.bivariate_catalan(0, 0)
    assert ch.h_plus((1, 2, 1)) == 2 ** (4 - 2) * en.bivariate_catalan(1, 0)
    # the empty composition has the one refinement (), with k = 0 and no peak
    assert ch.h_minus(()) == ch.h_plus(()) == -1


def test_h_sums_reject_a_part_that_is_not_a_positive_int():
    for alpha in ((2, 0, 1), (0,), (1.0, 2), (True, 1), (2, -1)):
        for h in (ch.h_minus, ch.h_plus):
            with pytest.raises(ValueError, match="positive integers"):
                h(alpha)


def test_h_sums_match_the_refinement_sum():
    # the walk over unit gaps against the sum over every refinement
    for n in range(13):
        for alpha in co.all_compositions(n):
            assert ch.h_minus(alpha) == reference_identities._h_sum(alpha, co.p_minus, n // 2)
            if n % 2 == 0:
                assert ch.h_plus(alpha) == reference_identities._h_sum(alpha, co.p_plus, n // 2)


def test_h_rows_match_the_per_alpha_sums():
    # the shared-prefix walk against the walk of each composition by itself
    minus, plus = ch._h_rows(12, False), ch._h_rows(12, True)
    assert sorted(minus) == list(range(1, 13)) and sorted(plus) == list(range(2, 13, 2))
    for n in range(1, 13):
        comps = co.all_compositions(n)
        assert minus[n] == [ch.h_minus(alpha) for alpha in comps], n
        if n % 2 == 0:
            assert plus[n] == [ch.h_plus(alpha) for alpha in comps], n
    # and against the sum over every refinement
    for n in range(1, 9):
        for mask, alpha in enumerate(co.all_compositions(n)):
            assert minus[n][mask] == reference_identities._h_sum(alpha, co.p_minus, n // 2)
            if n % 2 == 0:
                assert plus[n][mask] == reference_identities._h_sum(alpha, co.p_plus, n // 2)
    assert all(type(v) is int for rows in (minus, plus) for row in rows.values() for v in row)


def test_zeta_power_values():
    # binomial closed form against the convolution-group definition
    z = ch.restrict(ch.ZETA, 5)
    square = ch.convolve(z, z)
    assert ch.restrict(ch.zeta_power(2), 5) == square
    assert ch.restrict(ch.zeta_power(-2), 5) == ch.inverse(square)
    assert ch.restrict(ch.zeta_power(1), 5) == z
    assert ch.restrict(ch.zeta_power(0), 5) == ch.restrict(ch.COUNIT, 5)
    assert ch.eval_M(ch.zeta_power(-1), (2, 1)) == ch.eval_M(ch.ZETA_INV, (2, 1))


def test_value_rejects_non_compositions():
    phi = ch.restrict(ch.ZETA, 4)
    for bad in [(0,), (0, 2), (-1, 1, 2), (1.5, 0.5), (True, 1)]:
        with pytest.raises(ValueError, match="positive integers"):
            phi.value(bad)


def test_zeta_pow_id_rejects_whitespace():
    with pytest.raises(ValueError, match="plain integer"):
        ch.eval_M("zeta-pow: 3", (1, 1))
    assert ch.eval_M("zeta-pow:-3", (1, 1)) == en.falling_binomial(-3, 2)


def test_decompose_degree_12_matches_closed_forms():
    for char_id in (ch.ZETA, ch.ZETA_INV):
        plus, minus = ch.decompose(ch.restrict(char_id, 12))
        assert plus == ch.restrict(char_id + "-plus", 12)
        assert minus == ch.restrict(char_id + "-minus", 12)


def test_halving_with_remainder_raises(monkeypatch):
    # _halve(row, d, bound) is row / 2d reduced; its denominator must divide
    # bound
    assert ch._halve([-4, 6], 1, 1) == ([-2, 3], 1)
    assert ch._halve([-3], 1, 2) == ([-3], 2)
    assert ch._halve([6, 10], 3, 12) == ([3, 5], 3)
    with pytest.raises(ArithmeticError, match="denominator 2 does not divide 1"):
        ch._halve([4, 3], 1, 1)
    with pytest.raises(ArithmeticError, match="exact halving"):
        ch._halve([1], 2, 2)
    # a quotient off by 1/c^2 in degree 2 (c = 2 for zeta) puts 1/8 into
    # phi_- there, so the square root's halving must fail
    real = ch._quotient_rows

    def off_by_one(a, b):
        rows, denominators = real(a, b)
        c = 2 * math.lcm(*b.denominators)
        d = math.lcm(denominators[2], c * c)
        rows[2] = [v * (d // denominators[2]) for v in rows[2]]
        rows[2][0] += d // (c * c)
        denominators[2] = d
        return rows, denominators

    monkeypatch.setattr(ch, "_quotient_rows", off_by_one)
    halving = "denominator 8 does not divide 4 in an exact halving"
    with pytest.raises(ArithmeticError, match=halving):
        ch.decompose(ch.restrict(ch.ZETA, 4))


def _counting_kernel(monkeypatch):
    """The degrees of the kernel calls made from now on."""
    real = ch._proper_cuts
    calls = []

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(ch, "_proper_cuts", counting)
    return calls


def test_decompose_makes_one_kernel_pass_per_degree_and_operation(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    for degree in (0, 1, 7):
        calls.clear()
        ch.decompose(ch.restrict(ch.ZETA, degree))
        # the quotient, the square root and the product
        assert len(calls) == 3 * degree


def test_convolve_makes_one_kernel_pass_per_degree(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    for left, right in ((ch.ZETA, ch.ZETA), (ch.ZETA_PLUS, ch.ZETA_MINUS)):
        for degree in (0, 1, 7):
            calls.clear()
            ch.convolve(ch.restrict(left, degree), ch.restrict(right, degree))
            assert calls == list(range(1, degree + 1))


def _kernel_rows(rng, kind, n):
    """Integer tables for degrees 0..n-1, as a recursion passes them to the
    kernel for degree n: all zero, sparse with small entries, or dense with
    200-bit signed entries."""
    rows = []
    for m in range(n):
        size = 1 if m == 0 else 1 << (m - 1)
        if kind == "zero":
            rows.append([0] * size)
        elif kind == "sparse":
            rows.append([rng.randint(-5, 5) if rng.random() < 0.2 else 0 for _ in range(size)])
        else:
            rows.append([rng.getrandbits(200) - (1 << 199) for _ in range(size)])
    return rows


def test_block_kernel_matches_the_bit_walk():
    rng = random.Random(13)
    kinds = [("zero", "big"), ("big", "zero"), ("sparse", "big"),
             ("big", "sparse"), ("sparse", "sparse"), ("big", "big")]
    for n in range(1, 15):
        ones = [1] * (n + 1)
        for left_kind, right_kind in kinds:
            left = _kernel_rows(rng, left_kind, n)
            right = _kernel_rows(rng, right_kind, n)
            want = ref.proper_cuts(left, right, n)
            assert ch._proper_cuts(left, right, n, ones) == want, (n, left_kind, right_kind)
            # convolve's cut factors, one positive int per cut
            factors = [rng.randint(1, 1 << rng.choice((1, 8, 64))) for _ in range(n + 1)]
            want = ref.proper_cuts(left, right, n, factors)
            assert ch._proper_cuts(left, right, n, factors) == want, (n, left_kind, right_kind)
        # the square root passes one table as both factors
        assert ch._proper_cuts(left, left, n, ones) == ref.proper_cuts(left, left, n)


def _raise(*args):
    raise AssertionError("the oracle called a closed-form route")


def test_oracle_is_independent_of_the_closed_forms(monkeypatch):
    degree = 8
    zeta = ch.TruncatedCharacter(degree, [
        [1 if mask == 0 else 0 for mask in range(1 << (n - 1))] if n else [1]
        for n in range(degree + 1)
    ])
    with monkeypatch.context() as patch:
        patch.setattr(ch, "eval_M", _raise)
        patch.setattr(ch, "_closed_M", _raise)
        patch.setattr(ch, "eval_F", _raise)
        patch.setattr(en, "bivariate_catalan", _raise)
        plus, minus = ch.decompose(zeta)
        inv = ch.inverse(zeta)
        square = ch.convolve(zeta, zeta)
    assert zeta == ch.restrict(ch.ZETA, degree)
    assert plus == ch.restrict(ch.ZETA_PLUS, degree)
    assert minus == ch.restrict(ch.ZETA_MINUS, degree)
    assert inv == ch.restrict(ch.ZETA_INV, degree)
    assert square == ch.restrict(ch.zeta_power(2), degree)


# -- the integer kernel against the literal Fraction route ---------------------

MAX_DEGREE = 7
VALUES = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def functionals(draw, degree, unit=True):
    """A random functional of the given truncation degree; with unit, its
    value on the empty composition is 1."""
    first = Fraction(1) if unit else draw(VALUES)
    tables = [[first]]
    for n in range(1, degree + 1):
        size = 1 << (n - 1)
        tables.append(draw(st.lists(VALUES, min_size=size, max_size=size)))
    return ch.TruncatedCharacter(degree, tables)


@st.composite
def functional_pairs(draw):
    degree = draw(st.integers(0, MAX_DEGREE))
    return (
        draw(functionals(degree, unit=False)),
        draw(functionals(degree, unit=False)),
    )


KERNEL_SETTINGS = settings(max_examples=40, deadline=None)


@KERNEL_SETTINGS
@given(st.integers(0, MAX_DEGREE).flatmap(lambda n: functionals(n, unit=False)))
def test_truncated_character_round_trips_its_values(phi):
    tables = phi.tables
    assert all(type(v) is Fraction for row in tables for v in row)
    assert ch.TruncatedCharacter(phi.max_degree, tables) == phi
    for n in range(phi.max_degree + 1):
        for mask, alpha in enumerate(co.all_compositions(n)):
            assert phi.value(alpha) == tables[n][mask]
    # every row is in lowest terms, so equal values give equal rows
    for row, d in zip(phi.numerators, phi.denominators):
        assert d >= 1 and math.gcd(d, *row) == 1
        assert d == math.lcm(*(Fraction(v, d).denominator for v in row))


@KERNEL_SETTINGS
@given(st.integers(0, MAX_DEGREE).flatmap(lambda n: functionals(n, unit=False)))
def test_equal_values_give_equal_characters(phi):
    degree = phi.max_degree
    counit = ch.restrict(ch.COUNIT, degree)
    # the kernel puts each degree over one lcm of denominator products and
    # reduces on exit
    from_kernel = ch.convolve(phi, counit)
    assert from_kernel == phi == ch.convolve(counit, phi)
    assert from_kernel.numerators == phi.numerators
    assert from_kernel.denominators == phi.denominators
    assert ch.bar(ch.bar(phi)) == phi
    # and the same values given as Fractions or as "p/q" strings
    assert ch.TruncatedCharacter(degree, from_kernel.tables) == phi
    texts = [[str(v) for v in row] for row in phi.tables]
    assert ch.TruncatedCharacter(degree, texts) == phi


@KERNEL_SETTINGS
@given(functional_pairs())
def test_convolve_matches_reference(pair):
    phi, psi = pair
    assert ch.convolve(phi, psi) == ref.convolve(phi, psi)


def _seeded_functional(rng, degree):
    """A functional with phi(1) = 1 and values p/q, p in -9..9, q in 1..7."""
    tables = [[1]] + [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(1 << (n - 1))]
        for n in range(1, degree + 1)
    ]
    return ch.TruncatedCharacter(degree, tables)


def _longest(*characters):
    """The bit length of the longest numerator of the characters."""
    return max(abs(v).bit_length() for x in characters for row in x.numerators for v in row)


def test_convolve_keeps_growing_denominators_out_of_the_kernel(monkeypatch):
    # the parts of a non-dyadic functional have denominators that grow with
    # the degree; the oracle hands the kernel reduced rows over per-degree
    # denominators, so no int it passes is longer than the longest
    # numerator of the characters it reads and solves for
    real = ch._proper_cuts
    seen = []

    def recording(left, right, n, factors):
        ints = [v for rows in (left, right) for row in rows[1:n] for v in row]
        seen.append(max((abs(v).bit_length() for v in ints + factors[1:n]), default=0))
        return real(left, right, n, factors)

    def kernel_bits(operation, *args):
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ch, "_proper_cuts", recording)
            result = operation(*args)
        return result, max(seen, default=0)

    rng = random.Random(20)
    for degree in (1, 2, 5, 8, 8, 10):
        phi = _seeded_functional(rng, degree)
        (plus, minus), decompose_bits = kernel_bits(ch.decompose, phi)
        inverse, inverse_bits = kernel_bits(ch.inverse, phi)
        square = ch.convolve(ch.inverse(ch.bar(phi)), phi)
        longest = _longest(phi, inverse, square, plus, minus)
        assert decompose_bits <= longest, (degree, decompose_bits, longest)
        assert inverse_bits <= longest, (degree, inverse_bits, longest)
        for left, right in ((plus, minus), (ch.bar(minus), minus)):
            product, bits = kernel_bits(ch.convolve, left, right)
            assert product == ref.convolve(left, right)
            assert bits <= _longest(left, right), (degree, bits)
        assert ch.convolve(plus, minus) == phi
        assert ch.convolve(ch.bar(minus), minus) == ch.restrict(ch.COUNIT, degree)
        assert ch.convolve(inverse, phi) == ch.restrict(ch.COUNIT, degree)
        assert ch.convolve(minus, minus) == square


def test_oracle_rows_are_reduced():
    # _from_rows stores rows as given, so every producer must leave each
    # degree in lowest terms
    def assert_reduced(phi):
        for row, d in zip(phi.numerators, phi.denominators):
            assert d >= 1 and math.gcd(d, *row) == 1, (row, d)

    rng = random.Random(7)
    seeded = [_seeded_functional(rng, degree) for degree in (0, 1, 3, 6, 8)]
    canonical = [ch.restrict(c, 8) for c in ch.CHARACTER_IDS + (ch.zeta_power(-2),)]
    for phi in canonical:
        assert_reduced(phi)
        assert_reduced(ch.bar(phi))
    # numerators that cancel against the other side's denominators, in
    # degree 0 too
    left = ch.TruncatedCharacter(2, [[2], [2], [Fraction(3, 2), 6]])
    right = ch.TruncatedCharacter(2, [[Fraction(1, 2)], [Fraction(3, 2)], [1, Fraction(2, 3)]])
    assert_reduced(ch.convolve(left, right))
    for phi in seeded + [canonical[0], canonical[3]]:
        assert_reduced(ch.inverse(phi))
        for part in ch.decompose(phi):
            assert_reduced(part)
        for psi in (phi, ch.bar(phi), ch.inverse(phi)):
            assert_reduced(ch.convolve(phi, psi))


def test_truncated_character_takes_ints_as_they_are():
    rng = random.Random(5)
    degree = 6
    ints = [[rng.randint(-9, 9) for _ in range(1 if n == 0 else 1 << (n - 1))]
            for n in range(degree + 1)]
    phi = ch.TruncatedCharacter(degree, ints)
    assert phi.denominators == (1,) * (degree + 1)
    assert phi.numerators == tuple(map(tuple, ints))
    for same in ([[Fraction(v) for v in row] for row in ints],
                 [["%d/1" % v for v in row] for row in ints],
                 [[str(2 * v) + "/2" for v in row] for row in ints]):
        other = ch.TruncatedCharacter(degree, same)
        assert (other.numerators, other.denominators) == (phi.numerators, phi.denominators)
    assert all(type(v) is Fraction for row in phi.tables for v in row)
    assert phi.tables == tuple(tuple(Fraction(v) for v in row) for row in ints)
    # ints mixed with other values share one denominator per row
    mixed = ch.TruncatedCharacter(2, [[1], [Fraction(1, 2)], [3, "1/3"]])
    assert mixed.numerators == ((1,), (1,), (9, 1))
    assert mixed.denominators == (1, 2, 3)
    # a bool or a float anywhere in a row is still refused
    for bad in (True, 1.0, False, 0.5):
        for n in range(1, degree + 1):
            tables = [list(row) for row in ints]
            tables[n][-1] = bad
            with pytest.raises(TypeError):
                ch.TruncatedCharacter(degree, tables)
        with pytest.raises(TypeError):
            ch.TruncatedCharacter(0, [[bad]])


@KERNEL_SETTINGS
@given(st.integers(0, MAX_DEGREE).flatmap(functionals))
def test_inverse_matches_reference(phi):
    assert ch.inverse(phi) == ref.inverse(phi)


@KERNEL_SETTINGS
@given(st.integers(0, MAX_DEGREE).flatmap(functionals))
def test_decompose_matches_reference(phi):
    assert ch.decompose(phi) == ref.decompose(phi)
