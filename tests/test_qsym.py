import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_qsym as ref
from qsymx import compositions as co
from qsymx import permutations as pm
from qsymx import qsym as qs


def basis_elements(max_degree, basis):
    return [
        qs.qsym_basis(basis, alpha)
        for n in range(max_degree + 1)
        for alpha in co.all_compositions(n)
    ]


def comps_up_to(max_degree):
    return [a for n in range(max_degree + 1) for a in co.all_compositions(n)]


def assert_fraction_valued(x):
    """Every stored coefficient is a nonzero Fraction, never an int."""
    assert all(type(v) is Fraction and v for v in x.coeffs.values()), x.coeffs


def apply_antipode_convolution(x, side):
    """sum S(x1) x2 or x1 S(x2) over the coproduct terms of x."""
    total = qs.qsym_zero(x.basis)
    for (left, right), c in qs.coproduct(x).coeffs.items():
        l_elt = qs.qsym_basis(x.basis, left)
        r_elt = qs.qsym_basis(x.basis, right)
        if side == "left":
            total = total + c * qs.multiply(qs.antipode(l_elt), r_elt)
        else:
            total = total + c * qs.multiply(l_elt, qs.antipode(r_elt))
    return total


def coproduct_then(tensor, which):
    """Flatten (coproduct x id) or (id x coproduct) of a tensor into a dict
    over triples."""
    out = {}
    for (left, right), c in tensor.coeffs.items():
        inner = qs.coproduct(qs.qsym_basis(tensor.basis, left if which == "left" else right))
        for (a, b), d in inner.coeffs.items():
            key = (a, b, right) if which == "left" else (left, a, b)
            out[key] = out.get(key, Fraction(0)) + c * d
    return {k: v for k, v in out.items() if v}


def test_element_construction_and_arithmetic():
    x = qs.qsym_basis("M", (2, 1), 2)
    y = qs.qsym_basis("M", (2, 1), -2)
    assert not (x + y).coeffs
    assert not (x - x).coeffs
    z = qs.qsym_basis("F", (1,))
    tx, tz = qs.coproduct(x), qs.coproduct(z)
    for op in (lambda: x + z, lambda: x - z, lambda: qs.multiply(x, z),
               lambda: tx + tz, lambda: tx - tz, lambda: qs.multiply_tensor(tx, tz)):
        with pytest.raises(ValueError, match="mixed-basis"):
            op()
    with pytest.raises(ValueError):
        qs.QSymElement("G", {})
    with pytest.raises(ValueError):
        qs.TensorElement("G", {})


def test_arithmetic_across_element_classes_raises_type_error():
    # F_1 + M_1 gave SSym(2*F_1), and M_1 + 1 raised AttributeError
    f = pm.ssym_basis((1,))
    m = qs.qsym_basis("M", (1,))
    t = qs.coproduct(m)
    for x, y in [(f, m), (m, f), (m, t), (t, m), (t, f)]:
        for op in (lambda: x + y, lambda: x - y, lambda: x * y):
            with pytest.raises(TypeError):
                op()
        assert x != y
    for x in (f, m, t):
        for other in (1, Fraction(1, 2)):
            with pytest.raises(TypeError):
                x + other
            with pytest.raises(TypeError):
                x - other
        assert x != 1
    # a permutation-algebra element is not a QSym element, nor the reverse,
    # even where the keys would pass for compositions or permutations
    s = pm.ssym_basis((2, 1))
    for op in (qs.to_F, qs.to_M, qs.format_element, qs.element_to_json):
        with pytest.raises(TypeError):
            op(s)
    with pytest.raises(TypeError):
        qs.descent_map(m)


def test_tensor_element_is_hashable():
    s = qs.coproduct(qs.qsym_basis("F", (2, 1)))
    t = qs.coproduct(qs.qsym_basis("F", (2, 1)))
    assert hash(s) == hash(t)
    assert len({s, t, s.swap()}) == 2


TENSOR_UNIT = qs.TensorElement("M", {((), ()): 1})
SSYM_UNIT = pm.ssym_basis(())


def test_counit_rejects_other_classes():
    for x in (TENSOR_UNIT, SSYM_UNIT):
        with pytest.raises(TypeError, match="expected a QSymElement"):
            qs.counit(x)


def test_coproduct_rejects_other_classes():
    for x in (TENSOR_UNIT, SSYM_UNIT):
        with pytest.raises(TypeError, match="expected a QSymElement"):
            qs.coproduct(x)


def test_antipode_rejects_other_classes():
    for x in (TENSOR_UNIT, SSYM_UNIT):
        with pytest.raises(TypeError, match="expected a QSymElement"):
            qs.antipode(x)


def test_t_involution_rejects_other_classes():
    for x in (TENSOR_UNIT, SSYM_UNIT):
        with pytest.raises(TypeError, match="expected a QSymElement"):
            qs.t_involution(x)


def test_multiply_rejects_other_classes():
    for x in (TENSOR_UNIT, SSYM_UNIT):
        with pytest.raises(TypeError, match="expected a QSymElement"):
            qs.multiply(x, x)


def test_multiply_tensor_rejects_other_classes():
    m1 = qs.qsym_basis("M", (1,))
    for x in (m1, SSYM_UNIT):
        with pytest.raises(TypeError, match="expected a TensorElement"):
            qs.multiply_tensor(x, x)


def test_basis_rejects_non_integer_parts():
    with pytest.raises(ValueError, match="positive integers"):
        qs.qsym_basis("M", [2.5])


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        qs.qsym_basis("M", (1,), 0.5)
    with pytest.raises(TypeError):
        qs.QSymElement("M", {(1,): 0.25})
    with pytest.raises(TypeError):
        0.5 * qs.qsym_basis("M", (1,))
    with pytest.raises(TypeError):
        pm.SSymElement({(1,): 0.5})
    # a bool is an int to Fraction, but never a coefficient
    with pytest.raises(TypeError):
        qs.QSymElement("M", {(1,): True})
    with pytest.raises(TypeError):
        qs.element_from_json({"basis": "M", "terms": [{"comp": [1], "coeff": True}]})
    # exact strings and Fractions are fine
    assert qs.qsym_basis("M", (1,), "3/2").coeffs == {(1,): Fraction(3, 2)}


def test_basis_change_examples():
    assert qs.to_M(qs.qsym_basis("F", (2,))) == qs.QSymElement(
        "M", {(2,): 1, (1, 1): 1}
    )
    assert qs.to_F(qs.qsym_basis("M", (2,))) == qs.QSymElement(
        "F", {(2,): 1, (1, 1): -1}
    )
    assert qs.to_F(qs.qsym_basis("M", (1,))) == qs.qsym_basis("F", (1,))


def test_basis_change_round_trip():
    for x in basis_elements(6, "M"):
        assert qs.to_M(qs.to_F(x)) == x
    for x in basis_elements(6, "F"):
        assert qs.to_F(qs.to_M(x)) == x


def test_multiply_examples():
    m1 = qs.qsym_basis("M", (1,))
    assert qs.multiply(m1, m1) == qs.QSymElement("M", {(1, 1): 2, (2,): 1})
    one = qs.qsym_one("M")
    x = qs.QSymElement("M", {(2, 1): 3, (1,): Fraction(1, 2)})
    assert qs.multiply(one, x) == x and qs.multiply(x, one) == x
    f1 = qs.qsym_basis("F", (1,))
    assert qs.multiply(f1, f1) == qs.QSymElement("F", {(1, 1): 1, (2,): 1})


def test_multiply_matches_path_expansion():
    # the product really is the sum over labelled Delannoy paths
    for alpha in [(2,), (1, 1), (2, 1)]:
        for beta in [(1,), (3,), (1, 2)]:
            expected = {}
            for path in co.delannoy_paths(len(alpha), len(beta)):
                gamma = co.quasi_shuffle(alpha, beta, path)
                expected[gamma] = expected.get(gamma, 0) + 1
            got = qs.multiply(qs.qsym_basis("M", alpha), qs.qsym_basis("M", beta))
            assert got == qs.QSymElement("M", expected)


def test_multiply_matches_reference_on_every_basis_pair():
    comps = comps_up_to(8)
    for basis in ("M", "F"):
        for a, b in itertools.product(comps, repeat=2):
            if sum(a) + sum(b) > 8:
                continue
            x, y = qs.qsym_basis(basis, a), qs.qsym_basis(basis, b)
            assert qs.multiply(x, y) == ref.multiply(x, y), (basis, a, b)


# -- products of linear combinations against the reference route ---------------

PRODUCT_WEIGHT = 7
COEFFS = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=7))


def tensor_keys_up_to(max_degree):
    return [
        (l, r) for l in comps_up_to(max_degree) for r in comps_up_to(max_degree - sum(l))
    ]


@st.composite
def same_basis_pairs(draw, build, keys_up_to):
    """Two operands build(basis, terms) in one basis, with at most three
    terms each, drawn from keys_up_to(weight) with integer and non-integer
    coefficients, whose product has weight at most PRODUCT_WEIGHT."""
    basis = draw(st.sampled_from("MF"))
    w1 = draw(st.integers(0, PRODUCT_WEIGHT))
    w2 = draw(st.integers(0, PRODUCT_WEIGHT - w1))
    return tuple(
        build(
            basis,
            draw(st.dictionaries(st.sampled_from(keys_up_to(w)), COEFFS, max_size=3)),
        )
        for w in (w1, w2)
    )


PRODUCT_SETTINGS = settings(max_examples=40, deadline=None)


@PRODUCT_SETTINGS
@given(same_basis_pairs(qs.QSymElement, comps_up_to))
def test_multiply_matches_reference(pair):
    x, y = pair
    product = qs.multiply(x, y)
    assert product == ref.multiply(x, y)
    assert_fraction_valued(product)


@PRODUCT_SETTINGS
@given(same_basis_pairs(qs.TensorElement, tensor_keys_up_to))
def test_multiply_tensor_matches_reference(pair):
    s, t = pair
    product = qs.multiply_tensor(s, t)
    assert product == ref.multiply_tensor(s, t)
    assert_fraction_valued(product)


def test_product_F_matches_the_shuffle_definition():
    # the definition itself, not the basis change the reference route uses
    comps = comps_up_to(8)
    for a, b in itertools.product(comps, repeat=2):
        if sum(a) + sum(b) > 8:
            continue
        sigma, tau = ref.with_descent_composition(a), ref.with_descent_composition(b)
        assert (pm.descent_composition(sigma), pm.descent_composition(tau)) == (a, b)
        assert qs._product_F(a, b) == Counter(
            pm.descent_composition(w) for w in pm.shuffles(sigma, tau)
        ), (a, b)


# -- coefficients stay Fractions, with int sums inside the producers ----------

HALF = Fraction(1, 2)
OPERANDS = [
    qs.qsym_basis("M", (2, 1), 3),  # integral
    qs.QSymElement("M", {(1,): HALF, (2,): Fraction(-3, 4)}),  # non-integral
    qs.QSymElement("M", {(1,): HALF, (2,): 1, (1, 1): -2, (): 5}),  # mixed
]


@pytest.mark.parametrize("x", OPERANDS, ids=["integral", "non-integral", "mixed"])
def test_producers_keep_coefficients_fractions(x):
    y = qs.QSymElement("M", {(1,): 2, (1, 2): HALF})
    for basis in ("M", "F"):
        u = x if basis == "M" else qs.to_F(x)
        v = y if basis == "M" else qs.to_F(y)
        outputs = [
            u, qs.multiply(u, v), qs.multiply(u, u), qs.coproduct(u),
            qs.multiply_tensor(qs.coproduct(u), qs.coproduct(v)), qs.antipode(u),
            qs.to_F(u), qs.to_M(u), qs.t_involution(u), u + v, u - v, -u,
            3 * u, HALF * u, Fraction(2) * u,
        ]
        for out in outputs:
            assert_fraction_valued(out)
    s = pm.SSymElement({(2, 1): x.coeffs.get((1,), 1), (1, 2): 3})
    for out in (pm.multiply_ssym(s, s), qs.descent_map(s), s + s, HALF * s):
        assert_fraction_valued(out)


def test_integral_sums_and_cancellations():
    half_m1 = qs.qsym_basis("M", (1,), HALF)
    whole = half_m1 + half_m1
    assert whole.coeffs == {(1,): 1}
    assert_fraction_valued(whole)
    # terms that cancel drop their key, from int and from Fraction sums
    x = qs.QSymElement("M", {(1,): HALF, (2,): 1, (1, 1): 3})
    y = qs.QSymElement("M", {(1,): -HALF, (2,): -1, (3,): HALF})
    assert (x + y).coeffs == {(1, 1): 3, (3,): HALF}
    assert_fraction_valued(x + y)
    assert (x - x).coeffs == {}
    # F_1 F_1 - F_2 leaves F_1,1 alone
    f1 = qs.qsym_basis("F", (1,))
    assert (qs.multiply(f1, f1) - qs.qsym_basis("F", (2,))).coeffs == {(1, 1): 1}


def test_bad_keys_still_raise():
    for bad in ([0], [1.5], [True]):
        with pytest.raises(ValueError, match="positive integers"):
            qs.element_from_json({"basis": "M", "terms": [{"comp": bad, "coeff": 1}]})
    with pytest.raises(ValueError, match="basis must be"):
        qs.element_from_json({"basis": "X", "terms": [{"comp": [1], "coeff": 1}]})
    with pytest.raises(ValueError, match="not a permutation"):
        pm.SSymElement({(1, 1): 1})


def test_tensor_rejects_non_compositions():
    for bad in [((0,), (1,)), ((1,), (2.5,)), ((1.0,), ())]:
        with pytest.raises(ValueError, match="positive integers"):
            qs.TensorElement("M", {bad: 1})


def test_multiply_commutative_associative():
    comps = comps_up_to(4)
    for basis in ("M", "F"):
        for a, b in itertools.product(comps, repeat=2):
            if sum(a) + sum(b) > 4:
                continue
            x, y = qs.qsym_basis(basis, a), qs.qsym_basis(basis, b)
            assert qs.multiply(x, y) == qs.multiply(y, x)
        for a, b, c in itertools.product(comps, repeat=3):
            if sum(a) + sum(b) + sum(c) > 4:
                continue
            x, y, z = (qs.qsym_basis(basis, t) for t in (a, b, c))
            assert qs.multiply(qs.multiply(x, y), z) == qs.multiply(x, qs.multiply(y, z))


def test_coproduct_examples():
    tensor = qs.coproduct(qs.qsym_basis("M", (2, 1)))
    assert tensor.coeffs == {
        ((), (2, 1)): 1,
        ((2,), (1,)): 1,
        ((2, 1), ()): 1,
    }
    tensor = qs.coproduct(qs.qsym_basis("F", (2,)))
    assert tensor.coeffs == {
        ((), (2,)): 1,
        ((1,), (1,)): 1,
        ((2,), ()): 1,
    }
    assert qs.coproduct(qs.qsym_one("M")).coeffs == {((), ()): 1}


def test_counit():
    assert qs.counit(qs.qsym_one("M")) == 1
    assert qs.counit(qs.qsym_basis("M", (3,))) == 0
    x = qs.qsym_basis("F", (1,)) + 2 * qs.qsym_one("F")
    assert qs.counit(x) == 2


def test_counit_compatibility():
    for basis in ("M", "F"):
        for x in basis_elements(5, basis):
            tensor = qs.coproduct(x)
            left = qs.qsym_zero(basis)
            right = qs.qsym_zero(basis)
            for (l, r), c in tensor.coeffs.items():
                if l == ():
                    left = left + c * qs.qsym_basis(basis, r)
                if r == ():
                    right = right + c * qs.qsym_basis(basis, l)
            assert left == x and right == x


def test_coassociativity():
    for basis in ("M", "F"):
        for x in basis_elements(5, basis):
            tensor = qs.coproduct(x)
            assert coproduct_then(tensor, "left") == coproduct_then(tensor, "right")


def test_product_coproduct_compatibility():
    comps = comps_up_to(4)
    for basis in ("M", "F"):
        for a, b in itertools.product(comps, repeat=2):
            if sum(a) + sum(b) > 4:
                continue
            x, y = qs.qsym_basis(basis, a), qs.qsym_basis(basis, b)
            lhs = qs.coproduct(qs.multiply(x, y))
            rhs = qs.multiply_tensor(qs.coproduct(x), qs.coproduct(y))
            assert lhs == rhs


def test_antipode_examples():
    for n in range(1, 6):
        assert qs.antipode(qs.qsym_basis("M", (n,))) == -qs.qsym_basis("M", (n,))
    assert qs.antipode(qs.qsym_basis("F", (1, 1))) == qs.qsym_basis("F", (2,))
    assert qs.antipode(qs.qsym_basis("M", (1, 1))) == qs.QSymElement(
        "M", {(1, 1): 1, (2,): 1}
    )


def test_antipode_axiom_and_involutivity():
    for basis in ("M", "F"):
        for x in basis_elements(5, basis):
            eps = qs.counit(x) * qs.qsym_one(basis)
            assert apply_antipode_convolution(x, "left") == eps
            assert apply_antipode_convolution(x, "right") == eps
            assert qs.antipode(qs.antipode(x)) == x


def test_basis_change_commutes_with_structure():
    comps = comps_up_to(4)
    for x in basis_elements(5, "M"):
        assert qs.to_F(qs.antipode(x)) == qs.antipode(qs.to_F(x))
        lhs = {
            (l, r): c
            for (l, r), c in qs.coproduct(x).coeffs.items()
        }
        # push the M coproduct through to_F componentwise
        pushed = {}
        for (l, r), c in lhs.items():
            for la, ca in qs.to_F(qs.qsym_basis("M", l)).coeffs.items():
                for rb, cb in qs.to_F(qs.qsym_basis("M", r)).coeffs.items():
                    key = (la, rb)
                    pushed[key] = pushed.get(key, Fraction(0)) + c * ca * cb
        pushed = {k: v for k, v in pushed.items() if v}
        assert pushed == qs.coproduct(qs.to_F(x)).coeffs
    for a, b in itertools.product(comps, repeat=2):
        if sum(a) + sum(b) > 4:
            continue
        x, y = qs.qsym_basis("M", a), qs.qsym_basis("M", b)
        assert qs.to_F(qs.multiply(x, y)) == qs.multiply(qs.to_F(x), qs.to_F(y))


def test_t_involution():
    assert qs.t_involution(qs.qsym_basis("F", (1, 2))) == qs.qsym_basis("F", (2, 1))
    comps = comps_up_to(6)
    for basis in ("M", "F"):
        for x in basis_elements(6, basis):
            assert qs.t_involution(qs.t_involution(x)) == x
            # coalgebra antimorphism: (T x T) o swap o coproduct = coproduct o T
            swapped = qs.coproduct(x).swap()
            mapped = {}
            for (l, r), c in swapped.coeffs.items():
                key = (co.reversal(l), co.reversal(r))
                mapped[key] = mapped.get(key, Fraction(0)) + c
            assert mapped == qs.coproduct(qs.t_involution(x)).coeffs
    for basis in ("M", "F"):
        for a, b in itertools.product(comps, repeat=2):
            if sum(a) + sum(b) > 6:
                continue
            x, y = qs.qsym_basis(basis, a), qs.qsym_basis(basis, b)
            assert qs.t_involution(qs.multiply(x, y)) == qs.multiply(
                qs.t_involution(x), qs.t_involution(y)
            )


def test_descent_map():
    assert qs.descent_map(pm.ssym_basis((3, 1, 2, 5, 4, 6))) == qs.qsym_basis(
        "F", (1, 3, 2)
    )
    assert qs.descent_map(pm.ssym_basis(())) == qs.qsym_one("F")
    product = pm.multiply_ssym(pm.ssym_basis((1, 2)), pm.ssym_basis((3, 1, 2)))
    image = qs.descent_map(product)
    assert sum(image.coeffs.values()) == 10


def test_descent_map_is_algebra_morphism():
    words = [()] + [
        s for n in range(1, 7) for s in itertools.permutations(range(1, n + 1))
    ]
    for a in words:
        for b in words:
            if len(a) + len(b) > 6:
                continue
            x, y = pm.ssym_basis(a), pm.ssym_basis(b)
            assert qs.descent_map(pm.multiply_ssym(x, y)) == qs.multiply(
                qs.descent_map(x), qs.descent_map(y)
            )


def test_format_element():
    x = qs.QSymElement("M", {(2, 1): Fraction(3, 2), (1, 1): -1, (3,): 1})
    assert qs.format_element(x) == "-M[1,1] + M[3] + 3/2*M[2,1]"
    assert qs.format_element(qs.qsym_zero("F")) == "0"
    assert qs.format_element(qs.qsym_one("M")) == "M[]"


def test_element_from_json_is_exact():
    # {"coeff": 0.1} was stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        qs.element_from_json({"basis": "M", "terms": [{"comp": [1], "coeff": 0.1}]})
    with pytest.raises(ValueError):
        qs.element_from_json({"basis": "G", "terms": []})
    repeated = [{"comp": [1], "coeff": "1/2"}, {"comp": [1], "coeff": 1}]
    assert qs.element_from_json({"basis": "M", "terms": repeated}) == qs.qsym_basis(
        "M", (1,), "3/2"
    )


def test_json_round_trip():
    x = qs.QSymElement("F", {(2, 1): Fraction(3, 2), (1, 1, 1): -2, (): 1})
    blob = json.dumps(qs.element_to_json(x))
    assert qs.element_from_json(json.loads(blob)) == x
    for basis in ("M", "F"):
        for y in basis_elements(4, basis):
            assert qs.element_from_json(qs.element_to_json(y)) == y
