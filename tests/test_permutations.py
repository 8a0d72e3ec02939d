import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

import reference_qsym as ref
from qsymx import compositions as co
from qsymx import permutations as pm
from qsymx.exactnum import binomial, multinomial


def test_permutation_validation():
    assert pm.permutation((3, 1, 2)) == (3, 1, 2)
    assert pm.permutation(()) == ()
    with pytest.raises(ValueError):
        pm.permutation((1, 3))
    with pytest.raises(ValueError):
        pm.permutation((1, 1, 2))


def test_permutation_rejects_non_integer_letters():
    for bad in ([1.0, 2.9], [1.0, 2.0], ["1"]):
        with pytest.raises(ValueError, match="integers"):
            pm.permutation(bad)


def test_parse_and_format():
    assert pm.parse_permutation("312546") == (3, 1, 2, 5, 4, 6)
    assert pm.parse_permutation("3,1,2") == (3, 1, 2)
    assert pm.parse_permutation("()") == ()
    assert pm.format_permutation((3, 1, 2)) == "312"
    long = tuple(range(1, 12))
    assert pm.parse_permutation(pm.format_permutation(long)) == long


def test_descent_composition():
    assert pm.descent_composition((3, 1, 2, 5, 4, 6)) == (1, 3, 2)
    for n in range(1, 7):
        identity = tuple(range(1, n + 1))
        assert pm.descent_composition(identity) == (n,)
        assert pm.descent_composition(identity[::-1]) == (1,) * n
    assert pm.descent_composition(()) == ()


def test_peak_sets_examples():
    interior, augmented = pm.peak_sets((3, 1, 2, 5, 4, 6))
    assert interior == {4} and augmented == {1, 4}
    for n in range(2, 7):
        interior, augmented = pm.peak_sets(tuple(range(1, n + 1)))
        assert interior == set() and augmented == set()
    interior, augmented = pm.peak_sets((1, 3, 2))
    assert interior == {2} and augmented == {2}


def test_peak_counts_match_sets():
    for n in range(7):
        for sigma in itertools.permutations(range(1, n + 1)):
            interior, augmented = pm.peak_sets(sigma)
            assert pm.interior_peaks(sigma) == len(interior)
            assert pm.augmented_peaks(sigma) == len(augmented)


def test_peaks_only_depend_on_descents():
    for n in range(8):
        by_descents = {}
        for sigma in itertools.permutations(range(1, n + 1)):
            key = pm.descent_composition(sigma)
            peaks = pm.peak_sets(sigma)
            assert by_descents.setdefault(key, peaks) == peaks


def test_peak_descent_compatibility():
    for n in range(8):
        for sigma in itertools.permutations(range(1, n + 1)):
            alpha = pm.descent_composition(sigma)
            assert pm.interior_peaks(sigma) == co.p_minus(alpha)
            assert pm.augmented_peaks(sigma) == co.p_plus(alpha)


def test_descent_classes_examples():
    assert list(pm.descent_classes(0)) == [((), 1)]
    assert list(pm.descent_classes(1)) == [((1,), 1)]
    # runs of lengths 2, 1, 3 on the value blocks {5, 6}, {4}, {1, 2, 3}
    classes = list(pm.descent_classes(6))
    assert classes[co.to_index((2, 1, 3))][0] == (5, 6, 4, 1, 2, 3)


def test_descent_classes_against_all_of_s_n():
    # the slow route, enumerating S_n, stays as the oracle of the census
    for n in range(10):
        classes = list(pm.descent_classes(n))
        assert len(classes) == len(co.all_compositions(n))
        for mask, (sigma, _) in enumerate(classes):
            assert pm.permutation(sigma) == sigma
            assert pm.descent_set(sigma) == {i for i in range(1, n) if mask >> (i - 1) & 1}
        assert sum(count for _, count in classes) == math.factorial(n)
        for peaks in (pm.interior_peaks, pm.augmented_peaks):
            census = Counter()
            for sigma, count in classes:
                census[peaks(sigma)] += count
            assert census == Counter(map(peaks, itertools.permutations(range(1, n + 1))))


def test_mask_pass_signed_sub_masks_count_descent_classes():
    # Moebius inversion of the multinomials counts the permutations with
    # each descent set, here against a census of S_n by enumeration
    for n in range(8):
        comps = co.all_compositions(n)
        census = Counter(map(pm.descent_composition, itertools.permutations(range(1, n + 1))))
        counts = co._mask_pass([multinomial(alpha) for alpha in comps], n, False, -1)
        assert counts == [census[alpha] for alpha in comps]
        assert counts == [count for _, count in pm.descent_classes(n)]


def test_descent_classes_rejects_bad_n():
    for n in (True, 2.0, -1):
        with pytest.raises(ValueError, match="non-negative int"):
            list(pm.descent_classes(n))


def test_shuffles_of_12_and_312():
    got = set(pm.shuffles((1, 2), (3, 1, 2)))
    expected = {
        (1, 2, 5, 3, 4),
        (1, 5, 2, 3, 4),
        (1, 5, 3, 2, 4),
        (1, 5, 3, 4, 2),
        (5, 1, 2, 3, 4),
        (5, 1, 3, 2, 4),
        (5, 1, 3, 4, 2),
        (5, 3, 1, 2, 4),
        (5, 3, 1, 4, 2),
        (5, 3, 4, 1, 2),
    }
    assert got == expected


def test_shuffles_cardinality_and_distinctness():
    assert pm.shuffles((), (2, 1)) == [(2, 1)]
    assert len(pm.shuffles((1, 2), (1, 2))) == 6
    for n in range(5):
        for m in range(5):
            sigma = tuple(range(1, n + 1))
            tau = tuple(range(1, m + 1))
            result = pm.shuffles(sigma, tau)
            assert len(result) == binomial(n + m, n)
            assert len(set(result)) == len(result)
            for rho in result:
                assert pm.permutation(rho) == rho


def test_shuffles_match_the_recursive_merge():
    # the same list, in the same order, for every sigma and tau of size <= 4
    perms = [sigma for n in range(5) for sigma in itertools.permutations(range(1, n + 1))]
    for sigma in perms:
        for tau in perms:
            assert pm.shuffles(sigma, tau) == ref.shuffles(sigma, tau), (sigma, tau)


HALF = Fraction(1, 2)
SSYM_OPERANDS = [
    pm.SSymElement({(2, 1): 3, (1,): -1, (): 2}),  # integral
    pm.SSymElement({(1, 3, 2): HALF, (2, 1): Fraction(-3, 4)}),  # non-integral
    pm.SSymElement({(3, 1, 2): HALF, (1, 2): 1, (1,): -2, (): 5}),  # mixed
]


@pytest.mark.parametrize("x", SSYM_OPERANDS, ids=["integral", "non-integral", "mixed"])
@pytest.mark.parametrize("y", SSYM_OPERANDS, ids=["integral", "non-integral", "mixed"])
def test_multiply_ssym_matches_the_definition(x, y):
    product = pm.multiply_ssym(x, y)
    assert product == ref.multiply_ssym(x, y)
    assert all(type(c) is Fraction for c in product.coeffs.values())


def test_all_permutations():
    assert list(pm.all_permutations(0)) == [()]
    assert len(list(pm.all_permutations(3))) == 6
    assert len(list(pm.all_permutations(4))) == 24
    with pytest.raises(ValueError):
        pm.all_permutations(10)
    assert sum(1 for _ in pm.all_permutations(8, bound=8)) == 40320


def test_all_permutations_rejects_negative_n():
    # as all_compositions(-1) does, rather than yielding [()]
    with pytest.raises(ValueError, match="non-negative"):
        pm.all_permutations(-1)


def test_ssym_product_examples():
    f1 = pm.ssym_basis((1,))
    assert f1 * f1 == pm.SSymElement({(1, 2): 1, (2, 1): 1})
    unit = pm.ssym_basis(())
    x = pm.SSymElement({(2, 1): 3, (1,): -1})
    assert unit * x == x and x * unit == x
    cube = f1 * f1 * f1
    assert cube == pm.SSymElement({s: 1 for s in itertools.permutations((1, 2, 3))})


def test_ssym_associativity_total_degree_6():
    words = {n: list(itertools.permutations(range(1, n + 1))) for n in range(7)}
    for na in range(7):
        for nb in range(7 - na):
            for nc in range(7 - na - nb):
                for a in words[na]:
                    for b in words[nb]:
                        for c in words[nc]:
                            x, y, z = pm.ssym_basis(a), pm.ssym_basis(b), pm.ssym_basis(c)
                            assert (x * y) * z == x * (y * z)


def test_ssym_element_validates_keys():
    # these were stored, and (1, 1) times F_1 gave F_113 + F_131 + F_311
    for bad in [(1, 1), (2, 3)]:
        with pytest.raises(ValueError, match="not a permutation"):
            pm.SSymElement({bad: 1})


def test_ssym_zero_coefficients_dropped():
    x = pm.SSymElement({(1, 2): 1})
    y = pm.SSymElement({(1, 2): -1})
    assert (x + y).coeffs == {}
