import random

import pytest

from qsymx import compositions as co
from qsymx import exactnum as en
from reference_closed_forms import refines, stats
from reference_qsym import delannoy_paths, quasi_shuffle


def test_composition_validation():
    assert co.composition([2, 1, 3]) == (2, 1, 3)
    with pytest.raises(ValueError):
        co.composition([2, 0])


def test_composition_rejects_non_integer_parts():
    for bad in ([2.5, 1], [2.0, 1], ["2"], [True]):
        with pytest.raises(ValueError, match="positive integers"):
            co.composition(bad)


def test_parse_and_format():
    assert co.parse_composition("2,1,3") == (2, 1, 3)
    assert co.parse_composition("()") == ()
    assert co.format_composition((2, 1, 3)) == "2,1,3"
    assert co.format_composition(()) == "()"
    with pytest.raises(ValueError):
        co.parse_composition("2,x")
    with pytest.raises(ValueError):
        co.parse_composition("0,1")
    # int() alone reads "1_2" as 12 and the Arabic-Indic digit three as 3
    for text in ("1_2,3", "\u0663,1", "1,\uff12"):
        with pytest.raises(ValueError, match="cannot parse composition"):
            co.parse_composition(text)
    assert co.parse_composition(" 12, 3 ") == (12, 3)


def test_all_compositions():
    assert co.all_compositions(0) == [()]
    assert co.all_compositions(3) == [(3,), (1, 2), (2, 1), (1, 1, 1)]
    assert len(co.all_compositions(5)) == 16
    for n in range(9):
        comps = co.all_compositions(n)
        assert len(set(comps)) == len(comps)
        assert all(sum(a) == n for a in comps)


def test_all_compositions_walk_is_mask_order():
    # the walk builds degree n from degree n - 1; from_index builds each
    # composition from its mask
    for n in range(15):
        masks = range(1 << (n - 1)) if n else range(1)
        assert co.all_compositions(n) == [co.from_index(n, m) for m in masks]


def test_all_compositions_rejects_a_bool():
    for n in (True, 2.0, -1):
        with pytest.raises(ValueError, match="non-negative int"):
            co.all_compositions(n)


def test_index_round_trip():
    for n in range(9):
        for mask in range(1 << max(n - 1, 0)):
            alpha = co.from_index(n, mask)
            assert co.to_index(alpha) == mask
            assert sum(alpha) == n


def test_stats_examples():
    alpha = (1, 3, 1, 2, 2)
    assert (co.p_minus(alpha), co.p_plus(alpha)) == (2, 3)
    assert co.p_plus((7,)) == 0
    s = stats((2, 2))
    assert (s.k_e, s.k_o, co.p_minus((2, 2)), s.u, s.v) == (2, 0, 1, 1, 2)
    empty = stats(())
    assert empty == (0, 0, 0, 0, 0, 0)
    assert (co.p_minus(()), co.p_plus(())) == (0, 0)


def test_odd_parts_parity():
    for n in range(13):
        for alpha in co.all_compositions(n):
            assert stats(alpha).k_o % 2 == n % 2


def test_refines():
    assert refines((1, 1, 1), (3,))
    assert not refines((3,), (1, 1, 1))
    assert not refines((2,), (1, 1, 1))  # weight mismatch is False, not an error
    assert co.refinements((2, 1)) == [(2, 1), (1, 1, 1)]
    assert co.coarsenings((2, 1)) == [(3,), (2, 1)]
    assert co.refinements((1, 1, 1)) == [(1, 1, 1)]


def test_refinement_is_partial_order():
    for n in range(7):
        comps = co.all_compositions(n)
        for a in comps:
            assert refines(a, a)
            for b in comps:
                if refines(a, b) and refines(b, a):
                    assert a == b
                for c in comps:
                    if refines(a, b) and refines(b, c):
                        assert refines(a, c)


def test_refinements_and_coarsenings_match_filter():
    # filtering all_compositions keeps its bitmask order, so the lists,
    # not only their sets, must agree
    for n in range(11):
        comps = co.all_compositions(n)
        for alpha in comps:
            assert co.refinements(alpha) == [b for b in comps if refines(b, alpha)]
            assert co.coarsenings(alpha) == [b for b in comps if refines(alpha, b)]


def test_mask_pass_super_masks_sum_the_refinements():
    # seeded integer rows: entry alpha of the super-mask pass is the sum of
    # the row over the refinements of alpha, and the signed pass undoes it;
    # entry alpha of the sub-mask pass is the sum over its coarsenings
    rng = random.Random(2004)
    for n in range(11):
        comps = co.all_compositions(n)
        row = [rng.randint(-99, 99) for _ in comps]
        mask = {alpha: i for i, alpha in enumerate(comps)}
        sums = co._mask_pass(row, n, True, 1)
        assert sums == [sum(row[mask[b]] for b in co.refinements(a)) for a in comps]
        assert co._mask_pass(sums, n, True, -1) == row
        sub_sums = co._mask_pass(row, n, False, 1)
        assert sub_sums == [sum(row[mask[b]] for b in co.coarsenings(a)) for a in comps]


def test_reversal_and_conjugate_examples():
    assert co.reversal((1, 3, 2)) == (2, 3, 1)
    assert co.conjugate((2, 3, 1, 2, 2)) == (1, 2, 3, 1, 2, 1)
    assert co.conjugate((1, 1)) == (2,)
    assert co.conjugate(()) == ()
    assert co.conjugate((1,)) == (1,)


def test_involutions():
    for n in range(11):
        for alpha in co.all_compositions(n):
            assert co.reversal(co.reversal(alpha)) == alpha
            assert co.conjugate(co.conjugate(alpha)) == alpha


def test_peak_statistics_match_their_definitions():
    # the counts of parts equal to 1 against the parts > 1, counted one by
    # one: other than the last for p_minus, and 1 + those other than the
    # first and the last for p_plus on two parts or more
    for n in range(11):
        for alpha in co.all_compositions(n):
            k = len(alpha)
            assert co.p_minus(alpha) == sum(1 for a in alpha[:k - 1] if a > 1), alpha
            plus = 1 + sum(1 for a in alpha[1:k - 1] if a > 1) if k > 1 else 0
            assert co.p_plus(alpha) == plus, alpha


def test_peak_statistics_under_reversal_and_conjugation():
    for n in range(1, 11):
        for alpha in co.all_compositions(n):
            assert co.p_minus(co.conjugate(alpha)) == co.p_minus(alpha)
            assert co.p_plus(co.reversal(alpha)) == co.p_plus(alpha)
            a1, ak = alpha[0], alpha[-1]
            pm = co.p_minus(alpha)
            if (a1 == 1) == (ak == 1):
                assert co.p_minus(co.reversal(alpha)) == pm
            elif a1 != 1:
                assert co.p_minus(co.reversal(alpha)) == pm - 1
            else:
                assert co.p_minus(co.reversal(alpha)) == pm + 1
            if n >= 2:
                pp = co.p_plus(alpha)
                if (a1 == 1) != (ak == 1):
                    assert co.p_plus(co.conjugate(alpha)) == pp
                elif a1 == 1:
                    assert co.p_plus(co.conjugate(alpha)) == pp - 1
                else:
                    assert co.p_plus(co.conjugate(alpha)) == pp + 1


def test_delannoy_paths_small():
    assert delannoy_paths(0, 0) == [()]
    paths = delannoy_paths(1, 1)
    assert paths == [("H", "V"), ("V", "H"), ("D",)]
    assert quasi_shuffle((1,), (1,), ("H", "V")) == (1, 1)
    assert quasi_shuffle((1,), (1,), ("D",)) == (2,)


def test_quasi_shuffle_worked_example():
    # the labelled path: H V D H D V H on (a1..a5), (b1..b4)
    alpha = (10, 20, 30, 40, 50)
    beta = (1, 2, 3, 4)
    path = ("H", "V", "D", "H", "D", "V", "H")
    assert quasi_shuffle(alpha, beta, path) == (10, 1, 22, 30, 43, 4, 50)
    with pytest.raises(ValueError):
        quasi_shuffle((1, 1), (1,), ("H", "V"))


def test_delannoy_census():
    for p in range(7):
        for q in range(7):
            paths = delannoy_paths(p, q)
            assert len(set(paths)) == len(paths)
            for d in range(min(p, q) + 1):
                count = sum(1 for L in paths if L.count("D") == d)
                assert count == en.multinomial([p - d, q - d, d])


def test_ribbon_cuts_examples():
    assert co.ribbon_cuts((2,)) == [((), (2,)), ((1,), (1,)), ((2,), ())]
    assert co.ribbon_cuts((1, 1)) == [((), (1, 1)), ((1,), (1,)), ((1, 1), ())]
    for n in range(11):
        for alpha in co.all_compositions(n):
            cuts = co.ribbon_cuts(alpha)
            assert len(cuts) == n + 1
            for i, (left, right) in enumerate(cuts):
                assert sum(left) == i


def test_ribbon_cut_reassembly():
    # the two halves stitch back to alpha: either plainly, or by merging at
    # the severed row
    for n in range(1, 11):
        for alpha in co.all_compositions(n):
            for i, (left, right) in enumerate(co.ribbon_cuts(alpha)):
                assert sum(left) == i
                if not left or not right:
                    assert left + right == alpha
                    continue
                plain = left + right
                merged = left[:-1] + (left[-1] + right[0],) + right[1:]
                assert alpha in (plain, merged)

