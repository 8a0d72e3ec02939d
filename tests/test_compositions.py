import pytest

from qsymx import compositions as co
from qsymx import exactnum as en


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


def test_all_compositions():
    assert co.all_compositions(0) == [()]
    assert co.all_compositions(3) == [(3,), (1, 2), (2, 1), (1, 1, 1)]
    assert len(co.all_compositions(5)) == 16
    for n in range(9):
        comps = co.all_compositions(n)
        assert len(set(comps)) == len(comps)
        assert all(sum(a) == n for a in comps)


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
    s = co.stats((2, 2))
    assert (s.k_e, s.k_o, co.p_minus((2, 2)), s.u, s.v) == (2, 0, 1, 1, 2)
    empty = co.stats(())
    assert empty == (0, 0, 0, 0, 0, 0)
    assert (co.p_minus(()), co.p_plus(())) == (0, 0)


def test_odd_parts_parity():
    for n in range(13):
        for alpha in co.all_compositions(n):
            assert co.stats(alpha).k_o % 2 == n % 2


def test_refines():
    assert co.refines((1, 1, 1), (3,))
    assert not co.refines((3,), (1, 1, 1))
    assert not co.refines((2,), (1, 1, 1))  # weight mismatch is False, not an error
    assert co.refinements((2, 1)) == [(2, 1), (1, 1, 1)]
    assert co.coarsenings((2, 1)) == [(3,), (2, 1)]
    assert co.refinements((1, 1, 1)) == [(1, 1, 1)]


def test_refinement_is_partial_order():
    for n in range(7):
        comps = co.all_compositions(n)
        for a in comps:
            assert co.refines(a, a)
            for b in comps:
                if co.refines(a, b) and co.refines(b, a):
                    assert a == b
                for c in comps:
                    if co.refines(a, b) and co.refines(b, c):
                        assert co.refines(a, c)


def test_refinements_and_coarsenings_match_filter():
    for n in range(8):
        comps = co.all_compositions(n)
        for alpha in comps:
            assert set(co.refinements(alpha)) == {
                b for b in comps if co.refines(b, alpha)
            }
            assert set(co.coarsenings(alpha)) == {
                b for b in comps if co.refines(alpha, b)
            }


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


def test_deconcatenate():
    assert co.deconcatenate((2, 1, 3), 1) == ((2,), (1, 3))
    assert co.deconcatenate((2, 1, 3), 0) == ((), (2, 1, 3))
    assert co.deconcatenate((2, 1, 3), 3) == ((2, 1, 3), ())
    with pytest.raises(ValueError):
        co.deconcatenate((2, 1, 3), 4)


def test_delannoy_paths_small():
    assert co.delannoy_paths(0, 0) == [()]
    paths = co.delannoy_paths(1, 1)
    assert paths == [("H", "V"), ("V", "H"), ("D",)]
    assert co.quasi_shuffle((1,), (1,), ("H", "V")) == (1, 1)
    assert co.quasi_shuffle((1,), (1,), ("D",)) == (2,)


def test_quasi_shuffle_worked_example():
    # the labelled path: H V D H D V H on (a1..a5), (b1..b4)
    alpha = (10, 20, 30, 40, 50)
    beta = (1, 2, 3, 4)
    path = ("H", "V", "D", "H", "D", "V", "H")
    assert co.quasi_shuffle(alpha, beta, path) == (10, 1, 22, 30, 43, 4, 50)
    with pytest.raises(ValueError):
        co.quasi_shuffle((1, 1), (1,), ("H", "V"))


def test_delannoy_census():
    for p in range(7):
        for q in range(7):
            paths = co.delannoy_paths(p, q)
            assert len(set(paths)) == len(paths)
            for d in range(min(p, q) + 1):
                count = sum(1 for L in paths if L.count("D") == d)
                assert count == en.multinomial([p - d, q - d, d])


def test_ribbon_cuts_examples():
    cuts = co.ribbon_cuts((2,))
    assert [(c.left, c.right) for c in cuts] == [((), (2,)), ((1,), (1,)), ((2,), ())]
    assert co.ribbon_cuts((1, 1))[1] == ((1,), (1,), 1)
    for n in range(11):
        for alpha in co.all_compositions(n):
            assert len(co.ribbon_cuts(alpha)) == n + 1


def test_ribbon_cut_reassembly():
    # the two halves stitch back to alpha: either plainly, or by merging at
    # the severed row
    for n in range(1, 11):
        for alpha in co.all_compositions(n):
            for cut in co.ribbon_cuts(alpha):
                assert sum(cut.left) == cut.index
                if not cut.left or not cut.right:
                    assert cut.left + cut.right == alpha
                    continue
                plain = cut.left + cut.right
                merged = cut.left[:-1] + (cut.left[-1] + cut.right[0],) + cut.right[1:]
                assert alpha in (plain, merged)
