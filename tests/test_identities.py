import contextlib
import hashlib
import importlib
import io
import json
import pathlib
import random
import sys
from collections import Counter

import pytest

import reference_identities
from qsymx import characters as ch
from qsymx import cli
from qsymx import compositions as co
from qsymx import exactnum as en
from qsymx import identities as idn
from qsymx import permutations as pm


def test_registry_is_complete_and_ordered():
    ids = idn.registry_ids()
    assert len(ids) == len(set(ids))
    for expected in (
        "classical_conv",
        "classical_conv2",
        "central_prod",
        "catalan_prod",
        "antipode_sum",
        "app_antipodeM",
        "tn_vandermonde",
        "signs_a",
        "signs_b",
        "g_convolve",
        "h_minus_closed",
        "h_plus_closed",
        "app_f1",
        "app_f2",
        "cg6",
        "cg7",
        "cg8",
        "allperms_minus",
        "allperms_plus",
        "shuffle_minus",
        "shuffle_plus",
        "app_zetainv_m",
        "app_zetainv_plus_m",
        "gessel_rec",
        "binomial_gessel",
        "catalan_gessel",
        "associator",
        "power2",
        "zeta_power",
        "peak_rev_con",
    ):
        assert expected in ids


@pytest.mark.parametrize("check_id", idn.registry_ids())
def test_each_check_passes_small(check_id):
    report = idn.verify(check_id, "small")
    assert report.passed, report.counterexample
    assert report.cases > 0
    assert report.counterexample is None


def test_unknown_id():
    with pytest.raises(KeyError):
        idn.verify("no_such_identity")
    with pytest.raises(ValueError):
        idn.verify("cg6", depth="bogus")


def test_verify_is_deterministic():
    first = idn.verify("central_prod", "small")
    second = idn.verify("central_prod", "small")
    assert first == second


def test_depth_scales_domain():
    small = idn.verify("classical_conv", "small")
    standard = idn.verify("classical_conv", "standard")
    deep = idn.verify("cg6", "deep")
    assert small.cases < standard.cases
    assert "15" in small.domain and "30" in standard.domain
    assert deep.passed and deep.cases == 21  # 12 raised by three quarters


def test_classical_conv_m2_case():
    # B(2) = 6 = 2 (Cat(0) B(1) + Cat(1) B(0)) = 2 (1*2 + 1*1)
    assert en.central_binomial(2) == 6
    assert 2 * (en.catalan(0) * en.central_binomial(1) + en.catalan(1) * en.central_binomial(0)) == 6


def test_cg6_h1_case():
    # 2 C_3(0) C_3(1) = 2 C_2(0) C_1(0), i.e. 2 = 2
    lhs = 2 * en.central_catalan(3, 0) * en.central_catalan(3, 1)
    rhs = 2 * en.central_catalan(2, 0) * en.central_catalan(1, 0)
    assert lhs == rhs == 2


def test_gessel_rec_base_case():
    # C(0,1) = 4 C(0,0) - C(1,0): 2 = 4 - 2
    assert en.bivariate_catalan(0, 1) == 2
    assert 4 * en.bivariate_catalan(0, 0) - en.bivariate_catalan(1, 0) == 2


def test_allperms_minus_n3_case():
    # four peak-free permutations contribute +C(0,1) = +2, the two peaked
    # ones contribute -C(1,0) = -2; total 4 = 4^1
    from qsymx.permutations import all_permutations, interior_peaks

    contributions = []
    for sigma in all_permutations(3):
        p = interior_peaks(sigma)
        contributions.append((-1) ** p * en.bivariate_catalan(p, 1 - p))
    assert sorted(contributions) == [-2, -2, 2, 2, 2, 2]
    assert sum(contributions) == 4


def test_counterexample_reporting(monkeypatch):
    real = en.bivariate_catalan

    def mutated(m, n):
        value = real(m, n)
        return value + 1 if (m, n) == (2, 3) else value

    monkeypatch.setattr(en, "bivariate_catalan", mutated)
    report = idn.verify("power2", "small")
    assert not report.passed
    ce = report.counterexample
    assert ce is not None
    assert ce.left != ce.right
    assert ce.params["p"] + ce.params["q"] == 5


def test_report_records_are_immutable_tuples_with_named_fields():
    one, two = en.as_fraction(1), en.as_fraction(2)
    ce = idn.Counterexample(params={"alpha": (1, 2)}, left=one, right=two)
    report = idn.CheckReport(id="x", domain="d", cases=3, status="fail", counterexample=ce)
    assert report.counterexample is ce and not report.passed
    assert ce == idn.Counterexample({"alpha": (1, 2)}, 1, 2)
    ok = idn.CheckReport(id="x", domain="d", cases=3, status="pass")
    assert ok.passed and ok.counterexample is None
    assert ok == idn.CheckReport("x", "d", 3, "pass", None) != report
    for record, field in ((report, "status"), (ce, "left"), (ok, "elapsed")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert cli._report_json(ok) == {"id": "x", "domain": "d", "cases": 3, "status": "pass"}
    # the params tuple goes to json.dumps as it is, which writes an array
    assert json.loads(json.dumps(cli._report_json(report))) == {
        "id": "x",
        "domain": "d",
        "cases": 3,
        "status": "fail",
        "counterexample": {"params": {"alpha": [1, 2]}, "left": "1", "right": "2"},
    }


def test_signed_census_walk_matches_the_enumeration():
    # the walk over unit gaps against every composition of m, zero entries
    # included
    assert idn._signed_census(0, 0) == {0: 1}
    for first in (0, 1):
        for m in range(max(first, 1), 17):
            expected = [0] * (m + 1)
            for gamma in co.all_compositions(m):
                expected[sum(1 for a in gamma[first:] if a > 1)] += (-1) ** len(gamma)
            census = idn._signed_census(m, first)
            assert set(census) <= set(range(m + 1))
            assert [census.get(j, 0) for j in range(m + 1)] == expected, (m, first)


def test_ribbon_cut_row_matches_the_ribbon_cuts():
    # the kernel against the sum over ribbon_cuts(alpha) of each alpha, on
    # seeded rows with zero entries and whole zero rows, and factors with
    # zeros; the cuts of each n >= 3 have the left row shorter at some
    # positions and the right row shorter at others
    rng = random.Random(23)

    def rows(n):
        return [[rng.choice((0, rng.randint(-9, 9))) for _ in range(1 << max(w - 1, 0))]
                for w in range(n + 1)]

    for n in range(1, 10):
        left, right = rows(n), rows(n)
        left[n // 2] = [0] * len(left[n // 2])
        right[n // 3] = [0] * len(right[n // 3])
        for factors in ([1] * (n + 1), [rng.randint(-3, 3) for _ in range(n + 1)]):
            expected = [
                sum(factors[sum(l)] * left[sum(l)][co.to_index(l)] * right[sum(r)][co.to_index(r)]
                    for l, r in co.ribbon_cuts(alpha))
                for alpha in co.all_compositions(n)
            ]
            assert idn._ribbon_cut_row(left, right, n, factors) == expected, (n, factors)


def test_rev_con_masks_match_reversal_and_conjugate():
    # the mask rows of peak_rev_con against the library's reversal and
    # conjugate of every composition up to weight 12
    for n in range(1, 13):
        comps = co.all_compositions(n)
        rev, con = idn._rev_con_masks(n)
        assert len(rev) == len(con) == len(comps)
        for alpha, r, c in zip(comps, rev, con):
            assert comps[r] == co.reversal(alpha) and comps[c] == co.conjugate(alpha), alpha


def test_shuffle_census_matches_the_shuffle_words():
    # the lattice-path census against every shuffle word of n + m <= 10,
    # counted by its peaks
    for augmented, peaks in ((True, pm.augmented_peaks), (False, pm.interior_peaks)):
        census = idn._shuffle_census(10, augmented)
        assert sorted(census) == [(n, m) for n in range(11) for m in range(11 - n)]
        for (n, m), counts in census.items():
            words = pm.shuffles(tuple(range(1, n + 1)), tuple(range(1, m + 1)))
            assert counts == Counter(peaks(w) for w in words), (n, m, augmented)


def test_class_census_walk_matches_the_enumeration():
    census = idn._class_census(14)
    assert list(census) == list(range(1, 15))
    for n in range(1, 15):
        expected = Counter()
        for alpha in co.all_compositions(n):
            if alpha[0] % 2:
                k_o = sum(a % 2 for a in alpha)
                expected[(k_o, len(alpha) - k_o)] += 1
        assert census[n] == dict(expected), n


def test_reports_have_case_counts():
    report = idn.verify("signs_a", "small")
    # m = 0..7, j = 0..m
    assert report.cases == sum(m + 1 for m in range(8))


# Case count and domain text of every check at "small" and at "standard",
# and of the S_n checks at "deep", where they sum S_15 by descent classes in
# under half a second (all 15! permutations would take days).  The standard
# counts are the benchmark's REGISTRY_STANDARD_CASES.
REGISTRY_DOMAINS = [
    ("classical_conv", "small", 15, "1 <= m <= 15"),
    ("classical_conv", "standard", 30, "1 <= m <= 30"),
    ("classical_conv2", "small", 16, "0 <= m <= 15"),
    ("classical_conv2", "standard", 31, "0 <= m <= 30"),
    ("central_prod", "small", 60, "0 <= n, m <= 6, not both 0, plus specials"),
    ("central_prod", "standard", 192, "0 <= n, m <= 12, not both 0, plus specials"),
    ("catalan_prod", "small", 24, "1 <= n, m <= 6, n = m mod 2, not both 1, plus specials"),
    ("catalan_prod", "standard", 87, "1 <= n, m <= 12, n = m mod 2, not both 1, plus specials"),
    ("antipode_sum", "small", 31, "all beta of weight 1..5"),
    ("antipode_sum", "standard", 1023, "all beta of weight 1..10"),
    ("app_antipodeM", "small", 14,
     "beta of weight 1..5 with even-part count even and matching end parities"),
    ("app_antipodeM", "standard", 308,
     "beta of weight 1..10 with even-part count even and matching end parities"),
    ("tn_vandermonde", "small", 36,
     "grouped sum and Vandermonde for n <= 7; class census for n <= 6"),
    ("tn_vandermonde", "standard", 168,
     "grouped sum and Vandermonde for n <= 14; class census for n <= 12"),
    ("signs_a", "small", 36, "0 <= m <= 7, 0 <= j <= m"),
    ("signs_a", "standard", 120, "0 <= m <= 14, 0 <= j <= m"),
    ("signs_b", "small", 35, "1 <= m <= 7, 0 <= j <= m"),
    ("signs_b", "standard", 119, "1 <= m <= 14, 0 <= j <= m"),
    ("g_convolve", "small", 216, "0 <= i, j, m <= 5"),
    ("g_convolve", "standard", 1331, "0 <= i, j, m <= 10"),
    ("h_minus_closed", "small", 31, "all alpha of weight 1..5"),
    ("h_minus_closed", "standard", 1023, "all alpha of weight 1..10"),
    ("h_plus_closed", "small", 10, "all alpha of even weight 2..5"),
    ("h_plus_closed", "standard", 682, "all alpha of even weight 2..10"),
    ("app_f1", "small", 31, "all alpha of weight 1..5"),
    ("app_f1", "standard", 1023, "all alpha of weight 1..10"),
    ("app_f2", "small", 31, "all alpha of weight 1..5"),
    ("app_f2", "standard", 1023, "all alpha of weight 1..10"),
    ("cg6", "small", 6, "1 <= h <= 6"),
    ("cg6", "standard", 12, "1 <= h <= 12"),
    ("cg7", "small", 6, "1 <= h <= 6"),
    ("cg7", "standard", 12, "1 <= h <= 12"),
    ("cg8", "small", 6, "1 <= h <= 6"),
    ("cg8", "standard", 12, "1 <= h <= 12"),
    ("allperms_minus", "small", 6, "0 <= n <= 5"),
    ("allperms_minus", "standard", 10, "0 <= n <= 9"),
    ("allperms_plus", "small", 2, "even n, 2 <= n <= 5"),
    ("allperms_plus", "standard", 4, "even n, 2 <= n <= 9"),
    ("allperms_minus", "deep", 16, "0 <= n <= 15"),
    ("allperms_plus", "deep", 7, "even n, 2 <= n <= 15"),
    ("shuffle_minus", "small", 21, "n, m >= 0 with n + m <= 5"),
    ("shuffle_minus", "standard", 66, "n, m >= 0 with n + m <= 10"),
    ("shuffle_plus", "small", 9, "n = m mod 2 with n + m <= 5"),
    ("shuffle_plus", "standard", 36, "n = m mod 2 with n + m <= 10"),
    ("app_zetainv_m", "small", 15, "1 <= m <= 15"),
    ("app_zetainv_m", "standard", 30, "1 <= m <= 30"),
    ("app_zetainv_plus_m", "small", 11, "all beta of even weight 0..5"),
    ("app_zetainv_plus_m", "standard", 683, "all beta of even weight 0..10"),
    ("gessel_rec", "small", 216, "0 <= a, b, c <= 5"),
    ("gessel_rec", "standard", 1331, "0 <= a, b, c <= 10"),
    ("binomial_gessel", "small", 36, "0 <= b, c <= 5"),
    ("binomial_gessel", "standard", 121, "0 <= b, c <= 10"),
    ("catalan_gessel", "small", 36, "0 <= b, c <= 5"),
    ("catalan_gessel", "standard", 121, "0 <= b, c <= 10"),
    ("associator", "small", 216, "0 <= a, b, c <= 5"),
    ("associator", "standard", 1331, "0 <= a, b, c <= 10"),
    ("power2", "small", 460, "0 < p + q <= 20"),
    ("power2", "standard", 1720, "0 < p + q <= 40"),
    ("zeta_power", "small", 224, "-3 <= m <= 3, both bases, weights up to 4"),
    ("zeta_power", "standard", 3584, "-3 <= m <= 3, both bases, weights up to 8"),
    ("peak_rev_con", "small", 123, "all alpha of weight 1..5"),
    ("peak_rev_con", "standard", 4091, "all alpha of weight 1..10"),
]


def test_registry_domains_cover_every_check():
    for depth in ("small", "standard"):
        rows = [row for row in REGISTRY_DOMAINS if row[1] == depth]
        assert [row[0] for row in rows] == idn.registry_ids()
    assert sum(row[2] for row in REGISTRY_DOMAINS if row[1] == "standard") == 20324


@pytest.mark.parametrize(
    "check_id, depth, cases, domain",
    REGISTRY_DOMAINS,
    ids=["%s-%s" % row[:2] for row in REGISTRY_DOMAINS],
)
def test_registry_domain_and_case_count(check_id, depth, cases, domain):
    report = idn.verify(check_id, depth)
    assert (report.passed, report.cases, report.domain) == (True, cases, domain)


# -- the checks that count their part statistics inline ----------------------


def _bounds(check_id, depth):
    """The bounds verify passes to the check at depth."""
    scale = idn._scale_for(depth)
    return [scale(int(b)) for b in idn._BOUND.findall(idn._REGISTRY[check_id][1])]


def _assert_matches_reference(check_id, bounds):
    """The same case stream: equal params, and each side equal as a
    Fraction."""
    cases = list(idn._REGISTRY[check_id][0](*bounds))
    reference = list(reference_identities.CHECKS[check_id](*bounds))
    assert len(cases) == len(reference) > 0
    for case, expected in zip(cases, reference):
        assert case[0] == expected[0]
        assert [en.as_fraction(side) for side in case[1:]] == [
            en.as_fraction(side) for side in expected[1:]
        ], case[0]


@pytest.mark.parametrize("depth", ["small", "standard"])
@pytest.mark.parametrize("check_id", list(reference_identities.CHECKS))
def test_check_matches_its_reference(check_id, depth):
    _assert_matches_reference(check_id, _bounds(check_id, depth))


def _case_stream_digest(check_id, depth):
    """The sha256 of a check's case stream at depth: the repr of each case's
    params, both sides and the names of the sides' types, one line each."""
    digest = hashlib.sha256()
    for params, left, right in idn._REGISTRY[check_id][0](*_bounds(check_id, depth)):
        case = (params, left, right, type(left).__name__, type(right).__name__)
        digest.update(repr(case).encode() + b"\n")
    return digest.hexdigest()


# written from the per-check generators, before the mirrored identity
# families shared one generator each; a refactor of the registry keeps
# every stream, the type of each side included
with open(pathlib.Path(__file__).with_name("golden_case_streams.json")) as f:
    GOLDEN_STREAMS = json.load(f)


def test_golden_case_streams_cover_the_registry():
    assert list(GOLDEN_STREAMS) == idn.registry_ids()
    assert all(list(hashes) == ["small", "standard"] for hashes in GOLDEN_STREAMS.values())


@pytest.mark.parametrize("check_id", idn.registry_ids())
def test_case_stream_matches_its_golden_hash(check_id):
    hashes = {depth: _case_stream_digest(check_id, depth) for depth in ("small", "standard")}
    assert hashes == GOLDEN_STREAMS[check_id]


# bounds between standard and deep for the checks that read whole rows per
# weight: ribbon cuts, h-sums and coarsening sums of weight 12, the class
# census of weight 14 and the signed census of m = 16; zeta powers only of
# weight 9, as the reference's sums over refinements grow by 3 per weight
# (0.3 s at 9, 1 s at 10).  The checks that count what the reference lists
# go as far as a reference of about 0.3 s: the shuffle words of n + m <= 15
# and 16 (the listing doubles per step), the peak rows of weight 14 (its
# 65,531 cases, each side held as a Fraction, cost more than the reference)
# and the Delannoy sums and C(p, q) table of the deep bounds.
BEYOND_STANDARD = {
    "central_prod": (21,),
    "catalan_prod": (21,),
    "tn_vandermonde": (16, 14),
    "signs_a": (16,),
    "signs_b": (16,),
    "g_convolve": (17,),
    "h_minus_closed": (12,),
    "h_plus_closed": (12,),
    "app_f1": (12,),
    "app_f2": (12,),
    "shuffle_minus": (15,),
    "shuffle_plus": (16,),
    "app_zetainv_plus_m": (12,),
    "zeta_power": (9,),
    "peak_rev_con": (14,),
}


@pytest.mark.parametrize("check_id", list(BEYOND_STANDARD))
def test_check_matches_its_reference_beyond_standard(check_id):
    _assert_matches_reference(check_id, BEYOND_STANDARD[check_id])


def test_app_zetainv_plus_m_checks_its_remainder(monkeypatch):
    # a sub-mask pass one too high at beta = (n,), whose sum must be a
    # multiple of 2^n
    real = idn._mask_pass

    def off_by_one(values, n, supersets, sign):
        row = real(values, n, supersets, sign)
        row[0] += n > 0
        return row

    monkeypatch.setattr(idn, "_mask_pass", off_by_one)
    with pytest.raises(ArithmeticError, match=r"the sum of \(2,\) is not a multiple of 2\^2"):
        idn.verify("app_zetainv_plus_m", "small")


def _plus_one_at(*point):
    """The fault: one more than the real value at one argument tuple."""
    return lambda real: lambda *args: real(*args) + (args == point)


def _all_ones_of_5_dropped(real):
    """The fault: the class census of weight 5 without (1, 1, 1, 1, 1), the
    last composition of 5 and the only one in its class (5, 0)."""
    def census(n_max):
        classes = real(n_max)
        if n_max >= 5:
            classes[5][(5, 0)] -= 1
        return classes
    return census


def _zeta_wrong_at_2_1(real):
    """The fault: the tabulated universal character is 1, not 0, on
    M_(2,1)."""
    def restrict(char_id, max_degree):
        phi = real(char_id, max_degree)
        if char_id != ch.ZETA or max_degree < 3:
            return phi
        tables = [list(row) for row in phi.tables]
        tables[3][co.to_index((2, 1))] += 1
        return ch.TruncatedCharacter(max_degree, tables)
    return restrict


def _one_part_read_as_even(real):
    """The fault: the one-part composition (n,) of every weight, at mask 0,
    gets the shape of an even part, so its antipode-sum summand is 0 and
    app_antipodeM leaves it out."""
    def rows(n_max):
        for n, row, shapes, index in real(n_max):
            yield n, [0] + row[1:], shapes + [(1, 0, 0, 0)], [len(shapes)] + index[1:]
    return rows


# check id -> (target, fault): one planted fault for each check of
# reference_identities.CHECKS but those of WITHOUT_GOLDEN (below) that makes
# it fail at depth small
GOLDEN_FAULTS = {
    "central_prod": ("exactnum.central_binomial", _plus_one_at(3)),
    "catalan_prod": ("exactnum.catalan", _plus_one_at(3)),
    "antipode_sum": ("identities._b_over_4", _plus_one_at(1)),
    "app_antipodeM": ("identities._odd_head_rows", _one_part_read_as_even),
    "tn_vandermonde": ("identities._class_census", _all_ones_of_5_dropped),
    "signs_a": ("exactnum.binomial", _plus_one_at(3, 1)),
    "signs_b": ("exactnum.binomial", _plus_one_at(2, 1)),
    "g_convolve": ("exactnum.bivariate_catalan", _plus_one_at(2, 3)),
    "h_minus_closed": ("exactnum.bivariate_catalan", _plus_one_at(1, 1)),
    "h_plus_closed": ("exactnum.bivariate_catalan", _plus_one_at(2, 0)),
    "app_f1": ("exactnum.bivariate_catalan", _plus_one_at(0, 2)),
    "app_f2": ("exactnum.bivariate_catalan", _plus_one_at(1, 0)),
    "shuffle_minus": ("exactnum.bivariate_catalan", _plus_one_at(1, 1)),
    "shuffle_plus": ("exactnum.bivariate_catalan", _plus_one_at(2, 0)),
    "app_zetainv_plus_m": ("exactnum.catalan", _plus_one_at(1)),
    "gessel_rec": ("exactnum.bivariate_catalan", _plus_one_at(1, 2)),
    "associator": ("exactnum.bivariate_catalan", _plus_one_at(3, 2)),
    "zeta_power": ("characters.restrict", _zeta_wrong_at_2_1),
    "peak_rev_con": ("compositions.p_minus", _plus_one_at((2, 1))),
}


def golden_output(monkeypatch, check_id):
    """(exit code, stdout) of verify --id check_id --depth small --json with
    the check's golden fault planted in every qsymx module that holds the
    target."""
    target, fault = GOLDEN_FAULTS[check_id]
    module, name = target.split(".")
    real = getattr(importlib.import_module("qsymx." + module), name)
    for holder in [m for key, m in sys.modules.items() if key.startswith("qsymx.")]:
        if vars(holder).get(name) is real:
            monkeypatch.setattr(holder, name, fault(real))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--id", check_id, "--depth", "small", "--json"])
    return code, out.getvalue()


with open(pathlib.Path(__file__).with_name("golden_counterexamples.json")) as f:
    GOLDEN = json.load(f)


# the references of the central Catalan convolutions and the Gessel sums
# came with one generator per mirrored family, after the golden file, which
# stays as it was written
WITHOUT_GOLDEN = ("cg6", "cg7", "cg8", "binomial_gessel", "catalan_gessel")


def test_golden_counterexamples_cover_the_checks():
    expected = [c for c in reference_identities.CHECKS if c not in WITHOUT_GOLDEN]
    assert [case["check"] for case in GOLDEN] == expected
    assert list(GOLDEN_FAULTS) == expected


@pytest.mark.parametrize("case", GOLDEN, ids=[case["check"] for case in GOLDEN])
def test_golden_counterexample(monkeypatch, case):
    # the first counterexample of each faulted check, byte for byte as the
    # summing-by-Fraction route reported it
    assert case["target"] == GOLDEN_FAULTS[case["check"]][0]
    assert golden_output(monkeypatch, case["check"]) == (1, case["stdout"])
