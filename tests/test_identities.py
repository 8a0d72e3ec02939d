import contextlib
import importlib
import io
import json
import pathlib
import sys

import pytest

import reference_identities
from qsymx import characters as ch
from qsymx import cli
from qsymx import compositions as co
from qsymx import exactnum as en
from qsymx import identities as idn


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
    assert deep.passed and deep.cases == 18  # 12 raised by half


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
    assert cli._report_json(report) == {
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


def test_reports_have_case_counts():
    report = idn.verify("signs_a", "small")
    # m = 0..7, j = 0..m
    assert report.cases == sum(m + 1 for m in range(8))


# Case count and domain text of every check at "small" and at "standard",
# and of the S_n checks at "deep", where they sum S_13 by descent classes in
# a tenth of a second (all 13! permutations would take hours).  The standard
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
    ("allperms_minus", "deep", 14, "0 <= n <= 13"),
    ("allperms_plus", "deep", 6, "even n, 2 <= n <= 13"),
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


@pytest.mark.parametrize("depth", ["small", "standard"])
@pytest.mark.parametrize("check_id", list(reference_identities.CHECKS))
def test_check_matches_its_reference(check_id, depth):
    # the same case stream: equal params, and each side equal as a Fraction
    bounds = _bounds(check_id, depth)
    cases = list(idn._REGISTRY[check_id][0](*bounds))
    reference = list(reference_identities.CHECKS[check_id](*bounds))
    assert len(cases) == len(reference) > 0
    for case, expected in zip(cases, reference):
        assert case[0] == expected[0]
        assert [en.as_fraction(side) for side in case[1:]] == [
            en.as_fraction(side) for side in expected[1:]
        ], case[0]


def _plus_one_at(*point):
    """The fault: one more than the real value at one argument tuple."""
    return lambda real: lambda *args: real(*args) + (args == point)


def _drop_last_in_degree(degree):
    """The fault: all_compositions(degree) without its last composition."""
    return lambda real: lambda n: real(n)[:-1] if n == degree else real(n)


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


# check id -> (target, fault): one planted fault for each check of
# reference_identities.CHECKS that makes it fail at depth small
GOLDEN_FAULTS = {
    "antipode_sum": ("identities._b_over_4", _plus_one_at(1)),
    "app_antipodeM": ("compositions.coarsenings", lambda real: lambda alpha: real(alpha)[1:]),
    "tn_vandermonde": ("compositions.all_compositions", _drop_last_in_degree(5)),
    "signs_a": ("exactnum.binomial", _plus_one_at(3, 1)),
    "signs_b": ("exactnum.binomial", _plus_one_at(2, 1)),
    "h_minus_closed": ("exactnum.bivariate_catalan", _plus_one_at(1, 1)),
    "h_plus_closed": ("exactnum.bivariate_catalan", _plus_one_at(2, 0)),
    "app_f1": ("exactnum.bivariate_catalan", _plus_one_at(0, 2)),
    "app_f2": ("exactnum.bivariate_catalan", _plus_one_at(1, 0)),
    "app_zetainv_plus_m": ("exactnum.catalan", _plus_one_at(1)),
    "associator": ("exactnum.bivariate_catalan", _plus_one_at(3, 2)),
    "zeta_power": ("characters.restrict", _zeta_wrong_at_2_1),
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


def test_golden_counterexamples_cover_the_checks():
    assert [case["check"] for case in GOLDEN] == list(reference_identities.CHECKS)
    assert list(GOLDEN_FAULTS) == list(reference_identities.CHECKS)


@pytest.mark.parametrize("case", GOLDEN, ids=[case["check"] for case in GOLDEN])
def test_golden_counterexample(monkeypatch, case):
    # the first counterexample of each faulted check, byte for byte as the
    # summing-by-Fraction route reported it
    assert case["target"] == GOLDEN_FAULTS[case["check"]][0]
    assert golden_output(monkeypatch, case["check"]) == (1, case["stdout"])
