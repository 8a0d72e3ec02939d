"""The four benchmark workloads: seeded input generation, one pass of fixed
work, and the output checks of that pass.

Every workload is a closed loop with one client: each operation starts
after the previous one has completed, as the CLI and the library are used.
A workload object is built from a seed in set-up (inputs only, no qsymx
work), and ``run_pass`` does the same work on every call, so that passes of
one run are comparable.  ``run_pass(tally, clock)`` returns the wall and CPU
seconds of each operation by the given ``clock.Clock``, in a fixed order.
"""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

from qsymx import characters, cli, permutations, qsym

# Case counts of `qsymx verify --all --depth standard`: the domain sizes
# recorded when the benchmark was defined (20,324 cases in all).  A change
# that alters a domain must alter this table knowingly.
REGISTRY_STANDARD_CASES = {
    "classical_conv": 30,
    "classical_conv2": 31,
    "central_prod": 192,
    "catalan_prod": 87,
    "antipode_sum": 1023,
    "app_antipodeM": 308,
    "tn_vandermonde": 168,
    "signs_a": 120,
    "signs_b": 119,
    "g_convolve": 1331,
    "h_minus_closed": 1023,
    "h_plus_closed": 682,
    "app_f1": 1023,
    "app_f2": 1023,
    "cg6": 12,
    "cg7": 12,
    "cg8": 12,
    "allperms_minus": 10,
    "allperms_plus": 4,
    "shuffle_minus": 66,
    "shuffle_plus": 36,
    "app_zetainv_m": 30,
    "app_zetainv_plus_m": 683,
    "gessel_rec": 1331,
    "binomial_gessel": 121,
    "catalan_gessel": 121,
    "associator": 1331,
    "power2": 1720,
    "zeta_power": 3584,
    "peak_rev_con": 4091,
}


class Tally:
    """Output checks attempted and failed; an exception counts as one
    failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = what

    def error(self, what: str, exc: Exception):
        self.check(False, "%s raised %s: %s" % (what, type(exc).__name__, exc))


def _run_cli(argv):
    """Run the CLI in process with stdout captured; (exit code, stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _composition_of(weight: int, mask: int):
    """The composition of weight whose proper partial sums are the set bits
    of mask (built here so that inputs do not depend on the program)."""
    parts, prev = [], 0
    for i in range(1, weight):
        if mask >> (i - 1) & 1:
            parts.append(i - prev)
            prev = i
    parts.append(weight - prev)
    return tuple(parts)


def _perm_with_descents(alpha):
    """A permutation whose descent composition is alpha: blocks of sizes
    alpha_1, alpha_2, ... each increasing, drawn from decreasing value
    ranges so that every block boundary is a descent."""
    top = sum(alpha)
    word = []
    for a in alpha:
        word.extend(range(top - a + 1, top + 1))
        top -= a
    return tuple(word)


class DecomposeCanonical:
    """`qsymx decompose --degree 13 --char c --json` for c = zeta, zeta-inv;
    the oracle's tables on dyadic values, compared by the CLI against the
    closed forms."""

    degree = 13
    chars = ("zeta", "zeta-inv")
    samples_per_char = 64

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.entries = 1 << self.degree
        self.argvs = [
            ["decompose", "--degree", str(self.degree), "--char", c, "--json"]
            for c in self.chars
        ]
        self.samples = [
            sorted(rng.sample(range(self.entries), self.samples_per_char))
            for _ in self.chars
        ]

    def properties(self) -> dict:
        dyadic = all(
            v.denominator & (v.denominator - 1) == 0
            for c in self.chars
            for row in characters.restrict(c, self.degree).tables
            for v in row
        )
        return {
            "degree": self.degree,
            "chars": list(self.chars),
            "entries_per_char": self.entries,
            "input_values_dyadic": dyadic,
            "eval_M_resamples_per_char": self.samples_per_char,
        }

    def run_pass(self, tally: Tally, clock) -> list:
        latencies = []
        for char, argv, sample in zip(self.chars, self.argvs, self.samples):
            t0 = clock.now()
            try:
                code, out = _run_cli(argv)
                payload = json.loads(out)
                rows = payload["tables"]
                tally.check(code == 0, "decompose %s: exit code %r" % (char, code))
                tally.check(
                    payload["mismatches"] == 0,
                    "decompose %s: %r mismatches" % (char, payload["mismatches"]),
                )
                tally.check(
                    len(rows) == self.entries,
                    "decompose %s: %d entries" % (char, len(rows)),
                )
                for i in sample:
                    row = rows[i]
                    alpha = tuple(row["comp"])
                    ok = Fraction(row["plus"]) == characters.eval_M(
                        char + "-plus", alpha
                    ) and Fraction(row["minus"]) == characters.eval_M(
                        char + "-minus", alpha
                    )
                    tally.check(ok, "decompose %s: entry %r" % (char, alpha))
            except Exception as exc:
                tally.error("decompose %s" % char, exc)
            latencies.append(clock.since(t0))
        return latencies


class DecomposeGeneral:
    """Two seeded random functionals at degree 12, decomposed by the
    oracle and checked by the group laws phi_+ phi_- = phi,
    bar(phi_+) = phi_+ and bar(phi_-) phi_- = counit."""

    degree = 12
    functionals = 2
    numerators = (-9, 9)
    denominators = (1, 7)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        lo, hi = self.numerators
        dlo, dhi = self.denominators
        self.tables = []
        for _ in range(self.functionals):
            tables = [[Fraction(1)]]
            for n in range(1, self.degree + 1):
                tables.append(
                    [
                        Fraction(rng.randint(lo, hi), rng.randint(dlo, dhi))
                        for _ in range(1 << (n - 1))
                    ]
                )
            self.tables.append(tables)
        self.counit_tables = [[1]] + [
            [0] * (1 << (n - 1)) for n in range(1, self.degree + 1)
        ]
        self.last_outputs = []

    def properties(self) -> dict:
        values = [v for tables in self.tables for row in tables[1:] for v in row]
        props = {
            "degree": self.degree,
            "functionals": self.functionals,
            "entries_per_functional": 1 << self.degree,
            "input_denominator_range": [
                min(v.denominator for v in values),
                max(v.denominator for v in values),
            ],
            "input_numerator_range": [
                min(v.numerator for v in values),
                max(v.numerator for v in values),
            ],
            "input_values_dyadic_share": round(
                sum(1 for v in values if v.denominator & (v.denominator - 1) == 0)
                / len(values),
                4,
            ),
        }
        if self.last_outputs:
            props["output_max_bits"] = max_bits(self.last_outputs)
        return props

    def run_pass(self, tally: Tally, clock) -> list:
        latencies = []
        outputs = []
        for index, tables in enumerate(self.tables):
            t0 = clock.now()
            what = "functional %d" % index
            try:
                phi = characters.TruncatedCharacter(self.degree, tables)
                counit = characters.TruncatedCharacter(self.degree, self.counit_tables)
                plus, minus = characters.decompose(phi)
                outputs += [plus, minus]
                tally.check(
                    characters.convolve(plus, minus) == phi,
                    what + ": phi_+ phi_- != phi",
                )
                tally.check(characters.bar(plus) == plus, what + ": phi_+ is not even")
                tally.check(
                    characters.convolve(characters.bar(minus), minus) == counit,
                    what + ": phi_- is not odd",
                )
            except Exception as exc:
                tally.error(what, exc)
            latencies.append(clock.since(t0))
        self.last_outputs = outputs
        return latencies


class HopfProducts:
    """A seeded stream of products x*y of basis elements of weight 1..4 in
    the M or F basis, each checked against the coproduct, the other basis,
    the antipode and (for F) the shuffle product of permutations.

    The stream is stratified so that seeds change the order of the
    operations and which compositions of a given weight and length are
    multiplied, but not the amount of work: every (basis, weight of x,
    weight of y) occurs equally often, with operand lengths dealt in a
    fixed cycle over the lengths of all compositions of that weight."""

    max_weight = 4
    repeats = 5
    operations = 2 * max_weight * max_weight * repeats

    def __init__(self, seed: int):
        rng = random.Random(seed)
        weights = range(1, self.max_weight + 1)
        by_shape = {}
        for w in weights:
            for mask in range(1 << (w - 1)):
                alpha = _composition_of(w, mask)
                by_shape.setdefault((w, len(alpha)), []).append(alpha)
        lengths = {w: sorted(k for (v, k), c in by_shape.items() if v == w for _ in c)
                   for w in weights}
        dealt = {}

        def deal(key, weight):
            i = dealt[key] = dealt.get(key, -1) + 1
            cycle = lengths[weight]
            return rng.choice(by_shape[weight, cycle[i % len(cycle)]])

        self.ops = []
        for basis in "MF":
            for v in weights:
                for w in weights:
                    for _ in range(self.repeats):
                        alpha = deal((basis, "x", v), v)
                        beta = deal((basis, "y", w), w)
                        self.ops.append(
                            (basis, alpha, beta,
                             _perm_with_descents(alpha), _perm_with_descents(beta))
                        )
        rng.shuffle(self.ops)

    def properties(self) -> dict:
        weights = {}
        for _, alpha, beta, _, _ in self.ops:
            for w in (sum(alpha), sum(beta)):
                weights[w] = weights.get(w, 0) + 1
        return {
            "operations": self.operations,
            "f_share": sum(1 for op in self.ops if op[0] == "F") / self.operations,
            "operand_weight_histogram": {str(w): weights[w] for w in sorted(weights)},
            "product_weight_max": max(sum(a) + sum(b) for _, a, b, _, _ in self.ops),
        }

    def run_pass(self, tally: Tally, clock) -> list:
        latencies = []
        for basis, alpha, beta, sigma, tau in self.ops:
            t0 = clock.now()
            what = "%s%r*%s%r" % (basis, alpha, basis, beta)
            try:
                x = qsym.qsym_basis(basis, alpha)
                y = qsym.qsym_basis(basis, beta)
                z = qsym.multiply(x, y)
                tally.check(
                    qsym.coproduct(z)
                    == qsym.multiply_tensor(qsym.coproduct(x), qsym.coproduct(y)),
                    what + ": coproduct is not multiplicative",
                )
                other = qsym.to_F if basis == "M" else qsym.to_M
                tally.check(
                    other(z) == qsym.multiply(other(x), other(y)),
                    what + ": disagrees with the other basis",
                )
                tally.check(
                    qsym.antipode(qsym.antipode(z)) == z, what + ": S(S(z)) != z"
                )
                if basis == "F":
                    shuffled = permutations.multiply_ssym(
                        permutations.ssym_basis(sigma), permutations.ssym_basis(tau)
                    )
                    tally.check(
                        qsym.descent_map(shuffled) == z,
                        what + ": disagrees with the shuffle rule",
                    )
            except Exception as exc:
                tally.error(what, exc)
            latencies.append(clock.since(t0))
        return latencies


class RegistryStandard:
    """`qsymx verify --all --depth standard --json`, the CI command.  Its
    domains are fixed by the depth profile, so the seed changes nothing."""

    argv = ["verify", "--all", "--depth", "standard", "--json"]

    def __init__(self, seed: int):
        self.seed = seed

    def properties(self) -> dict:
        return {
            "checks": len(REGISTRY_STANDARD_CASES),
            "cases": sum(REGISTRY_STANDARD_CASES.values()),
            "seed_dependent": False,
        }

    def run_pass(self, tally: Tally, clock) -> list:
        t0 = clock.now()
        try:
            code, out = _run_cli(self.argv)
            reports = json.loads(out)
            tally.check(code == 0, "verify: exit code %r" % (code,))
            passed = sum(1 for r in reports if r["status"] == "pass")
            tally.check(
                passed == len(REGISTRY_STANDARD_CASES) == len(reports),
                "verify: %d/%d checks passed" % (passed, len(reports)),
            )
            cases = {r["id"]: r["cases"] for r in reports}
            for check_id, want in REGISTRY_STANDARD_CASES.items():
                got = cases.get(check_id)
                tally.check(
                    got == want, "verify %s: %r cases, want %d" % (check_id, got, want)
                )
        except Exception as exc:
            tally.error("verify", exc)
        return [clock.since(t0)]


_CLASSES = {
    "decompose-canonical": DecomposeCanonical,
    "decompose-general": DecomposeGeneral,
    "hopf-products": HopfProducts,
    "registry-standard": RegistryStandard,
}


def make(name: str, seed: int):
    """Build a workload's inputs from its seed."""
    return _CLASSES[name](seed)


def max_bits(tables) -> int:
    """Largest bit length of a numerator or denominator in the given
    truncated characters."""
    return max(
        max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        for t in tables
        for row in t.tables
        for v in row
    )
