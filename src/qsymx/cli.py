"""Command-line frontend.

Exit codes: 0 on success, 1 when an identity check or a closed-form/oracle
comparison fails, 2 on usage errors.  Values are always printed as exact
rationals ("p/q", or "p" when the denominator is 1); "--json" switches any
subcommand to machine-readable output.
"""

import argparse
import json
import os
import sys
from itertools import islice, repeat
from math import gcd

from . import characters, identities
from .compositions import _ascii_int, all_compositions, format_composition, parse_composition
from .permutations import parse_permutation
from .qsym import (
    coproduct,
    antipode,
    element_to_json,
    format_element,
    multiply,
    qsym_basis,
    to_F,
    to_M,
)

DEFAULT_MAX_DEGREE = 9
HARD_DEGREE_CAP = 18
# the exit code of a command whose reader closed stdout early, as a shell
# reports a process killed by SIGPIPE (128 + 13)
EXIT_BROKEN_PIPE = 141

_CHAR_CHOICES = ", ".join(characters.CHARACTER_IDS) + ", zeta-pow:<m>"


def _parse_char(parser: argparse.ArgumentParser, text: str) -> str:
    try:
        characters.eval_M(text, ())
    except ValueError:
        parser.error("unknown character id %r (expected one of: %s)" % (text, _CHAR_CHOICES))
    return text


def _parse_comp(parser: argparse.ArgumentParser, text: str):
    try:
        return parse_composition(text)
    except ValueError as exc:
        parser.error(str(exc))


def _degree_arg(text: str) -> int:
    """argparse type of --degree: an int written in ASCII digits."""
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % (text,)) from None


def _capped_degree(requested: int) -> int:
    if requested > HARD_DEGREE_CAP:
        print(
            "warning: degree %d exceeds the hard cap %d "
            "(tables grow like 2^(n-1)); using %d"
            % (requested, HARD_DEGREE_CAP, HARD_DEGREE_CAP),
            file=sys.stderr,
        )
        return HARD_DEGREE_CAP
    return requested


def _default_degree() -> int:
    raw = os.environ.get("QSYMX_MAX_DEGREE")
    if raw is None:
        return DEFAULT_MAX_DEGREE
    try:
        value = _ascii_int(raw)
    except ValueError:
        value = -1
    if value < 0:
        print(
            "warning: ignoring QSYMX_MAX_DEGREE=%r, which is not a "
            "non-negative integer" % (raw,),
            file=sys.stderr,
        )
        return DEFAULT_MAX_DEGREE
    return _capped_degree(value)


def _print_element(x, as_json: bool):
    if as_json:
        print(json.dumps(element_to_json(x)))
    else:
        print(format_element(x))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsymx",
        description="Exact computations with quasi-symmetric functions, "
        "canonical characters, and bivariate Catalan numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a character on a basis element")
    p_eval.add_argument("--char", required=True, help="character id (%s)" % _CHAR_CHOICES)
    p_eval.add_argument("--basis", choices=("M", "F"), default="M")
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--comp", help='composition, e.g. "2,1,3" or "()"')
    group.add_argument("--perm", help='permutation word, e.g. "312546"')
    p_eval.add_argument("--json", action="store_true")

    p_mul = sub.add_parser("mul", help="product of two basis elements")
    p_mul.add_argument("--basis", choices=("M", "F"), default="M")
    p_mul.add_argument("--left", required=True)
    p_mul.add_argument("--right", required=True)
    p_mul.add_argument("--json", action="store_true")

    p_cop = sub.add_parser("coproduct", help="coproduct of a basis element")
    p_cop.add_argument("--basis", choices=("M", "F"), default="M")
    p_cop.add_argument("--comp", required=True)
    p_cop.add_argument("--json", action="store_true")

    p_anti = sub.add_parser("antipode", help="antipode of a basis element")
    p_anti.add_argument("--basis", choices=("M", "F"), default="M")
    p_anti.add_argument("--comp", required=True)
    p_anti.add_argument("--json", action="store_true")

    p_conv = sub.add_parser("convert", help="change of basis for a basis element")
    p_conv.add_argument("--to", dest="target", choices=("M", "F"), required=True)
    p_conv.add_argument("--basis", choices=("M", "F"), default="M", help="input basis")
    p_conv.add_argument("--comp", required=True)
    p_conv.add_argument("--json", action="store_true")

    p_dec = sub.add_parser(
        "decompose",
        help="even/odd decomposition tables, checked against the closed forms",
    )
    p_dec.add_argument("--degree", type=_degree_arg, default=None)
    p_dec.add_argument(
        "--char", choices=("zeta", "zeta-inv"), default="zeta",
        help="character to decompose (closed forms exist for both)",
    )
    p_dec.add_argument("--json", action="store_true")

    p_tab = sub.add_parser("table", help="all values of a character in one degree")
    p_tab.add_argument("--char", required=True)
    p_tab.add_argument("--basis", choices=("M", "F"), default="M")
    p_tab.add_argument("--degree", type=_degree_arg, required=True)
    p_tab.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify", help="run identity checks")
    group = p_ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", dest="check_id", help="registry id")
    group.add_argument("--all", action="store_true")
    p_ver.add_argument("--depth", choices=identities.DEPTHS, default="standard")
    p_ver.add_argument("--json", action="store_true")

    return parser


def _cmd_eval(parser, args) -> int:
    char_id = _parse_char(parser, args.char)
    if args.perm is not None:
        try:
            sigma = parse_permutation(args.perm)
        except ValueError as exc:
            parser.error(str(exc))
        value = characters.eval_perm(char_id, sigma)
    else:
        alpha = _parse_comp(parser, args.comp)
        evaluate = characters.eval_M if args.basis == "M" else characters.eval_F
        value = evaluate(char_id, alpha)
    if args.json:
        print(json.dumps({"value": str(value)}))
    else:
        print(value)
    return 0


def _cmd_mul(parser, args) -> int:
    left = qsym_basis(args.basis, _parse_comp(parser, args.left))
    right = qsym_basis(args.basis, _parse_comp(parser, args.right))
    _print_element(multiply(left, right), args.json)
    return 0


def _cmd_coproduct(parser, args) -> int:
    x = qsym_basis(args.basis, _parse_comp(parser, args.comp))
    tensor = coproduct(x)
    if args.json:
        terms = [
            {"left": list(l), "right": list(r), "coeff": str(c)}
            for (l, r), c in sorted(tensor.coeffs.items())
        ]
        print(json.dumps({"basis": tensor.basis, "terms": terms}))
    else:
        print(repr(tensor))
    return 0


def _cmd_antipode(parser, args) -> int:
    x = qsym_basis(args.basis, _parse_comp(parser, args.comp))
    _print_element(antipode(x), args.json)
    return 0


def _cmd_convert(parser, args) -> int:
    x = qsym_basis(args.basis, _parse_comp(parser, args.comp))
    result = to_M(x) if args.target == "M" else to_F(x)
    _print_element(result, args.json)
    return 0


def _row_strings(phi: characters.TruncatedCharacter, n: int) -> list[str]:
    """The degree-n values of phi as exact rationals, formatted from its
    integer row: each distinct numerator once."""
    row, d = phi.numerators[n], phi.denominators[n]
    text = {}
    for v in set(row):
        g = gcd(v, d)
        text[v] = str(v // g) if g == d else "%d/%d" % (v // g, d // g)
    return list(map(text.__getitem__, row))


def _mismatches(pairs, n: int) -> int:
    """The number of masks of degree n at which some (oracle, closed form)
    pair disagrees.  Rows are reduced, so equal rows (the usual case) are
    compared once; otherwise every entry of the degree is compared."""
    rows = [(o.numerators[n], o.denominators[n], c.numerators[n], c.denominators[n])
            for o, c in pairs]
    if all(do == dc and o == c for o, do, c, dc in rows):
        return 0
    wrong = [[x * dc != y * do for x, y in zip(o, c)] for o, do, c, dc in rows]
    return sum(map(any, zip(*wrong)))


def _composition_texts(max_degree: int, open_: str, sep: str, close: str, empty: str):
    """For n = 0..max_degree, yield the texts of the compositions of n in
    mask order: open_, the parts joined by sep, then close; empty for ().

    Grown as _shape_walk grows shapes, from (prefix, last part) pairs of
    degree n - 1: growing the last part keeps the prefix, and appending a
    part 1 extends it by the old last part.  Each yield is a lazy map over
    the current pairs, to be read before the next."""
    yield (empty,)
    prefixes, lasts = [open_], [1]
    for n in range(1, max_degree + 1):
        if n > 1:
            parts = ["%d%s" % (a, sep) for a in range(n)]
            prefixes = prefixes + list(map(str.__add__, prefixes, map(parts.__getitem__, lasts)))
            lasts = [a + 1 for a in lasts] + [1] * len(lasts)
        ends = ["%d%s" % (a, close) for a in range(n + 1)]
        yield map(str.__add__, prefixes, map(ends.__getitem__, lasts))


# entries per write of a decompose table, so that no degree's output is
# held as one string
_CHUNK = 4096


# the rest of one decompose entry after its composition, --json or text;
# the texts of reduced values are canonical, so equal texts are equal values
def _json_tail(p, m, pc, mc):
    return (
        ', "plus": "%s", "minus": "%s", "plus_closed": "%s", "minus_closed": "%s", '
        '"match": %s}' % (p, m, pc, mc, "true" if (p, m) == (pc, mc) else "false")
    )


def _text_tail(p, m, pc, mc):
    flag = "" if (p, m) == (pc, mc) else "   MISMATCH closed=(%s, %s)" % (pc, mc)
    return "  plus=%-10s minus=%-10s%s\n" % (p, m, flag)


def _cmd_decompose(parser, args) -> int:
    degree = args.degree if args.degree is not None else _default_degree()
    if degree < 0:
        parser.error("--degree must be non-negative")
    degree = _capped_degree(degree)
    plus, minus = characters.decompose(characters.restrict(args.char, degree))
    closed_plus = characters.restrict(args.char + "-plus", degree)
    closed_minus = characters.restrict(args.char + "-minus", degree)
    pairs = ((plus, closed_plus), (minus, closed_minus))
    counts = [_mismatches(pairs, n) for n in range(degree + 1)]
    mismatches = sum(counts)
    # written in chunks of entries, byte for byte as json.dumps of the whole
    # payload (or one line per entry), so only one degree's rows are held
    out = sys.stdout
    if args.json:
        out.write(
            '{"char": %s, "degree": %d, "mismatches": %d, "tables": ['
            % (json.dumps(args.char), degree, mismatches)
        )
        names = _composition_texts(degree, '{"comp": [', ", ", "]", '{"comp": []')
        tail, sep = _json_tail, ", "
    else:
        # (1,) * degree has the longest name of any composition up to degree
        width = max(len(format_composition((1,) * degree)), len(format_composition(())))
        print(
            "# even/odd decomposition of %s up to degree %d (oracle vs closed form)"
            % (args.char, degree)
        )
        names = (
            map(str.ljust, texts, repeat(width))
            for texts in _composition_texts(degree, "", ",", "", "()")
        )
        tail, sep = _text_tail, ""
    lead = ""
    for n, (count, texts) in enumerate(zip(counts, names)):
        op, om = _row_strings(plus, n), _row_strings(minus, n)
        cp, cm = op, om
        if count:
            cp, cm = _row_strings(closed_plus, n), _row_strings(closed_minus, n)
        # one tail per distinct key of the degree
        tails = {key: tail(*key) for key in set(zip(op, om, cp, cm))}
        entries = map(str.__add__, texts, map(tails.__getitem__, zip(op, om, cp, cm)))
        while chunk := list(islice(entries, _CHUNK)):
            out.write(lead + sep.join(chunk))
            lead = sep
    if args.json:
        out.write("]}\n")
    else:
        print("%d mismatches out of %d entries" % (mismatches, 1 << degree))
    return 1 if mismatches else 0


def _cmd_table(parser, args) -> int:
    char_id = _parse_char(parser, args.char)
    if args.degree < 0:
        parser.error("--degree must be non-negative")
    degree = _capped_degree(args.degree)
    comps = all_compositions(degree)
    if args.basis == "M":
        texts = _row_strings(characters.restrict(char_id, degree), degree)
    else:
        texts = [str(characters.eval_F(char_id, alpha)) for alpha in comps]
    values = list(zip(comps, texts))
    if args.json:
        payload = {
            "char": char_id,
            "basis": args.basis,
            "degree": degree,
            "values": [
                {"comp": list(alpha), "value": v} for alpha, v in values
            ],
        }
        print(json.dumps(payload))
    else:
        width = max(len(format_composition(a)) for a, _ in values)
        for alpha, v in values:
            print("%-*s  %s" % (width, format_composition(alpha), v))
    return 0


def _report_json(report: identities.CheckReport) -> dict:
    payload = {
        "id": report.id,
        "domain": report.domain,
        "cases": report.cases,
        "status": report.status,
    }
    if report.counterexample is not None:
        ce = report.counterexample
        payload["counterexample"] = {
            "params": {key: _json_value(value) for key, value in ce.params.items()},
            "left": str(ce.left),
            "right": str(ce.right),
        }
    return payload


def _json_value(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def _print_report(report: identities.CheckReport):
    line = "%-22s %-4s  %6d cases  (%s)" % (
        report.id,
        report.status.upper(),
        report.cases,
        report.domain,
    )
    print(line)
    if report.counterexample is not None:
        ce = report.counterexample
        print("    counterexample: %s" % (ce.params,))
        print("    left  = %s" % ce.left)
        print("    right = %s" % ce.right)


def _cmd_verify(parser, args) -> int:
    if args.all:
        reports = identities.verify_all(args.depth)
    else:
        try:
            reports = [identities.verify(args.check_id, args.depth)]
        except KeyError:
            parser.error(
                "unknown identity id %r (known: %s)"
                % (args.check_id, ", ".join(identities.registry_ids()))
            )
    if args.json:
        print(json.dumps([_report_json(r) for r in reports]))
    else:
        for report in reports:
            _print_report(report)
        failed = sum(1 for r in reports if not r.passed)
        print("%d/%d checks passed" % (len(reports) - failed, len(reports)))
    return 0 if all(r.passed for r in reports) else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "mul": _cmd_mul,
    "coproduct": _cmd_coproduct,
    "antipode": _cmd_antipode,
    "convert": _cmd_convert,
    "decompose": _cmd_decompose,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](parser, args)
        # a closed reader shows up here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout stopped early, as in "qsymx ... | head"; point
        # stdout at devnull so that the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
