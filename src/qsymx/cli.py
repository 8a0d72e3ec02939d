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

from . import characters, identities
from .compositions import all_compositions, format_composition, parse_composition
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
HARD_DEGREE_CAP = 16

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
        value = int(raw)
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
    p_dec.add_argument("--degree", type=int, default=None)
    p_dec.add_argument(
        "--char", choices=("zeta", "zeta-inv"), default="zeta",
        help="character to decompose (closed forms exist for both)",
    )
    p_dec.add_argument("--json", action="store_true")

    p_tab = sub.add_parser("table", help="all values of a character in one degree")
    p_tab.add_argument("--char", required=True)
    p_tab.add_argument("--basis", choices=("M", "F"), default="M")
    p_tab.add_argument("--degree", type=int, required=True)
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


def _cmd_decompose(parser, args) -> int:
    degree = args.degree if args.degree is not None else _default_degree()
    if degree < 0:
        parser.error("--degree must be non-negative")
    degree = _capped_degree(degree)
    base = characters.restrict(args.char, degree)
    plus, minus = characters.decompose(base)
    plus_id = args.char + "-plus"
    minus_id = args.char + "-minus"
    rows = []
    mismatches = 0
    for n in range(degree + 1):
        for alpha, op, om in zip(all_compositions(n), plus.tables[n], minus.tables[n]):
            cp = characters.eval_M(plus_id, alpha)
            cm = characters.eval_M(minus_id, alpha)
            ok = (cp == op) and (cm == om)
            mismatches += 0 if ok else 1
            rows.append((alpha, op, om, cp, cm, ok))
    if args.json:
        payload = {
            "char": args.char,
            "degree": degree,
            "mismatches": mismatches,
            "tables": [
                {
                    "comp": list(alpha),
                    "plus": str(op),
                    "minus": str(om),
                    "plus_closed": str(cp),
                    "minus_closed": str(cm),
                    "match": ok,
                }
                for alpha, op, om, cp, cm, ok in rows
            ],
        }
        print(json.dumps(payload))
    else:
        width = max(len(format_composition(r[0])) for r in rows)
        print(
            "# even/odd decomposition of %s up to degree %d (oracle vs closed form)"
            % (args.char, degree)
        )
        for alpha, op, om, cp, cm, ok in rows:
            flag = "" if ok else "   MISMATCH closed=(%s, %s)" % (cp, cm)
            print(
                "%-*s  plus=%-10s minus=%-10s%s"
                % (width, format_composition(alpha), op, om, flag)
            )
        print(
            "%d mismatches out of %d entries" % (mismatches, len(rows))
        )
    return 1 if mismatches else 0


def _cmd_table(parser, args) -> int:
    char_id = _parse_char(parser, args.char)
    if args.degree < 0:
        parser.error("--degree must be non-negative")
    degree = _capped_degree(args.degree)
    evaluate = characters.eval_M if args.basis == "M" else characters.eval_F
    values = [(alpha, evaluate(char_id, alpha)) for alpha in all_compositions(degree)]
    if args.json:
        payload = {
            "char": char_id,
            "basis": args.basis,
            "degree": degree,
            "values": [
                {"comp": list(alpha), "value": str(v)} for alpha, v in values
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
    return _COMMANDS[args.command](parser, args)


if __name__ == "__main__":
    sys.exit(main())
