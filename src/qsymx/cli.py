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
from itertools import islice
from math import gcd

from . import characters, identities
from .compositions import _ascii_int, _mask_pass, format_composition, parse_composition
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
HARD_DEGREE_CAP = 20
# the exit code of a command whose reader closed stdout early, as a shell
# reports a process killed by SIGPIPE (128 + 13)
EXIT_BROKEN_PIPE = 141

_CHAR_CHOICES = ", ".join(characters.CHARACTER_IDS) + ", zeta-pow:<m>"


def _arg_type(parse):
    """The argparse type of an input that parse reads: its ValueError is a
    usage error that names the command and the flag."""
    def read(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


def _char_id(text: str) -> str:
    """text, if eval_M takes it as a character id."""
    try:
        characters.eval_M(text, ())
    except ValueError:
        raise ValueError(
            "unknown character id %r (expected one of: %s)" % (text, _CHAR_CHOICES)
        ) from None
    return text


def _degree(text: str) -> int:
    """A degree: a non-negative int in ASCII digits, above HARD_DEGREE_CAP
    taken as the cap with a warning.  It reads --degree and
    QSYMX_MAX_DEGREE."""
    try:
        value = _ascii_int(text)
    except ValueError:
        raise ValueError("invalid int value: %r" % (text,)) from None
    if value < 0:
        raise ValueError("--degree must be non-negative")
    if value > HARD_DEGREE_CAP:
        print(
            "warning: degree %d exceeds the hard cap %d "
            "(tables grow like 2^(n-1)); using %d"
            % (value, HARD_DEGREE_CAP, HARD_DEGREE_CAP),
            file=sys.stderr,
        )
        return HARD_DEGREE_CAP
    return value


def _default_degree() -> int:
    raw = os.environ.get("QSYMX_MAX_DEGREE")
    if raw is None:
        return DEFAULT_MAX_DEGREE
    try:
        return _degree(raw)
    except ValueError:
        print(
            "warning: ignoring QSYMX_MAX_DEGREE=%r, which is not a "
            "non-negative integer" % (raw,),
            file=sys.stderr,
        )
        return DEFAULT_MAX_DEGREE


def _print_element(x, as_json: bool) -> int:
    print(json.dumps(element_to_json(x)) if as_json else format_element(x))
    return 0


def build_parser() -> argparse.ArgumentParser:
    comp, perm, char, degree = map(
        _arg_type, (parse_composition, parse_permutation, _char_id, _degree))
    parser = argparse.ArgumentParser(
        prog="qsymx",
        description="Exact computations with quasi-symmetric functions, "
        "canonical characters, and bivariate Catalan numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a character on a basis element")
    p_eval.add_argument("--char", type=char, required=True,
                        help="character id (%s)" % _CHAR_CHOICES)
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--comp", type=comp, help='composition, e.g. "2,1,3" or "()"')
    group.add_argument("--perm", type=perm, help='permutation word, e.g. "312546"')

    p_mul = sub.add_parser("mul", help="product of two basis elements")
    p_mul.add_argument("--left", type=comp, required=True)
    p_mul.add_argument("--right", type=comp, required=True)

    sub.add_parser("coproduct", help="coproduct of a basis element")
    sub.add_parser("antipode", help="antipode of a basis element")
    p_conv = sub.add_parser("convert", help="change of basis for a basis element")
    p_conv.add_argument("--to", dest="target", choices=("M", "F"), required=True)

    p_dec = sub.add_parser(
        "decompose",
        help="even/odd decomposition tables, checked against the closed forms",
    )
    p_dec.add_argument("--degree", type=degree, default=None)
    p_dec.add_argument(
        "--char", choices=("zeta", "zeta-inv"), default="zeta",
        help="character to decompose (closed forms exist for both)",
    )

    p_tab = sub.add_parser("table", help="all values of a character in one degree")
    p_tab.add_argument("--char", type=char, required=True)
    p_tab.add_argument("--degree", type=degree, required=True)

    p_ver = sub.add_parser("verify", help="run identity checks")
    group = p_ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", dest="check_id", choices=identities.registry_ids(),
                       metavar="CHECK_ID", help="registry id")
    group.add_argument("--all", action="store_true")
    p_ver.add_argument("--depth", choices=identities.DEPTHS, default="standard")

    # the basis of the commands that read one, the one composition of the
    # element commands, and last --json for every command
    for name, command in sub.choices.items():
        if name not in ("decompose", "verify"):
            command.add_argument("--basis", choices=("M", "F"), default="M")
        if name in ("coproduct", "antipode", "convert"):
            command.add_argument("--comp", type=comp, required=True)
        command.add_argument("--json", action="store_true")
    return parser


def _cmd_eval(args) -> int:
    if args.perm is not None:
        value = characters.eval_perm(args.char, args.perm)
    else:
        evaluate = characters.eval_M if args.basis == "M" else characters.eval_F
        value = evaluate(args.char, args.comp)
    print(json.dumps({"value": str(value)}) if args.json else value)
    return 0


def _cmd_mul(args) -> int:
    left, right = qsym_basis(args.basis, args.left), qsym_basis(args.basis, args.right)
    return _print_element(multiply(left, right), args.json)


def _cmd_coproduct(args) -> int:
    tensor = coproduct(qsym_basis(args.basis, args.comp))
    if args.json:
        terms = [
            {"left": list(l), "right": list(r), "coeff": str(c)}
            for (l, r), c in sorted(tensor.coeffs.items())
        ]
        print(json.dumps({"basis": tensor.basis, "terms": terms}))
    else:
        print(repr(tensor))
    return 0


def _cmd_antipode(args) -> int:
    return _print_element(antipode(qsym_basis(args.basis, args.comp)), args.json)


def _cmd_convert(args) -> int:
    convert = to_M if args.target == "M" else to_F
    return _print_element(convert(qsym_basis(args.basis, args.comp)), args.json)


def _value_texts(row, d: int) -> dict:
    """{v: the text of v / d, an exact rational} for each distinct v of
    the integer row."""
    texts = {}
    for v in set(row):
        g = gcd(v, d)
        texts[v] = str(v // g) if g == d else "%d/%d" % (v // g, d // g)
    return texts


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


def _composition_pieces(max_degree: int, open_, sep, close, empty, width: int = 0):
    """For n = 0..max_degree, yield the names of the compositions of n in
    mask order as two sequences of pieces, (prefixes, ends): open_ and
    every part but the last, each followed by sep; then the last part and
    close, padded so that each name is width wide.  () is the prefix empty,
    padded, with the end "".

    Grown as _shape_walk grows shapes, from a prefix and a code per
    composition of degree n - 1: its last part, plus span = max_degree + 1
    times the length of its prefix when names are padded (the prefix is
    then narrower than width), so that one lookup in a table over the codes
    gives each end.  Growing the last part keeps the prefix and adds 1 to
    the code; appending a part 1 extends the prefix by the old last part and
    sep.  The prefixes are a list and the ends a lazy map, to be read before
    the next yield."""
    span = max_degree + 1
    codes = range(span * (width + 1))
    parts = ["%d%s" % (c % span, sep) for c in codes]
    ends = [("%d%s" % (c % span, close)).ljust(width - c // span) for c in codes]
    # the next codes as shared ints: a code above 256 computed per entry
    # would be an object per entry
    grown = [c + 1 for c in codes]
    appended = [span * min(c // span + len(parts[c]), width) + 1 for c in codes]
    yield [empty.ljust(width)], [""]
    prefixes, state = [open_], [span * min(len(open_), width) + 1]
    for n in range(1, max_degree + 1):
        if n > 1:
            prefixes = prefixes + list(map(str.__add__, prefixes, map(parts.__getitem__, state)))
            state = list(map(grown.__getitem__, state)) + list(map(appended.__getitem__, state))
        yield prefixes, map(ends.__getitem__, state)


def _composition_heads(low: int, degree: int, as_json: bool):
    """_composition_pieces up to degree: the heads of --json entries, each
    led by ", " but the one of (), or texts padded to the widest name of
    the degrees low..degree."""
    if as_json:
        return _composition_pieces(degree, ', {"comp": [', ", ", "]", '{"comp": []')
    # (1,) * n has the widest name of degree n, and the names widen with n
    width = max(len(format_composition((1,) * n)) for n in (low, degree))
    return _composition_pieces(degree, "", ",", "", "()", width)


# list slots per write of a table, so that no degree's output is held as
# one string
_CHUNK = 4096


def _write_pieces(*columns):
    """Write entry after entry, entry i being the i-th piece of each column
    in turn (the first column a list), byte for byte as one join of them
    all.  Each chunk is one join of a list of at most _CHUNK pieces, and of
    at least one entry, filled column by column by strided slices."""
    width, total = len(columns), len(columns[0])
    step = max(_CHUNK // width, 1)
    columns = [iter(c) for c in columns]
    for start in range(0, total, step):
        chunk = [None] * (width * min(step, total - start))
        for i, column in enumerate(columns):
            chunk[i::width] = islice(column, step)
        sys.stdout.write("".join(chunk))


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


def _cmd_decompose(args) -> int:
    degree = args.degree if args.degree is not None else _default_degree()
    plus, minus = characters.decompose(characters.restrict(args.char, degree))
    closed_plus = characters.restrict(args.char + "-plus", degree)
    closed_minus = characters.restrict(args.char + "-minus", degree)
    pairs = ((plus, closed_plus), (minus, closed_minus))
    counts = [_mismatches(pairs, n) for n in range(degree + 1)]
    mismatches = sum(counts)
    # written byte for byte as json.dumps of the whole payload (or one line
    # per entry), so only one degree's rows are held
    if args.json:
        sys.stdout.write(
            '{"char": %s, "degree": %d, "mismatches": %d, "tables": ['
            % (json.dumps(args.char), degree, mismatches)
        )
        tail = _json_tail
    else:
        print(
            "# even/odd decomposition of %s up to degree %d (oracle vs closed form)"
            % (args.char, degree)
        )
        tail = _text_tail
    heads = _composition_heads(0, degree, args.json)
    for n, (count, (prefixes, ends)) in enumerate(zip(counts, heads)):
        # an entry's tail is keyed on its integer numerators, the closed
        # forms' only in a degree where they differ from the oracle's
        rows = (plus, minus, closed_plus, closed_minus) if count else (plus, minus)
        numerators = [phi.numerators[n] for phi in rows]
        texts = [_value_texts(phi.numerators[n], phi.denominators[n]) for phi in rows]
        tails = {}
        for key in set(zip(*numerators)):
            shown = list(map(dict.__getitem__, texts, key))
            tails[key] = tail(*(shown if count else shown * 2))
        _write_pieces(prefixes, ends, map(tails.__getitem__, zip(*numerators)))
    if args.json:
        sys.stdout.write("]}\n")
    else:
        print("%d mismatches out of %d entries" % (mismatches, 1 << degree))
    return 1 if mismatches else 0


def _cmd_table(args) -> int:
    degree = args.degree
    phi = characters.restrict(args.char, degree)
    row, d = phi.numerators[degree], phi.denominators[degree]
    if args.basis == "F":
        # phi(F_alpha) sums phi(M_beta) over the refinements beta of alpha,
        # whose masks contain alpha's
        row = _mask_pass(row, degree, True, 1)
    # the walk reaches degree through every degree below it
    for prefixes, ends in _composition_heads(degree, degree, args.json):
        pass
    if args.json:
        sys.stdout.write('{"char": %s, "basis": "%s", "degree": %d, "values": ['
                         % (json.dumps(args.char), args.basis, degree))
        # the first entry is led by no separator
        prefixes[0] = prefixes[0].removeprefix(", ")
        tail = ', "value": "%s"}'
    else:
        tail = "  %s\n"
    tails = {v: tail % text for v, text in _value_texts(row, d).items()}
    _write_pieces(prefixes, ends, map(tails.__getitem__, row))
    if args.json:
        sys.stdout.write("]}\n")
    return 0


def _report_json(report: identities.CheckReport) -> dict:
    payload = report._asdict()
    ce = payload.pop("counterexample")
    if ce is not None:
        payload["counterexample"] = dict(ce._asdict(), left=str(ce.left), right=str(ce.right))
    return payload


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


def _cmd_verify(args) -> int:
    if args.all:
        reports = identities.verify_all(args.depth)
    else:
        reports = [identities.verify(args.check_id, args.depth)]
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
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
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
