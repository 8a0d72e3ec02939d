import argparse
import hashlib
import io
import json
import os
import pathlib
import runpy
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from qsymx import characters, cli
from qsymx import exactnum as en
from qsymx.compositions import all_compositions, format_composition, to_index
from qsymx.qsym import element_from_json, qsym_basis, multiply, antipode, to_F


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def test_eval_m_basis(capsys):
    code, out, _ = run(capsys, "eval", "--char", "zeta-minus", "--basis", "M", "--comp", "1,1")
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run(capsys, "eval", "--char", "zeta-plus", "--basis", "M", "--comp", "3")
    assert code == 0 and out.strip() == "0"


def test_eval_f_basis_and_perm(capsys):
    code, out, _ = run(capsys, "eval", "--char", "zeta-minus", "--basis", "F", "--comp", "2")
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run(capsys, "eval", "--char", "zeta-minus", "--perm", "132")
    assert code == 0 and out.strip() == "-1/2"
    code, out, _ = run(capsys, "eval", "--char", "zeta-pow:-2", "--comp", "2,1")
    assert code == 0 and out.strip() == str(en.falling_binomial(-2, 2))


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "--char", "zeta-minus", "--comp", "1,1", "--json")
    assert code == 0
    assert json.loads(out) == {"value": "1/2"}


def test_mul_and_json_round_trip(capsys):
    code, out, _ = run(capsys, "mul", "--basis", "M", "--left", "1", "--right", "1")
    assert code == 0 and out.strip() == "M[2] + 2*M[1,1]"
    code, out, _ = run(capsys, "mul", "--basis", "M", "--left", "()", "--right", "2")
    assert code == 0 and out.strip() == "M[2]"
    code, out, _ = run(capsys, "mul", "--basis", "F", "--left", "1", "--right", "2,1", "--json")
    assert code == 0
    parsed = element_from_json(json.loads(out))
    assert parsed == multiply(qsym_basis("F", (1,)), qsym_basis("F", (2, 1)))


def test_coproduct(capsys):
    code, out, _ = run(capsys, "coproduct", "--basis", "F", "--comp", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "F"
    assert {"left": [1], "right": [1], "coeff": "1"} in payload["terms"]
    assert len(payload["terms"]) == 3


def test_antipode_and_convert(capsys):
    code, out, _ = run(capsys, "antipode", "--basis", "M", "--comp", "1,1", "--json")
    assert code == 0
    assert element_from_json(json.loads(out)) == antipode(qsym_basis("M", (1, 1)))
    code, out, _ = run(capsys, "convert", "--to", "F", "--basis", "M", "--comp", "2", "--json")
    assert code == 0
    assert element_from_json(json.loads(out)) == to_F(qsym_basis("M", (2,)))
    code, out, _ = run(capsys, "convert", "--to", "M", "--basis", "M", "--comp", "2")
    assert code == 0 and out.strip() == "M[2]"


def test_element_commands_match_golden_output(capsys):
    # mul, coproduct, antipode and convert on (), 2,1 and 1,3,2 in both
    # bases, text and --json, byte for byte
    with open(pathlib.Path(__file__).with_name("golden_element_commands.json")) as f:
        golden = json.load(f)
    assert len(golden) == 84
    for case in golden:
        code, out, _ = run(capsys, *case["argv"])
        assert (code, out) == (0, case["stdout"]), case["argv"]


# the exit code and the sha256 of stdout of each command, written while the
# table writer still joined one string per entry
with open(pathlib.Path(__file__).with_name("golden_cli_outputs.json")) as f:
    GOLDEN_OUTPUTS = json.load(f)


def test_golden_cli_outputs_cover_the_named_commands():
    want = [["decompose", "--degree", degree, "--char", char, *flag]
            for degree in ("13", "16") for char in ("zeta", "zeta-inv")
            for flag in ((), ("--json",))]
    want += [["table", "--char", char, "--basis", basis, "--degree", "12", *flag]
             for char in ("zeta-minus", "counit", "zeta-pow:-2") for basis in ("M", "F")
             for flag in ((), ("--json",))]
    assert [case["argv"] for case in GOLDEN_OUTPUTS] == want


@pytest.mark.parametrize("case", GOLDEN_OUTPUTS, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_its_golden_hash(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        case["code"], case["stdout_sha256"])


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--char", "zeta-minus", "--basis", "M", "--degree", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    values = {tuple(entry["comp"]): entry["value"] for entry in payload["values"]}
    assert values == {(2,): "0", (1, 1): "1/2"}


def test_decompose_matches_closed_forms(capsys):
    code, out, _ = run(capsys, "decompose", "--degree", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == 0
    assert len(payload["tables"]) == 1 + 1 + 2 + 4 + 8
    code, out, _ = run(capsys, "decompose", "--degree", "3", "--char", "zeta-inv")
    assert code == 0
    assert "0 mismatches" in out


def _plant_one_wrong(monkeypatch, target, alpha=(1, 2, 3)):
    """Make characters.restrict return the closed form target with a third
    added to its value at alpha; every other character is unchanged."""
    real = characters.restrict
    n, mask = sum(alpha), to_index(alpha)

    def one_wrong(char_id, max_degree):
        phi = real(char_id, max_degree)
        if char_id != target:
            return phi
        # a third changes the row's denominator, so every integer of the
        # row differs from the oracle's while one value does
        tables = [list(row) for row in phi.tables]
        tables[n][mask] += Fraction(1, 3)
        return characters.TruncatedCharacter(max_degree, tables)

    monkeypatch.setattr(characters, "restrict", one_wrong)
    return real


def test_decompose_reports_one_planted_mismatch(capsys, monkeypatch):
    alpha = (1, 2, 3)  # mask 5 in degree 6
    real = _plant_one_wrong(monkeypatch, characters.ZETA_MINUS, alpha)
    plus, minus = real("zeta-plus", 6).value(alpha), real("zeta-minus", 6).value(alpha)
    code, out, _ = run(capsys, "decompose", "--degree", "6", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["mismatches"] == 1
    wrong = [entry for entry in payload["tables"] if not entry["match"]]
    assert wrong == [{
        "comp": list(alpha),
        "plus": str(plus),
        "minus": str(minus),
        "plus_closed": str(plus),
        "minus_closed": str(minus + Fraction(1, 3)),
        "match": False,
    }]
    code, out, _ = run(capsys, "decompose", "--degree", "6")
    assert code == 1
    flagged = [line for line in out.splitlines() if "MISMATCH" in line]
    assert len(flagged) == 1
    assert flagged[0].split()[0] == "1,2,3"
    assert flagged[0].endswith("MISMATCH closed=(%s, %s)" % (plus, minus + Fraction(1, 3)))
    assert out.splitlines()[-1] == "1 mismatches out of 64 entries"


def _whole_table_output(char, degree):
    """The decompose output (exit code, --json text, plain text) as the
    command wrote it when it held the whole table: one dict per entry and
    one json.dumps, or one loop over every row.  Values are read one by one
    through TruncatedCharacter.value."""
    plus, minus = characters.decompose(characters.restrict(char, degree))
    closed_plus = characters.restrict(char + "-plus", degree)
    closed_minus = characters.restrict(char + "-minus", degree)
    rows = []
    for n in range(degree + 1):
        for alpha in all_compositions(n):
            op, om = plus.value(alpha), minus.value(alpha)
            cp, cm = closed_plus.value(alpha), closed_minus.value(alpha)
            ok = op == cp and om == cm
            rows.append((alpha, str(op), str(om), str(cp), str(cm), ok))
    mismatches = sum(1 for row in rows if not row[-1])
    payload = {
        "char": char,
        "degree": degree,
        "mismatches": mismatches,
        "tables": [
            {
                "comp": list(alpha),
                "plus": op,
                "minus": om,
                "plus_closed": cp,
                "minus_closed": cm,
                "match": ok,
            }
            for alpha, op, om, cp, cm, ok in rows
        ],
    }
    lines = ["# even/odd decomposition of %s up to degree %d (oracle vs closed form)"
             % (char, degree)]
    width = max(len(format_composition(r[0])) for r in rows)
    for alpha, op, om, cp, cm, ok in rows:
        flag = "" if ok else "   MISMATCH closed=(%s, %s)" % (cp, cm)
        lines.append("%-*s  plus=%-10s minus=%-10s%s"
                     % (width, format_composition(alpha), op, om, flag))
    lines.append("%d mismatches out of %d entries" % (mismatches, len(rows)))
    return 1 if mismatches else 0, json.dumps(payload) + "\n", "\n".join(lines) + "\n"


def _assert_streams_the_whole_table(capsys, char, degree):
    code, want_json, want_text = _whole_table_output(char, degree)
    argv = ("decompose", "--degree", str(degree), "--char", char)
    assert run(capsys, *argv, "--json")[:2] == (code, want_json), (char, degree)
    assert run(capsys, *argv)[:2] == (code, want_text), (char, degree)
    return code


@pytest.mark.parametrize("char", ["zeta", "zeta-inv"])
def test_decompose_streams_the_whole_table_bytes(capsys, char):
    for degree in (0, 1, 6, 9):
        assert _assert_streams_the_whole_table(capsys, char, degree) == 0


@pytest.mark.parametrize("char", ["zeta", "zeta-inv"])
@pytest.mark.parametrize("side", ["-minus", "-plus"])
def test_decompose_streams_a_planted_mismatch(capsys, monkeypatch, char, side):
    # zeta-plus is 0 on (1, 2, 3), so a wrong value there differs too
    _plant_one_wrong(monkeypatch, char + side)
    assert _assert_streams_the_whole_table(capsys, char, 6) == 1


# chunk sizes in list slots: 1 and 2 are below the pieces of one entry, so
# each chunk holds one entry, and 4096 is the default
CHUNKS = (1, 2, 3, 5, 4096)


def test_decompose_writes_chunks_that_join_to_the_whole_table(capsys, monkeypatch):
    # chunk boundaries inside every degree above 1 for the small chunks,
    # the planted mismatch of degree 6 inside a chunk for the largest
    for chunk in CHUNKS:
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        assert _assert_streams_the_whole_table(capsys, "zeta", 9) == 0, chunk
    _plant_one_wrong(monkeypatch, "zeta-minus")
    for chunk in CHUNKS:
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        assert _assert_streams_the_whole_table(capsys, "zeta", 9) == 1, chunk


def test_chunks_hold_at_most_chunk_pieces_and_one_entry(monkeypatch):
    # a text table writes only its entries, three pieces each
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Writes", (), {"write": writes.append})())
    for chunk in CHUNKS:
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        writes.clear()
        assert cli._cmd_table(argparse.Namespace(
            char="zeta", basis="M", degree=9, json=False)) == 0
        per_write = max(chunk // 3, 1)
        assert len(writes) == -(-256 // per_write), chunk
        assert all(w.count("\n") == per_write for w in writes[:-1]), chunk


def _whole_value_table(char, basis, degree):
    """The table output (--json text, plain text) as the command wrote it
    when it held the whole table: one json.dumps of the payload dict, or
    one "%-*s  %s" line per composition.  Values are read one by one
    through eval_M or eval_F."""
    evaluate = characters.eval_M if basis == "M" else characters.eval_F
    values = [(alpha, str(evaluate(char, alpha))) for alpha in all_compositions(degree)]
    payload = {
        "char": char,
        "basis": basis,
        "degree": degree,
        "values": [{"comp": list(alpha), "value": v} for alpha, v in values],
    }
    width = max(len(format_composition(alpha)) for alpha, _ in values)
    lines = ["%-*s  %s\n" % (width, format_composition(alpha), v) for alpha, v in values]
    return json.dumps(payload) + "\n", "".join(lines)


# None keeps the default _CHUNK; the sizes below 4096 put chunk boundaries
# inside degrees 6 and 9
@pytest.mark.parametrize("chunk", [None, *CHUNKS])
@pytest.mark.parametrize("basis", ["M", "F"])
@pytest.mark.parametrize("char", ["zeta-minus", "zeta-inv-plus", "counit", "zeta-pow:-2"])
def test_table_streams_the_whole_table_bytes(capsys, monkeypatch, char, basis, chunk):
    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK", chunk)
    for degree in (0, 1, 6, 9):
        want_json, want_text = _whole_value_table(char, basis, degree)
        argv = ("table", "--char", char, "--basis", basis, "--degree", str(degree))
        assert run(capsys, *argv, "--json")[:2] == (0, want_json), degree
        assert run(capsys, *argv)[:2] == (0, want_text), degree


def test_composition_texts_walk_matches_all_compositions():
    def joined(walk):
        return [list(map(str.__add__, prefixes, ends)) for prefixes, ends in walk]

    assert joined(cli._composition_pieces(12, "[", ", ", "]", "[]")) == [
        [str(list(alpha)) for alpha in all_compositions(n)] for n in range(13)
    ]
    # unpadded, and padded to the widest name of weight 12, 1,1,...,1
    for width in (0, 23):
        assert joined(cli._composition_pieces(12, "", ",", "", "()", width)) == [
            [format_composition(alpha).ljust(width) for alpha in all_compositions(n)]
            for n in range(13)
        ], width


def test_decompose_degree_env_default(capsys, monkeypatch):
    monkeypatch.setenv("QSYMX_MAX_DEGREE", "2")
    code, out, _ = run(capsys, "decompose", "--json")
    assert code == 0
    assert json.loads(out)["degree"] == 2


def test_decompose_degree_env_rejects_negative_and_non_integer(capsys, monkeypatch):
    # int() alone reads "1_2" as 12 and the Arabic-Indic digit three as 3
    for raw in ("-3", "nine", "1_2", "\u0663"):
        monkeypatch.setenv("QSYMX_MAX_DEGREE", raw)
        code, out, err = run(capsys, "decompose", "--json")
        assert code == 0
        assert json.loads(out)["degree"] == cli.DEFAULT_MAX_DEGREE
        assert "QSYMX_MAX_DEGREE" in err and "--degree" not in err


def test_degree_flags_coerce_no_digit_text(capsys):
    for command in (("decompose",), ("table", "--char", "zeta")):
        for text in ("1_2", "\u0663", "nine"):
            code, out, err = run_usage_error(capsys, *command, "--degree", text)
            assert code == 2 and out == ""
            assert "argument --degree: invalid int value: %r" % text in err
        code, out, err = run_usage_error(capsys, *command, "--degree", "-3")
        assert code == 2 and out == ""
        assert "argument --degree: --degree must be non-negative" in err
    code, out, _ = run(capsys, "decompose", "--degree", "0", "--json")
    assert code == 0 and json.loads(out)["degree"] == 0


def test_every_command_takes_json_last():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._COMMANDS)
    for name, command in sub.choices.items():
        assert command._actions[-1].option_strings == ["--json"], name


def test_degree_cap_warning(capsys, monkeypatch):
    monkeypatch.setenv("QSYMX_MAX_DEGREE", "99")
    code, out, err = run(capsys, "table", "--char", "counit", "--basis", "M", "--degree", "21", "--json")
    assert code == 0
    assert "hard cap" in err
    # the header and the entry count, without parsing 2^19 entries
    assert cli.HARD_DEGREE_CAP == 20
    assert out.startswith('{"char": "counit", "basis": "M", "degree": 20, "values": [')
    assert out.count('{"comp": ') == 1 << 19


def test_verify_single_and_all(capsys):
    code, out, _ = run(capsys, "verify", "--id", "cg8", "--depth", "standard")
    assert code == 0
    assert "cg8" in out and "PASS" in out
    code, out, _ = run(capsys, "verify", "--id", "gessel_rec", "--depth", "small", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["status"] == "pass" and payload[0]["cases"] > 0


def test_verify_failure_exit_code(capsys, monkeypatch):
    real = en.bivariate_catalan

    def mutated(m, n):
        value = real(m, n)
        return value + 1 if (m, n) == (2, 3) else value

    monkeypatch.setattr(en, "bivariate_catalan", mutated)
    code, out, _ = run(capsys, "verify", "--id", "power2", "--depth", "small", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload[0]["status"] == "fail"
    assert "counterexample" in payload[0]


def test_usage_errors_exit_2_with_no_stdout(capsys):
    code, out, _ = run_usage_error(capsys, "eval", "--char", "zeta", "--comp", "0,2")
    assert code == 2 and out == ""
    code, out, _ = run_usage_error(capsys, "eval", "--char", "bogus", "--comp", "1")
    assert code == 2 and out == ""
    code, out, _ = run_usage_error(capsys, "verify", "--id", "nope")
    assert code == 2 and out == ""
    code, out, _ = run_usage_error(capsys, "eval", "--char", "zeta", "--perm", "112")
    assert code == 2 and out == ""
    # int() alone reads the Arabic-Indic digits as 312 and "1_0" as 10
    for text in ("3,x", "1,,2", "\u0663\u0661\u0662", "1_0,1,2,3,4,5,6,7,8,9"):
        code, out, err = run_usage_error(capsys, "eval", "--char", "zeta", "--perm", text)
        assert code == 2 and out == ""
        assert "cannot parse permutation %r" % text in err
    code, out, _ = run_usage_error(capsys, "nonsense")
    assert code == 2 and out == ""


# a bad value of every input flag of every command, after the other required
# arguments of its command, and the start of the reader's message for it
BAD_INPUTS = [
    (("eval", "--comp", "1"), "--char", "nope", "unknown character id 'nope'"),
    (("eval", "--char", "zeta"), "--comp", "x", "cannot parse composition 'x'"),
    (("eval", "--char", "zeta"), "--comp", "0,2", "composition parts must be positive"),
    (("eval", "--char", "zeta"), "--perm", "x", "cannot parse permutation 'x'"),
    (("mul", "--left", "1"), "--right", "x", "cannot parse composition 'x'"),
    (("mul", "--right", "1"), "--left", "x", "cannot parse composition 'x'"),
    (("coproduct",), "--comp", "x", "cannot parse composition 'x'"),
    (("antipode",), "--comp", "x", "cannot parse composition 'x'"),
    (("convert", "--to", "M"), "--comp", "x", "cannot parse composition 'x'"),
    (("table", "--degree", "2"), "--char", "nope", "unknown character id 'nope'"),
    (("table", "--degree", "2"), "--char", "zeta-pow:x", "unknown character id 'zeta-pow:x'"),
    (("table", "--char", "zeta"), "--degree", "x", "invalid int value: 'x'"),
    (("decompose",), "--degree", "x", "invalid int value: 'x'"),
    (("verify",), "--id", "nope", "invalid choice: 'nope'"),
]


@pytest.mark.parametrize("given, flag, bad, message", BAD_INPUTS,
                         ids=["%s %s %s" % (g[0], f, b) for g, f, b, _ in BAD_INPUTS])
def test_a_bad_input_is_a_usage_error_of_its_command_and_flag(capsys, given, flag, bad, message):
    code, out, err = run_usage_error(capsys, *given, flag, bad)
    assert (code, out) == (2, "")
    assert "qsymx %s: error: argument %s: %s" % (given[0], flag, message) in err


def test_python_m_qsymx_runs_the_cli(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qsymx", "eval", "--char", "zeta-minus", "--comp", "1,1"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("qsymx", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == "1/2"


def _fresh_python(*args):
    """A fresh interpreter run with args, qsymx imported from the source
    tree under test; stdout and stderr are pipes."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )


def test_closed_reader_exits_141_without_a_traceback():
    # the reader leaves after 10 bytes of a table larger than the pipe
    # buffer, and before a short output is flushed at all
    proc = _fresh_python("-m", "qsymx", "decompose", "--degree", "12", "--json")
    assert proc.stdout.read(10) == b'{"char": "'
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
    proc = _fresh_python("-m", "qsymx", "table", "--char", "zeta-minus", "--degree", "12",
                         "--json")
    assert proc.stdout.read(10) == b'{"char": "'
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
    proc = _fresh_python("-m", "qsymx", "eval", "--char", "zeta", "--comp", "1")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_in_process_stdout_is_left_alone():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["eval", "--char", "zeta-minus", "--comp", "1,1"])
    assert (code, buf.getvalue()) == (0, "1/2\n")
    assert not buf.closed


def test_import_loads_no_dataclasses_or_typing():
    # the modules that dataclasses and typing pull into a -S interpreter
    proc = _fresh_python(
        "-S", "-c", "import json, sys, qsymx.cli; print(json.dumps(sorted(sys.modules)))"
    )
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    loaded = set(json.loads(out))
    assert {"qsymx.cli", "qsymx.identities"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}
