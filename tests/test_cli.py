import json

import pytest

from qsymx import cli
from qsymx import exactnum as en
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


def test_decompose_degree_env_default(capsys, monkeypatch):
    monkeypatch.setenv("QSYMX_MAX_DEGREE", "2")
    code, out, _ = run(capsys, "decompose", "--json")
    assert code == 0
    assert json.loads(out)["degree"] == 2


def test_decompose_degree_env_rejects_negative_and_non_integer(capsys, monkeypatch):
    for raw in ("-3", "nine"):
        monkeypatch.setenv("QSYMX_MAX_DEGREE", raw)
        code, out, err = run(capsys, "decompose", "--json")
        assert code == 0
        assert json.loads(out)["degree"] == cli.DEFAULT_MAX_DEGREE
        assert "QSYMX_MAX_DEGREE" in err and "--degree" not in err


def test_degree_cap_warning(capsys, monkeypatch):
    monkeypatch.setenv("QSYMX_MAX_DEGREE", "99")
    code, out, err = run(capsys, "table", "--char", "counit", "--basis", "M", "--degree", "17", "--json")
    assert code == 0
    assert "hard cap" in err
    assert json.loads(out)["degree"] == 16


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
    code, out, _ = run_usage_error(capsys, "nonsense")
    assert code == 2 and out == ""
