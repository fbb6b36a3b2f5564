"""Command-line interface: artifacts, exit codes, determinism."""

import json

from orbivertex import verify
from orbivertex.cli import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_char_csv_table(capsys):
    code, out, _ = run_cli(capsys, "char", "--d", "3", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1].startswith("# config=")
    assert lines[2] == "nu\\mu,(3),(2,1),(1,1,1)"
    assert lines[3] == "(3),1,1,1"
    assert lines[4] == "(2,1),-1,0,2"
    assert lines[5] == "(1,1,1),1,-1,1"


def test_char_json_embeds_config(capsys):
    code, out, _ = run_cli(capsys, "char", "--d", "2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["config"]["subcommand"] == "char"
    assert payload["config"]["d"] == 2
    assert payload["result"]["table"] == [[1, 1], [-1, 1]]


def test_gw_cap_series(capsys):
    code, out, _ = run_cli(capsys, "gw", "--a", "1", "--mu", "1", "--tau", "0")
    assert code == EXIT_OK
    payload = json.loads(out)
    terms = payload["result"]["series"]["terms"]
    lead = [t for t in terms if t["exponents"] == ["-1/1"]]
    assert lead and lead[0]["coeff"] == "1/1"


def test_hurwitz_value_with_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--nu", "2", "--mu", "2", "--r", "2", "--enumerate", "1"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["result"]["value"] == "1/2"
    assert payload["result"]["oracle"] == "1/2"


def test_dt_vertex_and_counts(capsys):
    code, out, _ = run_cli(capsys, "dt", "--a", "1", "--nu", "1", "--enumerate", "4")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["result"]["volume_counts"] == [1, 2, 5, 11, 24]
    assert payload["result"]["vertex"]["denominator"] == [
        {"k": 1, "mult": 1, "sign": 1}
    ]


def test_local_gw_glue_plan(tmp_path, capsys):
    plan = {
        "d": 1,
        "blocks": [
            {"kind": "cap", "a": 1, "mu": [1]},
            {"kind": "cap", "a": 1, "mu": [1]},
        ],
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, out, _ = run_cli(
        capsys, "local-gw", "--glue", str(plan_path), "--format", "csv"
    )
    assert code == EXIT_OK
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "d,b,gamma,value"
    assert rows[1] == "1,0/1,,1/1"
    assert rows[2] == "1,2/1,,1/12"


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "phi", "--d", "3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["result"]["passed"] is True
    assert all(c["passed"] for c in payload["result"]["checks"])


def test_verify_failure_exits_two_and_names_check(monkeypatch, capsys):
    def failing(*, d=None):
        return [{"name": "fine", "passed": True}, {"name": "broken", "passed": False}]

    monkeypatch.setitem(verify.SUITES, "phi", failing)
    code, out, _ = run_cli(capsys, "verify", "--suite", "phi", "--d", "3")
    assert code == EXIT_VERIFY
    result = json.loads(out)["result"]
    assert result["passed"] is False
    assert result["first_failure"] == "broken"


def test_usage_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "gw", "--mu", "1")
    assert code == EXIT_USAGE
    assert "usage error" in err
    code, _, _ = run_cli(capsys, "verify", "--suite", "mystery")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "char", "--d", "3", "--mu", "oops")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "dt", "--a", "1", "--nu", "1", "--q-order", "4")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "gw", "--a", "1", "--mu", "2", "--format", "csv")
    assert code == EXIT_USAGE


def test_cost_guards_exit_three(capsys):
    code, _, err = run_cli(capsys, "char", "--d", "9")
    assert code == EXIT_GUARD
    assert "guard" in err
    code, _, _ = run_cli(capsys, "dt", "--a", "1", "--nu", "1", "--enumerate", "11")
    assert code == EXIT_GUARD


def test_output_file_and_determinism(tmp_path, capsys):
    _, first, _ = run_cli(capsys, "verify", "--suite", "quantum-dim", "--d", "2")
    _, second, _ = run_cli(capsys, "verify", "--suite", "quantum-dim", "--d", "2")
    assert first == second

    out_path = tmp_path / "table.json"
    code = main(["char", "--d", "4", "--out", str(out_path)])
    capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["config"]["out"] == str(out_path)
    assert len(payload["result"]["table"]) == 5
