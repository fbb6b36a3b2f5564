"""Command-line interface: artifacts, exit codes, determinism."""

import inspect
import json
import time
from pathlib import Path

from orbivertex import cli, dt_vertex, hurwitz, verify
from orbivertex.localgw import block_to_data, cap_level0
from orbivertex.partitions import partitions_of
from orbivertex.cli import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)

ROOT = Path(__file__).resolve().parent.parent


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
        capsys, "hurwitz", "--nu", "2", "--mu", "2", "--r", "2", "--enumerate", "2"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["result"]["value"] == "1/2"
    assert payload["result"]["oracle"] == "1/2"


def test_hurwitz_enumerate_bounds_the_oracle_degree(capsys):
    # --enumerate N lets the oracle enumerate degrees up to N only.
    for n in ("0", "1"):
        code, out, err = run_cli(
            capsys, "hurwitz", "--nu", "2", "--mu", "2", "--r", "2", "--enumerate", n
        )
        assert code == EXIT_GUARD and not out
        assert f"--enumerate {n} bounds the factorization oracle to degree {n}, below |nu| = 2" in err


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
    cases = (
        "gw --mu 1",
        "verify --suite mystery",
        "gw --a 1 --mu oops",
        "dt --a 1 --nu 1 --q-order 4",
        "gw --a 1 --mu 2 --format csv",
        # A flag the command does not read is refused, not ignored.
        "char --d 3 --tau 1",
        "gw --a 1 --mu 1 --r 2",
        "local-gw --a 1 --mu 1 --d 2",
        "local-gw --glue P --a 1",
        "verify --suite phi --tau 1",
        # Missing, nonpositive and negative values.
        "char",
        "gw --a 0 --mu 1",
        "verify --suite correspondence --a 2 --d 2 --lambda-order -3",
        "verify --suite burnside --r -1",
        "verify --suite phi --d 0",
    )
    for case in cases:
        code, out, err = run_cli(capsys, *case.split())
        assert code == EXIT_USAGE, case
        assert err.startswith("usage error"), case
        assert "Traceback" not in err and not out, case
        if "oops" in case:
            assert "cannot parse partition 'oops'" in err


def test_tampered_plan_exits_three(tmp_path, capsys):
    def tampered(edit):
        block = block_to_data(cap_level0(1, (1,), lam_max=2))
        edit(block["entries"][0]["series"])
        return block

    cases = [
        (lambda s: s["terms"].append({"exponents": ["-7/1"], "coeff": "1/1"}), "below the declared floor"),
        (lambda s: s.update(floors=[]), "'floors' has 0 entries, need 1"),
        (lambda s: s.pop("floors"), "series data lacks the field 'floors'"),
        (lambda s: s["terms"].append({"exponents": [], "coeff": "1/1"}), "need one entry per variable"),
        (lambda s: s["terms"][0]["exponents"].append("0/1"), "need one entry per variable"),
        (lambda s: s["terms"].append(dict(s["terms"][0])), "'terms' repeat the exponents"),
    ]
    for edit, message in cases:
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"d": 1, "blocks": [tampered(edit)]}))
        code, out, err = run_cli(capsys, "local-gw", "--glue", str(plan_path))
        assert code == EXIT_GUARD, message
        assert message in err and "Traceback" not in err
        assert not out


def test_plan_cost_guard_exits_three(tmp_path, capsys):
    # Every cap and cap-family block is priced before any block is built:
    # the family at a = 32 would take about 13 s.
    plan = {"d": 2, "blocks": [{"kind": "cap", "a": 1, "mu": [1, 1]}, {"kind": "cap-family", "a": 32, "d": 2}]}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "local-gw", "--glue", str(plan_path))
    assert time.perf_counter() - start < 1
    assert code == EXIT_GUARD and not out
    assert err.startswith("cost guard: a=32, d=2 at lambda order 5 and x order 4 is estimated at")
    plan["blocks"][1] = {"kind": "cap", "a": 32, "mu": [1, 1]}
    plan_path.write_text(json.dumps(plan))
    assert run_cli(capsys, "local-gw", "--glue", str(plan_path))[0] == EXIT_GUARD
    # The benchmark's one-box plan is under the budget and runs.
    assert run_cli(capsys, "local-gw", "--glue", str(ROOT / "bench" / "plans" / "one_box.json"))[0] == EXIT_OK


def test_plan_missing_fields_exit_three(tmp_path, capsys):
    # A plan, a block spec, a block entry and a serialized block, each
    # without one field it needs.
    block = block_to_data(cap_level0(1, (1,), lam_max=2))
    no_series = dict(block, entries=[{"boundary": [[1]]}])
    no_slots = {k: v for k, v in block.items() if k != "slots"}
    cases = [
        ({"blocks": [block]}, "the gluing plan lacks the field 'd'"),
        ({"d": 1, "blocks": [{"kind": "cap", "a": 1}]}, "a 'cap' block lacks the field 'mu'"),
        ({"d": 1, "blocks": [no_series]}, "a block entry lacks the field 'series'"),
        ({"d": 1, "blocks": [no_slots]}, "a local block lacks the field 'slots'"),
    ]
    for plan, message in cases:
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        code, out, err = run_cli(capsys, "local-gw", "--glue", str(plan_path))
        assert code == EXIT_GUARD, message
        assert message in err and "Traceback" not in err
        assert not out


def test_dt_vertex_suite_names_a_wrong_vertex(monkeypatch, capsys):
    # Doubling the closed vertex of one shape fails that shape's check and
    # no other.
    real = dt_vertex.reduced_vertex_closed

    def wrong(nu, a):
        return real(nu, a) * 2 if (nu, a) == ((2, 1), 2) else real(nu, a)

    monkeypatch.setattr(dt_vertex, "reduced_vertex_closed", wrong)
    code, out, _ = run_cli(capsys, "verify", "--suite", "dt-vertex", "--a", "2")
    assert code == EXIT_VERIFY
    result = json.loads(out)["result"]
    assert [c["name"] for c in result["checks"] if not c["passed"]] == ["dt-vertex-a2-nu(2,1)"]
    assert result["first_failure"] == "dt-vertex-a2-nu(2,1)"
    assert len(result["checks"]) == 11


def test_cost_guards_exit_three(capsys):
    code, _, err = run_cli(capsys, "char", "--d", "9")
    assert code == EXIT_GUARD
    assert "guard" in err
    for argv in ("dt --a 1 --nu 1 --enumerate 11", "verify --suite dt-vertex --enumerate 11"):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == EXIT_GUARD and not out, argv
        assert err == "cost guard: box enumeration is guarded to 10 added boxes\n", argv
    # The closed vertex is priced before it is built: dt --a 3000 --nu 1
    # would run for about 30 s.
    for argv in ("dt --a 3000 --nu 1", "verify --suite dt-vertex --a 500 --d 1 --enumerate 2"):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == EXIT_GUARD and not out, argv
        assert err.startswith("cost guard: the closed vertex at a="), argv
    # Refused before any work: it would run for about 13 s.
    code, out, err = run_cli(capsys, "gw", "--a", "32", "--mu", "1,1")
    assert code == EXIT_GUARD and not out
    assert err.startswith("cost guard: a=32, d=2")


def test_transport_cost_estimate():
    # 8 rows + d M (x + 1)/16 + phi(4a) (4 T rows + a)/80 + 4 (p(d) - 1) T^2/5,
    # each term rounded up, with rows the (lam + d + 1) p(d) lam orders of
    # the profiles, M = C(a - 1 + x, x) the color multisets the images and
    # caps walk and T = ceil(M/a) the monomials of an x part, as the library
    # would run it at the default windows.
    def up(n, k):
        return -(-n // k)

    assert cli.transport_cost(12, 1, 5, 4) == 8 * 7 + up(1365 * 5, 16) + up(16 * (4 * 114 * 7 + 12), 80) == 1124
    assert cli.transport_cost(4, 4, 5, 4) == (
        8 * 50 + up(4 * 35 * 5, 16) + up(8 * (4 * 9 * 50 + 4), 80) + up(4 * 81 * 4, 5)
    )
    assert cli.transport_cost(2, 9, 5, 4) == (
        8 * 450 + up(9 * 5 * 5, 16) + up(4 * (4 * 3 * 450 + 2), 80) + up(4 * 9 * 29, 5)
    )
    # The empty profile walks no multiset: its x part is the constant 1.
    assert cli.transport_cost(1, 0, 0, 10**9) == 8 + up(2 * 5, 80) == 9
    # Past the budget the estimate is a lower bound over it, and huge flags
    # are priced without computing their large factors.
    assert cli.COST_BUDGET < cli.transport_cost(24, 4, 5, 4) <= (
        8 * 50 + up(4 * 17550 * 5, 16) + up(32 * (4 * 732 * 50 + 24), 80) + up(4 * 732**2 * 4, 5)
    )
    huge_flags = (
        (10**9, 1, 5, 4), (10**9, 1, 5, 0), (10**6, 0, 0, 10**6), (2, 10**5, 0, 0), (1, 1, 10**12, 0), (1, 1, 5, 10**12)
    )
    for huge in huge_flags:
        assert cli.transport_cost(*huge) > cli.COST_BUDGET, huge


def test_transport_cost_admits_the_reach_points_and_refuses_large_sizes(capsys):
    # The correspondence reach points are under the budget at the default
    # windows, up to (32, 1) and (20, 2), which take under 2 s cold; (24, 4)
    # takes about 18 s and (1, 34), whose table alone takes minutes, and
    # both exit 3 at once.
    reach = ((3, 3), (4, 2), (2, 5), (2, 12), (4, 8), (8, 5), (12, 3), (10, 4))
    for a, d in reach + ((16, 2), (20, 1), (24, 1), (20, 2), (32, 1)):
        assert cli.transport_cost(a, d, 5, 4) <= cli.COST_BUDGET, (a, d)
    for a, d in ((24, 4), (1, 34)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *f"verify --suite correspondence --a {a} --d {d}".split())
        assert time.perf_counter() - start < 1
        assert code == EXIT_GUARD and not out
        assert err.startswith(f"cost guard: a={a}, d={d} at lambda order 5 and x order 4 is estimated at")


def test_field_table_guard_exits_three(capsys):
    # gw --a 6000 costs 4.8e5, under COST_BUDGET, but Q(zeta_24000) would
    # keep 24000 * 6400 coordinates, about 1.2 GB: refused before the field
    # is built.  Every a <= 1000 stays under the field-table budget.
    from orbivertex.gw_vertex import r_bullet_tau

    assert cli.transport_cost(6000, 1, 5, 0) <= cli.COST_BUDGET
    for argv in ("gw --a 6000 --mu 1 --x-order 0", "verify --suite correspondence --a 6000 --d 1 --x-order 0"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv.split())
        assert time.perf_counter() - start < 1, argv
        assert code == EXIT_GUARD and not out, argv
        assert err == (
            "cost guard: a=6000 needs a table of 153600000 coordinates for the field Q(zeta_24000), "
            "over the budget of 10000000\n"
        ), argv
    args = cli.build_parser().parse_args("gw --a 1 --mu 1 --x-order 0".split())
    for a in (998, 1000):
        cli._require_budget(args, a, 1, r_bullet_tau)


def test_vertex_cost_estimate():
    # a * (volume + 1)^2 * p(n)^2 * C(a - 1 + n, n).
    assert cli.vertex_cost(1000, 1) == 1000 * 1000 == cli.COST_BUDGET
    assert cli.vertex_cost(3, 4, 8) == 3 * 81 * 25 * 15
    assert cli.vertex_cost(6, 3, 8) == 6 * 81 * 9 * 56
    assert cli.vertex_cost(1, 0) == 1
    # Huge flags are priced at once, as a lower bound over the budget.
    for huge in ((10**12, 1, 0), (1, 10**6, 0), (2, 10**5, 10)):
        assert cli.vertex_cost(*huge) > cli.COST_BUDGET, huge


def test_enumeration_cost_counts_the_configurations():
    # The configurations the dt-vertex suite enumerates: every leg with
    # |nu| <= d (the empty leg too), through volume V.
    for d, volume in ((0, 0), (2, 2), (3, 5), (4, 8)):
        enumerated = sum(
            sum(dt_vertex.volume_counts(nu, volume)) for n in range(d + 1) for nu in partitions_of(n)
        )
        assert cli.enumeration_cost(d, volume) == enumerated, (d, volume)
    assert cli.enumeration_cost(2, 2) == 5 + 8 + 9 + 9
    # Past the budget the estimate is a lower bound over it.
    assert cli.enumeration_cost(13, 8) > cli.COST_BUDGET
    # At volume 0 each leg has only the empty configuration, and a huge
    # size is priced by the number of legs without listing them.
    for d in range(7):
        assert cli.enumeration_cost(d, 0) == sum(len(partitions_of(n)) for n in range(d + 1)), d
    assert cli.enumeration_cost(10**6, 0) > cli.COST_BUDGET


def test_vertex_cost_guard_exits_three(monkeypatch, capsys):
    # dt --a 2 --nu 2,1 costs 2 * 9 * 4 = 72; the suite at a = 2, d = 2 and
    # volume 2 costs 2 * 9 * 4 * 3 = 216 for the closed vertex and 31 for
    # the box enumeration.
    monkeypatch.setattr(cli, "COST_BUDGET", 71)
    code, out, err = run_cli(capsys, "dt", "--a", "2", "--nu", "2,1")
    assert code == EXIT_GUARD and not out
    assert err.startswith("cost guard: the closed vertex at a=2, size 3 and volume 0 is estimated at 72")
    monkeypatch.setattr(cli, "COST_BUDGET", 246)
    argv = "verify --suite dt-vertex --a 2 --d 2 --enumerate 2"
    code, out, err = run_cli(capsys, *argv.split())
    assert code == EXIT_GUARD and not out
    assert err.startswith(
        "cost guard: the closed vertex at a=2, size 2 and volume 2, with the box enumeration "
        "of every leg up to that size, is estimated at 247"
    )
    monkeypatch.setattr(cli, "COST_BUDGET", 247)
    assert run_cli(capsys, *argv.split())[0] == EXIT_OK


def test_box_enumeration_at_a1_is_refused_at_once(capsys):
    # The closed vertex costs 8.3e5 here, but the 1.6e6 configurations
    # over the legs of size <= 13 would take about 20 s to enumerate.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *"verify --suite dt-vertex --a 1 --d 13".split())
    assert time.perf_counter() - start < 1
    assert code == EXIT_GUARD and not out
    assert err.startswith("cost guard: the closed vertex at a=1, size 13 and volume 8, with the box enumeration")


def test_transport_cost_guard_exits_three(monkeypatch, capsys):
    # gw --a 2 --mu 2 at lam 5, x 4 costs 8 * 16 + 4 + 10 + 8 = 150; verify
    # at (a, d) = (2, 2) and the caps too.
    monkeypatch.setattr(cli, "COST_BUDGET", 149)
    for argv in (
        "gw --a 2 --mu 2",
        "local-gw --a 2 --mu 2",
        "local-gw --a 2 --d 2",
        "verify --suite correspondence --a 2 --d 2",
    ):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == EXIT_GUARD, argv
        assert err.startswith("cost guard: a=2, d=2 at lambda order 5 and x order 4 is estimated at 150")
        assert not out
    # The flags move the estimate: one lam order less is under the budget.
    code, _, _ = run_cli(capsys, "gw", "--a", "2", "--mu", "2", "--lambda-order", "4")
    assert code == EXIT_OK
    monkeypatch.setattr(cli, "COST_BUDGET", 150)
    code, _, _ = run_cli(capsys, "verify", "--suite", "correspondence", "--a", "2", "--d", "2")
    assert code == EXIT_OK


def test_oracle_tuple_guard_exits_three(monkeypatch, capsys):
    # hurwitz --nu 2,1 --mu 2,1 --r 2 enumerates 27 tuples; the burnside
    # suite at --d 3 --r 2 at most 27 too.  A limit of 26 refuses both.
    monkeypatch.setattr(hurwitz, "ORACLE_TUPLE_LIMIT", 26)
    code, _, err = run_cli(
        capsys, "hurwitz", "--nu", "2,1", "--mu", "2,1", "--r", "2", "--enumerate", "3"
    )
    assert code == EXIT_GUARD
    assert "r=2, d=3 would enumerate 27 tuples" in err
    code, _, err = run_cli(capsys, "verify", "--suite", "burnside", "--d", "3", "--r", "2")
    assert code == EXIT_GUARD
    assert "r=2, d=3 would enumerate 27 tuples" in err


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


def test_every_suite_takes_only_keywords_with_defaults():
    # verify reads each suite's flags and defaults from __kwdefaults__,
    # through cli._defaults.
    for name, suite in verify.SUITES.items():
        params = inspect.signature(suite).parameters.values()
        assert all(p.kind is p.KEYWORD_ONLY and p.default is not p.empty for p in params), name


def test_defaults_reads_positional_and_keyword_only_parameters():
    from orbivertex.gw_vertex import r_bullet_tau

    assert cli._defaults(r_bullet_tau) == {"lam_max": 5, "x_deg_max": 4}
    assert cli._defaults(verify.abelian) == {"d": 3, "lambda_order": 4, "tau": 0}
