"""Command-line interface: exact tables, series, and verification suites.

Every run echoes its full configuration and the package version into the
output so results are reproducible; all values are exact (rationals as
"num/den" strings, cyclotomic numbers as coefficient vectors over a
declared root-of-unity order).  Exit codes: 0 success, 1 usage error,
2 verification failure, 3 cost guard or internal precondition.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from itertools import accumulate
from math import gcd

from . import __version__
from .characters import chi
from .dt_vertex import box_counting_series, reduced_vertex_closed, volume_counts
from .gw_vertex import r_bullet_tau
from .hurwitz import ORACLE_DEGREE_LIMIT, burnside_value, factorization_oracle
from .localgw import (
    _partition_label,
    block_to_data,
    cap_family,
    cap_level0,
    emit_table,
    run_glue_plan,
)
from .partitions import check_partition, partition_counts, partitions_of
from .series import PrecisionError, _frac_str
from .verify import DEFAULT_DT_VERTEX_MODULI, SUITES

CHAR_DEGREE_LIMIT = 8
BOX_LIMIT = 10
# gw, local-gw --mu/--d and verify --suite correspondence --a/--d refuse a
# transport_cost over this budget.  At the default windows (a, d) = (12, 1)
# costs 1.5e5 (under 2 s cold) and (20, 1) costs 2.0e6 (about 21 s).  dt
# and verify --suite dt-vertex refuse a vertex_cost over it: dt --a 1000
# --nu 1 costs 1.0e6 (about 3 s cold).
COST_BUDGET = 10**6

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_GUARD = 3


class UsageError(Exception):
    """Bad flags or flag combinations."""


class GuardError(Exception):
    """A cost guard refused the requested problem size."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_partition(text: str) -> tuple:
    text = text.strip()
    if text in ("", "0", "()"):
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse partition {text!r}") from exc
    try:
        return check_partition(parts)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _config_echo(args) -> dict:
    skip = {"func"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def _write_output(text: str, out_path):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, result: dict) -> int:
    payload = {
        "version": __version__,
        "config": _config_echo(args),
        "result": result,
    }
    _write_output(json.dumps(payload, sort_keys=True, indent=2), args.out)
    return EXIT_OK


def _emit_csv(args, table_text: str) -> int:
    header = (
        f"# version={__version__}\n"
        f"# config={json.dumps(_config_echo(args), sort_keys=True)}\n"
    )
    _write_output(header + table_text, args.out)
    return EXIT_OK


# -- subcommands ------------------------------------------------------------


def _windows(args) -> dict:
    # The window flags that were set, as library keywords; the library
    # signatures hold the defaults.
    named = {"lam_max": args.lambda_order, "x_deg_max": args.x_order}
    return {key: value for key, value in named.items() if value is not None}


def _priced(cost: int, values, last: int) -> int:
    # cost times the value at index last of the nondecreasing sequence
    # values, read no further than the product passing COST_BUDGET.
    return cost * next(v for i, v in enumerate(values) if i == last or cost * v > COST_BUDGET)


def _binomials(n: int, k: int):
    # C(n, j) for j = 0 .. k, nondecreasing while k <= n/2.
    return accumulate(range(1, k + 1), lambda c, j: c * (n + 1 - j) // j, initial=1)


def transport_cost(a: int, d: int, lam: int, x: int) -> int:
    """Estimated work of a profile table: the field degree phi(4a) times
    the C(a - 1 + x, x) monomials in the x variables, the lam + d + 1
    orders of a lam window that starts at lam^-d, and the p(d) profiles.
    Exact up to COST_BUDGET, and past it a lower bound over the budget:
    each factor is read off a nondecreasing sequence (p(n); C(n, j) for
    j <= n/2; the running count of odd j < 4a prime to a) that stops once
    the product passes the budget, so a huge flag is priced at once."""
    k = min(a - 1, x)
    cost = _priced(lam + d + 1, partition_counts(), d)
    cost = _priced(cost, _binomials(a - 1 + x, k), k)
    return _priced(cost, accumulate(gcd(j, a) == 1 for j in range(1, 4 * a, 2)), 2 * a - 1)


def vertex_cost(a: int, n: int, volume: int = 0) -> int:
    """Estimated work of the closed reduced vertex of a shape of size n,
    expanded through the given volume: the a exponents of each of at most
    C(a - 1 + n, n) color monomials, in each of the p(n) power-sum products
    of its Schur expansion, for each of the p(n) rows of the character table
    of size n; times (volume + 1)^2 for the expansion in q and the product
    with the empty-leg series.  Exact up to COST_BUDGET, and past it a lower
    bound over the budget, as in transport_cost."""
    k = min(a - 1, n)
    cost = _priced(a * (volume + 1) ** 2, partition_counts(), n)
    cost = _priced(cost, partition_counts(), n)
    return _priced(cost, _binomials(a - 1 + n, k), k)


def _require_budget(args, d: int, fn, lam: str = "lam_max", x: str = "x_deg_max"):
    # Refuse a run whose transport_cost, at the window flags or else at the
    # defaults of the library call fn, is over COST_BUDGET.
    params = inspect.signature(fn).parameters
    lam_max = params[lam].default if args.lambda_order is None else args.lambda_order
    x_deg_max = params[x].default if args.x_order is None else args.x_order
    cost = transport_cost(args.a, d, lam_max, x_deg_max)
    if cost > COST_BUDGET:
        raise GuardError(
            f"a={args.a}, d={d} at lambda order {lam_max} and x order {x_deg_max} is "
            f"estimated at {cost} or more, over the budget of {COST_BUDGET}"
        )


def _require_vertex_budget(a: int, n: int, volume: int):
    # Refuse a box enumeration past BOX_LIMIT, then a closed vertex whose
    # vertex_cost is over COST_BUDGET, before either is built.
    if volume > BOX_LIMIT:
        raise GuardError(f"box enumeration is guarded to {BOX_LIMIT} added boxes")
    cost = vertex_cost(a, n, volume)
    if cost > COST_BUDGET:
        raise GuardError(
            f"the closed vertex at a={a}, size {n} and volume {volume} is estimated at "
            f"{cost} or more, over the budget of {COST_BUDGET}"
        )


def cmd_char(args) -> int:
    d = args.d
    if d > CHAR_DEGREE_LIMIT:
        raise GuardError(f"character tables are guarded to d <= {CHAR_DEGREE_LIMIT}")
    rows = partitions_of(d)
    if args.format == "csv":
        lines = ["nu\\mu," + ",".join(_partition_label(mu) for mu in rows)]
        for nu in rows:
            lines.append(
                _partition_label(nu)
                + ","
                + ",".join(str(chi(nu, mu)) for mu in rows)
            )
        return _emit_csv(args, "\n".join(lines) + "\n")
    result = {
        "partitions": [list(p) for p in rows],
        "table": [[chi(nu, mu) for mu in rows] for nu in rows],
    }
    return _emit_json(args, result)


def cmd_hurwitz(args) -> int:
    nu = args.nu
    mu = args.mu
    if sum(nu) != sum(mu):
        raise UsageError("profiles must have equal size")
    if sum(nu) > CHAR_DEGREE_LIMIT:
        raise GuardError(f"hurwitz values are guarded to degree {CHAR_DEGREE_LIMIT}")
    r = args.r or 0
    chi_euler = len(nu) + len(mu) - r
    value = burnside_value(chi_euler, nu, mu)
    result = {
        "nu": list(nu),
        "mu": list(mu),
        "r": r,
        "chi_euler": chi_euler,
        "value": _frac_str(value),
    }
    if args.enumerate is not None:
        if sum(nu) > args.enumerate:
            raise GuardError(
                f"--enumerate {args.enumerate} bounds the factorization oracle to degree "
                f"{args.enumerate}, below |nu| = {sum(nu)}"
            )
        if sum(nu) > ORACLE_DEGREE_LIMIT:
            raise GuardError(
                f"the factorization oracle is guarded to degree {ORACLE_DEGREE_LIMIT}"
            )
        result["oracle"] = _frac_str(factorization_oracle(chi_euler, nu, mu))
    return _emit_json(args, result)


def cmd_gw(args) -> int:
    _require_budget(args, sum(args.mu), r_bullet_tau)
    series = r_bullet_tau(args.a, args.mu, args.tau or 0, **_windows(args)).series
    return _emit_json(args, {"series": series.to_data()})


def cmd_dt(args) -> int:
    _require_vertex_budget(args.a, sum(args.nu), args.enumerate or 0)
    result = {"vertex": reduced_vertex_closed(args.nu, args.a).to_data()}
    if args.enumerate is not None:
        n = args.enumerate
        result["enumerator"] = box_counting_series(args.nu, args.a, n).to_data()
        result["volume_counts"] = volume_counts(args.nu, n)
    return _emit_json(args, result)


def cmd_local_gw(args) -> int:
    if (args.a is None) == (args.glue is None):
        raise UsageError("local-gw takes --a with --mu or --d, and not with --glue")
    if args.glue is not None:
        with open(args.glue, "r", encoding="utf-8") as fh:
            plan = json.load(fh)
        block = run_glue_plan(plan, **_windows(args))
    elif args.mu is not None:
        _require_budget(args, sum(args.mu), cap_level0)
        block = cap_level0(args.a, args.mu, **_windows(args))
    else:
        _require_budget(args, args.d, cap_family)
        block = cap_family(args.a, args.d, **_windows(args))
    if args.format == "csv":
        return _emit_csv(args, emit_table(block))
    return _emit_json(args, block_to_data(block))


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    takes = inspect.signature(suite).parameters
    own = {"subcommand", "func", "suite", "out"}
    flags = {k: v for k, v in vars(args).items() if k not in own and v is not None}
    refused = [name for name in flags if name not in takes]
    if refused:
        listed = ", ".join(_flag(name) for name in refused)
        raise UsageError(f"suite {args.suite!r} does not take {listed}")
    if args.suite == "burnside" and flags.get("d", 0) > ORACLE_DEGREE_LIMIT:
        raise GuardError(
            f"the factorization oracle is guarded to degree {ORACLE_DEGREE_LIMIT}"
        )
    if args.suite == "correspondence" and ("a" in flags) != ("d" in flags):
        raise UsageError("correspondence takes --a and --d together, or neither")
    if args.suite == "correspondence" and "a" in flags:
        _require_budget(args, args.d, suite, "lambda_order", "x_order")
    if args.suite == "dt-vertex":
        grid = {name: p.default for name, p in takes.items()} | flags
        _require_vertex_budget(grid["a"] or max(DEFAULT_DT_VERTEX_MODULI), grid["d"], grid["enumerate"])
    checks = suite(**flags)
    passed = all(c["passed"] for c in checks)
    first_failure = next((c["name"] for c in checks if not c["passed"]), None)
    result = {"suite": args.suite, "passed": passed, "checks": checks}
    if first_failure is not None:
        result["first_failure"] = first_failure
    _emit_json(args, result)
    return EXIT_OK if passed else EXIT_VERIFY


# -- parser -------------------------------------------------------------------


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    return parse


_positive = _int_at_least(1, "a positive integer")
_nonnegative = _int_at_least(0, "a nonnegative integer")

# Every flag of every subcommand, by destination, with its add_argument keywords.
_FLAGS = {
    "a": {"type": _positive, "help": "cyclic quotient order"},
    "d": {"type": _positive, "help": "degree / size bound"},
    "mu": {"type": _parse_partition, "help": "partition, comma-separated parts"},
    "nu": {"type": _parse_partition, "help": "partition, comma-separated parts"},
    "tau": {"type": int, "help": "framing parameter"},
    "r": {"type": _nonnegative, "help": "number of simple branch points"},
    "lambda_order": {"type": _nonnegative, "help": "series order in lam"},
    "x_order": {"type": _nonnegative, "help": "total x-degree bound"},
    "enumerate": {"type": _nonnegative, "help": "brute-force enumeration size"},
    "glue": {"help": "JSON gluing plan file"},
    "format": {"choices": ("json", "csv"), "default": "json", "help": "output format"},
    "out": {"help": "output file path (default stdout)"},
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _suite_flags() -> list:
    # The flags of verify: every parameter of some suite, in _FLAGS order.
    names = {name for suite in SUITES.values() for name in inspect.signature(suite).parameters}
    return [name for name in _FLAGS if name in names]


def _add(target, *names, **extra):
    for name in names:
        target.add_argument(_flag(name), dest=name, **_FLAGS[name], **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orbivertex", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("char", help="symmetric group character table")
    _add(sp, "d", required=True)
    _add(sp, "format", "out")
    sp.set_defaults(func=cmd_char)

    sp = subs.add_parser("hurwitz", help="weighted branched-cover count")
    _add(sp, "nu", "mu", required=True)
    _add(sp, "r", "enumerate", "out")
    sp.set_defaults(func=cmd_hurwitz)

    sp = subs.add_parser("gw", help="framed generating series for one profile")
    _add(sp, "a", "mu", required=True)
    _add(sp, "tau", "lambda_order", "x_order", "out")
    sp.set_defaults(func=cmd_gw)

    sp = subs.add_parser("dt", help="reduced box-counting vertex in closed form")
    _add(sp, "a", "nu", required=True)
    _add(sp, "enumerate", "out")
    sp.set_defaults(func=cmd_dt)

    sp = subs.add_parser("local-gw", help="local invariant blocks and gluing")
    _add(sp.add_mutually_exclusive_group(required=True), "mu", "d", "glue")
    _add(sp, "a", "lambda_order", "x_order", "format", "out")
    sp.set_defaults(func=cmd_local_gw)

    sp = subs.add_parser("verify", help="run a named verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(SUITES))
    _add(sp, *_suite_flags(), "out")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardError as exc:
        print(f"cost guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (PrecisionError, ValueError, OSError) as exc:
        print(f"internal guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
