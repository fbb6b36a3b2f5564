"""Command-line interface: exact tables, series, and verification suites.

Every run echoes its full configuration and the package version into the
output so results are reproducible; all values are exact (rationals as
"num/den" strings, cyclotomic numbers as coefficient vectors over a
declared root-of-unity order).  Exit codes: 0 success, 1 usage error,
2 verification failure, 3 cost guard or internal precondition.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import accumulate, count
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
    check_block_spec,
    emit_table,
    plan_blocks,
    run_glue_plan,
)
from .partitions import check_partition, hooks, partition_counts, partitions_of
from .series import PrecisionError, _frac_str
from .verify import DEFAULT_DT_VERTEX_MODULI, SUITES

CHAR_DEGREE_LIMIT = 8
BOX_LIMIT = 10
# gw, local-gw --mu/--d and verify --suite correspondence --a/--d refuse a
# transport_cost over this budget.  At the default windows, against cold
# correspondence reports on a 2-core VM: (1, 27) costs 8.1e5 (3.9 s), (1, 28)
# 1.03e6 (4.8 s), (24, 3) 9.1e5 (9.6 s), (28, 2) 1.07e6 (10.3 s), (24, 4)
# 1.8e6 (17.6 s), (32, 2) 2.3e6 (22.5 s), (20, 2) 1.7e5 (1.45 s) and (48, 1)
# 1.9e5 (1.8 s).  dt and verify --suite dt-vertex refuse a vertex_cost over
# it: dt --a 1000 --nu 1 costs 1.0e6 (about 3 s cold).
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


def _priced(cost: int, values, last: int, scale: int = 1) -> int:
    # cost times the value at index last of the nondecreasing sequence
    # values, read no further than the product passing scale * COST_BUDGET.
    limit = scale * COST_BUDGET
    return cost * next(v for i, v in enumerate(values) if i == last or cost * v > limit)


def _binomials(n: int, k: int):
    # C(n, j) for j = 0 .. k, nondecreasing while k <= n/2.
    return accumulate(range(1, k + 1), lambda c, j: c * (n + 1 - j) // j, initial=1)


def transport_cost(a: int, d: int, lam: int, x: int) -> int:
    """Estimated work, in units of about 10 microseconds, of the profile
    table and the framing-zero transports of the p(d) profiles of size d.
    Each profile costs 8 units for each of the lam + d + 1 orders of a lam
    window that starts at lam^-d (its sine product, the joins and the
    comparison).  The caps and the closed power-sum images of the parts
    walk the M = C(a - 1 + x, x) color multisets of x-degree <= x, (x + 1)/16
    of a unit per multiset for each of the d part sizes, and keep only the
    T = ceil(M/a) of one total color mod a.  So an x part holds about T
    monomials: multiplying it by the sine product costs 1/20 of a unit per
    order for each of its phi(4a) T field coordinates, and the product of
    two x parts costs 4/5 of a unit per pair of monomials for each of the
    p(d) - 1 profiles with two or more parts (both sides).  Q(zeta_4a) and
    its table of 4a powers of zeta cost a phi(4a)/80 units.  Exact up to
    COST_BUDGET (each term rounded up), and past it a lower bound over the
    budget: each factor is read off a nondecreasing sequence (p(n) and
    p(n) - 1; C(n, j) for j <= n/2; the running count of odd j < 4a prime
    to a) that stops once the product passes the budget times the term's
    divisor, so a huge flag is priced at once."""
    rows = _priced(lam + d + 1, partition_counts(), d)
    k = min(a - 1, x)
    monomials = _priced(1, _binomials(a - 1 + x, k), k, 16)
    # The x part of the empty profile is the constant 1.
    per_class = -(-monomials // a) if d else 1
    walk = -(-d * monomials * (x + 1) // 16)
    phi = accumulate(gcd(j, a) == 1 for j in range(1, 4 * a, 2))
    coords = -(-_priced(4 * per_class * rows + a, phi, 2 * a - 1, 80) // 80)
    pairs = -(-_priced(4 * per_class**2, (p - 1 for p in partition_counts()), d, 5) // 5)
    return 8 * rows + walk + coords + pairs


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


def _leg_configurations(volume: int):
    # The running number of box configurations with at most volume added
    # boxes over the legs nu with |nu| <= 0, 1, 2, ...: over one leg they
    # count sum_(v <= volume) [q^v] M(q) / prod_(cells of nu) (1 - q^hook),
    # with M(q) = prod_k (1 - q^k)^-k the MacMahon function.
    macmahon = [k for k in range(1, volume + 1) for _ in range(k)]
    total = 0
    for n in count():
        for nu in partitions_of(n):
            coeffs = [1] + [0] * volume
            for h in macmahon + [h for h in hooks(nu) if h <= volume]:
                for v in range(h, volume + 1):
                    coeffs[v] += coeffs[v - h]
            total += sum(coeffs)
        yield total


def enumeration_cost(d: int, volume: int) -> int:
    """Estimated work of the box enumeration of the dt-vertex suite: the
    number of configurations with at most volume added boxes over every leg
    nu with |nu| <= d.  Exact up to COST_BUDGET, and past it a lower bound
    over the budget, as in transport_cost.  Every leg has the empty
    configuration, so the number of legs, sum_(n <= d) p(n), is priced
    first, without listing a partition; it is exact at volume 0."""
    legs = _priced(1, accumulate(partition_counts()), d)
    if legs > COST_BUDGET:
        return legs
    return _priced(1, _leg_configurations(volume), d)


def _defaults(fn) -> dict:
    # {name: default} for every parameter of the plain function fn that has
    # a default, positional or keyword-only; a wrapper that names what it
    # wraps in __wrapped__ (functools.wraps) is read through to it.
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    code = fn.__code__
    positional = code.co_varnames[: code.co_argcount]
    values = fn.__defaults__ or ()
    return dict(zip(positional[len(positional) - len(values) :], values)) | (fn.__kwdefaults__ or {})


def _require_budget(args, a: int, d: int, fn, lam: str = "lam_max", x: str = "x_deg_max"):
    # Refuse a run whose transport_cost, at the window flags or else at the
    # defaults of the library call fn, is over COST_BUDGET.
    defaults = _defaults(fn)
    lam_max = defaults[lam] if args.lambda_order is None else args.lambda_order
    x_deg_max = defaults[x] if args.x_order is None else args.x_order
    cost = transport_cost(a, d, lam_max, x_deg_max)
    if cost > COST_BUDGET:
        raise GuardError(
            f"a={a}, d={d} at lambda order {lam_max} and x order {x_deg_max} is "
            f"estimated at {cost} or more, over the budget of {COST_BUDGET}"
        )


def _require_plan_budget(args, plan):
    # Price every cap and cap-family block of a gluing plan before any block
    # is built; a shape the builder refuses is left for it to name.
    for spec in plan_blocks(plan):
        kind = check_block_spec(spec)
        if kind in ("cap", "cap-family"):
            a, d = int(spec["a"]), sum(check_partition(spec["mu"])) if kind == "cap" else int(spec["d"])
            if a >= 1 and d >= 0:
                _require_budget(args, a, d, run_glue_plan)


def _require_vertex_budget(a: int, n: int, volume: int, legs: bool = False):
    # Refuse a box enumeration past BOX_LIMIT, then a closed vertex whose
    # vertex_cost, plus with legs the enumeration_cost of every leg up to
    # size n, is over COST_BUDGET, before anything is built.
    if volume > BOX_LIMIT:
        raise GuardError(f"box enumeration is guarded to {BOX_LIMIT} added boxes")
    cost = vertex_cost(a, n, volume)
    if legs and cost <= COST_BUDGET:
        cost += enumeration_cost(n, volume)
    if cost > COST_BUDGET:
        enumerated = ", with the box enumeration of every leg up to that size," if legs else ""
        raise GuardError(
            f"the closed vertex at a={a}, size {n} and volume {volume}{enumerated} is estimated at "
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
    _require_budget(args, args.a, sum(args.mu), r_bullet_tau)
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
        _require_plan_budget(args, plan)
        block = run_glue_plan(plan, **_windows(args))
    elif args.mu is not None:
        _require_budget(args, args.a, sum(args.mu), cap_level0)
        block = cap_level0(args.a, args.mu, **_windows(args))
    else:
        _require_budget(args, args.a, args.d, cap_family)
        block = cap_family(args.a, args.d, **_windows(args))
    if args.format == "csv":
        return _emit_csv(args, emit_table(block))
    return _emit_json(args, block_to_data(block))


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    # Every suite parameter is keyword-only with a default.
    takes = _defaults(suite)
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
        _require_budget(args, args.a, args.d, suite, "lambda_order", "x_order")
    if args.suite == "dt-vertex":
        grid = takes | flags
        _require_vertex_budget(grid["a"] or max(DEFAULT_DT_VERTEX_MODULI), grid["d"], grid["enumerate"], legs=True)
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
    names = {name for suite in SUITES.values() for name in _defaults(suite)}
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
