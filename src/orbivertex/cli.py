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
from .partitions import check_partition, partitions_of
from .series import PrecisionError, _frac_str
from .verify import SUITES

CHAR_DEGREE_LIMIT = 8
BOX_LIMIT = 10

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
    series = r_bullet_tau(args.a, args.mu, args.tau or 0, **_windows(args)).series
    return _emit_json(args, {"series": series.to_data()})


def cmd_dt(args) -> int:
    result = {"vertex": reduced_vertex_closed(args.nu, args.a).to_data()}
    if args.enumerate is not None:
        n = args.enumerate
        if n > BOX_LIMIT:
            raise GuardError(f"box enumeration is guarded to {BOX_LIMIT} added boxes")
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
        block = cap_level0(args.a, args.mu, **_windows(args))
    else:
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
