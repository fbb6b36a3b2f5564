"""The benchmark's workloads: fixed pools of items, how one pass runs, and
the exact checks on every result.

All workloads are closed loops: one item runs at a time, and the next
starts only when the previous one has finished.  In-process items start
from cold caches (every ``lru_cache`` of the package is cleared first), so
an item costs what it costs in a fresh process and neither its time nor its
traced counts depend on the order the seed picks.  ``cli-single`` items are
``orbivertex`` commands, each in a fresh interpreter.

Every check is exact and compares values, not serialized text: both sides
of an identity computed in the same run, or exact values pinned from the
README and from closed forms.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "cli_child.py"
ONE_BOX_PLAN = "bench/plans/one_box.json"

# Items call the package through its module attributes, where the tracer
# installs its wrappers.
import orbivertex as ov  # noqa: E402  (run.py puts src on the path first)
from orbivertex.exactnum import cyclotomic_polynomial  # noqa: E402
from orbivertex.series import PrecisionError  # noqa: E402

import tracer as tracing  # noqa: E402

# -- pinned values (README) ---------------------------------------------------

CHAR_D3_CSV = [
    "nu\\mu,(3),(2,1),(1,1,1)",
    "(3),1,1,1",
    "(2,1),-1,0,2",
    "(1,1,1),1,-1,1",
]
EMPTY_LEG_COUNTS = [1, 1, 3, 6, 13, 24]
ONE_BOX_GLUED = {0: Fraction(1), 1: Fraction(0), 2: Fraction(1, 12), 3: Fraction(0), 4: Fraction(1, 240)}
HURWITZ_SPOT = {"chi_euler": 0, "value": "1/2", "oracle": "1/2"}
ABELIAN_K = 2


# -- exact oracles --------------------------------------------------------------


def half_angle_ratio(order: int) -> list:
    """Taylor coefficients of (x/2) / sin(x/2) through x**order, by exact
    division of power series."""
    sin_ratio = [Fraction(0)] * (order + 1)
    for k in range(0, order // 2 + 1):
        sin_ratio[2 * k] = Fraction((-1) ** k, 4 ** k * math.factorial(2 * k + 1))
    out = []
    for n in range(order + 1):
        out.append(-sum(sin_ratio[j] * out[n - j] for j in range(1, n + 1)) + (1 if n == 0 else 0))
    return out


def centralizer_order(mu) -> int:
    z = 1
    for part in set(mu):
        m = list(mu).count(part)
        z *= part ** m * math.factorial(m)
    return z


# -- decoding of CLI output -------------------------------------------------------


def decode_coeff(data):
    """(order, coefficients) of an encoded value; rationals get order 1."""
    if isinstance(data, str):
        return 1, [Fraction(data)]
    return data["order"], [Fraction(c) for c in data["coeffs"]]


def in_field(value, modulus: int, turn: int = 0) -> tuple:
    """Power-basis coordinates of value * zeta_L**turn in Q(zeta_L),
    L = modulus.  Unique for each number, however it was encoded."""
    order, coeffs = value
    vec = [Fraction(0)] * modulus
    for j, c in enumerate(coeffs):
        vec[(j * (modulus // order) + turn) % modulus] += c
    phi = cyclotomic_polynomial(modulus)
    deg = len(phi) - 1
    for k in range(modulus - 1, deg - 1, -1):
        c = vec[k]
        if c:
            for j, p in enumerate(phi):
                vec[k - deg + j] -= c * p
    return tuple(vec[:deg])


@dataclass
class SeriesData:
    maxes: list
    terms: dict  # exponent tuple (Fractions) -> (order, coefficients)

    @classmethod
    def parse(cls, data: dict) -> "SeriesData":
        return cls(
            [None if m is None else Fraction(m) for m in data["maxes"]],
            {tuple(Fraction(e) for e in t["exponents"]): decode_coeff(t["coeff"]) for t in data["terms"]},
        )

    def rational_terms(self) -> dict:
        out = {}
        for key, (order, coeffs) in self.terms.items():
            if order != 1 and any(coeffs[1:]):
                raise ValueError(f"coefficient at {key} is not rational")
            out[key] = coeffs[0]
        return out


def same_terms(left: dict, right: dict, turn_quarters: int = 0) -> bool:
    """Exact equality of two term maps, after multiplying every left value
    by i**turn_quarters."""
    if left.keys() != right.keys():
        return False
    modulus = 4
    for order, _ in list(left.values()) + list(right.values()):
        modulus = math.lcm(modulus, order)
    turn = turn_quarters * modulus // 4
    return all(in_field(left[k], modulus, turn) == in_field(right[k], modulus) for k in left)


def json_result(out) -> dict:
    return json.loads(out.stdout)["result"]


# -- items ------------------------------------------------------------------------


@dataclass
class Item:
    """One unit of work.  ``compute`` runs it (the timed part); ``check``
    returns the failed checks, given its output and the outputs of every
    item of the same pass by label."""

    label: str
    compute: Callable
    check: Callable[[object, dict], list]
    argv: tuple = ()


@dataclass
class CliOutput:
    returncode: int
    stdout: str
    stderr: str


def _window_ok(series, lam_max: int) -> bool:
    series.require_window(maxes={"lam": lam_max})
    return bool(series.terms)


def corr_grid_items() -> list:
    def make(a, d):
        def check(report, _outs):
            expected = list(ov.partitions_of(d))
            if [mu for mu, _ in report] != expected:
                return [f"report covers {[mu for mu, _ in report]}, expected every profile {expected}"]
            return [f"sides differ at mu={mu}" for mu, agree in report if not agree]

        return Item(f"corr a={a} d={d}", lambda: ov.correspondence_report(a, d), check)

    return [make(a, d) for a, d in ((3, 3), (4, 2), (2, 5))]


def framing_items() -> list:
    lam, x = 6, 3
    window = {"lam": lam}

    def make(a, mu):
        def compute():
            base = ov.r_bullet_zero(a, mu, lam_max=lam, x_deg_max=x)
            return base, [ov.transport_back(a, mu, tau, lam_max=lam, x_deg_max=x) for tau in (1, 2)]

        def check(out, _outs):
            base, recovered = out
            failures = []
            if not _window_ok(base, lam):
                failures.append("framing-zero series is empty")
            for tau, rec in zip((1, 2), recovered):
                if rec.require_window(maxes=window).restrict(maxes=window) != base.restrict(maxes=window):
                    failures.append(f"round trip at tau={tau} does not recover the series")
            return failures

        return Item(f"roundtrip a={a} mu={mu}", compute, check)

    return [make(a, mu) for a in (1, 2) for d in (1, 2, 3) for mu in ov.partitions_of(d)]


def abelian_items() -> list:
    d_max, lam = 3, 4

    def make(tau):
        def compute():
            base = ov.connected_profile_series(2, (1,), tau, d_max, lam_max=lam)
            cyclic = ov.abelian_lift((4,), (2,), ((1,),), tau, d_max, lam_max=lam)
            klein = ov.abelian_lift((2, 2), (1, 0), ((1, 0),), tau, d_max, lam_max=lam)
            return base, cyclic, klein

        def check(out, _outs):
            base, cyclic, klein = out
            failures = []
            if not _window_ok(base, lam):
                failures.append("connected series is empty")
            names = base.ctx.names
            lam_i = names.index("lam")
            p_idx = [i for i, n in enumerate(names) if n.startswith("p")]
            for label, lift in (("cyclic-4", cyclic), ("klein-4", klein)):
                want = {
                    key: c * Fraction(ABELIAN_K) ** (1 + key[lam_i] - sum(key[i] for i in p_idx))
                    for key, c in base.terms.items()
                }
                if lift.terms != want:
                    failures.append(f"{label} lift is not the K-power scaling of the cyclic series")
            if cyclic.terms != klein.terms:
                failures.append("the two presentations give different series")
            return failures

        return Item(f"abelian tau={tau}", compute, check)

    return [make(tau) for tau in (0, 1)]


# -- cli-single ----------------------------------------------------------------------


def _check_char_d3(out, _outs):
    rows = [line for line in out.stdout.splitlines() if not line.startswith("#")]
    return [] if rows == CHAR_D3_CSV else [f"char --d 3 table is {rows}"]


def _check_char_orthogonal(out, _outs):
    res = json_result(out)
    parts = [tuple(p) for p in res["partitions"]]
    table = res["table"]
    failures = []
    if len(parts) != len(table):
        failures.append("table is not square")
    for j, mu in enumerate(parts):
        for k, nu in enumerate(parts):
            dot = sum(row[j] * row[k] for row in table)
            if dot != (centralizer_order(mu) if j == k else 0):
                failures.append(f"columns {mu} and {nu} are not orthogonal")
    return failures


def _check_hurwitz_spot(out, _outs):
    res = json_result(out)
    got = {k: res[k] for k in HURWITZ_SPOT}
    return [] if got == HURWITZ_SPOT else [f"hurwitz spot value is {got}"]


def _check_hurwitz_oracle(out, _outs):
    res = json_result(out)
    return [] if Fraction(res["value"]) == Fraction(res["oracle"]) else [f"value {res['value']} != oracle {res['oracle']}"]


def _check_one_box(out, _outs):
    series = SeriesData.parse(json_result(out)["series"])
    terms = series.rational_terms()
    want = half_angle_ratio(int(series.maxes[0]) + 1)
    failures = [] if series.maxes[0] >= 5 else ["window is narrower than lam^5"]
    expected = {(Fraction(k - 1),): c for k, c in enumerate(want) if c and k - 1 <= series.maxes[0]}
    if terms != expected:
        failures.append("one-box series is not 1 / (2 sin(lam/2))")
    return failures


def _series_of(outs, label):
    return SeriesData.parse(json_result(outs[label])["series"])


def _check_cap_relation(gw_label, a, mu):
    """A level-zero cap is the framing-zero series with each lam exponent
    k moved to k + d/a + sum_j m_j (1 - j/a), times i**(d - len(mu))."""

    def check(out, outs):
        block = json_result(out)
        cap = SeriesData.parse(block["entries"][0]["series"])
        base = _series_of(outs, gw_label)
        d = sum(mu)
        moved = {}
        for key, value in base.terms.items():
            lam = key[0] + Fraction(d, a) + sum(m * (1 - Fraction(j, a)) for j, m in enumerate(key[1:], start=1))
            if cap.maxes[0] is None or lam <= cap.maxes[0]:
                moved[(lam,) + key[1:]] = value
        failures = [] if cap.terms else ["cap series is empty"]
        if not same_terms(moved, cap.terms, turn_quarters=d - len(mu)):
            failures.append(f"cap for mu={mu} is not the rescaled framing-zero series")
        return failures

    return check


def _check_nonempty(out, _outs):
    return [] if SeriesData.parse(json_result(out)["series"]).terms else ["empty series"]


def _check_framing_free(base_label):
    """For |mu| = 1 the transport kernel is 1, so framing changes nothing."""

    def check(out, outs):
        framed = SeriesData.parse(json_result(out)["series"])
        base = _series_of(outs, base_label)
        return [] if same_terms(framed.terms, base.terms) and base.terms else ["framed |mu|=1 series differs from framing zero"]

    return check


def _check_matches_library(compute):
    """The CLI prints the same exact series as the library call (computed
    once per run, outside the timed part)."""
    reference = []

    def check(out, _outs):
        if not reference:
            reference.append(SeriesData.parse(compute().to_data()))
        cli = SeriesData.parse(json_result(out)["series"])
        lib = reference[0]
        return [] if cli.terms and same_terms(cli.terms, lib.terms) else ["CLI series differs from the library"]

    return check


def _check_enumeration(empty_leg: bool):
    def check(out, _outs):
        res = json_result(out)
        counts = res["volume_counts"]
        enum = res["enumerator"]
        weights = {k: Fraction(w) for k, w in enum["caps"][0]["weights"].items()}
        names = [v["name"] for v in enum["variables"]]
        by_volume = [0] * len(counts)
        for term in enum["terms"]:
            vol = sum(weights[n] * Fraction(e) for n, e in zip(names, term["exponents"]))
            by_volume[int(vol)] += Fraction(term["coeff"])
        failures = []
        if empty_leg and counts != EMPTY_LEG_COUNTS:
            failures.append(f"volume counts are {counts}, expected {EMPTY_LEG_COUNTS}")
        if by_volume != counts:
            failures.append("enumerator does not sum to the volume counts")
        return failures

    return check


def _check_glued_one_box(out, _outs):
    series = SeriesData.parse(json_result(out)["entries"][0]["series"])
    terms = {k[0]: c for k, c in series.rational_terms().items()}
    top = int(series.maxes[0])
    ratio = half_angle_ratio(top)
    square = [sum(ratio[j] * ratio[n - j] for j in range(n + 1)) for n in range(top + 1)]
    failures = []
    if top < max(ONE_BOX_GLUED):
        failures.append("window is narrower than the pinned terms")
    if any(terms.get(Fraction(k), 0) != c for k, c in ONE_BOX_GLUED.items()):
        failures.append("glued one-box series does not start 1 + lam^2/12 + lam^4/240")
    if terms != {Fraction(n): c for n, c in enumerate(square) if c}:
        failures.append("glued one-box series is not (lam / (2 sin(lam/2)))^2")
    return failures


def _check_suite(n_checks):
    def check(out, _outs):
        res = json_result(out)
        if not res["passed"] or len(res["checks"]) != n_checks:
            return [f"suite reports passed={res['passed']} with {len(res['checks'])} checks, expected {n_checks}"]
        return []

    return check


def cli_requests() -> list:
    """The cli-single pool: every subcommand, each request with an exact check."""
    reqs = [
        ("char --d 3 --format csv", _check_char_d3),
        ("char --d 6", _check_char_orthogonal),
        ("hurwitz --nu 2 --mu 2 --r 2 --enumerate 2", _check_hurwitz_spot),
        ("hurwitz --nu 2,1 --mu 2,1 --r 2 --enumerate 3", _check_hurwitz_oracle),
        ("gw --a 1 --mu 1 --lambda-order 5", _check_one_box),
        ("gw --a 1 --mu 2", _check_nonempty),
        ("gw --a 1 --mu 2 --tau 2", _check_matches_library(lambda: ov.r_bullet_tau(1, (2,), 2).series)),
        ("gw --a 2 --mu 1", _check_nonempty),
        ("gw --a 2 --mu 1 --tau 1", _check_framing_free("gw --a 2 --mu 1")),
        ("gw --a 2 --mu 2,1", _check_matches_library(lambda: ov.r_bullet_zero(2, (2, 1)))),
        ("dt --a 1 --nu 0 --enumerate 5", _check_enumeration(True)),
        ("dt --a 2 --nu 1 --enumerate 4", _check_enumeration(False)),
        ("local-gw --a 1 --mu 2", _check_cap_relation("gw --a 1 --mu 2", 1, (2,))),
        ("local-gw --a 2 --mu 1", _check_cap_relation("gw --a 2 --mu 1", 2, (1,))),
        (f"local-gw --glue {ONE_BOX_PLAN}", _check_glued_one_box),
        ("verify --suite phi --d 3", _check_suite(6)),
        ("verify --suite quantum-dim --d 3", _check_suite(3)),
        ("verify --suite correspondence --a 2 --d 2", _check_suite(2)),
        ("verify --suite mv-a1 --d 2", _check_suite(3)),
    ]
    return [Item(label, None, check, tuple(label.split())) for label, check in reqs]


# -- running a pass ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, traced: bool) -> CliOutput:
    """One request in a fresh interpreter; returns when it has exited."""
    if traced:
        cmd = [sys.executable, str(CHILD), *argv]
    else:
        cmd = [sys.executable, "-m", "orbivertex.cli", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    return CliOutput(proc.returncode, proc.stdout, proc.stderr)


@dataclass
class Workload:
    name: str
    items: list
    in_process: bool
    min_samples: int = 1


def workload(name: str) -> Workload:
    if name == "corr-grid":
        return Workload(name, corr_grid_items(), True)
    if name == "framing-roundtrip":
        return Workload(name, framing_items(), True)
    if name == "abelian-lift":
        return Workload(name, abelian_items(), True)
    if name == "cli-single":
        # At least ten requests must lie beyond the 90th percentile.
        return Workload(name, cli_requests(), False, min_samples=110)
    raise KeyError(name)


WORKLOADS = ("corr-grid", "framing-roundtrip", "abelian-lift", "cli-single")


@dataclass
class PassResult:
    times: dict = field(default_factory=dict)  # label -> [seconds]
    failures: list = field(default_factory=list)  # (label, message)
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0


def run_pass(wl: Workload, order: list, caches: list, result: PassResult, tracer=None) -> None:
    """Run every item once, in the given order, and check the outputs.

    With a tracer, in-process items run with its wrappers installed and CLI
    requests run under the traced child, whose records are merged in.
    """
    outs = {}
    for idx in order:
        item = wl.items[idx]
        error = None
        if wl.in_process:
            tracing.clear_caches(caches)
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            try:
                outs[item.label] = item.compute()
            except Exception:  # a failed item is counted, and the loop goes on
                error = traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        else:
            t0 = time.perf_counter()
            out = run_cli(item.argv, traced=tracer is not None)
            dt = time.perf_counter() - t0
            if tracer is not None:
                head, mark, record = out.stderr.rpartition(tracing.TRACE_MARK)
                if mark:
                    tracer.merge(json.loads(record))
                    out.stderr = head
            if out.returncode != 0:
                error = f"exit {out.returncode}: {out.stderr.strip()[-300:]}"
            else:
                outs[item.label] = out
                result.output_bytes += len(out.stdout.encode())
        result.times.setdefault(item.label, []).append(dt)
        result.attempted += 1
        if error is not None:
            result.failures.append((item.label, error))
            result.failed += 1
    for idx in order:
        item = wl.items[idx]
        if item.label not in outs:
            continue
        try:
            messages = item.check(outs[item.label], outs)
        except (PrecisionError, KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            messages = [f"check raised {type(exc).__name__}: {exc}"]
        if messages:
            result.failures.extend((item.label, m) for m in messages)
            result.failed += 1
