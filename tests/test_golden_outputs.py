"""Golden outputs: a SHA-256 digest per case of every public series producer.

Each case is hashed from ``json.dumps(to_data(), sort_keys=True)`` of its
result, or from the text of the error that refuses it, and compared with
``golden_outputs.json``.  A refactor that is meant to keep outputs byte for
byte leaves every digest as it is; a change that moves one on purpose
regenerates the file and says why in CHANGES.md.  To regenerate:

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

import hashlib
import json
import sys
from functools import partial
from pathlib import Path

from orbivertex.dt_vertex import correspondence_report, r_bullet_zero, vertex_side_series
from orbivertex.gw_vertex import (
    abelian_lift,
    cap_closed_form,
    connected_profile_series,
    g_bullet_mu,
    g_bullet_table,
    lambda_g_psi_series,
    quantum_dim_hook,
    quantum_dim_sine,
    r_bullet_tau,
    transport_back,
)
from orbivertex.localgw import cap_series
from orbivertex.partitions import partitions_of
from orbivertex.series import PrecisionError

GOLDEN = Path(__file__).with_name("golden_outputs.json")

PROFILES = tuple(mu for d in range(5) for mu in partitions_of(d))
# (lam, x) windows, from below every floor to past the defaults.
WINDOWS = ((-5, 1), (-3, 0), (-2, 3), (-1, 2), (0, -1), (1, 0), (3, 2), (5, 1))


def _data(value):
    # JSON-ready data of one result: a series, a framed vertex, a table of
    # series, or a report of (mu, agree) pairs.
    if hasattr(value, "series"):
        value = value.series
    if isinstance(value, dict):
        return {",".join(map(str, mu)): _data(series) for mu, series in value.items()}
    if isinstance(value, list):
        return [[list(mu), ok] for mu, ok in value]
    return value.to_data()


def _cases():
    # (case id, call) for every case.
    for a in (1, 2, 3, 4):
        for mu in PROFILES:
            for lam, x in WINDOWS:
                at = f"a={a} mu={mu} lam={lam} x={x}"
                yield f"r_bullet_zero {at}", partial(r_bullet_zero, a, mu, lam, x)
                yield f"g_bullet_mu {at}", partial(g_bullet_mu, a, mu, lam, x)
                yield f"cap_series {at}", partial(cap_series, a, mu, lam, x)
                # The literal vertex side multiplies its forms out: it
                # takes the small profiles, and a < 4 at size 3 on one window.
                if sum(mu) <= 2 or sum(mu) == 3 and a < 4 and (lam, x) == (3, 2):
                    yield f"vertex_side_series {at}", partial(vertex_side_series, a, mu, lam, x)
                if sum(mu) <= 2 or (lam, x) == (3, 2):
                    for tau in (1, -2):
                        yield f"r_bullet_tau {at} tau={tau}", partial(r_bullet_tau, a, mu, tau, lam, x)
                        yield f"transport_back {at} tau={tau}", partial(transport_back, a, mu, tau, lam, x)
        for d in range(5):
            for lam, x in ((-5, 1), (-1, 0), (3, 2)):
                at = f"a={a} d={d} lam={lam} x={x}"
                yield f"correspondence_report {at}", partial(correspondence_report, a, d, lam, x)
                yield f"g_bullet_table {at}", partial(g_bullet_table, a, d, lam, x)
        for d in range(5):
            for gamma in ((), (1,), (a - 1, a - 1), (1, 2)):
                for lam in (-2, 0, 3):
                    at = f"a={a} d={d} gamma={gamma} lam={lam}"
                    yield f"cap_closed_form {at}", partial(cap_closed_form, a, d, gamma, lam)
    for nu in tuple(nu for n in range(5) for nu in partitions_of(n)):
        for lam in (-5, -2, 0, 4):
            yield f"quantum_dim_hook nu={nu} lam={lam}", partial(quantum_dim_hook, nu, lam)
            yield f"quantum_dim_sine nu={nu} lam={lam}", partial(quantum_dim_sine, nu, lam)
    for lam in (-2, 0, 1, 6):
        yield f"lambda_g_psi_series lam={lam}", partial(lambda_g_psi_series, lam)
    for tau in (0, 1):
        for lam in (-1, 2):
            for a, colors in ((2, (1,)), (3, (1, 2)), (2, (1, 2))):
                at = f"a={a} colors={colors} tau={tau} d=2 lam={lam}"
                yield f"connected_profile_series {at}", partial(connected_profile_series, a, colors, tau, 2, lam)
            for orders, phi, gamma in (((4,), (2,), ((1,),)), ((2, 2), (1, 1), ((1, 0),)), ((4,), (2,), ((2,),))):
                at = f"orders={orders} phi={phi} gamma={gamma} tau={tau} d=2 lam={lam}"
                yield f"abelian_lift {at}", partial(abelian_lift, orders, phi, gamma, tau, 2, lam)


def _digest(call) -> str:
    try:
        text = json.dumps(_data(call()), sort_keys=True)
    except (PrecisionError, ValueError) as err:
        text = f"{type(err).__name__}: {err}"
    return hashlib.sha256(text.encode()).hexdigest()


def _digests() -> dict:
    return {case: _digest(call) for case, call in _cases()}


def test_every_output_keeps_its_golden_digest():
    golden = json.loads(GOLDEN.read_text())
    digests = _digests()
    assert sorted(digests) == sorted(golden)
    changed = [case for case, digest in digests.items() if golden[case] != digest]
    assert not changed, changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden_outputs.py --write")
    GOLDEN.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
