"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q bench/test_bench.py
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _count_metrics(trace):
    values = trace.per_layer(1.0)
    return {k: v for k, v in values.items() if tracer.PER_LAYER[k] == "count"}


def _traced_pass(name, order):
    wl = workloads.workload(name)
    result = workloads.PassResult()
    trace = tracer.Tracer()
    workloads.run_pass(wl, order, tracer.lru_caches(), result, tracer=trace)
    assert result.failed == 0, result.failures
    return trace


def test_traced_counts_repeat_exactly():
    order = list(range(len(workloads.workload("framing-roundtrip").items)))
    first = _traced_pass("framing-roundtrip", order)
    second = _traced_pass("framing-roundtrip", order)
    assert _count_metrics(first) == _count_metrics(second)
    counts = _count_metrics(first)
    assert counts["dt_vertex.r_bullet_zero.calls"] == 156
    assert counts["dt_vertex.r_bullet_zero.distinct"] == 12


def _bindings():
    snap = {}
    for mod in tracer.package_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    snap[(mod.__name__, f"{attr}.{cattr}")] = cvalue
    return snap


def test_wrappers_bind_where_callers_look_and_restore_everything():
    import orbivertex.cli  # noqa: F401
    from orbivertex import dt_vertex, exactnum, gw_vertex

    before = _bindings()
    original = dt_vertex.r_bullet_zero
    trace = tracer.Tracer()
    with trace:
        # The alias gw_vertex binds at import is wrapped too.
        assert gw_vertex._r_bullet_zero_closed is dt_vertex.r_bullet_zero is not original
        assert exactnum.CycloNum.__rmul__ is exactnum.CycloNum.__mul__
        # Cached functions are wrapped outside their cache: a hit is a call.
        dt_vertex.schur_rational((2, 1), 2)
        dt_vertex.schur_rational((2, 1), 2)
        gw_vertex.r_bullet_zero(1, (1,), lam_max=2, x_deg_max=0)
    assert trace.calls("dt_vertex.schur_rational", "<root>") == 2
    assert trace.calls("dt_vertex.r_bullet_zero", "<root>") == 1
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


@pytest.mark.parametrize(
    "request_label, constant, wrong",
    [
        ("dt --a 1 --nu 0 --enumerate 5", "EMPTY_LEG_COUNTS", [1, 1, 3, 6, 13, 25]),
        ("char --d 3 --format csv", "CHAR_D3_CSV", ["nu\\mu,(3),(2,1),(1,1,1)", "(3),1,1,1", "(2,1),-1,0,2", "(1,1,1),1,1,1"]),
        (f"local-gw --glue {workloads.ONE_BOX_PLAN}", "ONE_BOX_GLUED", {0: Fraction(1), 2: Fraction(1, 24)}),
        ("hurwitz --nu 2 --mu 2 --r 2 --enumerate 2", "HURWITZ_SPOT", {"chi_euler": 0, "value": "1/3", "oracle": "1/2"}),
    ],
)
def test_wrong_expected_value_makes_fail_ratio_nonzero(monkeypatch, request_label, constant, wrong):
    wl = workloads.workload("cli-single")
    wl.items = [item for item in wl.items if item.label == request_label]
    assert len(wl.items) == 1

    result = workloads.PassResult()
    workloads.run_pass(wl, [0], [], result)
    assert (result.attempted, result.failed) == (1, 0), result.failures

    monkeypatch.setattr(workloads, constant, wrong)
    result = workloads.PassResult()
    workloads.run_pass(wl, [0], [], result)
    assert result.failed / result.attempted > 0
