"""The benchmark tracer's targets exist in the package.

``bench/tracer.py`` wraps package functions by name for a traced run
(``python3 bench/run.py --trace 1``).  A refactor that renames or deletes
one of them breaks that run, so these checks read the tracer's target list
and resolve every entry, without changing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_to_a_callable():
    targets = _tracer().TARGETS
    assert targets
    for target, _name, _leaf in targets:
        mod_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(f"orbivertex.{mod_name}")
        if "." in attr_path:
            # Class attributes are wrapped where the class defines them.
            cls_name, attr = attr_path.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), target
            attr_path = attr
        assert callable(getattr(owner, attr_path)), target


def test_aliases_the_tracer_relies_on():
    from orbivertex import dt_vertex, gw_vertex
    from orbivertex.exactnum import CycloNum

    assert gw_vertex._r_bullet_zero_closed is dt_vertex.r_bullet_zero
    assert callable(gw_vertex.r_bullet_zero)
    assert CycloNum.__rmul__ is CycloNum.__mul__


def test_the_tracer_clears_the_framing_zero_memo():
    # The benchmark starts every in-process item from cold caches by
    # clearing each lru_cache the package binds at module level; the
    # framing-zero memo, the power-sum images, the sine products, the
    # kernel memo, the connected profile series and the Bernoulli table must
    # be among them.
    from orbivertex import dt_vertex, gw_vertex, hurwitz, series

    caches = _tracer().lru_caches()
    assert dt_vertex._r_bullet_zero_series in caches
    assert dt_vertex._power_sum_image in caches
    assert dt_vertex._sine_product in caches
    assert hurwitz._phi_kernel in caches
    assert gw_vertex._connected_profile_series in caches
    assert series.bernoulli in caches


def test_a_repeated_framing_zero_call_transports_once(monkeypatch):
    from orbivertex import dt_vertex

    calls = []
    real = dt_vertex.change_of_vars

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dt_vertex, "change_of_vars", counted)
    dt_vertex._r_bullet_zero_series.cache_clear()
    first = dt_vertex.r_bullet_zero(2, (2, 1), lam_max=3, x_deg_max=2)
    assert len(calls) == 1
    # The same input, with mu given as a list, is served from the memo.
    again = dt_vertex.r_bullet_zero(2, [2, 1], lam_max=3, x_deg_max=2)
    assert len(calls) == 1
    assert again.to_data() == first.to_data()
    dt_vertex.r_bullet_zero(2, (2, 1), lam_max=4, x_deg_max=2)
    assert len(calls) == 2


def test_a_report_builds_each_power_sum_image_once():
    # The profiles (3), (2, 1) and (1, 1, 1) share the images of p_1, p_2
    # and p_3: six asks, three builds.
    from orbivertex import dt_vertex

    dt_vertex._r_bullet_zero_series.cache_clear()
    dt_vertex._power_sum_image.cache_clear()
    assert all(ok for _, ok in dt_vertex.correspondence_report(3, 3))
    info = dt_vertex._power_sum_image.cache_info()
    assert (info.misses, info.hits) == (3, 3)


def test_cli_commands_run_under_the_tracer(capsys):
    # The tracer rebinds r_bullet_tau in orbivertex.cli to a wrapper that
    # names the original in __wrapped__; the CLI reads its budget defaults
    # and suite keywords through such wrappers.
    from orbivertex import cli

    commands = (
        ["gw", "--a", "1", "--mu", "2"],
        ["gw", "--a", "1", "--mu", "1", "--lambda-order", "5"],
        ["gw", "--a", "2", "--mu", "1", "--tau", "1"],
        ["local-gw", "--a", "1", "--mu", "2"],
        ["verify", "--suite", "correspondence", "--a", "2", "--d", "2"],
        ["verify", "--suite", "phi", "--d", "3"],
    )
    for argv in commands:
        assert cli.main(argv) == 0, argv
        plain = capsys.readouterr().out
        with _tracer().Tracer():
            assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == plain, argv
