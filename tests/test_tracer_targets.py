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


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves_to_a_callable():
    targets = _tracer_targets()
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

    assert gw_vertex._r_bullet_zero_closed is dt_vertex.r_bullet_zero
    assert callable(gw_vertex.r_bullet_zero)
