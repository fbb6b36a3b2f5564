"""Tracing for the benchmark's traced run, installed from outside the package.

The tracer wraps public functions and arithmetic operators of ``orbivertex``
where their callers look them up: every module global and every class
attribute bound to the original object is replaced, so aliases such as
``gw_vertex._r_bullet_zero_closed`` (bound to ``dt_vertex.r_bullet_zero``
at import) or ``CycloNum.__rmul__`` (the same function as ``__mul__``) are
traced too.  ``lru_cache``'d functions are wrapped outside their cache, so a
cache hit counts as a call.  ``restore()`` puts every original back.

Every wrapped call adds its count, total time and self time (its time minus
the time of the wrapped calls it made) to a record keyed by (name, parent
name).  Calls of high-volume kinds ("leaf" arithmetic: ``CycloNum`` and
``Series`` operators, characters, rational forms) are kept only in those
aggregates; the other calls are also kept as spans (id, name, parent span,
start, end, self time).
"""

from __future__ import annotations

import inspect
import sys
import time
from fractions import Fraction

# Prefix of the line on which a traced CLI child reports its record.
TRACE_MARK = "BENCH-TRACE "

# (target, span name, leaf).  A target is "module:attr" or "module:Class.attr".
TARGETS = (
    ("exactnum:CycloNum.__mul__", "exactnum.mul", True),
    ("exactnum:CycloNum.__add__", "exactnum.add", True),
    ("exactnum:CycloNum.inverse", "exactnum.inverse", True),
    ("exactnum:CycloNum.__truediv__", "exactnum.div", True),
    ("series:self_in_window_static", "series.window", True),
    ("series:SeriesContext.grade", "series.grade", True),
    ("series:Series.__mul__", "series.mul", True),
    ("series:Series.__add__", "series.add", True),
    ("series:Series.invert", "series.invert", True),
    ("series:Series.exp_monomial", "series.exp_monomial", True),
    ("series:Series.exp", "series.exp", True),
    ("series:Series.log", "series.log", True),
    ("series:Series.extract", "series.extract", True),
    ("series:Series.substitute", "series.substitute", True),
    ("characters:chi", "characters.chi", True),
    ("dt_vertex:RationalForm.__mul__", "dt_vertex.rational_mul", True),
    ("dt_vertex:RationalForm.__add__", "dt_vertex.rational_add", True),
    ("dt_vertex:RationalForm.flip_q_sign", "dt_vertex.rational_flip", True),
    ("dt_vertex:schur_rational", "dt_vertex.schur_rational", False),
    ("dt_vertex:powersum_rational", "dt_vertex.powersum_rational", False),
    ("dt_vertex:reduced_vertex_closed", "dt_vertex.reduced_vertex_closed", False),
    ("hurwitz:PhiKernel.series", "hurwitz.kernel_series", False),
    ("dt_vertex:r_bullet_zero", "dt_vertex.r_bullet_zero", False),
    ("dt_vertex:change_of_vars", "dt_vertex.change_of_vars", False),
    ("dt_vertex:_den_factor_inverse", "dt_vertex.den_factor_inverse", False),
    ("dt_vertex:vertex_side_series", "dt_vertex.vertex_side", False),
    ("dt_vertex:correspondence_report", "dt_vertex.correspondence_report", False),
    ("dt_vertex:box_counting_series", "dt_vertex.box_counting_series", False),
    ("dt_vertex:volume_counts", "dt_vertex.volume_counts", False),
    ("gw_vertex:assemble_G0", "gw_vertex.assemble_G0", False),
    ("gw_vertex:g_bullet_mu", "gw_vertex.g_bullet_mu", False),
    ("gw_vertex:r_bullet_tau", "gw_vertex.r_bullet_tau", False),
    ("gw_vertex:transport_back", "gw_vertex.transport_back", False),
    ("gw_vertex:connected_profile_series", "gw_vertex.connected_profile", False),
    ("gw_vertex:abelian_lift", "gw_vertex.abelian_lift", False),
    ("localgw:cap_series", "localgw.cap_series", False),
    ("localgw:glue", "localgw.glue", False),
    ("cli:main", "cli", False),
)

# Spans whose self time together make up the rational-form Schur sum.
SCHUR_SUM = (
    "dt_vertex.rational_mul",
    "dt_vertex.rational_add",
    "dt_vertex.rational_flip",
    "dt_vertex.schur_rational",
    "dt_vertex.powersum_rational",
    "dt_vertex.reduced_vertex_closed",
)

# Per-layer metrics: name -> unit.  Order is the order they are reported in.
PER_LAYER = {
    "exactnum.mul.calls": "count",
    "exactnum.add.calls": "count",
    "exactnum.mul.self_s": "s",
    "exactnum.field_degree.max": "count",
    "exactnum.inverse.calls": "count",
    "exactnum.inverse.self_s": "s",
    "exactnum.div_rational.calls": "count",
    "series.window_checks": "count",
    "series.grade.calls": "count",
    "series.window.self_s": "s",
    "series.mul.calls": "count",
    "series.mul.pairs": "count",
    "series.mul.terms_out": "count",
    "series.mul.yield": "ratio",
    "series.mul.self_s": "s",
    "series.add.self_s": "s",
    "series.invert.calls": "count",
    "series.invert.neumann_steps": "count",
    "series.invert.self_s": "s",
    "series.exp_monomial.calls": "count",
    "series.exp_monomial.self_s": "s",
    "series.exp.self_s": "s",
    "series.log.self_s": "s",
    "series.extract.self_s": "s",
    "series.substitute.self_s": "s",
    "characters.chi.calls": "count",
    "characters.chi.self_s": "s",
    "hurwitz.kernel_series.calls": "count",
    "hurwitz.kernel_series.self_s": "s",
    "dt_vertex.r_bullet_zero.calls": "count",
    "dt_vertex.r_bullet_zero.distinct": "count",
    "dt_vertex.r_bullet_zero.reuse": "ratio",
    "dt_vertex.schur_sum.self_s": "s",
    "dt_vertex.change_of_vars.calls": "count",
    "dt_vertex.change_of_vars.self_s": "s",
    "dt_vertex.vertex_side.self_s": "s",
    "dt_vertex.enumerate.self_s": "s",
    "gw_vertex.assemble_G0.self_s": "s",
    "gw_vertex.g_bullet_mu.self_s": "s",
    "gw_vertex.r_bullet_tau.calls": "count",
    "gw_vertex.transport.self_s": "s",
    "gw_vertex.connected_profile.calls": "count",
    "gw_vertex.connected_profile.self_s": "s",
    "gw_vertex.abelian_lift.self_s": "s",
    "localgw.cap_series.calls": "count",
    "localgw.cap_series.self_s": "s",
    "localgw.glue.calls": "count",
    "localgw.glue.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def package_modules() -> list:
    """The loaded ``orbivertex`` package and its submodules."""
    return [m for n, m in sorted(sys.modules.items()) if n == "orbivertex" or n.startswith("orbivertex.")]


def lru_caches() -> list:
    """Every distinct ``lru_cache``'d function the package binds at module level."""
    seen = {}
    for mod in package_modules():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                seen[id(obj)] = obj
    return list(seen.values())


def clear_caches(caches) -> None:
    for fn in caches:
        fn.cache_clear()


class Tracer:
    """Aggregated call records and spans for one traced run."""

    def __init__(self):
        self.stats = {}  # (name, parent name) -> [calls, total_s, self_s]
        self.spans = []  # [id, name, parent span id, start_s, end_s, self_s]
        self.div_rational = 0
        self.field_degree = 0
        self.mul_pairs = 0
        self.mul_terms_out = 0
        self.r_bullet_zero_keys = set()
        self.output_bytes = 0
        self._stack = [["<root>", 0.0, 0]]
        self._patches = []  # (owner, attribute, original raw value)

    # -- installing and removing wrappers --------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import orbivertex.cli  # noqa: F401  (the CLI binds names too)

        modules = package_modules()
        for target, name, leaf in TARGETS:
            mod_name, _, attr_path = target.partition(":")
            mod = sys.modules[f"orbivertex.{mod_name}"]
            if "." in attr_path:
                cls_name, attr = attr_path.split(".")
                self._patch_class(getattr(mod, cls_name), attr, name, leaf)
            else:
                self._patch_function(modules, getattr(mod, attr_path), name, leaf)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _patch_function(self, modules, original, name, leaf) -> None:
        wrapper = self._wrap(name, original, leaf, self._observer(name, original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_class(self, cls, attr, name, leaf) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, leaf, None))
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        wrapper = self._wrap(name, raw, leaf, self._observer(name, raw))
        for alias, value in list(cls.__dict__.items()):
            if value is raw:
                self._patches.append((cls, alias, raw))
                setattr(cls, alias, wrapper)

    def _observer(self, name, original):
        """Extra counts recorded from a call's arguments and result."""
        if name == "exactnum.mul":
            def observe(args, kwargs, result):
                field = getattr(result, "field", None)
                if field is not None and field.degree > self.field_degree:
                    self.field_degree = field.degree
            return observe
        if name == "exactnum.div":
            def observe(args, kwargs, result):
                if isinstance(args[1], (int, Fraction)):
                    self.div_rational += 1
            return observe
        if name == "series.mul":
            def observe(args, kwargs, result):
                lhs, rhs = args
                if hasattr(rhs, "terms"):
                    self.mul_pairs += len(lhs.terms) * len(rhs.terms)
                    self.mul_terms_out += len(result.terms)
            return observe
        if name == "dt_vertex.r_bullet_zero":
            signature = inspect.signature(original)

            def observe(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a, mu, lam_max, x_deg_max = bound.args
                self.r_bullet_zero_keys.add((a, tuple(sorted(mu, reverse=True)), lam_max, x_deg_max))
            return observe
        return None

    def _wrap(self, name, fn, leaf, observe):
        stack = self._stack
        stats = self.stats
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if leaf:
                frame = [name, 0.0, parent[2]]
            else:
                frame = [name, 0.0, len(spans) + 1]
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                self_s = dt - frame[1]
                rec = stats.get((name, parent[0]))
                if rec is None:
                    stats[(name, parent[0])] = [1, dt, self_s]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += self_s
                if not leaf:
                    spans[frame[2] - 1] = [frame[2], name, parent[2], t0, t0 + dt, self_s]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- results -----------------------------------------------------------

    def raw(self) -> dict:
        """JSON-ready record of everything counted, for merging across processes."""
        return {
            "stats": [[name, parent, *rec] for (name, parent), rec in self.stats.items()],
            "spans": self.spans,
            "div_rational": self.div_rational,
            "field_degree": self.field_degree,
            "mul_pairs": self.mul_pairs,
            "mul_terms_out": self.mul_terms_out,
            "r_bullet_zero_keys": sorted([a, list(mu), lam, x] for a, mu, lam, x in self.r_bullet_zero_keys),
        }

    def merge(self, raw: dict) -> None:
        """Add the record of another traced process (a CLI child) to this one."""
        for name, parent, calls, total, self_s in raw["stats"]:
            rec = self.stats.setdefault((name, parent), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        offset = len(self.spans)
        for sid, name, parent, start, end, self_s in raw["spans"]:
            self.spans.append([sid + offset, name, parent + offset if parent else 0, start, end, self_s])
        self.div_rational += raw["div_rational"]
        self.field_degree = max(self.field_degree, raw["field_degree"])
        self.mul_pairs += raw["mul_pairs"]
        self.mul_terms_out += raw["mul_terms_out"]
        for a, mu, lam, x in raw["r_bullet_zero_keys"]:
            self.r_bullet_zero_keys.add((a, tuple(mu), lam, x))

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(r[0] for (n, p), r in self.stats.items() if n == name and parent in (None, p))

    def self_s(self, *names: str) -> float:
        return sum(r[2] for (n, _p), r in self.stats.items() if n in names)

    def total_s(self, name: str) -> float:
        return sum(r[1] for (n, _p), r in self.stats.items() if n == name)

    def per_layer(self, overhead_ratio: float) -> dict:
        """Every per-layer metric, as {name: value}."""
        c, s = self.calls, self.self_s
        rbz_calls = c("dt_vertex.r_bullet_zero")
        distinct = len(self.r_bullet_zero_keys)
        values = {
            "exactnum.mul.calls": c("exactnum.mul"),
            "exactnum.add.calls": c("exactnum.add"),
            "exactnum.mul.self_s": s("exactnum.mul"),
            "exactnum.field_degree.max": self.field_degree,
            "exactnum.inverse.calls": c("exactnum.inverse"),
            "exactnum.inverse.self_s": s("exactnum.inverse"),
            "exactnum.div_rational.calls": self.div_rational,
            "series.window_checks": c("series.window"),
            "series.grade.calls": c("series.grade"),
            # The grade calls a window check makes are part of its cost.
            "series.window.self_s": self.total_s("series.window"),
            "series.mul.calls": c("series.mul"),
            "series.mul.pairs": self.mul_pairs,
            "series.mul.terms_out": self.mul_terms_out,
            "series.mul.yield": self.mul_terms_out / self.mul_pairs if self.mul_pairs else 0.0,
            "series.mul.self_s": s("series.mul"),
            "series.add.self_s": s("series.add"),
            "series.invert.calls": c("series.invert"),
            "series.invert.neumann_steps": c("series.mul", "series.invert"),
            "series.invert.self_s": s("series.invert"),
            "series.exp_monomial.calls": c("series.exp_monomial"),
            "series.exp_monomial.self_s": s("series.exp_monomial"),
            "series.exp.self_s": s("series.exp"),
            "series.log.self_s": s("series.log"),
            "series.extract.self_s": s("series.extract"),
            "series.substitute.self_s": s("series.substitute"),
            "characters.chi.calls": c("characters.chi"),
            "characters.chi.self_s": s("characters.chi"),
            "hurwitz.kernel_series.calls": c("hurwitz.kernel_series"),
            "hurwitz.kernel_series.self_s": s("hurwitz.kernel_series"),
            "dt_vertex.r_bullet_zero.calls": rbz_calls,
            "dt_vertex.r_bullet_zero.distinct": distinct,
            "dt_vertex.r_bullet_zero.reuse": distinct / rbz_calls if rbz_calls else 0.0,
            "dt_vertex.schur_sum.self_s": s(*SCHUR_SUM),
            "dt_vertex.change_of_vars.calls": c("dt_vertex.change_of_vars"),
            "dt_vertex.change_of_vars.self_s": s("dt_vertex.change_of_vars"),
            "dt_vertex.vertex_side.self_s": s("dt_vertex.vertex_side"),
            "dt_vertex.enumerate.self_s": s("dt_vertex.box_counting_series", "dt_vertex.volume_counts"),
            "gw_vertex.assemble_G0.self_s": s("gw_vertex.assemble_G0"),
            "gw_vertex.g_bullet_mu.self_s": s("gw_vertex.g_bullet_mu"),
            "gw_vertex.r_bullet_tau.calls": c("gw_vertex.r_bullet_tau"),
            "gw_vertex.transport.self_s": s("gw_vertex.r_bullet_tau", "gw_vertex.transport_back"),
            "gw_vertex.connected_profile.calls": c("gw_vertex.connected_profile"),
            "gw_vertex.connected_profile.self_s": s("gw_vertex.connected_profile"),
            "gw_vertex.abelian_lift.self_s": s("gw_vertex.abelian_lift"),
            "localgw.cap_series.calls": c("localgw.cap_series"),
            "localgw.cap_series.self_s": s("localgw.cap_series"),
            "localgw.glue.calls": c("localgw.glue"),
            "localgw.glue.self_s": s("localgw.glue"),
            "cli.self_s": s("cli"),
            "cli.output_bytes": self.output_bytes,
            "trace.overhead_ratio": overhead_ratio,
        }
        return values
