"""Multivariate truncated Laurent series with explicit honesty windows.

A Series stores exact coefficients (Fraction or cyclotomic) on an integer
exponent lattice, plus a record of how much of the true object the stored
data is guaranteed to represent:

* ``floors[v]``: the true support is known to have no term below this
  exponent in variable v, so reads below it return an exact zero;
* ``maxes[v]``: stored data is complete up to this exponent in variable v,
  with None meaning complete in that whole direction;
* ``cap_bounds[c]``: stored data is complete through this weighted total
  grade, again with None meaning no truncation.

A term lies inside the window when it satisfies every finite constraint
jointly.  All arithmetic propagates windows conservatively, and reading a
coefficient outside the window raises PrecisionError rather than return
silently wrong data.

Exponents may be rational with a fixed per-variable denominator; they are
held internally as scaled integers.

Soundness of the valuation-based window arithmetic relies on one
structural precondition that constructors in this package maintain and
that cannot be checked from stored data alone: whenever a series is
nonzero, its true support lies in ``corner + N^n`` for the componentwise
minimum ``corner`` of the stored support.  Products keep corners sharp
because corner coefficients cannot cancel over a field; sums may leave a
pessimistic floor but never a wrong one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import CycloNum, cyclo_field


class PrecisionError(Exception):
    """Requested data lies outside the guaranteed window of a series."""


def _frac_str(value) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def coeff_to_data(c):
    """Encode an exact coefficient as a JSON-ready value.

    Rationals become ``"num/den"`` strings; irrational cyclotomic numbers
    become ``{"order": M, "coeffs": [...]}`` with coefficients on the power
    basis of the degree-phi(M) field.
    """
    if isinstance(c, CycloNum):
        if c.is_rational():
            return _frac_str(c.as_fraction())
        return {
            "order": c.field.order,
            "coeffs": [_frac_str(f) for f in c.coeff_fractions()],
        }
    return _frac_str(c)


def coeff_from_data(data):
    """Inverse of :func:`coeff_to_data`."""
    if isinstance(data, str):
        return Fraction(data)
    field = cyclo_field(data["order"])
    coeffs = [Fraction(s) for s in data["coeffs"]]
    den = math.lcm(*(f.denominator for f in coeffs)) if coeffs else 1
    num = [int(f * den) for f in coeffs]
    num += [0] * (field.degree - len(num))
    return CycloNum(field, num, den)


def _as_coeff(c):
    if isinstance(c, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, (Fraction, CycloNum)):
        return c
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _coeff_inv(c):
    if isinstance(c, CycloNum):
        return c.inverse()
    return Fraction(1) / c


def _nmin(a, b):
    # None-aware minimum where None plays the role of +infinity.
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(frozen=True)
class VarSpec:
    """A series variable with the denominator of its exponent lattice."""

    name: str
    denominator: int = 1

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("exponent denominator must be a positive integer")


class GradeCap:
    """A named total grading given by nonnegative weights on variables."""

    def __init__(self, name: str, weights: dict):
        self.name = name
        self.weights = {}
        for var, w in weights.items():
            w = Fraction(w)
            if w < 0:
                raise ValueError("cap weights must be nonnegative")
            if w:
                self.weights[var] = w

    def signature(self):
        return (self.name, tuple(sorted(self.weights.items())))


class SeriesContext:
    """An ordered set of variables and gradings shared by compatible series."""

    def __init__(self, variables, caps=()):
        self.vars = tuple(variables)
        self.caps = tuple(caps)
        names = [v.name for v in self.vars]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(names)}
        self.dens = tuple(v.denominator for v in self.vars)
        self.n = len(self.vars)
        cap_names = [c.name for c in self.caps]
        if len(set(cap_names)) != len(cap_names):
            raise ValueError("duplicate cap names")
        self.cap_index = {n: i for i, n in enumerate(cap_names)}
        # Weight per scaled exponent unit, as integers over one denominator
        # per cap: the grade of a key under cap ci is
        # sum(_wnum[ci][i] * key[i]) / _wden[ci].
        weights = [
            [cap.weights.get(v.name, Fraction(0)) / v.denominator for v in self.vars]
            for cap in self.caps
        ]
        self._wden = tuple(math.lcm(1, *(f.denominator for f in w)) for w in weights)
        self._wnum = tuple(tuple(int(f * den) for f in w) for w, den in zip(weights, self._wden))

    def signature(self):
        return tuple((v.name, v.denominator) for v in self.vars)

    def full_signature(self):
        return (self.signature(), tuple(c.signature() for c in self.caps))

    def scale(self, name: str, exponent) -> int:
        if name not in self.index:
            raise ValueError(f"unknown variable {name!r}")
        s = Fraction(exponent) * self.dens[self.index[name]]
        if s.denominator != 1:
            raise ValueError(f"exponent {exponent} of {name!r} is off the lattice")
        return int(s)

    def key_from(self, exponents: dict) -> tuple:
        key = [0] * self.n
        for name, e in exponents.items():
            key[self.index[name]] = self.scale(name, e)
        return tuple(key)

    def natural(self, i: int, scaled: int):
        e = Fraction(scaled, self.dens[i])
        return int(e) if e.denominator == 1 else e

    def grade(self, ci: int, key) -> Fraction:
        return Fraction(sum(w * k for w, k in zip(self._wnum[ci], key)), self._wden[ci])

    def __repr__(self):
        return f"SeriesContext({', '.join(self.names)})"


class Series:
    __slots__ = ("ctx", "terms", "floors", "maxes", "cap_bounds")

    def __init__(self, ctx: SeriesContext, terms: dict, floors, maxes, cap_bounds):
        self.ctx = ctx
        self.terms = terms
        self.floors = tuple(floors)
        self.maxes = tuple(maxes)
        self.cap_bounds = tuple(cap_bounds)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ctx: SeriesContext) -> "Series":
        return cls(ctx, {}, (0,) * ctx.n, (None,) * ctx.n, (None,) * len(ctx.caps))

    @classmethod
    def monomial(cls, ctx: SeriesContext, exponents: dict, coeff) -> "Series":
        coeff = _as_coeff(coeff)
        if not coeff:
            return cls.zero(ctx)
        key = ctx.key_from(exponents)
        return cls(ctx, {key: coeff}, key, (None,) * ctx.n, (None,) * len(ctx.caps))

    @classmethod
    def one(cls, ctx: SeriesContext) -> "Series":
        return cls.monomial(ctx, {}, 1)

    @classmethod
    def from_terms(cls, ctx: SeriesContext, terms: dict, maxes=None, cap_bounds=None, floors=None) -> "Series":
        """Build from a mapping of natural exponent tuples to coefficients.

        Window arguments are given in natural units, keyed by variable or
        cap name; missing entries mean no truncation in that direction.
        Without ``floors`` they are read off the stored terms, so a series
        with no stored terms and a finite window needs explicit floors.
        """
        stored = {}
        for exps, c in terms.items():
            key = tuple(ctx.scale(ctx.names[i], e) for i, e in enumerate(exps))
            c = _as_coeff(c)
            if c:
                stored[key] = stored.get(key, Fraction(0)) + c
        stored = {k: c for k, c in stored.items() if c}
        maxes_v = [None] * ctx.n
        for name, m in (maxes or {}).items():
            maxes_v[ctx.index[name]] = ctx.scale(name, m)
        bounds_v = [None] * len(ctx.caps)
        for name, b in (cap_bounds or {}).items():
            bounds_v[ctx.cap_index[name]] = Fraction(b)
        if floors is None:
            if stored:
                floors_v = tuple(min(k[i] for k in stored) for i in range(ctx.n))
            elif any(v is not None for v in maxes_v + bounds_v):
                raise ValueError("no stored terms to read floors from: pass floors")
            else:
                floors_v = (0,) * ctx.n
        else:
            floors_v = tuple(ctx.scale(ctx.names[i], floors[i]) for i in range(ctx.n))
        return cls(ctx, stored, floors_v, tuple(maxes_v), tuple(bounds_v))._check_stored()

    @classmethod
    def exp_monomial(cls, ctx: SeriesContext, exponents: dict, coeff, maxes=None, cap_bounds=None) -> "Series":
        """exp(coeff * m) for a monomial m with nonnegative exponents,
        filled completely through the given window."""
        coeff = _as_coeff(coeff)
        key = ctx.key_from(exponents)
        if any(k < 0 for k in key):
            raise ValueError("exponential of a monomial with negative exponents")
        if not any(key):
            raise ValueError("exponential of a constant is not supported")
        if not coeff:
            return cls.one(ctx)
        maxes_v = [None] * ctx.n
        bounds_v = [None] * len(ctx.caps)
        n_candidates = []
        for name, m in (maxes or {}).items():
            i = ctx.index[name]
            s = ctx.scale(name, m)
            if key[i] > 0:
                maxes_v[i] = s
                n_candidates.append(s // key[i])
        for name, b in (cap_bounds or {}).items():
            ci = ctx.cap_index[name]
            b = Fraction(b)
            g = ctx.grade(ci, key)
            if g > 0:
                bounds_v[ci] = b
                n_candidates.append(int(b / g))
        if not n_candidates:
            raise PrecisionError("exponential needs a finite window in some occupied direction")
        n_max = min(n_candidates)
        terms = {}
        power = _as_coeff(1)
        for n in range(n_max + 1):
            k = tuple(n * e for e in key)
            if not self_in_window_static(k, maxes_v, bounds_v, ctx):
                break
            c = power / math.factorial(n)
            if c:
                terms[k] = c
            power = power * coeff
        return cls(ctx, terms, (0,) * ctx.n, tuple(maxes_v), tuple(bounds_v))

    # -- structure -------------------------------------------------------

    def _check_stored(self) -> "Series":
        # Every stored term must lie in the window and on or above the floors.
        for key in self.terms:
            if not self_in_window_static(key, self.maxes, self.cap_bounds, self.ctx):
                raise ValueError("stored term lies outside the declared window")
            if any(k < f for k, f in zip(key, self.floors)):
                raise ValueError("stored term lies below the declared floor")
        return self

    def is_exact_zero(self) -> bool:
        return (
            not self.terms
            and all(m is None for m in self.maxes)
            and all(b is None for b in self.cap_bounds)
        )

    def _val(self, i: int) -> int:
        if self.terms:
            return min(k[i] for k in self.terms)
        return self.floors[i]

    def _cap_val(self, ci: int) -> Fraction:
        if self.terms:
            return min(self.ctx.grade(ci, k) for k in self.terms)
        return self.ctx.grade(ci, self.floors)

    def _require_same_ctx(self, other: "Series") -> SeriesContext:
        if self.ctx is other.ctx:
            return self.ctx
        if self.ctx.full_signature() != other.ctx.full_signature():
            raise ValueError("series live in incompatible contexts")
        return self.ctx

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series.monomial(self.ctx, {}, other)
        ctx = self._require_same_ctx(other)
        floors = tuple(min(a, b) for a, b in zip(self.floors, other.floors))
        maxes = tuple(_nmin(a, b) for a, b in zip(self.maxes, other.maxes))
        bounds = tuple(_nmin(a, b) for a, b in zip(self.cap_bounds, other.cap_bounds))
        out = {}
        for src in (self.terms, other.terms):
            for k, c in src.items():
                if self_in_window_static(k, maxes, bounds, ctx):
                    acc = out.get(k)
                    out[k] = c if acc is None else acc + c
        out = {k: c for k, c in out.items() if c}
        return Series(ctx, out, floors, maxes, bounds)

    __radd__ = __add__

    def __neg__(self):
        return Series(
            self.ctx, {k: -c for k, c in self.terms.items()}, self.floors, self.maxes, self.cap_bounds
        )

    def __sub__(self, other):
        if not isinstance(other, Series):
            other = Series.monomial(self.ctx, {}, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, scalar) -> "Series":
        scalar = _as_coeff(scalar)
        if not scalar:
            return Series.zero(self.ctx)
        return Series(
            self.ctx,
            {k: scalar * c for k, c in self.terms.items()},
            self.floors,
            self.maxes,
            self.cap_bounds,
        )

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self._scale(other)
        ctx = self._require_same_ctx(other)
        if self.is_exact_zero() or other.is_exact_zero():
            z = Series.zero(ctx)
            return Series(
                z.ctx,
                {},
                tuple(a + b for a, b in zip(self.floors, other.floors)),
                z.maxes,
                z.cap_bounds,
            )
        floors = tuple(a + b for a, b in zip(self.floors, other.floors))
        maxes = []
        for i in range(ctx.n):
            c1 = self.maxes[i] + other._val(i) if self.maxes[i] is not None else None
            c2 = other.maxes[i] + self._val(i) if other.maxes[i] is not None else None
            maxes.append(_nmin(c1, c2))
        maxes = tuple(maxes)
        bounds = []
        for ci in range(len(ctx.caps)):
            c1 = self.cap_bounds[ci] + other._cap_val(ci) if self.cap_bounds[ci] is not None else None
            c2 = other.cap_bounds[ci] + self._cap_val(ci) if other.cap_bounds[ci] is not None else None
            bounds.append(_nmin(c1, c2))
        bounds = tuple(bounds)
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                if not self_in_window_static(k, maxes, bounds, ctx):
                    continue
                c = ca * cb
                acc = out.get(k)
                out[k] = c if acc is None else acc + c
        out = {k: c for k, c in out.items() if c}
        return Series(ctx, out, floors, maxes, bounds)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, scalar):
        if isinstance(scalar, Series):
            return self * scalar.invert()
        return self._scale(_coeff_inv(_as_coeff(scalar)))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.invert() ** (-exponent)
        result = Series.one(self.ctx)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- analytic operations ------------------------------------------------

    def _clip_to(self, maxes, bounds) -> "Series":
        # Intersect the window with the given scaled extents and prune.
        nm = tuple(_nmin(a, b) for a, b in zip(self.maxes, maxes))
        nb = tuple(_nmin(a, b) for a, b in zip(self.cap_bounds, bounds))
        terms = {k: c for k, c in self.terms.items() if self_in_window_static(k, nm, nb, self.ctx)}
        return Series(self.ctx, terms, self.floors, nm, nb)

    def _power_sum(self, coeffs, acc: "Series") -> "Series":
        # acc + sum_k coeffs[k-1] * self**k, every power clipped to the window
        # of self.  Empty powers still take part: they narrow the window of
        # the sum.  The sum is then trimmed to that window.
        power = self._clip_to(self.maxes, self.cap_bounds)
        for k, c in enumerate(coeffs):
            if k:
                power = (power * self)._clip_to(self.maxes, self.cap_bounds)
            acc = acc + (power if c == 1 else power._scale(c))
        return acc._clip_to(self.maxes, self.cap_bounds)

    def invert(self) -> "Series":
        """Multiplicative inverse around the corner of the stored support.

        Requires the true support to be anchored at a single stored corner
        term (see the module docstring); raises PrecisionError when the
        corner cannot be identified or the inverse cannot be truncated.
        """
        if not self.terms:
            raise PrecisionError("cannot invert a series with no stored terms")
        ctx = self.ctx
        n = ctx.n
        corner = tuple(min(k[i] for k in self.terms) for i in range(n))
        c0 = self.terms.get(corner)
        if not c0:
            raise PrecisionError("stored support has no invertible corner term")
        m_inv = Series(
            ctx,
            {tuple(-e for e in corner): _coeff_inv(c0)},
            tuple(-e for e in corner),
            (None,) * n,
            (None,) * len(ctx.caps),
        )
        u = self * m_inv
        # By the corner-anchored precondition the true support of u lies in
        # the nonnegative orthant, so its floors are exactly zero; the
        # summed floor bookkeeping is coarser than that.
        u = Series(ctx, u.terms, (0,) * n, u.maxes, u.cap_bounds)
        w = Series.one(ctx) - u
        # 1/u = sum_k w**k.  Score a key by its exponents in the variables
        # where u has a finite max plus its grades under the caps where u has
        # a finite bound: a key inside u's window scores at most the sum of
        # those extents, and a term of w**k scores at least k times the least
        # score among w's terms, so powers beyond K are empty.
        bounded = [i for i, m in enumerate(u.maxes) if m is not None]
        capped = [ci for ci, b in enumerate(u.cap_bounds) if b is not None]
        scores = [sum(k[i] for i in bounded) + sum(ctx.grade(ci, k) for ci in capped) for k in w.terms]
        if scores and min(scores) <= 0:
            raise PrecisionError("inverse has unbounded support for the current window")
        extent = sum(u.maxes[i] for i in bounded) + sum(u.cap_bounds[ci] for ci in capped)
        K = extent // min(scores) if scores else 0
        acc = w._power_sum([1] * K, Series.one(ctx))
        # Same precondition: every power of w has support in the nonnegative
        # orthant, so the accumulated floors are exactly zero.
        acc = Series(ctx, acc.terms, (0,) * n, acc.maxes, acc.cap_bounds)
        return acc * m_inv

    def exp(self, cap: str | None = None) -> "Series":
        """exp of a series whose stored terms all have positive grade under
        the named cap (default: the first cap), truncated by its bound."""
        ctx = self.ctx
        if self.is_exact_zero():
            return Series.one(ctx)
        if not ctx.caps:
            raise PrecisionError("exp needs a grading cap to truncate against")
        ci = ctx.cap_index[cap] if cap is not None else 0
        bound = self.cap_bounds[ci]
        if bound is None:
            raise PrecisionError("exp needs a finite bound on its grading cap")
        if not self.terms:
            out = Series.one(ctx)
            return out + self  # empty terms, but inherits the truncation window
        min_grade = min(ctx.grade(ci, k) for k in self.terms)
        if min_grade <= 0:
            raise ValueError("exp requires every stored term to have positive cap grade")
        k_max = int(bound / min_grade)
        coeffs = [Fraction(1, math.factorial(k)) for k in range(1, k_max + 1)]
        return self._power_sum(coeffs, Series.one(ctx))

    def log(self, cap: str | None = None) -> "Series":
        """log of a series whose grade-zero slice under the named cap is
        exactly 1, truncated by that cap's bound."""
        ctx = self.ctx
        if not ctx.caps:
            raise PrecisionError("log needs a grading cap to truncate against")
        ci = ctx.cap_index[cap] if cap is not None else 0
        zero_key = (0,) * ctx.n
        for k, c in self.terms.items():
            if ctx.grade(ci, k) == 0 and (k != zero_key or c != 1):
                raise ValueError("log requires the grade-zero slice to be exactly 1")
        if self.terms.get(zero_key) != 1:
            raise ValueError("log requires the grade-zero slice to be exactly 1")
        w = self - Series.one(ctx)
        if not w.terms:
            return Series.zero(ctx) + w  # zero, but keep the truncation window
        bound = self.cap_bounds[ci]
        if bound is None:
            raise PrecisionError("log needs a finite bound on its grading cap")
        min_grade = min(ctx.grade(ci, k) for k in w.terms)
        if min_grade <= 0:
            raise ValueError("log requires every nonconstant term to have positive cap grade")
        k_max = int(bound / min_grade)
        coeffs = [Fraction((-1) ** (k - 1), k) for k in range(1, k_max + 1)]
        return w._power_sum(coeffs, Series.zero(ctx))

    # -- reading and reshaping ----------------------------------------------

    def coefficient(self, exponents: dict):
        """The exact coefficient at the given exponents (unlisted
        variables default to exponent zero)."""
        key = self.ctx.key_from(exponents)
        if any(k < f for k, f in zip(key, self.floors)):
            return Fraction(0)
        if not self_in_window_static(key, self.maxes, self.cap_bounds, self.ctx):
            raise PrecisionError(f"coefficient at {exponents} lies outside the guaranteed window")
        return self.terms.get(key, Fraction(0))

    def extract(self, fixed: dict) -> "Series":
        """Fix the exponents of a subset of variables and return the series
        in the remaining ones."""
        ctx = self.ctx
        fixed_idx = {}
        for name, e in fixed.items():
            fixed_idx[ctx.index[name]] = ctx.scale(name, e)
        keep = [i for i in range(ctx.n) if i not in fixed_idx]
        new_vars = tuple(ctx.vars[i] for i in keep)
        new_caps = []
        fixed_grade = []
        for ci, cap in enumerate(ctx.caps):
            shaved = sum(ctx._wnum[ci][i] * e for i, e in fixed_idx.items())
            fixed_grade.append(Fraction(shaved, ctx._wden[ci]))
            new_caps.append(GradeCap(cap.name, {v.name: cap.weights.get(v.name, 0) for v in new_vars}))
        new_ctx = SeriesContext(new_vars, tuple(new_caps))
        below_floor = any(e < self.floors[i] for i, e in fixed_idx.items())
        if below_floor:
            return Series.zero(new_ctx)
        for i, e in fixed_idx.items():
            if self.maxes[i] is not None and e > self.maxes[i]:
                raise PrecisionError(f"slice at {ctx.names[i]} beyond the guaranteed window")
        new_floors = tuple(self.floors[i] for i in keep)
        new_maxes = tuple(self.maxes[i] for i in keep)
        new_bounds = []
        for ci in range(len(ctx.caps)):
            if self.cap_bounds[ci] is None:
                new_bounds.append(None)
                continue
            b = self.cap_bounds[ci] - fixed_grade[ci]
            rest_min = Fraction(sum(ctx._wnum[ci][i] * self.floors[i] for i in keep), ctx._wden[ci])
            if b < rest_min:
                raise PrecisionError(f"slice lies entirely beyond cap {ctx.caps[ci].name!r}")
            new_bounds.append(b)
        out = {}
        for k, c in self.terms.items():
            if all(k[i] == e for i, e in fixed_idx.items()):
                out[tuple(k[i] for i in keep)] = c
        return Series(new_ctx, out, new_floors, new_maxes, tuple(new_bounds))

    def embed(self, ctx: SeriesContext) -> "Series":
        """The same series in another context, matching variables and caps
        by name.  A variable the source lacks gets exponent 0, no max and
        floor 0; floors, maxes and cap bounds carry over unchanged.  Raises
        ValueError on a changed lattice denominator, on a dropped variable
        with terms or a finite max, and on a finite cap bound that would be
        dropped or reweighted."""
        src = self.ctx
        for i, name in enumerate(src.names):
            if name in ctx.index:
                if ctx.dens[ctx.index[name]] != src.dens[i]:
                    raise ValueError(f"variable {name!r} has a different exponent lattice")
            elif self.maxes[i] is not None or any(k[i] for k in self.terms):
                raise ValueError(f"variable {name!r} carries data the target context lacks")
        for ci, cap in enumerate(src.caps):
            kept = ctx.caps[ctx.cap_index[cap.name]].weights if cap.name in ctx.cap_index else {}
            reweighted = any(kept.get(v, 0) != cap.weights.get(v, 0) for v in src.names)
            if self.cap_bounds[ci] is not None and reweighted:
                raise ValueError(f"finite bound of cap {cap.name!r} would be dropped or reweighted")
        picks = [src.index.get(name) for name in ctx.names]
        terms = {tuple(0 if j is None else k[j] for j in picks): c for k, c in self.terms.items()}
        floors = tuple(0 if j is None else self.floors[j] for j in picks)
        maxes = tuple(None if j is None else self.maxes[j] for j in picks)
        have = dict(zip((cap.name for cap in src.caps), self.cap_bounds))
        return Series(ctx, terms, floors, maxes, tuple(have.get(cap.name) for cap in ctx.caps))

    def restrict(self, maxes=None, cap_bounds=None) -> "Series":
        """Shrink the window (never grow it) and prune stored terms."""
        ctx = self.ctx
        new_maxes = [None] * ctx.n
        for name, m in (maxes or {}).items():
            new_maxes[ctx.index[name]] = ctx.scale(name, m)
        new_bounds = [None] * len(ctx.caps)
        for name, b in (cap_bounds or {}).items():
            new_bounds[ctx.cap_index[name]] = Fraction(b)
        return self._clip_to(new_maxes, new_bounds)

    def require_window(self, maxes=None, cap_bounds=None) -> "Series":
        """Assert that the guaranteed window covers the given extents."""
        for name, m in (maxes or {}).items():
            i = self.ctx.index[name]
            if self.maxes[i] is not None and self.maxes[i] < self.ctx.scale(name, m):
                raise PrecisionError(
                    f"window of {name!r} reaches only {self.ctx.natural(i, self.maxes[i])}, need {m}"
                )
        for name, b in (cap_bounds or {}).items():
            ci = self.ctx.cap_index[name]
            have = self.cap_bounds[ci]
            if have is not None and have < Fraction(b):
                raise PrecisionError(f"cap {name!r} reaches only {have}, need {b}")
        return self

    def substitute(self, scalars: dict) -> "Series":
        """Rescale variables, each name v -> scalar * v: a diagonal
        substitution, exact on any window."""
        ctx = self.ctx
        scalars = {ctx.index[name]: _as_coeff(s) for name, s in scalars.items()}
        out = {}
        for k, c in self.terms.items():
            factor = _as_coeff(1)
            for i, s in scalars.items():
                e = Fraction(k[i], ctx.dens[i])
                if e.denominator != 1:
                    raise PrecisionError("diagonal substitution needs integer exponents")
                factor = factor * s ** int(e)
            nc = factor * c
            if nc:
                out[k] = nc
        return Series(ctx, out, self.floors, self.maxes, self.cap_bounds)

    # -- inspection -----------------------------------------------------------

    def natural_items(self):
        """Sorted list of (natural exponent tuple, coefficient)."""
        out = []
        for k in sorted(self.terms):
            out.append((tuple(self.ctx.natural(i, k[i]) for i in range(self.ctx.n)), self.terms[k]))
        return out

    def window_description(self) -> dict:
        d = {}
        for i, name in enumerate(self.ctx.names):
            d[name] = {
                "floor": self.ctx.natural(i, self.floors[i]),
                "max": None if self.maxes[i] is None else self.ctx.natural(i, self.maxes[i]),
            }
        for ci, cap in enumerate(self.ctx.caps):
            d[f"cap:{cap.name}"] = self.cap_bounds[ci]
        return d

    def to_data(self) -> dict:
        """Canonical JSON-ready form: exact exponents, coefficients, window."""
        return {
            "variables": [
                {"name": v.name, "denominator": v.denominator} for v in self.ctx.vars
            ],
            "caps": [
                {
                    "name": c.name,
                    "weights": {k: _frac_str(w) for k, w in sorted(c.weights.items())},
                }
                for c in self.ctx.caps
            ],
            "floors": [
                _frac_str(self.ctx.natural(i, f)) for i, f in enumerate(self.floors)
            ],
            "maxes": [
                None if m is None else _frac_str(self.ctx.natural(i, m))
                for i, m in enumerate(self.maxes)
            ],
            "cap_bounds": [None if b is None else _frac_str(b) for b in self.cap_bounds],
            "terms": [
                {
                    "exponents": [
                        _frac_str(self.ctx.natural(i, k)) for i, k in enumerate(key)
                    ],
                    "coeff": coeff_to_data(self.terms[key]),
                }
                for key in sorted(self.terms)
            ],
        }

    @classmethod
    def from_data(cls, data: dict) -> "Series":
        """Rebuild a series, in a fresh context, from :meth:`to_data` output.

        A stored term outside the window or below a floor raises
        ``ValueError``, as in :meth:`from_terms`.
        """
        ctx = SeriesContext(
            tuple(VarSpec(v["name"], v["denominator"]) for v in data["variables"]),
            tuple(
                GradeCap(c["name"], {k: Fraction(w) for k, w in c["weights"].items()})
                for c in data["caps"]
            ),
        )
        terms = {}
        for t in data["terms"]:
            key = tuple(
                ctx.scale(ctx.names[i], Fraction(e)) for i, e in enumerate(t["exponents"])
            )
            terms[key] = coeff_from_data(t["coeff"])
        floors = tuple(
            ctx.scale(ctx.names[i], Fraction(f)) for i, f in enumerate(data["floors"])
        )
        maxes = tuple(
            None if m is None else ctx.scale(ctx.names[i], Fraction(m))
            for i, m in enumerate(data["maxes"])
        )
        bounds = tuple(None if b is None else Fraction(b) for b in data["cap_bounds"])
        return cls(ctx, terms, floors, maxes, bounds)._check_stored()

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.ctx.signature() == other.ctx.signature() and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"Series({len(self.terms)} terms in {', '.join(self.ctx.names) or 'Q'})"


def self_in_window_static(key, maxes, bounds, ctx: SeriesContext) -> bool:
    for k, m in zip(key, maxes):
        if m is not None and k > m:
            return False
    # grade > b, cross-multiplied: integers only.
    for wnum, wden, b in zip(ctx._wnum, ctx._wden, bounds):
        if b is not None and sum(w * k for w, k in zip(wnum, key)) * b.denominator > b.numerator * wden:
            return False
    return True
