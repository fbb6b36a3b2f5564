"""Multivariate truncated Laurent series with explicit honesty windows.

A Series stores exact coefficients (Fraction or cyclotomic) on an integer
exponent lattice, plus a record of how much of the true object the stored
data is guaranteed to represent:

* ``tops``: the window, one upper bound per slot: first each variable's
  max exponent, then each cap's bound on its weighted total grade, with
  None where a direction is open.  Stored data is complete on the keys
  that satisfy every finite bound jointly.
* ``floors[v]``: no term inside the window lies below this exponent in
  variable v, so reads there return an exact zero.

``maxes`` and ``cap_bounds`` are read-only views of the two parts of
``tops``.  All arithmetic propagates windows conservatively, and reading a
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
from functools import lru_cache

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


def require_fields(data, what: str, *names):
    """Raise ValueError unless data is a mapping that holds every field in
    names; the message names what was read and the first missing field."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} is not a JSON object")
    for name in names:
        if name not in data:
            raise ValueError(f"{what} lacks the field {name!r}")


def coeff_from_data(data):
    """Inverse of :func:`coeff_to_data`."""
    if isinstance(data, str):
        return Fraction(data)
    require_fields(data, "a cyclotomic coefficient", "order", "coeffs")
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


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n of t/(e^t - 1) = sum_n B_n t^n/n!, so
    B_1 = -1/2 (sympy 1.14 returns +1/2), from the recurrence
    sum_{j<=n} C(n+1, j) B_j = 0 over the cached lower numbers."""
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n < 2:
        return Fraction(-1, 2) if n else Fraction(1)
    if n % 2:
        return Fraction(0)
    return -sum(math.comb(n + 1, j) * bernoulli(j) for j in range(n)) / (n + 1)


# 1/f(t) = (1/t) sum_n w(n) B_n t^n/n! for the denominators f the package
# inverts, by t/(e^t - 1) = sum_n B_n t^n/n!:
# * 1/(1 - e^t) = -(1/t) t/(e^t - 1);
# * 1/(1 + e^t) = 2/(1 - e^(2t)) - 1/(1 - e^t);
# * 1/(e^(t/2) - e^(-t/2)) = e^(t/2)/(e^t - 1), and e^(xt) t/(e^t - 1)
#   = sum_n B_n(x) t^n/n! with B_n(1/2) = (2^(1-n) - 1) B_n.
_TRIG_WEIGHTS = {
    "1 - e^t": lambda n: -1,
    "1 + e^t": lambda n: 1 - 2**n,
    "e^(t/2) - e^(-t/2)": lambda n: Fraction(2, 2**n) - 1,
}


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

    def level(self, j: int, key):
        """Window slot j at a scaled key: the exponent of variable j, or
        the grade under cap j - n."""
        return key[j] if j < self.n else self.grade(j - self.n, key)

    def natural_top(self, j: int, top):
        """A value of window slot j in natural units."""
        return self.natural(j, top) if j < self.n else top

    def extents(self, maxes=None, cap_bounds=None):
        """(slot, label, extent, scaled extent) for each extent given in
        natural units, keyed by variable or cap name."""
        for name, m in (maxes or {}).items():
            yield self.index[name], f"window of {name!r}", m, self.scale(name, m)
        for name, b in (cap_bounds or {}).items():
            yield self.n + self.cap_index[name], f"cap {name!r}", b, Fraction(b)

    def window(self, maxes=None, cap_bounds=None) -> tuple:
        """The window tuple of the given extents; missing entries are open."""
        tops = [None] * (self.n + len(self.caps))
        for j, _, _, top in self.extents(maxes, cap_bounds):
            tops[j] = top
        return tuple(tops)

    def __repr__(self):
        return f"SeriesContext({', '.join(self.names)})"


class Series:
    __slots__ = ("ctx", "terms", "floors", "tops")

    def __init__(self, ctx: SeriesContext, terms: dict, floors, tops):
        tops = tuple(tops)
        if len(tops) != ctx.n + len(ctx.caps):
            raise ValueError("window needs one top per variable and per cap")
        self.ctx = ctx
        self.terms = terms
        self.floors = tuple(floors)
        self.tops = tops

    @property
    def maxes(self) -> tuple:
        """Each variable's scaled max exponent (None: open)."""
        return self.tops[: self.ctx.n]

    @property
    def cap_bounds(self) -> tuple:
        """Each cap's bound on its grade (None: open)."""
        return self.tops[self.ctx.n :]

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ctx: SeriesContext) -> "Series":
        return cls(ctx, {}, (0,) * ctx.n, ctx.window())

    @classmethod
    def monomial(cls, ctx: SeriesContext, exponents: dict, coeff) -> "Series":
        coeff = _as_coeff(coeff)
        if not coeff:
            return cls.zero(ctx)
        key = ctx.key_from(exponents)
        return cls(ctx, {key: coeff}, key, ctx.window())

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
            if len(exps) != ctx.n:
                raise ValueError(f"exponents {exps} need one entry per variable, {ctx.n} in all")
            key = tuple(ctx.scale(ctx.names[i], e) for i, e in enumerate(exps))
            c = _as_coeff(c)
            if c:
                stored[key] = stored.get(key, Fraction(0)) + c
        stored = {k: c for k, c in stored.items() if c}
        tops = ctx.window(maxes, cap_bounds)
        if floors is None:
            if stored:
                floors_v = tuple(min(k[i] for k in stored) for i in range(ctx.n))
            elif any(t is not None for t in tops):
                raise ValueError("no stored terms to read floors from: pass floors")
            else:
                floors_v = (0,) * ctx.n
        else:
            floors_v = tuple(ctx.scale(ctx.names[i], floors[i]) for i in range(ctx.n))
        return cls(ctx, stored, floors_v, tops)._check_stored()

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
        # Only the slots that m occupies bound the powers of m.
        tops = list(ctx.window(maxes, cap_bounds))
        n_candidates = []
        for j, top in enumerate(tops):
            if top is not None:
                step = ctx.level(j, key)
                if step > 0:
                    n_candidates.append(top // step)
                else:
                    tops[j] = None
        if not n_candidates:
            raise PrecisionError("exponential needs a finite window in some occupied direction")
        n_max = min(n_candidates)
        terms = {}
        power = _as_coeff(1)
        for n in range(n_max + 1):
            k = tuple(n * e for e in key)
            if not self_in_window_static(k, tops, ctx):
                break
            c = power / math.factorial(n)
            if c:
                terms[k] = c
            power = power * coeff
        return cls(ctx, terms, (0,) * ctx.n, tops)

    @classmethod
    def inverse_trig(cls, ctx: SeriesContext, var: str, denominator: str, k, fill: int, field) -> "Series":
        """1/f(t) at t = i k var, for f(t) one of "1 - e^t", "1 + e^t" and
        "e^(t/2) - e^(-t/2)", with i the imaginary unit of the cyclotomic
        field.  The coefficients are closed Bernoulli expressions, so the
        series is complete through var^fill, and its floor is var^-1 (var^0
        for 1 + e^t, which does not vanish at t = 0).  No cap may weigh var."""
        weight = _TRIG_WEIGHTS[denominator]
        k = Fraction(k)
        terms = {}
        # The coefficient of var^(n-1) is w(n) B_n (i k)^(n-1)/n!.
        for n in range(fill + 2):
            c = weight(n) * bernoulli(n)
            if c:
                key = ctx.key_from({var: n - 1})
                terms[key] = field.root_of_unity(4, n - 1) * (c * k ** (n - 1) / math.factorial(n))
        floors = ctx.key_from({var: -1 if weight(0) else 0})
        return cls(ctx, terms, floors, ctx.window({var: fill}))

    # -- structure -------------------------------------------------------

    def _check_stored(self) -> "Series":
        # Every stored term must lie in the window and on or above the floors.
        for key in self.terms:
            if not self_in_window_static(key, self.tops, self.ctx):
                raise ValueError("stored term lies outside the declared window")
            if any(k < f for k, f in zip(key, self.floors)):
                raise ValueError("stored term lies below the declared floor")
        return self

    def is_exact_zero(self) -> bool:
        return not self.terms and all(t is None for t in self.tops)

    def _low(self, j: int):
        # The least value of window slot j over the stored terms, or at the
        # floors when none are stored.
        keys = self.terms or (self.floors,)
        ctx = self.ctx
        if j < ctx.n:
            return min(k[j] for k in keys)
        wnum = ctx._wnum[j - ctx.n]
        return Fraction(min(sum(w * e for w, e in zip(wnum, k)) for k in keys), ctx._wden[j - ctx.n])

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
        tops = tuple(map(_nmin, self.tops, other.tops))
        out = {}
        for src in (self.terms, other.terms):
            for k, c in src.items():
                if self_in_window_static(k, tops, ctx):
                    acc = out.get(k)
                    out[k] = c if acc is None else acc + c
        out = {k: c for k, c in out.items() if c}
        return Series(ctx, out, floors, tops)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.ctx, {k: -c for k, c in self.terms.items()}, self.floors, self.tops)

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
        return Series(self.ctx, {k: scalar * c for k, c in self.terms.items()}, self.floors, self.tops)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self._scale(other)
        ctx = self._require_same_ctx(other)
        floors = tuple(a + b for a, b in zip(self.floors, other.floors))
        if self.is_exact_zero() or other.is_exact_zero():
            return Series(ctx, {}, floors, ctx.window())
        # Each factor's top plus the other factor's lowest value in the slot.
        tops = tuple(
            _nmin(None if a is None else a + other._low(j), None if b is None else b + self._low(j))
            for j, (a, b) in enumerate(zip(self.tops, other.tops))
        )
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                if not self_in_window_static(k, tops, ctx):
                    continue
                c = ca * cb
                acc = out.get(k)
                out[k] = c if acc is None else acc + c
        out = {k: c for k, c in out.items() if c}
        return Series(ctx, out, floors, tops)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, scalar):
        return self._scale(_coeff_inv(_as_coeff(scalar)))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
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

    def _clip_to(self, tops) -> "Series":
        # Intersect the window with the given scaled tops and prune.
        tops = tuple(map(_nmin, self.tops, tops))
        terms = {k: c for k, c in self.terms.items() if self_in_window_static(k, tops, self.ctx)}
        return Series(self.ctx, terms, self.floors, tops)

    def _power_sum(self, coeffs, acc: "Series") -> "Series":
        # acc + sum_k coeffs[k-1] * self**k, every power clipped to the window
        # of self.  Empty powers still take part: they narrow the window of
        # the sum.  The sum is then trimmed to that window, which holds every
        # term inside it, so its lowest stored exponents are its floors.
        power = self._clip_to(self.tops)
        for k, c in enumerate(coeffs):
            if k:
                power = (power * self)._clip_to(self.tops)
            acc = acc + (power if c == 1 else power._scale(c))
        acc = acc._clip_to(self.tops)
        if not acc.terms:
            return acc
        floors = tuple(min(k[i] for k in acc.terms) for i in range(self.ctx.n))
        return Series(self.ctx, acc.terms, floors, acc.tops)

    def invert(self) -> "Series":
        """Multiplicative inverse around the corner of the stored support.

        Requires the true support to be anchored at a single stored corner
        term (see the module docstring); raises PrecisionError when the
        corner cannot be identified or the inverse cannot be truncated.
        """
        if not self.terms:
            raise PrecisionError("cannot invert a series with no stored terms")
        ctx = self.ctx
        corner = tuple(min(k[i] for k in self.terms) for i in range(ctx.n))
        c0 = self.terms.get(corner)
        if not c0:
            raise PrecisionError("stored support has no invertible corner term")
        shift = tuple(-e for e in corner)
        m_inv = Series(ctx, {shift: _coeff_inv(c0)}, shift, ctx.window())
        u = self * m_inv
        w = Series.one(ctx) - u
        # 1/u = sum_k w**k.  Score a key by its values in the slots where u
        # has a finite top: a key inside u's window scores at most the sum
        # of those tops, and a term of w**k scores at least k times the
        # least score among w's terms, so powers beyond K are empty.
        finite = [j for j, t in enumerate(u.tops) if t is not None]
        scores = [sum(ctx.level(j, k) for j in finite) for k in w.terms]
        if scores and min(scores) <= 0:
            raise PrecisionError("inverse has unbounded support for the current window")
        extent = sum(u.tops[j] for j in finite)
        K = extent // min(scores) if scores else 0
        return w._power_sum([1] * K, Series.one(ctx)) * m_inv

    def _truncation(self, cap, op: str, what: str, unit: bool = False):
        # The highest power that exp or log (op) keeps under the named cap
        # (default: the first), or None when there is nothing to raise to a
        # power.  Every stored term (described by what) must have positive
        # grade, so the k-th power grades at least k times the least grade;
        # with unit, the grade-zero slice must instead be exactly 1.
        ctx = self.ctx
        if not ctx.caps:
            raise PrecisionError(f"{op} needs a grading cap to truncate against")
        ci = ctx.cap_index[cap] if cap is not None else 0
        terms = self.terms
        if unit:
            zero_key = (0,) * ctx.n
            for k, c in terms.items():
                if ctx.grade(ci, k) == 0 and (k != zero_key or c != 1):
                    raise ValueError(f"{op} requires the grade-zero slice to be exactly 1")
            if terms.get(zero_key) != 1:
                raise ValueError(f"{op} requires the grade-zero slice to be exactly 1")
            terms = [k for k in terms if k != zero_key]
        if not terms:
            return None
        bound = self.tops[ctx.n + ci]
        if bound is None:
            raise PrecisionError(f"{op} needs a finite bound on its grading cap")
        min_grade = min(ctx.grade(ci, k) for k in terms)
        if min_grade <= 0:
            raise ValueError(f"{op} requires every {what} to have positive cap grade")
        return int(bound / min_grade)

    def exp(self, cap: str | None = None) -> "Series":
        """exp of a series whose stored terms all have positive grade under
        the named cap (default: the first cap), truncated by its bound."""
        ctx = self.ctx
        if self.is_exact_zero():
            return Series.one(ctx)
        k_max = self._truncation(cap, "exp", "stored term")
        if k_max is None:
            return Series.one(ctx) + self  # empty terms, but inherits the truncation window
        coeffs = [Fraction(1, math.factorial(k)) for k in range(1, k_max + 1)]
        return self._power_sum(coeffs, Series.one(ctx))

    def log(self, cap: str | None = None) -> "Series":
        """log of a series whose grade-zero slice under the named cap is
        exactly 1, truncated by that cap's bound."""
        ctx = self.ctx
        k_max = self._truncation(cap, "log", "nonconstant term", unit=True)
        w = self - Series.one(ctx)
        if k_max is None:
            return Series.zero(ctx) + w  # zero, but keep the truncation window
        coeffs = [Fraction((-1) ** (k - 1), k) for k in range(1, k_max + 1)]
        return w._power_sum(coeffs, Series.zero(ctx))

    # -- reading and reshaping ----------------------------------------------

    def coefficient(self, exponents: dict):
        """The exact coefficient at the given exponents (unlisted
        variables default to exponent zero)."""
        key = self.ctx.key_from(exponents)
        if not self_in_window_static(key, self.tops, self.ctx):
            raise PrecisionError(f"coefficient at {exponents} lies outside the guaranteed window")
        # Inside the window the stored data is complete: in particular,
        # keys below the floors read zero.
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
        for i, e in fixed_idx.items():
            if self.tops[i] is not None and e > self.tops[i]:
                raise PrecisionError(f"slice at {ctx.names[i]} beyond the guaranteed window")
        new_floors = tuple(self.floors[i] for i in keep)
        new_tops = [self.tops[i] for i in keep]
        for ci, bound in enumerate(self.cap_bounds):
            if bound is None:
                new_tops.append(None)
                continue
            b = bound - fixed_grade[ci]
            rest_min = Fraction(sum(ctx._wnum[ci][i] * self.floors[i] for i in keep), ctx._wden[ci])
            if b < rest_min:
                raise PrecisionError(f"slice lies entirely beyond cap {ctx.caps[ci].name!r}")
            new_tops.append(b)
        out = {}
        for k, c in self.terms.items():
            if all(k[i] == e for i, e in fixed_idx.items()):
                out[tuple(k[i] for i in keep)] = c
        return Series(new_ctx, out, new_floors, new_tops)

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
            elif self.tops[i] is not None or any(k[i] for k in self.terms):
                raise ValueError(f"variable {name!r} carries data the target context lacks")
        for ci, cap in enumerate(src.caps):
            kept = ctx.caps[ctx.cap_index[cap.name]].weights if cap.name in ctx.cap_index else {}
            reweighted = any(kept.get(v, 0) != cap.weights.get(v, 0) for v in src.names)
            if self.tops[src.n + ci] is not None and reweighted:
                raise ValueError(f"finite bound of cap {cap.name!r} would be dropped or reweighted")
        picks = [src.index.get(name) for name in ctx.names]
        terms = {tuple(0 if j is None else k[j] for j in picks): c for k, c in self.terms.items()}
        floors = tuple(0 if j is None else self.floors[j] for j in picks)
        have = dict(zip((cap.name for cap in src.caps), self.cap_bounds))
        tops = [None if j is None else self.tops[j] for j in picks] + [have.get(cap.name) for cap in ctx.caps]
        return Series(ctx, terms, floors, tops)

    def restrict(self, maxes=None, cap_bounds=None) -> "Series":
        """The series cut to a smaller window, and the checked way to compare
        two series on one: ``x.restrict(W) == y.restrict(W)``.  Raises
        PrecisionError when an extent lies beyond the guaranteed window or
        admits no key on or above the floors (an empty window)."""
        self.require_window(maxes, cap_bounds)
        ctx = self.ctx
        # Cap weights are nonnegative, so no key above the floors grades
        # lower than the floors do.
        for j, label, e, _ in ctx.extents(maxes, cap_bounds):
            floor = ctx.natural_top(j, ctx.level(j, self.floors))
            if e < floor:
                raise PrecisionError(f"{label} cut at {e} lies below its floor {floor}")
        return self._clip_to(ctx.window(maxes, cap_bounds))

    def require_window(self, maxes=None, cap_bounds=None) -> "Series":
        """Assert that the guaranteed window covers the given extents."""
        for j, label, e, top in self.ctx.extents(maxes, cap_bounds):
            have = self.tops[j]
            if have is not None and have < top:
                raise PrecisionError(f"{label} reaches only {self.ctx.natural_top(j, have)}, need {e}")
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
        return Series(ctx, out, self.floors, self.tops)

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
                "max": None if self.tops[i] is None else self.ctx.natural(i, self.tops[i]),
            }
        for ci, cap in enumerate(self.ctx.caps):
            d[f"cap:{cap.name}"] = self.tops[self.ctx.n + ci]
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

        A missing field, a floors, maxes or cap_bounds list of the wrong
        length, a repeated exponent tuple, and a stored term outside the
        window or below a floor raise ``ValueError``; zero coefficients are
        dropped, as in :meth:`from_terms`.
        """
        require_fields(data, "series data", "variables", "caps", "floors", "maxes", "cap_bounds", "terms")
        for v in data["variables"]:
            require_fields(v, "a series variable", "name", "denominator")
        for c in data["caps"]:
            require_fields(c, "a grade cap", "name", "weights")
        ctx = SeriesContext(
            tuple(VarSpec(v["name"], v["denominator"]) for v in data["variables"]),
            tuple(
                GradeCap(c["name"], {k: Fraction(w) for k, w in c["weights"].items()})
                for c in data["caps"]
            ),
        )
        caps = tuple(c.name for c in ctx.caps)
        for field, names in (("floors", ctx.names), ("maxes", ctx.names), ("cap_bounds", caps)):
            if len(data[field]) != len(names):
                raise ValueError(f"{field!r} has {len(data[field])} entries, need {len(names)}")
        terms = {}
        for t in data["terms"]:
            require_fields(t, "a series term", "exponents", "coeff")
            exps = tuple(Fraction(e) for e in t["exponents"])
            if exps in terms:
                raise ValueError(f"'terms' repeat the exponents {t['exponents']}")
            terms[exps] = coeff_from_data(t["coeff"])
        maxes = {n: Fraction(m) for n, m in zip(ctx.names, data["maxes"]) if m is not None}
        bounds = {n: Fraction(b) for n, b in zip(caps, data["cap_bounds"]) if b is not None}
        floors = [Fraction(f) for f in data["floors"]]
        return cls.from_terms(ctx, terms, maxes, bounds, floors)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.ctx.signature() == other.ctx.signature() and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return f"Series({len(self.terms)} terms in {', '.join(self.ctx.names) or 'Q'})"


def self_in_window_static(key, tops, ctx: SeriesContext) -> bool:
    """Whether a scaled key lies inside the window ``tops``."""
    for k, m in zip(key, tops):
        if m is not None and k > m:
            return False
    # grade > b, cross-multiplied: integers only.
    for wnum, wden, b in zip(ctx._wnum, ctx._wden, tops[ctx.n :]):
        if b is not None and sum(w * k for w, k in zip(wnum, key)) * b.denominator > b.numerator * wden:
            return False
    return True
