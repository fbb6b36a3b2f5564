"""Multivariate truncated Laurent series with explicit honesty windows.

A Series stores exact coefficients (Fraction or cyclotomic) on an integer
exponent lattice, plus a record of how much of the true object the stored
data is guaranteed to represent:

* ``tops``: the window, one integer upper bound per slot, None where a
  direction is open: first each variable's max as a scaled exponent, then
  each cap's bound as a level, the grade times the cap's weight
  denominator (``SeriesContext.level``).  Stored data is complete on the
  keys that satisfy every finite bound jointly.
* ``floors[v]``: no term inside the window lies below this exponent in
  variable v, so reads there return an exact zero.

``maxes`` (scaled) and ``cap_bounds`` (natural grades) are read-only
views of the two parts of ``tops``.  Bounds enter in natural units through
``SeriesContext.window``, which floors each to the largest level under it,
and leave through ``natural_top``.  All arithmetic propagates windows
conservatively, and reading a coefficient outside the window raises
PrecisionError rather than return silently wrong data.

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
from fractions import Fraction
from functools import lru_cache
from operator import add, le, mul

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


def _exp_coefficients(c, top: int) -> list:
    # c^n / n! for n = 0 .. top.
    out = []
    p = _as_coeff(1)
    for n in range(top + 1):
        if n:
            p = p * c / n
        out.append(p)
    return out


def _exp_powers(ctx, key, c, tops) -> tuple:
    # The window of exp(c m), m the monomial of scaled key, and c^n/n!
    # through it: only the slots that m occupies bound its powers.
    steps = [ctx.level(j, key) for j in range(len(tops))]
    tops = tuple(t if s > 0 else None for t, s in zip(tops, steps))
    top_powers = [t // s for t, s in zip(tops, steps) if t is not None]
    if not top_powers:
        raise PrecisionError("exponential needs a finite window in some occupied direction")
    return tops, _exp_coefficients(c, min(top_powers))


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


class _Record:
    """Field-wise ``==`` and ``repr`` over the names in ``_fields``, as a
    dataclass gives them: only records of one class compare equal, and a
    record is unhashable unless it is frozen."""

    _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class _FrozenRecord(_Record):
    """A hashable record whose fields are set once, by ``_freeze``."""

    def _freeze(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())


class VarSpec(_FrozenRecord):
    """A series variable with the denominator of its exponent lattice."""

    _fields = ("name", "denominator")

    def __init__(self, name: str, denominator: int = 1):
        if denominator < 1:
            raise ValueError("exponent denominator must be a positive integer")
        self._freeze(name, denominator)


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
        # per cap: the level of a key under cap ci is
        # sum(_wnum[ci][i] * key[i]), its grade that over _wden[ci].
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
        return Fraction(self.level(self.n + ci, key), self._wden[ci])

    def level(self, j: int, key) -> int:
        """Window slot j at a scaled key, in the unit of ``tops``: the
        scaled exponent of variable j, or the grade under cap j - n times
        that cap's weight denominator."""
        return key[j] if j < self.n else sum(map(mul, self._wnum[j - self.n], key))

    def natural_top(self, j: int, top):
        """A level of window slot j in natural units: an exponent, or a
        grade as a Fraction."""
        return self.natural(j, top) if j < self.n else Fraction(top, self._wden[j - self.n])

    def extents(self, maxes=None, cap_bounds=None):
        """(slot, label, extent, level) for each extent given in natural
        units, keyed by variable or cap name; a cap bound floors to the
        largest level under it."""
        for name, m in (maxes or {}).items():
            yield self.index[name], f"window of {name!r}", m, self.scale(name, m)
        for name, b in (cap_bounds or {}).items():
            ci = self.cap_index[name]
            yield self.n + ci, f"cap {name!r}", b, math.floor(Fraction(b) * self._wden[ci])

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
        """Each cap's bound on its grade, in natural units (None: open)."""
        n = self.ctx.n
        return tuple(None if t is None else self.ctx.natural_top(n + ci, t) for ci, t in enumerate(self.tops[n:]))

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
        if floors is not None:
            floors = tuple(ctx.scale(ctx.names[i], floors[i]) for i in range(ctx.n))
            return cls(ctx, stored, floors, tops)._check_stored()
        if not stored and any(t is not None for t in tops):
            raise ValueError("no stored terms to read floors from: pass floors")
        return cls(ctx, stored, (0,) * ctx.n, tops)._tight()._check_stored()

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
        tops, powers = _exp_powers(ctx, key, coeff, ctx.window(maxes, cap_bounds))
        terms = {tuple(n * e for e in key): c for n, c in enumerate(powers) if c}
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
        return min(self.ctx.level(j, k) for k in self.terms or (self.floors,))

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
        return Series(self.ctx, {k: c * scalar for k, c in self.terms.items()}, self.floors, self.tops)

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

    def _tight(self) -> "Series":
        # For a series that holds every term inside its window: its floors
        # become its lowest stored exponents.
        if not self.terms:
            return self
        return Series(self.ctx, self.terms, tuple(map(min, zip(*self.terms))), self.tops)

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
        total = power = Series.one(ctx)
        for _ in range(K):
            power = (power * w)._clip_to(w.tops)
            total = total + power
        return total._clip_to(w.tops)._tight() * m_inv

    def _truncation(self, cap, op: str, what: str, unit: bool = False):
        # The index of the named cap (default: the first) and the highest
        # power that exp or log (op) keeps under it, None when there is
        # nothing to raise to a power.  Every stored term (described by
        # what) must have positive grade, so the k-th power grades at least
        # k times the least grade; with unit, the grade-zero slice must
        # instead be exactly 1.
        ctx = self.ctx
        if not ctx.caps:
            raise PrecisionError(f"{op} needs a grading cap to truncate against")
        ci = ctx.cap_index[cap] if cap is not None else 0
        j = ctx.n + ci
        terms = self.terms
        if unit:
            zero_key = (0,) * ctx.n
            for k, c in terms.items():
                if ctx.level(j, k) == 0 and (k != zero_key or c != 1):
                    raise ValueError(f"{op} requires the grade-zero slice to be exactly 1")
            if terms.get(zero_key) != 1:
                raise ValueError(f"{op} requires the grade-zero slice to be exactly 1")
            terms = [k for k in terms if k != zero_key]
        if not terms:
            return ci, None
        bound = self.tops[j]
        if bound is None:
            raise PrecisionError(f"{op} needs a finite bound on its grading cap")
        min_level = min(ctx.level(j, k) for k in terms)
        if min_level <= 0:
            raise ValueError(f"{op} requires every {what} to have positive cap grade")
        return ci, max(bound // min_level, 0)

    def _power_window(self, k_max: int) -> tuple:
        # The window of sum_{k <= k_max} self**k, each power cut to the
        # window of self: every factor's true terms lie on or above its
        # floors, so k factors move each finite top by k - 1 times the
        # floors' level in the slot when that is negative.
        ctx = self.ctx
        return tuple(
            None if t is None else t + max(k_max - 1, 0) * min(0, ctx.level(j, self.floors))
            for j, t in enumerate(self.tops)
        )

    def _by_grade(self, ci: int, k_max: int, log: bool) -> "Series":
        # exp(self), or log(1 + self) with log, grade by grade under cap ci,
        # from f' = f g' (Knuth, TAOCP vol. 2, 4.7).  With F_h the slices of
        # self, grades as cap levels:
        #   exp:  g E_g = sum_h h F_h E_(g-h),      E_0 = 1;
        #   log:  M_g = g F_g - sum_h F_h M_(g-h),  M_0 = 0,  L_g = M_g / g.
        # The result is cut at the window W of the powers.  A slice that r
        # more factors may still multiply is needed only on W moved up by r
        # times each slot's lowest negative value, so pairs are cut there.
        # Terms are bucketed by their levels in W's finite slots, so each cut
        # is one test per pair of buckets.
        ctx, n = self.ctx, self.ctx.n
        window = self._power_window(k_max)
        slots = [j for j, t in enumerate(window) if t is not None and j != n + ci]
        limit, g_max = [window[j] for j in slots], window[n + ci]
        slices = {}
        for k, c in self.terms.items():
            slices.setdefault(ctx.level(n + ci, k), {}).setdefault(tuple(ctx.level(j, k) for j in slots), {})[k] = c
        rises = [-min(0, *col) for col in zip(*(b for s in slices.values() for b in s))]
        h_min = min(slices)
        grades = {0}
        for _ in range(k_max):
            grades |= {g + h for g in grades for h in slices if g + h <= g_max}
        factors = {h: {b: {k: -c if log else h * c for k, c in t.items()} for b, t in s.items()} for h, s in slices.items()}
        out = {} if log else {0: {(0,) * len(slots): {(0,) * n: _as_coeff(1)}}}
        for g in sorted(grades)[1:]:
            acc = {b: {k: g * c for k, c in t.items()} for b, t in slices.get(g, {}).items()} if log else {}
            r = (g_max - g) // h_min
            cut = [t + r * rise for t, rise in zip(limit, rises)]
            for h, fh in factors.items():
                for bb, tb in out.get(g - h, {}).items():
                    for ba, ta in fh.items():
                        bk = tuple(map(add, ba, bb))
                        if not all(map(le, bk, cut)):
                            continue
                        target = acc.setdefault(bk, {})
                        for kb, cb in tb.items():
                            for ka, ca in ta.items():
                                k = tuple(map(add, ka, kb))
                                c = ca * cb
                                prev = target.get(k)
                                target[k] = c if prev is None else prev + c
            out[g] = {b: {k: c if log else c / g for k, c in t.items() if c} for b, t in acc.items()}
        terms = {
            k: c / g if log else c
            for g, buckets in out.items()
            if g <= g_max
            for b, t in buckets.items()
            if all(map(le, b, limit))
            for k, c in t.items()
        }
        floors = tuple(min(0, k_max * f) for f in self.floors)
        return Series(ctx, terms, floors, window)._tight()

    def exp(self, cap: str | None = None) -> "Series":
        """exp of a series whose stored terms all have positive grade under
        the named cap (default: the first cap), truncated by its bound.

        Built grade by grade from the recurrence g E_g = sum_h h F_h E_(g-h)
        over the cap's slices F_h, one pass over pairs per grade.  The
        window is that of the sum of the powers f**k, each cut to the
        window of f, through the highest power the bound admits, read from
        the floors of f; the floors are the lowest stored exponents."""
        ctx = self.ctx
        if self.is_exact_zero():
            return Series.one(ctx)
        ci, k_max = self._truncation(cap, "exp", "stored term")
        if k_max is None:
            return Series.one(ctx) + self  # empty terms, but inherits the truncation window
        return self._by_grade(ci, k_max, log=False)

    def log(self, cap: str | None = None) -> "Series":
        """log of a series whose grade-zero slice under the named cap is
        exactly 1, truncated by that cap's bound.

        With w = self - 1, built grade by grade from g L_g = g W_g -
        sum_h h L_h W_(g-h); window and floors as for :meth:`exp`, of the
        powers of w."""
        ctx = self.ctx
        ci, k_max = self._truncation(cap, "log", "nonconstant term", unit=True)
        w = self - Series.one(ctx)
        if k_max is None:
            return Series.zero(ctx) + w  # zero, but keep the truncation window
        return w._by_grade(ci, k_max, log=True)

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
        new_caps = [GradeCap(cap.name, {v.name: cap.weights.get(v.name, 0) for v in new_vars}) for cap in ctx.caps]
        new_ctx = SeriesContext(new_vars, tuple(new_caps))
        for i, e in fixed_idx.items():
            if self.tops[i] is not None and e > self.tops[i]:
                raise PrecisionError(f"slice at {ctx.names[i]} beyond the guaranteed window")
        fixed_key = tuple(fixed_idx.get(i, 0) for i in range(ctx.n))
        rest_floors = tuple(0 if i in fixed_idx else f for i, f in enumerate(self.floors))
        bounds = {}
        for j, cap in enumerate(ctx.caps, start=ctx.n):
            if self.tops[j] is not None:
                # The kept variables' level under the cap is at most b.
                b = self.tops[j] - ctx.level(j, fixed_key)
                if b < ctx.level(j, rest_floors):
                    raise PrecisionError(f"slice lies entirely beyond cap {cap.name!r}")
                bounds[cap.name] = ctx.natural_top(j, b)
        new_floors = tuple(self.floors[i] for i in keep)
        new_tops = tuple(self.tops[i] for i in keep) + new_ctx.window(cap_bounds=bounds)[len(keep) :]
        out = {}
        for k, c in self.terms.items():
            if all(k[i] == e for i, e in fixed_idx.items()):
                out[tuple(k[i] for i in keep)] = c
        return Series(new_ctx, out, new_floors, new_tops)

    def embed(self, ctx: SeriesContext) -> "Series":
        """The same series in another context, matching variables and caps
        by name.  A variable the source lacks gets exponent 0, no max and
        floor 0; floors, maxes and natural cap bounds carry over unchanged.
        Raises ValueError on a changed lattice denominator, on a dropped
        variable with terms or a finite max, and on a finite cap bound that
        would be dropped or reweighted."""
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
        bounds = {c.name: b for c, b in zip(src.caps, self.cap_bounds) if b is not None and c.name in ctx.cap_index}
        tops = tuple(None if j is None else self.tops[j] for j in picks) + ctx.window(cap_bounds=bounds)[ctx.n :]
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
        for j, label, e, top in ctx.extents(maxes, cap_bounds):
            floor = ctx.level(j, self.floors)
            if top < floor:
                raise PrecisionError(f"{label} cut at {e} lies below its floor {ctx.natural_top(j, floor)}")
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
    for wnum, top in zip(ctx._wnum, tops[ctx.n :]):
        if top is not None and sum(map(mul, wnum, key)) > top:
            return False
    return True
