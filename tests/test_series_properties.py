"""Property tests of Series.invert (a truncated power sum), of exp and log
(grade recurrences, also over a Laurent variable outside the cap), and of
the closed Bernoulli inverses (Series.inverse_trig), against sympy's exact
expansions, of the integer window check against Fraction grades, of
extract and embed across cap lattices, of the ring laws gluing rests on,
of the 1/a lambda lattice of the local context, and of CycloNum
multiplication and inverse against sympy's arithmetic modulo the
cyclotomic polynomial, and of CycloNum scaling by a rational against the
full convolution.

Hypothesis draws small rational polynomials with a nonzero corner term.
Every coefficient inside the window a result claims must match sympy, and
every read one step above that window must raise PrecisionError.  The
examples are derandomized and few, so the suite stays deterministic.
"""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import I, Poly, bernoulli as sympy_bernoulli, cyclotomic_poly, exp, series, symbols
from sympy.polys.domains import QQ
from sympy.polys.ring_series import rs_exp, rs_log, rs_series_inversion
from sympy.polys.rings import ring

from orbivertex.dt_vertex import _den_factor_inverse, trig_context
from orbivertex.exactnum import CycloNum, cyclo_field, cyclotomic_polynomial, field_for
from orbivertex.localgw import local_context
from orbivertex.series import (
    GradeCap,
    PrecisionError,
    Series,
    SeriesContext,
    VarSpec,
    bernoulli,
    self_in_window_static,
)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)

_, Q = ring("q", QQ)
_, T, X, Y = ring("t,x,y", QQ)

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero = coeffs.filter(bool)


def _sympy_poly(terms: dict, gens):
    out = 0 * gens[0]
    for key, c in terms.items():
        mono = QQ(c.numerator, c.denominator)
        for g, e in zip(gens, key):
            mono = mono * g**e
        out += mono
    return out


def _coeff(expansion, monomial) -> Fraction:
    c = expansion.coeff(monomial)
    return Fraction(int(c.numerator), int(c.denominator))


@PROPERTY
@given(nonzero, st.lists(coeffs, max_size=4), st.integers(-2, 2), st.integers(0, 5))
def test_invert_matches_sympy_on_a_laurent_max(c0, rest, shift, m):
    # q^shift p(q) with p(0) = c0, stored through the window max q^(shift+m);
    # its inverse is q^-shift / p(q).
    ctx = SeriesContext([VarSpec("q")])
    poly = {(k,): c for k, c in enumerate([c0] + rest[:m])}
    terms = {(shift + k,): c for (k,), c in poly.items()}
    inv = Series.from_terms(ctx, terms, maxes={"q": shift + m}).invert()
    top = inv.maxes[0]
    assert (inv.floors[0], top) == (-shift, m - shift)
    want = rs_series_inversion(_sympy_poly(poly, (Q,)), Q, m + 1)
    for e in range(-shift - 2, top + 1):
        expect = _coeff(want, Q ** (e + shift)) if e >= -shift else 0
        assert inv.coefficient({"q": e}) == expect, e
    with pytest.raises(PrecisionError):
        inv.coefficient({"q": top + 1})


@PROPERTY
@given(
    nonzero,
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 4)), coeffs, max_size=5),
    st.integers(0, 3),
    st.integers(0, 4),
)
@example(Fraction(1), {(0, 1): Fraction(-1)}, 2, 3)  # 1 - y: its score comes from the cap alone
@example(Fraction(1), {(1, 0): Fraction(-1)}, 3, 2)  # 1 - x: the cap cuts before the max
def test_invert_matches_sympy_under_a_max_and_a_cap(c0, rest, mx, bound):
    # x has a finite max and x + y a finite cap bound, so the number of
    # Neumann terms adds both extents.
    ctx = SeriesContext([VarSpec("x"), VarSpec("y")], caps=[GradeCap("tot", {"x": 1, "y": 1})])
    terms = {k: c for k, c in rest.items() if any(k) and k[0] <= mx and sum(k) <= bound}
    terms[(0, 0)] = c0
    inv = Series.from_terms(ctx, terms, maxes={"x": mx}, cap_bounds={"tot": bound}).invert()
    assert (inv.maxes[0], inv.cap_bounds[0]) == (mx, bound)
    # Grading by t = x + y: the expansion through t^bound holds every key
    # under the cap.
    want = rs_series_inversion(_sympy_poly(terms, (T * X, T * Y)), T, bound + 1)
    for i in range(mx + 1):
        for j in range(bound - i + 1):
            assert inv.coefficient({"x": i, "y": j}) == _coeff(want, T ** (i + j) * X**i * Y**j), (i, j)
    with pytest.raises(PrecisionError):
        inv.coefficient({"x": mx + 1})
    with pytest.raises(PrecisionError):
        inv.coefficient({"y": bound + 1})


def _graded(terms: dict, bound: int, floor: int) -> Series:
    ctx = SeriesContext([VarSpec("q")], caps=[GradeCap("deg", {"q": 1})])
    return Series.from_terms(ctx, terms, cap_bounds={"deg": bound}, floors=(floor,))


@PROPERTY
@given(st.dictionaries(st.integers(1, 4), nonzero, min_size=1, max_size=3), st.integers(0, 6))
def test_exp_and_log_match_sympy(rest, bound):
    arg = {(k,): c for k, c in rest.items() if k <= bound}
    p = _sympy_poly(arg, (Q,))
    for result, want in (
        (_graded(arg, bound, 1).exp(), rs_exp(p, Q, bound + 1)),
        (_graded({**arg, (0,): Fraction(1)}, bound, 0).log(), rs_log(1 + p, Q, bound + 1)),
    ):
        assert result.cap_bounds[0] == bound
        assert result.coefficient({"q": -1}) == 0
        for e in range(bound + 1):
            assert result.coefficient({"q": e}) == _coeff(want, Q**e), e
        with pytest.raises(PrecisionError):
            result.coefficient({"q": bound + 1})


_, U, ZL = ring("u,z", QQ)


@PROPERTY
@given(
    st.dictionaries(st.tuples(st.integers(1, 3), st.integers(-1, 2)), nonzero, min_size=1, max_size=4),
    st.integers(1, 5),
    st.integers(-1, 3),
)
@example({(1, -1): Fraction(1)}, 4, 0)  # q/z: every factor lowers z
@example({(1, -1): Fraction(1), (2, 1): Fraction(-2)}, 5, 1)
def test_exp_and_log_match_sympy_with_a_laurent_variable(rest, bound, z_max):
    # q is capped and z is not; z may appear as z^-1, so each power moves
    # the z window down.  With u = q/z the arguments are polynomials in u
    # and z: q^i z^j = u^i z^(i+j), where i + j >= 0.
    ctx = SeriesContext([VarSpec("q"), VarSpec("z")], caps=[GradeCap("deg", {"q": 1})])
    arg = {k: c for k, c in rest.items() if k[0] <= bound and k[1] <= z_max}
    if not arg:
        return
    p = _sympy_poly({(i, i + j): c for (i, j), c in arg.items()}, (U, ZL))
    window = {"maxes": {"z": z_max}, "cap_bounds": {"deg": bound}}
    for result, want in (
        (Series.from_terms(ctx, arg, **window).exp(), rs_exp(p, U, bound + 1)),
        (Series.from_terms(ctx, {**arg, (0, 0): Fraction(1)}, **window).log(), rs_log(1 + p, U, bound + 1)),
    ):
        z_top = result.maxes[1]
        assert result.cap_bounds[0] == bound and z_top <= z_max
        for i in range(bound + 1):
            for j in range(-bound - 1, z_top + 1):
                expect = _coeff(want, U**i * ZL ** (i + j)) if i + j >= 0 else 0
                assert result.coefficient({"q": i, "z": j}) == expect, (i, j)
        with pytest.raises(PrecisionError):
            result.coefficient({"z": z_top + 1})
        with pytest.raises(PrecisionError):
            result.coefficient({"q": bound + 1, "z": z_top})


NAMES = ("u", "v", "w")
cap_weights = st.lists(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1), Fraction(2)]),
    min_size=3,
    max_size=3,
)
# A bound pick is None (no truncation), "on" (exactly the key's grade) or a fraction.
bound_picks = st.one_of(st.none(), st.just("on"), st.fractions(-4, 4, max_denominator=6))


@PROPERTY
@given(
    st.lists(st.sampled_from([1, 2, 3]), min_size=3, max_size=3),
    st.lists(cap_weights, min_size=1, max_size=2),
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    st.lists(bound_picks, min_size=2, max_size=2),
)
@example([1, 2, 3], [[Fraction(1, 2), Fraction(1, 3), Fraction(2)]], [1, 3, 2], ["on", None])
@example([2, 3, 1], [[Fraction(1, 3), Fraction(2), Fraction(1, 2)], [Fraction(2), Fraction(0), Fraction(1, 3)]], [-3, 5, 4], ["on", "on"])
def test_integer_window_check_matches_fraction_grades(dens, weights, key, picks):
    # Keys are scaled exponents: variable i has exponent key[i] / dens[i].
    ctx = SeriesContext(
        [VarSpec(n, d) for n, d in zip(NAMES, dens)],
        caps=[GradeCap(f"c{ci}", dict(zip(NAMES, ws))) for ci, ws in enumerate(weights)],
    )
    key = tuple(key)
    grades = [sum(w * Fraction(k, d) for w, k, d in zip(ws, key, dens)) for ws in weights]
    assert [ctx.grade(ci, key) for ci in range(len(weights))] == grades
    picks = picks[: len(weights)]
    bounds = tuple(g if pick == "on" else pick for g, pick in zip(grades, picks))

    def tops(bs):
        return ctx.window(cap_bounds={f"c{ci}": b for ci, b in enumerate(bs) if b is not None})

    for bs in (bounds, tuple(None if b is None else b - Fraction(1, 36) for b in bounds)):
        want = all(b is None or ctx.grade(ci, key) <= b for ci, b in enumerate(bs))
        assert self_in_window_static(key, tops(bs), ctx) == want, bs
    if all(pick is None or pick == "on" for pick in picks):
        # A key exactly on every finite bound lies inside the window.
        assert self_in_window_static(key, tops(bounds), ctx)


# The cap weighs u by 1/2, so its grades lie on the half-integers; with u
# fixed, the kept variable v grades on the integers.
HALF_CTX = SeriesContext([VarSpec("u"), VarSpec("v")], caps=[GradeCap("c", {"u": Fraction(1, 2), "v": 1})])


@PROPERTY
@given(
    st.fractions(-1, 5, max_denominator=4),
    st.integers(0, 4),
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), nonzero, max_size=6),
)
@example(Fraction(7, 2), 1, {(1, 3): Fraction(1), (1, 2): Fraction(2)})
@example(Fraction(9, 4), 3, {})
def test_extract_and_embed_keep_the_window_across_cap_lattices(bound, u, terms):
    terms = {k: c for k, c in terms.items() if Fraction(k[0], 2) + k[1] <= bound}
    src = Series.from_terms(HALF_CTX, terms, cap_bounds={"c": bound}, floors=(0, 0))
    assert src.cap_bounds == (Fraction(math.floor(2 * bound), 2),)
    if Fraction(u, 2) > bound:
        with pytest.raises(PrecisionError):
            src.extract({"u": u})
        return
    sliced = src.extract({"u": u})
    assert sliced.cap_bounds == (math.floor(bound - Fraction(u, 2)),)
    assert sliced.terms == {(k[1],): c for k, c in terms.items() if k[0] == u}
    back = sliced.embed(HALF_CTX)
    assert back.cap_bounds == sliced.cap_bounds
    for v in range(-1, 7):
        inside = self_in_window_static((u, v), src.tops, HALF_CTX)
        assert self_in_window_static((v,), sliced.tops, sliced.ctx) == inside, v
        assert self_in_window_static((0, v), back.tops, HALF_CTX) == (v <= bound - Fraction(u, 2)), v


RING_CTX = SeriesContext([VarSpec("x"), VarSpec("y")], caps=[GradeCap("tot", {"x": 1, "y": 1})])


@st.composite
def windowed_series(draw):
    # A Laurent polynomial in x, y stored through an optional x max and an
    # optional total-degree bound; only the terms inside that window are kept.
    mx = draw(st.one_of(st.none(), st.integers(0, 3)))
    bound = draw(st.one_of(st.none(), st.integers(0, 4)))
    keys = st.tuples(st.integers(-1, 3), st.integers(-1, 3))
    terms = draw(st.dictionaries(keys, nonzero, min_size=1, max_size=4))
    corner = draw(st.tuples(st.integers(-1, 0), st.integers(-1, 0)))
    terms = {
        k: c
        for k, c in {**terms, corner: Fraction(1)}.items()
        if (mx is None or k[0] <= mx) and (bound is None or sum(k) <= bound)
    }
    maxes = {} if mx is None else {"x": mx}
    bounds = {} if bound is None else {"tot": bound}
    return Series.from_terms(RING_CTX, terms, maxes=maxes, cap_bounds=bounds)


def _agree_where_both_windows_cover(lhs: Series, rhs: Series) -> None:
    compared = 0
    for i in range(-4, 11):
        for j in range(-4, 11):
            exps = {"x": i, "y": j}
            try:
                left, right = lhs.coefficient(exps), rhs.coefficient(exps)
            except PrecisionError:
                continue
            assert left == right, exps
            compared += 1
    assert compared, "the two windows share no key"


@PROPERTY
@given(windowed_series(), windowed_series(), windowed_series())
def test_series_ring_laws(a, b, c):
    _agree_where_both_windows_cover(a * b, b * a)
    _agree_where_both_windows_cover((a * b) * c, a * (b * c))
    _agree_where_both_windows_cover(a * (b + c), a * b + a * c)


@PROPERTY
@given(st.integers(1, 6), st.integers(-30, 30), st.integers(1, 12))
@example(3, 7, 3)  # on the lattice, not integral
@example(2, 1, 3)  # off the lattice
def test_local_context_lambda_lattice(a, num, den):
    ctx = local_context(a)
    e = Fraction(num, den)
    if (e * a).denominator == 1:
        scaled = ctx.scale("lam", e)
        assert scaled == e * a
        back = ctx.natural(ctx.index["lam"], scaled)
        assert back == e and isinstance(back, int) == (e.denominator == 1)
        assert ctx.scale("lam", back) == scaled
    else:
        with pytest.raises(ValueError, match="off the lattice"):
            ctx.scale("lam", e)
    for j in range(1, a):
        # The color variables keep the integer lattice.
        if e.denominator != 1:
            with pytest.raises(ValueError, match="off the lattice"):
                ctx.scale(f"x{j}", e)


Z = symbols("z")


def _cyclo_and_poly(order: int, coeff_list: list):
    # The element sum_j c_j zeta^j of Q(zeta_order), over the power basis,
    # as a CycloNum and as a sympy polynomial in z.
    field = cyclo_field(order)
    vals = (coeff_list + [Fraction(0)] * field.degree)[: field.degree]
    den = math.lcm(*(c.denominator for c in vals))
    x = CycloNum(field, [int(c * den) for c in vals], den)
    poly = Poly([QQ(c.numerator, c.denominator) for c in reversed(vals)], Z, domain=QQ)
    return x, poly


def _agree(x: CycloNum, poly: Poly) -> None:
    want = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(poly.all_coeffs())]
    want += [Fraction(0)] * (x.field.degree - len(want))
    assert x.coeff_fractions() == want


cyclo_coeffs = st.lists(coeffs, min_size=8, max_size=8)


@pytest.mark.parametrize("order", [12, 16])
@PROPERTY
@given(cyclo_coeffs, cyclo_coeffs)
def test_cyclonum_product_matches_sympy(order, xs, ys):
    modulus = Poly(cyclotomic_poly(order, Z), Z, domain=QQ)
    x, px = _cyclo_and_poly(order, xs)
    y, py = _cyclo_and_poly(order, ys)
    _agree(x * y, (px * py).rem(modulus))


@pytest.mark.parametrize("order", [12, 16])
@PROPERTY
@given(cyclo_coeffs)
def test_cyclonum_inverse_matches_sympy(order, xs):
    modulus = Poly(cyclotomic_poly(order, Z), Z, domain=QQ)
    x, px = _cyclo_and_poly(order, xs)
    if px.is_zero:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    _agree(x.inverse(), px.invert(modulus))
    assert x * x.inverse() == x.field.one


def _convolved(x: CycloNum, y: CycloNum) -> tuple:
    # (num, den) of x * y by polynomial product and long division by the
    # monic cyclotomic polynomial.
    modulus = cyclotomic_polynomial(x.field.order)
    deg = len(modulus) - 1
    prod = [0] * (2 * deg - 1)
    for i, xi in enumerate(x.num):
        for j, yj in enumerate(y.num):
            prod[i + j] += xi * yj
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        for j, m in enumerate(modulus):
            prod[k - deg + j] -= c * m
    z = CycloNum(x.field, prod[:deg], x.den * y.den)
    return z.num, z.den


rationals = st.one_of(st.integers(-6, 6), coeffs)


@pytest.mark.parametrize("order", [1, 4, 8, 12, 16, 32])
@PROPERTY
@given(st.lists(st.integers(-9, 9), min_size=16, max_size=16), st.integers(1, 6), rationals, st.booleans())
def test_cyclonum_scaling_by_a_rational_is_the_convolution(order, xs, den, q, as_cyclo):
    # x*q, q*x and x/q scale the coordinates; each must equal the full
    # convolution with q as an element of the field.
    field = cyclo_field(order)
    x = CycloNum(field, xs[: field.degree], den)
    operand = field.from_fraction(q) if as_cyclo else q
    want = _convolved(x, field.from_fraction(q))
    for got in (x * operand, operand * x):
        assert (got.num, got.den) == want
    if q:
        got = x / operand
        assert (got.num, got.den) == _convolved(x, field.from_fraction(1 / Fraction(q)))
    # A rational of another field is still refused.
    alien = cyclo_field(3).from_fraction(q)
    for op in (lambda: x * alien, lambda: alien * x, lambda: x / alien):
        with pytest.raises(ValueError, match="different cyclotomic fields"):
            op()


def test_bernoulli_table_matches_sympy():
    # The package's convention is t/(e^t - 1) = sum_n B_n t^n/n!, so
    # B_1 = -1/2; sympy 1.14 returns +1/2 for bernoulli(1).
    assert bernoulli(1) == Fraction(-1, 2) == -abs(sympy_bernoulli(1))
    for n in (0, *range(2, 41)):
        want = sympy_bernoulli(n)
        assert bernoulli(n) == Fraction(int(want.p), int(want.q)), n


TRIG_T = symbols("t")
TRIG_FORMS = {
    "1 - e^t": 1 / (1 - exp(TRIG_T)),
    "1 + e^t": 1 / (1 + exp(TRIG_T)),
    "e^(t/2) - e^(-t/2)": 1 / (exp(TRIG_T / 2) - exp(-TRIG_T / 2)),
}
TRIG_FILL = 14


@lru_cache(maxsize=None)
def _trig_expansion(denominator: str):
    # sympy's Laurent series of 1/f(t) through t^TRIG_FILL, expanded once
    # per f; the rate i k enters by the substitution t = i k lam.
    return series(TRIG_FORMS[denominator], TRIG_T, 0, TRIG_FILL + 1).removeO()


def _gaussian(c):
    # An element of Q(i) (the field of order 4) as a sympy number.
    re, im = c.coeff_fractions()
    return re + im * I


@PROPERTY
@given(st.sampled_from(sorted(TRIG_FORMS)), st.integers(1, 7), st.sampled_from([1, -1]), st.integers(-2, TRIG_FILL))
def test_inverse_trig_matches_sympy(denominator, k, sign, fill):
    # 1/f(t) at t = i (sign k) lam is complete through lam^fill: every
    # coefficient from below the floor to the fill is sympy's, and a read
    # one step above the fill raises unless it lies below the floor.
    ctx = trig_context(1)
    inv = Series.inverse_trig(ctx, "lam", denominator, sign * k, fill, field_for(1))
    want = _trig_expansion(denominator)
    floor = -1 if want.coeff(TRIG_T, -1) else 0
    assert (inv.floors, inv.maxes, inv.cap_bounds) == ((floor,), (fill,), (None,))
    for e in range(floor - 2, fill + 1):
        got = inv.coefficient({"lam": e})
        expect = want.coeff(TRIG_T, e) * (I * sign * k) ** e if e >= floor else 0
        assert _gaussian(field_for(1).from_fraction(0) + got) == expect, e
    if fill + 1 >= floor:
        with pytest.raises(PrecisionError):
            inv.coefficient({"lam": fill + 1})


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 7), st.sampled_from([1, -1]), st.integers(1, 20))
@example(4, 7, 1, 20)
@example(4, 7, -1, 20)
def test_den_factor_inverse_matches_the_neumann_inverse(a, k, s, fill):
    # The closed inverse of the image 1 - s (-1)^k e^(i k lam) against
    # Series.invert of that image filled through lam^fill, serialized.  When
    # the image vanishes at lam = 0 the Neumann inverse is complete only
    # through lam^(fill - 2), so the closed one is cut there; otherwise both
    # are complete through lam^fill and agree uncut.
    ctx = trig_context(a)
    field = field_for(a)
    sign = s * (-1) ** k
    image = Series.one(ctx) - Series.exp_monomial(
        ctx, {"lam": 1}, field.imaginary_unit() * k, maxes={"lam": fill}
    ) * field.from_fraction(Fraction(sign))
    neumann = image.invert()
    closed = _den_factor_inverse(a, k, s, fill)
    if sign == 1:
        assert neumann.maxes[0] == fill - 2
        closed = closed.restrict(maxes={"lam": fill - 2})
    assert closed.to_data() == neumann.to_data()
