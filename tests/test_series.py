"""Window-tracked truncated series: arithmetic, honesty, serialization."""

import json
import math
from fractions import Fraction

import pytest

from orbivertex.exactnum import cyclo_field
from orbivertex.gw_vertex import assemble_G0, gw_context, r_bullet_tau
from orbivertex.partitions import partitions_of
from orbivertex.series import (
    GradeCap,
    PrecisionError,
    Series,
    SeriesContext,
    VarSpec,
    coeff_from_data,
    coeff_to_data,
    self_in_window_static,
)


def one_var_ctx():
    return SeriesContext([VarSpec("q")])


def test_var_spec_is_a_frozen_value():
    spec = VarSpec("lam", 2)
    assert spec == VarSpec(name="lam", denominator=2) != VarSpec("lam")
    assert VarSpec("q").denominator == 1
    assert hash(spec) == hash(VarSpec("lam", 2))
    assert repr(spec) == "VarSpec(name='lam', denominator=2)"
    assert spec != ("lam", 2)
    with pytest.raises(AttributeError):
        spec.denominator = 3
    with pytest.raises(ValueError, match="positive integer"):
        VarSpec("lam", 0)


def test_monomial_and_coefficient_reads():
    ctx = one_var_ctx()
    s = Series.monomial(ctx, {"q": 3}, Fraction(5, 2))
    assert s.coefficient({"q": 3}) == Fraction(5, 2)
    assert s.coefficient({"q": 2}) == 0
    assert s.coefficient({"q": 100}) == 0


def test_out_of_window_read_raises():
    ctx = one_var_ctx()
    s = Series.from_terms(ctx, {(0,): 1, (1,): 1}, maxes={"q": 1})
    with pytest.raises(PrecisionError):
        s.coefficient({"q": 2})


def test_addition_takes_min_window():
    ctx = one_var_ctx()
    s1 = Series.from_terms(ctx, {(0,): 1}, maxes={"q": 5})
    s2 = Series.from_terms(ctx, {(1,): 1}, maxes={"q": 3})
    total = s1 + s2
    assert total.coefficient({"q": 3}) == 0
    with pytest.raises(PrecisionError):
        total.coefficient({"q": 4})


def test_multiplication_window_shifts_by_valuation():
    ctx = one_var_ctx()
    s1 = Series.from_terms(ctx, {(2,): 1}, maxes={"q": 6})
    s2 = Series.from_terms(ctx, {(3,): 1}, maxes={"q": 7})
    prod = s1 * s2
    assert prod.coefficient({"q": 5}) == 1
    # Completeness: min(6 + 3, 7 + 2) = 9.
    assert prod.coefficient({"q": 9}) == 0
    with pytest.raises(PrecisionError):
        prod.coefficient({"q": 10})


def test_invert_geometric_series():
    ctx = one_var_ctx()
    base = Series.from_terms(ctx, {(0,): 1, (1,): -1}, maxes={"q": 8})
    inv = (base).invert()
    for k in range(9):
        assert inv.coefficient({"q": k}) == 1


def test_invert_laurent_corner_floors_are_tight():
    ctx = one_var_ctx()
    s = Series.from_terms(ctx, {(-1,): 1, (0,): 1, (1,): 1}, maxes={"q": 6})
    inv = s.invert()
    assert inv.floors == (1,)
    assert inv.coefficient({"q": 0}) == 0
    assert inv.coefficient({"q": 1}) == 1


def test_invert_requires_corner():
    ctx = SeriesContext([VarSpec("q"), VarSpec("t")])
    s = Series.from_terms(ctx, {(1, 0): 1, (0, 1): 1}, maxes={"q": 4, "t": 4})
    with pytest.raises(PrecisionError):
        s.invert()


def capped_ctx():
    return SeriesContext([VarSpec("q")], caps=[GradeCap("deg", {"q": 1})])


def test_exp_log_round_trip():
    ctx = capped_ctx()
    s = Series.from_terms(
        ctx,
        {(1,): Fraction(1, 2), (2,): Fraction(-1, 3)},
        cap_bounds={"deg": 7},
    )
    assert s.exp().log() == s


def test_exp_monomial_matches_exp():
    ctx = capped_ctx()
    arg = Series.from_terms(ctx, {(2,): Fraction(3, 5)}, cap_bounds={"deg": 10})
    direct = Series.exp_monomial(ctx, {"q": 2}, Fraction(3, 5), cap_bounds={"deg": 10})
    assert arg.exp() == direct


def test_grade_cap_enforced():
    ctx = SeriesContext([VarSpec("x"), VarSpec("y")], caps=[GradeCap("deg", {"x": 1, "y": 1})])
    s = Series.from_terms(ctx, {(1, 0): 1, (0, 1): 1}, cap_bounds={"deg": 3})
    cube = s * s * s
    assert cube.coefficient({"x": 2, "y": 1}) == 3
    # The product bound grows with factor valuations: min over pairings
    # gives completeness through grade 5 here, nothing stored above 3.
    assert cube.coefficient({"x": 5, "y": 0}) == 0
    with pytest.raises(PrecisionError):
        cube.coefficient({"x": 6, "y": 0})


def test_extract_reduces_context():
    ctx = SeriesContext([VarSpec("x"), VarSpec("y")], caps=[GradeCap("deg", {"x": 1, "y": 1})])
    s = Series.from_terms(
        ctx,
        {(0, 0): 1, (1, 1): 2, (2, 1): 3},
        cap_bounds={"deg": 4},
    )
    slice_y = s.extract({"y": 1})
    assert slice_y.ctx.names == ("x",)
    assert slice_y.coefficient({"x": 1}) == 2
    assert slice_y.coefficient({"x": 2}) == 3


def _exp_p_over_q():
    # exp(p/q) through p^2: 1 + p/q + p^2/(2 q^2).  Outside the window the
    # true series goes on below the floor q^-2: p^3/(6 q^3), ...
    ctx = SeriesContext([VarSpec("q"), VarSpec("p")], caps=[GradeCap("pw", {"p": 1})])
    return Series.from_terms(ctx, {(-1, 1): 1}, cap_bounds={"pw": 2}).exp()


def test_reads_check_the_window_before_the_floors():
    s = _exp_p_over_q()
    assert s.floors == (-2, 0)
    assert s.coefficient({"q": -2, "p": 2}) == Fraction(1, 2)
    # Inside the window a key below the floors reads an exact zero ...
    assert s.coefficient({"q": -3, "p": 2}) == 0
    # ... but outside it the read raises, floors or not.
    with pytest.raises(PrecisionError):
        s.coefficient({"q": -3, "p": 3})


def test_extract_below_a_floor_keeps_the_window():
    sliced = _exp_p_over_q().extract({"q": -3})
    assert sliced.coefficient({"p": 2}) == 0
    with pytest.raises(PrecisionError):
        sliced.coefficient({"p": 3})


def test_power_sum_floors_are_the_lowest_stored_exponents():
    # log(1 + p/q) through p^3 stores p/q, -p^2/(2 q^2) and p^3/(3 q^3).
    ctx = SeriesContext([VarSpec("q"), VarSpec("p")], caps=[GradeCap("pw", {"p": 1})])
    s = Series.from_terms(ctx, {(0, 0): 1, (-1, 1): 1}, cap_bounds={"pw": 3}).log()
    assert s.coefficient({"q": -3, "p": 3}) == Fraction(1, 3)
    assert s.floors == (-3, 1)


def _clip(s, tops):
    # s cut to the window tops, as the power sums cut every power.
    tops = tuple(t if u is None else u if t is None else min(t, u) for t, u in zip(s.tops, tops))
    return Series(s.ctx, {k: c for k, c in s.terms.items() if self_in_window_static(k, tops, s.ctx)}, s.floors, tops)


def _windowed(ctx, terms, floors=None, **window):
    # The terms that lie inside the window, with the floors of all of them.
    return _clip(Series.from_terms(ctx, terms, floors=floors), ctx.window(**window))


def _power_sum(f, coeffs, start):
    # start + sum_k coeffs[k-1] f**k with one product and one cut per power,
    # then cut to f's window, with floors at the lowest stored exponents.
    total, power = start, f
    for k, c in enumerate(coeffs):
        if k:
            power = _clip(power * f, f.tops)
        total = total + power * c
    total = _clip(total, f.tops)
    floors = tuple(map(min, zip(*total.terms))) if total.terms else total.floors
    return Series(f.ctx, total.terms, floors, total.tops)


def _exp_and_log_by_powers(s, cap):
    # (exp(s), log(s)), summed over powers as in the definitions; either is
    # None where the operation refuses s.
    ctx = s.ctx
    ci = ctx.cap_index[cap]
    bound = s.cap_bounds[ci]
    out = []
    for log, f in ((False, s), (True, s - 1)):
        grades = [ctx.grade(ci, k) for k in f.terms]
        if not grades or min(grades) <= 0 or (log and s.terms.get((0,) * ctx.n) != 1):
            out.append(None)
            continue
        k_max = max(int(bound / min(grades)), 0)
        if log:
            coeffs = [Fraction((-1) ** (k - 1), k) for k in range(1, k_max + 1)]
        else:
            coeffs = [Fraction(1, math.factorial(k)) for k in range(1, k_max + 1)]
        out.append(_power_sum(f, coeffs, Series.zero(ctx) if log else Series.one(ctx)))
    return out


def _assert_exp_and_log_match_power_sums(s, cap):
    want_exp, want_log = _exp_and_log_by_powers(s, cap)
    if want_exp is not None:
        assert s.exp(cap=cap).to_data() == want_exp.to_data()
    if want_log is not None:
        assert s.log(cap=cap).to_data() == want_log.to_data()


def test_exp_and_log_match_power_sums_on_laurent_inputs():
    # Every cap starts at lam^-1, so each further factor costs one lam order
    # of the window.
    ctx = SeriesContext(
        [VarSpec("lam"), VarSpec("x"), VarSpec("p1"), VarSpec("p2")],
        caps=[GradeCap("xdeg", {"x": 1}), GradeCap("pw", {"p1": 1, "p2": 2})],
    )
    terms = {(-1, 0, 1, 0): 1, (1, 0, 1, 0): Fraction(-1, 24), (-1, 1, 0, 1): Fraction(1, 2), (3, 2, 0, 1): 3}
    for bound in range(5):
        f = _windowed(ctx, terms, maxes={"lam": 3}, cap_bounds={"xdeg": 2, "pw": bound})
        _assert_exp_and_log_match_power_sums(f, "pw")
        _assert_exp_and_log_match_power_sums(f + 1, "pw")
    # The connected generating functions of the correspondence.
    for a, d in ((1, 4), (2, 3), (3, 3)):
        _assert_exp_and_log_match_power_sums(assemble_G0(a, d, 4, 5 + d - 1), "pweight")


def test_exp_and_log_match_power_sums_on_rational_weights():
    # A cap with weights 1/2 and 3/2, one of them on a variable of exponent
    # denominator 2: grades are integer numerators over the denominator 4.
    ctx = SeriesContext(
        [VarSpec("u", 2), VarSpec("v"), VarSpec("z")],
        caps=[GradeCap("c", {"u": Fraction(1, 2), "v": Fraction(3, 2)})],
    )
    terms = {
        (Fraction(1, 2), 0, 0): 2,
        (1, 0, -1): Fraction(-1, 3),
        (0, 1, 0): Fraction(1, 5),
        (Fraction(3, 2), 1, 1): 1,
    }
    for bound in (Fraction(1, 4), Fraction(1, 2), 2, Fraction(13, 4)):
        for maxes in ({}, {"z": 0}, {"u": 1, "z": 1}):
            f = _windowed(ctx, terms, maxes=maxes, cap_bounds={"c": bound})
            _assert_exp_and_log_match_power_sums(f, "c")
            _assert_exp_and_log_match_power_sums(f + 1, "c")


def test_an_empty_power_narrows_the_window_through_the_floors():
    # f = q z + q^2 z under z <= 1: f**2 has no term in the window, and f**3
    # then reads the floor z^-1 of f twice, so the sum is complete only
    # through z^-1 and holds nothing.
    ctx = SeriesContext([VarSpec("q"), VarSpec("z")], caps=[GradeCap("deg", {"q": 1})])
    f = Series.from_terms(ctx, {(1, 1): 1, (2, 1): 1}, maxes={"z": 1}, cap_bounds={"deg": 3}, floors=(0, -1))
    _assert_exp_and_log_match_power_sums(f, "deg")
    _assert_exp_and_log_match_power_sums(f + 1, "deg")
    e = f.exp()
    assert (e.terms, e.maxes, e.cap_bounds, e.floors) == ({}, (None, -1), (3,), (0, -3))
    # Floors at the lowest stored exponents: only the power's own window.
    tight = Series.from_terms(ctx, {(1, 1): 1, (2, 1): 1}, maxes={"z": 1}, cap_bounds={"deg": 3})
    assert tight.exp().maxes == (None, 1)
    _assert_exp_and_log_match_power_sums(tight, "deg")


def test_log_matches_power_sums_at_the_abelian_lift_inputs():
    # The disconnected series that connected_profile_series takes the log
    # of, at the colors and framings of the abelian lifts, tightened there
    # to its lowest stored exponents.  Left at the transports' floor
    # lam^-d_max instead, each of the k_max - 1 further factors of a power
    # costs d_max orders of lam, and the log holds the power sums cut there.
    d_max, lam_inner = 3, 4 + 3 * 2
    for a, tau in ((2, 0), (2, 1), (4, 0), (4, 1)):
        ctx = gw_context(a, d_max)
        total = Series.one(ctx)
        for d in range(1, d_max + 1):
            for mu in partitions_of(d):
                lifted = r_bullet_tau(a, mu, tau, lam_inner, 1).series.embed(ctx)
                total = total + lifted * Series.monomial(ctx, {f"p{k}": mu.count(k) for k in set(mu)}, 1)
        total = total.restrict(cap_bounds={"pweight": d_max})
        tight = total._tight()
        want = _exp_and_log_by_powers(tight, "pweight")[1]
        assert tight.log(cap="pweight").to_data() == want.to_data()
        assert total.floors[0] == -d_max < tight.floors[0]
        loose = total.log(cap="pweight")
        top = lam_inner - (d_max - 1) * d_max
        assert loose.maxes[0] == top
        assert loose.terms == want.restrict(maxes={"lam": top}).terms


def test_exp_and_log_refusals_name_the_operation():
    bare = Series.from_terms(one_var_ctx(), {(0,): 1, (1,): 1})
    for op in ("exp", "log"):
        with pytest.raises(PrecisionError, match=f"{op} needs a grading cap"):
            getattr(bare, op)()
    ctx = capped_ctx()
    open_cap = Series.from_terms(ctx, {(0,): 1, (1,): 1})
    with pytest.raises(PrecisionError, match="exp needs a finite bound"):
        (open_cap - 1).exp()
    with pytest.raises(PrecisionError, match="log needs a finite bound"):
        open_cap.log()
    laurent = Series.from_terms(ctx, {(-1,): 1}, cap_bounds={"deg": 2})
    with pytest.raises(ValueError, match="exp requires every stored term"):
        laurent.exp()
    with pytest.raises(ValueError, match="log requires every nonconstant term"):
        (laurent + 1).log()
    with pytest.raises(ValueError, match="log requires the grade-zero slice"):
        (laurent + 2).log()


def test_window_tuple_length_is_checked():
    ctx = capped_ctx()
    with pytest.raises(ValueError):
        Series(ctx, {}, (0,), (None,))
    s = Series(ctx, {}, (0,), (3, Fraction(2)))
    assert (s.maxes, s.cap_bounds) == ((3,), (Fraction(2),))


def test_series_division_and_negative_powers_are_refused():
    s = Series.from_terms(one_var_ctx(), {(0,): 1, (1,): 1}, maxes={"q": 3})
    with pytest.raises(TypeError):
        s / s
    with pytest.raises(TypeError):
        s ** -1


def test_substitute_diagonal_rescaling():
    ctx = one_var_ctx()
    s = Series.from_terms(ctx, {(0,): 1, (1,): 2, (2,): 3}, maxes={"q": 5})
    doubled = s.substitute({"q": 2})
    assert doubled.coefficient({"q": 1}) == 4
    assert doubled.coefficient({"q": 2}) == 12
    assert doubled.maxes == s.maxes
    with pytest.raises(TypeError):
        s.substitute({"q": Series.monomial(ctx, {"q": 1}, 2)})


def test_fractional_lattice_exponents():
    ctx = SeriesContext([VarSpec("lam", 2)])
    s = Series.monomial(ctx, {"lam": Fraction(1, 2)}, 1)
    sq = s * s
    assert sq.coefficient({"lam": 1}) == 1
    with pytest.raises(ValueError):
        Series.monomial(ctx, {"lam": Fraction(1, 3)}, 1)


def test_restrict_and_require_window():
    ctx = one_var_ctx()
    s = Series.from_terms(ctx, {(0,): 1, (4,): 1}, maxes={"q": 6})
    cut = s.restrict(maxes={"q": 2})
    assert cut.coefficient({"q": 0}) == 1
    with pytest.raises(PrecisionError):
        cut.coefficient({"q": 4})
    with pytest.raises(PrecisionError):
        cut.require_window(maxes={"q": 3})
    cut.require_window(maxes={"q": 2})


def test_restrict_refuses_extents_past_the_window():
    ctx = one_var_ctx()
    s = Series.from_terms(ctx, {(0,): 1, (4,): 1}, maxes={"q": 6})
    with pytest.raises(PrecisionError, match=r"window of 'q' reaches only 6, need 7"):
        s.restrict(maxes={"q": 7})
    cut = s.restrict(maxes={"q": 2})
    with pytest.raises(PrecisionError, match=r"window of 'q' reaches only 2, need 3"):
        cut.restrict(maxes={"q": 3})
    capped = Series.from_terms(
        SeriesContext([VarSpec("x")], caps=[GradeCap("deg", {"x": 1})]), {(1,): 1}, cap_bounds={"deg": 2}
    )
    with pytest.raises(PrecisionError, match=r"cap 'deg' reaches only 2, need 3"):
        capped.restrict(cap_bounds={"deg": 3})


def test_restrict_refuses_empty_windows():
    # A cut below the floors admits no key, even where the window is open.
    ctx = SeriesContext([VarSpec("q"), VarSpec("x")], caps=[GradeCap("deg", {"q": 1, "x": 2})])
    s = Series.from_terms(ctx, {(-1, 1): 1, (3, 2): 1}, maxes={"q": 5})
    assert s.restrict(maxes={"q": -1}).terms == {(-1, 1): Fraction(1)}
    with pytest.raises(PrecisionError, match=r"window of 'q' cut at -2 lies below its floor -1"):
        s.restrict(maxes={"q": -2})
    with pytest.raises(PrecisionError, match=r"window of 'x' cut at 0 lies below its floor 1"):
        s.restrict(maxes={"x": 0})
    # The floor corner (-1, 1) has grade 1 under deg.
    assert s.restrict(cap_bounds={"deg": 1}).terms == {(-1, 1): Fraction(1)}
    with pytest.raises(PrecisionError, match=r"cap 'deg' cut at 1/2 lies below its floor 1"):
        s.restrict(cap_bounds={"deg": Fraction(1, 2)})
    with pytest.raises(PrecisionError, match=r"window of 'q' cut at -1 lies below its floor 0"):
        Series.one(ctx).restrict(maxes={"q": -1})


def test_serialization_round_trip_with_cyclotomics():
    field = cyclo_field(8)
    ctx = SeriesContext([VarSpec("lam", 2), VarSpec("x1")], caps=[GradeCap("xdeg", {"x1": 1})])
    s = Series.from_terms(
        ctx,
        {(Fraction(-1, 2), 0): Fraction(3, 4), (Fraction(3, 2), 2): field.root_of_unity(8, 3)},
        maxes={"lam": 4},
        cap_bounds={"xdeg": 2},
    )
    data = json.loads(json.dumps(s.to_data(), sort_keys=True))
    back = Series.from_data(data)
    assert back == s
    assert back.to_data() == s.to_data()


def test_from_data_refuses_terms_outside_the_window():
    ctx = SeriesContext([VarSpec("q")], caps=[GradeCap("deg", {"q": 1})])
    data = Series.from_terms(ctx, {(0,): 1, (1,): 2}, maxes={"q": 2}).to_data()
    above = dict(data, terms=data["terms"] + [{"exponents": ["3/1"], "coeff": "1/1"}])
    with pytest.raises(ValueError, match="outside the declared window"):
        Series.from_data(above)
    below = dict(data, terms=data["terms"] + [{"exponents": ["-1/1"], "coeff": "1/1"}])
    with pytest.raises(ValueError, match="below the declared floor"):
        Series.from_data(below)


def test_from_data_refuses_malformed_lists_and_terms():
    ctx = SeriesContext([VarSpec("q"), VarSpec("x")], caps=[GradeCap("deg", {"x": 1})])
    data = Series.from_terms(ctx, {(0, 0): 1, (1, 2): 2}, maxes={"q": 2}, cap_bounds={"deg": 3}).to_data()
    for field, value in (("floors", []), ("floors", ["0/1"] * 3), ("maxes", ["2/1"]), ("cap_bounds", [])):
        with pytest.raises(ValueError, match=f"'{field}' has {len(value)} entries, need"):
            Series.from_data(dict(data, **{field: value}))
    for exponents in (["1/1"], ["1/1", "0/1", "0/1"]):
        bad = dict(data, terms=data["terms"] + [{"exponents": exponents, "coeff": "1/1"}])
        with pytest.raises(ValueError, match="need one entry per variable, 2 in all"):
            Series.from_data(bad)
    repeated = dict(data, terms=data["terms"] + [{"exponents": ["1/1", "4/2"], "coeff": "5/1"}])
    with pytest.raises(ValueError, match=r"'terms' repeat the exponents \['1/1', '4/2'\]"):
        Series.from_data(repeated)
    # A zero coefficient is dropped, as from_terms drops it.
    zero = dict(data, terms=data["terms"] + [{"exponents": ["2/1", "0/1"], "coeff": "0/1"}])
    assert Series.from_data(zero).terms == Series.from_data(data).terms
    assert Series.from_data(zero).to_data() == data


def test_from_data_floors_an_off_lattice_cap_bound():
    # A cap bound between two grades of the lattice keeps the same keys as
    # the largest grade under it, and serializes as that grade.
    ctx = SeriesContext([VarSpec("q")], caps=[GradeCap("deg", {"q": 1})])
    data = Series.from_terms(ctx, {(0,): 1, (3,): 2}, cap_bounds={"deg": 3}).to_data()
    s = Series.from_data(dict(data, cap_bounds=["7/2"]))
    assert s.to_data() == data
    assert [self_in_window_static((k,), s.tops, ctx) for k in range(-1, 5)] == [True] * 5 + [False]
    assert s.coefficient({"q": 3}) == 2
    with pytest.raises(PrecisionError):
        s.coefficient({"q": 4})


def test_coeff_encoding_forms():
    assert coeff_to_data(Fraction(-3, 7)) == "-3/7"
    assert coeff_from_data("-3/7") == Fraction(-3, 7)
    field = cyclo_field(4)
    i = field.imaginary_unit()
    blob = coeff_to_data(i)
    assert blob["order"] == 4
    assert coeff_from_data(blob) == i
    # Rational cyclotomic numbers collapse to plain fraction strings.
    assert coeff_to_data(field.from_fraction(Fraction(2, 3))) == "2/3"


def test_from_terms_without_terms_needs_floors():
    ctx = SeriesContext([VarSpec("q")], caps=[GradeCap("deg", {"q": 1})])
    # No stored term to read a floor from: floor 0 would be a guess.
    with pytest.raises(ValueError):
        Series.from_terms(ctx, {}, maxes={"q": 3})
    with pytest.raises(ValueError):
        Series.from_terms(ctx, {}, cap_bounds={"deg": 3})
    s = Series.from_terms(ctx, {}, maxes={"q": 3}, floors=(-2,))
    assert s.floors == (-2,)
    assert s.coefficient({"q": -3}) == 0
    assert s.coefficient({"q": -1}) == 0
    zero = Series.from_terms(ctx, {})
    assert zero.is_exact_zero()
    assert zero.floors == (0,)


def _embed_contexts():
    src = SeriesContext([VarSpec("lam", 2), VarSpec("x1")], caps=[GradeCap("xdeg", {"x1": 1})])
    dst = SeriesContext(
        [VarSpec("lam", 2), VarSpec("x1"), VarSpec("p1")],
        caps=[GradeCap("xdeg", {"x1": 1}), GradeCap("pweight", {"p1": 1})],
    )
    return src, dst


def test_embed_matches_variables_and_caps_by_name():
    src, dst = _embed_contexts()
    s = Series.from_terms(
        src,
        {(Fraction(-1, 2), 1): 3, (Fraction(1, 2), 2): -1},
        maxes={"lam": 2},
        cap_bounds={"xdeg": 2},
        floors=(Fraction(-3, 2), 0),
    )
    e = s.embed(dst)
    assert e.coefficient({"lam": Fraction(-1, 2), "x1": 1}) == 3
    assert e.coefficient({"lam": Fraction(1, 2), "x1": 2}) == -1
    window = {k: e.to_data()[k] for k in ("floors", "maxes", "cap_bounds")}
    assert window == {"floors": ["-3/2", "0/1", "0/1"], "maxes": ["2/1", None, None], "cap_bounds": ["2/1", None]}
    # A product with a p-series keeps the carried windows.
    prod = e * Series.monomial(dst, {"p1": 1}, 2)
    assert prod.coefficient({"lam": Fraction(-1, 2), "x1": 1, "p1": 1}) == 6
    with pytest.raises(PrecisionError):
        prod.coefficient({"lam": 3, "p1": 1})
    back = e.embed(src)
    assert back == s
    assert back.to_data() == s.to_data()


def test_embed_refuses_to_change_the_series_or_its_window():
    src, dst = _embed_contexts()
    other_lattice = SeriesContext([VarSpec("lam"), VarSpec("x1")], caps=[GradeCap("xdeg", {"x1": 1})])
    with pytest.raises(ValueError):
        Series.monomial(src, {"lam": 1}, 1).embed(other_lattice)
    # A dropped variable may carry neither terms nor a finite max.
    with pytest.raises(ValueError):
        Series.monomial(dst, {"p1": 1}, 1).embed(src)
    with pytest.raises(ValueError):
        Series.one(dst).restrict(maxes={"p1": 2}).embed(src)
    # A finite bound of a dropped cap with weights, or of a reweighted cap.
    with pytest.raises(ValueError):
        Series.one(dst).restrict(cap_bounds={"pweight": 2}).embed(src)
    heavier = SeriesContext([VarSpec("lam", 2), VarSpec("x1")], caps=[GradeCap("xdeg", {"x1": 2})])
    with pytest.raises(ValueError):
        Series.one(src).restrict(cap_bounds={"xdeg": 2}).embed(heavier)
    Series.one(src).embed(heavier)
