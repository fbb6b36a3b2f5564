"""Window-tracked truncated series: arithmetic, honesty, serialization."""

import json
from fractions import Fraction

import pytest

from orbivertex.exactnum import cyclo_field
from orbivertex.series import (
    GradeCap,
    PrecisionError,
    Series,
    SeriesContext,
    VarSpec,
    coeff_from_data,
    coeff_to_data,
)


def one_var_ctx():
    return SeriesContext([VarSpec("q")])


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
    assert back.window_description() == s.window_description()


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
    assert e.window_description() == {
        "lam": {"floor": Fraction(-3, 2), "max": 2},
        "x1": {"floor": 0, "max": None},
        "p1": {"floor": 0, "max": None},
        "cap:xdeg": 2,
        "cap:pweight": None,
    }
    # A product with a p-series keeps the carried windows.
    prod = e * Series.monomial(dst, {"p1": 1}, 2)
    assert prod.coefficient({"lam": Fraction(-1, 2), "x1": 1, "p1": 1}) == 6
    with pytest.raises(PrecisionError):
        prod.coefficient({"lam": 3, "p1": 1})
    back = e.embed(src)
    assert back == s
    assert back.window_description() == s.window_description()


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
