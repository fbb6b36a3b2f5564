"""Framed generating series: caps, transport, quantum dimensions, lifts."""

from fractions import Fraction
from itertools import product
from math import prod

import pytest

from orbivertex import dt_vertex, gw_vertex, verify
from orbivertex.dt_vertex import trig_context
from orbivertex.exactnum import field_for
from orbivertex.hurwitz import PhiKernel
from orbivertex.gw_vertex import (
    FramedVertex,
    abelian_lift,
    assemble_G0,
    cap_closed_form,
    character_image_order,
    connected_profile_series,
    g_bullet_mu,
    g_bullet_table,
    gw_context,
    lambda_g_psi_series,
    project_element,
    quantum_dim_hook,
    quantum_dim_sine,
    r_bullet_tau,
    r_bullet_zero,
    transport_back,
)
from orbivertex.partitions import partitions_of
from orbivertex.series import PrecisionError, Series
from orbivertex.verify import mv_a1_check

from oracles import g_bullet_table_by_exponential, taylor_inverse_sin_ratio, transport_by_gluing


def test_cap_leading_coefficients():
    i1 = field_for(1).imaginary_unit()
    cap = cap_closed_form(1, 1, ())
    assert cap.coefficient({"lam": -1}) == field_for(1).from_fraction(1)
    cap2 = cap_closed_form(1, 2, ())
    assert cap2.coefficient({"lam": -1}) == i1 * Fraction(1, 4)
    # The insertion profile scales the series; it is not carried as x-monomials.
    colored = cap_closed_form(2, 1, (1,))
    assert colored.coefficient({"lam": -1}) == field_for(2).from_fraction(1)


def test_cap_parity_vanishing():
    # Degree 1 with total color 2 violates d = sum(gamma) mod 2.
    assert not cap_closed_form(2, 1, (1, 1)).terms
    # Degree 2 with a single color-1 insertion also vanishes.
    assert not cap_closed_form(2, 2, (1,)).terms


def test_caps_have_odd_lambda_exponents_only():
    for a, d, gamma in ((1, 1, ()), (1, 3, ()), (2, 1, (1,)), (2, 2, (1, 1))):
        series = cap_closed_form(a, d, gamma, lam_trunc=7)
        for key, coeff in series.terms.items():
            lam_exp = key[series.ctx.index["lam"]]
            assert lam_exp % 2 == 1 or not coeff


def test_lambda_g_psi_matches_division_oracle():
    series = lambda_g_psi_series(lam_trunc=10)
    taylor = taylor_inverse_sin_ratio(10)
    for k in range(11):
        assert series.coefficient({"lam": k}) == taylor[k]


def test_quantum_dimension_formulas_agree():
    for d in range(1, 5):
        for nu in partitions_of(d):
            assert quantum_dim_hook(nu, lam_trunc=8) == quantum_dim_sine(nu, lam_trunc=8)


def test_quantum_dimension_single_box():
    series = quantum_dim_hook((1,), lam_trunc=6)
    taylor = taylor_inverse_sin_ratio(7)
    for k in range(-1, 6):
        want = taylor[k + 1] if (k + 1) % 2 == 0 else Fraction(0)
        assert series.coefficient({"lam": k}) == field_for(1).from_fraction(want)


def test_g_bullet_equals_framing_zero_closed_form():
    for a, mu in ((1, (2,)), (1, (1, 1)), (2, (1,))):
        window = {"lam": 4}
        lhs = g_bullet_mu(a, mu, lam_max=4, x_deg_max=3).restrict(maxes=window)
        rhs = r_bullet_zero(a, mu, lam_max=4, x_deg_max=3).restrict(maxes=window)
        assert lhs == rhs, (a, mu)


def test_g_bullet_fill_is_tight():
    # g_bullet_mu fills the caps through lam_max + d - 1, which the
    # exponential needs exactly: one order less and the cut refuses.
    lam_max, x_deg_max = 2, 1
    for a in (1, 2, 3):
        for d in (1, 2, 3):
            window = {"lam": lam_max}
            assemble_G0(a, d, x_deg_max, lam_max + d - 1).exp(cap="pweight").restrict(maxes=window)
            short = assemble_G0(a, d, x_deg_max, lam_max + d - 2).exp(cap="pweight")
            with pytest.raises(PrecisionError, match=f"reaches only {lam_max - 1}, need {lam_max}"):
                short.restrict(maxes=window)


def test_g_bullet_table_matches_the_per_profile_path():
    # The product table stores, for every profile, the terms and the tops
    # of the coefficient of p_mu in the G0 exponential; its floors are
    # r_bullet_zero's, (-len(mu), 0, ...).  (2,5) at (5,4) has an entry,
    # (1^5), whose x part cancels and which stores nothing.
    cases = [(a, d, w) for a in (1, 2, 3, 4) for d in (1, 2, 3, 4) for w in ((3, 2), (5, 4), (2, 1), (0, 0))]
    for a, d, (lam_max, x_deg_max) in cases + [(2, 5, (5, 4))]:
        table = g_bullet_table(a, d, lam_max, x_deg_max)
        by_exp = g_bullet_table_by_exponential(a, d, lam_max, x_deg_max)
        assert list(table) == list(by_exp) == list(partitions_of(d))
        for mu, series in table.items():
            got = series.to_data()
            want = by_exp[mu].to_data()
            floors = got.pop("floors")
            want.pop("floors")
            assert got == want, (a, mu, lam_max, x_deg_max)
            assert floors == r_bullet_zero(a, mu, lam_max, x_deg_max).to_data()["floors"], (a, mu)
            assert floors == [f"{-len(mu)}/1"] + ["0/1"] * (a - 1), (a, mu)
            assert g_bullet_mu(a, mu, lam_max, x_deg_max).to_data() == series.to_data(), (a, mu)
    assert not g_bullet_table(2, 5)[(1, 1, 1, 1, 1)].terms


def test_g_bullet_mu_refuses_a_window_below_its_floor():
    # Between -d and -len(mu) the entry is refused as r_bullet_zero refuses it.
    for a, mu in ((1, (2, 1)), (2, (2, 1, 1)), (3, (3,))):
        for lam_max in range(-sum(mu), -len(mu)):
            message = f"window of 'lam' cut at {lam_max} lies below its floor {-len(mu)}"
            for build in (g_bullet_mu, r_bullet_zero):
                with pytest.raises(PrecisionError, match=message):
                    build(a, mu, lam_max, 2)
        assert g_bullet_mu(a, mu, -len(mu), 2) == r_bullet_zero(a, mu, -len(mu), 2)


QUANTUM_SHAPES = ((1,), (2,), (2, 1), (3, 1), (2, 2, 1))


def _shortened(monkeypatch, owner, name, fill_at):
    # Replace owner.name by the same function filled one order less; fill_at
    # is the position of the fill among its arguments.
    real = getattr(owner, name)

    def short(*args):
        args = list(args)
        args[fill_at] -= 1
        return real(*args)

    monkeypatch.setattr(owner, name, short)


def test_quantum_dim_fill_is_tight(monkeypatch):
    # The inverses fill through lam_trunc + |nu| - 1 and the sines of the
    # sine form through lam_trunc + |nu| + 1, which the products need
    # exactly: with either kind of factor one order shorter the cut refuses.
    # Only shapes with two or more rows have sine factors.
    refusal = "reaches only {}, need {}"
    for nu in QUANTUM_SHAPES:
        for lam_trunc in (0, 4):
            quantum_dim_hook(nu, lam_trunc)
            quantum_dim_sine(nu, lam_trunc)
    with monkeypatch.context() as patch:
        # Series.inverse_trig, seen through the class, takes (ctx, var,
        # denominator, k, fill, field).  The sine product memo is cleared
        # inside the patch, so no full-length factor is served, and after
        # it, so no short one leaks.
        _shortened(patch, Series, "inverse_trig", 4)
        dt_vertex._sine_product.cache_clear()
        for nu in QUANTUM_SHAPES:
            for lam_trunc in (0, 4):
                for form in (quantum_dim_hook, quantum_dim_sine):
                    with pytest.raises(PrecisionError, match=refusal.format(lam_trunc - 1, lam_trunc)):
                        form(nu, lam_trunc)
    dt_vertex._sine_product.cache_clear()
    with monkeypatch.context() as patch:
        _shortened(patch, gw_vertex, "_sin_half", 2)
        for nu in QUANTUM_SHAPES:
            for lam_trunc in (0, 4):
                if len(nu) == 1:
                    quantum_dim_sine(nu, lam_trunc)
                    continue
                with pytest.raises(PrecisionError, match=refusal.format(lam_trunc - 1, lam_trunc)):
                    quantum_dim_sine(nu, lam_trunc)


def test_conjugate_shapes_share_one_hook_product():
    # (2,) and (1, 1) have the hook lengths {2, 1}: the first builds the
    # sine product, and the second reads it from the memo.
    dt_vertex._sine_product.cache_clear()
    quantum_dim_hook((2,), 4)
    misses = dt_vertex._sine_product.cache_info().misses
    assert misses
    quantum_dim_hook((1, 1), 4)
    assert dt_vertex._sine_product.cache_info().misses == misses


def test_quantum_dim_floor_is_lowest_stored_term():
    # Both forms start at lam^-|nu|: in the sine form the sines start at
    # lam^1 and the inverse sines at lam^-1.
    for nu in QUANTUM_SHAPES:
        for form in (quantum_dim_hook, quantum_dim_sine):
            series = form(nu, 4)
            lam_floor = series.floors[0]
            lowest = min(key[0] for key in series.terms)
            assert lam_floor == lowest == -sum(nu), (form.__name__, nu)


def test_quantum_dim_refusal_names_the_floor():
    for form in (quantum_dim_hook, quantum_dim_sine):
        with pytest.raises(PrecisionError, match="window of 'lam' cut at -3 lies below its floor -2"):
            form((1, 1), -3)


def test_character_sum_fill_is_tight(monkeypatch):
    # mv_a1_check fills each quantum dimension through lam^lam_trunc and
    # each kappa exponential through lam^(lam_trunc + d); with either one
    # order shorter the cut refuses.  At d = 1 kappa is 0 and the
    # exponential is exactly 1, so only sizes 2 to 4 run.
    cases = [(mu, lam_trunc) for d in (2, 3, 4) for mu in partitions_of(d) for lam_trunc in (0, 3, 8)]
    for mu, lam_trunc in cases:
        assert mv_a1_check(mu, lam_trunc), mu
    real_exp = Series.exp_monomial

    def short_exp(ctx, exponents, coeff, maxes):
        return real_exp(ctx, exponents, coeff, maxes={name: m - 1 for name, m in maxes.items()})

    for shorten in (
        lambda patch: _shortened(patch, verify, "quantum_dim_hook", 1),
        lambda patch: patch.setattr(Series, "exp_monomial", short_exp),
    ):
        with monkeypatch.context() as patch:
            shorten(patch)
            for mu, lam_trunc in cases:
                with pytest.raises(PrecisionError, match=f"reaches only {lam_trunc - 1}, need {lam_trunc}"):
                    mv_a1_check(mu, lam_trunc)


def test_character_sum_route():
    for mu in ((1,), (2,), (1, 1), (2, 1)):
        assert mv_a1_check(mu, lam_trunc=6), mu


def test_character_sum_refuses_an_empty_window():
    # Both sides start at lam^-2, so lam^-5 is an empty window.
    with pytest.raises(
        PrecisionError, match="mv_a1_check: window of 'lam' cut at -5 lies below its floor -2"
    ):
        mv_a1_check((1, 1), lam_trunc=-5)


def test_framing_transport_round_trip():
    for a, mu, tau in ((1, (2,), 1), (1, (1, 1), 2), (2, (1,), 1)):
        recovered = transport_back(a, mu, tau, lam_max=4, x_deg_max=3)
        base = r_bullet_zero(a, mu, lam_max=4, x_deg_max=3)
        window = {"lam": 4}
        assert recovered.restrict(maxes=window) == base.restrict(maxes=window), (a, mu, tau)


def _outcome(build):
    # The bytes and coefficient types of a series, or the text of its
    # refusal.
    try:
        series = build()
    except PrecisionError as err:
        return "refused", str(err)
    return series.to_data(), [type(series.terms[k]) for k in sorted(series.terms)]


def _kernel_case(nu, mu, rate, fill):
    kernel = PhiKernel(nu, mu).series(trig_context(1), "lam", field_for(1).imaginary_unit() * rate, {"lam": fill})
    if kernel.is_exact_zero():
        return "exact zero"
    if all(t is None for t in kernel.tops):
        return "constant"
    return "with terms" if kernel.terms else "no term in its window"


def test_transport_matches_gluing_the_family_against_the_tube():
    # The transport applies each tube column through the kernels' integer
    # moments; the oracle glues the family against the column of kernel
    # series.  The sweep must meet, in transports that succeed, kernels with
    # terms, constants (degree one or framing zero), exact zeros (off the
    # diagonal at framing zero) and, below lam^-1, kernels that hold no term
    # inside their window and still bound it.
    columns = set()
    profiles = [mu for d in range(5) for mu in partitions_of(d)]
    for a, mu, tau, lam, x in product((1, 2, 3), profiles, (-2, -1, 0, 1, 3), (-3, -2, -1, 0, 2, 5), (0, 3)):
        builds = [(True, -tau, lambda: transport_back(a, mu, tau, lam, x))]
        if mu:
            builds.append((False, tau, lambda: r_bullet_tau(a, mu, tau, lam, x).series))
        for back, rate, build in builds:
            got = _outcome(build)
            assert got == _outcome(lambda: transport_by_gluing(a, mu, tau, lam, x, back)), (a, mu, tau, lam, x, back)
            # r_bullet_tau at framing zero transports nothing.
            if got[0] != "refused" and (back or tau):
                columns.add((mu, rate, lam + sum(mu)))
    cases = {_kernel_case(nu, mu, rate, fill) for mu, rate, fill in columns for nu in partitions_of(sum(mu))}
    assert cases == {"exact zero", "constant", "with terms", "no term in its window"}


def test_framed_vertex_at_zero_framing():
    fv = r_bullet_tau(1, (2,), 0, lam_max=4, x_deg_max=3)
    base = r_bullet_zero(1, (2,), lam_max=4, x_deg_max=3)
    window = {"lam": 4}
    assert fv.series.restrict(maxes=window) == base.restrict(maxes=window)
    # At framing zero the framing-zero series itself comes back.
    for a in (1, 2):
        for mu in ((), (1,), (2, 1)):
            fv = r_bullet_tau(a, mu, 0, lam_max=3, x_deg_max=2)
            assert fv.series.to_data() == r_bullet_zero(a, mu, lam_max=3, x_deg_max=2).to_data()
    with pytest.raises(ValueError):
        r_bullet_tau(1, (2,), Fraction(1, 2), lam_max=4)


def test_framed_vertex_is_a_frozen_record():
    fv = r_bullet_tau(1, (1,), 1, lam_max=2, x_deg_max=0)
    assert fv == FramedVertex(1, (1,), 1, fv.series) != FramedVertex(1, (1,), 2, fv.series)
    assert repr(fv) == f"FramedVertex(a=1, mu=(1,), tau=1, series={fv.series!r})"
    with pytest.raises(AttributeError):
        fv.tau = 2
    with pytest.raises(TypeError):
        hash(fv)  # a Series is unhashable


def test_framed_lam_floor_is_lowest_stored_term():
    # The off-diagonal kernels vanish at lam = 0, so the transported floor
    # is the lowest stored lam exponent, not -|mu|.
    for a in (1, 2):
        for d in (1, 2, 3):
            for mu in partitions_of(d):
                for tau in (1, 2):
                    series = r_bullet_tau(a, mu, tau, lam_max=4, x_deg_max=3).series
                    assert series.floors[0] == min(k[0] for k in series.terms), (a, mu, tau)


def test_cap_exponential_reads_outside_its_window_raise():
    # The p1^5 term p1^5 (2 sin(lam/2))^-5/5! lies outside the profile
    # weight 3 and reaches lam^-5, below the lam floor -3 of the stored data.
    bullet = assemble_G0(1, 3, 0, 4).exp(cap="pweight")
    assert bullet.floors[0] == -3
    with pytest.raises(PrecisionError):
        bullet.coefficient({"lam": -5, "p1": 5})
    assert bullet.coefficient({"lam": -5, "p1": 3}) == 0


def test_connected_profile_floor_is_lowest_stored_term():
    for a in (2, 3, 4):
        for tau in (0, 1):
            series = connected_profile_series(a, (1,), tau, 3, lam_max=4)
            assert series.floors[0] == min(k[0] for k in series.terms) == -1, (a, tau)
            with pytest.raises(PrecisionError, match="below its floor -1"):
                connected_profile_series(a, (1,), tau, 3, lam_max=-2)
    # Without colors no cap of degree below a is nonzero, so the series
    # is empty and keeps the floors of the constant 1.
    for a, d_max in ((2, 1), (3, 2)):
        empty = connected_profile_series(a, (), 1, d_max, lam_max=3)
        assert not empty.terms and empty.floors == (0,) * (1 + d_max), (a, d_max)


def test_empty_window_keeps_its_floor_when_lifted():
    # Through x-degree 1 this series stores no terms, but through x-degree
    # 2 it has a lam^-2 x^2 term: the lift into the profile context must
    # carry the floor lam^-2, not read floor 0 off the empty term set.
    narrow = r_bullet_tau(2, (1, 1), 0, lam_max=3, x_deg_max=1).series
    assert not narrow.terms
    wide = r_bullet_tau(2, (1, 1), 0, lam_max=3, x_deg_max=2).series
    assert wide.coefficient({"lam": -2, "x1": 2})
    lifted = narrow.embed(gw_context(2, 2))
    assert (lifted.floors[0], lifted.maxes[0], lifted.cap_bounds[0]) == (-2, 3, 1)


def test_character_image_order_and_projection():
    assert character_image_order((4,), (2,)) == 2
    assert character_image_order((2, 2), (1, 0)) == 2
    assert character_image_order((4,), (1,)) == 4
    assert project_element((4,), (2,), (1,), 2) == 1
    assert project_element((2, 2), (1, 0), (1, 0), 2) == 1
    assert project_element((4,), (2,), (2,), 2) == 0


def test_project_element_refuses_a_wrong_length_element():
    with pytest.raises(ValueError, match="group element must match"):
        project_element((2, 2), (1, 0), (1,), 2)
    with pytest.raises(ValueError, match="group element must match"):
        project_element((4,), (2,), (1, 7), 2)
    with pytest.raises(ValueError, match="character tuple must match"):
        project_element((4,), (2, 1), (1,), 2)
    with pytest.raises(ValueError, match="group element must match"):
        abelian_lift((2, 2), (1, 0), ((1,),), 0, 1, lam_max=3)


def test_abelian_lift_term_scaling():
    d_max = 2
    base = connected_profile_series(2, (1,), 0, d_max, lam_max=4)
    names = base.ctx.names
    lam_i = names.index("lam")
    p_idx = [i for i, n in enumerate(names) if n.startswith("p")]
    lift = abelian_lift((4,), (2,), ((1,),), 0, d_max, lam_max=4)
    K = 2
    assert len(lift.terms) == len(base.terms)
    for key, coeff in base.terms.items():
        j = key[lam_i]
        parts = sum(key[i] for i in p_idx)
        assert lift.terms[key] == coeff * Fraction(K) ** (1 + j - parts)


def test_abelian_lift_presentation_independent():
    lift_cyclic = abelian_lift((4,), (2,), ((1,),), 0, 2, lam_max=4)
    lift_klein = abelian_lift((2, 2), (1, 0), ((1, 0),), 0, 2, lam_max=4)
    assert lift_cyclic.terms == lift_klein.terms


def test_abelian_lift_rejects_kernel_insertions():
    with pytest.raises(ValueError):
        abelian_lift((4,), (2,), ((2,),), 0, 1, lam_max=3)


def test_connected_profile_series_refuses_colors_outside_the_range():
    # A color outside 1..a-1 used to be dropped, giving the color-free
    # series; it is refused before the memo is read.
    memo = gw_vertex._connected_profile_series
    memo.cache_clear()
    for a, colors in ((2, (5,)), (2, (0,)), (3, (1, 3)), (1, (1,)), (3, (-1,))):
        bad = next(c for c in colors if not 1 <= c < a)
        with pytest.raises(ValueError, match=f"color {bad} does not lie in 1..a-1 for a={a}"):
            connected_profile_series(a, colors, 0, 2, lam_max=2)
    assert memo.cache_info().currsize == 0
    # No colors at all is valid.
    connected_profile_series(2, (), 0, 2, lam_max=2)
    assert memo.cache_info().currsize == 1


def test_the_abelian_suite_builds_its_cyclic_series_once():
    # The base series (by keyword) and the cyclic-4 and Klein-4 lifts (by
    # position) all have the image a = 2, colors (1,): one build, two reads.
    memo = gw_vertex._connected_profile_series
    memo.cache_clear()
    assert all(check["passed"] for check in verify.abelian(d=3, lambda_order=4, tau=1))
    info = memo.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_keyword_positional_and_unsorted_colors_share_one_entry():
    memo = gw_vertex._connected_profile_series
    memo.cache_clear()
    first = connected_profile_series(3, (2, 1), 1, 2, lam_max=3)
    again = connected_profile_series(3, [1, 2], 1, 2, 3)
    info = memo.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert again.to_data() == first.to_data()


LIFTS = {
    "cyclic4": ((4,), (2,), ((1,),)),
    "klein4": ((2, 2), (1, 0), ((1, 0),)),
    # A character of Z_6 of order 3: both insertions are nontrivial in Z_3.
    "z6-order3": ((6,), (2,), ((1,), (5,))),
}


@pytest.mark.parametrize("tau", (0, 1, -1))
def test_memoized_connected_series_and_lifts_equal_a_fresh_build(tau):
    d_max, lam = 3, 4
    gw_vertex._connected_profile_series.cache_clear()
    for label, (orders, phi, gamma) in LIFTS.items():
        a = character_image_order(orders, phi)
        K = prod(orders) // a
        colors = tuple(sorted(project_element(orders, phi, g, a) for g in gamma))
        fresh = gw_vertex._connected_profile_series.__wrapped__(a, colors, tau, d_max, lam)
        # The first read fills the memo and the second is served from it.
        for _ in range(2):
            lift = abelian_lift(orders, phi, gamma, tau, d_max, lam_max=lam)
            base = connected_profile_series(a, colors[::-1], tau, d_max, lam_max=lam)
            assert base.to_data() == fresh.to_data(), label
            scalars = {"lam": K} | {f"p{d}": Fraction(1, K) for d in range(1, d_max + 1)}
            assert lift.to_data() == (fresh.substitute(scalars) * Fraction(K)).to_data(), label
