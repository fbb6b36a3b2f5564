"""Framed generating series: caps, transport, quantum dimensions, lifts."""

from fractions import Fraction

import pytest

from orbivertex.exactnum import field_for
from orbivertex.gw_vertex import (
    abelian_lift,
    cap_closed_form,
    character_image_order,
    connected_profile_series,
    g_bullet_mu,
    gw_context,
    lambda_g_psi_series,
    mv_a1_check,
    project_element,
    quantum_dim_hook,
    quantum_dim_sine,
    r_bullet_tau,
    r_bullet_zero,
    transport_back,
)
from orbivertex.partitions import partitions_of

from oracles import taylor_inverse_sin_ratio


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


def test_character_sum_route():
    for mu in ((1,), (2,), (1, 1), (2, 1)):
        assert mv_a1_check(mu, lam_trunc=6), mu


def test_framing_transport_round_trip():
    for a, mu, tau in ((1, (2,), 1), (1, (1, 1), 2), (2, (1,), 1)):
        recovered = transport_back(a, mu, tau, lam_max=4, x_deg_max=3)
        base = r_bullet_zero(a, mu, lam_max=4, x_deg_max=3)
        window = {"lam": 4}
        assert recovered.restrict(maxes=window) == base.restrict(maxes=window), (a, mu, tau)


def test_framed_vertex_at_zero_framing():
    fv = r_bullet_tau(1, (2,), 0, lam_max=4, x_deg_max=3)
    base = r_bullet_zero(1, (2,), lam_max=4, x_deg_max=3)
    window = {"lam": 4}
    assert fv.series.restrict(maxes=window) == base.restrict(maxes=window)
    with pytest.raises(ValueError):
        r_bullet_tau(1, (2,), Fraction(1, 2), lam_max=4)


def test_framed_lam_floor_is_lowest_stored_term():
    # The off-diagonal kernels vanish at lam = 0, so the transported floor
    # is the lowest stored lam exponent, not -|mu|.
    for a in (1, 2):
        for d in (1, 2, 3):
            for mu in partitions_of(d):
                for tau in (1, 2):
                    series = r_bullet_tau(a, mu, tau, lam_max=4, x_deg_max=3).series
                    assert series.floors[0] == min(k[0] for k in series.terms), (a, mu, tau)


def test_empty_window_keeps_its_floor_when_lifted():
    # Through x-degree 1 this series stores no terms, but through x-degree
    # 2 it has a lam^-2 x^2 term: the lift into the profile context must
    # carry the floor lam^-2, not read floor 0 off the empty term set.
    narrow = r_bullet_tau(2, (1, 1), 0, lam_max=3, x_deg_max=1).series
    assert not narrow.terms
    wide = r_bullet_tau(2, (1, 1), 0, lam_max=3, x_deg_max=2).series
    assert wide.coefficient({"lam": -2, "x1": 2})
    lifted = narrow.embed(gw_context(2, 2))
    assert lifted.window_description()["lam"] == {"floor": -2, "max": 3}
    assert lifted.window_description()["cap:xdeg"] == 1


def test_character_image_order_and_projection():
    assert character_image_order((4,), (2,)) == 2
    assert character_image_order((2, 2), (1, 0)) == 2
    assert character_image_order((4,), (1,)) == 4
    assert project_element((4,), (2,), (1,), 2) == 1
    assert project_element((2, 2), (1, 0), (1, 0), 2) == 1
    assert project_element((4,), (2,), (2,), 2) == 0


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
