"""Box-counting vertex: closed rational forms against brute enumeration."""

from fractions import Fraction

import pytest

from orbivertex.dt_vertex import (
    RationalForm,
    _r_bullet_zero_form,
    _vertex_side_form,
    box_context,
    box_counting_series,
    change_of_vars,
    lam_pad,
    powersum_rational,
    r_bullet_zero,
    reduced_vertex_closed,
    schur_rational,
    verify_correspondence,
    vertex_side_series,
    volume_counts,
)
from orbivertex.partitions import partitions_of

from oracles import (
    change_of_vars_loop,
    colored_context,
    plane_partition_counts,
    powersum_colored,
    schur_at_colored,
    taylor_inverse_sin_ratio,
)


def test_powersum_rational_expands_to_colored_powersum():
    for a in (1, 2, 3):
        ctx = colored_context(a)
        for k in (1, 2, 3):
            closed = powersum_rational(a, k).to_series(ctx, 6)
            direct = powersum_colored(ctx, k, a, 6)
            assert closed == direct, (a, k)


def test_schur_rational_expands_to_colored_schur():
    for a in (1, 2):
        ctx = colored_context(a)
        for d in range(1, 5):
            for nu in partitions_of(d):
                closed = schur_rational(nu, a).to_series(ctx, 6)
                direct = schur_at_colored(nu, a, 6)
                assert closed == direct, (a, nu)


def test_rational_form_algebra():
    geom = RationalForm(1, {(0,): Fraction(1)}, {(1, 1): 1})  # 1/(1-q)
    doubled = geom + geom
    ctx = colored_context(1)
    assert doubled.to_series(ctx, 5) == (geom.to_series(ctx, 5) * 2)
    flipped = geom.flip_q_sign()  # 1/(1+q)
    series = flipped.to_series(ctx, 5)
    for k in range(6):
        assert series.coefficient({"q": k}) == (-1) ** k


def test_reduced_vertex_closed_single_box_row():
    vertex = reduced_vertex_closed((1,), 1)
    data = vertex.to_data()
    assert data["denominator"] == [{"k": 1, "sign": 1, "mult": 1}]
    assert data["numerator"] == [{"exponents": ["0/1"], "coeff": "1/1"}]


def test_empty_leg_counts_are_plane_partitions():
    assert volume_counts((), 7) == plane_partition_counts(7)


def test_one_box_leg_counts_are_prefix_sums():
    # The closed ratio at a=1 for the single-box leg is 1/(1-q), so the
    # counts are prefix sums of the empty-leg counts.
    flat = plane_partition_counts(6)
    prefix = [sum(flat[: n + 1]) for n in range(7)]
    assert volume_counts((1,), 6) == prefix


def test_enumerator_ratio_a1():
    ctx = box_context(1)
    empty = box_counting_series((), 1, 6)
    for nu in ((1,), (2,), (1, 1)):
        full = box_counting_series(nu, 1, 6)
        closed = reduced_vertex_closed(nu, 1).to_series(ctx, 6)
        window = {"q": 6}
        lhs = full.restrict(maxes=window)
        rhs = (closed * empty).restrict(maxes=window)
        assert lhs == rhs, nu


def test_enumerator_ratio_a2():
    ctx = box_context(2)
    empty = box_counting_series((), 2, 6)
    for nu in ((1,), (1, 1)):
        full = box_counting_series(nu, 2, 6)
        closed = reduced_vertex_closed(nu, 2).to_series(ctx, 6)
        bounds = {"vol": 6}
        lhs = full.restrict(cap_bounds=bounds)
        rhs = (closed * empty).restrict(cap_bounds=bounds)
        assert lhs == rhs, nu


def test_framing_zero_series_is_inverse_sine():
    series = r_bullet_zero(1, (1,), lam_max=5)
    taylor = taylor_inverse_sin_ratio(6)
    for k in range(-1, 6):
        want = taylor[k + 1] if (k + 1) % 2 == 0 else Fraction(0)
        assert series.coefficient({"lam": k}) == want


def test_vertex_side_matches_framing_zero():
    # The vertex side sums Schur functions shape by shape; r_bullet_zero is
    # the collapsed power-sum product, so these inputs compare the two.
    window = {"lam": 4}
    cases = ((1, (2,)), (2, (1,)), (2, (2,)), (2, (1, 1)), (2, (2, 1)), (3, (2,)), (3, (1, 1)))
    for a, mu in cases:
        lhs = vertex_side_series(a, mu, lam_max=4, x_deg_max=3).restrict(maxes=window)
        rhs = r_bullet_zero(a, mu, lam_max=4, x_deg_max=3).restrict(maxes=window)
        assert lhs == rhs, (a, mu)


def test_framing_zero_floor_is_minus_length():
    # Each power sum contributes one 1/sin pole, so the lam floor is sharp
    # at -len(mu) and a term sits there.
    for a in (1, 2, 3):
        for d in (1, 2, 3):
            for mu in partitions_of(d):
                series = r_bullet_zero(a, mu, lam_max=2, x_deg_max=4)
                lam_floor = series.window_description()["lam"]["floor"]
                lowest = min(key[0] for key in series.terms)
                assert lam_floor == lowest == -len(mu), (a, mu)


def test_verify_correspondence_smoke():
    assert verify_correspondence(1, 2, lam_max=4, x_deg_max=3)


def test_bad_leg_rejected():
    with pytest.raises(ValueError):
        box_counting_series((1, 2), 1, 3)


def _closed_and_loop(rf, d, lam_max, x_deg_max):
    fill = lam_max + lam_pad(rf) + d
    return (
        change_of_vars(rf, d, fill, x_deg_max).to_data(),
        change_of_vars_loop(rf, d, fill, x_deg_max).to_data(),
    )


def test_change_of_vars_matches_term_by_term_loop():
    # The closed coefficient formula against one exp_monomial product per
    # factor: same terms, same coefficients, same window, byte for byte.
    for a in (1, 2, 3, 4):
        for d in (1, 2, 3):
            for mu in partitions_of(d):
                closed, loop = _closed_and_loop(_r_bullet_zero_form(a, mu), d, 3, 2)
                assert closed == loop, (a, mu)
    for a, mu in ((2, (2, 1)), (3, (2,))):
        closed, loop = _closed_and_loop(_vertex_side_form(a, mu), sum(mu), 3, 2)
        assert closed == loop, (a, mu)


def test_change_of_vars_without_lam_dependence():
    # A numerator term at q^0 has n = -d/2, so its lam coefficient is 0:
    # with no such term elsewhere the lam window stays open (max None).
    # A denominator factor then bounds lam through its inverse.
    cases = (
        (RationalForm(1, {(0,): Fraction(3)}, {}), None),  # no x variables either
        (RationalForm(2, {(0, -2): Fraction(-1, 2)}, {}), None),
        (RationalForm(2, {(0, -2): Fraction(1)}, {(1, 1): 1}), 4),
    )
    for rf, lam_max in cases:
        closed = change_of_vars(rf, 2, 4, 2)
        assert closed.to_data() == change_of_vars_loop(rf, 2, 4, 2).to_data(), rf
        assert closed.terms and closed.maxes[0] == lam_max, rf
