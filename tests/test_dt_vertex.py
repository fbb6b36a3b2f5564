"""Box-counting vertex: closed rational forms against brute enumeration."""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from orbivertex import dt_vertex, gw_vertex
from orbivertex.characters import chi
from orbivertex.dt_vertex import (
    RationalForm,
    _den_factor_inverse,
    _rational_form_image,
    _vertex_side_form,
    box_counting_series,
    correspondence_report,
    lam_pad,
    powersum_rational,
    r_bullet_zero,
    reduced_vertex_closed,
    schur_rational,
    trig_context,
    vertex_side_series,
    volume_counts,
    weighted_sum,
)
from orbivertex.exactnum import field_for
from orbivertex.partitions import conjugate, partitions_of
from orbivertex.series import PrecisionError, Series

from oracles import (
    change_of_vars_loop,
    colored_context,
    correspondence_report_literal,
    plane_partition_counts,
    powersum_colored,
    r_bullet_zero_form,
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


def test_schur_expansion_needs_no_series_inverse(monkeypatch):
    # to_series writes each 1/(1 - s q^k)^m in closed form, and the
    # correspondence expands no inverse either: both run while
    # Series.invert refuses, and the expansions match the oracle.
    def refuse(self):
        raise AssertionError("Series.invert called")

    shapes = [(a, nu) for a in (1, 2) for d in range(1, 5) for nu in partitions_of(d)]
    with monkeypatch.context() as m:
        m.setattr(Series, "invert", refuse)
        closed = {(a, nu): schur_rational(nu, a).to_series(colored_context(a), 6) for a, nu in shapes}
        assert all(ok for _, ok in correspondence_report(2, 3))
    for (a, nu), series in closed.items():
        assert series == schur_at_colored(nu, a, 6), (a, nu)


def test_schur_rational_character_orthogonality():
    # sum_nu chi^nu(mu) s_{nu'} = (-1)^(d - len(mu)) p_mu at the colored
    # alphabet, as exact rational functions.  With the per-shape shifts and
    # the sign flip it says that the vertex-side form equals the power-sum
    # form of r_bullet_zero, so vertex_side_series and r_bullet_zero agree.
    pairs = [(a, d) for a in (1, 2, 3) for d in range(1, 6)] + [(4, d) for d in range(1, 5)]
    for a, d in pairs:
        for mu in partitions_of(d):
            p_mu = RationalForm.monomial(a, 0)
            for part in mu:
                p_mu = p_mu * powersum_rational(a, part)
            terms = [(chi(nu, mu), schur_rational(conjugate(nu), a)) for nu in partitions_of(d)]
            assert weighted_sum(terms + [(-((-1) ** (d - len(mu))), p_mu)]).num == {}, (a, mu)
            vertex_side = weighted_sum([(1, _vertex_side_form(a, mu)), (-1, r_bullet_zero_form(a, mu))])
            assert vertex_side.num == {}, (a, mu)


def test_rational_form_algebra():
    geom = RationalForm(1, {(0,): Fraction(1)}, {(1, 1): 1})  # 1/(1-q)
    doubled = geom + geom
    ctx = colored_context(1)
    assert doubled.to_series(ctx, 5) == (geom.to_series(ctx, 5) * 2)
    flipped = geom.flip_q_sign()  # 1/(1+q)
    series = flipped.to_series(ctx, 5)
    for k in range(6):
        assert series.coefficient({"q": k}) == (-1) ** k
    # Forms of different moduli have no common denominator.
    for add in (lambda f, g: f + g, lambda f, g: weighted_sum([(1, f), (2, g)])):
        with pytest.raises(ValueError, match="different moduli"):
            add(geom, RationalForm.monomial(2, 0))


def test_weighted_sum_equals_the_fold_of_sums():
    # Three forms over different denominators, with Laurent and color terms.
    forms = [
        RationalForm(2, {(0, 0): Fraction(1)}, {(1, 1): 1}),
        RationalForm(2, {(-1, 1): Fraction(3, 2), (2, 0): Fraction(-1)}, {(1, -1): 2}),
        RationalForm(2, {(1, -2): Fraction(5)}, {(2, 1): 1, (1, 1): 2}),
    ]
    weights = [Fraction(1, 3), -2, Fraction(5, 4)]
    total = weighted_sum(list(zip(weights, forms)))
    fold = forms[0] * weights[0] + forms[1] * weights[1] + forms[2] * weights[2]
    assert total.den == {(1, 1): 2, (1, -1): 2, (2, 1): 1}
    # Over one denominator, equal rational functions have equal numerators.
    assert weighted_sum([(1, total), (-1, fold)]).num == {}
    ctx = colored_context(2)
    assert total.to_series(ctx, 6) == fold.to_series(ctx, 6)


def test_numerator_over_refuses_a_missing_factor():
    # 1/(1-q)^2 cannot be written over 1, over (1-q) or over (1+q)^2.
    rf = RationalForm(1, {(0,): Fraction(1)}, {(1, 1): 2})
    for den in ({}, {(1, 1): 1}, {(1, -1): 2}):
        with pytest.raises(ValueError, match=r"lacks the factor \(1, 1\)\^2"):
            rf.numerator_over(den)
    assert rf.numerator_over({(1, 1): 2}) == {(0,): 1}
    assert rf.numerator_over({(1, 1): 3, (2, -1): 1}) == {(0,): 1, (1,): -1, (2,): 1, (3,): -1}


def test_numerator_over_drops_cancelled_terms():
    # (1 + q) q_1 times (1 - q) is (1 - q^2) q_1: the q^1 terms cancel.
    rf = RationalForm(2, {(0, 1): Fraction(1), (1, 1): Fraction(1)}, {})
    assert rf.numerator_over({(1, 1): 1}) == {(0, 1): 1, (2, 1): -1}
    # A sum that cancels keeps no numerator terms.
    geom = RationalForm(1, {(0,): Fraction(1)}, {(1, 1): 1})
    assert (geom + geom * -1).num == {}


def test_flip_q_sign_keeps_fractions():
    flipped = RationalForm.monomial(1, -1, (), 3).flip_q_sign()
    assert flipped.num == {(-1,): Fraction(-3)}
    assert all(type(c) is Fraction for c in flipped.num.values())


def test_monomial_refuses_non_integer_exponents():
    with pytest.raises(ValueError, match="not all integers"):
        RationalForm.monomial(2, Fraction(1, 2))
    with pytest.raises(ValueError, match="not all integers"):
        RationalForm.monomial(3, 1, (Fraction(-2, 3), 0))
    with pytest.raises(ValueError, match="one exponent per color variable"):
        RationalForm.monomial(3, 1, (1,))
    assert RationalForm.monomial(3, Fraction(2), (-1, 0), 5).num == {(2, -1, 0): Fraction(5)}


def test_to_data_writes_integer_exponent_strings():
    # Shapes whose numerators carry negative and positive color exponents.
    def exponents(nu, a):
        return [t["exponents"] for t in reduced_vertex_closed(nu, a).to_data()["numerator"]]

    assert exponents((2,), 2) == [
        ["0/1", "0/1"], ["1/1", "-1/1"], ["1/1", "1/1"], ["2/1", "-1/1"], ["2/1", "0/1"], ["2/1", "1/1"],
    ]
    assert exponents((2,), 3) == [
        ["0/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"], ["0/1", "1/1", "1/1"],
        ["1/1", "0/1", "-1/1"], ["1/1", "0/1", "1/1"], ["1/1", "2/1", "1/1"],
        ["2/1", "0/1", "-1/1"], ["2/1", "0/1", "0/1"], ["2/1", "0/1", "1/1"],
        ["2/1", "1/1", "0/1"], ["2/1", "1/1", "1/1"], ["2/1", "2/1", "1/1"],
    ]


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
                lam_floor = series.floors[0]
                lowest = min(key[0] for key in series.terms)
                assert lam_floor == lowest == -len(mu), (a, mu)


def test_verify_correspondence_smoke():
    assert all(ok for _, ok in correspondence_report(1, 2, lam_max=4, x_deg_max=3))


def test_bad_leg_rejected():
    with pytest.raises(ValueError):
        box_counting_series((1, 2), 1, 3)
    with pytest.raises(ValueError, match="max_volume must be nonnegative"):
        box_counting_series((1,), 2, -1)
    with pytest.raises(ValueError, match="max_volume must be nonnegative"):
        volume_counts((1,), -1)


def _closed_and_loop(rf, d, lam_max, x_deg_max):
    # The literal route fills lam_pad(rf) orders past lam_max itself.
    return (
        _rational_form_image(rf, d, lam_max, x_deg_max).to_data(),
        change_of_vars_loop(rf, d, lam_max + lam_pad(rf), x_deg_max).to_data(),
    )


def test_lam_pad_is_tight():
    # Filled through lam_max + lam_pad the literal image reaches lam_max.
    # For the framing-zero forms, whose len(mu) denominator factors all
    # vanish at lam = 0, one order less (the image asked for through
    # lam_max - 1) makes the cut to lam_max refuse, so the pad carries no
    # spare margin; the vertex-side numerators of some shapes vanish at
    # lam = 0, which only adds reach.
    lam_max, x_deg_max = 2, 1
    for a in (1, 2, 3):
        for d in (1, 2, 3):
            for mu in partitions_of(d):
                for rf in (r_bullet_zero_form(a, mu), _vertex_side_form(a, mu)):
                    _rational_form_image(rf, d, lam_max, x_deg_max).restrict(maxes={"lam": lam_max})
                rf = r_bullet_zero_form(a, mu)
                assert lam_pad(rf) == len(mu), (a, mu)
                short = _rational_form_image(rf, d, lam_max - 1, x_deg_max)
                with pytest.raises(PrecisionError, match=f"reaches only {lam_max - 1}, need {lam_max}"):
                    short.restrict(maxes={"lam": lam_max})


def test_lam_pad_counts_vanishing_factors():
    # 1 - q^2 and 1 + q vanish at lam = 0 under q -> -exp(i lam); 1 - q does not.
    assert lam_pad(RationalForm(1, {(0,): 1}, {})) == 0
    assert lam_pad(RationalForm(1, {(0,): 1}, {(1, 1): 2})) == 0
    assert lam_pad(RationalForm(1, {(0,): 1}, {(2, 1): 2, (1, -1): 1, (1, 1): 1})) == 3


def test_correspondence_refuses_an_empty_window():
    # Every series of size 2 starts at lam^-2, so lam_max = -3 leaves nothing.
    with pytest.raises(
        PrecisionError,
        match="correspondence_report: window of 'lam' cut at -3 lies below its floor -2",
    ):
        correspondence_report(2, 2, lam_max=-3)


def test_correspondence_matches_the_literal_check():
    # The exact rational identity plus one power-sum transport per profile
    # reports what the transported vertex side against the table reports.
    pairs = [(a, d) for a in (1, 2, 3) for d in range(5)] + [(4, 2)]
    for a, d in pairs:
        assert correspondence_report(a, d) == correspondence_report_literal(a, d), (a, d)


def test_correspondence_gw_half_fails_on_a_wrong_table_entry(monkeypatch):
    # One coefficient inside the window changed in one entry of the table.
    perturbed = (2, 1)
    real = gw_vertex.g_bullet_table

    def wrong(*args, **kwargs):
        table = real(*args, **kwargs)
        entry = table[perturbed]
        table[perturbed] = entry + Series.monomial(entry.ctx, {"lam": 0}, 1)
        return table

    monkeypatch.setattr(gw_vertex, "g_bullet_table", wrong)
    report = correspondence_report(2, 3, lam_max=2, x_deg_max=1)
    assert report == [(mu, mu != perturbed) for mu in partitions_of(3)]


def test_correspondence_builds_no_exponential_and_shares_the_sine_products(monkeypatch):
    # Neither side forms the G0 exponential, and the two sides read one sine
    # product per profile.  At (2, 3) the table builds the products of (3),
    # (2, 1) and (1, 1, 1), filled through lam_max + len(mu) - 1, with the
    # parts (2,), (1,) at fill 3 and (1,), (1, 1) at fill 4 on the way:
    # seven builds, and (1,) at fill 4 is found twice.  Every transport then
    # finds its profile's product in the memo: three more hits.
    def refuse(*args, **kwargs):
        raise AssertionError("the correspondence formed an exponential")

    monkeypatch.setattr(gw_vertex, "assemble_G0", refuse)
    monkeypatch.setattr(Series, "exp", refuse)
    dt_vertex._r_bullet_zero_series.cache_clear()
    dt_vertex._sine_product.cache_clear()
    assert all(ok for _, ok in correspondence_report(2, 3, lam_max=2, x_deg_max=1))
    info = dt_vertex._sine_product.cache_info()
    assert (info.misses, info.hits) == (7, 5)


def test_sine_product_is_the_framing_zero_lam_part():
    # (-1)^len(mu) prod_k 1/(e^(ik lam/2) - e^(-ik lam/2)) against the lam
    # part the transport built before, e^(i d lam/2) prod_k 1/(1 - e^(ik lam)),
    # on a common cut: filled through F, the second reaches F - len(mu), and
    # the sine product asked for through that cut fills its factors one
    # order less, through F - 1.  Its factors filled two orders less no
    # longer reach the cut.
    for a in (1, 2, 3):
        ctx = trig_context(a)
        i = field_for(a).imaginary_unit()
        for d in range(1, 5):
            for mu in partitions_of(d):
                for fill in (len(mu) - 1, len(mu) + 2, 7):
                    cut = {"lam": fill - len(mu)}
                    exp = Series.exp_monomial(ctx, {"lam": 1}, i * Fraction(d, 2), maxes={"lam": fill})
                    old = reduce(mul, [_den_factor_inverse(a, k, (-1) ** k, fill) for k in mu], exp)
                    new = dt_vertex._sine_product(a, mu, cut["lam"]) * (-1) ** len(mu)
                    assert new.restrict(maxes=cut).to_data() == old.restrict(maxes=cut).to_data(), (a, mu, fill)
                    short = reduce(mul, [dt_vertex._sine_product(a, (k,), fill - 2) for k in mu])
                    with pytest.raises(PrecisionError, match=f"reaches only {cut['lam'] - 1}, need {cut['lam']}"):
                        short.restrict(maxes=cut)


def test_change_of_vars_matches_term_by_term_loop():
    # The closed coefficient formula against one exp_monomial product per
    # factor: same terms, same coefficients, same window, byte for byte.
    for a in (1, 2, 3, 4):
        for d in (1, 2, 3):
            for mu in partitions_of(d):
                closed, loop = _closed_and_loop(r_bullet_zero_form(a, mu), d, 3, 2)
                assert closed == loop, (a, mu)
    for a, mu in ((2, (2, 1)), (3, (2,))):
        closed, loop = _closed_and_loop(_vertex_side_form(a, mu), sum(mu), 3, 2)
        assert closed == loop, (a, mu)
    # At a = 2, d = 5 many numerator terms share one q exponent, so the
    # grouping by lam rate sums several x parts per group.
    for mu in partitions_of(5):
        closed, loop = _closed_and_loop(_vertex_side_form(2, mu), 5, 1, 1)
        assert closed == loop, mu


def test_change_of_vars_without_lam_dependence():
    # A numerator term q^n with n = -d/2 (q^-1 at d = 2) meets the token
    # q^(d/2) at q^0, so its lam coefficient is 0: with no other term the
    # lam window stays open (max None).
    # A denominator factor then bounds lam through its inverse.
    cases = (
        (RationalForm(1, {(-1,): Fraction(3)}, {}), None),  # no x variables either
        (RationalForm(2, {(-1, 0): Fraction(-1, 2)}, {}), None),
        (RationalForm(2, {(-1, 0): Fraction(1)}, {(1, 1): 1}), 4),
    )
    for rf, lam_max in cases:
        closed = _rational_form_image(rf, 2, 4, 2)
        assert closed.to_data() == change_of_vars_loop(rf, 2, 4, 2).to_data(), rf
        assert closed.terms and closed.maxes[0] == lam_max, rf


def _framing_zero_loop(a, mu, lam_max, x_deg_max):
    # The multiplied-out framing-zero form through the term-by-term loop.
    rf = r_bullet_zero_form(a, mu)
    return change_of_vars_loop(rf, sum(mu), lam_max + lam_pad(rf), x_deg_max).restrict(maxes={"lam": lam_max})


def test_framing_zero_factor_images_match_the_multiplied_out_loop():
    # r_bullet_zero multiplies the cached x images of the flipped power sums
    # and never forms the product's numerator: floors, maxes, cap bounds and
    # terms must still be those of the loop over the multiplied-out form.
    # At a = 4 the loop takes about 3 s on the three wide windows alone.
    wide, narrow = ((5, 4), (6, 3), (10, 1)), ((2, 1), (0, 0))
    for a in (1, 2, 3, 4):
        for d in (1, 2, 3, 4):
            for mu in partitions_of(d):
                for lam_max, x_deg_max in narrow if a == 4 else wide + narrow:
                    closed = r_bullet_zero(a, mu, lam_max, x_deg_max).to_data()
                    assert closed == _framing_zero_loop(a, mu, lam_max, x_deg_max).to_data(), (a, mu)
                # Every series of size d starts at lam^-len(mu) >= lam^-d.
                message = f"window of 'lam' cut at {-d - 1} lies below its floor {-len(mu)}"
                with pytest.raises(PrecisionError, match=message):
                    r_bullet_zero(a, mu, -d - 1, 2)
                with pytest.raises(PrecisionError, match=message):
                    _framing_zero_loop(a, mu, -d - 1, 2)


@pytest.mark.parametrize("a", range(1, 9))
def test_power_sum_image_matches_the_literal_expansion(a):
    # The closed roots-of-unity filter against the letter-by-letter
    # expansion of the flipped p_k: same terms, coefficients, floors and
    # window, down to x-degree -1, where an a > 1 window holds no term.
    for k in range(1, 7):
        for x_deg_max in (-1, 0, 1, 2, 4):
            closed = dt_vertex._power_sum_image(a, k, x_deg_max)
            literal = dt_vertex._x_images(powersum_rational(a, k).flip_q_sign(), k, x_deg_max)[0]
            assert closed.to_data() == literal.to_data(), (k, x_deg_max)
            assert closed.floors == literal.floors, (k, x_deg_max)


def test_framing_zero_with_a_cancelled_x_part():
    # The image of p_1 starts at x-degree 1, so at a = 2 the x part of
    # (1, 1) is empty under x-degree 1, and that of (1^5) under x-degree 4:
    # no terms, and the window of the loop.
    for a, mu, lam_max, x_deg_max in ((2, (1, 1), 10, 1), (2, (1, 1, 1, 1, 1), 5, 4)):
        closed = r_bullet_zero(a, mu, lam_max, x_deg_max).to_data()
        assert closed["terms"] == []
        assert closed == _framing_zero_loop(a, mu, lam_max, x_deg_max).to_data(), mu

