"""Local invariant blocks: caps, gluing algebra, serialization."""

import json
from fractions import Fraction

import pytest

from orbivertex import hurwitz, verify
from orbivertex.dt_vertex import trig_context
from orbivertex.exactnum import CycloNum, field_for
from orbivertex.gw_vertex import g_bullet_mu, transport_back
from orbivertex.hurwitz import PhiKernel
from orbivertex.localgw import (
    LocalBlock,
    block_from_data,
    block_to_data,
    cap_family,
    cap_level0,
    cap_series,
    emit_table,
    glue,
    identity_block,
    local_context,
    run_glue_plan,
    tube,
)
from orbivertex.partitions import partitions_of, z_aut
from orbivertex.series import PrecisionError, Series, SeriesContext, VarSpec

from oracles import kernel_series_by_exponentials


def test_cap_matches_framed_series_at_a1():
    i_unit = field_for(1).imaginary_unit()
    for mu in ((1,), (2,), (1, 1), (2, 1)):
        d = sum(mu)
        cap = cap_series(1, mu, lam_max=4)
        base = g_bullet_mu(1, mu, lam_max=4)
        scalar = i_unit ** (d - len(mu))
        shifted = {(key[0] + d,): c * scalar for key, c in base.terms.items()}
        assert shifted == dict(cap.terms), mu


def test_empty_profile_cap_is_one():
    cap = cap_series(2, ())
    assert cap.natural_items() == [((0, 0), Fraction(1))]


def test_closed_self_gluing_degree_one():
    left = cap_level0(1, (1,), lam_max=7)
    closed = glue(left, left, 1)
    assert closed.slots == 0
    series = closed.data[()]
    # lam^2 / (4 sin^2(lam/2)) = 1 + lam^2/12 + lam^4/240 + lam^6/6048 + ...
    assert series.coefficient({"lam": 0}) == 1
    assert series.coefficient({"lam": 2}) == Fraction(1, 12)
    assert series.coefficient({"lam": 4}) == Fraction(1, 240)
    assert series.coefficient({"lam": 6}) == Fraction(1, 6048)


def test_identity_kernel_is_two_sided():
    for a in (1, 2):
        for d in (1, 2, 3):
            fam = cap_family(a, d, lam_max=3, x_deg_max=2)
            ident = identity_block(a, d)
            assert glue(fam, ident, d) == fam, (a, d)
            assert glue(ident, fam, d) == fam, (a, d)


def test_opposite_tubes_glue_to_the_identity_through_the_window():
    # Phi(t) composed with Phi(-t) is Phi(0) = delta/z: through lam^fill the
    # diagonal stores exactly 1/z_mu and the off-diagonal nothing.
    fill = 4
    for a in (1, 2):
        ctx = trig_context(a)
        i_unit = field_for(a).imaginary_unit()
        for d in (1, 2, 3):
            for tau in (1, 2):
                forth = tube(ctx, d, "lam", i_unit * tau, fill)
                back = tube(ctx, d, "lam", -i_unit * tau, fill)
                glued = glue(forth, back, d)
                assert glued.slots == 2
                for nu in partitions_of(d):
                    for mu in partitions_of(d):
                        entry = glued.data[(nu, mu)].require_window(maxes={"lam": fill})
                        want = {(0,) * ctx.n: Fraction(1, z_aut(mu))} if nu == mu else {}
                        assert entry.terms == want, (a, d, tau, nu, mu)


def test_identity_block_is_the_zero_argument_tube():
    for a in (1, 2, 3):
        ctx = local_context(a)
        for d in (1, 2, 3, 4):
            diagonal = LocalBlock(
                d=d,
                slots=2,
                data={(mu, mu): Series.one(ctx) / z_aut(mu) for mu in partitions_of(d)},
            )
            ident = block_to_data(identity_block(a, d))
            assert ident == block_to_data(tube(ctx, d, "lam", 0, 0)), (a, d)
            assert ident == block_to_data(diagonal), (a, d)


def test_tube_column_keeps_one_profile():
    ctx = trig_context(1)
    full = tube(ctx, 3, "lam", field_for(1).imaginary_unit(), 3)
    column = tube(ctx, 3, "lam", field_for(1).imaginary_unit(), 3, (2, 1))
    assert column.data == {k: s for k, s in full.data.items() if k[1] == (2, 1)}


def test_gluing_is_associative():
    for a in (1, 2):
        for d in (1, 2):
            fam = cap_family(a, d, lam_max=3, x_deg_max=2)
            two = LocalBlock(
                d=d,
                a_list=(a, a),
                slots=2,
                data={
                    (m1, m2): fam.data[(m1,)] * fam.data[(m2,)]
                    for m1 in partitions_of(d)
                    for m2 in partitions_of(d)
                },
            )
            lhs = glue(glue(fam, two, d), fam, d)
            rhs = glue(fam, glue(two, fam, d), d)
            assert lhs == rhs, (a, d)


def test_cap_lambda_exponents_are_integral_at_a2():
    for mu in ((1,), (2,), (1, 1)):
        cap = cap_series(2, mu, lam_max=4, x_deg_max=3)
        for exponents, _ in cap.natural_items():
            assert exponents[0].denominator == 1, (mu, exponents)


def test_emit_csv_layout():
    block = cap_level0(1, (1,), lam_max=3)
    text = emit_table(block)
    lines = text.splitlines()
    assert lines[0] == "boundary,d,b,gamma,value"
    assert lines[1] == "(1),1,0/1,,1/1"
    closed = glue(block, block, 1)
    closed_lines = emit_table(closed).splitlines()
    assert closed_lines[0] == "d,b,gamma,value"


def test_emit_empty_block_is_header_only():
    empty = LocalBlock(d=1, a_list=(), slots=0, data={})
    assert emit_table(empty) == "d,b,gamma,value\n"


def test_json_round_trip():
    fam = cap_family(2, 2, lam_max=3, x_deg_max=2)
    text = json.dumps(block_to_data(fam), sort_keys=True, indent=2)
    back = block_from_data(json.loads(text))
    assert back == fam
    assert block_to_data(back) == block_to_data(fam)


def test_glue_plan_chain():
    plan = {
        "d": 1,
        "blocks": [
            {"kind": "cap", "a": 1, "mu": [1]},
            {"kind": "identity", "a": 1, "d": 1},
            {"kind": "cap", "a": 1, "mu": [1]},
        ],
    }
    chained = run_glue_plan(plan, lam_max=7)
    cap = cap_level0(1, (1,), lam_max=7)
    assert chained == glue(cap, cap, 1)


def test_glue_degree_mismatch_rejected():
    cap1 = cap_level0(1, (1,), lam_max=3)
    cap2 = cap_level0(1, (2,), lam_max=3)
    with pytest.raises(ValueError):
        glue(cap1, cap2, 2)
    with pytest.raises(ValueError):
        glue(cap1, cap1, 2)


def test_blocks_compare_field_by_field():
    series = cap_series(1, (1,), lam_max=2)
    block = LocalBlock(d=1, a_list=(1,), data={((1,),): series})
    assert block == LocalBlock(1, (1,), 1, {((1,),): series})
    assert block != LocalBlock(d=1, a_list=(2,), data={((1,),): series})
    assert LocalBlock(d=1).data == {} and LocalBlock(d=1).slots == 1
    assert repr(LocalBlock(d=2, slots=0)) == "LocalBlock(d=2, a_list=(), slots=0, data={})"
    with pytest.raises(TypeError):
        hash(block)


def test_block_validation():
    with pytest.raises(ValueError):
        LocalBlock(d=2, a_list=(1,), slots=1, data={((1,),): None})
    with pytest.raises(ValueError):
        run_glue_plan({"d": 1, "blocks": []})
    with pytest.raises(ValueError):
        run_glue_plan({"d": 1, "blocks": [{"kind": "mystery"}]})


def _kernel_scales(a):
    field = field_for(a)
    i_unit = field.imaginary_unit()
    return (0, 2, -2, Fraction(1, 3), i_unit, -2 * i_unit, field.root_of_unity(4 * a))


def _data_and_types(series):
    return series.to_data(), sorted((key, type(c).__name__) for key, c in series.terms.items())


@pytest.mark.parametrize("a", (1, 2, 3, 4))
def test_tube_entries_match_one_exponential_per_eigenvalue(a):
    # Every kernel read from its moments, alone or against the block's
    # shared powers of the scale, is the sum of one exponential per
    # eigenvalue, byte for byte and coefficient type for coefficient type:
    # the full tube, each single column, and the identity block.
    ctx = local_context(a)
    for d in range(1, 5):
        for scale in _kernel_scales(a):
            for fill in (-1, 0, 1, 5, 9):
                want = {}
                for nu in partitions_of(d):
                    for mu in partitions_of(d):
                        kernel = PhiKernel(nu, mu)
                        series = kernel_series_by_exponentials(kernel, ctx, "lam", scale, {"lam": fill})
                        if not series.is_exact_zero():
                            want[(nu, mu)] = _data_and_types(series)
                        assert _data_and_types(kernel.series(ctx, "lam", scale, {"lam": fill})) == \
                            _data_and_types(series), (d, scale, fill, nu, mu)
                full = tube(ctx, d, "lam", scale, fill)
                assert {key: _data_and_types(s) for key, s in full.data.items()} == want, (d, scale, fill)
                for mu in partitions_of(d):
                    column = tube(ctx, d, "lam", scale, fill, mu)
                    assert {key: _data_and_types(s) for key, s in column.data.items()} == \
                        {key: v for key, v in want.items() if key[1] == mu}, (d, scale, fill, mu)
        ident = identity_block(a, d)
        assert {key: _data_and_types(s) for key, s in ident.data.items()} == {
            (mu, mu): _data_and_types(kernel_series_by_exponentials(PhiKernel(mu, mu), ctx, "lam", 0, {"lam": 0}))
            for mu in partitions_of(d)
        }, d


def test_a_framing_transport_builds_each_kernel_once(monkeypatch):
    # transport_back at d = 3 glues the columns of r_bullet_tau for the three
    # profiles and one column of its own: 12 kernels asked for, over the 9
    # profile pairs of size 3, each built once.
    built = []
    real = PhiKernel.__init__

    def counted(self, nu, mu):
        built.append((nu, mu))
        real(self, nu, mu)

    monkeypatch.setattr(PhiKernel, "__init__", counted)
    hurwitz._phi_kernel.cache_clear()
    transport_back(2, (2, 1), 1, lam_max=2, x_deg_max=1)
    assert sorted(built) == sorted((nu, mu) for nu in partitions_of(3) for mu in partitions_of(3))
    assert hurwitz._phi_kernel.cache_info().hits == 3


def test_the_phi_suite_builds_each_kernel_once(monkeypatch):
    # The suite reads every profile pair of sizes 1..3 at zero and again in
    # the composition check, whose tubes read them once more: 14 pairs,
    # each built once.
    built = []
    real = PhiKernel.__init__

    def counted(self, nu, mu):
        built.append((nu, mu))
        real(self, nu, mu)

    monkeypatch.setattr(PhiKernel, "__init__", counted)
    hurwitz._phi_kernel.cache_clear()
    assert all(check["passed"] for check in verify.phi(d=3, lambda_order=2))
    pairs = [(nu, mu) for size in (1, 2, 3) for nu in partitions_of(size) for mu in partitions_of(size)]
    assert len(pairs) == 14
    assert sorted(built) == sorted(pairs)


def test_kernel_without_a_finite_window_in_its_variable_is_refused():
    ctx = SeriesContext([VarSpec("t"), VarSpec("u")])
    for maxes in ({}, {"u": 3}):
        with pytest.raises(PrecisionError) as err:
            PhiKernel((2,), (1, 1)).series(ctx, "t", 1, maxes)
        assert str(err.value) == "exponential needs a finite window in some occupied direction"
        # With no eigenvalue but zero, or at scale zero, there is nothing to bound.
        assert PhiKernel((1,), (1,)).series(ctx, "t", 1, maxes).tops == (None, None)
        assert PhiKernel((2,), (2,)).series(ctx, "t", 0, maxes).tops == (None, None)


def test_kernels_without_a_rate_are_exact_constants():
    # At d = 1 and at scale zero every kernel is the constant delta/z_mu,
    # with an open window however far the tube is filled.
    i_unit = field_for(2).imaginary_unit()
    ctx = local_context(2)
    one = tube(ctx, 1, "lam", i_unit, 5)
    assert list(one.data) == [((1,), (1,))]
    for block in (one, tube(ctx, 3, "lam", 0, 5)):
        for (nu, mu), series in block.data.items():
            assert nu == mu
            assert all(t is None for t in series.tops)
            assert series.natural_items() == [((0, 0), Fraction(1, z_aut(mu)))]


def test_constant_kernel_coefficient_stays_rational_at_a_cyclotomic_scale():
    i_unit = field_for(3).imaginary_unit()
    block = tube(local_context(3), 3, "lam", 2 * i_unit, 4)
    zero = (0, 0, 0)
    for mu in partitions_of(3):
        series = block.data[(mu, mu)]
        assert type(series.terms[zero]) is Fraction
        assert any(type(c) is CycloNum for c in series.terms.values())
