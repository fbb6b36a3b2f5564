"""Transport kernels and weighted factorization counts."""

from fractions import Fraction

import pytest

from orbivertex import hurwitz, verify
from orbivertex.hurwitz import (
    ORACLE_TUPLE_LIMIT,
    PhiKernel,
    burnside_value,
    factorization_counts,
    factorization_oracle,
    oracle_tuple_count,
    simple_branch_count,
)
from orbivertex.partitions import partitions_of, z_aut
from orbivertex.series import PrecisionError, SeriesContext, VarSpec
from orbivertex.verify import phi_composition_check


def test_kernel_at_zero_is_diagonal():
    for d in range(1, 7):
        for nu in partitions_of(d):
            for mu in partitions_of(d):
                expected = Fraction(1, z_aut(nu)) if nu == mu else Fraction(0)
                assert PhiKernel(nu, mu).at_zero() == expected


def test_composition_refuses_an_empty_window():
    # The (1,) kernel is the constant 1, so order -1 lies below its floor.
    with pytest.raises(PrecisionError):
        phi_composition_check((1,), (1,), order=-1)


def test_factorization_counts_cover_every_cycle_type():
    # One pass gives the oracle's value at every mu, and the counts sum to
    # all (sigma, tau_1, ..., tau_r) tuples over d!.
    import math

    for d in range(1, 5):
        for nu in partitions_of(d):
            for r in range(3):
                counts = factorization_counts(nu, r)
                assert sum(counts.values()) == Fraction(oracle_tuple_count(nu, r), math.factorial(d))
                for mu in partitions_of(d):
                    chi_euler = len(nu) + len(mu) - r
                    assert counts.get(mu, 0) == factorization_oracle(chi_euler, nu, mu), (nu, mu, r)


def test_kernel_requires_equal_sizes():
    with pytest.raises(ValueError):
        PhiKernel((2,), (1, 1, 1))


def test_composition_two_variable_identity():
    for d in range(1, 5):
        for nu in partitions_of(d):
            for mu in partitions_of(d):
                assert phi_composition_check(nu, mu, order=6), (nu, mu)


def test_weighted_moments_are_factorization_counts():
    # r transpositions moving the class of nu to the class of mu.
    for d in range(1, 4):
        for nu in partitions_of(d):
            for mu in partitions_of(d):
                for r in range(5):
                    chi_euler = len(nu) + len(mu) - r
                    assert burnside_value(chi_euler, nu, mu) == factorization_oracle(
                        chi_euler, nu, mu
                    )


def test_spot_values():
    assert burnside_value(2, (1,), (1,)) == 1
    assert burnside_value(0, (2,), (2,)) == Fraction(1, 2)


def test_simple_branch_count():
    assert simple_branch_count(2, (1,), (1,)) == 0
    assert simple_branch_count(0, (2,), (2,)) == 2
    with pytest.raises(ValueError):
        burnside_value(4, (1,), (1,))


def test_kernel_series_expansion():
    ctx = SeriesContext([VarSpec("t")])
    kernel = PhiKernel((2,), (1, 1))
    series = kernel.series(ctx, "t", 1, maxes={"t": 6})
    for r in range(7):
        import math

        want = kernel.weighted_moment(r) / math.factorial(r)
        assert series.coefficient({"t": r}) == want


def test_oracle_guard():
    with pytest.raises(ValueError):
        factorization_oracle(2, (5,), (5,))


def test_oracle_tuple_count():
    # (number of sigma of cycle type nu) * C(d, 2)^r, against the sigmas
    # counted by brute force.
    import itertools

    for d in range(1, 5):
        for nu in partitions_of(d):
            sigmas = sum(
                1 for p in itertools.permutations(range(d)) if hurwitz._cycle_type(p) == nu
            )
            for r in range(3):
                assert oracle_tuple_count(nu, r) == sigmas * (d * (d - 1) // 2) ** r
    # The largest run in use, burnside at d = 4 with its default r = 4, fits.
    assert max(oracle_tuple_count(nu, 4) for nu in partitions_of(4)) == 8 * 6**4
    assert 8 * 6**4 <= ORACLE_TUPLE_LIMIT
    assert oracle_tuple_count((2, 2), 10) > ORACLE_TUPLE_LIMIT


def test_oracle_refuses_over_budget_before_enumerating(monkeypatch):
    # (2,1) with r = 2 enumerates 3 * 3^2 = 27 tuples; a limit of 26 refuses it.
    monkeypatch.setattr(hurwitz, "ORACLE_TUPLE_LIMIT", 26)
    with pytest.raises(ValueError, match=r"r=2, d=3 would enumerate 27 tuples"):
        factorization_oracle(2, (2, 1), (2, 1))
    assert factorization_oracle(3, (2, 1), (2, 1)) == burnside_value(3, (2, 1), (2, 1))

    def enumerate_nothing(*args):
        raise AssertionError("the burnside suite enumerated before refusing")

    monkeypatch.setattr(verify, "factorization_counts", enumerate_nothing)
    with pytest.raises(ValueError, match=r"r=2, d=3 would enumerate 27 tuples"):
        verify.burnside(d=3, r=2)
