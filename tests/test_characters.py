"""Symmetric group characters, and the colored-alphabet Schur oracles."""

from fractions import Fraction

import pytest

from orbivertex.characters import chi
from orbivertex.partitions import conjugate, partitions_of, z_aut

from oracles import (
    chi_oracle,
    colored_context,
    powersum_colored,
    schur_at_colored,
    schur_at_colored_jt,
)


def test_chi_matches_independent_oracle_through_degree_five():
    for d in range(1, 6):
        for nu in partitions_of(d):
            for mu in partitions_of(d):
                assert chi(nu, mu) == chi_oracle(nu, mu), (nu, mu)


def test_row_orthogonality():
    for d in range(1, 7):
        rows = partitions_of(d)
        for nu1 in rows:
            for nu2 in rows:
                total = sum(
                    Fraction(chi(nu1, mu) * chi(nu2, mu), z_aut(mu)) for mu in rows
                )
                assert total == (1 if nu1 == nu2 else 0)


def test_column_orthogonality():
    for d in range(1, 7):
        rows = partitions_of(d)
        for mu1 in rows:
            for mu2 in rows:
                total = sum(chi(nu, mu1) * chi(nu, mu2) for nu in rows)
                expected = z_aut(mu1) if mu1 == mu2 else 0
                assert total == expected


def test_conjugation_twists_by_sign():
    for d in range(1, 6):
        for nu in partitions_of(d):
            for mu in partitions_of(d):
                sign = (-1) ** (d - len(mu))
                assert chi(conjugate(nu), mu) == sign * chi(nu, mu)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        chi((2,), (1, 1, 1))


def test_powersum_colored_geometric():
    # At a = 1 the alphabet is q^0, q^1, ... so p_k evaluates to 1/(1-q^k).
    ctx = colored_context(1)
    p2 = powersum_colored(ctx, 2, 1, 8)
    for k in range(9):
        assert p2.coefficient({"q": k}) == (1 if k % 2 == 0 else 0)


def test_schur_routes_agree():
    for a in (1, 2):
        for d in range(1, 5):
            for nu in partitions_of(d):
                direct = schur_at_colored(nu, a, 6)
                jacobi_trudi = schur_at_colored_jt(nu, a, 6)
                assert direct == jacobi_trudi, (a, nu)


def test_schur_hook_content_specialization():
    # s_nu at 1, q, q^2, ... equals q^{n(nu)} / prod (1 - q^{hook}).
    from orbivertex.partitions import hooks

    nu = (2, 1)
    series = schur_at_colored(nu, 1, 8)
    n_nu = sum(i * nu[i] for i in range(len(nu)))
    inv = {0: Fraction(1)}
    coeffs = [Fraction(0)] * 9
    coeffs[0] = Fraction(1)
    for h in hooks(nu):
        for n in range(h, 9):
            coeffs[n] += coeffs[n - h]
    for k in range(9 - n_nu):
        assert series.coefficient({"q": k + n_nu}) == coeffs[k]
    for k in range(n_nu):
        assert series.coefficient({"q": k}) == 0
