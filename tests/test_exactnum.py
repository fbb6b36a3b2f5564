"""Exact cyclotomic arithmetic against independent algebra."""

from fractions import Fraction

import pytest
import sympy

from orbivertex.dt_vertex import r_bullet_zero
from orbivertex.exactnum import CycloNum, cyclo_field, cyclotomic_polynomial, field_for
from orbivertex.series import coeff_from_data, coeff_to_data


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.symbols("x")
    for n in range(1, 41):
        ours = cyclotomic_polynomial(n)  # ascending, constant term first
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert list(ours) == [int(c) for c in reversed(theirs)]


def test_root_of_unity_order_and_powers():
    field = cyclo_field(24)
    z = field.root_of_unity(24)
    acc = field.from_fraction(1)
    seen_one = []
    for k in range(1, 25):
        acc = acc * z
        if acc == field.from_fraction(1):
            seen_one.append(k)
    assert seen_one == [24]
    assert field.root_of_unity(24, 25) == z
    assert field.root_of_unity(8) == z**3
    assert field.root_of_unity(3) == z**8


def test_imaginary_unit_squares_to_minus_one():
    for a in (1, 2, 3):
        field = field_for(a)
        i = field.imaginary_unit()
        assert i * i == field.from_fraction(-1)


def test_field_for_contains_needed_roots():
    # Q(zeta_4a): every root the code takes has order 4, a, 2a or 4a.
    for a, degree in zip(range(1, 6), (2, 4, 4, 8, 8)):
        field = field_for(a)
        assert (field.order, field.degree) == (4 * a, degree)
        for order in (4, a, 2 * a, 4 * a):
            field.root_of_unity(order)


def test_coefficient_serialized_in_the_former_field_still_loads():
    # `gw --a 3 --mu 2 --lambda-order 0 --x-order 2` once wrote its
    # coefficients in Q(zeta_36); that data must load and equal the value
    # now written in Q(zeta_12) once both sit in Q(zeta_36).
    old = coeff_from_data({"order": 36, "coeffs": ["0/1"] * 9 + ["-1/2", "0/1", "0/1"]})
    new = r_bullet_zero(3, (2,), lam_max=0, x_deg_max=2).coefficient({"lam": -1, "x2": 1})
    assert (old.field.order, new.field.order) == (36, 12)
    assert not new.is_rational()
    big = cyclo_field(36)
    assert old.embed(big) == new.embed(big) == big.imaginary_unit() * Fraction(-1, 2)
    assert coeff_from_data(coeff_to_data(new)) == new


def test_inverse_and_division():
    field = cyclo_field(8)
    z = field.root_of_unity(8)
    v = field.from_fraction(Fraction(3, 7)) + z - z ** 3
    assert v * v.inverse() == field.from_fraction(1)
    assert (v / v) == field.from_fraction(1)
    with pytest.raises(ZeroDivisionError):
        field.from_fraction(0).inverse()


@pytest.mark.parametrize("order", [8, 12])
def test_division_by_a_rational_matches_the_inverse(order):
    field = cyclo_field(order)
    z = field.root_of_unity(order)
    x = field.from_fraction(Fraction(5, 3)) + z * 2 - z**3 * Fraction(1, 4)
    for q in (1, 6, -1, -6, Fraction(7, 5), Fraction(-2, 9)):
        assert x / q == x * field.from_fraction(q).inverse(), q
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        x / Fraction(0)


def test_rational_detection_and_embedding():
    field = cyclo_field(8)
    z = field.root_of_unity(8)
    v = z + z.inverse()  # 2 cos(pi/4) = sqrt(2), not rational
    assert not v.is_rational()
    assert (v * v).is_rational()
    assert (v * v).as_fraction() == 2
    small = cyclo_field(4)
    big = cyclo_field(8)
    i_small = small.imaginary_unit()
    assert i_small.embed(big) == big.imaginary_unit()


def test_sum_of_all_roots_vanishes():
    field = cyclo_field(12)
    total = field.from_fraction(0)
    for k in range(12):
        total = total + field.root_of_unity(12, k)
    assert total.is_zero()


def test_mixed_arithmetic_with_fractions():
    field = cyclo_field(4)
    i = field.imaginary_unit()
    v = Fraction(1, 2) + i * Fraction(1, 3)
    w = v - Fraction(1, 2)
    assert w == i * Fraction(1, 3)
    assert (v * 6) == field.from_fraction(3) + i * 2
