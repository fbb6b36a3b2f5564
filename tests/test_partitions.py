"""Partition combinatorics and colored statistics."""

import math
from fractions import Fraction

import pytest

from orbivertex.partitions import (
    aut_gamma,
    check_partition,
    colored_box_count,
    conjugate,
    gamma_vectors,
    hooks,
    kappa,
    partitions_of,
    z_aut,
)


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert [len(partitions_of(d)) for d in range(10)] == expected


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))
    assert check_partition([3, 1]) == (3, 1)


def test_conjugate_involution_and_size():
    for d in range(1, 8):
        for mu in partitions_of(d):
            assert conjugate(conjugate(mu)) == mu
            assert sum(conjugate(mu)) == d


def test_hooks_product_gives_dimension():
    # dim(nu) = d! / prod hooks; dimensions of S_4 irreps are 1,3,2,3,1.
    dims = {}
    for nu in partitions_of(4):
        dims[nu] = math.factorial(4) // math.prod(hooks(nu))
    assert sorted(dims.values()) == [1, 1, 2, 3, 3]


def test_z_aut_class_equation():
    for d in range(1, 8):
        total = sum(Fraction(1, z_aut(mu)) for mu in partitions_of(d))
        assert total == 1


def test_kappa_antisymmetric_under_conjugation():
    for d in range(1, 7):
        for mu in partitions_of(d):
            assert kappa(conjugate(mu)) == -kappa(mu)
    assert kappa((2,)) == 2
    assert kappa((2, 1)) == 0


def test_colored_box_count_floor_sums():
    # Summing the floor statistic over all shifts recovers the column sum:
    # sum_k floor((c + k)/a) = c for k = 0 .. a-1.
    for a in (1, 2, 3):
        for nu in partitions_of(5):
            col_sum = sum(j for i in range(len(nu)) for j in range(nu[i]))
            assert sum(colored_box_count(nu, k, a) for k in range(a)) == col_sum
    # Shape (3,): columns 0,1,2 give floors 0,0,1 at shift 0 and 0,1,1 at shift 1.
    assert colored_box_count((3,), 0, 2) == 1
    assert colored_box_count((3,), 1, 2) == 2
    assert colored_box_count((3,), 0, 1) == 3


def test_gamma_vectors_enumeration():
    # Multisets of colors from {1} with at most 3 entries: (), (1), (1,1), (1,1,1).
    assert len(gamma_vectors(2, 3)) == 4
    assert gamma_vectors(1, 5) == ((),)
    vectors = gamma_vectors(3, 2)
    assert (1, 2) in vectors or (2, 1) in vectors
    assert len(vectors) == 6


def test_aut_gamma_orders():
    assert aut_gamma(()) == 1
    assert aut_gamma((1, 1)) == 2
    assert aut_gamma((1, 1, 2)) == 2
    assert aut_gamma((1, 2)) == 1
