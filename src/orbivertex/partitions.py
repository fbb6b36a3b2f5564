"""Integer partitions, their standard statistics, and color vectors."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

Partition = tuple


def check_partition(mu) -> Partition:
    mu = tuple(mu)
    for i, part in enumerate(mu):
        if not isinstance(part, int) or part < 1:
            raise ValueError(f"partition parts must be positive integers, got {mu}")
        if i and mu[i - 1] < part:
            raise ValueError(f"partition parts must be weakly decreasing, got {mu}")
    return mu


@lru_cache(maxsize=None)
def partitions_of(d: int) -> tuple:
    """All partitions of d, in deterministic reverse lexicographic order."""
    if d < 0:
        raise ValueError("cannot partition a negative integer")
    if d == 0:
        return ((),)
    out = []

    def descend(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(largest, remaining), 0, -1):
            prefix.append(part)
            descend(remaining - part, part, prefix)
            prefix.pop()

    descend(d, d, [])
    return tuple(out)


def partition_counts():
    """p(0), p(1), p(2), ... without listing any partition, by Euler's
    pentagonal number recurrence."""
    p = [1]
    while True:
        yield p[-1]
        n = len(p)
        pentagonal = ((k * (3 * k + s) // 2, (-1) ** (k + 1)) for k in range(1, n + 1) for s in (-1, 1))
        p.append(sum(sign * p[n - g] for g, sign in pentagonal if g <= n))


def conjugate(mu) -> Partition:
    mu = check_partition(mu)
    if not mu:
        return ()
    return tuple(sum(1 for part in mu if part > j) for j in range(mu[0]))


def boxes(mu):
    """Cells (i, j) of the diagram, zero-based, row index first."""
    for i, part in enumerate(mu):
        for j in range(part):
            yield (i, j)


def hooks(mu) -> tuple:
    """Hook lengths of all cells of the diagram."""
    mu = check_partition(mu)
    conj = conjugate(mu)
    return tuple(mu[i] - j + conj[j] - i - 1 for i, j in boxes(mu))


def z_aut(mu) -> int:
    """Order of the centralizer of a permutation of cycle type mu: the
    product of the parts times the permutations of equal parts."""
    mu = check_partition(mu)
    return math.prod(mu) * aut_gamma(mu)


def kappa(mu) -> int:
    """Twice the total content of the diagram: sum of mu_i*(mu_i - 2i + 1)."""
    mu = check_partition(mu)
    return sum(part * (part - 2 * i - 1) for i, part in enumerate(mu))


def colored_box_count(nu, k: int, n: int) -> int:
    """Sum over cells of floor((c + k)/n), with c the column index."""
    if n < 1:
        raise ValueError("modulus must be a positive integer")
    return sum((j + k) // n for _, j in boxes(nu))


def gamma_vectors(a: int, max_len: int) -> tuple:
    """All weakly decreasing tuples over {1, ..., a-1} of length at most max_len."""
    if a < 1:
        raise ValueError("modulus must be a positive integer")
    # A negative max_len still admits the empty tuple.
    lengths = range(max(max_len, 0) + 1)
    out = (g for n in lengths for g in combinations_with_replacement(range(a - 1, 0, -1), n))
    return tuple(sorted(out, key=lambda g: (len(g), g)))


def aut_gamma(gamma) -> int:
    """Order of the automorphism group of a color multiset: the product of
    factorials of multiplicities, accumulated by running count."""
    result = 1
    run = 0
    prev = None
    for v in gamma:
        if v == prev:
            run += 1
        else:
            run = 1
            prev = v
        result *= run
    return result
