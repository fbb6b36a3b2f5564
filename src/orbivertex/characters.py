"""Symmetric group characters, computed by the border-strip recursion on
beta numbers."""

from __future__ import annotations

from functools import lru_cache

from .partitions import check_partition


@lru_cache(maxsize=None)
def _chi_from_beta(beta: tuple, mu: tuple) -> int:
    # beta is a sorted tuple of distinct beta numbers, mu the remaining
    # cycle lengths (weakly decreasing).  Each step removes a border strip
    # of length mu[0] by lowering one beta number.
    if not mu:
        return 1
    t = mu[0]
    rest = mu[1:]
    present = set(beta)
    total = 0
    for idx, b in enumerate(beta):
        nb = b - t
        if nb < 0 or nb in present:
            continue
        # Sign: parity of the number of beta entries strictly between nb and b.
        crossings = sum(1 for c in beta if nb < c < b)
        new_beta = tuple(sorted(present - {b} | {nb}))
        term = _chi_from_beta(new_beta, rest)
        if term:
            total += (-1) ** crossings * term
    return total


def chi(nu, mu) -> int:
    """Irreducible character of the symmetric group: row nu, class mu."""
    nu = check_partition(nu)
    mu = check_partition(mu)
    if sum(nu) != sum(mu):
        raise ValueError("character requires a row and a class of equal size")
    n = len(nu)
    beta = tuple(sorted(nu[i] + (n - 1 - i) for i in range(n)))
    return _chi_from_beta(beta, mu)

