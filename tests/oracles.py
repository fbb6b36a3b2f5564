"""Independent brute-force oracles used only by the test suite.

The character oracle expands power sums into the monomial basis of
symmetric polynomials in d variables and solves the unitriangular Kostka
change of basis, avoiding the recursion the package itself uses.  The
colored-alphabet helpers expand power sums and Schur functions directly as
series in q and the color variables q_1 .. q_{a-1}, at the alphabet whose
letters are ``(prod_{j>l} q_j) * q^m`` for ``l`` in ``0..a-1`` and
``m >= 0``, by two routes: the character expansion and the dual
Jacobi-Trudi determinant.  The other oracles are exact Fraction-arithmetic
expansions of classical closed products.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from orbivertex.characters import chi
from orbivertex.partitions import check_partition, conjugate, partitions_of, z_aut
from orbivertex.series import Series, SeriesContext, VarSpec


def _exponent_partition(vec) -> tuple:
    return tuple(sorted((e for e in vec if e), reverse=True))


def powersum_monomial_coeffs(mu, d: int) -> dict:
    """Coefficients of p_mu on the monomial basis, in d variables.

    The coefficient of m_lambda is read off the sorted-descending
    exponent vector, which represents its orbit exactly once.
    """
    mu = check_partition(mu)
    terms = {(0,) * d: 1}
    for k in mu:
        new = {}
        for vec, c in terms.items():
            for i in range(d):
                lifted = list(vec)
                lifted[i] += k
                key = tuple(lifted)
                new[key] = new.get(key, 0) + c
        terms = new
    coeffs = {}
    for vec, c in terms.items():
        if list(vec) == sorted(vec, reverse=True):
            coeffs[_exponent_partition(vec)] = c
    return coeffs


def kostka_number(nu, lam) -> int:
    """Count semistandard tableaux of shape nu and content lam by direct
    row-by-row backtracking (weakly increasing rows, strict columns)."""
    nu = check_partition(nu)
    lam = tuple(lam)
    if sum(nu) != sum(lam):
        return 0
    rows = len(nu)

    def rec(row_idx, remaining, prev_row):
        if row_idx == rows:
            return 1 if not any(remaining) else 0
        width = nu[row_idx]
        count = 0

        def build(col, row_acc, rem):
            nonlocal count
            if col == width:
                count += rec(row_idx + 1, tuple(rem), row_acc)
                return
            lo = row_acc[col - 1] if col else 1
            if prev_row is not None:
                lo = max(lo, prev_row[col] + 1)
            for v in range(lo, len(rem) + 1):
                if rem[v - 1] == 0:
                    continue
                rem2 = list(rem)
                rem2[v - 1] -= 1
                build(col + 1, row_acc + (v,), rem2)

        build(0, (), list(remaining))
        return count

    return rec(0, lam, None)


def chi_oracle(nu, mu) -> int:
    """Character value solved from p_mu = sum_nu chi_nu(mu) s_nu.

    The Kostka matrix is unitriangular with respect to any order
    extending dominance, and descending lex order extends dominance, so
    back-substitution in that order is exact integer arithmetic.
    """
    nu = check_partition(nu)
    mu = check_partition(mu)
    d = sum(mu)
    if sum(nu) != d:
        raise ValueError("shape and class must have equal size")
    p_coeffs = powersum_monomial_coeffs(mu, d)
    order = sorted(partitions_of(d), reverse=True)
    solved = {}
    for shape in order:
        val = p_coeffs.get(shape, 0)
        for prev in order:
            if prev == shape:
                break
            val -= solved[prev] * kostka_number(prev, shape)
        solved[shape] = val
    return solved[nu]


def taylor_inverse_sin_ratio(order: int) -> list:
    """Coefficients of (y/2) / sin(y/2) through y^order, exact division."""
    n = order + 2
    ratio = [Fraction(0)] * (n + 1)
    for k in range(0, n + 1, 2):
        m = k // 2
        ratio[k] = Fraction((-1) ** m, math.factorial(2 * m + 1) * 4**m)
    inv = [Fraction(0)] * (n + 1)
    inv[0] = Fraction(1)
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += ratio[j] * inv[k - j]
        inv[k] = -acc
    return inv[: order + 1]


def plane_partition_counts(max_total: int) -> list:
    """Plane partition counts from the classical product formula
    prod_k (1 - q^k)^(-k), expanded with exact integer arithmetic."""
    coeffs = [0] * (max_total + 1)
    coeffs[0] = 1
    for k in range(1, max_total + 1):
        for _ in range(k):
            # Multiply by 1/(1 - q^k): running prefix sums with stride k.
            for n in range(k, max_total + 1):
                coeffs[n] += coeffs[n - k]
    return coeffs


def colored_context(a: int) -> SeriesContext:
    """Series context in q and the color variables q_1 .. q_{a-1}."""
    if a < 1:
        raise ValueError("modulus must be a positive integer")
    return SeriesContext([VarSpec("q")] + [VarSpec(f"q{l}") for l in range(1, a)])


def powersum_colored(ctx: SeriesContext, k: int, a: int, q_max: int, sign: int = 1) -> Series:
    """p_k at the colored alphabet, with q optionally negated (sign=-1)."""
    if k < 1:
        raise ValueError("power sum index must be positive")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    den = Series.one(ctx) - Series.monomial(ctx, {"q": k}, sign ** k)
    geom = den.restrict(maxes={"q": q_max}).invert()
    total = Series.zero(ctx)
    for l in range(a):
        prefix = {f"q{j}": k for j in range(l + 1, a)}
        total = total + Series.monomial(ctx, prefix, 1) * geom
    return total


def schur_at_colored(nu, a: int, q_max: int, sign: int = 1, ctx: SeriesContext | None = None) -> Series:
    """Schur function s_nu at the colored alphabet, through q^q_max.

    Computed from the character expansion into power sums.
    """
    nu = check_partition(nu)
    if ctx is None:
        ctx = colored_context(a)
    d = sum(nu)
    if d == 0:
        return Series.one(ctx)
    psums = {}
    total = Series.zero(ctx)
    for mu in partitions_of(d):
        c = Fraction(chi(nu, mu), z_aut(mu))
        if not c:
            continue
        prod = Series.one(ctx)
        for part in mu:
            if part not in psums:
                psums[part] = powersum_colored(ctx, part, a, q_max, sign)
            prod = prod * psums[part]
        total = total + prod * c
    return total


def schur_at_colored_jt(nu, a: int, q_max: int, sign: int = 1) -> Series:
    """Schur function at the colored alphabet via the dual Jacobi-Trudi
    determinant in elementary symmetric functions.  Independent route used
    to cross-check the character expansion."""
    nu = check_partition(nu)
    ctx = colored_context(a)
    d = sum(nu)
    if d == 0:
        return Series.one(ctx)
    conj = conjugate(nu)
    # Newton's identities: k e_k = sum_{i=1}^{k} (-1)^(i-1) p_i e_{k-i}.
    elem = [Series.one(ctx)]
    psums = {}
    for k in range(1, d + 1):
        acc = Series.zero(ctx)
        for i in range(1, k + 1):
            if i not in psums:
                psums[i] = powersum_colored(ctx, i, a, q_max, sign)
            acc = acc + psums[i] * elem[k - i] * Fraction((-1) ** (i - 1), 1)
        elem.append(acc / k)

    def ee(k: int) -> Series:
        if k < 0 or k > d:
            return Series.zero(ctx)
        return elem[k]

    n = len(conj)
    total = Series.zero(ctx)
    for perm in itertools.permutations(range(n)):
        sign_p = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign_p = -sign_p
        prod = Series.one(ctx)
        for i in range(n):
            prod = prod * ee(conj[i] - (i + 1) + (perm[i] + 1))
        total = total + prod * sign_p
    return total


__all__ = [
    "chi_oracle",
    "colored_context",
    "kostka_number",
    "powersum_monomial_coeffs",
    "plane_partition_counts",
    "powersum_colored",
    "schur_at_colored",
    "schur_at_colored_jt",
    "taylor_inverse_sin_ratio",
]
