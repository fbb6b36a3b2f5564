"""Transport kernels for double Hurwitz numbers of the cylinder.

The kernel between two ramification profiles nu and mu of equal size is

    Phi(t) = sum over eta of chi_eta(nu) chi_eta(mu) / (z_nu z_mu) * exp(kappa_eta t / 2),

stored exactly as a map from the (even) integers kappa_eta to rational
coefficients.  At t = 0 it reduces to delta_{nu,mu}/z_nu, composing two
kernels in t adds their arguments, and the expansion coefficients in t
weighted by powers of kappa/2 count factorizations into transpositions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .characters import chi
from .partitions import check_partition, kappa, partitions_of, z_aut
from .series import Series, SeriesContext, VarSpec

ORACLE_DEGREE_LIMIT = 4


class PhiKernel:
    """Exact spectral data of the transport kernel for one profile pair."""

    def __init__(self, nu, mu):
        nu = check_partition(nu)
        mu = check_partition(mu)
        if sum(nu) != sum(mu):
            raise ValueError("kernel profiles must have equal size")
        self.nu = nu
        self.mu = mu
        self.degree = sum(nu)
        weight = Fraction(1, z_aut(nu) * z_aut(mu))
        pairs = {}
        for eta in partitions_of(self.degree):
            c = chi(eta, nu) * chi(eta, mu)
            if c:
                k = kappa(eta)
                pairs[k] = pairs.get(k, Fraction(0)) + c * weight
        self.pairs = {k: c for k, c in pairs.items() if c}

    def at_zero(self) -> Fraction:
        """Exact value of the kernel at argument zero."""
        return sum(self.pairs.values(), Fraction(0))

    def weighted_moment(self, r: int) -> Fraction:
        """Sum of (kappa/2)^r against the spectral coefficients."""
        if r < 0:
            raise ValueError("moment order must be nonnegative")
        total = Fraction(0)
        for k, c in self.pairs.items():
            total += Fraction(k, 2) ** r * c
        return total

    def series(self, ctx: SeriesContext, var: str, scale, maxes) -> Series:
        """The kernel as a series in one variable: sum of coefficients times
        exp(scale * kappa/2 * var), filled through the given window."""
        total = Series.zero(ctx)
        for k, c in self.pairs.items():
            if k == 0:
                total = total + Series.monomial(ctx, {}, c)
                continue
            coeff = scale * Fraction(k, 2)
            total = total + c * Series.exp_monomial(ctx, {var: 1}, coeff, maxes=maxes)
        if not total.terms:
            return total
        # Exact through the window on one axis, so nothing lies below the
        # lowest stored term (off-diagonal kernels vanish at argument zero).
        floors = tuple(min(k[i] for k in total.terms) for i in range(ctx.n))
        return Series(ctx, total.terms, floors, total.maxes, total.cap_bounds)


def burnside_value(chi_euler: int, nu, mu) -> Fraction:
    """Weighted count of transitive-or-not factorizations: the coefficient
    extracted from the kernel for a cover of Euler characteristic chi_euler
    branched over nu and mu, with all other branching simple."""
    nu = check_partition(nu)
    mu = check_partition(mu)
    r = -chi_euler + len(nu) + len(mu)
    if r < 0:
        raise ValueError("no simple branch points for this Euler characteristic")
    return PhiKernel(nu, mu).weighted_moment(r)


def simple_branch_count(chi_euler: int, nu, mu) -> int:
    """Number of simple branch points for the given Euler characteristic."""
    return -chi_euler + len(check_partition(nu)) + len(check_partition(mu))


def _cycle_type(perm: tuple) -> tuple:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        cycles.append(length)
    return tuple(sorted(cycles, reverse=True))


def factorization_oracle(chi_euler: int, nu, mu) -> Fraction:
    """Brute-force check value for :func:`burnside_value`.

    Counts tuples (sigma, tau_1, ..., tau_r) with sigma of cycle type nu,
    each tau_i a transposition, and the product landing in cycle type mu,
    divided by d!.  Exhaustive over the symmetric group, so guarded to
    degrees up to ORACLE_DEGREE_LIMIT.
    """
    nu = check_partition(nu)
    mu = check_partition(mu)
    d = sum(nu)
    if sum(mu) != d:
        raise ValueError("profiles must have equal size")
    if d > ORACLE_DEGREE_LIMIT:
        raise ValueError(f"factorization oracle is limited to degree {ORACLE_DEGREE_LIMIT}")
    r = simple_branch_count(chi_euler, nu, mu)
    if r < 0:
        raise ValueError("no simple branch points for this Euler characteristic")
    letters = range(d)
    sigmas = [p for p in itertools.permutations(letters) if _cycle_type(p) == nu]
    transpositions = []
    for i, j in itertools.combinations(letters, 2):
        t = list(letters)
        t[i], t[j] = t[j], t[i]
        transpositions.append(tuple(t))
    count = 0
    for sigma in sigmas:
        for taus in itertools.product(transpositions, repeat=r):
            prod = sigma
            for t in taus:
                prod = tuple(prod[t[i]] for i in letters)
            if _cycle_type(prod) == mu:
                count += 1
    return Fraction(count, math.factorial(d))


def phi_composition_check(nu, mu, order: int = 6) -> bool:
    """Kernel composition as an exact two-variable series identity:
    the kernel at t1 + t2 equals the z-weighted convolution over middle
    profiles of kernels at t1 and t2, through the given joint order."""
    nu = check_partition(nu)
    mu = check_partition(mu)
    ctx = SeriesContext([VarSpec("t1"), VarSpec("t2")])
    maxes = {"t1": order, "t2": order}
    lhs = Series.zero(ctx)
    for k, c in PhiKernel(nu, mu).pairs.items():
        piece = Series.exp_monomial(ctx, {"t1": 1}, Fraction(k, 2), maxes=maxes)
        piece = piece * Series.exp_monomial(ctx, {"t2": 1}, Fraction(k, 2), maxes=maxes)
        lhs = lhs + c * piece
    rhs = Series.zero(ctx)
    for rho in partitions_of(sum(nu)):
        left = PhiKernel(nu, rho).series(ctx, "t1", 1, maxes=maxes)
        right = PhiKernel(rho, mu).series(ctx, "t2", 1, maxes=maxes)
        rhs = rhs + z_aut(rho) * (left * right)
    return lhs == rhs

