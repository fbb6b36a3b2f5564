"""Transport kernels for double Hurwitz numbers of the cylinder.

The kernel between two ramification profiles nu and mu of equal size is

    Phi(t) = sum over eta of chi_eta(nu) chi_eta(mu) / (z_nu z_mu) * exp(kappa_eta t / 2),

stored exactly as the integers W_kappa, the sum of chi_eta(nu) chi_eta(mu)
over the eta of (even) content sum kappa, over z_nu z_mu.  At t = 0 it is
delta_{nu,mu}/z_nu, and composing two kernels adds their arguments.  The
moment sum of W_kappa kappa^n over 2^n z_nu z_mu counts factorizations into
n transpositions and is n! times the coefficient of t^n.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .characters import chi
from .partitions import check_partition, kappa, partitions_of, z_aut
from .series import Series, SeriesContext, _as_coeff, _exp_powers

ORACLE_DEGREE_LIMIT = 4
# Tuples the factorization oracle may enumerate: about one second at
# roughly 9 microseconds per tuple.
ORACLE_TUPLE_LIMIT = 10**5


def _kernel_powers(ctx: SeriesContext, var: str, scale, maxes, degree: int):
    """What the kernels of one degree share in ``scale * var``: the key of
    var, the window and scale^n/n! through it.  At scale zero or below
    degree two (where kappa = 0 is the only eigenvalue) they are constants."""
    key = ctx.key_from({var: 1})
    if degree < 2 or not scale:
        return (0,) * ctx.n, ctx.window(), [Fraction(1)]
    return (key,) + _exp_powers(ctx, key, _as_coeff(scale), ctx.window(maxes))


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
        self._z = z_aut(nu) * z_aut(mu)
        weights = {}
        for eta in partitions_of(self.degree):
            k = kappa(eta)
            weights[k] = weights.get(k, 0) + chi(eta, nu) * chi(eta, mu)
        self._weights = {k: w for k, w in weights.items() if w}

    @property
    def pairs(self) -> dict:
        """The coefficient W_kappa/(z_nu z_mu) of each eigenvalue kappa."""
        return {k: Fraction(w, self._z) for k, w in self._weights.items()}

    def at_zero(self) -> Fraction:
        """Exact value of the kernel at argument zero."""
        return self.weighted_moment(0)

    def weighted_moment(self, r: int) -> Fraction:
        """Sum of (kappa/2)^r against the spectral coefficients."""
        if r < 0:
            raise ValueError("moment order must be nonnegative")
        return Fraction(self._moment_sums(r + 1)[r], self._z * 2**r)

    def _moment_sums(self, count: int) -> list:
        # The integer sums S_n of W_kappa kappa^n for n < count: S_n is
        # n! 2^n z_nu z_mu times the coefficient of t^n.
        sums = [0] * count
        for k, w in self._weights.items():
            for n in range(count):
                sums[n] += w
                w *= k
        return sums

    def series(self, ctx: SeriesContext, var: str, scale, maxes) -> Series:
        """The kernel as a series in one variable, filled through the given
        window: the coefficient of var^n is scale^n/n! times the n-th
        weighted moment."""
        return self._expand(ctx, _kernel_powers(ctx, var, scale, maxes, self.degree))

    def _expand(self, ctx: SeriesContext, powers) -> Series:
        key, tops, coefficients = powers
        terms = {}
        for n, (p, s) in enumerate(zip(coefficients, self._moment_sums(len(coefficients)))):
            if s:
                terms[tuple(n * e for e in key)] = p * Fraction(s, self._z * 2**n)
        # Exact through the window on one axis, so nothing lies below the
        # lowest stored term (off-diagonal kernels vanish at argument zero).
        return Series(ctx, terms, (0,) * ctx.n, tops)._tight()


@lru_cache(maxsize=None)
def _phi_kernel(nu: tuple, mu: tuple) -> PhiKernel:
    # One kernel per checked profile pair: a tube reads every pair of its
    # degree, and each framing transport builds a tube column.
    return PhiKernel(nu, mu)


def burnside_value(chi_euler: int, nu, mu) -> Fraction:
    """Weighted count of transitive-or-not factorizations: the coefficient
    extracted from the kernel for a cover of Euler characteristic chi_euler
    branched over nu and mu, with all other branching simple."""
    r = simple_branch_count(chi_euler, nu, mu)
    if r < 0:
        raise ValueError("no simple branch points for this Euler characteristic")
    return _phi_kernel(check_partition(nu), check_partition(mu)).weighted_moment(r)


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


def oracle_tuple_count(nu, r: int) -> int:
    """Tuples the factorization oracle enumerates for profile ``nu`` and
    ``r`` transpositions: (number of sigma of cycle type nu) * C(d, 2)^r."""
    d = sum(nu)
    return math.factorial(d) // z_aut(nu) * math.comb(d, 2) ** r


def require_oracle_budget(nu, r: int) -> None:
    """Refuse an oracle run over ORACLE_TUPLE_LIMIT tuples."""
    count = oracle_tuple_count(nu, r)
    if count > ORACLE_TUPLE_LIMIT:
        raise ValueError(
            f"factorization oracle at r={r}, d={sum(nu)} would enumerate {count} tuples,"
            f" over the limit of {ORACLE_TUPLE_LIMIT}"
        )


def factorization_counts(nu, r: int) -> dict:
    """Brute-force factorization counts for every cycle type at once.

    One pass over the tuples (sigma, tau_1, ..., tau_r) with sigma of cycle
    type nu and each tau_i a transposition: maps each cycle type mu of the
    product sigma tau_1 ... tau_r to the number of tuples reaching it,
    divided by d!.  Exhaustive over the symmetric group, so guarded to
    degrees up to ORACLE_DEGREE_LIMIT and to ORACLE_TUPLE_LIMIT tuples.
    """
    nu = check_partition(nu)
    d = sum(nu)
    if d > ORACLE_DEGREE_LIMIT:
        raise ValueError(f"factorization oracle is limited to degree {ORACLE_DEGREE_LIMIT}")
    require_oracle_budget(nu, r)
    letters = range(d)
    sigmas = [p for p in itertools.permutations(letters) if _cycle_type(p) == nu]
    transpositions = []
    for i, j in itertools.combinations(letters, 2):
        t = list(letters)
        t[i], t[j] = t[j], t[i]
        transpositions.append(tuple(t))
    counts = {}
    for sigma in sigmas:
        for taus in itertools.product(transpositions, repeat=r):
            prod = sigma
            for t in taus:
                prod = tuple(prod[t[i]] for i in letters)
            mu = _cycle_type(prod)
            counts[mu] = counts.get(mu, 0) + 1
    return {mu: Fraction(c, math.factorial(d)) for mu, c in counts.items()}


def factorization_oracle(chi_euler: int, nu, mu) -> Fraction:
    """Brute-force check value for :func:`burnside_value`: the entry of
    :func:`factorization_counts` at mu, with r simple branch points."""
    if sum(check_partition(mu)) != sum(check_partition(nu)):
        raise ValueError("profiles must have equal size")
    r = simple_branch_count(chi_euler, nu, mu)
    if r < 0:
        raise ValueError("no simple branch points for this Euler characteristic")
    return factorization_counts(nu, r).get(mu, Fraction(0))
