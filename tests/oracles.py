"""Independent brute-force oracles used only by the test suite.

The character oracle expands power sums into the monomial basis of
symmetric polynomials in d variables and solves the unitriangular Kostka
change of basis, avoiding the recursion the package itself uses.  The
colored-alphabet helpers expand power sums and Schur functions directly as
series in q and the color variables q_1 .. q_{a-1}, at the alphabet whose
letters are ``(prod_{j>l} q_j) * q^m`` for ``l`` in ``0..a-1`` and
``m >= 0``, by two routes: the character expansion and the dual
Jacobi-Trudi determinant.  ``r_bullet_zero_form`` is the framing-zero
power-sum product with its numerator multiplied out, which the package
keeps as its factors.  ``change_of_vars_loop`` is the change of
variables built one exponential factor at a time from series products, and
``g_bullet_table_by_exponential`` reads the wave-function side off one
exponential of G0, and ``correspondence_report_literal`` is the
correspondence compared series against series, with that side against the
vertex side summed shape by shape and transported.
``kernel_series_by_exponentials`` expands a transport kernel as one
exponential per eigenvalue, and ``transport_by_gluing`` is framing transport
as a family glued against a tube column.
The other oracles are exact Fraction-arithmetic expansions of classical
closed products.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from orbivertex.characters import chi
from orbivertex.dt_vertex import (
    RationalForm,
    _den_factor_inverse,
    powersum_rational,
    r_bullet_zero,
    trig_context,
    vertex_side_series,
)
from orbivertex.exactnum import field_for
from orbivertex.gw_vertex import assemble_G0
from orbivertex.hurwitz import PhiKernel
from orbivertex.localgw import LocalBlock, glue, tube
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


def r_bullet_zero_form(a: int, mu) -> RationalForm:
    """The framing-zero form (-1)^(d - len(mu))/z_mu * prod_k p_{mu_k} at
    the sign-flipped colored alphabet with its numerator multiplied out, for
    a nonempty mu; ``change_of_vars_loop`` adds the token."""
    mu = check_partition(mu)
    prod = RationalForm.monomial(a, 0, (), Fraction((-1) ** (sum(mu) - len(mu)), z_aut(mu)))
    for part in mu:
        prod = prod * powersum_rational(a, part).flip_q_sign()
    return prod


def change_of_vars_loop(rf, d: int, lam_fill: int, x_deg_max: int) -> Series:
    """The change of variables of token * rf term by term, as a product of
    one ``Series.exp_monomial`` per exponential factor, summed piece by
    piece; the closed coefficient formula of ``dt_vertex.change_of_vars``
    must reproduce it exactly, windows included."""
    a = rf.a
    ctx = trig_context(a)
    field = field_for(a)
    i = field.imaginary_unit()
    omega = field.root_of_unity(2 * a)
    xi = field.root_of_unity(a)
    token_scalar = -(field.root_of_unity(4 * a) ** (-(a - 2))) * xi ** (-1)
    xwin = {"xdeg": x_deg_max}
    total = Series.zero(ctx)
    for key, coeff in rf.num.items():
        n, ms = key[0], key[1:]
        scalar = field.from_fraction(coeff) * token_scalar ** d * (-1) ** (n % 2)
        for m in ms:
            scalar = scalar * xi ** (-m)
        piece = Series.monomial(ctx, {}, scalar)
        lam_coeff = i * (Fraction(d, 2) + n)
        if lam_coeff:
            piece = piece * Series.exp_monomial(ctx, {"lam": 1}, lam_coeff, maxes={"lam": lam_fill})
        for j in range(1, a):
            cj = -Fraction(d, a) * omega ** j
            for l, m in enumerate(ms, start=1):
                if m:
                    cj = cj - Fraction(m, a) * omega ** (-2 * j * l) * (omega ** j - omega ** (-j))
            if cj:
                piece = piece * Series.exp_monomial(ctx, {f"x{j}": 1}, cj, cap_bounds=xwin)
        total = total + piece
    for (k, s), m in rf.den.items():
        total = total * _den_factor_inverse(a, k, s, lam_fill) ** m
    return total


def kernel_series_by_exponentials(kernel: PhiKernel, ctx: SeriesContext, var: str, scale, maxes) -> Series:
    """The kernel as the sum over its eigenvalues kappa of c_kappa times
    ``Series.exp_monomial`` at rate scale * kappa/2, with the floors then
    set to the lowest stored exponents; ``PhiKernel.series`` and
    ``localgw.tube``, which read the moments instead, must reproduce it
    exactly, windows included."""
    total = Series.zero(ctx)
    for k, c in kernel.pairs.items():
        if k == 0:
            total = total + Series.monomial(ctx, {}, c)
            continue
        total = total + c * Series.exp_monomial(ctx, {var: 1}, scale * Fraction(k, 2), maxes=maxes)
    return total._tight()


def transport_by_gluing(a: int, mu, tau: int, lam_max: int, x_deg_max: int, back: bool = False) -> Series:
    """Framing transport as the local-curve TQFT composes it: the family
    {nu: F_nu} glued (``localgw.glue``) against column mu of the tube
    (``localgw.tube``) at argument i tau lam, filled |mu| orders past
    lam_max, then cut at lam_max.  F_nu is ``r_bullet_zero``, read at
    max(lam_max, -len(nu)); with ``back`` it is this oracle's own transport
    of nu at tau, glued against the tube at -tau instead, as
    ``transport_back`` is.  ``r_bullet_tau`` and ``transport_back``, which
    apply the column through the kernels' integer moments, must reproduce
    it exactly, windows and coefficient types included."""
    mu = check_partition(mu)
    d = sum(mu)
    data = {}
    for nu in partitions_of(d):
        lam = max(lam_max, -len(nu))
        if back:
            data[(nu,)] = transport_by_gluing(a, nu, tau, lam, x_deg_max)
        else:
            data[(nu,)] = r_bullet_zero(a, nu, lam, x_deg_max)
    rate = -tau if back else tau
    column = tube(trig_context(a), d, "lam", field_for(a).imaginary_unit() * rate, lam_max + d, mu)
    return glue(LocalBlock(d=d, data=data), column, d).data[(mu,)].restrict(maxes={"lam": lam_max})


def g_bullet_table_by_exponential(a: int, d: int, lam_max: int = 5, x_deg_max: int = 4) -> dict:
    """{mu: the coefficient of p_mu in exp(G0)} for every profile of size d,
    read off one ``Series.exp`` of ``assemble_G0`` filled through
    lam_max + d - 1 and cut to lam <= lam_max: the path the package's
    product table replaced, which shares no lam factor with the
    transports."""
    if d == 0:
        return {(): Series.one(trig_context(a))}
    bullet = assemble_G0(a, d, x_deg_max, lam_max + d - 1).exp(cap="pweight")
    return {
        mu: bullet.extract({f"p{k}": mu.count(k) for k in range(1, d + 1)})
        .embed(trig_context(a))
        .restrict(maxes={"lam": lam_max})
        for mu in partitions_of(d)
    }


def correspondence_report_literal(a: int, d: int, lam_max: int = 5, x_deg_max: int = 4) -> list:
    """(mu, agree) for every profile of size d: the wave-function side read
    off the G0 exponential against the literal vertex side (the character
    sum of shifted reduced vertices, folded into one rational form and then
    transported), both cut to the window lam <= lam_max."""
    window = {"lam": lam_max}
    return [
        (
            mu,
            lhs.restrict(maxes=window)
            == vertex_side_series(a, mu, lam_max=lam_max, x_deg_max=x_deg_max).restrict(maxes=window),
        )
        for mu, lhs in g_bullet_table_by_exponential(a, d, lam_max=lam_max, x_deg_max=x_deg_max).items()
    ]


__all__ = [
    "change_of_vars_loop",
    "chi_oracle",
    "correspondence_report_literal",
    "g_bullet_table_by_exponential",
    "colored_context",
    "kostka_number",
    "powersum_monomial_coeffs",
    "plane_partition_counts",
    "powersum_colored",
    "r_bullet_zero_form",
    "schur_at_colored",
    "schur_at_colored_jt",
    "taylor_inverse_sin_ratio",
]
