"""Trigonometric side of the correspondence: closed-form degree caps,
their assembly into connected and disconnected generating functions,
quantum dimensions, framing transport, and the lift to finite abelian
groups through a character.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .characters import chi
from .dt_vertex import r_bullet_zero as _r_bullet_zero_closed, trig_context
from .exactnum import field_for
from .hurwitz import PhiKernel
from .partitions import (
    aut_gamma,
    check_partition,
    gamma_vectors,
    hooks,
    kappa,
    partitions_of,
    z_aut,
)
from .series import GradeCap, Series, SeriesContext, VarSpec


@dataclass(frozen=True)
class FramedVertex:
    """Disconnected per-profile generating series at integer framing."""

    a: int
    mu: tuple
    tau: int
    series: Series


@lru_cache(maxsize=None)
def gw_context(a: int, d_max: int) -> SeriesContext:
    """Variables lam, x_1..x_{a-1}, p_1..p_{d_max} with the total x-degree
    grading and the weighted profile grading (p_d weighs d)."""
    var_specs = [VarSpec("lam")]
    xw = {}
    pw = {}
    for j in range(1, a):
        var_specs.append(VarSpec(f"x{j}"))
        xw[f"x{j}"] = 1
    for d in range(1, d_max + 1):
        var_specs.append(VarSpec(f"p{d}"))
        pw[f"p{d}"] = d
    return SeriesContext(var_specs, caps=[GradeCap("xdeg", xw), GradeCap("pweight", pw)])


def _exp_diff(ctx: SeriesContext, k: int, lam_fill: int, i) -> Series:
    # e^{i k lam/2} - e^{-i k lam/2} (that is, 2i sin(k lam/2)), i the imaginary unit.
    return Series.exp_monomial(ctx, {"lam": 1}, i * Fraction(k, 2), maxes={"lam": lam_fill}) - \
        Series.exp_monomial(ctx, {"lam": 1}, -i * Fraction(k, 2), maxes={"lam": lam_fill})


def _inv_two_sin(ctx: SeriesContext, d: int, lam_fill: int, field) -> Series:
    # 1/(2 sin(d lam/2)) as an exact Laurent series.
    i = field.imaginary_unit()
    return _exp_diff(ctx, d, lam_fill, i).invert() * i


def _cap_series(a: int, d: int, gamma: tuple, inv_sin: Series) -> Series:
    # The cap scalar times inv_sin = 1/(2 sin(d lam/2)), zero unless d is
    # congruent to the total color mod a.
    total = sum(gamma)
    if (d - total) % a:
        return Series.zero(inv_sin.ctx)
    field = field_for(a)
    n = len(gamma)
    i_exp = 1 - d + 2 * ((d - total) // a)
    frac = (
        Fraction(-1) ** (n - 1)
        * Fraction(d) ** (n - 1)
        / Fraction(a) ** (n - 1)
        / aut_gamma(gamma)
    )
    scalar = field.imaginary_unit() ** i_exp * field.from_fraction(frac)
    return inv_sin * scalar


def cap_closed_form(a: int, d: int, gamma, lam_trunc: int = 9) -> Series:
    """The degree-d connected invariant series with color insertions gamma,
    zero unless d is congruent to the total color mod a."""
    gamma = tuple(sorted(gamma))
    if d < 1:
        raise ValueError("degree must be positive")
    if any(g < 1 or g >= a for g in gamma):
        raise ValueError("color insertions must lie in 1..a-1")
    ctx = trig_context(a)
    if (d - sum(gamma)) % a:
        return Series.zero(ctx)
    series = _cap_series(a, d, gamma, _inv_two_sin(ctx, d, lam_trunc + 2, field_for(a)))
    return series.require_window(maxes={"lam": lam_trunc}).restrict(maxes={"lam": lam_trunc})


def assemble_G0(a: int, d_max: int, x_deg_max: int, lam_fill: int) -> Series:
    """The connected generating function at framing zero: sum of caps
    weighted by p_d and the color monomials, complete through the
    declared profile weight and x degree."""
    ctx = gw_context(a, d_max)
    field = field_for(a)
    total = Series.zero(ctx)
    for d in range(1, d_max + 1):
        inv_sin = _inv_two_sin(ctx, d, lam_fill, field)
        for gamma in gamma_vectors(a, x_deg_max):
            cap = _cap_series(a, d, gamma, inv_sin)
            if cap.is_exact_zero():
                continue
            exps = {f"p{d}": 1}
            for g in gamma:
                exps[f"x{g}"] = exps.get(f"x{g}", 0) + 1
            total = total + cap * Series.monomial(ctx, exps, 1)
    return total.restrict(cap_bounds={"xdeg": x_deg_max, "pweight": d_max})


def g_bullet_mu(a: int, mu, lam_max: int = 5, x_deg_max: int = 4) -> Series:
    """Coefficient of p_mu in the exponential of the connected generating
    function at framing zero."""
    mu = check_partition(mu)
    d = sum(mu)
    if d == 0:
        return Series.one(trig_context(a))
    lam_fill = lam_max + d + 4
    g = assemble_G0(a, d, x_deg_max, lam_fill)
    bullet = g.exp(cap="pweight")
    fixed = {}
    for k in range(1, d + 1):
        fixed[f"p{k}"] = mu.count(k)
    out = bullet.extract(fixed).embed(trig_context(a))
    out = out.require_window(maxes={"lam": lam_max})
    return out.restrict(maxes={"lam": lam_max})


def lambda_g_psi_series(lam_trunc: int = 10) -> Series:
    """The one-point series (lam/2)/sin(lam/2), computed by exact series
    division: lam times the degree-one cap."""
    cap = cap_closed_form(1, 1, (), lam_trunc + 1)
    return (cap * Series.monomial(trig_context(1), {"lam": 1}, 1)).restrict(
        maxes={"lam": lam_trunc}
    )


# -- quantum dimensions ------------------------------------------------------


def _sin_half(ctx: SeriesContext, k: int, lam_fill: int, field) -> Series:
    i = field.imaginary_unit()
    return _exp_diff(ctx, k, lam_fill, i) * (field.from_fraction(Fraction(1, 2)) * i ** (-1))


def quantum_dim_hook(nu, lam_trunc: int = 10) -> Series:
    """i^{|nu|} over the product of (e^{i h lam/2} - e^{-i h lam/2}) across
    the hook lengths h of the shape."""
    nu = check_partition(nu)
    ctx = trig_context(1)
    field = field_for(1)
    i = field.imaginary_unit()
    hs = hooks(nu)
    fill = lam_trunc + 2 * len(hs) + 2
    out = Series.one(ctx) * i ** sum(nu)
    for h in hs:
        out = out * _exp_diff(ctx, h, fill, i).invert()
    if sum(nu):
        out = out.require_window(maxes={"lam": lam_trunc})
    return out.restrict(maxes={"lam": lam_trunc})


def quantum_dim_sine(nu, lam_trunc: int = 10) -> Series:
    """The sine-product form of the same quantity."""
    nu = check_partition(nu)
    ctx = trig_context(1)
    field = field_for(1)
    l = len(nu)
    fill = lam_trunc + 2 * (sum(nu) + l * l) + 2
    out = Series.one(ctx)
    for A in range(1, l + 1):
        for B in range(A + 1, l + 1):
            out = out * _sin_half(ctx, nu[A - 1] - nu[B - 1] + B - A, fill, field)
            out = out * _sin_half(ctx, B - A, fill, field).invert()
    for i_row in range(1, l + 1):
        for v in range(1, nu[i_row - 1] + 1):
            out = out * (_sin_half(ctx, v - i_row + l, fill, field) * 2).invert()
    if sum(nu):
        out = out.require_window(maxes={"lam": lam_trunc})
    return out.restrict(maxes={"lam": lam_trunc})


# -- framing-zero series and transport ---------------------------------------


def r_bullet_zero(a: int, mu, lam_max: int = 5, x_deg_max: int = 4) -> Series:
    """Framing-zero disconnected series from the closed power-sum product."""
    return _r_bullet_zero_closed(a, mu, lam_max, x_deg_max)


def mv_a1_check(mu, lam_trunc: int = 8) -> bool:
    """At modulus one the framing-zero series equals the character-weighted
    sum of quantum dimensions with the kappa exponential prefactor."""
    mu = check_partition(mu)
    d = sum(mu)
    ctx = trig_context(1)
    field = field_for(1)
    i = field.imaginary_unit()
    fill = lam_trunc + d + 2
    lhs = r_bullet_zero(1, mu, lam_max=lam_trunc, x_deg_max=0)
    rhs = Series.zero(ctx)
    for nu in partitions_of(d):
        c = Fraction(chi(nu, mu), z_aut(mu))
        if not c:
            continue
        piece = quantum_dim_hook(nu, fill) * field.from_fraction(c)
        k = kappa(nu)
        if k:
            piece = piece * Series.exp_monomial(
                ctx, {"lam": 1}, i * Fraction(k, 4), maxes={"lam": fill}
            )
        rhs = rhs + piece
    window = {"lam": lam_trunc}
    return lhs.restrict(maxes=window) == rhs.require_window(maxes=window).restrict(maxes=window)


def _transport(a: int, mu: tuple, tau: int, lam_max: int, series_of) -> Series:
    # sum_nu z_nu series_of(nu) Phi_{nu,mu}(i tau lam) over |nu| = |mu| = d.
    # Every series_of(nu) starts at lam^(-d) or above, so the kernel must be
    # expanded d orders further for the product window to reach lam_max.
    ctx = trig_context(a)
    d = sum(mu)
    scale = field_for(a).imaginary_unit() * tau
    total = Series.zero(ctx)
    for nu in partitions_of(d):
        kernel = PhiKernel(nu, mu).series(ctx, "lam", scale, maxes={"lam": lam_max + d})
        total = total + series_of(nu) * kernel * z_aut(nu)
    return total.restrict(maxes={"lam": lam_max})


def r_bullet_tau(a: int, mu, tau: int, lam_max: int = 5, x_deg_max: int = 4) -> FramedVertex:
    """Framing transport: the framing-zero series pushed through the
    exponential kernel at argument i*lam*tau."""
    mu = check_partition(mu)
    if not isinstance(tau, int):
        raise ValueError("framing must be an integer")
    if not mu:
        return FramedVertex(a, mu, tau, Series.one(trig_context(a)))
    series = _transport(a, mu, tau, lam_max, lambda nu: r_bullet_zero(a, nu, lam_max, x_deg_max))
    return FramedVertex(a, mu, tau, series)


def transport_back(a: int, mu, tau: int, lam_max: int = 5, x_deg_max: int = 4) -> Series:
    """Transport every profile at framing tau through the kernel at the
    opposite argument; by the composition and initial-value laws this
    recovers the framing-zero series of mu."""
    mu = check_partition(mu)
    return _transport(
        a, mu, -tau, lam_max, lambda nu: r_bullet_tau(a, nu, tau, lam_max, x_deg_max).series
    )


# -- abelian lift -------------------------------------------------------------


def character_image_order(group_orders, phi) -> int:
    """Order of the image of the character g -> sum phi_i g_i / n_i."""
    if len(group_orders) != len(phi):
        raise ValueError("character tuple must match the group factors")
    a = 1
    for n, c in zip(group_orders, phi):
        order = n // gcd(n, c)
        a = a * order // gcd(a, order)
    return a


def project_element(group_orders, phi, g, a: int) -> int:
    """Image of a group element in Z_a under the character."""
    val = Fraction(0)
    for n, c, gi in zip(group_orders, phi, g):
        val += Fraction(c * gi, n)
    scaled = val * a
    if scaled.denominator != 1:
        raise ValueError("element does not map into Z_a")
    return int(scaled) % a


def connected_profile_series(a: int, colors: tuple, tau: int, d_max: int, lam_max: int = 5) -> Series:
    """Coefficient of the color monomial prod x_{colors} in the logarithm
    of the disconnected generating function, as a series in (lam, p)."""
    n_colors = len(colors)
    ctx = gw_context(a, d_max)
    lam_inner = lam_max + d_max * d_max + 2
    total = Series.one(ctx)
    for d in range(1, d_max + 1):
        for mu in partitions_of(d):
            lifted = r_bullet_tau(a, mu, tau, lam_inner, n_colors).series.embed(ctx)
            exps = {}
            for k in mu:
                exps[f"p{k}"] = exps.get(f"p{k}", 0) + 1
            total = total + lifted * Series.monomial(ctx, exps, 1)
    total = total.restrict(cap_bounds={"pweight": d_max})
    conn = total.log(cap="pweight")
    fixed = {}
    for j in range(1, a):
        fixed[f"x{j}"] = colors.count(j)
    out = conn.extract(fixed)
    return out.require_window(maxes={"lam": lam_max}).restrict(maxes={"lam": lam_max})


def abelian_lift(group_orders, phi, gamma_g, tau: int, d_max: int, lam_max: int = 5) -> Series:
    """Generating series for a finite abelian group with a character,
    produced from the cyclic series by the kernel-size substitution:
    |K| times the substitution lam -> |K| lam, p -> p/|K|."""
    group_orders = tuple(int(n) for n in group_orders)
    phi = tuple(int(c) for c in phi)
    a = character_image_order(group_orders, phi)
    size = 1
    for n in group_orders:
        size *= n
    K = size // a
    colors = []
    for g in gamma_g:
        v = project_element(group_orders, phi, tuple(g), a)
        if v == 0:
            raise ValueError("insertions must project to nontrivial elements")
        colors.append(v)
    base = connected_profile_series(a, tuple(sorted(colors)), tau, d_max, lam_max)
    scalars = {"lam": K}
    for d in range(1, d_max + 1):
        scalars[f"p{d}"] = Fraction(1, K)
    return base.substitute(scalars) * Fraction(K)
