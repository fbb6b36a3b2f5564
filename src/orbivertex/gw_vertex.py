"""Trigonometric side of the correspondence: closed-form degree caps,
their assembly into connected and disconnected generating functions,
quantum dimensions, framing transport, and the lift to finite abelian
groups through a character.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .dt_vertex import _sine_product, _x_product, r_bullet_zero as _r_bullet_zero_closed, trig_context
from .exactnum import field_for
from .localgw import LocalBlock, glue, tube
from .partitions import (
    aut_gamma,
    check_partition,
    gamma_vectors,
    hooks,
    partitions_of,
)
from .series import GradeCap, Series, SeriesContext, VarSpec, _FrozenRecord


class FramedVertex(_FrozenRecord):
    """Disconnected per-profile generating series at integer framing."""

    _fields = ("a", "mu", "tau", "series")

    def __init__(self, a: int, mu: tuple, tau: int, series: Series):
        self._freeze(a, mu, tau, series)


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


def _cap_scalar(a: int, d: int, gamma: tuple):
    # The degree-d cap with color insertions gamma is this scalar times
    # 1/(2 sin(d lam/2)); it is 0 unless d is congruent to the total color
    # mod a.
    total = sum(gamma)
    if (d - total) % a:
        return 0
    field = field_for(a)
    n = len(gamma)
    i_exp = 1 - d + 2 * ((d - total) // a)
    frac = (
        Fraction(-1) ** (n - 1)
        * Fraction(d) ** (n - 1)
        / Fraction(a) ** (n - 1)
        / aut_gamma(gamma)
    )
    return field.root_of_unity(4, i_exp) * field.from_fraction(frac)


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
    # 1/(2 sin(d lam/2)) = i/(e^{i d lam/2} - e^{-i d lam/2}).
    series = _sine_product(a, (d,), lam_trunc) * (field_for(a).imaginary_unit() * _cap_scalar(a, d, gamma))
    return series.restrict(maxes={"lam": lam_trunc})


def assemble_G0(a: int, d_max: int, x_deg_max: int, lam_fill: int) -> Series:
    """The connected generating function at framing zero: sum of caps
    weighted by p_d and the color monomials, complete through the
    declared profile weight and x degree."""
    ctx = gw_context(a, d_max)
    i = field_for(a).imaginary_unit()
    total = Series.zero(ctx)
    for d in range(1, d_max + 1):
        inv_sin = (_sine_product(a, (d,), lam_fill) * i).embed(ctx)
        for gamma in gamma_vectors(a, x_deg_max):
            cap = inv_sin * _cap_scalar(a, d, gamma)
            if cap.is_exact_zero():
                continue
            exps = {f"p{d}": 1}
            for g in gamma:
                exps[f"x{g}"] = exps.get(f"x{g}", 0) + 1
            total = total + cap * Series.monomial(ctx, exps, 1)
    return total.restrict(cap_bounds={"xdeg": x_deg_max, "pweight": d_max})


@lru_cache(maxsize=None)
def _cap_polynomial(a: int, k: int, x_deg_max: int) -> Series:
    # C_k(x): the x-only series of the degree-k caps through x-degree
    # x_deg_max, each scalar times i, so that a cap is its term of C_k times
    # 1/(e^(i k lam/2) - e^(-i k lam/2)).
    ctx = trig_context(a)
    i = field_for(a).imaginary_unit()
    terms = {}
    for gamma in gamma_vectors(a, x_deg_max):
        scalar = _cap_scalar(a, k, gamma)
        if scalar:
            terms[ctx.key_from({f"x{g}": gamma.count(g) for g in set(gamma)})] = scalar * i
    return Series(ctx, terms, (0,) * ctx.n, ctx.window(cap_bounds={"xdeg": x_deg_max}))


def g_bullet_table(a: int, d: int, lam_max: int = 5, x_deg_max: int = 4) -> dict:
    """{mu: g_bullet_mu(a, mu, ...)} for every profile mu of size d: the
    cap polynomials C_k are built once per k <= d, and no exponential is
    formed."""
    return {mu: g_bullet_mu(a, mu, lam_max, x_deg_max) for mu in partitions_of(d)}


def g_bullet_mu(a: int, mu, lam_max: int = 5, x_deg_max: int = 4) -> Series:
    """Coefficient of p_mu in the exponential of the connected generating
    function at framing zero.  Every degree-k cap is a scalar times
    1/(2 sin(k lam/2)), so the caps of the parts multiply, and a part
    repeated m times comes with 1/m!: the coefficient is the x part
    prod_k C_(mu_k)(x) / aut(mu) (C_k the polynomial of the degree-k cap
    scalars, times i) times the sine product of mu that r_bullet_zero also
    reads.  Each of its len(mu) factors, filled through lam^F, starts at
    lam^-1 and is complete through lam^F (a closed Bernoulli series), so
    the product is complete through lam^(F - len(mu) + 1); hence
    F = lam_max + len(mu) - 1.  Like r_bullet_zero, it refuses a lam_max
    below -len(mu)."""
    mu = check_partition(mu)
    if not mu:
        return Series.one(trig_context(a))
    x_part = _x_product([_cap_polynomial(a, k, x_deg_max) for k in mu]) / aut_gamma(mu)
    return (x_part * _sine_product(a, mu, lam_max + len(mu) - 1)).restrict(maxes={"lam": lam_max})


def lambda_g_psi_series(lam_trunc: int = 10) -> Series:
    """The one-point series (lam/2)/sin(lam/2): lam times the degree-one
    cap 1/(2 sin(lam/2)).  Its closed Bernoulli series, complete through
    lam^F, makes the product complete through lam^(F + 1); hence
    F = lam_trunc - 1."""
    cap = _sine_product(1, (1,), lam_trunc - 1) * field_for(1).imaginary_unit()
    return (cap * Series.monomial(trig_context(1), {"lam": 1}, 1)).restrict(maxes={"lam": lam_trunc})


# -- quantum dimensions ------------------------------------------------------


def _sin_half(ctx: SeriesContext, k: int, lam_fill: int, field) -> Series:
    # sin(k lam/2) = (e^{i k lam/2} - e^{-i k lam/2})/(2i), complete through
    # lam^lam_fill.  The constant terms cancel, so its floor is lam^1.
    i = field.imaginary_unit()
    rate = i * Fraction(k, 2)
    diff = Series.exp_monomial(ctx, {"lam": 1}, rate, maxes={"lam": lam_fill}) - \
        Series.exp_monomial(ctx, {"lam": 1}, -rate, maxes={"lam": lam_fill})
    sine = diff * (i * Fraction(-1, 2))
    floors = tuple(ctx.scale(v, 1) if v == "lam" else f for v, f in zip(ctx.names, sine.floors))
    return Series(ctx, sine.terms, floors, sine.tops)


def quantum_dim_hook(nu, lam_trunc: int = 10) -> Series:
    """The product of 1/(2 sin(h lam/2)) across the hook lengths h of the
    shape.  Each factor, a closed Bernoulli series filled through lam^F,
    starts at lam^-1 and is complete through lam^F; a product of |nu|
    factors (one per box) is complete through lam^(F - |nu| + 1), hence
    F = lam_trunc + |nu| - 1.  The factors are i times those of the sine
    product of the hook lengths, so conjugate shapes share one product."""
    nu = check_partition(nu)
    if not nu:
        return Series.one(trig_context(1)).restrict(maxes={"lam": lam_trunc})
    hook_product = _sine_product(1, tuple(sorted(hooks(nu), reverse=True)), lam_trunc + sum(nu) - 1)
    return (hook_product * field_for(1).root_of_unity(4, sum(nu))).restrict(maxes={"lam": lam_trunc})


def quantum_dim_sine(nu, lam_trunc: int = 10) -> Series:
    """The sine-product form of the same quantity.  The pairs A < B give
    one sine and one inverse sine each, the boxes one inverse each, so the
    lowest exponents sum to -|nu|.  A sine filled through lam^F starts at
    lam^1 and is complete through lam^F, so the product is complete through
    lam^(F - |nu| - 1) as far as the sines go: they fill through
    lam_trunc + |nu| + 1.  An inverse sine, a closed Bernoulli series
    filled through lam^F, starts at lam^-1 and is complete through lam^F,
    so the product reaches lam^(F - |nu| + 1): the inverses fill through
    lam_trunc + |nu| - 1."""
    nu = check_partition(nu)
    ctx = trig_context(1)
    field = field_for(1)
    i = field.imaginary_unit()
    l = len(nu)
    sine_fill = lam_trunc + sum(nu) + 1
    inverse_fill = lam_trunc + sum(nu) - 1
    out = Series.one(ctx)
    for A in range(1, l + 1):
        for B in range(A + 1, l + 1):
            out = out * _sin_half(ctx, nu[A - 1] - nu[B - 1] + B - A, sine_fill, field)
            out = out * (_sine_product(1, (B - A,), inverse_fill) * (i * 2))
    for i_row in range(1, l + 1):
        for v in range(1, nu[i_row - 1] + 1):
            out = out * (_sine_product(1, (v - i_row + l,), inverse_fill) * i)
    return out.restrict(maxes={"lam": lam_trunc})


# -- framing-zero series and transport ---------------------------------------


def r_bullet_zero(a: int, mu, lam_max: int = 5, x_deg_max: int = 4) -> Series:
    """Framing-zero disconnected series from the closed power-sum product."""
    return _r_bullet_zero_closed(a, mu, lam_max, x_deg_max)


def _transport(a: int, mu: tuple, tau: int, lam_max: int, series_of) -> Series:
    # The family {nu: series_of(nu)} glued against column mu of the tube at
    # argument i tau lam.  Every series_of(nu) starts at lam^(-d) or above,
    # so the kernels are filled d orders further for the product window to
    # reach lam_max.
    d = sum(mu)
    family = LocalBlock(d=d, data={(nu,): series_of(nu) for nu in partitions_of(d)})
    scale = field_for(a).imaginary_unit() * tau
    column = tube(trig_context(a), d, "lam", scale, lam_max + d, mu)
    return glue(family, column, d).data[(mu,)].restrict(maxes={"lam": lam_max})


def r_bullet_tau(a: int, mu, tau: int, lam_max: int = 5, x_deg_max: int = 4) -> FramedVertex:
    """Framing transport: the framing-zero series pushed through the
    exponential kernel at argument i*lam*tau."""
    mu = check_partition(mu)
    if not isinstance(tau, int):
        raise ValueError("framing must be an integer")
    if not mu or not tau:
        # The tube at argument 0 is the diagonal 1/z_mu, which the gluing
        # weight z_mu cancels.
        return FramedVertex(a, mu, tau, r_bullet_zero(a, mu, lam_max, x_deg_max))
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


def _check_factors(group_orders, phi) -> None:
    if len(group_orders) != len(phi):
        raise ValueError("character tuple must match the group factors")


def character_image_order(group_orders, phi) -> int:
    """Order of the image of the character g -> sum phi_i g_i / n_i."""
    _check_factors(group_orders, phi)
    a = 1
    for n, c in zip(group_orders, phi):
        order = n // gcd(n, c)
        a = a * order // gcd(a, order)
    return a


def project_element(group_orders, phi, g, a: int) -> int:
    """Image of a group element in Z_a under the character."""
    _check_factors(group_orders, phi)
    if len(group_orders) != len(g):
        raise ValueError("group element must match the group factors")
    val = Fraction(0)
    for n, c, gi in zip(group_orders, phi, g):
        val += Fraction(c * gi, n)
    scaled = val * a
    if scaled.denominator != 1:
        raise ValueError("element does not map into Z_a")
    return int(scaled) % a


def connected_profile_series(a: int, colors: tuple, tau: int, d_max: int, lam_max: int = 5) -> Series:
    """Coefficient of the color monomial prod x_{colors} in the logarithm
    of the disconnected generating function, as a series in (lam, p).
    Every color must lie in 1..a-1.  The series is built once per
    (a, sorted colors, tau, d_max, lam_max) and then read from a memo, so
    every abelian lift with the same image shares one build."""
    colors = tuple(sorted(colors))
    for c in colors:
        if not 1 <= c < a:
            raise ValueError(f"color {c} does not lie in 1..a-1 for a={a}")
    return _connected_profile_series(a, colors, tau, d_max, lam_max)


@lru_cache(maxsize=None)
def _connected_profile_series(a: int, colors: tuple, tau: int, d_max: int, lam_max: int) -> Series:
    n_colors = len(colors)
    ctx = gw_context(a, d_max)
    # Every profile series starts at lam^-d_max or above, and the log
    # multiplies at most d_max of them: each product costs d_max orders.
    lam_inner = lam_max + d_max * (d_max - 1)
    total = Series.one(ctx)
    for d in range(1, d_max + 1):
        for mu in partitions_of(d):
            lifted = r_bullet_tau(a, mu, tau, lam_inner, n_colors).series.embed(ctx)
            exps = {f"p{k}": mu.count(k) for k in set(mu)}
            total = total + lifted * Series.monomial(ctx, exps, 1)
    # Every term inside the cut is stored, so the lowest stored exponents
    # are floors, and the log's window reads them.
    total = total.restrict(cap_bounds={"pweight": d_max})._tight()
    conn = total.log(cap="pweight")
    out = conn.extract({f"x{j}": colors.count(j) for j in range(1, a)})
    return out.restrict(maxes={"lam": lam_max})


def abelian_lift(group_orders, phi, gamma_g, tau: int, d_max: int, lam_max: int = 5) -> Series:
    """Generating series for a finite abelian group with a character,
    produced from the cyclic series by the kernel-size substitution:
    |K| times the substitution lam -> |K| lam, p -> p/|K|.  The cyclic
    series depends only on the image (a, colors), so every presentation
    with that image reads one memoized build."""
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
    base = connected_profile_series(a, colors, tau, d_max, lam_max)
    scalars = {"lam": K}
    for d in range(1, d_max + 1):
        scalars[f"p{d}"] = Fraction(1, K)
    return base.substitute(scalars) * Fraction(K)
