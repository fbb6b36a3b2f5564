"""The named verification suites: one registry of exact checks.

``SUITES`` maps each suite name to a plain function.  Its keyword
parameters are named after the CLI flags (``a``, ``d``, ``r``, ``tau``,
``lambda_order``, ``x_order``, ``enumerate``) and default to the windows
``orbivertex verify`` uses when a flag is absent; ``verify`` refuses a flag
that the suite has no parameter for.  Each function returns a list of
``{"name", "passed", ...}`` checks.  ``orbivertex verify --suite NAME`` and
the acceptance tests both run through this registry, so every identity is
coded once.
"""

from __future__ import annotations

from fractions import Fraction

from . import dt_vertex as dtv
from .characters import chi
from .dt_vertex import correspondence_report, r_bullet_zero, trig_context
from .exactnum import field_for
from .gw_vertex import (
    abelian_lift,
    connected_profile_series,
    g_bullet_table,
    quantum_dim_hook,
    quantum_dim_sine,
)
from .hurwitz import _phi_kernel, burnside_value, factorization_counts, require_oracle_budget
from .localgw import LocalBlock, _partition_label, cap_family, cap_series, glue, identity_block, tube
from .partitions import check_partition, kappa, partitions_of, z_aut
from .series import PrecisionError, Series, SeriesContext, VarSpec, _frac_str

DEFAULT_CORRESPONDENCE_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))
DEFAULT_DT_VERTEX_MODULI = (1, 2, 3)


def phi_composition_check(nu, mu, order: int = 6) -> bool:
    """Kernel composition as an exact two-variable series identity: the
    kernel at t1 + t2 equals the t1-tube glued against the t2-tube, through
    the given joint order."""
    nu = check_partition(nu)
    mu = check_partition(mu)
    ctx = SeriesContext([VarSpec("t1"), VarSpec("t2")])
    maxes = {"t1": order, "t2": order}
    lhs = Series.zero(ctx)
    for k, c in _phi_kernel(nu, mu).pairs.items():
        piece = Series.exp_monomial(ctx, {"t1": 1}, Fraction(k, 2), maxes=maxes)
        piece = piece * Series.exp_monomial(ctx, {"t2": 1}, Fraction(k, 2), maxes=maxes)
        lhs = lhs + c * piece
    d = sum(nu)
    glued = glue(tube(ctx, d, "t1", 1, order), tube(ctx, d, "t2", 1, order, mu), d)
    return lhs.restrict(maxes=maxes) == glued.data[(nu, mu)].restrict(maxes=maxes)


def mv_a1_check(mu, lam_trunc: int = 8) -> bool:
    """At modulus one the framing-zero series equals the character-weighted
    sum of quantum dimensions with the kappa exponential prefactor, through
    lam^lam_trunc."""
    mu = check_partition(mu)
    d = sum(mu)
    # The framing-zero series of size d starts at lam^-d or above.
    if lam_trunc < -d:
        raise PrecisionError(f"mv_a1_check: window of 'lam' cut at {lam_trunc} lies below its floor {-d}")
    ctx = trig_context(1)
    field = field_for(1)
    # Each quantum dimension of size d starts at lam^-d and each kappa
    # exponential at lam^0, so their product is complete through lam^lam_trunc
    # when the quantum dimension is complete through lam^lam_trunc and the
    # exponential through lam^(lam_trunc + d).
    rhs = Series.zero(ctx)
    for nu in partitions_of(d):
        c = Fraction(chi(nu, mu), z_aut(mu))
        if c:
            rate = field.imaginary_unit() * Fraction(kappa(nu), 4)
            turn = Series.exp_monomial(ctx, {"lam": 1}, rate, maxes={"lam": lam_trunc + d})
            rhs = rhs + quantum_dim_hook(nu, lam_trunc) * turn * field.from_fraction(c)
    lhs = r_bullet_zero(1, mu, lam_max=lam_trunc, x_deg_max=0)
    window = {"lam": lam_trunc}
    return lhs.restrict(maxes=window) == rhs.restrict(maxes=window)


def phi(*, d=6, lambda_order=6) -> list:
    """The kernel is delta/z at zero for sizes 1..d and composes additively
    through the given order for sizes 1..min(d, 4)."""
    checks = []
    for size in range(1, d + 1):
        ok = all(
            _phi_kernel(nu, mu).at_zero() == (Fraction(1, z_aut(nu)) if nu == mu else 0)
            for nu in partitions_of(size)
            for mu in partitions_of(size)
        )
        checks.append({"name": f"kernel-at-zero-d{size}", "passed": ok})
    for size in range(1, min(d, 4) + 1):
        ok = all(
            phi_composition_check(nu, mu, lambda_order)
            for nu in partitions_of(size)
            for mu in partitions_of(size)
        )
        checks.append({"name": f"kernel-composition-d{size}-order{lambda_order}", "passed": ok})
    return checks


def burnside(*, d=3, r=4) -> list:
    """Weighted cover counts against the brute-force factorization oracle
    for sizes 1..d and 0..r simple branch points, plus two spot values."""
    # The oracle's largest runs are at size d with r branch points; refuse
    # them before any enumeration.
    for nu in partitions_of(d):
        require_oracle_budget(nu, r)
    checks = []
    for size in range(1, d + 1):
        ok = True
        table = []
        for nu in partitions_of(size):
            counts = [factorization_counts(nu, branch) for branch in range(r + 1)]
            for mu in partitions_of(size):
                for branch in range(r + 1):
                    chi_euler = len(nu) + len(mu) - branch
                    value = burnside_value(chi_euler, nu, mu)
                    if value != counts[branch].get(mu, 0):
                        ok = False
                    table.append(
                        {"nu": list(nu), "mu": list(mu), "r": branch, "value": _frac_str(value)}
                    )
        checks.append({"name": f"burnside-vs-oracle-d{size}", "passed": ok, "values": table})
    spots = (
        burnside_value(2, (1,), (1,)) == Fraction(1)
        and burnside_value(0, (2,), (2,)) == Fraction(1, 2)
    )
    checks.append({"name": "spot-values", "passed": spots})
    return checks


def correspondence(*, a=None, d=None, lambda_order=5, x_order=4) -> list:
    """Both sides of the correspondence agree for every profile of size d at
    quotient order a; with neither given, over the six default pairs."""
    pairs = DEFAULT_CORRESPONDENCE_PAIRS if a is None and d is None else ((a, d),)
    return [
        {"name": f"correspondence-a{pa}-mu{_partition_label(mu)}", "passed": agree}
        for pa, pd in pairs
        for mu, agree in correspondence_report(pa, pd, lam_max=lambda_order, x_deg_max=x_order)
    ]


def dt_vertex(*, a=None, d=4, enumerate=8) -> list:
    """The box-counting enumerator of every leg nu with 1 <= |nu| <= d is
    the closed reduced vertex of nu times the empty-leg enumerator, through
    added volume ``enumerate``, at quotient order a; with a not given, for
    a in 1, 2, 3."""
    # The module's functions are read off the module, so that a test can
    # substitute a wrong vertex.
    bounds = {"vol": enumerate}
    checks = []
    for pa in DEFAULT_DT_VERTEX_MODULI if a is None else (a,):
        ctx = dtv.box_context(pa)
        empty = dtv.box_counting_series((), pa, enumerate)
        for size in range(1, d + 1):
            for nu in partitions_of(size):
                # The empty-leg series has volume >= 0, so closed terms
                # above the window only make product terms above it.
                closed = dtv.reduced_vertex_closed(nu, pa).to_series(ctx, enumerate).restrict(cap_bounds=bounds)
                full = dtv.box_counting_series(nu, pa, enumerate).restrict(cap_bounds=bounds)
                checks.append(
                    {
                        "name": f"dt-vertex-a{pa}-nu{_partition_label(nu)}",
                        "passed": full == (closed * empty).restrict(cap_bounds=bounds),
                    }
                )
    return checks


def mv_a1(*, d=4, lambda_order=8) -> list:
    """The character sum reproduces the one-leg series at a=1 for every
    profile of size 1..d."""
    return [
        {
            "name": f"character-sum-mu{_partition_label(mu)}-order{lambda_order}",
            "passed": mv_a1_check(mu, lam_trunc=lambda_order),
        }
        for size in range(1, d + 1)
        for mu in partitions_of(size)
    ]


def quantum_dim(*, d=5, lambda_order=10) -> list:
    """Hook and sine-product quantum dimensions agree for sizes 1..d."""
    window = {"lam": lambda_order}
    return [
        {
            "name": f"hook-vs-sine-size{size}-order{lambda_order}",
            "passed": all(
                quantum_dim_hook(nu, lam_trunc=lambda_order).restrict(maxes=window)
                == quantum_dim_sine(nu, lam_trunc=lambda_order).restrict(maxes=window)
                for nu in partitions_of(size)
            ),
        }
        for size in range(1, d + 1)
    ]


def _cut(block: LocalBlock, lam: Fraction) -> LocalBlock:
    data = {key: s.restrict(maxes={"lam": lam}) for key, s in block.data.items()}
    return LocalBlock(block.d, block.a_list, block.slots, data)


def gluing(*, d=3, lambda_order=4) -> list:
    """Identity-kernel and associativity laws of gluing for a in {1, 2} and
    sizes 1..d through lam^(lambda_order + size/a), the window of caps
    filled to lambda_order; level-zero caps at a=1 are the shifted framed
    series through lam^(lambda_order + 1)."""
    checks = []
    for a in (1, 2):
        for size in range(1, d + 1):
            # A cap of profile mu spans lam^(size/a - len(mu)) .. lam^(fill + size/a),
            # so the fourfold products below reach lam^(fill + 4 size/a - 3 size).
            top = lambda_order + Fraction(size, a)
            fam = cap_family(a, size, lam_max=lambda_order + 3 * size - 3 * size // a, x_deg_max=2)
            ident = identity_block(a, size)
            cut = _cut(fam, top)
            two_sided = _cut(glue(fam, ident, size), top) == cut and _cut(glue(ident, fam, size), top) == cut
            checks.append({"name": f"identity-kernel-a{a}-d{size}", "passed": two_sided})
            parts = partitions_of(size)
            data = {(m1, m2): fam.data[(m1,)] * fam.data[(m2,)] for m1 in parts for m2 in parts}
            tensor = LocalBlock(d=size, a_list=(a, a), slots=2, data=data)
            lhs = glue(glue(fam, tensor, size), fam, size)
            rhs = glue(fam, glue(tensor, fam, size), size)
            same = _cut(lhs, top) == _cut(rhs, top)
            checks.append({"name": f"associativity-a{a}-d{size}", "passed": same})
    i_unit = field_for(1).imaginary_unit()
    cap_order = lambda_order + 1
    for size in range(1, d + 1):
        ok = True
        for mu, base in g_bullet_table(1, size, lam_max=cap_order).items():
            cap = cap_series(1, mu, lam_max=cap_order).restrict(maxes={"lam": cap_order + size})
            scalar = i_unit ** (size - len(mu))
            shifted = {(key[0] + size,): c * scalar for key, c in base.terms.items()}
            ok = ok and shifted == dict(cap.terms)
        checks.append({"name": f"cap-vs-framed-series-d{size}", "passed": ok})
    return checks


def abelian(*, d=3, lambda_order=4, tau=0) -> list:
    """The cyclic-4 and Klein-4 lifts of the a=2 one-box profile scale each
    term by K^(1 + j - parts) and agree with each other."""
    K = 2
    window = {"lam": lambda_order}
    base = connected_profile_series(2, (1,), tau, d, lam_max=lambda_order).restrict(maxes=window)
    names = base.ctx.names
    lam_i = names.index("lam")
    p_idx = [i for i, n in enumerate(names) if n.startswith("p")]
    presentations = {"cyclic4": ((4,), (2,), ((1,),)), "klein4": ((2, 2), (1, 0), ((1, 0),))}
    lifts = {
        label: abelian_lift(*group, tau, d, lam_max=lambda_order).restrict(maxes=window)
        for label, group in presentations.items()
    }
    checks = []
    for label, lift in lifts.items():
        ok = len(lift.terms) == len(base.terms)
        for key, coeff in base.terms.items():
            parts = sum(key[i] for i in p_idx)
            ok = ok and lift.terms.get(key) == coeff * Fraction(K) ** (1 + key[lam_i] - parts)
        checks.append({"name": f"term-scaling-{label}", "passed": ok})
    same = lifts["cyclic4"] == lifts["klein4"]
    checks.append({"name": "lift-independence-of-presentation", "passed": same})
    return checks


SUITES = {
    "phi": phi,
    "burnside": burnside,
    "correspondence": correspondence,
    "dt-vertex": dt_vertex,
    "mv-a1": mv_a1,
    "quantum-dim": quantum_dim,
    "gluing": gluing,
    "abelian": abelian,
}
