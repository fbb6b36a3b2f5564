"""The named verification suites: one registry of exact checks.

``SUITES`` maps each suite name to a plain function.  Its keyword
parameters are named after the CLI flags (``a``, ``d``, ``r``, ``tau``,
``lambda_order``, ``x_order``) and default to the windows ``orbivertex
verify`` uses when a flag is absent; ``verify`` refuses a flag that the
suite has no parameter for.  Each function returns a list of
``{"name", "passed", ...}`` checks.  ``orbivertex verify --suite NAME`` and
the acceptance tests both run through this registry, so every identity is
coded once.
"""

from __future__ import annotations

from fractions import Fraction

from .dt_vertex import correspondence_report
from .exactnum import field_for
from .gw_vertex import (
    abelian_lift,
    connected_profile_series,
    g_bullet_mu,
    mv_a1_check,
    quantum_dim_hook,
    quantum_dim_sine,
)
from .hurwitz import PhiKernel, burnside_value, factorization_oracle, phi_composition_check
from .localgw import LocalBlock, _partition_label, cap_family, cap_series, glue, identity_block
from .partitions import partitions_of, z_aut
from .series import _frac_str

DEFAULT_CORRESPONDENCE_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))


def phi(*, d=6, lambda_order=6) -> list:
    """The kernel is delta/z at zero for sizes 1..d and composes additively
    through the given order for sizes 1..min(d, 4)."""
    checks = []
    for size in range(1, d + 1):
        ok = all(
            PhiKernel(nu, mu).at_zero() == (Fraction(1, z_aut(nu)) if nu == mu else 0)
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
    checks = []
    for size in range(1, d + 1):
        ok = True
        table = []
        for nu in partitions_of(size):
            for mu in partitions_of(size):
                for branch in range(r + 1):
                    chi_euler = len(nu) + len(mu) - branch
                    value = burnside_value(chi_euler, nu, mu)
                    if value != factorization_oracle(chi_euler, nu, mu):
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
    return [
        {
            "name": f"hook-vs-sine-size{size}-order{lambda_order}",
            "passed": all(
                quantum_dim_hook(nu, lam_trunc=lambda_order)
                == quantum_dim_sine(nu, lam_trunc=lambda_order)
                for nu in partitions_of(size)
            ),
        }
        for size in range(1, d + 1)
    ]


def gluing(*, d=3, lambda_order=4) -> list:
    """Identity-kernel and associativity laws of gluing for a in {1, 2} and
    sizes 1..d through lam^lambda_order; level-zero caps at a=1 are the
    shifted framed series through lam^(lambda_order + 1)."""
    checks = []
    for a in (1, 2):
        for size in range(1, d + 1):
            fam = cap_family(a, size, lam_max=lambda_order, x_deg_max=2)
            ident = identity_block(a, size)
            two_sided = glue(fam, ident, size) == fam and glue(ident, fam, size) == fam
            checks.append({"name": f"identity-kernel-a{a}-d{size}", "passed": two_sided})
            tensor = LocalBlock(
                d=size,
                a_list=(a, a),
                slots=2,
                data={
                    (m1, m2): fam.data[(m1,)] * fam.data[(m2,)]
                    for m1 in partitions_of(size)
                    for m2 in partitions_of(size)
                },
            )
            lhs = glue(glue(fam, tensor, size), fam, size)
            rhs = glue(fam, glue(tensor, fam, size), size)
            checks.append({"name": f"associativity-a{a}-d{size}", "passed": lhs == rhs})
    i_unit = field_for(1).imaginary_unit()
    cap_order = lambda_order + 1
    for size in range(1, d + 1):
        ok = True
        for mu in partitions_of(size):
            cap = cap_series(1, mu, lam_max=cap_order)
            base = g_bullet_mu(1, mu, lam_max=cap_order)
            scalar = i_unit ** (size - len(mu))
            shifted = {(key[0] + size,): c * scalar for key, c in base.terms.items()}
            ok = ok and shifted == dict(cap.terms)
        checks.append({"name": f"cap-vs-framed-series-d{size}", "passed": ok})
    return checks


def abelian(*, d=3, lambda_order=4, tau=0) -> list:
    """The cyclic-4 and Klein-4 lifts of the a=2 one-box profile scale each
    term by K^(1 + j - parts) and agree with each other."""
    K = 2
    base = connected_profile_series(2, (1,), tau, d, lam_max=lambda_order)
    names = base.ctx.names
    lam_i = names.index("lam")
    p_idx = [i for i, n in enumerate(names) if n.startswith("p")]
    lifts = {
        "cyclic4": abelian_lift((4,), (2,), ((1,),), tau, d, lam_max=lambda_order),
        "klein4": abelian_lift((2, 2), (1, 0), ((1, 0),), tau, d, lam_max=lambda_order),
    }
    checks = []
    for label, lift in lifts.items():
        ok = len(lift.terms) == len(base.terms)
        for key, coeff in base.terms.items():
            parts = sum(key[i] for i in p_idx)
            ok = ok and lift.terms.get(key) == coeff * Fraction(K) ** (1 + key[lam_i] - parts)
        checks.append({"name": f"term-scaling-{label}", "passed": ok})
    checks.append(
        {
            "name": "lift-independence-of-presentation",
            "passed": lifts["cyclic4"].terms == lifts["klein4"].terms,
        }
    )
    return checks


SUITES = {
    "phi": phi,
    "burnside": burnside,
    "correspondence": correspondence,
    "mv-a1": mv_a1,
    "quantum-dim": quantum_dim,
    "gluing": gluing,
    "abelian": abelian,
}
