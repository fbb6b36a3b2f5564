"""Reduced one-leg box-counting vertex for cyclic quotients.

Everything on this side of the correspondence is a rational function of a
box variable q and color variables q_1 .. q_{a-1}: numerators are exact
Laurent monomial sums (with exponents on the lattices (1/2)Z for q and
(1/a)Z for the q_l), and denominators are products of cyclotomic-style
factors (1 - s q^k).  The closed form of the reduced vertex, the brute
force colored box enumerator, and the exact change of variables into
trigonometric series all live here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .characters import chi
from .partitions import (
    boxes,
    check_partition,
    colored_box_count,
    conjugate,
    partitions_of,
    z_aut,
)
from .exactnum import field_for
from .series import (
    GradeCap,
    Series,
    SeriesContext,
    VarSpec,
    _frac_str,
    coeff_to_data,
    self_in_window_static,
)


class RationalForm:
    """A rational function num / prod (1 - s q^k)^mult with exact Laurent
    numerator terms.  Numerator keys store 2*(q exponent) followed by
    a*(q_l exponent) for l = 1 .. a-1."""

    __slots__ = ("a", "num", "den")

    def __init__(self, a: int, num: dict, den: dict):
        self.a = a
        self.num = {k: c for k, c in num.items() if c}
        self.den = {f: m for f, m in den.items() if m}
        for f, m in self.den.items():
            k, s = f
            if k < 1 or s not in (1, -1) or m < 0:
                raise ValueError(f"bad denominator factor {f}^{m}")

    @classmethod
    def zero(cls, a: int) -> "RationalForm":
        return cls(a, {}, {})

    @classmethod
    def monomial(cls, a: int, q_exp, ql_exps=(), coeff=1) -> "RationalForm":
        """Monomial with the given q exponent (a multiple of 1/2) and q_l
        exponents (multiples of 1/a)."""
        q2 = Fraction(q_exp) * 2
        if q2.denominator != 1:
            raise ValueError("q exponent must be a multiple of 1/2")
        key = [int(q2)]
        ql_exps = tuple(ql_exps)
        if len(ql_exps) not in (0, a - 1):
            raise ValueError("need one exponent per color variable")
        for l in range(a - 1):
            s = Fraction(ql_exps[l] if ql_exps else 0) * a
            if s.denominator != 1:
                raise ValueError("q_l exponents must be multiples of 1/a")
            key.append(int(s))
        return cls(a, {tuple(key): Fraction(coeff)}, {})

    @classmethod
    def one(cls, a: int) -> "RationalForm":
        return cls.monomial(a, 0)

    def _require_same(self, other: "RationalForm"):
        if self.a != other.a:
            raise ValueError("rational forms have different moduli")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return RationalForm(self.a, {k: v * c for k, v in self.num.items()}, dict(self.den))
        self._require_same(other)
        num = {}
        for ka, ca in self.num.items():
            for kb, cb in other.num.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                num[k] = num.get(k, Fraction(0)) + ca * cb
        den = dict(self.den)
        for f, m in other.den.items():
            den[f] = den.get(f, 0) + m
        return RationalForm(self.a, num, den)

    __rmul__ = __mul__

    def _expand_factors(self, extra: dict) -> dict:
        # Multiply the numerator out by prod (1 - s q^k)^m for the given
        # extra factors, returning the new numerator dict.
        num = dict(self.num)
        for (k, s), m in extra.items():
            for _ in range(m):
                new = {}
                for key, c in num.items():
                    new[key] = new.get(key, Fraction(0)) + c
                    shifted = (key[0] + 2 * k,) + key[1:]
                    new[shifted] = new.get(shifted, Fraction(0)) - s * c
                num = new
        return num

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalForm.monomial(self.a, 0, coeff=other)
        self._require_same(other)
        den = {}
        for f in set(self.den) | set(other.den):
            den[f] = max(self.den.get(f, 0), other.den.get(f, 0))
        na = self._expand_factors({f: m - self.den.get(f, 0) for f, m in den.items()})
        nb = other._expand_factors({f: m - other.den.get(f, 0) for f, m in den.items()})
        for k, c in nb.items():
            na[k] = na.get(k, Fraction(0)) + c
        return RationalForm(self.a, na, den)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalForm.monomial(self.a, 0, coeff=other)
        return self + (-other)

    def flip_q_sign(self) -> "RationalForm":
        """Substitute q -> -q.  Requires integer q exponents in the
        numerator; denominator factors change their sign tag by (-1)^k."""
        num = {}
        for key, c in self.num.items():
            if key[0] % 2:
                raise ValueError("sign flip needs integer q exponents")
            num[key] = num.get(key, Fraction(0)) + c * (-1) ** (key[0] // 2)
        den = {}
        for (k, s), m in self.den.items():
            f = (k, s * (-1) ** k)
            den[f] = den.get(f, 0) + m
        return RationalForm(self.a, num, den)

    def to_series(self, ctx: SeriesContext, q_max: int) -> Series:
        """Expand into a series in q (complete through q^q_max) with exact
        Laurent dependence on the color variables.  Requires integer
        exponents throughout."""
        a = self.a
        if not self.num:
            return Series.zero(ctx)
        shift = 0
        for key in self.num:
            if key[0] % 2 or any(s % a for s in key[1:]):
                raise ValueError("series expansion needs integer exponents")
            shift = max(shift, -(key[0] // 2))
        fill = q_max + shift
        total = Series.zero(ctx)
        invs = {}
        den_inv = Series.one(ctx)
        for (k, s), m in self.den.items():
            if (k, s) not in invs:
                base = Series.one(ctx) - Series.monomial(ctx, {"q": k}, s)
                invs[(k, s)] = base.restrict(maxes={"q": fill}).invert()
            den_inv = den_inv * invs[(k, s)] ** m
        for key, c in self.num.items():
            exps = {"q": key[0] // 2}
            for l in range(1, a):
                if key[l]:
                    exps[f"q{l}"] = key[l] // a
            total = total + Series.monomial(ctx, exps, c) * den_inv
        return total.restrict(maxes={"q": q_max}).require_window(maxes={"q": q_max})

    def to_data(self) -> dict:
        """JSON-ready form: numerator terms with natural exponents in q and
        the color variables, denominator as (k, sign, mult) factors."""
        numerator = []
        for key in sorted(self.num):
            exps = [_frac_str(Fraction(key[0], 2))]
            exps += [_frac_str(Fraction(key[l], self.a)) for l in range(1, self.a)]
            numerator.append({"exponents": exps, "coeff": coeff_to_data(self.num[key])})
        denominator = [
            {"k": k, "sign": s, "mult": m} for (k, s), m in sorted(self.den.items())
        ]
        return {"a": self.a, "numerator": numerator, "denominator": denominator}

    def __repr__(self):
        return f"RationalForm({len(self.num)} terms / {len(self.den)} factors, a={self.a})"


@lru_cache(maxsize=None)
def box_context(a: int) -> SeriesContext:
    """Variables q, q_1 .. q_{a-1} with the total-box-count grading, under
    which q weighs a (a full color cycle) and each q_l weighs 1."""
    weights = {"q": a}
    var_specs = [VarSpec("q")]
    for l in range(1, a):
        weights[f"q{l}"] = 1
        var_specs.append(VarSpec(f"q{l}"))
    return SeriesContext(var_specs, caps=[GradeCap("vol", weights)])


@lru_cache(maxsize=None)
def powersum_rational(a: int, k: int) -> RationalForm:
    """p_k at the colored alphabet, as a rational form: the letters are
    (prod_{j>l} q_j) q^m over colors l and m >= 0."""
    if k < 1:
        raise ValueError("power sum index must be positive")
    num = {}
    for l in range(a):
        key = [0] + [a * k if j > l else 0 for j in range(1, a)]
        key = tuple(key)
        num[key] = num.get(key, Fraction(0)) + 1
    return RationalForm(a, num, {(k, 1): 1})


@lru_cache(maxsize=None)
def schur_rational(nu: tuple, a: int) -> RationalForm:
    """Schur function at the colored alphabet via the character expansion."""
    nu = check_partition(nu)
    d = sum(nu)
    if d == 0:
        return RationalForm.one(a)
    total = RationalForm.zero(a)
    for mu in partitions_of(d):
        c = Fraction(chi(nu, mu), z_aut(mu))
        if not c:
            continue
        prod = RationalForm.one(a)
        for part in mu:
            prod = prod * powersum_rational(a, part)
        total = total + prod * c
    return total


def colored_weights(nu, a: int) -> tuple:
    """The per-color box statistics A(l) for l = 0 .. a-1."""
    return tuple(colored_box_count(nu, l, a) for l in range(a))


def reduced_vertex_closed(nu, a: int) -> RationalForm:
    """Closed form of the reduced vertex: the Schur function of the
    conjugate shape at the colored alphabet, shifted by the per-color box
    statistics of the shape."""
    nu = check_partition(nu)
    A = colored_weights(nu, a)
    shifted = RationalForm.monomial(
        a, -A[0], tuple(A[0] - A[l] for l in range(1, a)), 1
    )
    return shifted * schur_rational(conjugate(nu), a)


# -- brute force colored box enumerator -------------------------------------

_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _base_candidates(cells) -> tuple:
    # Cells (0, y, z) that can start a fresh column: 2d-addable cells of
    # the leg shape.
    out = []
    ys = [y for y, _ in cells]
    zs = [z for _, z in cells]
    for y in range(max(ys, default=-1) + 2):
        for z in range(max(zs, default=-1) + 2):
            if (y, z) in cells:
                continue
            if (y == 0 or (y - 1, z) in cells) and (z == 0 or (y, z - 1) in cells):
                out.append((0, y, z))
    return tuple(out)


def lattice_ideal_states(nu, max_volume: int):
    """All downward-closed box configurations containing the leg cylinder
    with at most max_volume added boxes, listed per added volume."""
    nu = check_partition(nu)
    cells = frozenset(boxes(nu))
    base = _base_candidates(cells)

    def in_cyl(b):
        return (b[1], b[2]) in cells

    def addable(F):
        def in_pi(b):
            return in_cyl(b) or b in F

        cands = set(base)
        for f in F:
            for e in _UNITS:
                cands.add((f[0] + e[0], f[1] + e[1], f[2] + e[2]))
        out = []
        for c in cands:
            if in_pi(c):
                continue
            ok = True
            for i in range(3):
                if c[i] == 0:
                    continue
                pred = tuple(c[j] - (1 if j == i else 0) for j in range(3))
                if not in_pi(pred):
                    ok = False
                    break
            if ok:
                out.append(c)
        return out

    levels = [{frozenset()}]
    for _ in range(max_volume):
        nxt = set()
        for F in levels[-1]:
            for b in addable(F):
                nxt.add(F | {b})
        levels.append(nxt)
    return levels


def box_counting_series(nu, a: int, max_volume: int) -> Series:
    """Generating series of colored box counts over the leg cylinder,
    complete through total added volume max_volume.

    Each added box is colored by its leg coordinate minus its column
    coordinate mod a; the monomial of a configuration is
    q^(n_0) prod_l q_l^(n_l - n_0) where n_c counts added boxes of color c,
    so that q tracks full color cycles and the grading q -> a, q_l -> 1
    tracks total volume.
    """
    ctx = box_context(a)
    terms = {}
    for level in lattice_ideal_states(nu, max_volume):
        for F in level:
            counts = [0] * a
            for b in F:
                counts[(b[0] - b[2]) % a] += 1
            exps = {"q": counts[0]}
            for l in range(1, a):
                exps[f"q{l}"] = counts[l] - counts[0]
            key = ctx.key_from(exps)
            terms[key] = terms.get(key, Fraction(0)) + 1
    return Series(
        ctx,
        terms,
        tuple(min(k[i] for k in terms) for i in range(ctx.n)),
        (None,) * ctx.n,
        (Fraction(max_volume),),
    )


def volume_counts(nu, max_volume: int) -> list:
    """Number of configurations per added volume (colors ignored)."""
    return [len(level) for level in lattice_ideal_states(nu, max_volume)]


# -- change of variables into trigonometric series ---------------------------


@lru_cache(maxsize=None)
def trig_context(a: int) -> SeriesContext:
    """Variables lam, x_1 .. x_{a-1} with a total x-degree grading."""
    var_specs = [VarSpec("lam")]
    weights = {}
    for j in range(1, a):
        var_specs.append(VarSpec(f"x{j}"))
        weights[f"x{j}"] = 1
    return SeriesContext(var_specs, caps=[GradeCap("xdeg", weights)])


@lru_cache(maxsize=None)
def _den_factor_inverse(a: int, k: int, s: int, lam_fill: int) -> Series:
    # Inverse of the image of (1 - s q^k) under q -> -exp(i lam).
    ctx = trig_context(a)
    field = field_for(a)
    i = field.imaginary_unit()
    sign = s * (-1) ** k
    img = Series.one(ctx) - Series.exp_monomial(
        ctx, {"lam": 1}, i * k, maxes={"lam": lam_fill}
    ) * field.from_fraction(Fraction(sign))
    return img.invert()


def lam_pad(rf: RationalForm) -> int:
    """Window padding that absorbs the order loss of inverting the
    denominator images: two orders per factor whose image vanishes at
    lam = 0, plus a safety margin."""
    loss = 0
    for (k, s), m in rf.den.items():
        if s * (-1) ** k == 1:
            loss += 2 * m
    return loss + 2


def _exp_coefficients(c, top: int) -> list:
    # c^n / n! for n = 0 .. top.
    out = []
    p = c.field.one
    for n in range(top + 1):
        if n:
            p = p * c / n
        out.append(p)
    return out


def change_of_vars(rf: RationalForm, d: int, lam_fill: int, x_deg_max: int) -> Series:
    """Exact image of a rational form in the trigonometric variables.

    The substitution sends q to -exp(i lam) and each q_l to a fixed root
    of unity times an exponential in the x variables; the leading block of
    fractional exponents, q^(d/2) prod_l q_l^(-dl/a), is carried as one
    composite token whose image is pinned by the degree d.  Numerator keys
    must decompose accordingly: q exponents in d/2 + Z and q_l exponents
    in -dl/a + Z.

    A numerator term maps to a scalar times exp(alpha lam + sum_j c_j x_j),
    whose coefficient at lam^k prod_j x_j^g_j is
    alpha^k/k! prod_j c_j^g_j/g_j!; it is written out through lam^lam_fill
    and total x-degree x_deg_max, and the denominator inverses follow.
    """
    a = rf.a
    ctx = trig_context(a)
    field = field_for(a)
    i = field.imaginary_unit()

    def omega(power):
        return field.root_of_unity(2 * a, power)

    # Composite token scalar: one factor per unit of d.
    token_scalar = -field.root_of_unity(4 * a, -(a - 2)) * field.root_of_unity(a, -1)
    lead = token_scalar ** d
    # c_j = x_base[j] - sum_l (m_l / a) x_step[j][l], over j, l = 1 .. a-1.
    x_base = [-Fraction(d, a) * omega(j) for j in range(1, a)]
    x_step = [[omega(-2 * j * l) * (omega(j) - omega(-j)) for l in range(1, a)] for j in range(1, a)]
    terms = {}
    lam_used = x_used = False
    for key, coeff in rf.num.items():
        if (key[0] - d) % 2:
            raise ValueError(f"q exponent {Fraction(key[0],2)} not in {d}/2 + Z")
        n = (key[0] - d) // 2
        ms = []
        for l in range(1, a):
            t = key[l] + d * l
            if t % a:
                raise ValueError(f"q_{l} exponent not in -{d}*{l}/{a} + Z")
            ms.append(t // a)
        scalar = lead * coeff * field.root_of_unity(a, -sum(ms))
        if n % 2:
            scalar = -scalar
        # The x part: scalar * prod_j exp(c_j x_j) through total degree x_deg_max.
        xs = {(0,) * (a - 1): scalar}
        for j in range(a - 1):
            cj = x_base[j]
            for l, m in enumerate(ms):
                if m:
                    cj = cj - Fraction(m, a) * x_step[j][l]
            if cj:
                x_used = True
                pows = _exp_coefficients(cj, x_deg_max)
                xs = {
                    x[:j] + (g,) + x[j + 1 :]: c * p
                    for x, c in xs.items()
                    for g, p in enumerate(pows[: x_deg_max - sum(x) + 1])
                }
        lam_coeff = i * (Fraction(d, 2) + n)
        if lam_coeff:
            lam_used = True
            lam_part = _exp_coefficients(lam_coeff, lam_fill)
        else:
            lam_part = [field.one]
        for x, c in xs.items():
            for k, p in enumerate(lam_part):
                kx = (k,) + x
                v = c * p
                acc = terms.get(kx)
                terms[kx] = v if acc is None else acc + v
    maxes = (lam_fill if lam_used else None,) + (None,) * (a - 1)
    bounds = (Fraction(x_deg_max) if x_used else None,)
    # The window is the one the sum of the term series would have; a
    # negative extent in it leaves out even the constant terms.
    terms = {k: c for k, c in terms.items() if c and self_in_window_static(k, maxes, bounds, ctx)}
    total = Series(ctx, terms, (0,) * ctx.n, maxes, bounds)
    for (k, s), m in rf.den.items():
        total = total * _den_factor_inverse(a, k, s, lam_fill) ** m
    return total


# -- assembly of the correspondence -----------------------------------------


def _transported(rf: RationalForm, d: int, lam_max: int, x_deg_max: int) -> Series:
    fill = lam_max + lam_pad(rf) + d
    out = change_of_vars(rf, d, fill, x_deg_max)
    out = out.require_window(maxes={"lam": lam_max})
    return out.restrict(maxes={"lam": lam_max})


def _r_bullet_zero_form(a: int, mu: tuple) -> RationalForm:
    # The composite degree token times (-1)^(d - len(mu)) / z_mu * prod_k p_{mu_k}
    # at the sign-flipped colored alphabet, for a nonempty checked mu.
    d = sum(mu)
    token = tuple(-Fraction(d * l, a) for l in range(1, a))
    prod = RationalForm.monomial(a, Fraction(d, 2), token, Fraction((-1) ** (d - len(mu)), z_aut(mu)))
    for part in mu:
        prod = prod * powersum_rational(a, part).flip_q_sign()
    return prod


def r_bullet_zero(a: int, mu, lam_max: int = 5, x_deg_max: int = 4) -> Series:
    """Framing-zero disconnected generating series for one ramification
    profile: the composite degree token times the conjugate Schur sum
    sum_nu chi^nu(mu)/z_mu s_{nu'} at the sign-flipped colored alphabet.
    Since chi^{nu'}(mu) = (-1)^(d - len(mu)) chi^nu(mu) and
    p_mu = sum_nu chi^nu(mu) s_nu, that sum is the single product
    (-1)^(d - len(mu)) / z_mu * prod_k p_{mu_k}."""
    mu = check_partition(mu)
    d = sum(mu)
    if d == 0:
        return Series.one(trig_context(a))
    return _transported(_r_bullet_zero_form(a, mu), d, lam_max, x_deg_max)


def _vertex_side_form(a: int, mu: tuple) -> RationalForm:
    # Per-shape sign and monomial shifts against the sign-flipped reduced
    # vertex, summed with character weights, for a nonempty checked mu.
    d = sum(mu)
    acc = RationalForm.zero(a)
    for nu in partitions_of(d):
        c = Fraction(chi(nu, mu), z_aut(mu))
        if not c:
            continue
        A = colored_weights(nu, a)
        lead = RationalForm.monomial(
            a,
            Fraction(d, 2) + A[0],
            tuple(-Fraction(d * l, a) + A[l] - A[0] for l in range(1, a)),
            Fraction((-1) ** A[0]),
        )
        acc = acc + lead * reduced_vertex_closed(nu, a).flip_q_sign() * c
    return acc


def vertex_side_series(a: int, mu, lam_max: int = 5, x_deg_max: int = 4) -> Series:
    """The box-counting side of the correspondence, assembled literally:
    per-shape sign and monomial shifts against the sign-flipped reduced
    vertex, summed with character weights, then transported."""
    mu = check_partition(mu)
    d = sum(mu)
    if d == 0:
        return Series.one(trig_context(a))
    return _transported(_vertex_side_form(a, mu), d, lam_max, x_deg_max)


def correspondence_report(a: int, d: int, lam_max: int = 5, x_deg_max: int = 4):
    """Compare the wave-function side against the box-counting side for
    every profile of size d.  Returns a list of (mu, agree) pairs."""
    from . import gw_vertex

    out = []
    for mu in partitions_of(d):
        lhs = gw_vertex.g_bullet_mu(a, mu, lam_max=lam_max, x_deg_max=x_deg_max)
        rhs = vertex_side_series(a, mu, lam_max=lam_max, x_deg_max=x_deg_max)
        window = {"lam": lam_max}
        out.append((mu, lhs.restrict(maxes=window) == rhs.restrict(maxes=window)))
    return out


def verify_correspondence(a: int, d: int, lam_max: int = 5, x_deg_max: int = 4) -> bool:
    return all(ok for _, ok in correspondence_report(a, d, lam_max, x_deg_max))
