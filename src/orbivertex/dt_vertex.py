"""Reduced one-leg box-counting vertex for cyclic quotients.

Everything on this side of the correspondence is a rational function of a
box variable q and color variables q_1 .. q_{a-1}: numerators are exact
Laurent monomial sums, and denominators are products of cyclotomic-style
factors (1 - s q^k).  The closed form of the reduced vertex, the brute
force colored box enumerator, and the exact change of variables into
trigonometric series all live here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

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
    PrecisionError,
    Series,
    SeriesContext,
    VarSpec,
    _frac_str,
    coeff_to_data,
    self_in_window_static,
)


class RationalForm:
    """A rational function num / prod (1 - s q^k)^mult with exact Laurent
    numerator terms.  Numerator keys are the integer exponents of q and
    q_1 .. q_{a-1}."""

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
        """Monomial with the given integer exponents of q and the q_l (all
        zero when ql_exps is empty)."""
        exps = (q_exp,) + (tuple(ql_exps) or (0,) * (a - 1))
        if len(exps) != a:
            raise ValueError("need one exponent per color variable")
        key = tuple(int(e) for e in exps)
        if key != exps:
            raise ValueError(f"exponents {exps} are not all integers")
        return cls(a, {key: Fraction(coeff)}, {})

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
                num[k] = num.get(k, 0) + ca * cb
        den = dict(self.den)
        for f, m in other.den.items():
            den[f] = den.get(f, 0) + m
        return RationalForm(self.a, num, den)

    def numerator_over(self, den: dict) -> dict:
        """The numerator of this form written over the denominator den
        ({(k, s): mult}): num times prod (1 - s q^k)^(den[f] - self.den[f]),
        without zero terms.  Raises ValueError when den lacks some factor
        of this form's own denominator."""
        for f, m in self.den.items():
            if den.get(f, 0) < m:
                raise ValueError(f"denominator {den} lacks the factor {f}^{m} of the form")
        # The extra factors depend on q alone: their product is one integer
        # polynomial in q, applied to every numerator term.
        poly = {0: 1}
        for (k, s), m in den.items():
            for _ in range(m - self.den.get((k, s), 0)):
                new = dict(poly)
                for e, c in poly.items():
                    new[e + k] = new.get(e + k, 0) - s * c
                poly = new
        poly = [(e, c) for e, c in poly.items() if c]
        num = {}
        for key, c in self.num.items():
            n, colors = key[0], key[1:]
            for e, p in poly:
                k = (n + e,) + colors
                num[k] = num.get(k, 0) + c * p
        return {k: c for k, c in num.items() if c}

    def __add__(self, other):
        """Sum over the least common denominator.  The correspondence check
        expands its forms once with numerator_over instead; this operator
        stays because the benchmark tracer (bench/tracer.py) wraps it by
        name, until the package reports its own stage spans."""
        self._require_same(other)
        den = dict(self.den)
        for f, m in other.den.items():
            den[f] = max(den.get(f, 0), m)
        na = self.numerator_over(den)
        for k, c in other.numerator_over(den).items():
            na[k] = na.get(k, 0) + c
        return RationalForm(self.a, na, den)

    def flip_q_sign(self) -> "RationalForm":
        """Substitute q -> -q: numerator terms change sign with odd q
        exponents, and denominator factors change their sign tag by (-1)^k."""
        num = {key: -c if key[0] % 2 else c for key, c in self.num.items()}
        den = {}
        for (k, s), m in self.den.items():
            f = (k, s * (-1) ** k)
            den[f] = den.get(f, 0) + m
        return RationalForm(self.a, num, den)

    def to_series(self, ctx: SeriesContext, q_max: int) -> Series:
        """Expand into a series in q (complete through q^q_max) with exact
        Laurent dependence on the color variables."""
        if not self.num:
            return Series.zero(ctx)
        fill = q_max + max(0, -min(key[0] for key in self.num))
        total = Series.zero(ctx)
        den_inv = Series.one(ctx)
        for (k, s), m in self.den.items():
            base = Series.one(ctx) - Series.monomial(ctx, {"q": k}, s)
            den_inv = den_inv * base.restrict(maxes={"q": fill}).invert() ** m
        for key, c in self.num.items():
            exps = {"q": key[0]}
            for l in range(1, self.a):
                if key[l]:
                    exps[f"q{l}"] = key[l]
            total = total + Series.monomial(ctx, exps, c) * den_inv
        return total.restrict(maxes={"q": q_max})

    def to_data(self) -> dict:
        """JSON-ready form: numerator terms with natural exponents in q and
        the color variables, denominator as (k, sign, mult) factors."""
        numerator = []
        for key in sorted(self.num):
            exps = [_frac_str(e) for e in key]
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
    (prod_{j>l} q_j) q^m over colors l and m >= 0.  The numerator counts
    letters, so its coefficients are ints."""
    if k < 1:
        raise ValueError("power sum index must be positive")
    num = {}
    for l in range(a):
        key = [0] + [k if j > l else 0 for j in range(1, a)]
        key = tuple(key)
        num[key] = num.get(key, 0) + 1
    return RationalForm(a, num, {(k, 1): 1})


@lru_cache(maxsize=None)
def _powersum_products(a: int, d: int) -> tuple:
    # (mu, p_mu at the colored alphabet) for every mu of size d, with int
    # numerator coefficients.
    out = []
    for mu in partitions_of(d):
        prod = powersum_rational(a, mu[0])
        for part in mu[1:]:
            prod = prod * powersum_rational(a, part)
        out.append((mu, prod))
    return tuple(out)


@lru_cache(maxsize=None)
def schur_rational(nu: tuple, a: int) -> RationalForm:
    """Schur function at the colored alphabet via the character expansion
    sum_mu chi^nu(mu)/z_mu p_mu.  Each product p_mu it uses is written once
    over their least common denominator, and the numerators are summed in
    integers, scaled by the least common multiple of the z_mu."""
    nu = check_partition(nu)
    d = sum(nu)
    if d == 0:
        return RationalForm.one(a)
    terms = [(chi(nu, mu), z_aut(mu), prod) for mu, prod in _powersum_products(a, d)]
    terms = [t for t in terms if t[0]]
    scale = lcm(*(z for _, z, _ in terms))
    den = {}
    for _, _, prod in terms:
        for f, m in prod.den.items():
            den[f] = max(den.get(f, 0), m)
    num = {}
    for c, z, prod in terms:
        w = c * (scale // z)
        for k, v in prod.numerator_over(den).items():
            num[k] = num.get(k, 0) + w * v
    return RationalForm(a, {k: Fraction(v, scale) for k, v in num.items()}, den)


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
    """The lam orders that inverting the denominator images loses: m + 1
    for m factors (with multiplicity) whose image vanishes at lam = 0, and
    0 when there are none.  Such an image 1 - e^(i k lam), filled through
    lam^F, starts at lam^1, so its inverse starts at lam^-1 and is complete
    through lam^(F - 2).  A product is complete as far as each factor's top
    plus the lowest exponents of the others: the numerator (lam^0 through
    lam^F) and the m inverses leave lam^(F - m - 1).  Other images start at
    lam^0 and lose nothing."""
    m = sum(mult for (k, s), mult in rf.den.items() if s * (-1) ** k == 1)
    return m + 1 if m else 0


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
    """Exact image of token * rf in the trigonometric variables, where the
    composite degree token q^(d/2) prod_l q_l^(-dl/a) carries the
    fractional exponents of both sides of the correspondence.

    The substitution sends q to -exp(i lam) and each q_l to a fixed root
    of unity times an exponential in the x variables; the image of the
    token is pinned by the degree d.  A numerator term q^n prod_l q_l^m_l
    of rf, times the token, maps to a scalar times
    exp(alpha lam + sum_j c_j x_j), whose coefficient at
    lam^k prod_j x_j^g_j is alpha^k/k! prod_j c_j^g_j/g_j!; it is written
    out through lam^lam_fill and total x-degree x_deg_max, and the
    denominator inverses follow.  The rate alpha = i(d/2 + n) depends only
    on n and the c_j only on the m_l, so each x exponential is expanded
    once per set of m_l, the scaled x parts are summed per n, and
    exp(alpha lam) is expanded once per n.
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
    x_parts = {}  # ms -> (prod_j exp(c_j x_j) through x_deg_max, whether some c_j is nonzero)
    groups = {}  # n -> the x parts of its terms, scaled and summed
    for key, coeff in rf.num.items():
        n, ms = key[0], key[1:]
        scalar = lead * coeff * field.root_of_unity(a, -sum(ms))
        if n % 2:
            scalar = -scalar
        if ms not in x_parts:
            xs = {(0,) * (a - 1): field.one}
            used = False
            for j in range(a - 1):
                cj = x_base[j]
                for l, m in enumerate(ms):
                    if m:
                        cj = cj - Fraction(m, a) * x_step[j][l]
                if cj:
                    used = True
                    pows = _exp_coefficients(cj, x_deg_max)
                    xs = {
                        x[:j] + (g,) + x[j + 1 :]: c * p
                        for x, c in xs.items()
                        for g, p in enumerate(pows[: x_deg_max - sum(x) + 1])
                    }
            x_parts[ms] = (xs, used)
        group = groups.setdefault(n, {})
        for x, c in x_parts[ms][0].items():
            v = scalar * c
            acc = group.get(x)
            group[x] = v if acc is None else acc + v
    x_used = any(used for _, used in x_parts.values())
    terms = {}
    lam_used = False
    for n, group in groups.items():
        lam_coeff = i * (Fraction(d, 2) + n)
        if lam_coeff:
            lam_used = True
            lam_part = _exp_coefficients(lam_coeff, lam_fill)
        else:
            lam_part = [field.one]
        for x, c in group.items():
            if not c:
                continue
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
    fill = lam_max + lam_pad(rf)
    return change_of_vars(rf, d, fill, x_deg_max).restrict(maxes={"lam": lam_max})


def _r_bullet_zero_form(a: int, mu: tuple) -> RationalForm:
    # (-1)^(d - len(mu)) / z_mu * prod_k p_{mu_k} at the sign-flipped colored
    # alphabet, for a nonempty checked mu; change_of_vars adds the token.
    d = sum(mu)
    prod = RationalForm.monomial(a, 0, (), Fraction((-1) ** (d - len(mu)), z_aut(mu)))
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


def _shifted_vertex(a: int, nu: tuple) -> RationalForm:
    # The sign and monomial shift of shape nu against its sign-flipped
    # reduced vertex; change_of_vars adds the token.
    A = colored_weights(nu, a)
    shift = tuple(A[l] - A[0] for l in range(1, a))
    lead = RationalForm.monomial(a, A[0], shift, (-1) ** A[0])
    return lead * reduced_vertex_closed(nu, a).flip_q_sign()


def _vertex_side_form(a: int, mu: tuple) -> RationalForm:
    # The shifted vertices summed with character weights, for a nonempty
    # checked mu.
    d = sum(mu)
    acc = RationalForm.zero(a)
    for nu in partitions_of(d):
        c = Fraction(chi(nu, mu), z_aut(mu))
        if c:
            acc = acc + _shifted_vertex(a, nu) * c
    return acc


def vertex_side_series(a: int, mu, lam_max: int = 5, x_deg_max: int = 4) -> Series:
    """The box-counting side of the correspondence, assembled literally:
    per-shape sign and monomial shifts against the sign-flipped reduced
    vertex, summed with character weights, then transported.

    correspondence_report no longer takes this path (it checks the
    rational identity behind it exactly); the function stays because the
    benchmark tracer (bench/tracer.py) wraps it by name, until the package
    reports its own stage spans."""
    mu = check_partition(mu)
    d = sum(mu)
    if d == 0:
        return Series.one(trig_context(a))
    return _transported(_vertex_side_form(a, mu), d, lam_max, x_deg_max)


def correspondence_report(a: int, d: int, lam_max: int = 5, x_deg_max: int = 4):
    """Compare the wave-function side against the box-counting side for
    every profile mu of size d.  Returns a list of (mu, agree) pairs, where
    agree holds when both halves below hold.

    The DT half is exact, with no lam window: the vertex-side form
    sum_nu chi^nu(mu)/z_mu times the shifted, sign-flipped reduced vertex
    of nu equals the power-sum form of r_bullet_zero as a rational function
    of q, q_1 .. q_{a-1}.  Every shifted vertex and every power-sum form is
    written once over one shared denominator D (each factor (1 - s q^k) at
    its largest multiplicity among them), so each profile compares a
    character-weighted sum of expanded numerators with one numerator.

    The GW half is on the window lam <= lam_max: the exponential table
    g_bullet_table(a, d) against r_bullet_zero(a, mu), whose transport has
    denominator multiplicity len(mu).

    Together they imply the literal check, the table against the
    transported vertex-side form on the window: change_of_vars is a ring
    map, so equal rational forms have equal images wherever both
    expansions are complete, and both are complete through lam_max.
    """
    from . import gw_vertex

    # Every series of size d starts at lam^-d or above.
    if lam_max < -d:
        raise PrecisionError(
            f"correspondence_report: window of 'lam' cut at {lam_max} lies below its floor {-d}"
        )
    profiles = partitions_of(d)
    shifted = [_shifted_vertex(a, nu) for nu in profiles]
    # z_mu times the power-sum form: the identity of mu then reads
    # sum_nu chi^nu(mu) shifted_nu = z_mu product_mu.
    products = [_r_bullet_zero_form(a, mu) * z_aut(mu) for mu in profiles]
    forms = shifted + products
    den = {}
    for rf in forms:
        for f, m in rf.den.items():
            den[f] = max(den.get(f, 0), m)
    # Every numerator over den, times the least common multiple of the
    # coefficient denominators, so that the sums below run in ints.
    scale = lcm(*(c.denominator for rf in forms for c in rf.num.values()))
    expanded = [
        RationalForm(a, {k: int(c * scale) for k, c in rf.num.items()}, rf.den).numerator_over(den)
        for rf in forms
    ]
    vertices = expanded[: len(profiles)]
    table = gw_vertex.g_bullet_table(a, d, lam_max=lam_max, x_deg_max=x_deg_max)
    window = {"lam": lam_max}
    out = []
    for mu, target in zip(profiles, expanded[len(profiles) :]):
        vertex_side = {}
        for nu, num in zip(profiles, vertices):
            c = chi(nu, mu)
            if c:
                for k, v in num.items():
                    vertex_side[k] = vertex_side.get(k, 0) + c * v
        dt_exact = {k: v for k, v in vertex_side.items() if v} == target
        gw_side = r_bullet_zero(a, mu, lam_max=lam_max, x_deg_max=x_deg_max)
        gw_window = table[mu].restrict(maxes=window) == gw_side.restrict(maxes=window)
        out.append((mu, dt_exact and gw_window))
    return out


def verify_correspondence(a: int, d: int, lam_max: int = 5, x_deg_max: int = 4) -> bool:
    return all(ok for _, ok in correspondence_report(a, d, lam_max, x_deg_max))
