"""Reduced one-leg box-counting vertex for cyclic quotients.

Everything on this side of the correspondence is a rational function of a
box variable q and color variables q_1 .. q_{a-1}: numerators are exact
Laurent monomial sums, and denominators are products of cyclotomic-style
factors (1 - s q^k).  The closed form of the reduced vertex, the brute
force colored box enumerator, and the exact change of variables into
trigonometric series all live here.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, lcm
from operator import add, mul

from .characters import chi
from .partitions import (
    aut_gamma,
    check_partition,
    colored_box_count,
    conjugate,
    gamma_vectors,
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
    _exp_coefficients,
    _frac_str,
    coeff_to_data,
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
        for (k, s), m in self.den.items():
            if k < 1 or s not in (1, -1) or m < 0:
                raise ValueError(f"bad denominator factor {(k, s)}^{m}")

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
        """Sum over the least common denominator."""
        return weighted_sum([(1, self), (1, other)])

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
        Laurent dependence on the color variables.  Each 1/(1 - s q^k)^m is
        the m-th power of the geometric series sum_n s^n q^(kn), written in
        closed form: the coefficient of q^(kn) is C(n + m - 1, m - 1) s^n."""
        if not self.num:
            return Series.zero(ctx)
        fill = q_max + max(0, -min(key[0] for key in self.num))
        names = ("q",) + tuple(f"q{l}" for l in range(1, self.a))
        # The numerator as the exact sum of its monomials, stored at once.
        num = {ctx.key_from(dict(zip(names, key))): Fraction(c) for key, c in self.num.items()}
        floors = tuple(min(0, *(key[i] for key in num)) for i in range(ctx.n))
        total = Series(ctx, num, floors, ctx.window())
        for (k, s), m in self.den.items():
            geom = {
                ctx.key_from({"q": k * n}): Fraction(comb(n + m - 1, m - 1) * s**n)
                for n in range(fill // k + 1)
            }
            total = total * Series(ctx, geom, (0,) * ctx.n, ctx.window({"q": fill}))
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


def weighted_sum(terms) -> RationalForm:
    """sum w * rf over (w, rf) pairs with rational weights, summed in
    integers over the least common denominator of the forms whose weight
    is nonzero, each factor (1 - s q^k) at its largest multiplicity among
    them; some weight must be nonzero.  Raises ValueError when the forms
    have different moduli."""
    terms = [(Fraction(w), rf) for w, rf in terms if w]
    first = terms[0][1]
    den = {}
    for _, rf in terms:
        first._require_same(rf)
        for f, m in rf.den.items():
            den[f] = max(den.get(f, 0), m)
    # One integer scale clears the denominators of every weighted coefficient.
    scale = lcm(*((w * c).denominator for w, rf in terms for c in rf.num.values()))
    num = {}
    for w, rf in terms:
        scaled = RationalForm(first.a, {k: int(w * c * scale) for k, c in rf.num.items()}, rf.den)
        for k, v in scaled.numerator_over(den).items():
            num[k] = num.get(k, 0) + v
    return RationalForm(first.a, {k: Fraction(v, scale) for k, v in num.items()}, den)


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
        key = (0,) + tuple(k if j > l else 0 for j in range(1, a))
        num[key] = num.get(key, 0) + 1
    return RationalForm(a, num, {(k, 1): 1})


@lru_cache(maxsize=None)
def _powersum_products(a: int, d: int) -> tuple:
    # (mu, p_mu at the colored alphabet) for every mu of size d, with int
    # numerator coefficients.
    return tuple(
        (mu, reduce(mul, [powersum_rational(a, part) for part in mu])) for mu in partitions_of(d)
    )


@lru_cache(maxsize=None)
def schur_rational(nu: tuple, a: int) -> RationalForm:
    """Schur function at the colored alphabet via the character expansion
    sum_mu chi^nu(mu)/z_mu p_mu, summed over the least common denominator
    of the products p_mu."""
    nu = check_partition(nu)
    d = sum(nu)
    if d == 0:
        return RationalForm.monomial(a, 0)
    return weighted_sum(
        [(Fraction(chi(nu, mu), z_aut(mu)), prod) for mu, prod in _powersum_products(a, d)]
    )


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


def _height_functions(nu, max_volume: int):
    """Every configuration over the leg cylinder of nu with at most
    max_volume added boxes, as a height function {(y, z): h > 0} on the
    cells of N^2 outside nu.  Heights weakly decrease in y and in z and
    are unbounded over nu, so each row is a weakly decreasing run that
    starts at its first cell outside nu; a row that ends empty at
    y >= len(nu) ends the configuration."""
    nu = check_partition(nu)
    if max_volume < 0:
        raise ValueError("max_volume must be nonnegative")
    heights = {}

    def first(y):
        return nu[y] if y < len(nu) else 0

    def extend(y, z, cap, room):
        # Row y holds heights from first(y) through z - 1; cell (y, z)
        # takes at most cap boxes, and room boxes are left in all.
        if z > first(y) or y < len(nu):
            yield from extend(y + 1, first(y + 1), room, room)
        else:
            yield dict(heights)
        if y and z >= first(y - 1):
            cap = min(cap, heights.get((y - 1, z), 0))
        for h in range(1, min(cap, room) + 1):
            heights[y, z] = h
            yield from extend(y, z + 1, h, room - h)
        heights.pop((y, z), None)

    yield from extend(0, first(0), max_volume, max_volume)


def box_counting_series(nu, a: int, max_volume: int) -> Series:
    """Generating series of colored box counts over the leg cylinder,
    complete through total added volume max_volume.

    The h boxes over cell (y, z) are colored (x - z) mod a for x < h; the
    monomial of a configuration is q^(n_0) prod_l q_l^(n_l - n_0) where
    n_c counts added boxes of color c, so that q tracks full color cycles
    and the grading q -> a, q_l -> 1 tracks total volume.
    """
    terms = Counter()
    for heights in _height_functions(nu, max_volume):
        counts = [0] * a
        for (_, z), h in heights.items():
            for x in range(h):
                counts[(x - z) % a] += 1
        terms[(counts[0],) + tuple(n - counts[0] for n in counts[1:])] += 1
    return Series.from_terms(box_context(a), terms, cap_bounds={"vol": max_volume})


def volume_counts(nu, max_volume: int) -> list:
    """Number of configurations per added volume (colors ignored)."""
    counts = [0] * (max_volume + 1)
    for heights in _height_functions(nu, max_volume):
        counts[sum(heights.values())] += 1
    return counts


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
    # Inverse of the image 1 - s (-1)^k e^(i k lam) of (1 - s q^k) under
    # q -> -exp(i lam), complete through lam^lam_fill.
    denominator = "1 - e^t" if s * (-1) ** k == 1 else "1 + e^t"
    return Series.inverse_trig(trig_context(a), "lam", denominator, k, lam_fill, field_for(a))


def lam_pad(rf: RationalForm) -> int:
    """The lam orders that the lam part of the image of rf costs: m for m
    denominator factors (with multiplicity) whose image vanishes at
    lam = 0.  Filled through lam^F, such an inverse 1/(1 - e^(i k lam))
    starts at lam^-1 and is complete through lam^F (it is a closed
    Bernoulli series), and exp(alpha lam) (lam^0 through lam^F) times the
    inverses in turn is complete as far as each factor's top plus the
    lowest exponents of the others: lam^(F - m).  The x part, cut to
    x-degree x_deg_max, has no lam, so the outer product keeps that top."""
    return sum(mult for (k, s), mult in rf.den.items() if s * (-1) ** k == 1)


def _x_images(rf: RationalForm, d: int, x_deg_max: int) -> dict:
    # {n: the x part of the image of token * (the numerator terms
    # q^n prod_l q_l^m_l of rf)}, each an x-only series through total
    # x-degree x_deg_max.  A term maps to a scalar times prod_j exp(c_j x_j),
    # and its lam part exp(i(d/2 + n) lam) depends on n alone.  It serves
    # only the literal route, _rational_form_image.
    a = rf.a
    ctx = trig_context(a)
    field = field_for(a)

    def omega(power):
        return field.root_of_unity(2 * a, power)

    # Composite token scalar: one factor per unit of d.
    token_scalar = -field.root_of_unity(4 * a, -(a - 2)) * field.root_of_unity(a, -1)
    lead = token_scalar ** d
    # c_j = x_base[j] - sum_l (m_l / a) x_step[j][l], over j, l = 1 .. a-1.
    x_base = [-Fraction(d, a) * omega(j) for j in range(1, a)]
    x_step = [[omega(-2 * j * l) * (omega(j) - omega(-j)) for l in range(1, a)] for j in range(1, a)]
    groups = {}  # n -> the x parts of its terms, scaled and summed
    x_used = False  # whether some c_j of some term is nonzero
    for key, coeff in rf.num.items():
        n, ms = key[0], key[1:]
        scalar = lead * coeff * field.root_of_unity(a, -sum(ms))
        # The term's scalar times prod_j exp(c_j x_j) through x_deg_max.
        xs = {(0,) * (a - 1): -scalar if n % 2 else scalar}
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
        group = groups.setdefault(n, {})
        for x, c in xs.items():
            acc = group.get(x)
            group[x] = c if acc is None else acc + c
    tops = ctx.window(None, {"xdeg": x_deg_max} if x_used else None)
    return {
        n: Series(ctx, {(0,) + x: c for x, c in group.items() if c}, (0,) * ctx.n, tops)
        for n, group in groups.items()
    }


@lru_cache(maxsize=None)
def _power_sum_image(a: int, k: int, x_deg_max: int) -> Series:
    # The x part of the image of the flipped p_k with its share k of the
    # token, in closed form.  Its a letters have the one q exponent 0, and
    # letter l (its q_j with j > l raised to k) maps to
    # lead * zeta_a^(k(l+1)) * prod_j exp(c_j(l) x_j), with
    # lead = (-zeta_4a^-(a-2) zeta_a^-1)^k = zeta_4a^(k(a-2)) and rate
    # c_j(l) = zeta_a^(-j(l+1)) c*_j, c*_j = -(k/a) zeta_2a^j.  So the
    # coefficient of x^gamma (gamma a color multiset, each color j counted
    # g_j times) sums zeta_a^((l+1)(k - sum(gamma))) over the letters: a
    # roots-of-unity filter, a * lead * (-k/a)^|gamma| * zeta_2a^sum(gamma)
    # / prod_j g_j! when sum(gamma) = k mod a, and 0 otherwise.  The window
    # is that of the literal expansion: x-degree <= x_deg_max, open at
    # a = 1, where the image is the constant a * lead; below x-degree 0 an
    # a > 1 window holds no term.
    ctx = trig_context(a)
    field = field_for(a)
    terms = {}
    if a == 1 or x_deg_max >= 0:
        for gamma in gamma_vectors(a, x_deg_max):
            total = sum(gamma)
            if (total - k) % a:
                continue
            key = [0] * a
            for g in gamma:
                key[g] += 1
            scale = a * Fraction(-k, a) ** len(gamma) / aut_gamma(gamma)
            terms[tuple(key)] = field.root_of_unity(4 * a, k * (a - 2) + 2 * total) * scale
    tops = ctx.window(cap_bounds={"xdeg": x_deg_max}) if a > 1 else ctx.window()
    return Series(ctx, terms, (0,) * ctx.n, tops)


def _x_product(factors) -> Series:
    # The product of x-only series, each partial product cut to the x window
    # of its last factor: a factor that starts above x-degree 0 pushes the
    # product's top past it.
    out = factors[0]
    for factor in factors[1:]:
        out = (out * factor)._clip_to(factor.tops)
    return out


@lru_cache(maxsize=None)
def _sine_product(a: int, mu: tuple, lam_max: int) -> Series:
    # prod_k 1/(e^(i k lam/2) - e^(-i k lam/2)) over the parts k of a
    # nonempty mu: it starts at lam^-len(mu) and is complete through
    # lam^lam_max.  Each factor is a closed Bernoulli series that, filled
    # through lam^F, starts at lam^-1 and is complete through lam^F, so a
    # product of len(mu) of them is complete through lam^(F - len(mu) + 1):
    # every factor is filled through lam_max + len(mu) - 1.  Both sides of
    # the correspondence read it.  It splits off the largest part, whose
    # tail of small parts then reaches one order further, so the profiles
    # of one length and window share their factors and the products of
    # their tails.
    if len(mu) > 1:
        return _sine_product(a, mu[:1], lam_max + len(mu) - 1) * _sine_product(a, mu[1:], lam_max + 1)
    return Series.inverse_trig(trig_context(a), "lam", "e^(t/2) - e^(-t/2)", mu[0], lam_max, field_for(a))


def change_of_vars(a: int, mu: tuple, lam_max: int, x_deg_max: int) -> Series:
    """Exact image of token * (-1)^(d - len(mu))/z_mu * prod_k p_{mu_k},
    the framing-zero form of a nonempty checked profile mu of size d at the
    sign-flipped colored alphabet, complete through lam^lam_max; the
    composite degree token q^(d/2) prod_l q_l^(-dl/a) carries the
    fractional exponents of both sides of the correspondence.

    The substitution sends q to -exp(i lam) and each q_l to a fixed root
    of unity times an exponential in the x variables.  The map is
    multiplicative, so the image is an x part times a lam part.  The x part
    is (-1)^(d - len(mu))/z_mu times the product of the images of the
    flipped p_{mu_k}, each with its share mu_k of the token, built once per
    (a, k, x_deg_max).  Each image is written in closed form: over the a
    letters of p_k the scalars and rates run through the a-th roots of
    unity, so their sum is a roots-of-unity filter, and the coefficient of
    x^gamma (gamma a color multiset of size <= x_deg_max) is
    a * zeta_4a^(k(a-2)) * (-k/a)^|gamma| * zeta_2a^sum(gamma) / aut(gamma)
    when sum(gamma) = k mod a, and 0 otherwise.  p_1's image starts at
    x-degree 1, so a product reaches past x-degree x_deg_max; each is cut
    back to it.  The lam part is e^(i d lam/2) prod_k 1/(1 - e^(i mu_k lam)),
    and since d is the sum of the parts that is
    (-1)^len(mu) prod_k 1/(e^(i mu_k lam/2) - e^(-i mu_k lam/2)), the sine
    product the wave-function side also reads.  An x part that cancels to
    nothing gets the window of its image and no lam terms.
    """
    x_part = _x_product([_power_sum_image(a, k, x_deg_max) for k in mu])
    # (-1)^(d - len(mu)) of the form times the (-1)^len(mu) of its lam part.
    return x_part * Fraction((-1) ** sum(mu), z_aut(mu)) * _sine_product(a, mu, lam_max)


def _rational_form_image(rf: RationalForm, d: int, lam_max: int, x_deg_max: int) -> Series:
    # The image of token * rf for any rational form of degree d, complete
    # through lam^lam_max, with its numerator expanded letter by letter:
    # the literal route of vertex_side_series.  A numerator term
    # q^n prod_l q_l^m_l, times the token, maps to a scalar times
    # exp(alpha lam + sum_j c_j x_j) with alpha = i(d/2 + n) depending on n
    # alone.  So the image separates: for each n, an x part X_n (the scaled
    # sum of prod_j exp(c_j x_j) over the terms with that n, through
    # x-degree x_deg_max) times a lam part L_n (exp(alpha lam) times each
    # denominator inverse in turn, all filled lam_pad(rf) orders past
    # lam_max), and one outer product X_n * L_n writes the (lam, x) terms.
    a = rf.a
    ctx = trig_context(a)
    fill = lam_max + lam_pad(rf)
    # A zero form keeps the denominators' floors.
    images = _x_images(rf, d, x_deg_max) or {0: Series.zero(ctx)}
    i = field_for(a).imaginary_unit()
    dens = [_den_factor_inverse(a, k, s, fill) for (k, s), m in rf.den.items() for _ in range(m)]
    pieces = []
    for n, xs in images.items():
        lam = Series.exp_monomial(ctx, {"lam": 1}, i * (Fraction(d, 2) + n), maxes={"lam": fill})
        # An x part that cancels to nothing takes the window alone.
        pieces.append(xs * reduce(mul, dens, lam) if xs.terms else reduce(mul, dens, xs * lam))
    return reduce(add, pieces)


# -- assembly of the correspondence -----------------------------------------


def r_bullet_zero(a: int, mu, lam_max: int = 5, x_deg_max: int = 4) -> Series:
    """Framing-zero disconnected generating series for one ramification
    profile: the composite degree token times the conjugate Schur sum
    sum_nu chi^nu(mu)/z_mu s_{nu'} at the sign-flipped colored alphabet.
    Since chi^{nu'}(mu) = (-1)^(d - len(mu)) chi^nu(mu) and
    p_mu = sum_nu chi^nu(mu) s_nu, that sum is the single product
    (-1)^(d - len(mu)) / z_mu * prod_k p_{mu_k}."""
    return _r_bullet_zero_series(a, check_partition(mu), lam_max, x_deg_max)


@lru_cache(maxsize=None)
def _r_bullet_zero_series(a: int, mu: tuple, lam_max: int, x_deg_max: int) -> Series:
    # One transport per distinct checked input: framing transport asks for
    # the same framing-zero series once per profile it glues.
    if not mu:
        return Series.one(trig_context(a))
    return change_of_vars(a, mu, lam_max, x_deg_max).restrict(maxes={"lam": lam_max})


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
    weights = [(Fraction(chi(nu, mu), z_aut(mu)), nu) for nu in partitions_of(sum(mu))]
    return weighted_sum([(c, _shifted_vertex(a, nu)) for c, nu in weights if c])


def vertex_side_series(a: int, mu, lam_max: int = 5, x_deg_max: int = 4) -> Series:
    """The box-counting side of the correspondence, assembled literally:
    per-shape sign and monomial shifts against the sign-flipped reduced
    vertex, summed with character weights, then transported.

    By character orthogonality it equals r_bullet_zero, which
    correspondence_report compares with the table instead; the function
    stays because the benchmark tracer wraps it by name."""
    mu = check_partition(mu)
    if not mu:
        return Series.one(trig_context(a))
    image = _rational_form_image(_vertex_side_form(a, mu), sum(mu), lam_max, x_deg_max)
    return image.restrict(maxes={"lam": lam_max})


def correspondence_report(a: int, d: int, lam_max: int = 5, x_deg_max: int = 4):
    """Compare the wave-function side against the box-counting side for
    every profile mu of size d, on the window lam <= lam_max.  Returns a
    list of (mu, agree) pairs.

    The wave-function side is the product table g_bullet_table(a, d), and
    the box-counting side is r_bullet_zero(a, mu), the transported
    power-sum form.  Both are an x part times the sine product of mu,
    asked for through lam_max and built once for the two; no exponential
    is formed, and the x parts come from the cap scalars on one side and
    from the power-sum images on the other.  The power-sum form is the
    character-weighted sum of the shifted reduced vertices, which
    vertex_side_series transports literally: the two agree by character
    orthogonality,
    sum_nu chi^nu(mu) s_{nu'} = (-1)^(d - len(mu)) p_mu, which holds by
    how schur_rational is built and is checked as a unit test.  The box
    counting behind the reduced vertex is the dt-vertex verify suite.
    """
    from . import gw_vertex

    # Every series of size d starts at lam^-d or above.
    if lam_max < -d:
        raise PrecisionError(
            f"correspondence_report: window of 'lam' cut at {lam_max} lies below its floor {-d}"
        )
    table = gw_vertex.g_bullet_table(a, d, lam_max=lam_max, x_deg_max=x_deg_max)
    window = {"lam": lam_max}
    return [
        (
            mu,
            table[mu].restrict(maxes=window)
            == r_bullet_zero(a, mu, lam_max=lam_max, x_deg_max=x_deg_max).restrict(maxes=window),
        )
        for mu in partitions_of(d)
    ]

