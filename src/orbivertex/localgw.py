"""Boundary-indexed local invariant blocks and their gluing algebra.

A :class:`LocalBlock` is a family of exact series indexed by tuples of
boundary partitions of a fixed degree.  The basic building block is the
one-stack-point cap: the framing-zero vertex series carried onto a
``lambda^(1/a)`` exponent lattice by the exact rescaling

    lambda-exponent  k  |->  k + d/a,      x_j  |->  lambda^(1 - j/a) x_j,

together with an overall factor i^(d - l(mu)).  Blocks combine by
contracting matching boundary slots with the z_mu-weighted pairing
``sum_mu z_mu * left[..., mu] * right[mu, ...]``.  A tube is the two-slot
block of transport kernels Phi_{nu,mu}; gluing a family against a tube is
framing transport, and the tube at argument zero is the diagonal kernel
``1/z_mu``, the two-sided identity.
"""

from __future__ import annotations

import csv
import io
import json
from functools import lru_cache

from .dt_vertex import r_bullet_zero
from .exactnum import field_for
from .hurwitz import _kernel_powers, _phi_kernel
from .partitions import check_partition, partitions_of, z_aut
from .series import GradeCap, Series, SeriesContext, VarSpec, _Record, coeff_to_data, require_fields


@lru_cache(maxsize=None)
def local_context(a: int) -> SeriesContext:
    """Variables lam, x_1 .. x_{a-1} with lam exponents on the (1/a)-lattice."""
    if a < 1:
        raise ValueError("stack order must be a positive integer")
    var_specs = [VarSpec("lam", a)]
    weights = {}
    for j in range(1, a):
        var_specs.append(VarSpec(f"x{j}"))
        weights[f"x{j}"] = 1
    return SeriesContext(var_specs, caps=[GradeCap("xdeg", weights)])


def cap_series(a: int, mu, lam_max: int = 5, x_deg_max: int = 4) -> Series:
    """Level-zero one-stack-point cap series for boundary profile ``mu``.

    Starts from the framing-zero series, whose window reaches lam_max in
    integer lambda powers, and applies the exact monomial rescaling that
    shifts each term's lambda exponent by d/a plus (1 - j/a) per power of
    x_j.  The rescaling is injective on exponent keys, so completeness is
    preserved: the result is complete through scaled lambda exponent
    a*lam_max + d within the retained x-degree cap.
    """
    mu = check_partition(mu)
    d = sum(mu)
    base = r_bullet_zero(a, mu, lam_max=lam_max, x_deg_max=x_deg_max)
    ctx = local_context(a)
    if base.ctx.names != ctx.names:
        raise ValueError("unexpected variable layout in the framing-zero series")
    scalar = field_for(a).imaginary_unit() ** (d - len(mu))
    terms = {}
    for key, c in base.terms.items():
        new_lam = a * key[0] + d + sum(m * (a - j) for j, m in enumerate(key[1:], start=1))
        terms[(new_lam,) + tuple(key[1:])] = c * scalar
    floors = (a * base.floors[0] + d,) + tuple(base.floors[1:])
    lam_top = None if base.tops[0] is None else a * base.tops[0] + d
    # The rescaling pushes some complete terms past the boxed lambda bound
    # (the exact guarantee region is not a box); keep only the boxed window
    # so every stored coefficient is jointly guaranteed.  The x variables
    # and the xdeg cap are the same in both contexts, so their tops carry
    # over unchanged.
    return Series(ctx, terms, floors, (lam_top,) + base.tops[1:]).restrict()


class LocalBlock(_Record):
    """A z_mu-contractible family of series with ``slots`` boundary indices.

    ``data`` maps tuples of ``slots`` partitions (each of total size ``d``)
    to series over a shared context; missing keys are exact zeros.
    ``a_list`` records the stack orders of the interior points carried by
    the block, in order.  ``==`` compares the entries' stored terms only,
    not their windows, so cut both blocks to one window with
    ``Series.restrict`` before comparing them.
    """

    _fields = ("d", "a_list", "slots", "data")

    def __init__(self, d: int, a_list: tuple = (), slots: int = 1, data: dict | None = None):
        self.d = d
        self.a_list = a_list
        self.slots = slots
        self.data = {} if data is None else data
        for key, series in self.data.items():
            if len(key) != self.slots:
                raise ValueError("boundary key length does not match slot count")
            for part in key:
                if sum(part) != self.d:
                    raise ValueError("boundary partition has the wrong degree")
            if not isinstance(series, Series):
                raise TypeError("block entries must be Series")


def cap_level0(a: int, mu, lam_max: int = 5, x_deg_max: int = 4) -> LocalBlock:
    """One-boundary cap block for a single profile ``mu``."""
    mu = check_partition(mu)
    return LocalBlock(
        d=sum(mu),
        a_list=(a,),
        slots=1,
        data={(mu,): cap_series(a, mu, lam_max=lam_max, x_deg_max=x_deg_max)},
    )


def cap_family(a: int, d: int, lam_max: int = 5, x_deg_max: int = 4) -> LocalBlock:
    """One-boundary cap block collecting every profile of degree ``d``."""
    data = {}
    for mu in partitions_of(d):
        data[(mu,)] = cap_series(a, mu, lam_max=lam_max, x_deg_max=x_deg_max)
    return LocalBlock(d=d, a_list=(a,), slots=1, data=data)


def tube(ctx: SeriesContext, d: int, var: str, scale, fill: int, mu=None) -> LocalBlock:
    """Two-slot block of transport kernels {(nu, mu): Phi_{nu,mu}(scale * var)}.

    Each kernel is expanded in ``var`` through ``fill`` from its moments
    against the powers of the scale, built once for the block; the kernel
    of each profile pair is built once and then read from a memo.  Exact
    zeros are left out.  With ``mu`` given, only that column is kept.
    """
    columns = partitions_of(d) if mu is None else (check_partition(mu),)
    powers = _kernel_powers(ctx, var, scale, {var: fill}, d)
    data = {}
    for nu in partitions_of(d):
        for col in columns:
            kernel = _phi_kernel(nu, col)._expand(ctx, powers)
            if not kernel.is_exact_zero():
                data[(nu, col)] = kernel
    return LocalBlock(d=d, a_list=(), slots=2, data=data)


def identity_block(a: int, d: int) -> LocalBlock:
    """The tube at argument zero: the diagonal kernel 1/z_mu, the identity
    for the z_mu pairing."""
    return tube(local_context(a), d, "lam", 0, 0)


def glue(left: LocalBlock, right: LocalBlock, d: int) -> LocalBlock:
    """Contract the last slot of ``left`` with the first slot of ``right``.

    Sums ``z_mu * left[..., mu] * right[mu, ...]`` over partitions mu of
    ``d``; the result keeps the remaining boundary slots of both factors.
    """
    if left.d != d or right.d != d:
        raise ValueError("block degrees do not match the gluing degree")
    if left.slots < 1 or right.slots < 1:
        raise ValueError("both blocks need a boundary slot to contract")
    out = {}
    for key_l, series_l in left.data.items():
        mu = key_l[-1]
        weight = z_aut(mu)
        for key_r, series_r in right.data.items():
            if key_r[0] != mu:
                continue
            piece = (series_l * series_r) * weight
            out_key = key_l[:-1] + key_r[1:]
            prev = out.get(out_key)
            out[out_key] = piece if prev is None else prev + piece
    return LocalBlock(
        d=d,
        a_list=left.a_list + right.a_list,
        slots=left.slots + right.slots - 2,
        data=out,
    )


# -- serialization --------------------------------------------------------


def _partition_label(part) -> str:
    return "(" + ",".join(str(p) for p in part) + ")"


def block_to_data(block: LocalBlock) -> dict:
    """JSON-ready form of a block; inverse of :func:`block_from_data`."""
    entries = []
    for key in sorted(block.data):
        entries.append(
            {
                "boundary": [list(part) for part in key],
                "series": block.data[key].to_data(),
            }
        )
    return {
        "kind": "local-block",
        "d": block.d,
        "a_list": list(block.a_list),
        "slots": block.slots,
        "entries": entries,
    }


def block_from_data(data: dict) -> LocalBlock:
    if data.get("kind") != "local-block":
        raise ValueError("not a serialized block")
    require_fields(data, "a local block", "entries", "d", "a_list", "slots")
    parsed = {}
    for entry in data["entries"]:
        require_fields(entry, "a block entry", "boundary", "series")
        key = tuple(check_partition(tuple(part)) for part in entry["boundary"])
        parsed[key] = Series.from_data(entry["series"])
    return LocalBlock(
        d=int(data["d"]),
        a_list=tuple(data["a_list"]),
        slots=int(data["slots"]),
        data=parsed,
    )


def emit_table(block: LocalBlock) -> str:
    """Render a block as CSV coefficient rows.

    Rows carry (d, b, gamma, value) per stored term, where b is the
    lambda exponent as an exact rational "num/den", gamma the x-exponents
    joined by ";", and value the canonical coefficient encoding.  Blocks
    with boundary slots gain a leading boundary column.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["d", "b", "gamma", "value"]
    if block.slots:
        header = ["boundary"] + header
    writer.writerow(header)
    for key in sorted(block.data):
        series = block.data[key]
        boundary = "|".join(_partition_label(part) for part in key)
        for exponents, coeff in series.natural_items():
            b = exponents[0]
            gamma = ";".join(str(e) for e in exponents[1:])
            encoded = coeff_to_data(coeff)
            value = encoded if isinstance(encoded, str) else json.dumps(encoded, sort_keys=True)
            row = [block.d, f"{b.numerator}/{b.denominator}", gamma, value]
            if block.slots:
                row = [boundary] + row
            writer.writerow(row)
    return buf.getvalue()


# -- gluing plans ----------------------------------------------------------


def check_block_spec(spec) -> str:
    """The kind of a plan entry, once it holds every field that kind needs."""
    require_fields(spec, "a plan block")
    kind = spec.get("kind")
    need = {"cap": ("a", "mu"), "cap-family": ("a", "d"), "identity": ("a", "d")}
    require_fields(spec, f"a {kind!r} block", *need.get(kind, ()))
    return kind


def plan_blocks(plan) -> list:
    """The block specs of a gluing plan, once it holds a degree and at
    least one block."""
    require_fields(plan, "the gluing plan", "d", "blocks")
    if not plan["blocks"]:
        raise ValueError("empty gluing plan")
    return plan["blocks"]


def block_from_spec(spec: dict, lam_max: int = 5, x_deg_max: int = 4) -> LocalBlock:
    """Build one block from a plan entry.

    Recognized forms: {"kind": "cap", "a": .., "mu": [..]},
    {"kind": "cap-family", "a": .., "d": ..}, {"kind": "identity",
    "a": .., "d": ..}, and inline {"kind": "local-block", ...} data.
    """
    kind = check_block_spec(spec)
    if kind == "cap":
        return cap_level0(int(spec["a"]), tuple(spec["mu"]), lam_max, x_deg_max)
    if kind == "cap-family":
        return cap_family(int(spec["a"]), int(spec["d"]), lam_max, x_deg_max)
    if kind == "identity":
        return identity_block(int(spec["a"]), int(spec["d"]))
    if kind == "local-block":
        return block_from_data(spec)
    raise ValueError(f"unknown block kind {kind!r}")


def run_glue_plan(plan: dict, lam_max: int = 5, x_deg_max: int = 4) -> LocalBlock:
    """Execute a chain contraction plan: fold glue() left to right.

    ``plan`` holds {"d": degree, "blocks": [block specs...]}; adjacent
    blocks are contracted in order, so the ends may be one-slot caps and
    the interior entries must expose two slots.
    """
    specs = plan_blocks(plan)
    d = int(plan["d"])
    acc = block_from_spec(specs[0], lam_max, x_deg_max)
    for spec in specs[1:]:
        acc = glue(acc, block_from_spec(spec, lam_max, x_deg_max), d)
    return acc
