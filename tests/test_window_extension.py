"""Window extension: every public series producer at a window W equals the
same producer at a wider window W', cut back to W.  A producer whose
window claim outruns its fill disagrees with its wider self inside W."""

import pytest

from orbivertex.dt_vertex import _sine_product, r_bullet_zero
from orbivertex.gw_vertex import (
    assemble_G0,
    cap_closed_form,
    connected_profile_series,
    g_bullet_mu,
    lambda_g_psi_series,
    quantum_dim_hook,
    quantum_dim_sine,
    r_bullet_tau,
    transport_back,
)
from orbivertex.localgw import cap_series
from orbivertex.partitions import partitions_of
from orbivertex.series import PrecisionError

MODULI = (1, 2, 3)
PROFILES = tuple(mu for d in (1, 2, 3) for mu in partitions_of(d))
# (lam, x) windows; the wider window adds two to lam and one to x.
WINDOWS = ((0, 0), (1, 1), (3, 2), (2, 4))


def _extends(produce, lam, x=None):
    # produce(lam, x) against produce at the wider window, cut back to the
    # window the narrow series claims; x is None for producers without an
    # x window.
    narrow = produce(lam, x)
    wide = produce(lam + 2, None if x is None else x + 1)
    ctx = narrow.ctx
    maxes = {v: ctx.natural(i, m) for i, (v, m) in enumerate(zip(ctx.names, narrow.maxes)) if m is not None}
    bounds = {cap.name: b for cap, b in zip(ctx.caps, narrow.cap_bounds) if b is not None}
    assert wide.restrict(maxes, bounds) == narrow


def test_profile_series_extend_their_windows():
    for a in MODULI:
        for mu in PROFILES:
            # Every profile series starts at lam^-len(mu) or above.
            for lam, x in WINDOWS + ((-len(mu), 0),):
                _extends(lambda l, xd: r_bullet_zero(a, mu, l, xd), lam, x)
                _extends(lambda l, xd: g_bullet_mu(a, mu, l, xd), lam, x)
                _extends(lambda l, xd: cap_series(a, mu, l, xd), lam, x)
                # A transport reads each profile at no less than its own
                # lowest exponent, so it reaches down to lam^-len(mu) too.
                for tau in (1, -2):
                    _extends(lambda l, xd: r_bullet_tau(a, mu, tau, l, xd).series, lam, x)
                    _extends(lambda l, xd: transport_back(a, mu, tau, l, xd), lam, x)


def test_the_sine_product_reaches_the_window_it_is_asked_for():
    # Asked for through lam^m, the product of len(mu) inverse sines starts
    # at lam^-len(mu), claims lam^m as its top, and agrees there with a
    # build asked for two orders further.
    for a in MODULI:
        for mu in (mu for d in range(1, 5) for mu in partitions_of(d)):
            for m in range(-len(mu), 6):
                narrow = _sine_product(a, mu, m)
                assert (narrow.floors[0], narrow.maxes[0]) == (-len(mu), m), (a, mu, m)
                cut = {"lam": m}
                assert _sine_product(a, mu, m + 2).restrict(maxes=cut) == narrow.restrict(maxes=cut), (a, mu, m)


def test_caps_and_G0_extend_their_windows():
    for a in MODULI:
        for d in (1, 2, 3, 4):
            for gamma in ((), (1,), (a - 1, a - 1)):
                if not all(1 <= g < a for g in gamma):
                    continue
                for lam in (-1, 0, 3):
                    _extends(lambda l, xd: cap_closed_form(a, d, gamma, l), lam)
        for d_max in (1, 2, 3):
            for lam, x in WINDOWS:
                _extends(lambda l, xd: assemble_G0(a, d_max, xd, l), lam, x)
    for lam in (0, 1, 4):
        _extends(lambda l, xd: lambda_g_psi_series(l), lam)


def test_quantum_dimensions_extend_their_windows():
    for d in (0, 1, 2, 3, 4):
        for nu in partitions_of(d):
            for lam in (-d, 0, 3):
                for form in (quantum_dim_hook, quantum_dim_sine):
                    _extends(lambda l, xd: form(nu, l), lam)


def test_connected_series_extend_their_windows():
    for a, colors in ((1, ()), (2, ()), (2, (1,)), (3, (1, 2))):
        for tau in (0, 1):
            for d_max in (1, 2, 3):
                for lam in (-1, 0, 2):
                    if (a, colors, d_max, lam) == (2, (), 1, -1):
                        continue  # an empty window, refused below
                    _extends(lambda l, xd: connected_profile_series(a, colors, tau, d_max, l), lam)


def test_connected_series_refuse_a_cut_below_their_floor():
    # The disconnected sum keeps its constant 1 at every window, so a cut
    # below the connected series' floor is refused by name, not by the log.
    with pytest.raises(PrecisionError, match="window of 'lam' cut at -3 lies below its floor -1"):
        connected_profile_series(2, (1,), 1, 2, -3)
    # At a = 2 no degree-one cap has color total 0, so the uncolored series
    # through p_1 is zero, with floor lam^0.
    for tau in (0, 1):
        assert not connected_profile_series(2, (), tau, 1, 0).terms
        with pytest.raises(PrecisionError, match="window of 'lam' cut at -1 lies below its floor 0"):
            connected_profile_series(2, (), tau, 1, -1)
