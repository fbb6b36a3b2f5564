"""Acceptance criteria: the eleven headline identities at exact tolerance.

Each criterion is one test function, so a verbose pytest run prints one
pass/fail line per criterion.  Every comparison is exact (Fraction or
cyclotomic equality); there are no tolerances anywhere.  Criteria 2, 3, 5,
6, 8, 10 and 11, the six-pair part of 4 and the correspondence and DT
vertex reach targets run the named suites of ``orbivertex.verify.SUITES``
at explicit windows, the same checks that ``orbivertex verify`` prints,
and pin how many checks each suite ran.
"""

from fractions import Fraction

from orbivertex.characters import chi
from orbivertex.dt_vertex import r_bullet_zero, volume_counts
from orbivertex.gw_vertex import g_bullet_mu, lambda_g_psi_series, transport_back
from orbivertex.partitions import partitions_of, z_aut
from orbivertex.verify import SUITES

from oracles import chi_oracle, plane_partition_counts, taylor_inverse_sin_ratio


def run_suite(name, n_checks, **flags):
    """Run one registered suite; every check must pass and none may be missing."""
    checks = SUITES[name](**flags)
    assert len(checks) == n_checks, [c["name"] for c in checks]
    failed = [c["name"] for c in checks if not c["passed"]]
    assert not failed, failed


def test_criterion_01_characters_match_oracle_and_orthogonality():
    for d in range(1, 6):
        for nu in partitions_of(d):
            for mu in partitions_of(d):
                assert chi(nu, mu) == chi_oracle(nu, mu), (nu, mu)
    for d in range(1, 7):
        rows = partitions_of(d)
        for nu1 in rows:
            for nu2 in rows:
                total = sum(
                    Fraction(chi(nu1, mu) * chi(nu2, mu), z_aut(mu)) for mu in rows
                )
                assert total == (1 if nu1 == nu2 else 0)
        for mu1 in rows:
            for mu2 in rows:
                total = sum(chi(nu, mu1) * chi(nu, mu2) for nu in rows)
                assert total == (z_aut(mu1) if mu1 == mu2 else 0)
    print("criterion 1 PASS: characters match the oracle; orthogonality exact")


def test_criterion_02_kernel_zero_value_and_composition():
    # Zero values for sizes 1..6, composition through order 6 for sizes 1..4.
    run_suite("phi", 10, d=6, lambda_order=6)
    print("criterion 2 PASS: kernel is delta/z at zero and composes additively")


def test_criterion_03_burnside_matches_factorization_oracle():
    # Sizes 1..3, 0..4 simple branch points, plus the two spot values.
    run_suite("burnside", 4, d=3, r=4)
    print("criterion 3 PASS: weighted counts match brute-force factorizations")


def test_criterion_04_correspondence_with_pinned_initial_value():
    series = r_bullet_zero(1, (1,), lam_max=5)
    taylor = taylor_inverse_sin_ratio(6)
    for k in range(-1, 6):
        assert series.coefficient({"lam": k}) == taylor[k + 1]
    window = {"lam": 5}
    assert g_bullet_mu(1, (1,), lam_max=5).restrict(maxes=window) == series.restrict(
        maxes=window
    )
    # One check per profile over the six default (a, d) pairs.
    run_suite("correspondence", 10, lambda_order=5, x_order=4)
    print("criterion 4 PASS: both sides agree for all six (a, d) pairs")


def test_correspondence_reach_targets():
    # The reach targets (a, d) = (3, 3), (3, 5), (4, 2), (4, 4) and (2, 7)
    # at the default window, in Q(zeta_12), Q(zeta_16) and Q(zeta_8);
    # (2, 5) is left to the benchmark.
    run_suite("correspondence", 3, a=3, d=3)
    run_suite("correspondence", 7, a=3, d=5)
    run_suite("correspondence", 2, a=4, d=2)
    run_suite("correspondence", 5, a=4, d=4)
    run_suite("correspondence", 15, a=2, d=7)


def test_correspondence_reach_at_large_moduli():
    # (16, 1) and (20, 1) in Q(zeta_64) and Q(zeta_80): the closed
    # power-sum images make each a fraction of a second cold.
    run_suite("correspondence", 1, a=16, d=1)
    run_suite("correspondence", 1, a=20, d=1)


def test_criterion_05_character_sum_initial_formula():
    # Every profile of size 1..4, through order 8.
    run_suite("mv-a1", 11, d=4, lambda_order=8)
    print("criterion 5 PASS: character sum reproduces the one-leg series at a=1")


def test_criterion_06_quantum_dimension_formulas():
    run_suite("quantum-dim", 5, d=5, lambda_order=10)
    print("criterion 6 PASS: hook and sine-product formulas agree to order 10")


def test_criterion_07_sine_ratio_series():
    series = lambda_g_psi_series(lam_trunc=10)
    taylor = taylor_inverse_sin_ratio(10)
    for k in range(11):
        assert series.coefficient({"lam": k}) == taylor[k]
    assert taylor[2] == Fraction(1, 24)
    assert taylor[4] == Fraction(7, 5760)
    print("criterion 7 PASS: the closed Bernoulli expansion matches the Taylor-division oracle")


def test_criterion_08_box_counting_against_closed_form():
    # Every leg of size 1..4 at a in {1, 2, 3}, through added volume 8.
    run_suite("dt-vertex", 33, d=4, enumerate=8)
    assert volume_counts((), 4) == plane_partition_counts(4) == [1, 1, 3, 6, 13]
    print("criterion 8 PASS: enumerator ratios match the closed reduced vertex")


def test_dt_vertex_reach_targets():
    # Legs of size up to 3 at a = 4 and a = 6, in 4 and 6 colors.
    run_suite("dt-vertex", 6, a=4, d=3)
    run_suite("dt-vertex", 6, a=6, d=3)


def test_criterion_09_framing_transport_round_trip():
    for a in (1, 2):
        for d in (1, 2, 3):
            for mu in partitions_of(d):
                base = r_bullet_zero(a, mu, lam_max=6, x_deg_max=3)
                window = {"lam": 6}
                for tau in (1, 2):
                    recovered = transport_back(a, mu, tau, lam_max=6, x_deg_max=3)
                    assert recovered.restrict(maxes=window) == base.restrict(
                        maxes=window
                    ), (a, mu, tau)
    print("criterion 9 PASS: framing transport round-trips exactly")


def test_criterion_10_abelian_lift_term_scaling():
    # Two lifts and their agreement, at framing 0 and 1, sizes up to 3, lam^4.
    for tau in (0, 1):
        run_suite("abelian", 3, d=3, lambda_order=4, tau=tau)
    print("criterion 10 PASS: both order-4 groups lift with the K-power scaling")


def test_criterion_11_gluing_algebra_and_cap_consistency():
    # Identity and associativity for a in {1, 2}, sizes 1..3 through
    # lam^(3 + size/a), the window of caps filled to lam^3;
    # caps at a=1 against the framed series through lam^4.
    run_suite("gluing", 15, d=3, lambda_order=3)
    print("criterion 11 PASS: gluing identity and associativity hold; caps consistent")
