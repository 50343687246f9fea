"""Point counting, reduction types and twists, checked against brute force.

The oracle here is direct enumeration of projective points from the long
Weierstrass equation, written independently of the library internals.
Frozen values below (a_2 = -2 for the conductor-11 curve, etc.) were worked
out by hand from the reduced equations before the library existed.
"""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmerkit.arith import is_fundamental_discriminant, kronecker_symbol, primerange
from selmerkit.curves import (
    MESTRE_BOUND,
    EllipticCurve,
    FieldSplit,
    _count_points_bsgs,
    _count_points_naive,
    _minimal_model_from_c4c6,
    _model_from_c4c6,
    hecke_an_list,
    quadratic_twist,
    reduction_type,
    split_conductor,
    trace_of_frobenius,
)
from selmerkit.errors import HypothesisError, InputError, InternalInvariantError

from conftest import CURVES

E11 = EllipticCurve(0, -1, 1, -10, -20, conductor=11, label="11a1")
E14 = EllipticCurve(1, 0, 1, 4, -6, conductor=14, label="14a1")
E15 = EllipticCurve(1, 1, 1, -10, -10, conductor=15, label="15a1")
E27 = EllipticCurve(0, 0, 1, 0, -7, conductor=27, label="27a1")
E37 = EllipticCurve(0, 0, 1, -1, 0, conductor=37, label="37a1")
E49 = EllipticCurve(1, -1, 0, -2, -1, conductor=49, label="49a1")


def brute_projective_count(ainvs, q):
    """#E(F_q) by testing every affine pair, plus the point at infinity."""
    a1, a2, a3, a4, a6 = (a % q for a in ainvs)
    n = 1
    for x in range(q):
        for y in range(q):
            lhs = (y * y + a1 * x * y + a3 * y) % q
            rhs = (x * x * x + a2 * x * x + a4 * x + a6) % q
            if lhs == rhs:
                n += 1
    return n


def test_invariants_of_the_conductor_11_curve():
    assert E11.b2 == -4
    assert E11.c4 == 496
    assert E11.c6 == 20008
    assert E11.discriminant == -161051  # -11^5


def test_invariants_of_the_conductor_37_curve():
    assert E37.c4 == 48
    assert E37.discriminant == 37


def test_hand_checked_traces():
    # worked out by listing points of the reduced equations
    assert trace_of_frobenius(E11, 2) == -2
    assert trace_of_frobenius(E11, 3) == -1
    assert trace_of_frobenius(E11, 5) == 1
    assert trace_of_frobenius(E37, 2) == -2


def test_traces_match_brute_force_at_good_primes():
    for E in (E11, E37, E14):
        for q in primerange(2, 100):
            if E.conductor % q == 0:
                continue
            count = brute_projective_count(E.ainvs, q)
            assert trace_of_frobenius(E, q) == q + 1 - count


def test_naive_count_matches_bsgs_above_the_crossover():
    for E in (E11, E37):
        for q in list(primerange(10007, 10100)) + [100003]:
            assert _count_points_naive(E, q) == _count_points_bsgs(E, q)


def test_bsgs_refuses_primes_at_or_below_mestres_bound():
    for q in (2, 3, 23, 97, MESTRE_BOUND):
        with pytest.raises(InternalInvariantError, match="Mestre"):
            _count_points_bsgs(E37, q)
    assert _count_points_bsgs(E37, 461) == brute_projective_count(E37.ainvs, 461)


@pytest.mark.parametrize("label", ["11a1", "17a1", "37a1"])
def test_bsgs_agrees_with_direct_counts_on_the_benchmark_twists(label):
    # the twists by -3 of conductors 99, 153 and 333: their sign pins count
    # a_q past Mestre's bound, where trace_of_frobenius hands q to BSGS
    Et = quadratic_twist(CURVES[label], -3)
    checked = 0
    for q in primerange(MESTRE_BOUND + 1, 1500):
        if Et.conductor % q:
            assert _count_points_bsgs(Et, q) == _count_points_naive(Et, q)
            checked += 1
    assert checked == 151


def test_hasse_bound_holds_on_a_sweep():
    for q in primerange(2, 2000):
        if E11.conductor % q == 0:
            continue
        aq = trace_of_frobenius(E11, q)
        assert aq * aq <= 4 * q


def test_reduction_types():
    assert reduction_type(E11, 7) == "good"
    assert reduction_type(E11, 11) == "split"
    assert trace_of_frobenius(E11, 11) == 1
    assert reduction_type(E27, 3) == "additive"
    assert trace_of_frobenius(E27, 3) == 0
    assert reduction_type(E49, 7) == "additive"
    assert reduction_type(E14, 2) in ("split", "nonsplit")
    assert trace_of_frobenius(E14, 2) in (1, -1)
    assert reduction_type(E15, 5) in ("split", "nonsplit")


@pytest.mark.parametrize("q", [9, 1, 0, -3, 27])
def test_reduction_type_refuses_a_non_prime_q(q):
    # 9 and 27 divide the conductor of 27a1, and q = 1 divides every conductor
    with pytest.raises(InputError, match=f"q={q} is not prime"):
        reduction_type(E27, q)


def test_multiplicative_traces_match_smooth_counts():
    # at a multiplicative prime, a_q = q - #smooth points of the reduction
    for E, q in ((E11, 11), (E14, 2), (E14, 7), (E15, 3), (E15, 5), (E37, 37)):
        a1, a2, a3, a4, a6 = (a % q for a in E.ainvs)
        smooth = 1
        for x in range(q):
            for y in range(q):
                lhs = (y * y + a1 * x * y + a3 * y) % q
                rhs = (x * x * x + a2 * x * x + a4 * x + a6) % q
                if lhs != rhs:
                    continue
                fy = (2 * y + a1 * x + a3) % q
                fx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % q
                if fy != 0 or fx != 0:
                    smooth += 1
        assert trace_of_frobenius(E, q) == q - smooth


def test_hecke_coefficient_list_is_multiplicative():
    a = hecke_an_list(E11, 60)
    assert a[0] == 0 and a[1] == 1
    assert a[2] == -2 and a[3] == -1 and a[5] == 1
    assert a[4] == a[2] ** 2 - 2  # good Euler factor at 2
    assert a[6] == a[2] * a[3]
    assert a[11] == 1
    assert a[22] == a[2] * a[11]
    assert a[44] == a[4] * a[11]  # a_{11^k} = a_11^k at the bad prime
    b = hecke_an_list(E37, 40)
    assert b[2] == -2 and b[4] == b[2] ** 2 - 2 and b[6] == b[2] * b[3]


def test_model_recovery_from_invariants():
    assert _model_from_c4c6(496, 20008) is not None
    assert _model_from_c4c6(0, 1) is None  # discriminant not integral
    assert _model_from_c4c6(1, 1) is None  # discriminant zero
    for E in (E11, E37, E27, E49):
        ai = _model_from_c4c6(E.c4, E.c6)
        cand = EllipticCurve(*ai, conductor=E.conductor)
        assert (cand.c4, cand.c6) == (E.c4, E.c6)


def test_minimization_undoes_an_unscaled_pair():
    for E in (E11, E37, E15):
        for D in (-7, -8, 5):
            ai = _minimal_model_from_c4c6(E.c4 * D ** 4, E.c6 * D ** 6)
            cand = EllipticCurve(*ai, conductor=E.conductor)
            assert (cand.c4, cand.c6) == (E.c4, E.c6)


def scan_model_from_c4c6(c4, c6):
    """The first integral model with invariants (c4, c6) met by scanning b2
    upward from -864 over a full period of the congruence conditions, or None.
    """
    num = c4 ** 3 - c6 ** 2
    if num == 0 or num % 1728 != 0:
        return None
    for b2 in range(-864, 865):
        r = b2 * b2 - c4
        if r % 24 != 0:
            continue
        b4 = r // 24
        s = -(b2 ** 3) + 36 * b2 * b4 - c6
        if s % 216 != 0:
            continue
        b6 = s // 216
        a1 = b2 % 2
        if (b2 - a1) % 4 != 0:
            continue
        a2 = (b2 - a1) // 4
        a3 = b6 % 2
        if (b6 - a3) % 4 != 0:
            continue
        a6 = (b6 - a3) // 4
        if (b4 - a1 * a3) % 2 != 0:
            continue
        a4 = (b4 - a1 * a3) // 2
        cand = (a1, a2, a3, a4, a6)
        cb2 = a1 * a1 + 4 * a2
        cb4 = 2 * a4 + a1 * a3
        cb6 = a3 * a3 + 4 * a6
        if cb2 * cb2 - 24 * cb4 == c4 and -(cb2 ** 3) + 36 * cb2 * cb4 - 216 * cb6 == c6:
            return cand
    return None


def scan_minimal_model(c4, c6):
    """(ainvs, u): the scanned model of (c4 / u^4, c6 / u^6) for the largest u
    that has one; every integral model scales the minimal one by an integer."""
    best, u = None, 1
    while u ** 4 <= abs(c4) or u ** 6 <= abs(c6):
        if c4 % u ** 4 == 0 and c6 % u ** 6 == 0:
            ai = scan_model_from_c4c6(c4 // u ** 4, c6 // u ** 6)
            if ai is not None:
                best = (ai, u)
        u += 1
    return best


def test_twists_are_the_reduced_minimal_models_of_the_scan():
    assert quadratic_twist(E37, -3).ainvs == (0, 0, 1, -9, -7)
    pairs = 0
    for E in CURVES.values():
        for D in range(-200, 201):
            if not is_fundamental_discriminant(D) or gcd(D, E.conductor) != 1:
                continue
            Et = quadratic_twist(E, D)
            ai, u = scan_minimal_model(E.c4 * D * D, E.c6 * D ** 3)
            scanned = EllipticCurve(*ai, conductor=Et.conductor)
            assert (Et.c4, Et.c6) == (scanned.c4, scanned.c6), (E.label, D)
            assert (Et.c4 * u ** 4, Et.c6 * u ** 6) == (E.c4 * D * D, E.c6 * D ** 3)
            assert Et.a1 in (0, 1) and Et.a3 in (0, 1) and Et.a2 in (-1, 0, 1), (E.label, D)
            pairs += 1
    assert pairs > 1000


def test_twist_traces_follow_the_quadratic_character():
    for E, D in ((E11, -7), (E37, -4), (E11, 13)):
        Et = quadratic_twist(E, D)
        assert Et.conductor == E.conductor * D * D
        assert Et.discriminant != 0
        for q in primerange(2, 200):
            if (E.conductor * D) % q == 0:
                continue
            assert trace_of_frobenius(Et, q) == kronecker_symbol(D, q) * trace_of_frobenius(E, q)


def test_twist_rejects_bad_discriminants():
    with pytest.raises(InputError):
        quadratic_twist(E11, 9)  # not fundamental
    with pytest.raises(InputError):
        quadratic_twist(E11, -12)  # 4m with m = -3 = 1 mod 4: not fundamental
    with pytest.raises(InputError):
        quadratic_twist(E11, -11)  # shares a factor with N


def test_split_conductor_for_the_demo_pair():
    fs = split_conductor(E11, -7)
    assert fs == FieldSplit(D_K=-7, n_plus=11, n_minus=1, nu_minus=0)
    fs2 = split_conductor(E11, -3)
    assert fs2.n_minus == 11 and fs2.nu_minus == 1
    fs3 = split_conductor(E14, -3)
    # 14 = 2 * 7: kronecker(-3, 2) = -1, kronecker(-3, 7) = 1
    assert fs3.n_plus == 7 and fs3.n_minus == 2 and fs3.nu_minus == 1


def test_split_conductor_rejects_square_inert_part():
    with pytest.raises(HypothesisError):
        split_conductor(E49, -4)


def test_constructor_validation():
    with pytest.raises(InputError):
        EllipticCurve(0, 0, 0, 0, 0, conductor=1)  # singular
    with pytest.raises(InputError):
        EllipticCurve(0, 0, 1, -1, 0, conductor=35)  # support mismatch
    with pytest.raises(InputError):
        EllipticCurve(0, 0, 1, -1, 0, conductor=0)


def test_conductor_exponents_match_the_reduction_types():
    for E in (E11, E14, E15, E27, E37, E49):
        E.check_conductor_exponents()
    for D in (-3, -4, -7, 13):
        quadratic_twist(E11, D).check_conductor_exponents()
    # the constructor checks the prime support only; the exponent check is
    # separate, and reduction_type still refuses the mismatch as internal
    for ainvs, N, q in (((0, -1, 1, -10, -20), 121, 11), ((0, 0, 1, 0, -7), 3, 3)):
        E = EllipticCurve(*ainvs, conductor=N)
        with pytest.raises(InputError, match=f"conductor exponent .* at q={q}"):
            E.check_conductor_exponents()
        with pytest.raises(InternalInvariantError):
            reduction_type(E, q)


@settings(max_examples=60, deadline=None)
@given(
    ai=st.tuples(*(st.integers(-5, 5) for _ in range(5))),
    q=st.sampled_from(list(primerange(5, 62))),
)
def test_counting_matches_brute_force_on_random_curves(ai, q):
    try:
        E = EllipticCurve(*ai, conductor=1)
    except InputError:
        return
    if E.discriminant % q == 0:
        return
    count = brute_projective_count(E.ainvs, q)
    assert trace_of_frobenius(E, q) == q + 1 - count
    assert (q + 1 - count) ** 2 <= 4 * q
