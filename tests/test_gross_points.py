"""Quadratic generator data, q-adic square roots, local embeddings, components."""

import random

import pytest
import sympy

from selmerkit.errors import HypothesisError, InputError
from selmerkit.gross_points import (
    GrossPointComponent,
    PadicMatrix2,
    QuadraticData,
    conjugate_embedding_theta,
    gross_point_component,
    local_embedding_J,
    local_embedding_theta,
    make_theta,
    padic_sqrt,
    relation_report,
)

FUNDAMENTAL = [3, 4, 7, 8, 11, 15, 19, 20, 23, 24, 31, 35, 40, 43, 47, 51, 52]


def symbolic_theta(D_K):
    """Oracle: expand theta in Q(sqrt(-D_K)) and read off trace and norm."""
    s = sympy.sqrt(-D_K)
    theta = (D_K - s) / 2 if D_K % 2 else (D_K - 2 * s) / 4
    conj = theta.conjugate()
    trace = sympy.expand(theta + conj)
    norm = sympy.expand(theta * conj)
    return int(trace), int(norm)


def slow_sqrt_lift(beta, q, m):
    """Oracle: base root by scanning, then one digit of precision per pass."""
    base = min(r for r in range(1, q) if (r * r - beta) % q == 0)
    s = base
    for j in range(1, m):
        mod = q ** (j + 1)
        step = q**j
        for digit in range(q):
            cand = s + digit * step
            if (cand * cand - beta) % mod == 0:
                s = cand
                break
        else:
            raise AssertionError("lift stuck")
    return s


def mat_mul(x, y, mod):
    a, b, c, d = x
    e, f, g, h = y
    return tuple(v % mod for v in (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))


# ------------------------------------------------------------------- theta


def test_theta_worked_examples():
    d7 = make_theta(7)
    assert (d7.theta_trace, d7.theta_norm) == (7, 14)
    d3 = make_theta(3)
    assert (d3.theta_trace, d3.theta_norm) == (3, 3)
    d4 = make_theta(4)
    assert (d4.theta_trace, d4.theta_norm) == (2, 2)
    d8 = make_theta(8)
    assert (d8.theta_trace, d8.theta_norm) == (4, 6)


def test_theta_matches_symbolic_expansion():
    for D_K in FUNDAMENTAL:
        data = make_theta(D_K)
        assert (data.theta_trace, data.theta_norm) == symbolic_theta(D_K)
        # the discriminant identity is exact integer arithmetic
        assert data.theta_trace**2 - 4 * data.theta_norm == -D_K


def test_theta_rejects_non_fundamental():
    for bad in (0, -7, 1, 2, 5, 6, 9, 12, 16, 18, 25, 27, 28):
        with pytest.raises(InputError):
            make_theta(bad)


def test_quadratic_data_consistency_check():
    with pytest.raises(InputError):
        QuadraticData(D_K=7, theta_trace=7, theta_norm=13)


# ------------------------------------------------------------------ matrix


def test_matrix_arithmetic_truncates_to_common_precision():
    x = PadicMatrix2(5, 4, (1, 2, 3, 4))
    y = PadicMatrix2(5, 2, (1, 0, 0, 1))
    assert (x * y).precision == 2
    assert (x + y).precision == 2
    with pytest.raises(InputError):
        x * PadicMatrix2(7, 4, (1, 0, 0, 1))
    with pytest.raises(InputError):
        x.truncate(9)
    with pytest.raises(InputError):
        PadicMatrix2(4, 2, (1, 0, 0, 1))
    with pytest.raises(InputError):
        PadicMatrix2(5, 0, (1, 0, 0, 1))


def test_companion_matrix_relations():
    data = make_theta(7)
    mat = local_embedding_theta(13, data, 6)
    assert mat.entries == (7, (-14) % 13**6, 1, 0)
    assert mat.trace() == 7
    assert mat.det() == 14
    assert mat.satisfies_polynomial(7, 14)
    bar = conjugate_embedding_theta(13, data, 6)
    assert (mat + bar).agrees_with(PadicMatrix2.scalar(7, 13, 6))
    assert bar.satisfies_polynomial(7, 14)


# ------------------------------------------------------------- square root


def test_sqrt_perfect_square_canonical_branch():
    assert padic_sqrt(4, 5, 3) == 2


def test_sqrt_of_two_mod_seven():
    got = padic_sqrt(2, 7, 4)
    assert got == slow_sqrt_lift(2, 7, 4)
    assert (got * got - 2) % 7**4 == 0
    assert got % 7 == 3  # smaller of the two base roots 3, 4


def test_sqrt_rejections():
    with pytest.raises(HypothesisError):
        padic_sqrt(3, 5, 4)  # non-residue
    with pytest.raises(HypothesisError):
        padic_sqrt(10, 5, 4)  # not a unit
    with pytest.raises(InputError):
        padic_sqrt(4, 2, 4)
    with pytest.raises(InputError):
        padic_sqrt(4, 6, 4)
    with pytest.raises(InputError):
        padic_sqrt(4, 5, 0)


def test_sqrt_deep_lifts():
    for beta, q in ((2, 7), (4, 5), (-7, 11), (13, 17), (-20, 3)):
        s = padic_sqrt(beta, q, 50)
        assert (s * s - beta) % q**50 == 0
        assert s == slow_sqrt_lift(beta, q, 50)


def test_sqrt_sign_flip_is_the_other_root():
    s = padic_sqrt(2, 7, 12)
    other = 7**12 - s
    assert (other * other - 2) % 7**12 == 0
    assert other % 7 == 4  # the non-canonical branch


def test_sqrt_random_squares_round_trip():
    rng = random.Random(7)
    for _ in range(60):
        q = rng.choice((3, 5, 7, 11, 13, 37))
        m = rng.randint(1, 30)
        r = rng.randrange(1, q**m)
        while r % q == 0:
            r = rng.randrange(1, q**m)
        s = padic_sqrt(r * r, q, m)
        mod = q**m
        assert (s - r) % mod == 0 or (s + r) % mod == 0
        assert s % q == min(s % q, q - s % q)


# -------------------------------------------------------------- embeddings


def test_conjugation_relation_by_hand():
    # D_K = 7, q = 5, beta = 4, m = 10, checked with raw tuple arithmetic
    data = make_theta(7)
    m, mod = 10, 5**10
    root = padic_sqrt(4, 5, m)
    jm = local_embedding_J(5, data, 4, m)
    assert jm.entries == tuple(v % mod for v in (-root, 7 * root, 0, root))
    theta = (7, -14 % mod, 1, 0)
    theta_bar = (0, 14, -1 % mod, 7)
    left = mat_mul(jm.entries, theta, mod)
    right = mat_mul(theta_bar, jm.entries, mod)
    assert left == right
    assert mat_mul(jm.entries, jm.entries, mod) == (4, 0, 0, 4)
    assert jm.det() == (-4) % mod


def test_relation_report_all_green():
    report = relation_report(5, make_theta(7), beta=4, precision=10)
    assert all(report.values()) and len(report) == 7


def test_relations_for_twenty_random_admissible_triples():
    rng = random.Random(2024)
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29)
    seen = 0
    while seen < 20:
        D_K = rng.choice(FUNDAMENTAL)
        q = rng.choice(primes)
        beta = -rng.randint(1, 40)
        if beta % q == 0 or sympy.jacobi_symbol(beta, q) != 1:
            continue
        report = relation_report(q, make_theta(D_K), beta, precision=10)
        assert all(report.values()), (D_K, q, beta, report)
        seen += 1


def test_negated_root_also_satisfies_relations():
    # branch choice is sign-symmetric: -sqrt(beta) works equally well
    data = make_theta(7)
    m, mod = 10, 5**10
    root = mod - padic_sqrt(4, 5, m)
    flipped = PadicMatrix2(5, m, (-root, 7 * root, 0, root))
    assert (flipped * flipped).agrees_with(PadicMatrix2.scalar(4, 5, m))
    theta = local_embedding_theta(5, data, m)
    bar = conjugate_embedding_theta(5, data, m)
    assert (flipped * theta).agrees_with(bar * flipped)


# -------------------------------------------------------------- components


def test_away_component_is_identity():
    comp = gross_point_component(31, "away", make_theta(7), 5)
    assert comp.matrix.entries == (1, 0, 0, 1)
    assert comp.denominator_square is None


def test_inert_component_matrix():
    # -7 is a non-residue mod 5, so 5 is inert in Q(sqrt(-7))
    comp = gross_point_component(5, "p_inert", make_theta(7), 6)
    assert comp.matrix.entries == (0, 1, (-1) % 5**6, 0)
    assert comp.matrix.det() == 1


def test_split_p_component():
    # -7 = 4 mod 11 is a square, so 11 splits in Q(sqrt(-7))
    data = make_theta(7)
    comp = gross_point_component(11, "p_split", data, 8)
    image = comp.matrix.entries[0]
    assert (image * image - 7 * image + 14) % 11**8 == 0
    assert comp.matrix.entries[1:] == ((-1) % 11**8, 1, 0)
    assert comp.matrix.det() == 1


def test_split_level_component():
    data = make_theta(7)
    comp = gross_point_component(11, "split_Nplus", data, 8)
    mod = 11**8
    image, conjugate = comp.matrix.entries[0], comp.matrix.entries[1]
    assert comp.matrix.entries[2:] == (1, 1)
    assert (image + conjugate) % mod == 7
    assert (image * conjugate) % mod == 14
    assert (comp.matrix.det() ** 2 + 7) % mod == 0
    assert comp.denominator_square == 7
    assert "1/sqrt(7)" in str(comp)


# (D_K, q) -> theta's image in Z/q^6; even D_K reads the same (trd - sqrt(-D_K))/2
FROZEN_EVEN_SPLIT_IMAGES = {(4, 5): 14558, (4, 13): 1999510, (8, 3): 510, (8, 11): 704687}


@pytest.mark.parametrize("D_K, q", list(FROZEN_EVEN_SPLIT_IMAGES))
def test_split_components_at_even_discriminants(D_K, q):
    data, mod = make_theta(D_K), q**6
    image = FROZEN_EVEN_SPLIT_IMAGES[D_K, q]
    assert gross_point_component(q, "p_split", data, 6).matrix.entries == (image, mod - 1, 1, 0)
    level = gross_point_component(q, "split_Nplus", data, 6)
    assert level.matrix.entries == (image, (data.theta_trace - image) % mod, 1, 1)


def test_component_case_consistency_errors():
    data = make_theta(7)
    with pytest.raises(InputError, match="inert"):
        gross_point_component(5, "p_split", data, 4)
    with pytest.raises(InputError, match="splits"):
        gross_point_component(11, "p_inert", data, 4)
    with pytest.raises(InputError, match="ramifies"):
        gross_point_component(7, "p_split", data, 4)
    with pytest.raises(InputError, match="odd prime"):
        gross_point_component(2, "p_inert", data, 4)
    with pytest.raises(InputError, match="unknown"):
        gross_point_component(11, "split", data, 4)
    # away never consults the splitting
    assert gross_point_component(7, "away", data, 4).matrix.det() == 1


def test_components_across_discriminants():
    rng = random.Random(5)
    primes = [3, 5, 11, 13, 17, 19, 23, 29, 37]
    for D_K in FUNDAMENTAL:
        data = make_theta(D_K)
        for q in rng.sample(primes, 4):
            sym = sympy.jacobi_symbol(-D_K, q)
            if sym == 0:
                continue
            case = "p_split" if sym == 1 else "p_inert"
            comp = gross_point_component(q, case, data, 10)
            assert comp.matrix.det() == 1
            if sym == 1:
                level = gross_point_component(q, "split_Nplus", data, 10)
                assert (level.matrix.det() ** 2 + D_K) % q**10 == 0
