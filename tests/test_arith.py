"""Number-theoretic helpers, cross-checked against sympy and hand tables.

sympy is only a test dependency: it is the oracle for the integer
primitives that `selmerkit.arith` writes out itself.
"""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import jacobi_symbol as sympy_jacobi
from sympy.ntheory import primitive_root as sympy_primitive_root
from sympy.ntheory import sqrt_mod as sympy_sqrt_mod

from selmerkit.errors import InternalInvariantError

from selmerkit.arith import (
    _MR_BASES,
    _PSI_13,
    _is_strong_lucas_probable_prime,
    _is_strong_probable_prime,
    _rho_divisor,
    divisors,
    factorint,
    is_fundamental_discriminant,
    is_squarefree,
    isprime,
    jacobi_symbol,
    kronecker_symbol,
    padic_valuation,
    primerange,
    smallest_primitive_root,
    sqrt_mod_prime,
    totient,
)


@given(a=st.integers(-400, 400), n=st.integers(1, 200))
def test_jacobi_matches_sympy(a, n):
    m = 2 * n + 1
    assert jacobi_symbol(a, m) == sympy_jacobi(a, m)


def test_kronecker_hand_table():
    # (a|2) depends on a mod 8; sign handling at negative second argument
    assert kronecker_symbol(17, 2) == 1
    assert kronecker_symbol(7, 2) == 1
    assert kronecker_symbol(3, 2) == -1
    assert kronecker_symbol(-3, 2) == -1  # -3 = 5 mod 8
    assert kronecker_symbol(4, 2) == 0
    assert kronecker_symbol(-7, 11) == 1  # -7 = 4 = 2^2 mod 11
    assert kronecker_symbol(-3, 11) == -1
    assert kronecker_symbol(-4, 7) == -1
    assert kronecker_symbol(5, 5) == 0
    assert kronecker_symbol(12, 7) == kronecker_symbol(5, 7)


@given(a=st.integers(-300, 300), b=st.integers(-300, 300), n=st.integers(1, 150))
def test_kronecker_multiplicative_in_the_top_argument(a, b, n):
    assert kronecker_symbol(a * b, n) == kronecker_symbol(a, n) * kronecker_symbol(b, n)


@given(a=st.integers(-300, 300), m=st.integers(1, 60), n=st.integers(1, 60))
def test_kronecker_multiplicative_in_the_bottom_argument(a, m, n):
    assert kronecker_symbol(a, m * n) == kronecker_symbol(a, m) * kronecker_symbol(a, n)


def test_padic_valuation():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(12, 3) == 1
    assert padic_valuation(12, 5) == 0
    assert padic_valuation(0, 7) is None  # infinite
    assert padic_valuation(-5 * 7 ** 3, 7) == 3
    assert padic_valuation(3 ** 12, 3, cap=5) == 5
    assert padic_valuation(7, 3, cap=5) == 0


def test_fundamental_discriminants_small_table():
    fundamentals = {d for d in range(-30, 31) if is_fundamental_discriminant(d)}
    assert fundamentals == {
        -3, -4, -7, -8, -11, -15, -19, -20, -23, -24,
        5, 8, 12, 13, 17, 21, 24, 28, 29,
    }


def test_squarefree():
    assert is_squarefree(1) and is_squarefree(-1)
    assert is_squarefree(30) and not is_squarefree(18)
    assert not is_squarefree(0)


def test_smallest_primitive_root_matches_sympy():
    for ell in primerange(3, 200):
        assert smallest_primitive_root(ell) == sympy_primitive_root(ell)


@settings(max_examples=120)
@given(q=st.sampled_from(list(primerange(3, 500))), t=st.integers(1, 400))
def test_sqrt_mod_prime_roundtrip(q, t):
    a = t * t % q
    if a == 0:
        return
    r = sqrt_mod_prime(a, q)
    assert r * r % q == a
    assert r <= q - r  # canonical smaller root


def test_sqrt_mod_prime_matches_sympy_on_every_residue():
    for q in primerange(3, 2000):
        for a in {x * x % q for x in range(1, q)}:
            root = sympy_sqrt_mod(a, q)
            assert sqrt_mod_prime(a, q) == min(root, q - root), (a, q)


def test_sqrt_mod_prime_rejects_nonresidues():
    with pytest.raises(ValueError):
        sqrt_mod_prime(3, 7)


# ------------------------------------------------- primes and factorizations


def test_isprime_matches_sympy_below_10_5():
    assert [n for n in range(-10, 10**5) if isprime(n) != sympy.isprime(n)] == []


CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 825265)
# psi_k: the least composite that is a strong probable prime to the first k
# prime bases; each entry lists the prefix of _MR_BASES it passes
STRONG_PSEUDOPRIMES = {
    3215031751: 4,  # 2, 3, 5, 7
    3825123056546413051: 11,  # psi_11: 2, ..., 31
    318665857834031151167461: 12,  # psi_12: 2, ..., 37, so 12 bases are too few
    _PSI_13: 13,  # psi_13: 2, ..., 41, the first input past the proven range
}


@pytest.mark.parametrize("n", CARMICHAEL + tuple(STRONG_PSEUDOPRIMES))
def test_isprime_rejects_carmichael_numbers_and_strong_pseudoprimes(n):
    assert not isprime(n)


@pytest.mark.parametrize("n, k", STRONG_PSEUDOPRIMES.items())
def test_strong_pseudoprimes_fool_their_prefix_of_bases(n, k):
    # pins the data above: without the last bases these would pass
    assert all(_is_strong_probable_prime(n, a) for a in _MR_BASES[:k])
    assert k == 13 or not _is_strong_probable_prime(n, _MR_BASES[k])


def test_strong_lucas_test_matches_sympy():
    # the strong Lucas pseudoprimes 5459, 5777, 10877, ... pass on both sides
    for n in range(3, 30000, 2):
        assert _is_strong_lucas_probable_prime(n) == sympy.ntheory.primetest.is_strong_lucas_prp(n), n


@settings(max_examples=150, deadline=None)
@given(n=st.integers(_PSI_13 // 8, 8 * _PSI_13))
def test_isprime_matches_sympy_across_the_bpsw_switch(n):
    n |= 1
    assert isprime(n) == sympy.isprime(n)
    q = sympy.nextprime(n)
    assert isprime(q)
    assert not isprime(q * sympy.nextprime(q))


def test_isprime_on_large_mersenne_numbers():
    assert [e for e in range(2, 200) if isprime(2**e - 1)] == [
        2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127,
    ]


@settings(max_examples=200)
@given(a=st.integers(-50, 20000), width=st.integers(0, 3000))
def test_primerange_matches_sympy_on_windows(a, width):
    assert list(primerange(a, a + width)) == list(sympy.primerange(a, a + width))


@pytest.mark.parametrize("a, b, expected", [
    (10, 5, []),  # a > b
    (7, 7, []),
    (-5, 2, []),  # b <= 2
    (0, 0, []),
    (-5, 3, [2]),  # a <= 2
    (2, 12, [2, 3, 5, 7, 11]),
    (10**12, 10**12 + 40, [10**12 + 39]),
])
def test_primerange_edges(a, b, expected):
    assert list(primerange(a, b)) == expected


@settings(max_examples=20, deadline=None)
@given(x=st.integers(2**19, 2**40), y=st.integers(2**19, 2**40))
def test_factorint_splits_products_of_two_large_primes(x, y):
    p, q = sympy.nextprime(x), sympy.nextprime(y)
    expected = {p: 2} if p == q else {min(p, q): 1, max(p, q): 1}
    f = factorint(p * q)
    assert f == expected and list(f) == sorted(f)


def test_factorint_on_every_product_of_two_primes_above_the_trial_bound():
    # about 2% of these need rho's second polynomial, after the first
    # closes its cycle modulo both primes at the same step
    ps = list(primerange(1000, 1400))
    for i, p in enumerate(ps):
        for q in ps[i:]:
            assert factorint(p * q) == ({p: 2} if p == q else {p: 1, q: 1}), (p, q)


@pytest.mark.parametrize("p, e", [(2, 64), (3, 40), (1009, 5), (999983, 3), (2**31 - 1, 2)])
def test_factorint_prime_powers(p, e):
    assert factorint(p**e) == {p: e}


def test_rho_refuses_a_prime_instead_of_looping():
    with pytest.raises(InternalInvariantError):
        _rho_divisor(1009)


def test_factorint_conventions():
    assert factorint(1) == {}
    assert factorint(0) == {0: 1}
    assert factorint(-12) == {-1: 1, 2: 2, 3: 1}
    f = factorint(999983**3 * 1000003**2 * 2**5 * 7)
    assert f == {2: 5, 7: 1, 999983: 3, 1000003: 2} and list(f) == sorted(f)


def test_factorint_divisors_and_totient_match_sympy_up_to_10_4():
    for n in range(1, 10**4 + 1):
        assert factorint(n) == sympy.factorint(n), n
        assert divisors(n) == sympy.divisors(n), n
        assert totient(n) == sympy.totient(n), n
    assert divisors(0) == [] and divisors(-12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        totient(0)
