"""Number-theoretic helpers, cross-checked against sympy and hand tables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.functions.combinatorial.numbers import jacobi_symbol as sympy_jacobi
from sympy.ntheory import primitive_root as sympy_primitive_root
from sympy.ntheory import sqrt_mod as sympy_sqrt_mod

from selmerkit.arith import (
    is_fundamental_discriminant,
    is_squarefree,
    isprime,
    jacobi_symbol,
    kronecker_symbol,
    padic_valuation,
    primerange,
    primitive_roots,
    smallest_primitive_root,
    sqrt_mod_prime,
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
    assert padic_valuation(Fraction(9, 4), 3) == 2
    assert padic_valuation(Fraction(9, 4), 2) == -2
    assert padic_valuation(Fraction(-5, 7), 7) == -1
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


def test_primitive_roots_are_primitive():
    for ell in (11, 13, 23):
        roots = primitive_roots(ell, 3)
        assert len(roots) == 3 and len(set(roots)) == 3
        for g in roots:
            seen = set()
            t = 1
            for _ in range(ell - 1):
                t = t * g % ell
                seen.add(t)
            assert len(seen) == ell - 1


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
