"""Small integer-arithmetic helpers used throughout the package.

Primality, factoring and prime enumeration are delegated to sympy; the
quadratic symbols and valuations are written out here because we need the
full Kronecker symbol (even second argument, negative arguments) and capped
p-adic valuations with explicit sentinel handling.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from sympy import divisors, factorint, isprime, primerange

__all__ = [
    "divisors",
    "factorint",
    "isprime",
    "primerange",
    "gcd",
    "jacobi_symbol",
    "kronecker_symbol",
    "padic_valuation",
    "is_squarefree",
    "is_fundamental_discriminant",
    "smallest_primitive_root",
    "primitive_roots",
    "sqrt_mod_prime",
]


def jacobi_symbol(a: int, m: int) -> int:
    """Jacobi symbol (a|m) for odd positive m."""
    if m <= 0 or m % 2 == 0:
        raise ValueError("m must be odd and positive")
    a %= m
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                t = -t
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            t = -t
        a %= m
    return t if m == 1 else 0


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # split off the even part of n
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        # (a|2) depends on a mod 8
        s2 = 1 if a % 8 in (1, 7) else -1
        if e % 2 == 1:
            sign *= s2
    return sign * jacobi_symbol(a % n, n)


def padic_valuation(x, p: int, cap: int | None = None) -> int | None:
    """v_p(x) for an integer or Fraction; None encodes +infinity (x == 0).

    With `cap` set, values >= cap are reported as cap (never None unless x
    is exactly zero and cap is None).
    """
    if isinstance(x, Fraction):
        if x == 0:
            return cap if cap is not None else None
        return padic_valuation(x.numerator, p) - padic_valuation(x.denominator, p)
    x = int(x)
    if x == 0:
        return cap if cap is not None else None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
        if cap is not None and v >= cap:
            return cap
    return v


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    return all(e == 1 for e in factorint(n).values())


def is_fundamental_discriminant(d: int) -> bool:
    """True for discriminants of quadratic fields (and d == 1 is excluded)."""
    if d == 1 or d == 0:
        return False
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and is_squarefree(m)
    return False


def _is_primitive_root(g: int, ell: int, q_factors) -> bool:
    return all(pow(g, (ell - 1) // r, ell) != 1 for r in q_factors)


def smallest_primitive_root(ell: int) -> int:
    """Smallest primitive root modulo an odd prime ell."""
    if not isprime(ell) or ell == 2:
        raise ValueError("need an odd prime")
    qs = list(factorint(ell - 1))
    g = 2
    while not _is_primitive_root(g, ell, qs):
        g += 1
    return g


def primitive_roots(ell: int, count: int) -> list[int]:
    """The `count` smallest primitive roots modulo ell."""
    qs = list(factorint(ell - 1))
    out = []
    g = 2
    while len(out) < count:
        if g >= ell:
            raise ValueError(f"fewer than {count} primitive roots mod {ell}")
        if _is_primitive_root(g, ell, qs):
            out.append(g)
        g += 1
    return out


def sqrt_mod_prime(a: int, q: int) -> int:
    """The smaller square root of a modulo an odd prime q (Tonelli-Shanks).

    Canonical choice: of the two roots r and q - r, return min.  Raises
    ValueError when a is a non-residue.
    """
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        raise ValueError(f"{a} is not a square mod {q}")
    if q % 4 == 3:
        r = pow(a, (q + 1) // 4, q)
        return min(r, q - r)
    # write q-1 = s * 2^e with s odd
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    # a quadratic non-residue
    n = 2
    while pow(n, (q - 1) // 2, q) != q - 1:
        n += 1
    x = pow(a, (s + 1) // 2, q)
    b = pow(a, s, q)
    g = pow(n, s, q)
    r = e
    while True:
        t, m = b, 0
        while t != 1:
            t = t * t % q
            m += 1
        if m == 0:
            return min(x, q - x)
        gs = pow(g, 1 << (r - m - 1), q)
        g = gs * gs % q
        x = x * gs % q
        b = b * g % q
        r = m
