"""Arithmetic the benchmark computes for itself, apart from selmerkit.

Everything here is deliberately naive: trial division, point counts by
enumeration, discrete logs by walking powers.  The checks compare the
program's outputs against these, so none of it may import selmerkit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_upto(bound: int) -> list[int]:
    return [q for q in range(2, bound + 1) if is_prime(q)]


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def count_points(ainvs, q: int) -> int:
    """#E(F_q) for a prime q of good reduction.

    Below 50 every pair (x, y) is tried; above, each x contributes
    1 + (disc | q) solutions y by Euler's criterion.
    """
    a1, a2, a3, a4, a6 = (a % q for a in ainvs)
    count = 1  # the point at infinity
    if q < 50:
        for x in range(q):
            rhs = (x * x * x + a2 * x * x + a4 * x + a6) % q
            count += sum(1 for y in range(q) if (y * y + a1 * x * y + a3 * y) % q == rhs)
        return count
    half = (q - 1) // 2
    for x in range(q):
        # y^2 + (a1 x + a3) y - f(x) = 0 has 1 + (disc | q) roots
        disc = ((a1 * x + a3) ** 2 + 4 * (x * x * x + a2 * x * x + a4 * x + a6)) % q
        if disc == 0:
            count += 1
        elif pow(disc, half, q) == 1:
            count += 2
    return count


def trace_by_count(ainvs, q: int) -> int:
    return q + 1 - count_points(ainvs, q)


def valuation(x: int, p: int, cap: int) -> int:
    if x == 0:
        return cap
    v = 0
    while x % p == 0 and v < cap:
        x //= p
        v += 1
    return v


def kronecker(D: int, q: int) -> int:
    """(D | q) for a prime q, including q = 2."""
    if q == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    r = pow(D % q, (q - 1) // 2, q)
    return 0 if r == 0 else (1 if r == 1 else -1)


def primitive_roots(ell: int) -> list[int]:
    """All primitive roots modulo an odd prime, ascending."""
    rs = prime_factors(ell - 1)
    return [g for g in range(2, ell) if all(pow(g, (ell - 1) // r, ell) != 1 for r in rs)]


def discrete_logs(ell: int, eta: int) -> list[int]:
    table = [-1] * ell
    x = 1
    for e in range(ell - 1):
        table[x] = e
        x = x * eta % ell
    return table


def cyc_primes(ainvs, conductor: int, p: int, bound: int) -> list[int]:
    """q <= bound, q prime to N p, with q = 1 and a_q = q + 1 modulo p."""
    out = []
    for q in primes_upto(bound):
        if conductor % q == 0 or q == p or (q - 1) % p:
            continue
        if (trace_by_count(ainvs, q) - q - 1) % p == 0:
            out.append(q)
    return out


def residue_mod(value: Fraction, modulus: int) -> int:
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


def kurihara_residue(symbol_values: dict[int, Fraction], factors: list[int], etas: dict[int, int], modulus: int) -> int:
    """sum over units a mod n of [a/n]+ * prod_ell log_eta_ell(a), mod p^t.

    symbol_values maps each unit a to [a/n]+ as an exact rational.
    """
    tables = [(ell, discrete_logs(ell, etas[ell])) for ell in factors]
    total = 0
    for a, value in symbol_values.items():
        w = residue_mod(value, modulus)
        for ell, table in tables:
            w = w * table[a % ell] % modulus
        total = (total + w) % modulus
    return total


def units(n: int) -> list[int]:
    return [a for a in range(1, n) if gcd(a, n) == 1]
