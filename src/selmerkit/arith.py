"""Small integer-arithmetic helpers used throughout the package.

The five primitives on primes and factorizations are written out here:

- `isprime`: trial division by the primes up to 41, then the strong
  (Miller-Rabin) test to the 13 prime bases 2, 3, ..., 41.  Below
  psi_13 = 3317044064679887385961981 no composite passes all 13 bases
  (Sorenson-Webster 2017), so the answer is proven there.  Twelve bases
  are not enough: psi_12 = 318665857834031151167461 fools 2, ..., 37.
  From psi_13 on, a strong base-2 test plus a strong Lucas test with
  Selfridge's parameters (BPSW), which has no known counterexample.
- `primerange`: a segmented bytearray sieve of Eratosthenes.
- `factorint`: trial division by the primes below 1000, then Brent's
  variant of Pollard rho on any composite cofactor.
- `divisors` and `totient`, from `factorint`.

The quadratic symbols and valuations are written out as well, because we
need the full Kronecker symbol (even second argument, negative arguments)
and capped p-adic valuations with explicit sentinel handling.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt
from typing import Iterator

from .errors import InternalInvariantError

__all__ = [
    "divisors",
    "factorint",
    "isprime",
    "primerange",
    "totient",
    "gcd",
    "jacobi_symbol",
    "kronecker_symbol",
    "padic_valuation",
    "is_squarefree",
    "is_fundamental_discriminant",
    "smallest_primitive_root",
    "sqrt_mod_prime",
]

# the first 13 primes: Miller-Rabin to all of them is proven below _PSI_13
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981
# Pollard rho multiplies this many differences before taking a gcd, and
# tries at most this many polynomials
_RHO_BATCH = 128
_RHO_POLYNOMIALS = 64


def isprime(n: int) -> bool:
    """True exactly when the integer n is prime (proven for n < psi_13, BPSW above)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n < _PSI_13:
        return all(_is_strong_probable_prime(n, a) for a in _MR_BASES)
    return _is_strong_probable_prime(n, 2) and _is_strong_lucas_probable_prime(n)


def _is_strong_probable_prime(n: int, a: int) -> bool:
    """The strong Fermat test of the odd n > a to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of the odd n >= 3 with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D|n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d 2^s, n passes when U_d = 0 or
    V_{d 2^r} = 0 (mod n) for some 0 <= r < s.
    """
    if isqrt(n) ** 2 == n:
        return False  # no D with (D|n) = -1 exists
    D = 5
    while True:
        j = jacobi_symbol(D, n)
        if j == -1:
            break
        if j == 0 and D % n:
            return False  # 1 < gcd(D, n) < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # left-to-right over the bits of d: (U_k, V_k, Q^k) for k = 1, then
    # k -> 2k and, on a set bit, 2k -> 2k + 1; P = 1 throughout
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def primerange(a: int, b: int) -> Iterator[int]:
    """The primes p with a <= p < b, ascending (segmented sieve of Eratosthenes)."""
    a = max(a, 2)
    if a >= b:
        return
    flags = bytearray([1]) * (b - a)
    for p in primerange(2, isqrt(b - 1) + 1):
        start = max(p * p, -(-a // p) * p) - a
        flags[start::p] = bytes(len(range(start, b - a, p)))
    yield from compress(range(a, b), flags)


_TRIAL_PRIMES = tuple(primerange(2, 1000))


def factorint(n: int) -> dict[int, int]:
    """{prime: exponent} of n, keys ascending; -1 marks n < 0 and {0: 1} is 0."""
    if n == 0:
        return {0: 1}
    factors: dict[int, int] = {}
    if n < 0:
        factors[-1] = 1
        n = -n
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if isprime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        g = _rho_divisor(m)
        if not 1 < g < m or m % g:
            raise InternalInvariantError(f"Pollard rho returned {g}, not a proper divisor of {m}")
        todo += [g, m // g]
    return dict(sorted(factors.items()))


def _rho_divisor(n: int) -> int:
    """A proper divisor of the composite n with no prime factor below 1000.

    Brent's cycle search on x -> x^2 + c from x = 2, for c = 1, 2, ...; the
    differences are multiplied in batches, and a batch whose gcd is n is
    walked again one step at a time.  If that still gives n, the next c.
    A prime n never splits, so the number of polynomials is capped.
    """
    for c in range(1, _RHO_POLYNOMIALS + 1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise InternalInvariantError(f"no x^2 + c with c <= {_RHO_POLYNOMIALS} splits {n}")


def divisors(n: int) -> list[int]:
    """The positive divisors of |n|, ascending; [] for n == 0."""
    if n == 0:
        return []
    out = [1]
    for p, e in factorint(abs(n)).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def totient(n: int) -> int:
    """Euler's phi(n) for n >= 1."""
    if n < 1:
        raise ValueError("n should be a positive integer")
    out = n
    for p in factorint(n):
        out = out // p * (p - 1)
    return out


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


def padic_valuation(x: int, p: int, cap: int | None = None) -> int | None:
    """v_p(x) for an integer; None encodes +infinity (x == 0).

    With `cap` set, values >= cap are reported as cap (never None unless x
    is exactly zero and cap is None).
    """
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
