"""Reference prime sieve, kept only as a test oracle.

This is the three-branch sieve: each family writes out its own a_q test,
valuations and KolyvaginPrime construction.  sieves.sieve states each
family once, as a congruence on q plus the trace congruence
a_q = e * (q + 1) (mod p^k) with e from one sign table; the tests compare
the two.
"""

from selmerkit.arith import (
    is_fundamental_discriminant,
    isprime,
    kronecker_symbol,
    padic_valuation,
    primerange,
)
from selmerkit.curves import EllipticCurve, trace_of_frobenius
from selmerkit.errors import AmbiguityError, InputError
from selmerkit.sieves import DEFAULT_VALUATION_CAP, FAMILIES, KolyvaginPrime


def _require_prime_setup(p: int, k: int, bound: int):
    if not isprime(p):
        raise InputError(f"p = {p} is not prime")
    if k < 1:
        raise InputError(f"congruence level k must be >= 1, got {k}")
    if bound < 2:
        raise InputError(f"sieve bound must be >= 2, got {bound}")


def _require_imaginary_field(D_K: int):
    if D_K >= 0 or not is_fundamental_discriminant(D_K):
        raise InputError(f"D_K = {D_K} is not an imaginary quadratic discriminant")


def sieve(
    family: str,
    E: EllipticCurve,
    p: int,
    k: int,
    bound: int,
    D_K: int | None = None,
) -> list[KolyvaginPrime]:
    """All family primes q <= bound for (E, p) at congruence level k.

    cyc needs no field; ac and adm require the imaginary quadratic
    discriminant D_K (q must be inert).  Results are ordered by q
    ascending, so chunked runs merge deterministically.
    """
    if family not in FAMILIES:
        raise InputError(f"unknown prime family {family!r}")
    _require_prime_setup(p, k, bound)
    if family in ("ac", "adm"):
        if D_K is None:
            raise InputError(f"the {family} family needs the field discriminant D_K")
        _require_imaginary_field(D_K)
    if DEFAULT_VALUATION_CAP < k:
        raise InputError("valuation cap below the congruence level loses information")

    N = E.conductor
    pk = p ** k
    out: list[KolyvaginPrime] = []
    for q in primerange(2, bound + 1):
        if N % q == 0 or q == p:
            continue
        if family == "cyc":
            if (q - 1) % pk:
                continue
            aq = trace_of_frobenius(E, q)
            if (aq - q - 1) % pk:
                continue
            out.append(
                KolyvaginPrime(
                    q=q,
                    family="cyc",
                    v1=padic_valuation(q - 1, p, cap=DEFAULT_VALUATION_CAP),
                    v2=padic_valuation(aq - q - 1, p, cap=DEFAULT_VALUATION_CAP),
                )
            )
        elif family == "ac":
            if (q + 1) % pk or kronecker_symbol(D_K, q) != -1:
                continue
            aq = trace_of_frobenius(E, q)
            if aq % pk:
                continue
            out.append(
                KolyvaginPrime(
                    q=q,
                    family="ac",
                    v1=padic_valuation(q + 1, p, cap=DEFAULT_VALUATION_CAP),
                    v2=padic_valuation(aq, p, cap=DEFAULT_VALUATION_CAP),
                )
            )
        else:
            if q % p in (1, p - 1):
                continue
            if kronecker_symbol(D_K, q) != -1:
                continue
            aq = trace_of_frobenius(E, q)
            signs = [e for e in (1, -1) if (aq - e * (q + 1)) % pk == 0]
            if not signs:
                continue
            if len(signs) == 2:
                # impossible while q != -1 mod p (would force p | 2(q+1))
                raise AmbiguityError(f"both signs admissible at q={q}, p={p}, k={k}")
            eps = signs[0]
            out.append(
                KolyvaginPrime(
                    q=q,
                    family="adm",
                    v1=0,
                    v2=padic_valuation(aq - eps * (q + 1), p, cap=DEFAULT_VALUATION_CAP),
                    epsilon=eps,
                )
            )
    return out
