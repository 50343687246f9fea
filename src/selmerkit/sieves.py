"""Kolyvagin-type prime families and the squarefree index sets they span.

Three families feed the divisibility statistics.  Each is a congruence on
q plus one trace congruence a_q = e * (q + 1) (mod p^k), for a sign e from
the family's table, and carries a local ideal I_q = p^{t_q} Z_p:

  cyc: q = 1 (mod p^k), e = 1;                     I_q = (q - 1, a_q - q - 1)
  ac:  q inert in K, q = -1 (mod p^k), e = 0;      I_q = (q + 1, a_q)
  adm: q inert in K, q != +-1 (mod p), e = +-1;    I_q = (a_q - e * (q + 1))

v2 is the valuation of the defect a_q - e * (q + 1).  An adm prime admits
at most one sign, since q != -1 (mod p), and keeps it as epsilon.

For squarefree n built from one family, I_n is the sum of the I_q over
q | n, so t_n = min over q | n of t_q.  A SquarefreeIndex holds only its
factors and reads n and t_n off them.  The empty product n = 1 has
I_1 = (0), so its t_n is None; delta_1 lives in Z_p itself, and
kurihara_number works to the valuation cap there.

Valuations are computed with a hard cap of 12: a reported value equal to
the cap means "at least the cap", which keeps all arithmetic in bounded
exact integers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import prod
from typing import Iterable, TextIO

from .arith import (
    is_fundamental_discriminant,
    isprime,
    kronecker_symbol,
    padic_valuation,
    primerange,
)
from .curves import EllipticCurve, trace_of_frobenius
from .errors import AmbiguityError, InputError

# the signs e of each family's trace congruence a_q = e * (q + 1) (mod p^k)
SIGNS = {"cyc": (1,), "ac": (0,), "adm": (1, -1)}
FAMILIES = tuple(SIGNS)
# cyc and ac ask p^k | q + shift and read v1 off it; adm asks q != +-1 (mod p)
V1_SHIFTS = {"cyc": -1, "ac": 1}

DEFAULT_VALUATION_CAP = 12


@dataclass(frozen=True)
class KolyvaginPrime:
    """A sieved prime with its capped valuation data.

    v1 is v_p(q - 1) for cyc and v_p(q + 1) for ac; both vanish by
    definition for adm and v1 is stored as 0 there.  v2 is the valuation of
    the trace congruence defect: v_p(a_q - q - 1) for cyc, v_p(a_q) for ac,
    v_p(a_q - epsilon * (q + 1)) for adm.
    """

    q: int
    family: str
    v1: int
    v2: int
    epsilon: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown prime family {self.family!r}")
        if (self.epsilon is None) == (self.family == "adm"):
            raise InputError("epsilon is set exactly for the adm family")
        if self.epsilon not in (None, 1, -1):
            raise InputError(f"epsilon must be +-1, got {self.epsilon}")
        if self.v1 < 0 or self.v2 < 0:
            raise InputError("valuations must be non-negative")

    @property
    def exponent(self) -> int:
        """t_q with I_q = p^{t_q} Z_p."""
        if self.family == "adm":
            return self.v2
        return min(self.v1, self.v2)

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "family": self.family,
            "v1": self.v1,
            "v2": self.v2,
            "epsilon": self.epsilon,
        }


@dataclass(frozen=True)
class SquarefreeIndex:
    """The squarefree product n of distinct sieved primes of one family.

    n is computed once, at construction; t_n = v_p(I_n) is the least factor
    exponent, and None for the empty product n = 1 (the zero ideal).
    """

    factors: tuple[KolyvaginPrime, ...]
    n: int = field(init=False)

    def __post_init__(self):
        if len({f.family for f in self.factors}) > 1:
            raise InputError("index mixes prime families")
        if len({f.q for f in self.factors}) != len(self.factors):
            raise InputError("index repeats a prime; n must be squarefree")
        object.__setattr__(self, "n", prod(f.q for f in self.factors))

    @property
    def t_n(self) -> int | None:
        return min((f.exponent for f in self.factors), default=None)

    @property
    def nu(self) -> int:
        return len(self.factors)

    @property
    def family(self) -> str | None:
        return self.factors[0].family if self.factors else None


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
    if not isprime(p):
        raise InputError(f"p = {p} is not prime")
    if k < 1:
        raise InputError(f"congruence level k must be >= 1, got {k}")
    if bound < 2:
        raise InputError(f"sieve bound must be >= 2, got {bound}")
    if family != "cyc":
        if D_K is None:
            raise InputError(f"the {family} family needs the field discriminant D_K")
        if D_K >= 0 or not is_fundamental_discriminant(D_K):
            raise InputError(f"D_K = {D_K} is not an imaginary quadratic discriminant")
    if DEFAULT_VALUATION_CAP < k:
        raise InputError("valuation cap below the congruence level loses information")

    N = E.conductor
    pk = p ** k
    adm = family == "adm"
    out: list[KolyvaginPrime] = []
    for q in primerange(2, bound + 1):
        if N % q == 0 or q == p:
            continue
        if adm:
            if q % p in (1, p - 1):
                continue
        elif (q + V1_SHIFTS[family]) % pk:
            continue
        if family != "cyc" and kronecker_symbol(D_K, q) != -1:
            continue
        aq = trace_of_frobenius(E, q)
        signs = [e for e in SIGNS[family] if (aq - e * (q + 1)) % pk == 0]
        if not signs:
            continue
        if len(signs) == 2:
            # impossible while q != -1 mod p (would force p | 2(q+1))
            raise AmbiguityError(f"both signs admissible at q={q}, p={p}, k={k}")
        e = signs[0]
        out.append(
            KolyvaginPrime(
                q=q,
                family=family,
                v1=0 if adm else padic_valuation(q + V1_SHIFTS[family], p, cap=DEFAULT_VALUATION_CAP),
                v2=padic_valuation(aq - e * (q + 1), p, cap=DEFAULT_VALUATION_CAP),
                epsilon=e if adm else None,
            )
        )
    return out


def build_indices(
    primes: list[KolyvaginPrime],
    max_nu: int,
    max_n: int,
    max_total: int | None = None,
) -> list[SquarefreeIndex]:
    """All squarefree products n <= max_n with nu(n) <= max_nu, n ascending.

    Includes n = 1, the empty product.  Given max_total, an InputError stops
    the enumeration as soon as the sum of n passes it.
    """
    if len({f.family for f in primes}) > 1:
        raise InputError("cannot mix prime families in one index set")
    if len({f.q for f in primes}) != len(primes):
        raise InputError("duplicate primes in sieve output")

    ordered = sorted(primes, key=lambda f: f.q)
    results: list[SquarefreeIndex] = [SquarefreeIndex(())]
    total = 1

    def extend(start: int, n: int, chosen: tuple[KolyvaginPrime, ...]):
        nonlocal total
        for i in range(start, len(ordered)):
            f = ordered[i]
            n2 = n * f.q
            if n2 > max_n:
                break  # ordered ascending: later primes only grow n
            total += n2
            if max_total is not None and total > max_total:
                raise InputError(f"region's sum of n passes the budget {max_total}; shrink it or raise the budget")
            results.append(SquarefreeIndex(chosen + (f,)))
            if len(chosen) + 1 < max_nu:
                extend(i + 1, n2, chosen + (f,))

    if max_nu >= 1:
        extend(0, 1, ())
    results.sort(key=lambda ix: ix.n)
    return results


def dump_primes_jsonl(primes: Iterable[KolyvaginPrime], fh: TextIO):
    for f in primes:
        fh.write(json.dumps(f.to_json_dict(), sort_keys=True) + "\n")
