"""Rational elliptic curves: Weierstrass data, point counts, twists.

A curve is an integral (globally minimal) Weierstrass model, its ingested
conductor and a label, nothing else: the other ingested facts (root number,
known rank, hypothesis flags, Tamagawa numbers) live on `cli.CurveRecord`.
The conductor is trusted input, never recomputed, but its prime support is
validated against the discriminant, and
`EllipticCurve.check_conductor_exponents` matches its exponent 1 primes with
the multiplicative ones and refuses a bad prime that it leaves out.

Traces of Frobenius are computed from first principles: direct point counts
(character sums over the completed square) up to Mestre's bound q = 457, a
baby-step giant-step group-order search above it, and the smooth point
count of the reduced curve at bad primes.  `trace_of_frobenius` is the one
place that picks the counter.  Quadratic twists come out as reduced
minimal models, read off their (c4, c6) in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, lcm

from .arith import (
    divisors,
    factorint,
    is_fundamental_discriminant,
    isprime,
    kronecker_symbol,
    primerange,
    sqrt_mod_prime,
)
from .errors import HypothesisError, InputError, InternalInvariantError

# Mestre's bound (Cremona, "Algorithms for Modular Elliptic Curves"): above it
# a point of the curve or of its quadratic twist pins #E(F_q) in the Hasse
# window; at or below it neither need, so those q are counted directly
MESTRE_BOUND = 457

_AQ_CACHE: dict[tuple, int] = {}


@dataclass(frozen=True)
class EllipticCurve:
    """Integral Weierstrass model with its conductor and a label."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int
    label: str = ""

    def __post_init__(self):
        if self.conductor < 1:
            raise InputError(f"conductor must be positive, got {self.conductor}")
        if self.discriminant == 0:
            raise InputError(f"singular model for {self.label or self.ainvs}")
        for q in factorint(self.conductor):
            if self.discriminant % q != 0:
                raise InputError(
                    f"conductor prime {q} does not divide the discriminant "
                    f"of {self.label or self.ainvs}"
                )

    def check_conductor_exponents(self) -> None:
        """Refuse a conductor whose exponent 1 primes are not the multiplicative
        ones, or that leaves out a bad prime (one dividing the discriminant).

        On a minimal model q divides N exactly once iff the reduction at q is
        multiplicative, iff q does not divide c4.  The constructor checks the
        prime support only; `cli.CurveRecord.to_curve` calls this, so that an
        ingested record with a wrong conductor is refused as input before any
        computation instead of surfacing later as an internal inconsistency.
        """
        for q, e in factorint(self.conductor).items():
            if (e == 1) != (self.c4 % q != 0):
                raise InputError(
                    f"conductor exponent {e} at q={q} disagrees with the reduction "
                    f"type of {self.label or self.ainvs}; is the model minimal?"
                )
        rest = abs(self.discriminant)  # divided by N's primes, with no factoring
        while gcd(rest, self.conductor) > 1:
            rest //= gcd(rest, self.conductor)
        if rest != 1:
            raise InputError(f"the discriminant of {self.label or self.ainvs} has a prime "
                             f"outside the conductor {self.conductor}; is the conductor right?")

    @property
    def ainvs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def b2(self) -> int:
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self) -> int:
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self) -> int:
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self) -> int:
        return (
            self.a1 * self.a1 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3 * self.a3
            - self.a4 * self.a4
        )

    @property
    def c4(self) -> int:
        return self.b2 * self.b2 - 24 * self.b4

    @property
    def c6(self) -> int:
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


@dataclass(frozen=True)
class FieldSplit:
    """Factorization N = N+ * N- with respect to an imaginary quadratic field."""

    D_K: int
    n_plus: int
    n_minus: int
    nu_minus: int


# ---------------------------------------------------------------------------
# point counting


def _count_points_naive(E: EllipticCurve, q: int) -> int:
    """#E(F_q) by direct enumeration, for good q."""
    if q <= 3:
        return _smooth_count(E, q)  # at a good prime every point is smooth
    # complete the square: z^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 with z = 2y + a1 x + a3
    b2, b4, b6 = E.b2 % q, (2 * E.b4) % q, E.b6 % q
    is_sq = bytearray(q)
    for t in range((q + 1) // 2):
        is_sq[t * t % q] = 1
    total = q + 1
    for x in range(q):
        g = (((4 * x + b2) * x + b4) * x + b6) % q
        if g == 0:
            continue
        total += 1 if is_sq[g] else -1
    return total


def _short_model(E: EllipticCurve, q: int) -> tuple[int, int]:
    # y^2 = x^3 + Ax + B with the same point count, valid for q > 3
    return (-27 * E.c4) % q, (-54 * E.c6) % q


def _ec_add(P, Q, A, q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % q == 0:
            return None
        m = (3 * x1 * x1 + A) * pow(2 * y1, q - 2, q) % q
    else:
        m = (y2 - y1) * pow(x2 - x1, q - 2, q) % q
    x3 = (m * m - x1 - x2) % q
    return (x3, (m * (x1 - x3) - y1) % q)


def _ec_neg(P, q):
    if P is None:
        return None
    return (P[0], (-P[1]) % q)


def _ec_mul(n, P, A, q):
    R = None
    Q = P
    while n:
        if n & 1:
            R = _ec_add(R, Q, A, q)
        Q = _ec_add(Q, Q, A, q)
        n >>= 1
    return R


def _multiples_annihilating(P, lo, hi, A, q):
    """All m in [lo, hi] with m*P = O (baby step / giant step)."""
    width = hi - lo
    r = isqrt(width) + 1
    baby = {}
    R = None
    for j in range(r):
        if R is None and j > 0:
            # ord(P) = j is tiny; list its multiples in the window directly
            start = lo + (-lo) % j
            return list(range(start, hi + 1, j))
        if R not in baby:
            baby[R] = j
        R = _ec_add(R, P, A, q)
    rP = _ec_mul(r, P, A, q)
    neg_rP = _ec_neg(rP, q)
    T = _ec_neg(_ec_mul(lo, P, A, q), q)
    hits = []
    for k in range(width // r + 2):
        j = baby.get(T)
        if j is not None:
            t = k * r + j
            if t <= width:
                hits.append(lo + t)
        T = _ec_add(T, neg_rP, A, q)
    return sorted(hits)


def _next_point(A, B, q, x):
    # deterministic scan keeps runs reproducible; skips 2-torsion x.
    # coordinates must be canonical residues: _ec_add tests x1 == x2.
    while True:
        x += 1
        xr = x % q
        g = (xr * xr * xr + A * xr + B) % q
        if g == 0:
            continue
        if pow(g, (q - 1) // 2, q) == 1:
            return (xr, sqrt_mod_prime(g, q)), x


def _count_points_bsgs(E: EllipticCurve, q: int) -> int:
    """#E(F_q) via point-order lattices inside the Hasse window.

    Alternates between the curve and its quadratic twist: the two orders sum
    to 2(q + 1), so a window ambiguity on one side is broken by the other.
    That holds only above Mestre's bound: at or below it neither side need
    have a point whose order pins the window (orders 16 and 32 at q = 23 are
    annihilator-equivalent), and characteristics 2 and 3 have no short
    model, so q <= MESTRE_BOUND is refused.
    """
    if q <= MESTRE_BOUND:
        raise InternalInvariantError(f"BSGS count at q={q}, at or below Mestre's bound")
    A, B = _short_model(E, q)
    c = 2
    while pow(c, (q - 1) // 2, q) != q - 1:
        c += 1
    sides = [(A, B), (A * c * c % q, B * c ** 3 % q)]
    s = isqrt(4 * q)
    lo, hi = q + 1 - s, q + 1 + s
    lat = [1, 1]
    cursor = [0, 0]
    cands: list = [None, None]
    for attempt in range(80):
        side = attempt % 2
        AA, BB = sides[side]
        P, cursor[side] = _next_point(AA, BB, q, cursor[side])
        ms = _multiples_annihilating(P, lo, hi, AA, q)
        if not ms:
            raise InternalInvariantError(f"no annihilator in Hasse window at q={q}")
        if len(ms) > 1:
            d = ms[1] - ms[0]
            if any(y - x != d for x, y in zip(ms, ms[1:])):
                raise InternalInvariantError(f"irregular annihilator spacing at q={q}")
            lat[side] = lcm(lat[side], d)
            start = lo + (-lo) % lat[side]
            ms = list(range(start, hi + 1, lat[side]))
        cands[side] = set(ms) if cands[side] is None else cands[side] & set(ms)
        if cands[0] is not None:
            eff = cands[0]
            if cands[1] is not None:
                eff = {n for n in eff if 2 * q + 2 - n in cands[1]}
            if len(eff) == 1:
                return eff.pop()
            if not eff:
                raise InternalInvariantError(f"contradictory order candidates at q={q}")
    raise InternalInvariantError(f"group order at q={q} not pinned down")


def _smooth_count(E: EllipticCurve, q: int) -> int:
    """Number of smooth F_q-points (incl. infinity) of the reduced curve, q in {2, 3}."""
    a1, a2, a3, a4, a6 = (a % q for a in E.ainvs)

    def on_curve(x, y):
        return (y * y + a1 * x * y + a3 * y - (x * x * x + a2 * x * x + a4 * x + a6)) % q == 0

    def singular(x, y):
        fy = (2 * y + a1 * x + a3) % q
        fx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % q
        return fy == 0 and fx == 0

    count = 1
    for x in range(q):
        for y in range(q):
            if on_curve(x, y) and not singular(x, y):
                count += 1
    return count


def reduction_type(E: EllipticCurve, q: int) -> str:
    """'good', 'split', 'nonsplit' or 'additive' at the prime q."""
    if not isprime(q):
        raise InputError(f"q={q} is not prime")
    if E.conductor % q != 0:
        return "good"
    disc, c4 = E.discriminant, E.c4
    multiplicative = disc % q == 0 and c4 % q != 0
    vq_N = 0
    N = E.conductor
    while N % q == 0:
        N //= q
        vq_N += 1
    if multiplicative != (vq_N == 1):
        raise InternalInvariantError(
            f"reduction classification at q={q} disagrees with the conductor "
            f"exponent for {E.label or E.ainvs}; is the model minimal?"
        )
    if not multiplicative:
        return "additive"
    if q >= 5:
        # tangent slopes at the node live in F_q(sqrt(-c6))
        return "split" if pow((-E.c6) % q, (q - 1) // 2, q) == 1 else "nonsplit"
    smooth = _smooth_count(E, q)
    aq = q - smooth
    if aq == 1:
        return "split"
    if aq == -1:
        return "nonsplit"
    raise InternalInvariantError(f"multiplicative count a_q={aq} at q={q}")


def trace_of_frobenius(E: EllipticCurve, q: int) -> int:
    """a_q(E) for any prime q, including bad primes.

    Good primes: #E(F_q) = q + 1 - a_q, counted directly up to MESTRE_BOUND
    and by the BSGS group-order search above it.  Multiplicative
    primes give +-1 (split/nonsplit), additive primes give 0.
    """
    if not isprime(q):
        raise InputError(f"q={q} is not prime")
    key = (E.ainvs, q)
    if key in _AQ_CACHE:
        return _AQ_CACHE[key]
    if E.conductor % q == 0:
        kind = reduction_type(E, q)
        aq = {"split": 1, "nonsplit": -1, "additive": 0}[kind]
    else:
        if q <= MESTRE_BOUND:
            count = _count_points_naive(E, q)
        else:
            count = _count_points_bsgs(E, q)
        aq = q + 1 - count
        if aq * aq > 4 * q:
            raise InternalInvariantError(f"Hasse bound violated at q={q}: a_q={aq}")
    _AQ_CACHE[key] = aq
    return aq


def hecke_an_list(E: EllipticCurve, bound: int) -> list[int]:
    """[a_0 .. a_bound] with a_0 = 0, from a_q via the Hecke recurrences."""
    a = [0] * (bound + 1)
    if bound >= 1:
        a[1] = 1
    spf = list(range(bound + 1))  # smallest prime factor sieve
    for i in range(2, isqrt(bound) + 1):
        if spf[i] == i:
            for j in range(i * i, bound + 1, i):
                if spf[j] == j:
                    spf[j] = i
    for q in primerange(2, bound + 1):
        aq = trace_of_frobenius(E, q)
        good = E.conductor % q != 0
        qe, prev2, prev1 = q, 1, aq
        while qe <= bound:
            a[qe] = prev1
            qe *= q
            if qe <= bound:
                prev2, prev1 = prev1, (aq * prev1 - (q * prev2 if good else 0))
    for n in range(2, bound + 1):
        q = spf[n]
        if a[n] or n == q:
            continue
        m, qe = n, 1
        while m % q == 0:
            m //= q
            qe *= q
        if m > 1:
            a[n] = a[qe] * a[m]
    return a


# ---------------------------------------------------------------------------
# twists


def _model_from_c4c6(c4: int, c6: int):
    """The reduced integral Weierstrass model with invariants (c4, c6), or None.

    Every integral model reduces to one with a1, a3 in {0, 1} and a2 in
    {-1, 0, 1}; there b2 = a1 + 4 a2 is 0 or 1 mod 4, so c6 = -b2^3 = -b2
    mod 12 pins b2 in [-5, 6], and None means no integral model exists.
    """
    if c4 ** 3 == c6 ** 2:
        return None  # singular; the integrality tests below imply 1728 | c4^3 - c6^2
    b2 = (5 - c6) % 12 - 5
    r = b2 * b2 - c4
    if r % 24 != 0:
        return None
    b4 = r // 24
    s = -(b2 ** 3) + 36 * b2 * b4 - c6
    if s % 216 != 0:
        return None
    b6 = s // 216
    a1 = b2 % 2
    a3 = b6 % 2
    if (b2 - a1) % 4 != 0 or (b6 - a3) % 4 != 0 or (b4 - a1 * a3) % 2 != 0:
        return None
    return (a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3) // 4)


def _minimal_model_from_c4c6(c4: int, c6: int):
    """Laska-Kraus-Connell: minimal integral model for the given invariants."""
    u0 = 1
    g = gcd(c4, c6)
    disc = (c4 ** 3 - c6 ** 2) // 1728
    for p in factorint(g):
        e = 0
        while (
            (c4 == 0 or c4 % p ** (4 * (e + 1)) == 0)
            and (c6 == 0 or c6 % p ** (6 * (e + 1)) == 0)
            and disc % p ** (12 * (e + 1)) == 0
        ):
            e += 1
        u0 *= p ** e
    for u in reversed(divisors(u0)):
        cand = _model_from_c4c6(c4 // u ** 4, c6 // u ** 6)
        if cand is not None:
            return cand
    raise InternalInvariantError(f"no integral model for invariants ({c4}, {c6})")


def quadratic_twist(E: EllipticCurve, D: int) -> EllipticCurve:
    """The quadratic twist E^D by a fundamental discriminant prime to N.

    Returns the reduced globally minimal model, labelled "{label}x{D}"; the
    conductor of the twist is N * D^2 under the coprimality assumption.
    """
    if not is_fundamental_discriminant(D):
        raise InputError(f"D={D} is not a fundamental discriminant")
    if gcd(D, E.conductor) != 1:
        raise InputError(f"twist discriminant {D} shares a factor with N={E.conductor}")
    ai = _minimal_model_from_c4c6(E.c4 * D * D, E.c6 * D ** 3)
    return EllipticCurve(
        *ai,
        conductor=E.conductor * D * D,
        label=f"{E.label}x{D}",
    )


def split_conductor(E: EllipticCurve, D: int) -> FieldSplit:
    """N = N+ N- with N+ the split part and N- the inert part for Q(sqrt(D)).

    Requires D < 0 fundamental and coprime to N; the inert part must be
    squarefree (working hypothesis on the level).
    """
    if D >= 0 or not is_fundamental_discriminant(D):
        raise InputError(f"D={D} is not a negative fundamental discriminant")
    if gcd(D, E.conductor) != 1:
        raise HypothesisError(f"field discriminant {D} is not coprime to N={E.conductor}")
    n_plus, n_minus, nu = 1, 1, 0
    for q, e in factorint(E.conductor).items():
        s = kronecker_symbol(D, q)
        if s == 1:
            n_plus *= q ** e
        elif s == -1:
            if e > 1:
                raise HypothesisError(
                    f"inert prime {q} divides N to order {e}; the inert part must be squarefree"
                )
            n_minus *= q
            nu += 1
        else:  # pragma: no cover - excluded by the gcd check
            raise InternalInvariantError("ramified prime slipped past the gcd check")
    return FieldSplit(D_K=D, n_plus=n_plus, n_minus=n_minus, nu_minus=nu)
