"""Real periods by AGM and direct numeric integration of the newform.

real_periods needs only the standard library: exact bisection of an integer
cubic, then `decimal` for the square roots, the AGM and pi.  cycle_period
integrates 2*pi*i*f over one closed Gamma_0(N) cycle with a proven error
bound, which pins the eigensymbol's sign; modular_symbol_series integrates it
from a/b up the vertical line, an independent, heuristic check.  The AGM and
the cycle follow Cremona, "Algorithms for Modular Elliptic Curves".
"""

from __future__ import annotations

from cmath import exp as cexp
from decimal import Context, Decimal, getcontext, localcontext
from math import ceil, cos, exp, gcd, isqrt, log, pi
from sys import float_info

from .curves import EllipticCurve, hecke_an_list
from .errors import InputError, InternalInvariantError


PERIOD_DIGITS = 40  # decimal precision of the square roots, the AGM and pi
TOLERANCE_FLOOR = 1e-14  # the least tol that modular_symbol_series accepts


def _agm(a: Decimal, b: Decimal) -> tuple[Decimal, Decimal]:
    """(M, S): the AGM of a, b > 0 and Gauss-Legendre's sum of 2^n ((a_n - b_n)/2)^2.
    It stops on a relative difference; the means can alternate in the last digit."""
    tol = Decimal(10) ** (4 - getcontext().prec)
    s, w = Decimal(0), 1
    while abs(a - b) > tol * a:
        s += w * ((a - b) / 2) ** 2
        a, b, w = (a + b) / 2, (a * b).sqrt(), 2 * w
    return (a + b) / 2, s


def real_periods(E: EllipticCurve) -> tuple[float, float]:
    """(omega_plus, omega_minus): least real period and its imaginary partner.

    omega_plus generates the intersection of the period lattice with the real
    line for either lattice shape (Cremona, 3.7).  The roots of 4x^3 - g2 x - g3
    are X/36 for the roots X of X^3 - 27 c4 X - 54 c6, bisected exactly as
    m = floor(X 2^k) between +-R = +-2^r (Fujiwara) and the critical points
    +-3 sqrt(c4).  The squared root differences multiply to 2^8 3^12 Delta, so
    each gap is at least sqrt|Delta| / R^2 >= R / 2^loss; 2 loss guard bits put
    2^-k far below gap / 3, so a rounded critical point stays between the same
    roots, and below gap^2 / R, so the radicands are exact: root differences,
    or for Delta < 0 (u a)^2 and u^2 (4a^2 - 9 e1^2), u = 36 * 2^k, the latter
    giving the lesser of 2a +- 3 e1 without cancellation.
    """
    p, q = -27 * E.c4, -54 * E.c6
    r = 1 + max(-(-abs(p).bit_length() // 2), -(-abs(q).bit_length() // 3))
    loss = max(0, 3 * r - (abs(E.discriminant).bit_length() - 1) // 2)
    k = max(0, 4 * PERIOD_DIGITS + 2 * loss - r)
    p, q, s = p << 2 * k, q << 3 * k, isqrt(max(0, 9 * E.c4) << 2 * k)
    ends = [-1 << (r + k), -s, s, 1 << (r + k)]

    def negative(x: int) -> bool:  # the sign of the cubic at x / 2^k
        return x * (x * x + p) + q < 0

    ms = []
    for lo, hi in zip(ends, ends[1:]):
        sign = negative(lo)
        if sign != negative(hi):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if negative(mid) == sign else (lo, mid)
            ms.append(lo)
    if len(ms) != (3 if E.discriminant > 0 else 1):
        raise InternalInvariantError(f"bisection: {len(ms)} real root(s) for {E.label or E.ainvs}")
    m = ms[-1]
    if E.discriminant > 0:
        radicands = [m - ms[0], m - ms[1], ms[1] - ms[0]]
    else:
        radicands = [3 * m * m - (27 * E.c4 << 2 * k), 3 * m * m - (108 * E.c4 << 2 * k)]
    if min(radicands) <= 0:
        raise InternalInvariantError(f"period radicands {radicands} of {E.label or E.ainvs}")
    with localcontext(Context(prec=PERIOD_DIGITS)):
        M, S = _agm(Decimal(1), Decimal(2).sqrt() / 2)
        scale = M * M / (Decimal(1) / 4 - S) * Decimal(36 << k).sqrt()  # pi sqrt(u)
        roots = [Decimal(d).sqrt() for d in radicands]
        if E.discriminant > 0:
            c, plus, minus = roots
        else:
            big = (2 * roots[0] + 3 * abs(m)).sqrt()
            plus, minus = (big, roots[1] / big) if m >= 0 else (roots[1] / big, big)
            c, scale = 2 * roots[0].sqrt(), 2 * scale
        return float(scale / _agm(c, plus)[0]), float(scale / _agm(c, minus)[0])


def modular_symbol_series(E: EllipticCurve, a: int, b: int, tol: float = 1e-8) -> complex:
    """sum_n (a_n / n) e^{2 pi i n a/b} e^{-2 pi n delta}, the truncated
    period integral of 2 pi i f from a/b + i*delta up to the cusp at infinity
    combined with the bound on the missing lower segment.

    The tail of the sum decays like exp(-2*pi*n*delta), while the discarded
    segment below height delta is controlled by the decay of f at the base
    cusp, of width h = N / gcd(b^2, N).  Balancing the two gives
    delta = 2*pi / (h * b^2 * L) with L = log(1/tol), and a term requirement
    of about L^2 * h * b^2 / (4*pi^2).  That balance is a heuristic, not a
    proof; at b = 1 the series costs about 7N terms.

    tol must lie in [TOLERANCE_FLOOR, 1): the float sum's own rounding errs
    by a few 1e-15 relative, past tol = e^3 the damping factor exceeds 1 and
    the terms grow, and a tolerance of 1 or more asks for no correct digit.
    """
    if not TOLERANCE_FLOOR <= tol < 1:
        raise InputError(f"tolerance must lie in [{TOLERANCE_FLOOR}, 1), got {tol}")
    if b == 0:
        return 0j
    if b < 0:
        a, b = -a, -b
    g = gcd(a, b)
    a, b = a // g, b // g
    N = E.conductor
    h = N // gcd(b * b, N)
    L = log(1.0 / tol) + 3.0
    T = ceil(L * L * h * b * b / (4 * pi * pi)) + 64
    delta = 2 * pi / (h * b * b * L)
    an = hecke_an_list(E, T)
    # e^{2 pi i k / b} table; the phase of term n is the (n*a mod b)-th entry
    zeta = [cexp(2j * pi * k / b) for k in range(b)]
    r = exp(-2 * pi * delta)
    S, rn, phase = 0j, 1.0, 0
    for n in range(1, T + 1):
        rn *= r
        phase += a
        if phase >= b:
            phase -= b
        if an[n]:
            S += (an[n] / n) * zeta[phase] * rn
    return S


def numeric_plus(E: EllipticCurve, a: int, b: int, tol: float = 1e-6) -> float:
    """Direct-integration value of [a/b]+, i.e. Re(integral) / omega_plus."""
    return modular_symbol_series(E, a, b, tol=tol).real / real_periods(E)[0]


def _cycle_tail_bound(N: int, omega_plus: float, T: int) -> float:
    """Bound on the part of |cycle_period| carried by the terms past T.

    Term n is (a_n/n) times a difference of two numbers of modulus
    r^n = e^{-2 pi n/N}; |a_n|/n <= d(n)/sqrt(n) <= 2, so it is at most 4 r^n,
    and the tail is at most 4 r^{T+1} / (1 - r).
    """
    r = exp(-2 * pi / N)
    return 4 * r ** (T + 1) / ((1 - r) * omega_plus)


def cycle_period(E: EllipticCurve, a: int, d: int, tol: float = 1e-10) -> tuple[float, float]:
    """(value, bound): Re of the integral of 2 pi i f over the cycle of
    gamma = [[a, b], [N, d]], divided by omega_plus, and a proven bound on the
    distance from the computed value to the true one.

    The cycle is {0, b/d}, so the value is [b/d]+ - [0]+.  Requires
    a*d = 1 (mod N).  After Cremona, the integral from z to gamma z does not
    depend on z, and z = (-d + i)/N puts gamma z at (a + i)/N, so both ends
    sit at height 1/N and the sum is
    sum (a_n/n)(e^{2 pi i n gamma z} - e^{2 pi i n z}).  The real part of
    term n is (a_n/n) r^n (cos(2 pi n a/N) - cos(2 pi n d/N)), summed up to
    the least T whose tail bound is at most tol, about
    log(1/tol) * N / (2*pi) terms.

    The bound adds a floating-point budget to the tail bound.  With u the
    unit roundoff (epsilon / 2), term n is off by at most (2n + 24) u times
    its size bound 4 r^n (r^n by repeated multiplication, the cosine table,
    one division and two products), and summation and the division by
    omega_plus add at most (T + 2) u times the total size bound
    4r / (1 - r) / omega_plus; (8T + 128) u times that total covers both
    with room to spare.
    """
    N = E.conductor
    if (a * d - 1) % N:
        raise InputError(f"[[{a}, b], [{N}, {d}]] is not in Gamma_0({N}): a*d != 1 mod N")
    om_p, _ = real_periods(E)
    r = exp(-2 * pi / N)
    T = max(1, ceil(N / (2 * pi) * log(4 / ((1 - r) * om_p * tol))) - 1)
    while _cycle_tail_bound(N, om_p, T) > tol:
        T += 1
    an = hecke_an_list(E, T)
    cosines = [cos(2 * pi * k / N) for k in range(N)]
    S, rn, pa, pd = 0.0, 1.0, 0, 0
    a, d = a % N, d % N
    for n in range(1, T + 1):
        rn *= r
        pa += a
        if pa >= N:
            pa -= N
        pd += d
        if pd >= N:
            pd -= N
        if an[n]:
            S += (an[n] / n) * rn * (cosines[pa] - cosines[pd])
    total = 4 * r / ((1 - r) * om_p)
    rounding = (8 * T + 128) * (float_info.epsilon / 2) * total
    return S / om_p, _cycle_tail_bound(N, om_p, T) + rounding
