"""Real periods by AGM and direct numeric integration of the newform.

real_periods needs only the standard library: exact bisection of an integer
cubic, then `decimal` for the square roots, the AGM and pi.  cycle_period
integrates 2*pi*i*f over one closed Gamma_0(N) cycle {0, b/d} with a proven
error bound, which pins the eigensymbol's sign.  It folds the path through
the Fricke involution W_N, whose eigenvalue w = +-1 the caller reads exactly
off the symbol: the path's ends then sit at height 1/(d sqrt N), not 1/N, so
the series has about log(1/tol) d sqrt(N) / (2 pi) terms instead of
log(1/tol) N / (2 pi).  numeric_plus integrates f from a/b up the vertical
line, an independent, heuristic check.  Both sum their real series through
one cosine-series loop (_cosine_series); only the paths differ.  The AGM and
the cycle follow Cremona, "Algorithms for Modular Elliptic Curves".
"""

from __future__ import annotations

from decimal import Context, Decimal, getcontext, localcontext
from math import ceil, cos, exp, gcd, isqrt, log, pi, sqrt
from sys import float_info

from .curves import EllipticCurve, hecke_an_list
from .errors import InputError, InternalInvariantError


PERIOD_DIGITS = 40  # decimal precision of the square roots, the AGM and pi
TOLERANCE_FLOOR = 1e-14  # the least tol that numeric_plus accepts


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


def numeric_plus(E: EllipticCurve, a: int, b: int, tol: float = 1e-6) -> float:
    """Direct-integration value of [a/b]+, i.e. Re(integral) / omega_plus.

    The integral of 2 pi i f from a/b + i*delta up to the cusp at infinity
    has real part sum_n (a_n / n) cos(2 pi n a/b) e^{-2 pi n delta}, summed
    by _cosine_series on the phase table cos(2 pi (k a mod b) / b), which
    takes any integer a.  The tail of the sum decays like
    exp(-2*pi*n*delta), while the discarded segment below height delta is
    controlled by the decay of f at the base cusp, of width
    h = N / gcd(b^2, N).  Balancing the two gives
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
        return 0.0
    if b < 0:
        a, b = -a, -b
    g = gcd(a, b)
    a, b = a // g, b // g
    N = E.conductor
    h = N // gcd(b * b, N)
    L = log(1.0 / tol) + 3.0
    T = ceil(L * L * h * b * b / (4 * pi * pi)) + 64
    delta = 2 * pi / (h * b * b * L)
    phases = [cos(2 * pi * (k * a % b) / b) for k in range(b)]
    return _cosine_series(hecke_an_list(E, T), exp(-2 * pi * delta), T, phases) / real_periods(E)[0]


def _cycle_tail_bound(r: float, omega_plus: float, T: int) -> float:
    """Bound on the part of one folded series carried by its terms past T.

    Term n is at most 4 r^n in absolute value (cycle_period), so the tail is
    at most 4 r^{T+1} / (1 - r), over omega_plus.
    """
    return 4 * r ** (T + 1) / ((1 - r) * omega_plus)


def _cosine_series(an: list[int], r: float, T: int, phases: list[float]) -> float:
    """sum_{n=1}^T (a_n / n) r^n phases[n mod len(phases)]."""
    S, rn, k, m = 0.0, 1.0, 0, len(phases)
    for n in range(1, T + 1):
        rn *= r
        k += 1
        if k == m:
            k = 0
        if an[n]:
            S += (an[n] / n) * rn * phases[k]
    return S


def cycle_period(E: EllipticCurve, b: int, d: int, w: int, tol: float = 1e-10) -> tuple[float, float]:
    """(value, bound): Re of the integral of 2 pi i f over the cycle
    {0, b/d} = {0, gamma 0} of gamma = [[a, b], [N, d]], divided by
    omega_plus, and a proven bound on the distance from the computed value
    to the true one.  w = +-1 is the eigenvalue of f under the Fricke
    involution W_N: tau -> -1/(N tau); the value is [b/d]+ - [0]+.

    Requires d >= 1 and b N = -1 (mod d), so that a = (1 + b N)/d.  After
    Cremona (2.10-2.11, the W_N trick behind the fast L(E, 1) series), write
    F(z) = sum (a_n/n) e^{2 pi i n z}, the integral of 2 pi i f from oo to z,
    and P(x, y) for the integral from x to y; P(W_N x, W_N y) = w P(x, y),
    P(gamma x, gamma y) = P(x, y), and W_N 0 = oo.  Then, with
    tau = (1 + i/sqrt(N))/d and gamma W_N tau = b/d + i/(d sqrt(N)),
      P(oo, b/d) = F(gamma W_N tau) + P(gamma W_N tau, gamma W_N oo)
                 = F(gamma W_N tau) - w F(tau),
    and through the fixed point i/sqrt(N) of W_N,
      P(0, oo) = P(W_N oo, W_N (i/sqrt N)) - F(i/sqrt N) = -(1 - w) F(i/sqrt N).
    With r_m = e^{-2 pi/(m sqrt N)}, the real part of the sum is
      sum (a_n/n) r_d^n (cos(2 pi n b/d) - w cos(2 pi n/d))
        - (1 - w) sum (a_n/n) r_1^n,
    two series whose ends sit at height 1/(d sqrt N) and 1/sqrt N instead of
    1/N.  Since |a_n|/n <= d(n)/sqrt(n) <= 2, term n of either series is
    at most 4 r_m^n; each is summed up to the least T_m whose tail bound
    4 r_m^{T_m+1} / ((1 - r_m) omega_plus) is at most tol/2, about
    log(1/tol) m sqrt(N) / (2 pi) terms.  The second series is zero when
    w = 1.

    The bound adds a floating-point budget to the two tail bounds.  Let u be
    the unit roundoff (epsilon / 2) and S_m = 4 r_m / ((1 - r_m) omega_plus)
    the size bound of series m.  The rounded r_m = e^{-x} is off by at most
    (5x + 2) u <= 12 u relative (x <= 2 pi/sqrt(11)), so r_m^n by repeated
    multiplication is off by at most 13 n u, and a phase
    cos(2 pi j/d) - w cos(2 pi k/d) by at most 44 u; so term n is off by at
    most (16 n + 32) u times 4 r_m^n, (16/(1 - r_m) + 32) u S_m in all.
    Summation adds at most T_m u S_m, and the last addition, the division and
    omega_plus's own rounding 3 u S_m.  The float evaluation of the tail
    bound is off by at most (12 T_m + 12/(1 - r_m) + 20) u times the tail,
    which is at most S_m r_m^{T_m}, and T r^T <= 1/(e (1 - r)): at most
    (17/(1 - r_m) + 20) u S_m.  (40/(1 - r_m) + 2 T_m + 72) u S_m covers all
    of it, with room for the budget's own rounding.
    """
    N = E.conductor
    if d < 1 or (b * N + 1) % d:
        raise InputError(f"no [[a, {b}], [{N}, {d}]] in Gamma_0({N}): b*N != -1 mod d")
    if w not in (1, -1):
        raise InputError(f"the W_{N} eigenvalue must be +1 or -1, got {w}")
    om_p, _ = real_periods(E)
    series = [(d, [cos(2 * pi * (k * b % d) / d) - w * cos(2 * pi * k / d) for k in range(d)])]
    if w == -1:  # -[0]+ = -(1 - w) F(i/sqrt N), at the fixed point of W_N
        series.append((1, [-2.0]))
    S = bound = 0.0
    an: list[int] = []
    for m, phases in series:
        r = exp(-2 * pi / (m * sqrt(N)))
        T = max(1, ceil(log(8 / ((1 - r) * om_p * tol)) * m * sqrt(N) / (2 * pi)) - 1)
        while _cycle_tail_bound(r, om_p, T) > tol / 2:
            T += 1
        if len(an) <= T:
            an = hecke_an_list(E, T)
        S += _cosine_series(an, r, T, phases)
        rounding = (40 / (1 - r) + 2 * T + 72) * (float_info.epsilon / 2) * 4 * r / ((1 - r) * om_p)
        bound += _cycle_tail_bound(r, om_p, T) + rounding
    return S / om_p, bound
