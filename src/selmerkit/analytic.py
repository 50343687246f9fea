"""Real periods by AGM and direct numeric integration of the newform.

Two integrals of 2*pi*i*f are summed from the q-expansion f = sum a_n q^n.

cycle_period integrates over one closed Gamma_0(N) cycle, after Cremona's
"Algorithms for Modular Elliptic Curves".  For gamma = [[a, b], [N, d]] in
Gamma_0(N), the integral from z to gamma z does not depend on z; taking
z = (-d + i)/N puts gamma z at (a + i)/N, so both ends sit at height 1/N
and the sum is sum (a_n/n)(e^{2 pi i n gamma z} - e^{2 pi i n z}).  Each term
is at most 4 e^{-2 pi n/N} in size, since |a_n| <= d(n) sqrt(n) and
d(n) <= 2 sqrt(n), so the tail past T terms has a proven bound, and about
log(1/tol) * N / (2*pi) terms reach the tolerance.  The routine returns the
value with that bound plus a floating-point budget; the eigensymbol's sign
is pinned against it.

modular_symbol_series integrates along the vertical line from a rational
base point a/b to the cusp at infinity.  The q-expansion is truncated at an
explicit term count: the tail of the sum decays like exp(-2*pi*n*delta),
while the discarded segment below height delta is controlled by the decay
of f at the base cusp, of width h = N / gcd(b^2, N).  Balancing the two
gives delta = 2*pi / (h * b^2 * L) with L = log(1/tol), and a term
requirement of about L^2 * h * b^2 / (4*pi^2).  That balance is a
heuristic, not a proof; the series serves as an independent check at b = 1,
where it costs about 7N terms.
"""

from __future__ import annotations

from cmath import exp as cexp
from math import ceil, cos, exp, gcd, log, pi
from sys import float_info

import mpmath as mp

from .curves import EllipticCurve, hecke_an_list
from .errors import InputError, InternalInvariantError


PERIOD_DPS = 30  # working precision of the AGM, in decimal digits


def _root_guard_bits(E: EllipticCurve) -> int:
    """Extra bits for polyroots on 4x^3 - g2 x - g3, from c4, c6 and Delta.

    The roots lie within R of 0, R <= 2 max(sqrt(|c4|/48), cbrt(|c6|/1728))
    (Fujiwara), and their squared differences multiply to Delta/16, so the
    least gap is at least sqrt|Delta| / (16 R^2).  polyroots stops on an
    absolute step below 10^-PERIOD_DPS; rounding in f(x) / prod (x - e_j)
    near two close roots is about eps R^3 / (R * gap), so the steps reach
    that tolerance once eps is below it by R^3 / gap <= 16 R^5 / sqrt|Delta|.
    The count is that bound in bits plus polyroots' own 10.
    """
    radius_bits = 1 + max(-(-E.c4.bit_length() // 2), -(-E.c6.bit_length() // 3))
    return 10 + max(0, 4 + 5 * radius_bits - (abs(E.discriminant).bit_length() - 1) // 2)


def real_periods(E: EllipticCurve) -> tuple[float, float]:
    """(omega_plus, omega_minus): least real period and its imaginary partner.

    omega_plus generates the intersection of the period lattice with the
    real line for either lattice shape.  Roots that polyroots cannot
    separate even with the guard bits raise InternalInvariantError (exit 4).
    """
    with mp.workdps(PERIOD_DPS):
        g2 = mp.mpf(E.c4) / 12
        g3 = mp.mpf(E.c6) / 216
        try:
            roots = mp.polyroots([4, 0, -g2, -g3], extraprec=_root_guard_bits(E))
        except mp.mp.NoConvergence as exc:
            raise InternalInvariantError(
                f"the roots of 4x^3 - g2 x - g3 did not converge for "
                f"{E.label or E.ainvs}: {exc}"
            ) from exc
        if E.discriminant > 0:
            es = sorted((r.real for r in roots), reverse=True)
            e1, e2, e3 = es
            om_p = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            om_m = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
        else:
            # one real root: the root of least imaginary part
            e1 = min(roots, key=lambda r: abs(r.imag)).real
            a = mp.sqrt(3 * e1 * e1 - g2 / 4)
            om_p = 2 * mp.pi / mp.agm(2 * mp.sqrt(a), mp.sqrt(2 * a + 3 * e1))
            om_m = 2 * mp.pi / mp.agm(2 * mp.sqrt(a), mp.sqrt(2 * a - 3 * e1))
        return float(om_p), float(om_m)


def series_terms_needed(N: int, b: int, tol: float) -> int:
    h = N // gcd(b * b, N)
    L = log(1.0 / tol) + 3.0
    return ceil(L * L * h * b * b / (4 * pi * pi)) + 64


def modular_symbol_series(E: EllipticCurve, a: int, b: int, tol: float = 1e-8) -> complex:
    """sum_n (a_n / n) e^{2 pi i n a/b} e^{-2 pi n delta}, the truncated
    period integral of 2 pi i f from a/b + i*delta up to the cusp at infinity
    combined with the bound on the missing lower segment.

    tol must lie strictly between 0 and 1: log(1/tol) needs tol > 0, past
    tol = e^3 the damping factor exceeds 1 and the terms grow, and a
    tolerance of 1 or more asks for no correct digit at all.
    """
    if not 0 < tol < 1:
        raise InputError(f"tolerance must lie strictly between 0 and 1, got {tol}")
    if b == 0:
        return 0j
    if b < 0:
        a, b = -a, -b
    g = gcd(a, b)
    if g > 1:
        a, b = a // g, b // g
    N = E.conductor
    T = series_terms_needed(N, b, tol)
    h = N // gcd(b * b, N)
    L = log(1.0 / tol) + 3.0
    delta = 2 * pi / (h * b * b * L)
    an = hecke_an_list(E, T)
    # e^{2 pi i k / b} table; the phase of term n is the (n*a mod b)-th entry
    zeta = [cexp(2j * pi * k / b) for k in range(b)]
    r = exp(-2 * pi * delta)
    S = 0j
    rn = 1.0
    phase = 0
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
    om_p, _ = real_periods(E)
    S = modular_symbol_series(E, a, b, tol=tol)
    return S.real / om_p


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
    a*d = 1 (mod N).  The real part of term n is
    (a_n/n) r^n (cos(2 pi n a/N) - cos(2 pi n d/N)), summed up to the least
    T whose tail bound is at most tol.

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
    S = 0.0
    rn = 1.0
    a, d = a % N, d % N
    pa = pd = 0
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
