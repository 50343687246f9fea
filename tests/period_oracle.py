"""Reference periods: the real periods by mpmath's polyroots and AGM, the
runtime's method before the periods moved to the standard library's
`decimal`; and the cycle period by the unfolded series at height 1/N, the
runtime's method before the path was folded through W_N.

polyroots gets guard bits from c4, c6 and Delta on top of its own 10, so
that close roots converge, and up to 1000 Durand-Kerner steps instead of
50, which large coefficients need; the steps stop at convergence, so a root
that converged within 50 steps is the same.  `dps` sets the working
precision.
"""

from math import ceil, cos, exp, log, pi
from sys import float_info

import mpmath as mp

from selmerkit.analytic import real_periods as runtime_real_periods
from selmerkit.curves import EllipticCurve, hecke_an_list


def root_guard_bits(E: EllipticCurve) -> int:
    """Extra bits for polyroots on 4x^3 - g2 x - g3, from c4, c6 and Delta.

    The roots lie within R of 0, R <= 2 max(sqrt(|c4|/48), cbrt(|c6|/1728))
    (Fujiwara), and their squared differences multiply to Delta/16, so the
    least gap is at least sqrt|Delta| / (16 R^2).  polyroots stops on an
    absolute step below 10^-dps; rounding in f(x) / prod (x - e_j) near two
    close roots is about eps R^3 / (R * gap), so the steps reach that
    tolerance once eps is below it by R^3 / gap <= 16 R^5 / sqrt|Delta|.
    The count is that bound in bits plus polyroots' own 10.
    """
    radius_bits = 1 + max(-(-E.c4.bit_length() // 2), -(-E.c6.bit_length() // 3))
    return 10 + max(0, 4 + 5 * radius_bits - (abs(E.discriminant).bit_length() - 1) // 2)


def real_periods(E: EllipticCurve, dps: int = 30) -> tuple[float, float]:
    """(omega_plus, omega_minus) at `dps` decimal digits, as floats."""
    with mp.workdps(dps):
        g2 = mp.mpf(E.c4) / 12
        g3 = mp.mpf(E.c6) / 216
        roots = mp.polyroots([4, 0, -g2, -g3], maxsteps=1000, extraprec=root_guard_bits(E))
        if E.discriminant > 0:
            e1, e2, e3 = sorted((r.real for r in roots), reverse=True)
            om_p = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            om_m = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
        else:
            # one real root: the root of least imaginary part
            e1 = min(roots, key=lambda r: abs(r.imag)).real
            a = mp.sqrt(3 * e1 * e1 - g2 / 4)
            om_p = 2 * mp.pi / mp.agm(2 * mp.sqrt(a), mp.sqrt(2 * a + 3 * e1))
            om_m = 2 * mp.pi / mp.agm(2 * mp.sqrt(a), mp.sqrt(2 * a - 3 * e1))
        return float(om_p), float(om_m)


def _series_tail_bound(N: int, omega_plus: float, T: int) -> float:
    """Bound on the part of |series_cycle_period| carried by the terms past T.

    Term n is (a_n/n) times a difference of two numbers of modulus
    r^n = e^{-2 pi n/N}; |a_n|/n <= d(n)/sqrt(n) <= 2, so it is at most 4 r^n,
    and the tail is at most 4 r^{T+1} / (1 - r).
    """
    r = exp(-2 * pi / N)
    return 4 * r ** (T + 1) / ((1 - r) * omega_plus)


def series_cycle_period(E: EllipticCurve, a: int, d: int, tol: float = 1e-10) -> tuple[float, float]:
    """(value, bound) for the cycle {0, b/d} of gamma = [[a, b], [N, d]], a*d = 1
    (mod N), by the O(N) series with no W_N fold.

    The integral from z to gamma z does not depend on z, and z = (-d + i)/N
    puts gamma z at (a + i)/N, so both ends sit at height 1/N and the sum is
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
    assert (a * d - 1) % N == 0, "gamma is not in Gamma_0(N)"
    om_p, _ = runtime_real_periods(E)
    r = exp(-2 * pi / N)
    T = max(1, ceil(N / (2 * pi) * log(4 / ((1 - r) * om_p * tol))) - 1)
    while _series_tail_bound(N, om_p, T) > tol:
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
    return S / om_p, _series_tail_bound(N, om_p, T) + rounding
