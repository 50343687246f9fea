"""Real periods by AGM and direct numeric integration of the newform.

The series routine integrates 2*pi*i*f along the vertical line from a
rational base point to the cusp at infinity.  The q-expansion is truncated
at an explicit term count: the tail of the sum decays like exp(-2*pi*n*delta),
while the discarded segment below height delta is controlled by the decay of
f at the base cusp, of width h = N / gcd(b^2, N).  Balancing the two gives
delta = 2*pi / (h * b^2 * L) with L = log(1/tol), and a term requirement of
about L^2 * h * b^2 / (4*pi^2).
"""

from __future__ import annotations

from cmath import exp as cexp
from math import ceil, exp, gcd, log, pi

import mpmath as mp

from .curves import EllipticCurve, hecke_an_list


def real_periods(E: EllipticCurve, dps: int = 30) -> tuple[float, float]:
    """(omega_plus, omega_minus): least real period and its imaginary partner.

    omega_plus generates the intersection of the period lattice with the
    real line for either lattice shape.
    """
    with mp.workdps(dps):
        g2 = mp.mpf(E.c4) / 12
        g3 = mp.mpf(E.c6) / 216
        roots = mp.polyroots([4, 0, -g2, -g3])
        if E.discriminant > 0:
            es = sorted((r.real for r in roots), reverse=True)
            e1, e2, e3 = es
            om_p = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            om_m = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
        else:
            e1 = max((r for r in roots if abs(r.imag) < mp.mpf(10) ** (5 - dps)),
                     key=lambda r: r.real, default=None)
            if e1 is None:
                # fall back: the root of least imaginary part is the real one
                e1 = min(roots, key=lambda r: abs(r.imag))
            e1 = e1.real
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
    """
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
