"""Reference real periods: mpmath's polyroots and AGM, the runtime's method
before the periods moved to the standard library's `decimal`.

polyroots gets guard bits from c4, c6 and Delta on top of its own 10, so
that close roots converge, and up to 1000 Durand-Kerner steps instead of
50, which large coefficients need; the steps stop at convergence, so a root
that converged within 50 steps is the same.  `dps` sets the working
precision.
"""

import mpmath as mp

from selmerkit.curves import EllipticCurve


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
