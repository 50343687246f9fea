"""Reference discrete logarithms and primitive roots, kept only for the tests.

kurihara_number reads each log off one walk of the powers of eta and keeps
no table; the plain sum over (Z/n)^* in the tests looks each log up here.
"""

from math import gcd

from sympy import primitive_root


def discrete_log_table(ell: int, eta: int) -> list[int]:
    """table[a] = log_eta(a) in [0, ell - 1) for 1 <= a < ell; table[0] = -1.

    One walk of the cycle eta^0, eta^1, ..., which fails on a revisit, so
    eta must be a primitive root mod the prime ell.
    """
    table = [-1] * ell
    x = 1
    for e in range(ell - 1):
        assert table[x] == -1, f"eta = {eta} is not a primitive root mod {ell}"
        table[x] = e
        x = x * eta % ell
    return table


def three_primitive_roots(q: int) -> list[int]:
    """Distinct primitive roots g^e mod q for the first three e prime to q - 1,
    g the smallest; every prime q = 1 mod 5 has phi(q - 1) >= 3 of them."""
    g = primitive_root(q)
    exps = [e for e in range(1, q - 1) if gcd(e, q - 1) == 1][:3]
    roots = [pow(g, e, q) for e in exps]
    assert len(set(roots)) == 3
    return roots
