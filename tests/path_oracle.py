"""Reference modular-symbol path evaluation, kept only as a test oracle.

This is the direct Manin-symbol walk: each continued-fraction step is
normalized into P^1(Z/N) through ManinSpace.index, with the (-1)^k sign kept.
EigenSymbol.raw_value replaces it with one read of the value rows per step;
the tests compare the two.
"""

from math import gcd


def path_indices(space, a: int, b: int):
    """Generator indices along {oo -> a/b}, repeats included."""
    if b == 0:
        return
    if b < 0:
        a, b = -a, -b
    g = gcd(a, b)
    if g > 1:
        a, b = a // g, b // g
    idx = space.index
    # convergent denominators, seeded so the first term is q_0 = 1, q_{-1} = 0
    q_prev, q_cur = 1, 0
    sign = -1  # (-1)^{k-1} at k = 0
    num, den = a, b
    while True:
        a_k = num // den
        num, den = den, num - a_k * den
        q_prev, q_cur = q_cur, a_k * q_cur + q_prev
        yield idx(sign * q_cur, q_prev)
        sign = -sign
        if den == 0:
            break


def path_vector(space, a: int, b: int) -> dict[int, int]:
    """{oo -> a/b} as a multiset of Manin generators (sparse vector).

    Each partial path is a single generator by unimodularity of consecutive
    convergents.
    """
    out: dict[int, int] = {}
    for j in path_indices(space, a, b):
        out[j] = out.get(j, 0) + 1
    return out


def pair_path(space, f, a: int, b: int) -> int:
    """<f, {oo -> a/b}> for an integer functional f."""
    return sum(f[j] for j in path_indices(space, a, b))
