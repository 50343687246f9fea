"""Reference P^1(Z/N) fill by unit orbits, kept only as a test oracle.

Scan c = g for each divisor g < N of N with d ascending, then (0 : 1 % N);
each point not yet filled starts a class, and its whole orbit under the units
mod N gets that class.  This is psi(N) * phi(N) writes into an N^2 list.
modsym._p1_fill keeps only one row per divisor of N and a unit lift per c;
the tests compare the class it gives every (c : d) with this table, and
check the eigensymbol's value rows against the classes read from it, so a
fault in the rows cannot pass on both sides.
"""

from math import gcd

from selmerkit.arith import divisors


def unit_orbit_fill(N: int) -> tuple[list[int], list[tuple[int, int]]]:
    """(table, reps): table[c * N + d] is the class of (c : d), -1 off P^1."""
    units = [u for u in range(N) if gcd(u, N) == 1]
    table = [-1] * (N * N)
    reps: list[tuple[int, int]] = []
    starts = [(g, d) for g in divisors(N) if g < N for d in range(N)]
    for c, d in starts + [(0, 1 % N)]:
        if table[c * N + d] >= 0 or gcd(gcd(c, d), N) != 1:
            continue
        k = len(reps)
        reps.append((c, d))
        for u in units:
            table[u * c % N * N + u * d % N] = k
    return table, reps
