"""Reference eigensymbol line, kept only as a test oracle.

One stacked sparse system over the Manin generators: the two- and
three-term relations, the star rows f(iota x) = sign * f(x), and
T_q f = a_q f for every good prime q up to the Sturm bound, all solved by a
single sparse_nullspace.  modsym instead solves the relations and star rows
once per sign, then cuts that kernel by one T_q - a_q at a time; the tests
compare the two.
"""

from selmerkit.arith import primerange
from selmerkit.curves import trace_of_frobenius
from selmerkit.linalg import sparse_nullspace
from selmerkit.modsym import psi_index


def _row(pairs):
    row = {}
    for j, v in pairs:
        row[j] = row.get(j, 0) + v
    return row


def stacked_eigenline(E, space, sign):
    """Primitive integer basis of the (iota = sign, T_q = a_q) functionals."""
    N, n = space.N, space.n
    rows = []
    for i in range(n):
        rows.append(_row([(i, 1), (space.sigma[i], 1)]))
        rows.append(_row([(i, 1), (space.tau[i], 1), (space.tau[space.tau[i]], 1)]))
        rows.append(_row([(space.iota[i], 1), (i, -sign)]))
    sturm = psi_index(N) // 6 + 2
    for q in primerange(2, sturm + 1):
        if N % q == 0:
            continue
        aq = trace_of_frobenius(E, q)
        for i, img in enumerate(space.hecke_images(q)):
            rows.append(_row(img + [(i, -aq)]))
    return sparse_nullspace(rows, n)
