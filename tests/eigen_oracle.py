"""Reference eigensymbol line, kept only as a test oracle.

One stacked sparse system over the Manin generators: the two- and
three-term relations, the star rows f(iota x) = sign * f(x), and
T_q f = a_q f for every good prime q up to the Sturm bound, all solved by a
single sparse_nullspace.  modsym instead solves the relations and star rows
once per sign, then cuts that kernel by one T_q - a_q at a time on the rows
where its basis is diagonal; the tests compare the two.
"""

from selmerkit.arith import primerange
from selmerkit.curves import trace_of_frobenius
from selmerkit.linalg import sparse_nullspace
from selmerkit.modsym import psi_index

from lattice_oracle import densify


def _row(pairs):
    row = {}
    for j, v in pairs:
        row[j] = row.get(j, 0) + v
    return row


def stacked_eigenline(E, space, sign, bound=None):
    """Primitive integer basis of the (iota = sign, T_q = a_q) functionals,
    for the good primes q up to `bound` (the Sturm bound by default).

    The eigenline lies in the kernel at every bound, so a kernel that is
    already a line at a lower bound is that line; the Hecke rows of large q
    are dense, and a lower bound keeps the solve short at larger levels.
    """
    N, n = space.N, space.n
    rows = []
    for i in range(n):
        rows.append(_row([(i, 1), (space.sigma[i], 1)]))
        rows.append(_row([(i, 1), (space.tau[i], 1), (space.tau[space.tau[i]], 1)]))
        rows.append(_row([(space.iota[i], 1), (i, -sign)]))
    for q in primerange(2, (bound or psi_index(N) // 6 + 2) + 1):
        if N % q == 0:
            continue
        aq = trace_of_frobenius(E, q)
        for i, img in enumerate(space.hecke_images(q)):
            rows.append(_row(img + [(i, -aq)]))
    return densify(sparse_nullspace(rows, n)[0], n)
