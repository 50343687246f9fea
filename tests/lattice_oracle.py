"""Reference lattice computations, kept only as test oracles.

integer_kernel builds a Z-basis of an integer kernel by unimodular column
reduction with the full n x n transform; kernel_image_gcd runs the same
reduction without the transform and returns only the gcd of a form on that
kernel.  cusp_classes partitions cusps by the pairwise Gamma_0(N)
equivalence test of Cremona's "Algorithms for Modular Elliptic Curves",
one scan over the classes found so far per cusp, at the ends of an explicit
SL2 lift of each generator found by search, and boundary_rows lays the
boundary map out as a dense cusps x generators matrix; ManinSpace keys each
cusp, read off the generator in closed form, and keeps only each
generator's two ends.  kernel_image_gcd over boundary_rows plus the minus
line is the dense reference for the value group that modsym reads off a
spanning tree of the cusps.  densify lays out the sparse kernel bases of
linalg as the dense vectors the oracles and the tests read.  The tests
compare the two sides.
"""

from math import gcd


def densify(basis, n):
    """The {column: value} dicts of a sparse basis as integer lists of length n."""
    return [[v.get(i, 0) for i in range(n)] for v in basis]


def integer_kernel(rows):
    """Z-basis of the integer kernel of an integer matrix.

    `rows` is a list of integer row lists (all the same length n).  Returns
    a list of integer vectors of length n spanning {x in Z^n : M x = 0}.
    Unimodular column operations only, so the result is a genuine basis of
    the kernel lattice, not merely of the rational kernel.
    """
    if not rows:
        raise ValueError("need at least one row (use identity for no constraints)")
    n = len(rows[0])
    m = len(rows)
    cols = [[rows[i][j] for i in range(m)] for j in range(n)]
    transform = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    active = list(range(n))
    for r in range(m):
        live = [j for j in active if cols[j][r] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][r]))
            j0 = live[0]
            a = cols[j0][r]
            new_live = [j0]
            for j in live[1:]:
                q = cols[j][r] // a
                if q:
                    for i in range(r, m):
                        cols[j][i] -= q * cols[j0][i]
                    tj, t0 = transform[j], transform[j0]
                    for i in range(n):
                        tj[i] -= q * t0[i]
                if cols[j][r] != 0:
                    new_live.append(j)
            live = new_live
        active.remove(live[0])
    kernel = []
    for j in active:
        if all(x == 0 for x in cols[j]):
            kernel.append(list(transform[j]))
    return kernel


def kernel_image_gcd(rows, f) -> int:
    """gcd of f . x over the integer x with rows . x = 0; 0 if f vanishes there.

    `rows` is a list of integer row lists, each as long as `f`.  Unimodular
    column operations bring each row in turn to a single pivot column, and
    are applied to f, carried as a last row, alike.  The columns that never
    became pivots then vanish on every row and span the kernel lattice: the
    pivot columns form a triangular block, so no combination that kills the
    rows can use them.  The answer is the gcd of f on the non-pivot columns.
    """
    m = len(rows)
    cols = [[row[j] for row in rows] + [fj] for j, fj in enumerate(f)]
    active = list(range(len(cols)))  # columns not yet used as a pivot
    for r in range(m):
        live = [j for j in active if cols[j][r] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda j: abs(cols[j][r]))
            c0 = cols[live[0]]
            a = c0[r]
            new_live = [live[0]]
            for j in live[1:]:
                cj = cols[j]
                q = cj[r] // a
                for i in range(r, m + 1):
                    cj[i] -= q * c0[i]
                if cj[r] != 0:
                    new_live.append(j)
            live = new_live
        active.remove(live[0])
    g = 0
    for j in active:
        g = gcd(g, cols[j][m])
    return g


def _inv_mod(u, v):
    # inverse of u mod v; v = 0 means the exact inverse (u = +-1)
    if v == 0:
        return u
    if v == 1:
        return 0
    return pow(u % v, -1, v)


def _reduce_cusp(u, v):
    if v == 0:
        return (1, 0)
    g = gcd(u, v)
    u, v = u // g, v // g
    if v < 0:
        u, v = -u, -v
    return (u, v)


def cusps_equivalent(N, u1, v1, u2, v2):
    """u1/v1 ~ u2/v2 under Gamma_0(N)."""
    u1, v1 = _reduce_cusp(u1, v1)
    u2, v2 = _reduce_cusp(u2, v2)
    g = gcd(v1 * v2, N)
    s1 = _inv_mod(u1, v1)
    s2 = _inv_mod(u2, v2)
    return (s1 * v2 - s2 * v1) % g == 0


def lift_to_sl2(N, c, d):
    """[[a, b], [c', d']] in SL2(Z) whose bottom row is (c, d) mod N."""
    cc = c % N
    dd = d % N
    if cc == 0:
        cc = N
    k = 0
    while gcd(cc, dd) != 1:
        dd += N
        k += 1
        if k > N + 2:
            raise ValueError(f"no coprime lift of ({c}:{d}) mod {N}")
    x = pow(dd, -1, cc)
    # x*dd - b*cc = 1, so det [[x, b], [cc, dd]] = 1
    return (x, (x * dd - 1) // cc, cc, dd)


def generator_ends(space):
    """(from, to) cusps (u, v) of each generator's path {b/d -> a/c}, read
    off an explicit SL2 lift of its bottom row."""
    ends = []
    for c, d in space.p1_reps:
        a, b, cc, dd = lift_to_sl2(space.N, c, d)
        if a * dd - b * cc != 1:
            raise ValueError("lift is not unimodular")
        ends.append(((b, dd), (a, cc)))
    return ends


def cusp_classes(space):
    """(from, to) cusp class of each generator, classes found by pairwise
    tests and numbered in order of first appearance."""
    reps = []

    def cusp_class(u, v):
        for k, (u2, v2) in enumerate(reps):
            if cusps_equivalent(space.N, u, v, u2, v2):
                return k
        reps.append((u, v))
        return len(reps) - 1

    return [(cusp_class(*_reduce_cusp(*frm)), cusp_class(*_reduce_cusp(*to)))
            for frm, to in generator_ends(space)]


def boundary_rows(space):
    """The dense boundary matrix: row k is +1 or -1 where a generator ends
    or starts at cusp class k of cusp_classes."""
    ends = cusp_classes(space)
    rows = [[0] * space.n for _ in range(1 + max(max(e) for e in ends))]
    for i, (k_from, k_to) in enumerate(ends):
        rows[k_to][i] += 1
        rows[k_from][i] -= 1
    return rows
