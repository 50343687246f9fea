"""Weight-2 Manin symbols for Gamma_0(N) and normalized plus eigensymbols.

The space of modular symbols is presented by generators indexed by P^1(Z/N)
subject to the two-term and three-term Manin relations.  We work throughout
on the dual side: a "functional" is an integer vector orthogonal to every
relation, so the functional space computed here has dimension 2g + c - 1.

For a rational elliptic curve of conductor N, the plus eigensymbol is the
one-dimensional common eigenspace of the Hecke operators (eigenvalues from
point counts) fixed by the star involution.  It is cut out of the relation
kernel by integer arithmetic alone: each operator is applied pointwise to
the current basis vectors, and the combinations it sends to the eigenvalue
form the integer kernel of a sparse system.  It is normalized to take the
value group Z exactly on the integral cycles killed by the minus
eigensymbol (the cycles fixed by the involution can give an index-2
sublattice), so that evaluations are the classical ratios
[a/b]+ = Re int / (real period).  The overall sign is pinned once on a
Gamma_0(N) cycle {0, b/d} = {0, gamma 0} with gamma = [[a, b], [N, d]]:
the first d >= 2 prime to N on which the symbol is nonzero.  Its exact
value [b/d]+ - [0]+ is compared with the cycle period of the analytic
module, whose two ends sit at height 1/N and whose error is bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .arith import divisors, factorint, kronecker_symbol, primerange, totient
from .curves import EllipticCurve, trace_of_frobenius
from .errors import AmbiguityError, InputError, InternalInvariantError
from .linalg import gcd_list, integer_kernel, sparse_nullspace

# ---------------------------------------------------------------------------
# index sets and dimension formulas


def psi_index(N: int) -> int:
    """[SL2(Z) : Gamma_0(N)] = N * prod_{p | N} (1 + 1/p)."""
    out = N
    for p in factorint(N):
        out = out // p * (p + 1)
    return out


def cusp_number(N: int) -> int:
    total = 0
    for d in divisors(N):
        total += totient(gcd(d, N // d))
    return total


def genus_x0(N: int) -> int:
    mu = psi_index(N)
    if N % 4 == 0:
        eps2 = 0
    else:
        eps2 = 1
        for p in factorint(N):
            eps2 *= 1 + (0 if p == 2 else kronecker_symbol(-1, p))
    if N % 9 == 0:
        eps3 = 0
    else:
        eps3 = 1
        for p in factorint(N):
            eps3 *= 1 + kronecker_symbol(-3, p)
    g = Fraction(12 + mu, 12) - Fraction(eps2, 4) - Fraction(eps3, 3) - Fraction(cusp_number(N), 2)
    if g.denominator != 1:
        raise InternalInvariantError(f"genus formula not integral at N={N}")
    return int(g)


class P1List:
    """Canonical representatives of P^1(Z/N) with index lookup."""

    def __init__(self, N: int):
        if N < 1:
            raise InputError(f"level must be positive, got N={N}")
        self.N = N
        self._reps: list[tuple[int, int]] = []
        self._index: dict[tuple[int, int], int] = {}
        if N == 1:
            self._reps = [(0, 0)]
            self._index = {(0, 0): 0}
            return
        for g in divisors(N):
            if g == N:
                continue  # the class c = 0 appears as g = N's partner (0, 1)
            for d in range(N):
                if gcd(gcd(g, d), N) != 1:
                    continue
                rep = self.normalize(g, d)
                if rep not in self._index:
                    self._index[rep] = len(self._reps)
                    self._reps.append(rep)
        rep0 = (0, 1)
        if rep0 not in self._index:
            self._index[rep0] = len(self._reps)
            self._reps.append(rep0)
        if len(self._reps) != psi_index(N):
            raise InternalInvariantError(
                f"P^1(Z/{N}) has {len(self._reps)} classes, expected {psi_index(N)}"
            )

    def __len__(self):
        return len(self._reps)

    def rep(self, i: int) -> tuple[int, int]:
        return self._reps[i]

    def normalize(self, c: int, d: int) -> tuple[int, int]:
        """Canonical representative of the class of (c : d)."""
        N = self.N
        if N == 1:
            return (0, 0)
        c %= N
        d %= N
        if gcd(gcd(c, d), N) != 1:
            raise InputError(f"({c}:{d}) is not a point of P^1(Z/{N})")
        if c == 0:
            return (0, 1)
        g0 = gcd(c, N)
        if g0 == 1:
            return (1, d * pow(c, -1, N) % N)
        # scale by a unit u with u*c = g0 (mod N)
        M = N // g0
        c1 = (c // g0) % M
        u = pow(c1, -1, M)
        k = 0
        while gcd(u + k * M, N) != 1:
            k += 1
            if k > N:
                raise InternalInvariantError(f"no unit lift for ({c}:{d}) mod {N}")
        u += k * M
        d1 = u * d % N
        # the stabilizer of g0 scales d1 by units t = 1 mod M; take the least orbit value
        best = d1
        for j in range(1, g0):
            t = 1 + j * M
            if gcd(t, N) == 1:
                cand = t * d1 % N
                if cand < best:
                    best = cand
        return (g0, best)

    def index(self, c: int, d: int) -> int:
        return self._index[self.normalize(c, d)]


# ---------------------------------------------------------------------------
# the Manin space at level N


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    return old_r, old_s, old_t


def _merel_matrices(q: int) -> list[tuple[int, int, int, int]]:
    """Integer matrices [[a,b],[c,d]], det q, a > b >= 0, d > c >= 0."""
    mats = []
    for a in range(1, q + 1):
        for b in range(a):
            if b == 0:
                if q % a:
                    continue
                d = q // a
                for c in range(d):
                    mats.append((a, 0, c, d))
            else:
                # c(a - b) < q keeps d > c
                c = 0
                while c * (a - b) < q:
                    num = q + b * c
                    if num % a == 0:
                        d = num // a
                        if d > c:
                            mats.append((a, b, c, d))
                    c += 1
    return mats


class ManinSpace:
    """Relation data, functionals and operators at a fixed level N."""

    def __init__(self, N: int):
        self.N = N
        self.p1 = P1List(N)
        n = len(self.p1)
        self.n = n
        idx = self.p1.index
        # index permutations of the generating actions
        self.sigma = [idx(d, -c) for (c, d) in self.p1._reps]
        self.tau = [idx(d, -c - d) for (c, d) in self.p1._reps]
        self.iota = [idx(-c, d) for (c, d) in self.p1._reps]

        rows = []
        seen = set()
        for i in range(n):
            j = self.sigma[i]
            key = (min(i, j), max(i, j), "s")
            if key in seen:
                continue
            seen.add(key)
            rows.append({i: 2} if i == j else {i: 1, j: 1})
        for i in range(n):
            orbit = (i, self.tau[i], self.tau[self.tau[i]])
            key = (min(orbit), "t")
            if key in seen:
                continue
            seen.add(key)
            if orbit[1] == i:
                rows.append({i: 3})
            else:
                row: dict[int, int] = {}
                for t in orbit:
                    row[t] = row.get(t, 0) + 1
                rows.append(row)

        self.functionals = sparse_nullspace(rows, n)
        self.m = len(self.functionals)

        self.genus = genus_x0(N)
        self.ncusps = cusp_number(N)
        expected = 2 * self.genus + self.ncusps - 1
        if self.m != expected:
            raise InternalInvariantError(
                f"functional space at N={N} has dimension {self.m}, expected {expected}"
            )

        self._build_boundary()

    # -- boundary map ------------------------------------------------------

    def _lift_to_sl2(self, c: int, d: int) -> tuple[int, int, int, int]:
        """[[a, b], [c', d']] in SL2(Z) whose bottom row is (c, d) mod N."""
        N = self.N
        cc = c % N
        dd = d % N
        if cc == 0:
            cc = N
        k = 0
        while gcd(cc, dd) != 1:
            dd += N
            k += 1
            if k > N + 2:
                raise InternalInvariantError(f"no coprime lift of ({c}:{d}) mod {N}")
        g, x, y = _xgcd(dd, cc)
        if g != 1:
            raise InternalInvariantError("lift failed")
        # x*dd + y*cc = 1, so det [[x, -y], [cc, dd]] = 1
        return (x, -y, cc, dd)

    def _cusp_class(self, u: int, v: int) -> int:
        """Index of the cusp u/v (lowest terms) among Gamma_0(N) classes."""
        if v < 0:
            u, v = -u, -v
        if v == 0:
            u = 1
        for k, (u2, v2) in enumerate(self._cusp_reps):
            if self._cusps_equivalent(u, v, u2, v2):
                return k
        self._cusp_reps.append((u, v))
        return len(self._cusp_reps) - 1

    def _cusps_equivalent(self, u1, v1, u2, v2) -> bool:
        N = self.N
        g = gcd(v1 * v2, N)
        s1 = self._inv_mod(u1, v1)
        s2 = self._inv_mod(u2, v2)
        return (s1 * v2 - s2 * v1) % g == 0

    @staticmethod
    def _inv_mod(u, v):
        # inverse of u mod v; v = 0 means the exact inverse (u = +-1)
        if v == 0:
            return u
        if v == 1:
            return 0
        return pow(u % v, -1, v)

    def _build_boundary(self):
        self._cusp_reps: list[tuple[int, int]] = []
        n = self.n
        ends = []
        for i in range(n):
            c, d = self.p1.rep(i)
            a, b, cc, dd = self._lift_to_sl2(c, d)
            if a * dd - b * cc != 1:
                raise InternalInvariantError("lift is not unimodular")
            # generator i is the path {b/dd -> a/cc}
            k_from = self._cusp_class(*self._reduce_cusp(b, dd))
            k_to = self._cusp_class(*self._reduce_cusp(a, cc))
            ends.append((k_from, k_to))
        if len(self._cusp_reps) != self.ncusps:
            raise InternalInvariantError(
                f"found {len(self._cusp_reps)} cusp classes at N={self.N}, "
                f"expected {self.ncusps}"
            )
        rows = [[0] * n for _ in self._cusp_reps]
        for i, (k_from, k_to) in enumerate(ends):
            rows[k_to][i] += 1
            rows[k_from][i] -= 1
        self.boundary_rows = rows

    @staticmethod
    def _reduce_cusp(u: int, v: int) -> tuple[int, int]:
        if v == 0:
            return (1, 0)
        g = gcd(u, v)
        u, v = u // g, v // g
        if v < 0:
            u, v = -u, -v
        return (u, v)

    # -- operators on functionals -------------------------------------------

    def hecke_images(self, q: int) -> list[list[tuple[int, int]]]:
        """T_q on generators, q prime to N: images[i] lists (j, multiplicity).

        A functional f goes to (T_q f)_i = sum of mult * f_j over images[i]
        (Merel's matrices of determinant q acting on the symbol (c : d)).
        """
        idx = self.p1.index
        mats = _merel_matrices(q)
        images = []
        for c, d in self.p1._reps:
            counts: dict[int, int] = {}
            for a, b, cc, dd in mats:
                c1 = c * a + d * cc
                d1 = c * b + d * dd
                if gcd(gcd(c1, d1), self.N) != 1:
                    continue
                j = idx(c1, d1)
                counts[j] = counts.get(j, 0) + 1
            images.append(list(counts.items()))
        return images

    # -- integral cycles -------------------------------------------------------

    def real_cycle_basis(self, f_minus: tuple[int, ...]) -> list[list[int]]:
        """Integral cycles killed by the minus eigensymbol of a given form.

        Their images under the period integral of that form fill out the full
        intersection of the period lattice with the real line, so the plus
        pairing takes its value group on exactly this lattice.
        """
        rows: list[list[int]] = [list(r) for r in self.boundary_rows]
        rows.append(list(f_minus))
        return integer_kernel(rows)


_SPACE_CACHE: dict[int, ManinSpace] = {}


def build_manin_space(N: int) -> ManinSpace:
    if N not in _SPACE_CACHE:
        _SPACE_CACHE[N] = ManinSpace(N)
    return _SPACE_CACHE[N]


# ---------------------------------------------------------------------------
# eigensymbols


@dataclass
class EigenSymbol:
    """Plus modular symbol of a curve, normalized on integral plus cycles.

    eval_plus(a, b) returns [a/b]+ as an exact rational; raw_value gives the
    integer pairing against the primitive integer functional, with
    [a/b]+ = sign * raw / denominator.

    Construction builds the P^1(Z/N) lookup table of Cremona's "Algorithms
    for Modular Elliptic Curves": a flat list of length N^2 whose entry
    (c mod N) * N + (d mod N) is fvec at the class of (c : d), and 0 at
    pairs that are not points of P^1(Z/N).  It holds one 8-byte slot per
    entry, about 8 N^2 bytes (1.2 MB at N = 389).  The functional must be
    star-invariant, f(iota x) = f(x); anything else is refused.
    """

    curve: EllipticCurve
    space: ManinSpace
    fvec: tuple[int, ...]
    denominator: int
    sign: int
    _table: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        space, f = self.space, self.fvec
        if any(f[space.iota[i]] != f[i] for i in range(space.n)):
            raise InternalInvariantError(
                "eigensymbol functional is not invariant under the star involution"
            )
        N = space.N
        units = [u for u in range(N) if gcd(u, N) == 1]
        tab = [0] * (N * N)
        # each class of P^1(Z/N) is the unit orbit of its representative
        for (c, d), value in zip(space.p1._reps, f):
            for u in units:
                tab[u * c % N * N + u * d % N] = value
        self._table = tab

    def raw_value(self, a: int, b: int) -> int:
        """<fvec, {oo -> a/b}>, one table lookup per continued-fraction step.

        Consecutive convergents p_{k-1}/q_{k-1}, p_k/q_k of a/b give the Manin
        generator ((-1)^{k-1} q_k : q_{k-1}); the sign is dropped because
        (-c : d) is the star image of (c : d).  The convergent denominators
        depend only on the partial quotients, which a common factor of a and
        b does not change, so they are tracked mod N without reducing a/b.
        """
        if b == 0:
            return 0
        if b < 0:
            a, b = -a, -b
        N = self.space.N
        tab = self._table
        q_prev, q_cur = 1, 0
        total = 0
        while b:
            k = a // b
            a, b = b, a - k * b
            q_prev, q_cur = q_cur, (k * q_cur + q_prev) % N
            total += tab[q_cur * N + q_prev]
        return total

    def eval_plus(self, a: int, b: int) -> Fraction:
        return Fraction(self.sign * self.raw_value(a, b), self.denominator)


def _eigen_cut(V: list[list[int]], images, eigenvalue: int) -> list[list[int]]:
    """Primitive integer basis of span(V) intersected with ker(A - eigenvalue).

    A acts pointwise, (Af)_i = sum of mult * f_j over images[i]; it is applied
    only to the vectors of V, and the combinations x with sum x_k (A - ev) V_k
    = 0 are the kernel of that n x |V| integer system.
    """
    if not V:
        return []
    n = len(V[0])
    rows = [{} for _ in range(n)]
    for k, v in enumerate(V):
        for i, img in enumerate(images):
            w = sum(v[j] * mult for j, mult in img) - eigenvalue * v[i]
            if w:
                rows[i][k] = w
    cut = []
    for x in sparse_nullspace(rows, len(V)):
        w = [0] * n
        for xk, v in zip(x, V):
            if xk:
                for i in range(n):
                    w[i] += xk * v[i]
        g = gcd_list(w)
        cut.append([wi // g for wi in w])
    return cut


def _isolate_functionals(E: EllipticCurve, space: ManinSpace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Primitive integer functionals spanning the (T_q, iota = +1) and
    (T_q, iota = -1) eigenspaces of E, found by cutting the relation kernel
    first by the star involution, then by T_q - a_q for good primes q in order.
    Each sign stops cutting once its space is at most a line; both stop once q
    passes the Sturm bound.
    """
    N = E.conductor
    star = [[(j, 1)] for j in space.iota]
    spaces = {sign: _eigen_cut(space.functionals, star, sign) for sign in (1, -1)}
    sturm = psi_index(N) // 6 + 2
    for q in primerange(2, 6 * sturm):
        if N % q == 0:
            continue
        if all(len(V) <= 1 for V in spaces.values()):
            break
        aq = trace_of_frobenius(E, q)
        images = space.hecke_images(q)
        for sign, V in spaces.items():
            if len(V) > 1:
                spaces[sign] = _eigen_cut(V, images, aq)
        if q > sturm:
            break
    for sign, V in spaces.items():
        if len(V) == 0:
            raise InternalInvariantError(
                f"eigensystem of {E.label or E.ainvs} not found in the functional space"
            )
        if len(V) > 1:
            raise AmbiguityError(
                f"eigenspace of {E.label or E.ainvs} (star sign {sign:+d}) "
                f"has dimension {len(V)}"
            )
    return tuple(spaces[1][0]), tuple(spaces[-1][0])


# the largest d tried for a cycle {0, b/d} that the symbol does not kill
CYCLE_SEARCH_LIMIT = 1000


def _nonzero_cycle(sym: EigenSymbol) -> tuple[int, int, int]:
    """(a, b, d) with gamma = [[a, b], [N, d]] in Gamma_0(N) and the cycle
    {0, b/d} = {0, gamma 0} not killed by the symbol, for the least d >= 2.
    """
    N = sym.space.N
    base = sym.raw_value(0, 1)
    for d in range(2, CYCLE_SEARCH_LIMIT + 1):
        if gcd(d, N) != 1:
            continue
        a = pow(d, -1, N)
        b = (a * d - 1) // N
        if sym.raw_value(b, d) != base:
            return a, b, d
    raise InternalInvariantError(
        f"eigensymbol vanishes on every cycle {{0, b/d}} with d <= {CYCLE_SEARCH_LIMIT}"
    )


def isolate_eigensymbol(E: EllipticCurve, space: ManinSpace | None = None) -> EigenSymbol:
    """The normalized plus eigensymbol of E, sign pinned numerically.

    Normalization: the value group of the symbol on integral cycles killed by
    the minus eigensymbol is exactly Z.  Those cycles integrate onto the full
    real sublattice of the period lattice (the star-fixed cycles alone can
    land in an index-2 sublattice), so evaluations agree with
    Re(period integral) / omega_plus on the nose.

    The sign is pinned on one Gamma_0(N) cycle {0, b/d}: its exact value
    [b/d]+ - [0]+ is compared with the cycle period, which comes with a
    proven error bound.  The pin needs the exact value to exceed twice the
    bound, and the pinned value must then lie within the bound.
    """
    from .analytic import cycle_period

    N = E.conductor
    if space is None:
        space = build_manin_space(N)
    if space.N != N:
        raise InputError("space level does not match the curve conductor")
    if space.m == 0:
        raise InputError(f"no cusp forms at level {N}")

    f_int, f_minus = _isolate_functionals(E, space)

    pairings = []
    for w in space.real_cycle_basis(f_minus):
        pairings.append(sum(fi * wi for fi, wi in zip(f_int, w)))
    denominator = gcd_list(pairings)
    if denominator == 0:
        raise InternalInvariantError("eigensymbol vanishes on all real cycles")

    sym = EigenSymbol(curve=E, space=space, fvec=tuple(f_int), denominator=denominator, sign=1)

    a, b, d = _nonzero_cycle(sym)
    exact = float(sym.eval_plus(b, d) - sym.eval_plus(0, 1))
    approx, bound = cycle_period(E, a, d)
    if abs(exact) <= 2 * bound:
        raise InternalInvariantError("cycle value too small to pin the sign")
    if abs(exact - approx) > abs(exact + approx):
        sym.sign = -1
    check = sym.sign * exact
    if abs(check - approx) > bound:
        raise InternalInvariantError(
            f"normalized symbol disagrees with direct integration: {check} vs {approx}"
        )
    return sym
