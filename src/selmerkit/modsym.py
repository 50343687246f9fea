"""Weight-2 Manin symbols for Gamma_0(N) and normalized plus eigensymbols.

The space of modular symbols is presented by generators indexed by P^1(Z/N)
subject to the two-term and three-term Manin relations.  ManinSpace owns
P^1(Z/N) as one row of classes per divisor g of N: the class of (c : d) is
row gcd(c, N) read at a unit multiple of d, for the relations, Merel's T_q
(one flat row of image classes per generator, repeats kept) and the
eigensymbol, which maps the same rows to its values; the cusps that end each
generator's path are read off (c : d) in closed form.  No level keeps an N^2
table.  We work throughout on the dual side: a
"functional" is an integer vector orthogonal to every relation, so the
functional space has dimension 2g + c - 1.  The star involution iota
preserves the relations, so that space splits into its sign +1 and sign -1
parts; each is one sparse kernel, of the relations together with the star
rows f_i - s f_iota(i), as in Cremona's plus and minus quotients.  A space
solves these kernels only when they are first read.

For a rational elliptic curve of conductor N, the plus eigensymbol is the
one-dimensional common eigenspace of the Hecke operators (eigenvalues from
point counts) in the sign +1 part.  It is cut out by integer arithmetic
alone, one T_q - a_q at a time.  The kernel basis of each sign is diagonal on
its free columns, and the Hecke operators commute with each other and with
iota, so every space cut so far is T_q-stable and each of its vectors is
fixed by its values on the generators where the current basis is diagonal.
So each cut solves a |V| x |V| integer system on those rows alone, and its
kernel basis is again diagonal on some of them.  The minus eigensymbol is cut
out of the sign -1 part the same way.  Every line, cut or twisted, then passes
one certificate on all generators: the Manin relations, its star sign, and
T_q f = a_q f (for the cut, with the images of every q it cut by).  The plus
eigensymbol is normalized to take the value group Z exactly on the
integral cycles killed by the minus eigensymbol (the cycles fixed by the
involution can give an index-2 sublattice), so that evaluations are the
classical ratios [a/b]+ = Re int / (real period).  The boundary map is the
incidence matrix of a graph on the cusp classes, one edge per generator, so
that value group is read off the fundamental cycles of a spanning tree, with
the minus functional cancelled by Euclid in the same pass.  The
overall sign is pinned once on a Gamma_0(N) cycle {0, b/d} = {0, gamma 0}
with gamma = [[a, b], [N, d]]: the first d >= 2 prime to N on which the
symbol is nonzero.  Its exact value [b/d]+ - [0]+ is compared with the
cycle period of the analytic module, whose error is bounded.  That period
folds the cycle through the Fricke involution W_N, so that its ends sit at
height 1/(d sqrt N); the W_N eigenvalue it needs is read exactly off the
symbol, as the ratio of the symbol on W_N {0, b/d} = {oo, -d/(N b)} to its
value on {0, b/d}, and must be +-1.

The twist E^D of a pair is not cut at its level M = N D^2.  By the twisting
formula f_chi = tau(chi)^-1 sum_{u mod |D|} chi(u) f(z + u/|D|), its plus
and minus lines are chi-twisted sums of the minus and plus lines that E's
eigensymbol keeps (plus and minus for D > 0), each path read by a signed
continued-fraction walk at level N.  The level-M space then serves only its
P^1 rows and cusp ends; each line passes the same certificate, with two
primes q whose T_q rows are read one at a time, and is normalized and pinned
as above, so the symbol is the one the cut would give.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count, islice
from math import gcd

from .analytic import cycle_period
from .arith import divisors, factorint, isprime, kronecker_symbol, primerange, totient
from .curves import EllipticCurve, trace_of_frobenius
from .errors import AmbiguityError, InputError, InternalInvariantError
from .linalg import sparse_nullspace, strip_content

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


def cusp_key(N: int, u: int, v: int) -> tuple[int, int]:
    """(g, u (v/g) mod gcd(g, N/g)) with g = gcd(v, N), for u/v in lowest terms.

    Gamma_0(N) and u/v -> -u/-v keep the key, so equivalent cusps share it;
    it is the class invariant of Cremona's cusp equivalence criterion.  It
    reads u only modulo gcd(v, N), so u need only be right modulo that.
    """
    g = gcd(v, N)
    return g, u * (v // g) % gcd(g, N // g)


# ---------------------------------------------------------------------------
# the Manin space at level N


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


def _lift(c: int, d: int) -> tuple[int, int]:
    """(a, b) with [[a, b], [c, d]] in SL2(Z), for coprime c >= 0 and d:
    a = d^-1 mod c and b = (ad - 1)/c, or the identity at (0 : 1)."""
    if c == 0:
        return 1, 0
    a = pow(d, -1, c)
    return a, (a * d - 1) // c


def _p1_fill(N: int) -> tuple[dict[int, list[int]], list[tuple[int, int]], list[tuple[int, int]]]:
    """(p1_rows, p1_lift, p1_reps): P^1(Z/N) as d(N) rows of N classes.

    A unit u maps (c : d) to (u c : u d), so g = gcd(c, N) is constant on a
    class, and the classes met in row c = g are the orbits of d under the
    units u = 1 mod N/g.  Each divisor row g < N is scanned once, d
    ascending, and (0 : 1) comes last (row g = N, for c = 0), so the classes
    are numbered by g and then by their least d; p1_rows[g][d] is the class
    of (g : d), or -1 off P^1.  Row c is u g for a unit u, and
    (c : d) = u (g : u^-1 d), so p1_lift[c] = (g, u^-1 mod N).
    """
    units = [u for u in range(N) if gcd(u, N) == 1]
    reps: list[tuple[int, int]] = []
    rows: dict[int, list[int]] = {}
    for g in divisors(N)[:-1]:
        stabilizer = [u for u in units if u % (N // g) == 1]
        row = [-1] * N
        for d in range(N):
            if row[d] < 0 and gcd(d, g) == 1:
                k = len(reps)
                reps.append((g, d))
                for u in stabilizer:
                    row[u * d % N] = k
        rows[g] = row
    rows[N] = [len(reps) if gcd(d, N) == 1 else -1 for d in range(N)]
    reps.append((0, 1 % N))
    if len(reps) != psi_index(N):
        raise InternalInvariantError(
            f"P^1(Z/{N}) has {len(reps)} classes, expected {psi_index(N)}"
        )
    lift = []
    for c in range(N):
        g = gcd(c, N)
        u = c // g
        while gcd(u, N) != 1:  # lift c/g, a unit mod N/g, to a unit mod N
            u += N // g
        lift.append((g, pow(u, -1, N) or N))  # v in 1 .. N, a stride even at N = 1
    return rows, lift, reps


class ManinSpace:
    """Relation data, functionals and operators at a fixed level N.

    P^1(Z/N) is kept as the divisor rows of _p1_fill, with no N^2 table: the
    class of (c : d) is p1_rows[g][v d mod N] for (g, v) = p1_lift[c].  index
    reads them one pair at a time, and an EigenSymbol maps them to its value
    rows, which its raw_sum reads the same way.  Class k is the unit orbit of
    p1_reps[k]: (g, least d) for a divisor g < N of N, or (0 : 1).  The
    constructor builds only P^1(Z/N), the generating actions sigma, tau and
    iota, and cusp_ends, the two cusp classes of each generator.
    functionals[s], s = +-1, is a primitive integer basis of the functionals
    with f(iota x) = s f(x), sparse {generator: value} dicts; m counts both.
    free_columns[s] lists the generators on which that basis is diagonal, one
    per vector, as sparse_nullspace returns them.  These relation kernels are
    solved on first use, so a space read only for its P^1 and cusp ends (the
    level of a twist, twist_eigensymbol) never solves them.
    """

    def __init__(self, N: int):
        if N < 1:
            raise InputError(f"level must be positive, got N={N}")
        self.N = N
        self.p1_rows, self.p1_lift, reps = _p1_fill(N)
        self.p1_reps, self.n = reps, len(reps)
        idx = self.index
        # index permutations of the generating actions
        self.sigma = [idx(d, -c) for (c, d) in reps]
        self.tau = [idx(d, -c - d) for (c, d) in reps]
        self.iota = [idx(-c, d) for (c, d) in reps]
        self.genus = genus_x0(N)
        self.ncusps = cusp_number(N)
        self._build_boundary()

    @cached_property
    def _kernels(self) -> tuple[dict[int, list[dict[int, int]]], dict[int, list[int]]]:
        """(functionals, free_columns), solved on first use, with the
        dimension of the whole kernel checked against 2g + c - 1."""
        n = self.n
        # one two-term and one three-term relation per generator; sparse_nullspace
        # drops the repeats that come from the sigma and tau orbits
        relations = []
        for i in range(n):
            relations.append(Counter((i, self.sigma[i])))
            relations.append(Counter((i, self.tau[i], self.tau[self.tau[i]])))
        # functionals[s] is the kernel of the relations and of f_i - s f_iota(i),
        # which at a fixed point of iota is 2 f_i for s = -1 and absent for s = +1
        functionals, free_columns = {}, {}
        for s in (1, -1):
            star_rows = [{i: 1, j: -s} if i != j else {i: 1 - s}
                         for i, j in enumerate(self.iota) if i <= j]
            functionals[s], free_columns[s] = sparse_nullspace(relations + star_rows, n)
        # iota preserves the relations, so the two signs split the whole kernel
        m = len(functionals[1]) + len(functionals[-1])
        expected = 2 * self.genus + self.ncusps - 1
        if m != expected:
            raise InternalInvariantError(
                f"functional space at N={self.N} has dimension {m}, expected {expected}"
            )
        return functionals, free_columns

    @property
    def functionals(self) -> dict[int, list[dict[int, int]]]:
        return self._kernels[0]

    @property
    def free_columns(self) -> dict[int, list[int]]:
        return self._kernels[1]

    @property
    def m(self) -> int:
        return len(self.functionals[1]) + len(self.functionals[-1])

    def index(self, c: int, d: int) -> int:
        """The class of (c : d) in P^1(Z/N)."""
        N = self.N
        g, v = self.p1_lift[c % N]
        k = self.p1_rows[g][v * d % N]
        if k < 0:
            raise InputError(f"({c % N}:{d % N}) is not a point of P^1(Z/{N})")
        return k

    # -- boundary map ------------------------------------------------------

    def _build_boundary(self):
        """cusp_ends[i] = (from, to): the cusp classes where generator i
        starts and ends, classes numbered in order of first appearance.  The
        boundary map is the incidence matrix of this graph on the cusps.

        Generator (c : d) is the path {b/d -> a/c} of its lift
        [[a, b], [c, d]] in SL2(Z) (_lift).  A key count equal to the number of
        cusp classes shows that the key also separates classes at this level.
        """
        N = self.N
        classes: dict[tuple[int, int], int] = {}
        ends = []
        for c, d in self.p1_reps:
            a, b = _lift(c, d)
            k_from = classes.setdefault(cusp_key(N, b, d), len(classes))
            k_to = classes.setdefault(cusp_key(N, a, c), len(classes))
            ends.append((k_from, k_to))
        if len(classes) != self.ncusps:
            raise InternalInvariantError(
                f"found {len(classes)} cusp classes at N={N}, expected {self.ncusps}"
            )
        self.cusp_ends = ends

    # -- operators on functionals -------------------------------------------

    def hecke_images(self, q: int):
        """T_q on generators, q prime to N: images[0], images[1], ..., made
        one row at a time as they are iterated.

        images[i] lists the classes j of Merel's matrices of determinant q
        acting on the symbol (c : d) of generator i, repeats kept, and f goes
        to (T_q f)_i = sum of f_j over images[i].  A q dividing N is refused
        at the call: the same matrices then give neither T_q nor U_q.
        """
        N = self.N
        if N % q == 0:
            raise InputError(f"T_q needs q prime to the level; q = {q} divides N = {N}")
        index, mats = self.index, _merel_matrices(q)
        return ([index(c * a + d * cc, c * b + d * dd) for a, b, cc, dd in mats]
                for c, d in self.p1_reps)


def build_manin_space(N: int) -> ManinSpace:
    """A fresh space at level N; nothing keeps it once its symbols are gone."""
    return ManinSpace(N)


# ---------------------------------------------------------------------------
# eigensymbols


@dataclass
class EigenSymbol:
    """Plus modular symbol of a curve, normalized on integral plus cycles.

    eval_plus(a, b) returns [a/b]+ as an exact rational; raw_value gives the
    integer pairing against the primitive integer functional, with
    [a/b]+ = sign * raw / denominator, and raw_sum a weighted sum of such
    pairings over one denominator.

    Construction maps each P^1(Z/N) divisor row of the space (Cremona,
    "Algorithms for Modular Elliptic Curves") through fvec once, into a value
    row that reads 0 at pairs that are not points of P^1(Z/N), and keeps
    _rows[c] = (value row g, v) for (g, v) = p1_lift[c]: fvec at the class
    of (c : d) is value row g read at v d mod N.  So a symbol holds d(N) rows
    of N values and N lifts, and no N^2 table.  The functional must be
    star-invariant, f(iota x) = f(x); anything else is refused.  minus is
    the primitive minus line of the same eigensystem: the normalization
    reads it, and twist_eigensymbol reads a twist's lines off fvec and minus.
    """

    curve: EllipticCurve
    space: ManinSpace
    fvec: tuple[int, ...]
    minus: tuple[int, ...]
    denominator: int
    sign: int
    _rows: list[tuple[list[int], int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        space, f = self.space, self.fvec
        if any(f[space.iota[i]] != f[i] for i in range(space.n)):
            raise InternalInvariantError(
                "eigensymbol functional is not invariant under the star involution"
            )
        values = list(f) + [0]  # index -1, a non-point, reads 0
        rows = {g: [values[k] for k in row] for g, row in space.p1_rows.items()}
        self._rows = [(rows[g], v) for g, v in space.p1_lift]

    def raw_value(self, a: int, b: int) -> int:
        """<fvec, {oo -> a/b}>: raw_sum of the one term (a, 1) over |b|."""
        if b == 0:
            return 0
        return self.raw_sum(abs(b), ((a, 1),))

    def raw_sum(self, n: int, terms) -> int:
        """Sum of w * <fvec, {oo -> a/n}> over the pairs (a, w) of terms, n > 0.

        Each a is first folded to min(a mod n, n - a mod n): translation by 1
        fixes the symbol, and so does x -> -x, since fvec is star-invariant.
        Terms with w = 0 are skipped.  Consecutive convergents
        p_{k-1}/q_{k-1}, p_k/q_k of a/n give the Manin generator
        ((-1)^{k-1} q_k : q_{k-1}); the sign is dropped because (-c : d) is
        the star image of (c : d).  The convergent denominators depend only on
        the partial quotients, which a common factor of a and n does not
        change, so they are tracked mod N without reducing a/n.  The first
        step of every a/n gives (1 : 0), so that value is read once for the
        whole sum, times the total weight; each later step reads (c : d) as
        row[v d mod N] for (row, v) = _rows[c].
        """
        N = self.space.N
        rows = self._rows
        total = weight = 0
        for a, w in terms:
            if not w:
                continue
            b = a % n
            if b + b > n:
                b = n - b
            a, q_prev, q_cur = n, 0, 1  # the state after the first step
            raw = 0
            while b:
                k = a // b
                a, b = b, a - k * b
                q_prev, q_cur = q_cur, (k * q_cur + q_prev) % N
                row, v = rows[q_cur]
                raw += row[v * q_prev % N]
            total += w * raw
            weight += w
        return total + weight * rows[1 % N][0][0]  # (1 : 0) is row 1 read at 0

    def eval_plus(self, a: int, b: int) -> Fraction:
        return Fraction(self.sign * self.raw_value(a, b), self.denominator)


def _cut(V, F, images, eigenvalue: int) -> tuple[list[dict[int, int]], list[int]]:
    """(W, F'): a primitive integer basis W of span(V) cut by A - eigenvalue,
    and the generators F' on which W is diagonal; V and W hold sparse dicts.

    V must be diagonal on the generators F, one per vector, and span a space
    that A preserves; A acts pointwise, (Af)_i = sum of f_j over the classes
    j of images[i], and only the images of F are read.  A vector of that space
    vanishes exactly when it vanishes on F, so the combinations x with
    sum x_k (A - eigenvalue) V_k = 0 are the kernel of the |V| x |V| system
    on the rows F.  The kernel basis is diagonal on its free positions k, so
    W is diagonal on F[k] for those k.
    """
    rows = [{} for _ in F]
    for k, v in enumerate(V):
        for r, i in enumerate(F):
            w = sum(v.get(j, 0) for j in images[i]) - eigenvalue * v.get(i, 0)
            if w:
                rows[r][k] = w
    kernel, free = sparse_nullspace(rows, len(V))
    cut = []
    for x in kernel:
        w = Counter()
        for k, xk in x.items():
            w.update({j: xk * vj for j, vj in V[k].items()})
        cut.append(strip_content({j: wj for j, wj in w.items() if wj}))
    return cut, [F[k] for k in free]


def _isolate_functionals(E: EllipticCurve, space: ManinSpace) -> tuple[tuple[list[int], list[int]], list]:
    """((plus, minus), used): primitive integer functionals spanning the
    (T_q, iota = +1) and (T_q, iota = -1) eigenspaces of E, found by cutting
    the space's functionals of each star sign by T_q - a_q for good primes q
    in order, and the (q, a_q, images of T_q) it cut by, for _certify.  Each
    sign stops cutting once its space is at most a line; both stop once q
    passes the Sturm bound.

    Each cut solves only the rows at the generators where the current basis
    is diagonal (the free columns of the sign's kernel to begin with): the
    Hecke operators commute with each other and with iota, so every space cut
    so far is T_q-stable and a vector in it is fixed by those values.
    """
    N = E.conductor
    spaces, frees = dict(space.functionals), dict(space.free_columns)
    for sign, V in spaces.items():
        F, free = frees[sign], set(frees[sign])
        if len(F) != len(V) or any(free.intersection(v) != {i} or v[i] <= 0 for v, i in zip(V, F)):
            raise InternalInvariantError(
                f"functional basis of star sign {sign:+d} at N={N} "
                "is not diagonal on its free columns"
            )
    sturm = psi_index(N) // 6 + 2
    used = []
    for q in primerange(2, 6 * sturm):
        if N % q == 0:
            continue
        cutting = [sign for sign, V in spaces.items() if len(V) > 1]
        if not cutting:
            break
        aq = trace_of_frobenius(E, q)
        images = list(space.hecke_images(q))
        for sign in cutting:
            spaces[sign], frees[sign] = _cut(spaces[sign], frees[sign], images, aq)
        used.append((q, aq, images))
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
    # only the two lines are laid out densely, for _certify and _normalized
    return tuple([V[0].get(i, 0) for i in range(space.n)] for V in (spaces[1], spaces[-1])), used


def _certify(E: EllipticCurve, space: ManinSpace, lines, hecke):
    """lines = (plus, minus) of E, once each satisfies on all generators of
    space the two- and three-term Manin relations, f(iota x) = +-f(x), and
    T_q f = a_q f for every (q, a_q, images of T_q) that hecke yields, the
    images (as hecke_images gives them) read once, row by row;
    InternalInvariantError otherwise.  The one certificate of an eigenline."""
    sigma, tau, iota = space.sigma, space.tau, space.iota
    name = E.label or E.ainvs
    for sign, f in zip((1, -1), lines):
        if any(f[i] + f[sigma[i]] or f[i] + f[tau[i]] + f[tau[tau[i]]]
               for i in range(space.n)):
            raise InternalInvariantError(
                f"eigensymbol line of {name} (star sign {sign:+d}) fails the Manin relations"
            )
        if any(f[iota[i]] != sign * f[i] for i in range(space.n)):
            raise InternalInvariantError(f"eigensymbol line of {name} is not of star sign {sign:+d}")
    for q, aq, images in hecke:
        for i, img in enumerate(images):
            if any(sum(f[j] for j in img) != aq * f[i] for f in lines):
                raise InternalInvariantError(f"eigensymbol line of {name} fails T_{q} f = {aq} f")
    return lines


# ---------------------------------------------------------------------------
# the twist's eigensymbol from the base curve's symbols


def _path_values(space: ManinSpace, plus, minus, p: int, q: int) -> tuple[int, int]:
    """(<plus, {oo -> p/q}>, <minus, {oo -> p/q}>) at the level of space, for
    q >= 0; a path from oo to oo (q = 0) is worth (0, 0).

    Consecutive convergents p_{k-1}/q_{k-1}, p_k/q_k of p/q give the Manin
    generator ((-1)^{k-1} q_k : q_{k-1}).  The functionals need not be
    star-invariant, so the sign is kept.  The convergent denominators are
    tracked mod N without reducing p/q, and translation by 1 is in
    Gamma_0(N), so only p mod q is walked.
    """
    if q == 0:
        return 0, 0
    N, index = space.N, space.index
    j = index(1, 0)  # the first step, {oo -> floor(p/q)}, is (1 : 0)
    x, y = plus[j], minus[j]
    a, b = q, p % q
    q_prev, q_cur, s = 0, 1, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        q_prev, q_cur = q_cur, (k * q_cur + q_prev) % N
        j = index(s * q_cur, q_prev)
        x += plus[j]
        y += minus[j]
        s = -s
    return x, y


def _twisted_functionals(sym: EigenSymbol, D: int, space: ManinSpace) -> tuple[list[int], list[int]]:
    """The plus and minus functionals of sym's curve E twisted by
    chi = (D / .) on the generators of space, at level N D^2, before their
    primitive parts.

    By f_chi = tau(chi)^-1 sum_{u mod |D|} chi(u) f(z + u/|D|) (Shimura;
    Mazur-Tate-Teitelbaum), the twist's symbol on a path {r -> s} is a
    multiple of sum_u chi(u) (Phi_E(oo -> s + u/|D|) - Phi_E(oo -> r + u/|D|)),
    with Phi_E read off sym's plus and minus lines at level N.  Generator
    (c : d) is the path {b/d -> a/c} of its lift [[a, b], [c, d]] (_lift).
    tau(chi) is real for D > 0 and imaginary for D < 0, so an
    odd chi takes the twist's plus part from E's minus and its minus part
    from E's plus.
    """
    base, plus, minus = sym.space, sym.fvec, sym.minus
    m = abs(D)
    chars = [(u, kronecker_symbol(D, u)) for u in range(m) if gcd(u, m) == 1]
    twisted_plus, twisted_minus = [], []
    for c, d in space.p1_reps:
        a, b = _lift(c, d)
        x = y = 0
        for u, chi in chars:
            x_to, y_to = _path_values(base, plus, minus, a * m + u * c, c * m)
            x_from, y_from = _path_values(base, plus, minus, b * m + u * d, d * m)
            x += chi * (x_to - x_from)
            y += chi * (y_to - y_from)
        twisted_plus.append(x)
        twisted_minus.append(y)
    if D < 0:
        return twisted_minus, twisted_plus
    return twisted_plus, twisted_minus


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
        a, b = _lift(N, d)
        if sym.raw_value(b, d) != base:
            return a, b, d
    raise InternalInvariantError(
        f"eigensymbol vanishes on every cycle {{0, b/d}} with d <= {CYCLE_SEARCH_LIMIT}"
    )


def isolate_eigensymbol(E: EllipticCurve, space: ManinSpace | None = None) -> EigenSymbol:
    """The normalized plus eigensymbol of E, cut out of the functionals at
    level N by the Hecke operators (_isolate_functionals), certified with the
    images of T_q it was cut by (_certify), sign pinned numerically
    (_normalized).  This is the one path for a curve taken on its own;
    twist_eigensymbol reads the curve's twists off the symbol it gives.
    """
    N = E.conductor
    if space is None:
        space = build_manin_space(N)
    if space.N != N:
        raise InputError("space level does not match the curve conductor")
    if space.genus == 0:
        raise InputError(f"no cusp forms at level {N}")
    return _normalized(E, space, *_certify(E, space, *_isolate_functionals(E, space)))


def twist_eigensymbol(sym: EigenSymbol, D: int, twist: EllipticCurve) -> EigenSymbol:
    """The normalized plus eigensymbol of twist = E^D, read off sym, the
    eigensymbol of E.

    The twist's lines at level M = N D^2 are the chi_D-twisted sums of sym's
    plus and minus lines (_twisted_functionals), so nothing is cut again at
    level N, the level-M space is built only for its P^1 rows, its
    generating actions and its cusp ends, and no relation kernel or
    Hecke cut is solved there.  The primitive lines pass the cut's
    certificate (_certify), with T_q for the first two primes q prime to M,
    a_q counted on the twist, and are then normalized and pinned exactly as
    isolate_eigensymbol does, so sign * fvec and the denominator are the
    cut's.
    """
    M = sym.space.N * D * D
    if twist.conductor != M:
        raise InputError(f"twist conductor {twist.conductor} is not N D^2 = {M}")
    space = build_manin_space(M)
    lines = []
    for f in _twisted_functionals(sym, D, space):
        g = gcd(*f)
        if g == 0:
            raise InternalInvariantError(f"twisted functional of {twist.label or twist.ainvs} vanishes")
        lines.append([x // g for x in f])
    # one row of T_q's images at a time: at level M a whole T_q is the step's largest object
    primes = islice((q for q in count(2) if M % q and isprime(q)), 2)
    hecke = ((q, trace_of_frobenius(twist, q), space.hecke_images(q)) for q in primes)
    return _normalized(twist, space, *_certify(twist, space, lines, hecke))


def _fricke_sign(sym: EigenSymbol, b: int, d: int) -> int:
    """w = +-1 with f | W_N = w f, read exactly off the symbol on the cycle
    {0, b/d} of _nonzero_cycle.  The Fricke involution W_N: tau -> -1/(N tau)
    commutes with the Hecke operators and with the star involution, so it
    acts on the plus eigenline by w, and it maps {0, b/d} to
    {oo, -d/(N b)}: [-d/(N b)]+ = w ([b/d]+ - [0]+).  Any other ratio is a
    fault in the symbol.
    """
    cycle = sym.raw_value(b, d) - sym.raw_value(0, 1)
    image = sym.raw_value(-d, sym.space.N * b)
    if not cycle or image not in (cycle, -cycle):
        raise InternalInvariantError(
            f"W_{sym.space.N} maps the cycle {{0, {b}/{d}}} to {image}/{cycle} times itself, not +-1"
        )
    return 1 if image == cycle else -1


def _value_group(space: ManinSpace, f, f_minus) -> int:
    """gcd of f over the integral cycles that f_minus kills; 0 if f vanishes
    on all of them.

    The boundary map is the incidence matrix of the cusp graph, whose edges
    are the generators (space.cusp_ends), so the integral cycles are its
    cycle space, spanned over Z by the fundamental cycles of a spanning tree
    (Cremona, ch. 2).  Each cusp gets the potential pair (f, f_minus) summed
    along the tree from cusp 0, and generator i's fundamental cycle takes
    x_i - (pot[to] - pot[from]) for x = f, f_minus, which is 0 on a tree
    edge.  One pass of Euclid on the f_minus entries reduces those pairs, and
    the gcd is that of the f parts left where f_minus cancels.
    """
    # the cusp graph with one edge kept per pair of cusps, searched from cusp 0
    links = [{} for _ in range(space.ncusps)]
    for i, (k_from, k_to) in enumerate(space.cusp_ends):
        links[k_from].setdefault(k_to, (i, 1))
        links[k_to].setdefault(k_from, (i, -1))
    pot, stack = {0: (0, 0)}, [0]
    while stack:
        k = stack.pop()
        pf, pm = pot[k]
        for other, (i, s) in links[k].items():
            if other not in pot:
                pot[other] = (pf + s * f[i], pm + s * f_minus[i])
                stack.append(other)
    if len(pot) != space.ncusps:
        raise InternalInvariantError(
            f"the generators at N={space.N} connect {len(pot)} of {space.ncusps} cusp classes"
        )
    den = gi = fi = 0  # (gi, fi): the pivot, whose f_minus entry divides every one so far
    for i, (k_from, k_to) in enumerate(space.cusp_ends):
        (f0, m0), (f1, m1) = pot[k_from], pot[k_to]
        g, r = f_minus[i] - m1 + m0, f[i] - f1 + f0
        while g:
            q = gi // g
            gi, fi, g, r = g, r, gi - q * g, fi - q * r
        den = gcd(den, r)
    return den


def _normalized(E: EllipticCurve, space: ManinSpace, f_int, f_minus) -> EigenSymbol:
    """The eigensymbol of E on the plus line f_int, normalized and pinned.

    Normalization: the value group of the symbol on integral cycles killed by
    the minus line f_minus (_value_group, off a spanning tree of the cusps)
    is exactly Z.  Those cycles integrate onto the full real sublattice of
    the period lattice (the star-fixed cycles alone can land in an index-2
    sublattice), so evaluations agree with Re(period integral) / omega_plus
    on the nose.

    The sign is pinned on one Gamma_0(N) cycle {0, b/d}: its exact value
    [b/d]+ - [0]+ is compared with the cycle period, which comes with a
    proven error bound.  The period folds the cycle through W_N (Cremona's
    trick), so it needs the W_N eigenvalue w; that is read exactly off the
    symbol (_fricke_sign), never taken from an ingested root number, and it
    must be +-1.  The folded series then has about 4 d sqrt(N) terms, not
    about 4 N.  The pin needs the exact value to exceed twice the bound, and
    the pinned value must then lie within the bound.
    """
    denominator = _value_group(space, f_int, f_minus)
    if denominator == 0:
        raise InternalInvariantError("eigensymbol vanishes on all real cycles")

    sym = EigenSymbol(curve=E, space=space, fvec=tuple(f_int), minus=tuple(f_minus),
                      denominator=denominator, sign=1)

    _, b, d = _nonzero_cycle(sym)
    exact = float(sym.eval_plus(b, d) - sym.eval_plus(0, 1))
    approx, bound = cycle_period(E, b, d, _fricke_sign(sym, b, d))
    if abs(exact) <= 2 * bound:
        raise InternalInvariantError("cycle value too small to pin the sign")
    if abs(exact - approx) > abs(exact + approx):
        sym.sign = -1
    check = sym.sign * exact
    if abs(check - approx) > bound:
        raise InternalInvariantError(
            f"normalized symbol disagrees with direct integration: {check} vs {approx} (bound {bound})"
        )
    return sym
