"""Local data for Gross points of conductor 1.

For an imaginary quadratic field of discriminant -D_K < 0 the ring of
integers is Z + Z*theta for an explicit generator theta whose trace and norm
are integers in both parity cases of D_K.  A definite quaternion algebra
containing K splits at every prime q away from its discriminant, and the
splitting can be written down: theta goes to its companion matrix and the
complementary generator J (with J^2 = beta, J t = tbar J) goes to
sqrt(beta) * [[-1, trd], [0, 1]] once a q-adic square root of beta is fixed.
The Gross point of conductor 1 is assembled from four kinds of local
components, each an explicit 2x2 matrix.

Everything here is finite arithmetic: matrices live over Z/q^m for a fixed
absolute precision m chosen up front, and every identity a constructor
claims is re-checked at that precision before the object is returned.  No
lazy digits, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_fundamental_discriminant, isprime, kronecker_symbol, sqrt_mod_prime
from .errors import HypothesisError, InputError, InternalInvariantError

COMPONENT_CASES = ("away", "split_Nplus", "p_split", "p_inert")


@dataclass(frozen=True)
class QuadraticData:
    """Trace and norm of the standard generator theta of O_K.

    The sign convention keeps D_K positive: the field has discriminant
    -D_K < 0.  The single identity trd^2 - 4 nrd = -D_K pins both parity
    cases at once, and integrality of the two fields encodes
    O_K = Z + Z*theta.
    """

    D_K: int
    theta_trace: int
    theta_norm: int

    def __post_init__(self):
        if self.D_K <= 0:
            raise InputError("D_K must be positive (field discriminant -D_K < 0)")
        lhs = self.theta_trace * self.theta_trace - 4 * self.theta_norm
        if lhs != -self.D_K:
            raise InputError(
                "theta data inconsistent: trd^2 - 4*nrd = %d but -D_K = %d"
                % (lhs, -self.D_K)
            )


def make_theta(D_K: int) -> QuadraticData:
    """Standard generator data for the field of discriminant -D_K.

    Odd D_K: theta = (D_K - sqrt(-D_K)) / 2, so trd = D_K and
    nrd = (D_K^2 + D_K) / 4.  Even D_K: theta = (D_K - 2 sqrt(-D_K)) / 4,
    so trd = D_K / 2 and nrd = (D_K^2 + 4 D_K) / 16.  Fundamentality of
    -D_K makes both quotients exact integers.
    """
    if D_K <= 0 or not is_fundamental_discriminant(-D_K):
        raise InputError("-%s is not a fundamental imaginary quadratic discriminant" % D_K)
    if D_K % 2:
        trace, norm4 = D_K, D_K * D_K + D_K
        if norm4 % 4:
            raise InternalInvariantError("odd fundamental D_K with D_K(D_K+1) not 0 mod 4")
        return QuadraticData(D_K, trace, norm4 // 4)
    trace2, norm16 = D_K, D_K * D_K + 4 * D_K
    if trace2 % 2 or norm16 % 16:
        raise InternalInvariantError("even fundamental D_K with non-integral theta data")
    return QuadraticData(D_K, trace2 // 2, norm16 // 16)


@dataclass(frozen=True)
class PadicMatrix2:
    """2x2 matrix with entries known modulo q^precision.

    Entries are stored row-major as residues in [0, q^precision).  All
    arithmetic truncates to the smaller precision of the operands, so no
    result ever claims digits beyond what its inputs carried.
    """

    q: int
    precision: int
    entries: tuple[int, int, int, int]

    def __post_init__(self):
        if not isprime(self.q):
            raise InputError("matrix prime q = %s is not prime" % self.q)
        if self.precision < 1:
            raise InputError("precision must be at least 1")
        mod = self.q**self.precision
        object.__setattr__(self, "entries", tuple(int(e) % mod for e in self.entries))
        if len(self.entries) != 4:
            raise InputError("a 2x2 matrix needs exactly four entries")

    @classmethod
    def identity(cls, q: int, precision: int) -> "PadicMatrix2":
        return cls(q, precision, (1, 0, 0, 1))

    @classmethod
    def scalar(cls, value: int, q: int, precision: int) -> "PadicMatrix2":
        return cls(q, precision, (value, 0, 0, value))

    @property
    def modulus(self) -> int:
        return self.q**self.precision

    def truncate(self, precision: int) -> "PadicMatrix2":
        if precision > self.precision:
            raise InputError("cannot invent digits: %d > %d" % (precision, self.precision))
        return PadicMatrix2(self.q, precision, self.entries)

    def _common(self, other: "PadicMatrix2") -> int:
        if not isinstance(other, PadicMatrix2) or other.q != self.q:
            raise InputError("matrix arithmetic needs matching residue primes")
        return min(self.precision, other.precision)

    def __mul__(self, other: "PadicMatrix2") -> "PadicMatrix2":
        m = self._common(other)
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return PadicMatrix2(self.q, m, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

    def __add__(self, other: "PadicMatrix2") -> "PadicMatrix2":
        m = self._common(other)
        return PadicMatrix2(self.q, m, tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other: "PadicMatrix2") -> "PadicMatrix2":
        m = self._common(other)
        return PadicMatrix2(self.q, m, tuple(x - y for x, y in zip(self.entries, other.entries)))

    def scale(self, value: int) -> "PadicMatrix2":
        return PadicMatrix2(self.q, self.precision, tuple(value * x for x in self.entries))

    def trace(self) -> int:
        return (self.entries[0] + self.entries[3]) % self.modulus

    def det(self) -> int:
        a, b, c, d = self.entries
        return (a * d - b * c) % self.modulus

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def agrees_with(self, other: "PadicMatrix2") -> bool:
        """Equality at the smaller of the two precisions."""
        m = self._common(other)
        return self.truncate(m).entries == other.truncate(m).entries

    def satisfies_polynomial(self, trace: int, norm: int) -> bool:
        """Whether M^2 - trace*M + norm*Id vanishes at this precision."""
        ident = PadicMatrix2.identity(self.q, self.precision)
        return (self * self - self.scale(trace) + ident.scale(norm)).is_zero()

    def __str__(self) -> str:
        a, b, c, d = self.entries
        return "[[%d, %d], [%d, %d]] mod %d^%d" % (a, b, c, d, self.q, self.precision)


def padic_sqrt(beta: int, q: int, precision: int) -> int:
    """Canonical square root of beta modulo q^precision.

    Requires odd prime q and a unit square beta.  The base root mod q is
    found by Tonelli-Shanks and lifted by Newton iteration, which doubles
    the known digits each pass and never moves the residue mod q; the
    canonical branch is the one whose residue mod q is the smaller of the
    two base roots.
    """
    if not isprime(q) or q == 2:
        raise InputError("padic_sqrt needs an odd prime, got q = %s" % q)
    if precision < 1:
        raise InputError("precision must be at least 1")
    base = beta % q
    if base == 0:
        raise HypothesisError("beta = %d is not a unit at q = %d" % (beta, q))
    if kronecker_symbol(beta, q) != 1:
        raise HypothesisError("beta = %d is not a square modulo q = %d" % (beta, q))
    root = sqrt_mod_prime(base, q)
    known, value = 1, root
    while known < precision:
        known = min(2 * known, precision)
        mod = q**known
        # Newton step for x^2 - beta; the derivative 2x is a unit
        value = (value + beta * pow(value, -1, mod)) * pow(2, -1, mod) % mod
    if (value * value - beta) % q**precision:
        raise InternalInvariantError("Newton lift failed to converge")
    if value % q != root:
        raise InternalInvariantError("Newton lift moved off the chosen branch")
    return value


def local_embedding_theta(q: int, data: QuadraticData, precision: int = 10) -> PadicMatrix2:
    """Companion matrix of theta: [[trd, -nrd], [1, 0]] over Z/q^precision."""
    mat = PadicMatrix2(q, precision, (data.theta_trace, -data.theta_norm, 1, 0))
    if not mat.satisfies_polynomial(data.theta_trace, data.theta_norm):
        raise InternalInvariantError("companion matrix fails its own polynomial")
    return mat


def conjugate_embedding_theta(q: int, data: QuadraticData, precision: int = 10) -> PadicMatrix2:
    """Image of the Galois conjugate trd - theta, i.e. trd*Id - i_q(theta)."""
    ident = PadicMatrix2.identity(q, precision)
    return ident.scale(data.theta_trace) - local_embedding_theta(q, data, precision)


def local_embedding_J(q: int, data: QuadraticData, beta: int, precision: int = 10) -> PadicMatrix2:
    """Image of J: sqrt(beta) * [[-1, trd], [0, 1]] over Z/q^precision.

    The two defining relations are checked at full precision before the
    matrix is returned: J^2 = beta and J * i(theta) = i(trd - theta) * J.
    """
    root = padic_sqrt(beta, q, precision)
    mat = PadicMatrix2(q, precision, (-1, data.theta_trace, 0, 1)).scale(root)
    if not (mat * mat).agrees_with(PadicMatrix2.scalar(beta, q, precision)):
        raise InternalInvariantError("J^2 = beta fails at the working precision")
    theta = local_embedding_theta(q, data, precision)
    theta_bar = conjugate_embedding_theta(q, data, precision)
    if not (mat * theta).agrees_with(theta_bar * mat):
        raise InternalInvariantError("conjugation relation fails at the working precision")
    return mat


def relation_report(q: int, data: QuadraticData, beta: int, precision: int = 10) -> dict[str, bool]:
    """Named checks of all the defining quaternion relations, computed fresh.

    Useful both as a test oracle and for CLI display; constructors already
    assert the load-bearing ones, so a False entry means a real bug.
    """
    theta = local_embedding_theta(q, data, precision)
    theta_bar = conjugate_embedding_theta(q, data, precision)
    jmat = local_embedding_J(q, data, beta, precision)
    mod = theta.modulus
    ident = PadicMatrix2.identity(q, precision)
    return {
        "char_poly": theta.satisfies_polynomial(data.theta_trace, data.theta_norm),
        "trace_theta": theta.trace() == data.theta_trace % mod,
        "det_theta": theta.det() == data.theta_norm % mod,
        "theta_plus_conjugate": (theta + theta_bar).agrees_with(ident.scale(data.theta_trace)),
        "J_squared": (jmat * jmat).agrees_with(ident.scale(beta)),
        "det_J": jmat.det() == (-beta) % mod,
        "conjugation": (jmat * theta).agrees_with(theta_bar * jmat),
    }


@dataclass(frozen=True)
class GrossPointComponent:
    """One local component of the conductor-1 Gross point.

    For the split level-divisor case the true component carries a factor
    1/sqrt(D_K) that need not exist q-adically; the matrix is stored
    unscaled and `denominator_square` records D_K, meaning the component
    is matrix / sqrt(denominator_square).  All checks run on the stored
    matrix.  Other cases store the component exactly and leave the slot None.
    """

    case: str
    matrix: PadicMatrix2
    denominator_square: int | None = None

    def __str__(self) -> str:
        body = str(self.matrix)
        if self.denominator_square is not None:
            body = "%s scaled by 1/sqrt(%d)" % (body, self.denominator_square)
        return "%s: %s" % (self.case, body)


def _theta_image(q: int, data: QuadraticData, precision: int) -> int:
    """Root of x^2 - trd*x + nrd in Z/q^precision on the canonical branch.

    Exists exactly when q splits in K, i.e. -D_K is a unit square mod q;
    the root is (trd - sqrt(-D_K))/2 with the canonical square root of -D_K,
    which is theta's defining formula for odd and for even D_K alike.
    """
    root = padic_sqrt(-data.D_K, q, precision)
    mod = q**precision
    image = (data.theta_trace - root) * pow(2, -1, mod) % mod
    if (image * image - data.theta_trace * image + data.theta_norm) % mod:
        raise InternalInvariantError("theta image fails the minimal polynomial")
    return image


def gross_point_component(
    q: int, case: str, data: QuadraticData, precision: int = 10
) -> GrossPointComponent:
    """The displayed local component matrix for one of the four cases.

    away:        identity, any prime away from pN+.
    split_Nplus: [[theta, thetabar], [1, 1]] / sqrt(D_K) at a split prime
                 dividing the level divisor; det^2 = -D_K on the stored matrix.
    p_split:     [[theta, -1], [1, 0]] at split p; det = 1.
    p_inert:     [[0, 1], [-1, 0]] at inert p; det = 1.

    A case that contradicts the splitting of q in K is refused.
    """
    if case not in COMPONENT_CASES:
        raise InputError("unknown component case %r, expected one of %s" % (case, COMPONENT_CASES))
    if case == "away":
        return GrossPointComponent(case, PadicMatrix2.identity(q, precision))
    if q == 2 or not isprime(q):
        raise InputError("component case %r needs an odd prime, got q = %s" % (case, q))
    symbol = kronecker_symbol(-data.D_K, q)
    if symbol == 0:
        raise InputError("q = %d ramifies in K (q | D_K); no %s component there" % (q, case))
    if case == "p_inert":
        if symbol != -1:
            raise InputError("q = %d splits in K; the inert-case matrix does not apply" % q)
        return GrossPointComponent(case, PadicMatrix2(q, precision, (0, 1, -1, 0)))
    if symbol != 1:
        raise InputError("q = %d is inert in K; the split-case matrix does not apply" % q)
    image = _theta_image(q, data, precision)
    if case == "p_split":
        mat = PadicMatrix2(q, precision, (image, -1, 1, 0))
        if mat.det() != 1:
            raise InternalInvariantError("split-p component must have determinant 1")
        return GrossPointComponent(case, mat)
    conjugate = (data.theta_trace - image) % q**precision
    mat = PadicMatrix2(q, precision, (image, conjugate, 1, 1))
    if (mat.det() ** 2 + data.D_K) % mat.modulus:
        raise InternalInvariantError("split level component must have det^2 = -D_K")
    return GrossPointComponent(case, mat, denominator_square=data.D_K)
