"""Kurihara numbers and their divisibility statistics on finite regions.

For a squarefree product n of cyclotomic Kolyvagin primes, the number

    delta_n = sum over a in (Z/n)^* of [a/n]+ * prod_{ell | n} log_{eta_ell}(a)

lives in Z_p / I_n = Z/p^{t_n} and is well defined up to a unit (the
primitive-root choices).  Only unit-invariant data (valuations, vanishing)
is ever reported as a statistic.

The symbol is read once per pair {a, n - a}, at min(a, n - a), since
[(n - a)/n]+ = [a/n]+: translation by 1 fixes modular symbols, and
[-x]+ = [x]+ because the plus functional is star-invariant (EigenSymbol
asserts it).  So the sum weighs each pair by w(a) + w(n - a), where
w(a) = prod log_{eta_ell}(a), and reads the symbol only where that is
nonzero mod p^{t_n}.  w depends only on the residues a mod ell, and the log
of eta^e is e, so one walk of the powers of eta lists each factor's
(e mod p^{t_n}, eta^e * e_ell), e_ell the CRT idempotent; the walk over the
product of these lists meets units only, and the first factor lists one
member x <= (ell - 1)/2 of each pair.  Since log(-x) = log x + c_ell with
c_ell = (ell - 1)/2 mod p^{t_n}, a term of every list but the last carries
w = prod log and w' = prod (log + c), and each entry of the last list then
weighs (w + w') log + w' c_last.  An entry is listed when log or log + c is
nonzero mod p^{t_n}, and x = 1, of log 0, when c_ell is.  At odd p every
c_ell is 0, because p^{t_n} divides ell - 1, and the weight is 2 w(a); at
p = 2, c_ell is 0 only where 2^{t_n + 1} divides ell - 1.

A finite search region can certify "ord <= nu(n)" by exhibiting a nonzero
delta_n, and can report stratum minima of valuations, but the true
partial^(i) is an infimum over infinitely many n: every stratum value
carries explicit bound semantics, and quotient-zero (saturated) entries
are flagged so they never certify divisibility beyond t_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .arith import isprime, padic_valuation, smallest_primitive_root
from .errors import HypothesisError, InputError, InternalInvariantError
from .modsym import EigenSymbol
from .sieves import DEFAULT_VALUATION_CAP, SquarefreeIndex

# a factor ell at or past this is refused: its list holds up to ell - 1 entries
FACTOR_PRIME_LIMIT = 10 ** 6


@dataclass(frozen=True)
class KuriharaNumber:
    """delta_n as a canonical residue mod p^modulus_exponent.

    modulus_exponent is t_n for n > 1 and the working valuation cap for
    n = 1 (where the ambient ring is all of Z_p).  valuation equals the
    modulus exponent exactly when the residue is zero in the quotient;
    such saturated values certify nothing beyond t_n.
    """

    index: SquarefreeIndex
    p: int
    modulus_exponent: int
    residue: int
    valuation: int
    eta_choices: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return self.index.n

    @property
    def nu(self) -> int:
        return self.index.nu

    @property
    def saturated(self) -> bool:
        return self.valuation >= self.modulus_exponent

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "nu": self.nu,
            "t_n": self.index.t_n,
            "residue": self.residue,
            "valuation": self.valuation,
            "saturated": self.saturated,
            "eta": {str(ell): eta for ell, eta in self.eta_choices},
        }


def kurihara_number(
    sym: EigenSymbol,
    index: SquarefreeIndex,
    p: int,
    etas: dict[int, int] | None = None,
) -> KuriharaNumber:
    """delta_n for one squarefree index from the cyc family, n = 1 included.

    etas overrides the primitive-root choice per prime factor; the default
    is the smallest primitive root, making residues reproducible.  Only
    valuation and saturation are unit-independent.

    Every n takes one path, mod p^t with t = t_n, or t the valuation cap at
    n = 1, where I_1 = (0), delta_1 lives in Z_p itself and the sum is the
    one term raw(0, 1).  One walk of x = eta^e, e = 1 .. ell - 2, per factor
    lists (e mod p^t, x * e_ell mod n) and refuses eta if x returns to 1
    early; e is log_eta(x) mod p^t only because p^t divides ell - 1
    (InternalInvariantError otherwise).  The first list keeps x <= (ell - 1)/2
    and n is odd, so the product of the lists meets each pair {a, n - a}
    once; each term carries the pair's weight in the closed form of the
    module docstring.  One EigenSymbol.raw_sum batch per term of all lists
    but the last reads the symbol at min(a, n - a), and a term whose weights
    all vanish mod p^t is skipped.  The sign and the denominator are applied
    once to the total.
    """
    if index.family not in (None, "cyc"):
        raise InputError(f"Kurihara numbers need cyc indices, got {index.family}")
    n = index.n
    t = DEFAULT_VALUATION_CAP if n == 1 else index.t_n
    if t == 0:
        raise InputError(
            f"I_n at n = {n} is the unit ideal (t_n = 0); "
            "sieve at a larger congruence level k"
        )
    modulus = p ** t
    if n % 2 == 0:
        raise InternalInvariantError(f"cyc index n = {n} is even; a and n - a would collide")

    chosen: list[tuple[int, int]] = []
    residues = []
    shifts = []  # c = log_eta(-1) = (ell - 1)/2 mod p^t, per factor
    for i, f in enumerate(index.factors):
        ell = f.q
        if not isprime(ell):
            raise InputError(f"ell = {ell} is not prime")
        if ell >= FACTOR_PRIME_LIMIT:
            raise InputError(f"ell = {ell} reaches the factor limit {FACTOR_PRIME_LIMIT}")
        if (ell - 1) % modulus:
            raise InternalInvariantError(
                f"p^t = {modulus} does not divide ell - 1 = {ell - 1}, so log_eta mod p^t is undefined"
            )
        eta = etas[ell] if etas and ell in etas else smallest_primitive_root(ell)
        if eta % ell == 0:
            raise InputError(f"eta = {eta} is not a unit mod {ell}")
        chosen.append((ell, eta))
        cofactor = n // ell
        idempotent = cofactor * pow(cofactor, -1, ell)
        half = (ell - 1) // 2
        c = half % modulus
        top = half if i == 0 else ell
        powers = [(0, idempotent)] if c else []  # x = 1: log 0, but log(-x) = c
        x = eta % ell
        for e in range(1, ell - 1):
            if x == 1:
                raise InputError(f"eta = {eta} is not a primitive root mod {ell}")
            if x <= top and (e % modulus or (e + c) % modulus):
                powers.append((e % modulus, x * idempotent % n))
            x = x * eta % ell
        residues.append(powers)
        shifts.append(c)

    if sym.denominator % p == 0:
        raise HypothesisError(
            f"the symbol denominator is divisible by p = {p}; "
            "the p-integrality hypothesis on modular symbols fails"
        )
    dinv = pow(sym.denominator, -1, modulus)
    raw_sum = sym.raw_sum
    if n == 1:
        total = raw_sum(1, ((0, 1),))  # the one term a = 0, weight 1
    else:
        total = 0
        *head, last = residues
        for term in product(*head):
            # w(a) and w(-a) over the head; zip stops before the last shift
            w, w_neg, a = 1, 1, 0
            for (log_r, lift), c in zip(term, shifts):
                w = w * log_r % modulus
                w_neg = w_neg * (log_r + c) % modulus
                a += lift
            scale, offset = (w + w_neg) % modulus, w_neg * shifts[-1] % modulus
            if scale or offset:
                total += raw_sum(n, ((a + lift, (scale * log_r + offset) % modulus) for log_r, lift in last))
    total = sym.sign * dinv * total % modulus

    return KuriharaNumber(
        index=index,
        p=p,
        modulus_exponent=t,
        residue=total,
        valuation=padic_valuation(total, p, cap=t),
        eta_choices=tuple(chosen),
    )


# ---------------------------------------------------------------------------
# region statistics


@dataclass(frozen=True)
class RegionSpec:
    """Declared shape of the finite search region the statistics cover."""

    p: int
    k: int
    prime_bound: int
    max_nu: int
    max_n: int
    label: str = ""

    def describe(self) -> str:
        head = f"{self.label}: " if self.label else ""
        return (
            f"{head}nu(n) <= {self.max_nu}, primes <= {self.prime_bound}, "
            f"n <= {self.max_n}, p = {self.p}, k = {self.k}"
        )


@dataclass(frozen=True)
class StratumStat:
    """Minimum valuation over one nu(n) = i stratum of the region."""

    value: int
    bound_kind: str  # "exact_on_region" | "upper_bound_semantics"
    from_saturated: bool  # min attained only at quotient-zero entries

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "bound_kind": self.bound_kind,
            "from_saturated": self.from_saturated,
        }


@dataclass
class DeltaStats:
    ord_bound: int | str  # "inconclusive" when nothing nonzero was found
    ord_is_certified_on_region: bool
    partial: dict[int, StratumStat]
    partial_infty: int
    search_region: str
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "ord_bound": self.ord_bound,
            "ord_is_certified_on_region": self.ord_is_certified_on_region,
            "partial": {str(i): s.to_json_dict() for i, s in sorted(self.partial.items())},
            "partial_infty": self.partial_infty,
            "search_region": self.search_region,
            "notes": list(self.notes),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeltaStats":
        """Inverse of to_json_dict, also after a JSON round trip."""
        return cls(
            ord_bound=data["ord_bound"],
            ord_is_certified_on_region=data["ord_is_certified_on_region"],
            partial={int(i): StratumStat(**s) for i, s in data["partial"].items()},
            partial_infty=data["partial_infty"],
            search_region=data["search_region"],
            notes=list(data["notes"]),
        )


def delta_stats(collection: list[KuriharaNumber], region: RegionSpec) -> DeltaStats:
    """ord / partial^(i) / partial^(infty) over a finite region, honestly tagged.

    A nonzero delta_n certifies ord <= nu(n); ord equality is "certified on
    region" only when every smaller stratum was examined and vanished
    identically there.  Stratum minima are upper bounds for the true
    partial^(i) (the infimum runs over infinitely many n), except at i = 0
    where the stratum is complete.
    """
    if not collection:
        raise InputError("empty Kurihara collection")
    notes: list[str] = []
    strata: dict[int, list[KuriharaNumber]] = {}
    for kn in collection:
        strata.setdefault(kn.nu, []).append(kn)

    for i in range(region.max_nu + 1):
        if i not in strata:
            notes.append(f"stratum nu = {i} is empty on the region; omitted")

    partial: dict[int, StratumStat] = {}
    for i in sorted(strata):
        vals = [kn.valuation for kn in strata[i]]
        v = min(vals)
        attained = [kn for kn in strata[i] if kn.valuation == v]
        from_saturated = all(kn.saturated for kn in attained)
        kind = "exact_on_region" if i == 0 else "upper_bound_semantics"
        partial[i] = StratumStat(value=v, bound_kind=kind, from_saturated=from_saturated)

    ord_bound: int | str = "inconclusive"
    for i in sorted(strata):
        if any(not kn.saturated for kn in strata[i]):
            ord_bound = i
            break

    if isinstance(ord_bound, int):
        certified = all(
            i in strata and all(kn.saturated for kn in strata[i]) for i in range(ord_bound)
        )
    else:
        certified = False

    # within a parity class the true partial is non-increasing; a finite
    # region can break this, so surface it rather than smoothing it over
    for i in sorted(partial):
        if i + 2 in partial and partial[i].value < partial[i + 2].value:
            notes.append(
                f"partial^({i}) = {partial[i].value} < partial^({i + 2}) = "
                f"{partial[i + 2].value}: parity chain not yet stabilized on this region"
            )

    return DeltaStats(
        ord_bound=ord_bound,
        ord_is_certified_on_region=certified,
        partial=partial,
        partial_infty=min(s.value for s in partial.values()),
        search_region=region.describe(),
        notes=notes,
    )
