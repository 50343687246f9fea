"""Kurihara numbers and their divisibility statistics on finite regions.

For a squarefree product n of cyclotomic Kolyvagin primes, the number

    delta_n = sum over a in (Z/n)^* of [a/n]+ * prod_{ell | n} log_{eta_ell}(a)

lives in Z_p / I_n = Z/p^{t_n} and is well defined up to a unit (the
primitive-root choices).  Only unit-invariant data (valuations, vanishing)
is ever reported as a statistic.

The sum visits only the units whose log weight w(a) = prod log_{eta_ell}(a)
is nonzero mod p^{t_n}, and it computes the weight before the symbol.  w(a)
depends only on the residues a mod ell, and the log of eta^e is e, so one
walk of the powers of eta lists each factor's (e mod p^{t_n}, eta^e * e_ell)
with e nonzero mod p^{t_n}, where e_ell is the CRT idempotent; the walk over
the product of these lists meets every such unit once, and every point of it
is a unit.  Since log(-1) = (ell - 1)/2, w(n - a) = w(a) as soon as p^{t_n}
divides every (ell - 1)/2.  For odd p, t_n <= v_p(ell - 1) guarantees this,
so the first factor lists only the powers eta^e <= (ell - 1)/2, one member
of each pair {a, n - a}, and the sum doubles.  At p = 2 it holds only when
2^{t_n + 1} divides every ell - 1.  Otherwise the first list still keeps one
member of each pair, and every entry carries the logs of both x and
ell - x = x * eta^((ell - 1)/2), so each term gives w(a) + w(n - a) and the
symbol is read once per pair whose summed weight is nonzero.  Either way
the symbol is read at min(a, n - a), since [(n - a)/n]+ = [a/n]+ for
every p: translation by 1 fixes modular symbols, and [-x]+ = [x]+ because
the plus functional is star-invariant (EigenSymbol asserts it).

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
    n = 1, where I_1 = (0) and delta_1 lives in Z_p itself.  One walk of
    x = eta^e, e = 1 .. ell - 2, per factor lists (e mod p^t, x * e_ell mod n)
    for e nonzero mod p^t, and refuses eta at once if x returns to 1 early;
    the sum walks the product of these lists lazily, one EigenSymbol.raw_sum
    batch per term of all lists but the last, and skips a term whose
    weight, the product of the logs, is 0 mod p^t (possible at t >= 2).
    The first list keeps only x <= (ell - 1)/2.  When p^t divides
    (ell - 1)/2 at every factor the total doubles; odd p guarantees it
    (InternalInvariantError otherwise).  At p = 2, where it fails, each entry
    also carries the log of ell - x, listed at x = 1 too, and each term adds
    the summed weight of its pair {a, n - a}.  raw_sum reads the symbol at
    min(a, n - a).  n is odd (each prime factor is 1 mod p), so no unit
    a > 0 is its own partner; at n = 1 the product is a single term, a = 0
    with weight 1, and the sum is raw(0, 1).  The sign and the denominator
    are applied once to the total.
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

    # log_eta(-1) = (ell - 1)/2, so w(n - a) = w(a) once p^t divides it at
    # every factor; t_n <= v_p(ell - 1) makes that so for odd p.  Where it
    # fails (p = 2 only), the two weights of each pair are carried together
    fold = n > 1 and all((f.q - 1) // 2 % modulus == 0 for f in index.factors)
    paired = n > 1 and not fold
    if paired and p != 2:
        raise InternalInvariantError(
            f"p^{t} does not divide (ell - 1)/2 at every factor of n = {n}"
        )
    chosen: list[tuple[int, int]] = []
    residues = []
    for i, f in enumerate(index.factors):
        ell = f.q
        if not isprime(ell):
            raise InputError(f"ell = {ell} is not prime")
        if ell >= FACTOR_PRIME_LIMIT:
            raise InputError(f"ell = {ell} reaches the factor limit {FACTOR_PRIME_LIMIT}")
        eta = etas[ell] if etas and ell in etas else smallest_primitive_root(ell)
        if eta % ell == 0:
            raise InputError(f"eta = {eta} is not a unit mod {ell}")
        chosen.append((ell, eta))
        cofactor = n // ell
        idempotent = cofactor * pow(cofactor, -1, ell)
        half = (ell - 1) // 2
        top = half if i == 0 else ell
        # paired, x and ell - x = eta^(e + half) share an entry, x = 1 included
        powers = [(0, half % modulus, idempotent)] if paired and half % modulus else []
        x = eta % ell
        for e in range(1, ell - 1):
            if x == 1:
                raise InputError(f"eta = {eta} is not a primitive root mod {ell}")
            if x <= top:
                if not paired:
                    if e % modulus:
                        powers.append((e % modulus, x * idempotent % n))
                elif e % modulus or (e + half) % modulus:
                    powers.append((e % modulus, (e + half) % modulus, x * idempotent % n))
            x = x * eta % ell
        residues.append(powers)

    if sym.denominator % p == 0:
        raise HypothesisError(
            f"the symbol denominator is divisible by p = {p}; "
            "the p-integrality hypothesis on modular symbols fails"
        )
    dinv = pow(sym.denominator, -1, modulus)
    raw_sum = sym.raw_sum
    *head, last = residues or [[(1, 0)]]  # n = 1: the one term a = 0, w = 1
    total = 0
    if not paired:
        for term in product(*head):
            w, a = 1, 0
            for log_r, lift in term:
                w = w * log_r % modulus
                a += lift
            if w:
                total += raw_sum(n, ((a + lift, w * log_r % modulus) for log_r, lift in last))
        if fold:
            total *= 2
    else:
        # each term is a pair {a, n - a}; its two weights are summed before
        # the one read
        for term in product(*head):
            w, w_neg, a = 1, 1, 0
            for log_r, log_neg, lift in term:
                w = w * log_r % modulus
                w_neg = w_neg * log_neg % modulus
                a += lift
            if w or w_neg:
                total += raw_sum(n, ((a + lift, (w * log_r + w_neg * log_neg) % modulus)
                                     for log_r, log_neg, lift in last))
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
