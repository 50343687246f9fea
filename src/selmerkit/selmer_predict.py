"""Structure predictions from divisibility statistics.

The statistics of a Kurihara-number collection determine the isomorphism
class of the p-primary Selmer group over Q: the vanishing order gives the
corank, and the halved successive differences along the parity chain
partial^(ord) >= partial^(ord+2) >= ... give the exponents of the finite
part, which is a direct sum of squares (Z/p^d)^2.  Two twist statistics
combine over an imaginary quadratic field, and from the combined picture one
reads off normalized divisibility profiles: of a Heegner-point Kolyvagin
system in the indefinite setting, and of a toric-period family in the
definite setting.  Both dictionaries come with an equality of total spreads
that is asserted, never assumed.

The one shape -> partials formula, shared with the bipartite lambda-profile,
is suffix_partials; _asserted is the one raise on a failed identity.

Everything here is exact integer bookkeeping on already-computed statistics;
no curve arithmetic happens in this module.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, zip_longest

from .errors import (
    HypothesisError,
    InconclusiveRegionError,
    InputError,
    InternalInvariantError,
)
from .kurihara import DeltaStats, StratumStat

REGION_DIAGNOSIS = "search region too small or hypothesis failure"


@dataclass(frozen=True)
class ModuleShape:
    """Isomorphism class (Q_p/Z_p)^corank + sum_i (Z/p^{d_i})^2.

    Exponents are listed once per square factor, non-increasing; the prime p
    itself is not part of the shape.
    """

    corank: int
    exponents: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(int(d) for d in self.exponents))
        if self.corank < 0:
            raise InputError("corank must be nonnegative")
        if any(d <= 0 for d in self.exponents):
            raise InputError("shape exponents must be positive; drop zero factors")
        if any(a < b for a, b in zip(self.exponents, self.exponents[1:])):
            raise InputError("shape exponents must be non-increasing")

    @property
    def finite_length(self) -> int:
        # each exponent d contributes a square factor (Z/p^d)^2
        return 2 * sum(self.exponents)

    def describe(self, p: int) -> str:
        parts = []
        if self.corank:
            parts.append(f"(Q_{p}/Z_{p})^{self.corank}")
        parts.extend(f"(Z/{p}^{d})^2" for d in self.exponents)
        return " + ".join(parts) if parts else "0"

    def to_json_dict(self) -> dict:
        return {"corank": self.corank, "exponents": list(self.exponents)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModuleShape":
        return cls(corank=data["corank"], exponents=tuple(data["exponents"]))


def suffix_partials(*exponents: Sequence[int]) -> list[int]:
    """Suffix sums of the steps that take the lists in turn, a shorter list
    reading 0; trailing zero steps are dropped, so the sums end at one 0."""
    steps = [d for row in zip_longest(*exponents, fillvalue=0) for d in row]
    while steps and steps[-1] == 0:
        steps.pop()
    return list(accumulate(reversed(steps), initial=0))[::-1]


@dataclass(frozen=True)
class IdentityCheck:
    """One asserted equality from a structure statement, kept as evidence."""

    name: str
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    def to_json_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "ok": self.ok}


def _asserted(*checks: IdentityCheck) -> list[IdentityCheck]:
    """The checks as evidence, once each holds; a failed identity is a bug."""
    for c in checks:
        if not c.ok:
            raise InternalInvariantError(f"{c.name}: {c.lhs} != {c.rhs}")
    return list(checks)


@dataclass
class SelmerPrediction:
    """Predicted shape of the p-primary Selmer group over Q, with receipts.

    fitting_exponents[i] = partial^(i) - partial^(infty) along the parity
    chain; p^(that) generates the i-th Fitting ideal of the non-divisible
    part for i >= corank of the same parity.  divisible_quotient_length is
    the length of Selmer modulo its maximal divisible subgroup.
    """

    shape: ModuleShape
    divisible_quotient_length: int
    fitting_exponents: dict[int, int]
    partial_floor: int
    evidence: str
    identities: list[IdentityCheck] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "shape": self.shape.to_json_dict(),
            "divisible_quotient_length": self.divisible_quotient_length,
            "fitting_exponents": {str(i): e for i, e in sorted(self.fitting_exponents.items())},
            "partial_floor": self.partial_floor,
            "evidence": self.evidence,
            "identities": [c.to_json_dict() for c in self.identities],
        }


def _certified_ord(stats: DeltaStats) -> int:
    if not isinstance(stats.ord_bound, int):
        raise InconclusiveRegionError(
            "no nonzero Kurihara number was found on the region, so the "
            f"vanishing order is unbounded there ({REGION_DIAGNOSIS})"
        )
    if not stats.ord_is_certified_on_region:
        raise InconclusiveRegionError(
            f"ord bound {stats.ord_bound} is not certified on its region: a "
            "smaller stratum is missing or not identically saturated"
        )
    return stats.ord_bound


def _parity_chain_values(stats: DeltaStats, start: int) -> list[int]:
    """partial^(start), partial^(start+2), ... down to the region floor.

    A stratum minimum attained only at saturated entries is an artifact of
    the modulus p^{t_n} and cannot enter a difference, so the chain refuses
    to cross one.
    """
    floor = stats.partial_infty
    values: list[int] = []
    i = start
    while True:
        stat = stats.partial.get(i)
        if stat is None:
            raise InconclusiveRegionError(
                f"parity chain needs partial^({i}) but stratum nu = {i} is "
                f"empty or outside the region ({REGION_DIAGNOSIS})"
            )
        if stat.from_saturated:
            raise InconclusiveRegionError(
                f"partial^({i}) = {stat.value} is attained only at entries "
                "saturated at their modulus, hence is only an upper bound; "
                f"sieve at larger k or enlarge the region ({REGION_DIAGNOSIS})"
            )
        values.append(stat.value)
        if stat.value == floor:
            return values
        i += 2


def predict_selmer_Q(stats: DeltaStats) -> SelmerPrediction:
    """Shape of the p-primary Selmer group over Q from certified statistics.

    corank = ord, exponents = halved successive differences of the parity
    chain, length of the non-divisible part = partial^(ord) - partial^(infty).
    Violations of the parity or monotonicity the true statistics must obey
    are diagnosed loudly instead of being smoothed over.
    """
    ord_ = _certified_ord(stats)
    floor = stats.partial_infty
    values = _parity_chain_values(stats, ord_)
    exponents: list[int] = []
    for j, (a, b) in enumerate(zip(values, values[1:])):
        d = a - b
        if d < 0 or d % 2 != 0:
            raise InconclusiveRegionError(
                f"difference partial^({ord_ + 2 * j}) - partial^({ord_ + 2 * (j + 1)})"
                f" = {d} is not a nonnegative even integer: {REGION_DIAGNOSIS}"
            )
        exponents.append(d // 2)
    if any(a < b for a, b in zip(exponents, exponents[1:])):
        raise InconclusiveRegionError(
            f"halved chain differences {exponents} fail to be non-increasing: "
            f"{REGION_DIAGNOSIS}"
        )
    # the chain stops exactly when it reaches the floor, so no difference can
    # vanish: a zero would have to be followed by a positive one, caught above
    shape = ModuleShape(corank=ord_, exponents=tuple(exponents))
    length = values[0] - floor
    checks = _asserted(IdentityCheck("divisible_quotient_length", length, shape.finite_length))
    fitting = {ord_ + 2 * j: v - floor for j, v in enumerate(values)}
    return SelmerPrediction(
        shape=shape,
        divisible_quotient_length=length,
        fitting_exponents=fitting,
        partial_floor=floor,
        evidence=stats.search_region,
        identities=checks,
    )


def synthetic_delta_stats(
    shape: ModuleShape, floor: int = 0, label: str = "synthetic"
) -> DeltaStats:
    """Region statistics that a group of the given shape would produce.

    The parity chain starting at the corank descends by twice each exponent
    and ends at the floor.  Strata off the chain are omitted; prediction
    never looks at them.
    """
    if floor < 0:
        raise InputError("floor valuation must be nonnegative")
    partial: dict[int, StratumStat] = {}
    for j, s in enumerate(suffix_partials(shape.exponents)):
        i = shape.corank + 2 * j
        kind = "exact_on_region" if i == 0 else "upper_bound_semantics"
        partial[i] = StratumStat(value=floor + 2 * s, bound_kind=kind, from_saturated=False)
    return DeltaStats(
        ord_bound=shape.corank,
        ord_is_certified_on_region=True,
        partial=partial,
        partial_infty=floor,
        search_region=label,
        notes=[],
    )


def combine_over_K(shape_E: ModuleShape, shape_EK: ModuleShape) -> ModuleShape:
    """Direct sum over the quadratic field: coranks add, exponents merge.

    Valid once the curve has no p-torsion point over the field, which the
    surjective-residual-representation hypothesis guarantees.
    """
    return ModuleShape(
        corank=shape_E.corank + shape_EK.corank,
        exponents=tuple(sorted(shape_E.exponents + shape_EK.exponents, reverse=True)),
    )


@dataclass(frozen=True)
class HeegnerProfile:
    """Normalized divisibility profile of a Heegner-point Kolyvagin system.

    normalized_partials[j] = partial^(ord+j) - partial^(infty) for j >= 0;
    root_number_side is the sign eps with corank Sel(K)^eps = ord + 1, the
    larger of the two eigenspace coranks.
    """

    ord_kappa: int
    normalized_partials: tuple[int, ...]
    root_number_side: int

    def __post_init__(self):
        object.__setattr__(
            self, "normalized_partials", tuple(int(v) for v in self.normalized_partials)
        )
        if self.ord_kappa < 0:
            raise InputError("ord(kappa) must be nonnegative")
        if self.root_number_side not in (1, -1):
            raise InputError("root_number_side must be +1 or -1")
        ps = self.normalized_partials
        if not ps or ps[-1] != 0:
            raise InputError("normalized partials must terminate at 0")
        if any(a < b for a, b in zip(ps, ps[1:])):
            raise InputError("normalized partials must be non-increasing")

    def eigenspace_corank(self, side: int) -> int:
        if side not in (1, -1):
            raise InputError("eigenspace side must be +1 or -1")
        return self.ord_kappa + 1 if side == self.root_number_side else self.ord_kappa

    def to_json_dict(self) -> dict:
        return {
            "ord_kappa": self.ord_kappa,
            "normalized_partials": list(self.normalized_partials),
            "root_number_side": self.root_number_side,
        }


@dataclass
class GrossZagierPrediction:
    """Output of the indefinite-side dictionary, with asserted identities."""

    profile: HeegnerProfile
    shape_E: ModuleShape
    shape_EK: ModuleShape
    identities: list[IdentityCheck]
    evidence: str

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile.to_json_dict(),
            "shape_E": self.shape_E.to_json_dict(),
            "shape_EK": self.shape_EK.to_json_dict(),
            "identities": [c.to_json_dict() for c in self.identities],
            "evidence": self.evidence,
        }


def _paired_evidence(stats_E: DeltaStats, stats_EK: DeltaStats) -> str:
    return f"curve: {stats_E.search_region} | twist: {stats_EK.search_region}"


def predict_heegner_profile(
    stats_E: DeltaStats, stats_EK: DeltaStats, W: int
) -> GrossZagierPrediction:
    """Structural Gross-Zagier dictionary in the indefinite setting.

    Requires the two coranks to differ by exactly 1; otherwise the
    eigenspace comparison has an undetermined error term and we refuse to
    guess.  W is the ingested root number of the curve over Q; the larger
    eigenspace must sit on the side W * (-1)^(ord(kappa)+1), so W is checked
    against the observed corank pattern rather than trusted.

    The smaller side's exponents become the even-offset decrements of the
    profile and the larger side's the odd-offset ones; the spread identity
    2 * (partial^(ord) - partial^(infty)) = spread_E + spread_EK is asserted
    on every successful run.
    """
    if W not in (1, -1):
        raise InputError("root number W must be +1 or -1")
    pred_E = predict_selmer_Q(stats_E)
    pred_EK = predict_selmer_Q(stats_EK)
    c_e, c_k = pred_E.shape.corank, pred_EK.shape.corank
    if abs(c_e - c_k) != 1:
        raise HypothesisError(
            f"corank difference |{c_e} - {c_k}| != 1: the error term in the "
            "eigenspace comparison is undetermined and the profile is "
            "ambiguous; refusing to guess"
        )
    ord_kappa = min(c_e, c_k)
    big_side = 1 if c_e > c_k else -1
    if W * (-1) ** (ord_kappa + 1) != big_side:
        raise HypothesisError(
            f"root number W = {W} puts the larger eigenspace on side "
            f"{W * (-1) ** (ord_kappa + 1):+d}, but the coranks ({c_e}, {c_k}) "
            f"put it on side {big_side:+d}"
        )
    big, small = (pred_E, pred_EK) if c_e > c_k else (pred_EK, pred_E)
    partials = suffix_partials(small.shape.exponents, big.shape.exponents)
    profile = HeegnerProfile(
        ord_kappa=ord_kappa,
        normalized_partials=tuple(partials),
        root_number_side=big_side,
    )
    spread = pred_E.divisible_quotient_length + pred_EK.divisible_quotient_length
    checks = _asserted(
        IdentityCheck("higher_gross_zagier_spread", 2 * partials[0], spread),
        IdentityCheck(
            "ord_kappa_minus_smaller_corank",
            ord_kappa - profile.eigenspace_corank(-big_side),
            0,
        ),
    )
    return GrossZagierPrediction(
        profile=profile,
        shape_E=pred_E.shape,
        shape_EK=pred_EK.shape,
        identities=checks,
        evidence=_paired_evidence(stats_E, stats_EK),
    )


def heegner_profile_to_shapes(profile: HeegnerProfile) -> tuple[ModuleShape, ModuleShape]:
    """Invert the indefinite dictionary: recover (shape_E, shape_EK).

    Even-offset decrements rebuild the smaller side, odd-offset ones the
    larger; root_number_side says whether the larger side is the curve or
    its twist.
    """
    ps = profile.normalized_partials
    decs = [a - b for a, b in zip(ps, ps[1:])]

    def rebuilt(raw: list[int]) -> tuple[int, ...]:
        while raw and raw[-1] == 0:
            raw.pop()
        if any(d <= 0 for d in raw) or any(a < b for a, b in zip(raw, raw[1:])):
            raise InputError(
                f"profile decrements {raw} do not form a non-increasing "
                "positive exponent list"
            )
        return tuple(raw)

    small = ModuleShape(corank=profile.ord_kappa, exponents=rebuilt(decs[0::2]))
    big = ModuleShape(corank=profile.ord_kappa + 1, exponents=rebuilt(decs[1::2]))
    return (big, small) if profile.root_number_side == 1 else (small, big)


@dataclass
class WaldspurgerPrediction:
    """Output of the definite-side dictionary, with asserted identities.

    normalized_partials[s] = partial^(ord+2s) - partial^(infty) of the
    toric-period family; only even offsets carry information here, so the
    list steps by 2 in the offset.
    """

    ord_lambda: int
    normalized_partials: tuple[int, ...]
    shape_K: ModuleShape
    identities: list[IdentityCheck]
    evidence: str

    def to_json_dict(self) -> dict:
        return {
            "ord_lambda": self.ord_lambda,
            "normalized_partials": list(self.normalized_partials),
            "shape_K": self.shape_K.to_json_dict(),
            "identities": [c.to_json_dict() for c in self.identities],
            "evidence": self.evidence,
        }


def predict_waldspurger_profile(
    stats_E: DeltaStats, stats_EK: DeltaStats
) -> WaldspurgerPrediction:
    """Structural toric-period dictionary in the definite setting.

    ord(lambda) is the total corank over the field, and the merged exponent
    multiset, descending and unhalved, gives the successive even-offset
    differences of the profile.  The spread identity
    2 * (partial^(ord) - partial^(infty)) = spread_E + spread_EK is asserted.
    """
    pred_E = predict_selmer_Q(stats_E)
    pred_EK = predict_selmer_Q(stats_EK)
    merged = combine_over_K(pred_E.shape, pred_EK.shape)
    if merged.corank % 2 != 0:
        raise HypothesisError(
            f"total corank {merged.corank} over the field is odd, which is "
            "impossible in the definite setting where the functional-equation "
            "sign over the field is +1"
        )
    partials = suffix_partials(merged.exponents)
    spread = pred_E.divisible_quotient_length + pred_EK.divisible_quotient_length
    checks = _asserted(IdentityCheck("higher_waldspurger_spread", 2 * partials[0], spread))
    return WaldspurgerPrediction(
        ord_lambda=merged.corank,
        normalized_partials=tuple(partials),
        shape_K=merged,
        identities=checks,
        evidence=_paired_evidence(stats_E, stats_EK),
    )
