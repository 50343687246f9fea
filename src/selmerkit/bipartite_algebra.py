"""Exact bookkeeping for bipartite Euler systems over an Artinian ring.

Over R = Z/p^k, a self-dual Selmer group at an admissible level n is
R^(e) + M + M with a parity bit e(n) and a finite part M_n, and the stub
submodule m^(length M_n) * (cyclic target) pins the divisibility of the
lambda/kappa values: every value has index >= length(M_n), and a rigidity
constant delta makes each value generate m^delta * Stub_n on the nose.
This module implements the resulting arithmetic: the lambda-profile formula
partial^(r) = min{k, delta + sum_{i >= r/2+1} d_i}, whose sums are the
dictionaries' own selmer_predict.suffix_partials; its inversion back to the
exponents d_i, the k -> infinity limit process, and a step simulator for the
one-prime transitions, which track exactly the quantities the theory
constrains: lengths, parities and indices.

Nothing here touches curves or cohomology; states are value-semantic and
all functions are pure apart from seeded random generation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arith import isprime
from .errors import InconclusiveRegionError, InputError, InternalInvariantError
from .selmer_predict import ModuleShape, suffix_partials


@dataclass(frozen=True)
class ArtinianContext:
    """The coefficient ring R = Z/p^k with maximal ideal (p)."""

    p: int
    k: int

    def __post_init__(self):
        if not isprime(self.p):
            raise InputError(f"p = {self.p} is not prime")
        if self.k < 1:
            raise InputError("the length k of the coefficient ring must be >= 1")


@dataclass(frozen=True)
class SyntheticSelmerState:
    """Statistics of one admissible level: Sel = R^e + M + M abstracted.

    n is an abstract index, a tuple of synthetic prime labels; rho is the
    mod-m dimension of the Selmer group, e the parity bit, m_length the
    length of M.  Only these statistics are modeled, never the groups.
    """

    n: tuple[int, ...]
    rho: int
    e: int
    m_length: int

    def __post_init__(self):
        if self.e not in (0, 1):
            raise InputError("parity bit e must be 0 or 1")
        if self.rho < 0 or self.m_length < 0:
            raise InputError("rho and m_length must be nonnegative")
        if self.rho % 2 != self.e:
            raise InputError(f"e = {self.e} and rho = {self.rho} must agree mod 2")

    @property
    def is_definite(self) -> bool:
        # e = 0: the lambda side; e = 1: the kappa side
        return self.e == 0

    def stub_exponent(self, ctx: ArtinianContext) -> int:
        """Stub_n = m^(this) * (cyclic target); clamped into [0, k]."""
        return min(self.m_length, ctx.k)


def _effective_exponents(shape: ModuleShape, ctx: ArtinianContext) -> list[int]:
    # at level k every divisible factor looks like a full Z/p^k square
    return [ctx.k] * shape.corank + [min(d, ctx.k) for d in shape.exponents]


def lambda_profile(shape: ModuleShape, delta: int, ctx: ArtinianContext) -> dict[int, int]:
    """partial^(r) = min{k, delta + sum_{i >= r/2+1} d_i} for even r.

    The window runs r = 0, 2, ..., 2*len(d)+2, one step past the point where
    the suffix sums vanish, so the output always ends with a repeated value
    that witnesses stabilization.  Divisible factors of the shape enter as
    exponent-k squares, which saturate their offsets at every k.
    """
    if delta < 0:
        raise InputError("the rigidity constant delta must be nonnegative")
    tails = suffix_partials(_effective_exponents(shape, ctx)) + [0]
    return {2 * half: min(ctx.k, delta + s) for half, s in enumerate(tails)}


def _profile_values(profile: dict[int, int], k: int) -> list[int]:
    """The values of a level-k profile in offset order, refused unless some
    lambda_profile could have them: offsets 0, 2, 4, ... with no gaps, values
    in [0, k], non-increasing in the offset."""
    if not profile:
        raise InputError("empty profile")
    offsets = sorted(profile)
    if offsets != list(range(0, 2 * len(offsets), 2)):
        raise InputError(f"profile offsets {offsets} must be 0, 2, 4, ... with no gaps")
    values = [profile[r] for r in offsets]
    if any(v < 0 or v > k for v in values):
        raise InputError("profile values must lie in [0, k]")
    if any(a < b for a, b in zip(values, values[1:])):
        raise InputError("profile must be non-increasing in the offset")
    return values


def recover_shape(profile: dict[int, int], ctx: ArtinianContext) -> tuple[ModuleShape, int]:
    """Invert lambda_profile: exponents from successive differences.

    d_i = partial^(2(i-1)) - partial^(2i) and delta is the terminal value.
    The window must extend to where the profile stabilizes; a trailing
    repeated value is the witness, and the terminal value is otherwise taken
    on faith.  A value equal to k certifies nothing (the true entry is only
    bounded below), so a saturated window is refused.
    """
    values = _profile_values(profile, ctx.k)
    if any(v >= ctx.k for v in values):
        raise InconclusiveRegionError(
            f"profile is saturated at k = {ctx.k}, so the leading exponents "
            f"are unrecoverable: k too small, retry with k >= {ctx.k + 1}"
        )
    diffs = [a - b for a, b in zip(values, values[1:])]
    while diffs and diffs[-1] == 0:
        diffs.pop()
    if 0 in diffs:
        raise InputError(
            "profile strictly decreases after stabilizing; no shape "
            "produces such differences"
        )
    return ModuleShape(0, tuple(diffs)), values[-1]


@dataclass
class LimitProfile:
    """Outcome of the k -> infinity limit over a finite range of k."""

    values: dict[int, int]  # stabilized offsets only
    unstabilized: tuple[int, ...]  # offsets still saturated at the largest k
    k_max: int

    @property
    def fully_stabilized(self) -> bool:
        return not self.unstabilized


def limit_profile(profiles: dict[int, dict[int, int]]) -> LimitProfile:
    """Take the limit of level-k profiles over the provided range of k.

    Requires each level-k profile to be one lambda_profile could give, and
    the reduction consistency value_at_k' = min{k', value_at_k} for k' < k
    (which also forces the values to be non-decreasing in k).  An offset
    whose value at the largest k still equals that k has not stabilized on
    the range and is reported as such rather than guessed.
    """
    if not profiles:
        raise InputError("no profiles given")
    ks = sorted(profiles)
    if ks[0] < 1:
        raise InputError("profile levels k must be >= 1")
    offsets = set(profiles[ks[0]])
    for k in ks:
        if set(profiles[k]) != offsets:
            raise InputError("all profiles must cover the same offsets")
        _profile_values(profiles[k], k)
    for lo, hi in zip(ks, ks[1:]):
        for r in offsets:
            want = min(lo, profiles[hi][r])
            if profiles[lo][r] != want:
                raise InputError(
                    f"profiles at k = {lo} and k = {hi} are inconsistent at "
                    f"offset {r}: {profiles[lo][r]} != min({lo}, {profiles[hi][r]})"
                )
    k_max = ks[-1]
    top = profiles[k_max]
    values = {r: v for r, v in top.items() if v < k_max}
    unstabilized = tuple(sorted(r for r, v in top.items() if v >= k_max))
    return LimitProfile(values=values, unstabilized=unstabilized, k_max=k_max)


def simulate_prime_step(
    state: SyntheticSelmerState, a: int, ctx: ArtinianContext
) -> SyntheticSelmerState:
    """Adjoin one admissible prime whose localization image has length a.

    With b = k - a, the parity bit flips, the mod-m dimension moves by one
    (+1 exactly when the residue-level localization vanishes, modeled as
    a = 0), and the finite length drops by a on a definite level and grows
    by b on an indefinite one.  Transitions that would need a negative
    length or a nonzero localization on a trivial group do not exist and
    are rejected.
    """
    if not 0 <= a <= ctx.k:
        raise InputError(f"localization length a = {a} must lie in [0, {ctx.k}]")
    b = ctx.k - a
    if a == 0:
        rho_new = state.rho + 1
    else:
        if state.rho == 0:
            raise InputError(
                "a nonzero localization needs a nonzero mod-m Selmer group "
                "(rho >= 1)"
            )
        rho_new = state.rho - 1
    if state.e == 0:
        m_new = state.m_length - a
        if m_new < 0:
            raise InputError(
                f"localization length a = {a} exceeds the finite length "
                f"{state.m_length} of a definite level; no such prime exists"
            )
    else:
        m_new = state.m_length + b
    return SyntheticSelmerState(
        n=state.n + (len(state.n) + 1,),
        rho=rho_new,
        e=1 - state.e,
        m_length=m_new,
    )


def feasible_localization_lengths(
    state: SyntheticSelmerState, ctx: ArtinianContext
) -> list[int]:
    """All a for which simulate_prime_step(state, a, ctx) is defined."""
    top = min(ctx.k, state.m_length) if state.e == 0 else ctx.k
    if state.rho == 0:
        return [0]
    return list(range(0, top + 1))


def initial_state(shape: ModuleShape, ctx: ArtinianContext) -> SyntheticSelmerState:
    """The definite base level cut out by a Selmer group of the given shape."""
    d = _effective_exponents(shape, ctx)
    return SyntheticSelmerState(n=(), rho=2 * len(d), e=0, m_length=sum(d))


def proof_walk(
    shape: ModuleShape, ctx: ArtinianContext
) -> tuple[list[SyntheticSelmerState], list[int]]:
    """The canonical walk that peels one square factor per pair of steps.

    From the base level, a first prime with a = d_i kills the largest
    remaining exponent and a second with a = k (so b = 0) returns to a
    definite level; after all factors are gone one vacuous step leaves a
    trivial indefinite level.  The definite levels visited realize every
    suffix sum of the exponents, and both parities reach length 0, which is
    what pins the rigidity constant of a generated system.
    """
    state = initial_state(shape, ctx)
    states = [state]
    a_seq: list[int] = []
    for d in _effective_exponents(shape, ctx):
        for a in (d, ctx.k):
            state = simulate_prime_step(state, a, ctx)
            states.append(state)
            a_seq.append(a)
    state = simulate_prime_step(state, 0, ctx)
    states.append(state)
    a_seq.append(0)
    return states, a_seq


@dataclass
class SyntheticSystem:
    """A generated bipartite system: a walk of levels plus value indices.

    Every level n carries one value (a lambda on definite levels, a kappa on
    indefinite ones) whose index in its cyclic target is
    min(k, delta + m_length), i.e. the value generates m^delta * Stub_n.
    """

    ctx: ArtinianContext
    delta: int
    shape: ModuleShape
    states: list[SyntheticSelmerState]
    a_sequence: list[int]

    def value_index(self, state: SyntheticSelmerState) -> int:
        return min(self.ctx.k, self.delta + state.m_length)

    def stub_bound_holds(self) -> bool:
        return all(
            self.value_index(s) >= s.stub_exponent(self.ctx) for s in self.states
        )

    def observed_rigidity(self) -> int:
        """min value index over each parity; the theorem says they agree."""
        def_min = min(
            (self.value_index(s) for s in self.states if s.e == 0), default=None
        )
        ind_min = min(
            (self.value_index(s) for s in self.states if s.e == 1), default=None
        )
        if def_min is None or ind_min is None:
            raise InputError("the system must visit both parities")
        if def_min != ind_min:
            raise InternalInvariantError(
                f"rigidity violated: min definite index {def_min} != "
                f"min indefinite index {ind_min}"
            )
        return def_min


def generate_system(
    ctx: ArtinianContext,
    shape: ModuleShape | None = None,
    delta: int | None = None,
    extra_steps: int = 0,
    seed: int = 0,
) -> SyntheticSystem:
    """Seedable generator: sample shape and delta if not given, then walk.

    The canonical walk is always included so both parities reach length 0;
    extra random steps are appended with feasibility-constrained a.
    """
    if extra_steps < 0:
        raise InputError("extra_steps must be nonnegative")
    rng = random.Random(seed)
    if shape is None:
        count = rng.randint(0, 3)
        exps = sorted((rng.randint(1, ctx.k) for _ in range(count)), reverse=True)
        shape = ModuleShape(0, tuple(exps))
    if delta is None:
        delta = rng.randint(0, ctx.k)
    if delta < 0:
        raise InputError("delta must be nonnegative")
    states, a_seq = proof_walk(shape, ctx)
    state = states[-1]
    for _ in range(extra_steps):
        a = rng.choice(feasible_localization_lengths(state, ctx))
        state = simulate_prime_step(state, a, ctx)
        states.append(state)
        a_seq.append(a)
    return SyntheticSystem(
        ctx=ctx, delta=delta, shape=shape, states=states, a_sequence=a_seq
    )
