"""Artinian bipartite bookkeeping: profiles, inversion, limits, step walks."""

import random

import pytest

from selmerkit.bipartite_algebra import (
    ArtinianContext,
    SyntheticSelmerState,
    feasible_localization_lengths,
    generate_system,
    initial_state,
    lambda_profile,
    limit_profile,
    proof_walk,
    recover_shape,
    simulate_prime_step,
)
from selmerkit.errors import InconclusiveRegionError, InputError
from selmerkit.kurihara import DeltaStats  # noqa: F401  (type re-exported via stats)
from selmerkit.selmer_predict import (
    ModuleShape,
    predict_waldspurger_profile,
    synthetic_delta_stats,
)


def ctx(k, p=5):
    return ArtinianContext(p=p, k=k)


# ---------------------------------------------------------------- contexts


def test_context_validation():
    assert ctx(1).k == 1
    with pytest.raises(InputError):
        ArtinianContext(p=6, k=2)
    with pytest.raises(InputError):
        ArtinianContext(p=5, k=0)


def test_state_validation():
    s = SyntheticSelmerState(n=(), rho=2, e=0, m_length=3)
    assert s.is_definite and s.stub_exponent(ctx(2)) == 2
    with pytest.raises(InputError):
        SyntheticSelmerState(n=(), rho=1, e=0, m_length=0)  # parity mismatch
    with pytest.raises(InputError):
        SyntheticSelmerState(n=(), rho=0, e=2, m_length=0)
    with pytest.raises(InputError):
        SyntheticSelmerState(n=(), rho=0, e=0, m_length=-1)


# ---------------------------------------------------------------- profiles


def test_profile_worked_examples():
    assert lambda_profile(ModuleShape(0, (2, 1)), 0, ctx(10)) == {0: 3, 2: 1, 4: 0, 6: 0}
    assert lambda_profile(ModuleShape(0, ()), 5, ctx(3)) == {0: 3, 2: 3}
    assert lambda_profile(ModuleShape(0, (4,)), 1, ctx(100)) == {0: 5, 2: 1, 4: 1}


def test_profile_with_divisible_part():
    # a corank slot behaves like a full-length square and saturates offset 0
    assert lambda_profile(ModuleShape(1, (2,)), 0, ctx(5)) == {0: 5, 2: 2, 4: 0, 6: 0}


def test_profile_rejects_negative_delta():
    with pytest.raises(InputError):
        lambda_profile(ModuleShape(0, ()), -1, ctx(3))


def test_recover_worked_examples():
    shape, delta = recover_shape({0: 3, 2: 1, 4: 0}, ctx(10))
    assert shape == ModuleShape(0, (2, 1)) and delta == 0
    shape, delta = recover_shape({0: 4, 2: 4}, ctx(9))
    assert shape == ModuleShape(0, ()) and delta == 4


def test_recover_refuses_saturated_window():
    with pytest.raises(InconclusiveRegionError, match="k too small.*k >= 4"):
        recover_shape({0: 3, 2: 3}, ctx(3))


def test_recover_input_validation():
    with pytest.raises(InputError, match="no gaps"):
        recover_shape({0: 3, 4: 1}, ctx(10))
    with pytest.raises(InputError, match="non-increasing"):
        recover_shape({0: 1, 2: 3}, ctx(10))
    with pytest.raises(InputError, match="stabilizing"):
        recover_shape({0: 4, 2: 2, 4: 2, 6: 1}, ctx(10))
    with pytest.raises(InputError):
        recover_shape({}, ctx(10))


def all_partitions(total_max):
    def parts(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    for total in range(total_max + 1):
        yield from parts(total, total if total else 1)


def test_exhaustive_round_trip():
    # every shape with exponent sum <= 10 and every delta <= 5, with k just
    # past the saturation threshold
    count = 0
    for exps in all_partitions(10):
        for delta in range(6):
            k = delta + sum(exps) + 1
            c = ctx(k)
            shape = ModuleShape(0, exps)
            back, back_delta = recover_shape(lambda_profile(shape, delta, c), c)
            assert (back, back_delta) == (shape, delta)
            count += 1
    assert count == 139 * 6


def test_thousand_random_round_trips():
    rng = random.Random(20250819)
    for _ in range(1000):
        exps = sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 5))), reverse=True)
        delta = rng.randint(0, 5)
        k = delta + sum(exps) + 1 + rng.randint(0, 4)
        c = ctx(k)
        shape = ModuleShape(0, tuple(exps))
        assert recover_shape(lambda_profile(shape, delta, c), c) == (shape, delta)


# ------------------------------------------------------------------ limits


def test_limit_of_synthetic_family():
    shape, delta = ModuleShape(0, (2, 1)), 0
    fam = {k: lambda_profile(shape, delta, ctx(k)) for k in range(1, 11)}
    lim = limit_profile(fam)
    assert lim.fully_stabilized and lim.k_max == 10
    assert lim.values == {0: 3, 2: 1, 4: 0, 6: 0}


def test_limit_saturating_then_stabilizing():
    fam = {k: {0: min(k, 3)} for k in range(1, 7)}
    lim = limit_profile(fam)
    assert lim.values == {0: 3} and lim.fully_stabilized


def test_limit_reports_unstabilized_offsets():
    # a divisible factor keeps offset 0 saturated at every k
    shape = ModuleShape(1, ())
    fam = {k: lambda_profile(shape, 0, ctx(k)) for k in range(1, 7)}
    lim = limit_profile(fam)
    assert lim.unstabilized == (0,)
    assert lim.values == {2: 0, 4: 0}
    assert not lim.fully_stabilized


def test_limit_rejects_inconsistent_family():
    fam = {1: {0: 1}, 2: {0: 1}, 3: {0: 2}}  # 2-level says 1, 3-level says 2
    with pytest.raises(InputError, match="inconsistent"):
        limit_profile(fam)
    with pytest.raises(InputError, match="same offsets"):
        limit_profile({1: {0: 1}, 2: {0: 1, 2: 1}})


def test_limit_refuses_profiles_no_level_produces():
    with pytest.raises(InputError, match=r"lie in \[0, k\]"):
        limit_profile({3: {0: -1, 2: -1}})
    with pytest.raises(InputError, match="non-increasing"):
        limit_profile({3: {0: 1, 2: 2}})  # rises with the offset
    with pytest.raises(InputError, match=r"lie in \[0, k\]"):
        limit_profile({2: {0: 2, 2: 1}, 3: {0: 5, 2: 1}})  # 5 > k = 3


# ------------------------------------------------------------------- steps


def test_vacuous_localization_from_definite():
    s = SyntheticSelmerState(n=(), rho=2, e=0, m_length=3)
    out = simulate_prime_step(s, 0, ctx(4))
    assert (out.e, out.rho, out.m_length) == (1, 3, 3)
    assert out.n == (1,)


def test_full_localization_from_indefinite():
    s = SyntheticSelmerState(n=(7,), rho=1, e=1, m_length=2)
    out = simulate_prime_step(s, 4, ctx(4))
    # b = 0: the indefinite length carries over unchanged
    assert (out.e, out.rho, out.m_length) == (0, 0, 2)


def test_definite_length_drops_by_a():
    s = SyntheticSelmerState(n=(), rho=2, e=0, m_length=3)
    out = simulate_prime_step(s, 2, ctx(4))
    assert (out.e, out.rho, out.m_length) == (1, 1, 1)


def test_indefinite_length_grows_by_b():
    s = SyntheticSelmerState(n=(1,), rho=1, e=1, m_length=0)
    out = simulate_prime_step(s, 1, ctx(4))
    assert (out.e, out.rho, out.m_length) == (0, 0, 3)


def test_infeasible_steps_rejected():
    c = ctx(4)
    s = SyntheticSelmerState(n=(), rho=2, e=0, m_length=1)
    with pytest.raises(InputError, match="exceeds the finite length"):
        simulate_prime_step(s, 3, c)
    trivial = SyntheticSelmerState(n=(), rho=0, e=0, m_length=0)
    with pytest.raises(InputError, match="rho >= 1"):
        simulate_prime_step(trivial, 1, c)
    with pytest.raises(InputError, match="lie in"):
        simulate_prime_step(s, 5, c)
    with pytest.raises(InputError, match="lie in"):
        simulate_prime_step(s, -1, c)


def test_long_random_walks_preserve_invariants():
    rng = random.Random(11)
    c = ctx(3)
    state = initial_state(ModuleShape(0, (3, 2, 1)), c)
    for step in range(10_000):
        a = rng.choice(feasible_localization_lengths(state, c))
        nxt = simulate_prime_step(state, a, c)
        # constructor re-checks e = rho mod 2 and nonnegativity; spot-check
        assert nxt.e == 1 - state.e
        assert nxt.rho % 2 == nxt.e
        assert nxt.m_length >= 0
        assert abs(nxt.rho - state.rho) == 1
        if state.e == 0:
            assert nxt.m_length == state.m_length - a
        else:
            assert nxt.m_length == state.m_length + (c.k - a)
        state = nxt
    assert len(state.n) == 10_000


# ----------------------------------------------------------------- systems


def test_proof_walk_realizes_suffix_sums():
    shape = ModuleShape(0, (2, 1))
    states, a_seq = proof_walk(shape, ctx(10))
    def_lengths = sorted(s.m_length for s in states if s.e == 0)
    assert def_lengths == [0, 1, 3]  # suffix sums of (2, 1)
    assert any(s.e == 1 and s.m_length == 0 for s in states)
    assert len(a_seq) == 2 * 2 + 1


def test_generated_system_obeys_stub_bound_and_rigidity():
    for seed in range(8):
        sys = generate_system(ctx(6), extra_steps=40, seed=seed)
        assert sys.stub_bound_holds()
        assert sys.observed_rigidity() == min(sys.ctx.k, sys.delta)


def test_generator_is_reproducible():
    a = generate_system(ctx(5), extra_steps=25, seed=123)
    b = generate_system(ctx(5), extra_steps=25, seed=123)
    assert a.states == b.states and a.a_sequence == b.a_sequence
    assert (a.shape, a.delta) == (b.shape, b.delta)


def test_fixed_shape_system_matches_profile():
    shape, delta = ModuleShape(0, (3, 1)), 1
    c = ctx(9)
    sys = generate_system(c, shape=shape, delta=delta, seed=0)
    profile = lambda_profile(shape, delta, c)
    # definite levels of the canonical walk realize the profile values
    got = sorted(sys.value_index(s) for s in sys.states if s.e == 0)
    want = sorted(profile[r] for r in (0, 2, 4))
    assert got == want


# ------------------------------------------------------- cross-module oracle


def test_waldspurger_partials_match_lambda_profile():
    out = predict_waldspurger_profile(
        synthetic_delta_stats(ModuleShape(0, (2,))),
        synthetic_delta_stats(ModuleShape(0, (2, 1))),
    )
    c = ctx(50)
    profile = lambda_profile(out.shape_K, 0, c)
    for s, val in enumerate(out.normalized_partials):
        assert profile[2 * s] == val


def test_waldspurger_partials_match_profile_past_saturation():
    # with positive corank the profile saturates below the order and agrees
    # with the normalized partials beyond it
    out = predict_waldspurger_profile(
        synthetic_delta_stats(ModuleShape(1, (2,))),
        synthetic_delta_stats(ModuleShape(1, ())),
    )
    assert out.ord_lambda == 2
    c = ctx(60)
    profile = lambda_profile(out.shape_K, 0, c)
    for r in range(0, 2 * out.ord_lambda, 2):
        assert profile[r] == c.k
    for s, val in enumerate(out.normalized_partials):
        assert profile[2 * out.ord_lambda + 2 * s] == val
