"""Structure predictions: shapes from statistics and the twist dictionaries."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmerkit.errors import (
    HypothesisError,
    InconclusiveRegionError,
    InputError,
    InternalInvariantError,
)
from selmerkit.kurihara import (
    DeltaStats,
    RegionSpec,
    StratumStat,
    delta_stats,
    kurihara_number,
)
from selmerkit.selmer_predict import (
    GrossZagierPrediction,
    HeegnerProfile,
    IdentityCheck,
    ModuleShape,
    REGION_DIAGNOSIS,
    _asserted,
    combine_over_K,
    heegner_profile_to_shapes,
    predict_heegner_profile,
    predict_selmer_Q,
    predict_waldspurger_profile,
    suffix_partials,
    synthetic_delta_stats,
)
from selmerkit.sieves import build_indices, sieve

from conftest import KNOWN_RANKS


def stats_from_chain(values, start=0, floor=None, saturated_at=()):
    """Hand-build DeltaStats whose parity chain from `start` is `values`."""
    floor = min(values) if floor is None else floor
    partial = {}
    for j, v in enumerate(values):
        i = start + 2 * j
        partial[i] = StratumStat(
            value=v,
            bound_kind="exact_on_region" if i == 0 else "upper_bound_semantics",
            from_saturated=i in saturated_at,
        )
    return DeltaStats(
        ord_bound=start,
        ord_is_certified_on_region=True,
        partial=partial,
        partial_infty=floor,
        search_region="handmade",
        notes=[],
    )


# ---------------------------------------------------------------- shapes


def test_shape_validation():
    assert ModuleShape(0).exponents == ()
    assert ModuleShape(1, (3, 3, 1)).finite_length == 14
    with pytest.raises(InputError):
        ModuleShape(-1)
    with pytest.raises(InputError):
        ModuleShape(0, (1, 2))  # increasing
    with pytest.raises(InputError):
        ModuleShape(0, (2, 0))  # zero factor


def test_shape_describe_and_json():
    s = ModuleShape(1, (2,))
    assert s.describe(5) == "(Q_5/Z_5)^1 + (Z/5^2)^2"
    assert ModuleShape(0).describe(7) == "0"
    assert ModuleShape.from_json_dict(s.to_json_dict()) == s


def test_trivial_selmer_prediction():
    # ord = 0 with partial^(0) = partial^(infty) = 0: trivial p-primary part
    stats = stats_from_chain([0])
    pred = predict_selmer_Q(stats)
    assert pred.shape == ModuleShape(0, ())
    assert pred.divisible_quotient_length == 0
    assert pred.fitting_exponents == {0: 0}
    assert all(c.ok for c in pred.identities)


def test_square_of_order_p_prediction():
    # partial^(0) = 2, partial^(2) = 0 gives the square of Z/p
    stats = stats_from_chain([2, 0])
    pred = predict_selmer_Q(stats)
    assert pred.shape == ModuleShape(0, (1,))
    assert pred.divisible_quotient_length == 2
    assert pred.fitting_exponents == {0: 2, 2: 0}


def test_prediction_with_positive_floor():
    # a positive floor shifts Fitting exponents but not the shape
    stats = stats_from_chain([7, 3, 3 - 2], start=1, floor=1)
    pred = predict_selmer_Q(stats)
    assert pred.shape == ModuleShape(1, (2, 1))
    assert pred.divisible_quotient_length == 6
    assert pred.partial_floor == 1
    assert pred.fitting_exponents == {1: 6, 3: 2, 5: 0}


def test_refuses_uncertified_ord():
    stats = stats_from_chain([2, 0])
    stats.ord_is_certified_on_region = False
    with pytest.raises(InconclusiveRegionError, match="not certified"):
        predict_selmer_Q(stats)


def test_refuses_inconclusive_ord():
    stats = stats_from_chain([2, 0])
    stats.ord_bound = "inconclusive"
    stats.ord_is_certified_on_region = False
    with pytest.raises(InconclusiveRegionError, match="unbounded"):
        predict_selmer_Q(stats)


def test_refuses_saturated_chain_entry():
    stats = stats_from_chain([2, 0], saturated_at={0})
    with pytest.raises(InconclusiveRegionError, match="saturated"):
        predict_selmer_Q(stats)


def test_refuses_odd_difference():
    with pytest.raises(InconclusiveRegionError, match=REGION_DIAGNOSIS):
        predict_selmer_Q(stats_from_chain([3, 0]))


def test_refuses_increasing_chain():
    # an increase before the floor is reached can only be a region artifact
    with pytest.raises(InconclusiveRegionError, match=REGION_DIAGNOSIS):
        predict_selmer_Q(stats_from_chain([4, 2, 4, 0]))


def test_strata_past_the_floor_are_not_consulted():
    # once the chain hits partial^(infty) the tail is forced, so a bad
    # upper-bound artifact sitting past that point cannot spoil the answer
    stats = stats_from_chain([0, 2], floor=0)
    assert predict_selmer_Q(stats).shape == ModuleShape(0, ())


def test_refuses_increasing_halved_differences():
    # differences 0 then 4 cannot come from non-increasing exponents
    with pytest.raises(InconclusiveRegionError, match="non-increasing"):
        predict_selmer_Q(stats_from_chain([4, 4, 0]))


def test_refuses_missing_stratum():
    stats = stats_from_chain([4, 2, 0])
    del stats.partial[2]
    with pytest.raises(InconclusiveRegionError, match="empty or outside"):
        predict_selmer_Q(stats)


def iter_shapes(max_corank, max_total):
    """All shapes with corank <= max_corank and exponent sum <= max_total."""

    def partitions(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for corank in range(max_corank + 1):
        for total in range(max_total + 1):
            for part in partitions(total, total if total else 1):
                yield ModuleShape(corank, part)


def test_exhaustive_round_trip_small_shapes():
    count = 0
    for shape in iter_shapes(2, 8):
        for floor in (0, 3):
            pred = predict_selmer_Q(synthetic_delta_stats(shape, floor=floor))
            assert pred.shape == shape, (shape, floor)
            assert pred.divisible_quotient_length == shape.finite_length
            assert pred.partial_floor == floor
            count += 1
    assert count == 2 * 3 * 67  # 67 partitions with sum <= 8


shapes_strategy = st.builds(
    ModuleShape,
    st.integers(0, 3),
    st.lists(st.integers(1, 6), max_size=4).map(lambda xs: tuple(sorted(xs, reverse=True))),
)


@given(shapes_strategy, st.integers(0, 5))
@settings(max_examples=120, deadline=None)
def test_round_trip_property(shape, floor):
    pred = predict_selmer_Q(synthetic_delta_stats(shape, floor=floor))
    assert pred.shape == shape


def _stripped(xs):
    xs = list(xs)
    while xs and xs[-1] == 0:
        xs.pop()
    return xs


@given(st.lists(st.integers(1, 9), max_size=6), st.lists(st.integers(1, 9), max_size=6))
@settings(max_examples=150, deadline=None)
def test_suffix_partials_interleave_round_trip(a, b):
    partials = suffix_partials(a, b)
    steps = [x - y for x, y in zip(partials, partials[1:])]
    assert _stripped(steps[0::2]) == a and _stripped(steps[1::2]) == b
    assert partials[-1] == 0
    assert all(x >= y for x, y in zip(partials, partials[1:]))


def test_asserted_passes_holding_checks_and_raises_on_a_failed_one():
    ok = IdentityCheck("same", 3, 3)
    assert _asserted(ok) == [ok]
    with pytest.raises(InternalInvariantError, match="spread: 4 != 5"):
        _asserted(ok, IdentityCheck("spread", 4, 5))


# ---------------------------------------------------------------- over K


def test_combine_examples():
    a = combine_over_K(ModuleShape(1), ModuleShape(0, (2,)))
    assert a == ModuleShape(1, (2,))
    assert combine_over_K(ModuleShape(0), ModuleShape(0)) == ModuleShape(0)


@given(shapes_strategy, shapes_strategy, shapes_strategy)
@settings(max_examples=60, deadline=None)
def test_combine_commutative_associative_additive(a, b, c):
    assert combine_over_K(a, b) == combine_over_K(b, a)
    assert combine_over_K(combine_over_K(a, b), c) == combine_over_K(a, combine_over_K(b, c))
    assert combine_over_K(a, b).finite_length == a.finite_length + b.finite_length


# ---------------------------------------------------------------- curves


def test_known_rank_zero_curve(eigensymbol, curve):
    sym = eigensymbol("11a1")
    primes = sieve("cyc", curve("11a1"), 7, 1, 500)
    region = RegionSpec(p=7, k=1, prime_bound=500, max_nu=1, max_n=10**6)
    idxs = build_indices(primes, max_nu=region.max_nu, max_n=region.max_n)
    stats = delta_stats([kurihara_number(sym, ix, 7) for ix in idxs], region)
    pred = predict_selmer_Q(stats)
    assert pred.shape == ModuleShape(0, ())
    assert pred.divisible_quotient_length == 0
    assert KNOWN_RANKS["11a1"] == 0


def test_known_rank_one_curve(eigensymbol, curve):
    sym = eigensymbol("37a1")
    primes = sieve("cyc", curve("37a1"), 5, 1, 600)
    region = RegionSpec(p=5, k=1, prime_bound=600, max_nu=1, max_n=10**6)
    idxs = build_indices(primes, max_nu=region.max_nu, max_n=region.max_n)
    stats = delta_stats([kurihara_number(sym, ix, 5) for ix in idxs], region)
    pred = predict_selmer_Q(stats)
    # corank 1 with trivial finite part: rank 1 and trivial 5-part of Sha
    assert pred.shape == ModuleShape(1, ())
    assert pred.divisible_quotient_length == 0
    assert KNOWN_RANKS["37a1"] == 1


# ---------------------------------------------------------------- Heegner


def test_clean_rank_one_zero_profile():
    stats_e = synthetic_delta_stats(ModuleShape(1))
    stats_k = synthetic_delta_stats(ModuleShape(0))
    out = predict_heegner_profile(stats_e, stats_k, W=-1)
    assert out.profile.ord_kappa == 0
    assert out.profile.normalized_partials == (0,)
    assert out.profile.root_number_side == 1
    assert all(c.ok for c in out.identities)


def test_single_odd_offset_step():
    stats_e = synthetic_delta_stats(ModuleShape(1, (1,)))
    stats_k = synthetic_delta_stats(ModuleShape(0))
    out = predict_heegner_profile(stats_e, stats_k, W=-1)
    # larger side steps live at odd offsets: partials 1, 1, 0
    assert out.profile.normalized_partials == (1, 1, 0)
    gz = [c for c in out.identities if c.name == "higher_gross_zagier_spread"][0]
    assert (gz.lhs, gz.rhs) == (2, 2)


def test_interleaving_both_sides():
    # smaller side fills even offsets, larger side odd offsets
    stats_e = synthetic_delta_stats(ModuleShape(2, (3, 1)))
    stats_k = synthetic_delta_stats(ModuleShape(1, (2,)))
    out = predict_heegner_profile(stats_e, stats_k, W=1)
    prof = out.profile
    assert prof.ord_kappa == 1
    assert prof.root_number_side == 1
    # decrements: 2 (even, from twist side), 3 (odd, curve), 0, 1
    assert prof.normalized_partials == (6, 4, 1, 1, 0)
    assert prof.eigenspace_corank(1) == 2
    assert prof.eigenspace_corank(-1) == 1


def test_err_term_refusal():
    stats_e = synthetic_delta_stats(ModuleShape(2))
    stats_k = synthetic_delta_stats(ModuleShape(0))
    with pytest.raises(HypothesisError, match="refusing to guess"):
        predict_heegner_profile(stats_e, stats_k, W=1)


def test_root_number_consistency_check():
    stats_e = synthetic_delta_stats(ModuleShape(1))
    stats_k = synthetic_delta_stats(ModuleShape(0))
    with pytest.raises(HypothesisError, match="root number"):
        predict_heegner_profile(stats_e, stats_k, W=1)


def test_bad_root_number_rejected():
    stats = synthetic_delta_stats(ModuleShape(1))
    with pytest.raises(InputError):
        predict_heegner_profile(stats, stats, W=0)


def test_heegner_uncertified_inputs_refused():
    stats_e = synthetic_delta_stats(ModuleShape(1))
    stats_k = synthetic_delta_stats(ModuleShape(0))
    stats_k.ord_is_certified_on_region = False
    with pytest.raises(InconclusiveRegionError):
        predict_heegner_profile(stats_e, stats_k, W=-1)


def test_heegner_exhaustive_inversion_round_trip():
    # every corank pattern differing by 1 and total spread <= 6
    small_parts = [p for p in iter_shapes(0, 3)]  # corank 0 partitions only
    count = 0
    for ce, ck in ((1, 0), (0, 1), (2, 1), (1, 2)):
        for pe, pk in itertools.product(small_parts, small_parts):
            if sum(pe.exponents) + sum(pk.exponents) > 3:
                continue
            shape_e = ModuleShape(ce, pe.exponents)
            shape_k = ModuleShape(ck, pk.exponents)
            ord_kappa = min(ce, ck)
            big_side = 1 if ce > ck else -1
            w = big_side * (-1) ** (ord_kappa + 1)
            out = predict_heegner_profile(
                synthetic_delta_stats(shape_e),
                synthetic_delta_stats(shape_k, floor=1),
                W=w,
            )
            assert 2 * out.profile.normalized_partials[0] == (
                shape_e.finite_length + shape_k.finite_length
            )
            back_e, back_k = heegner_profile_to_shapes(out.profile)
            assert (back_e, back_k) == (shape_e, shape_k)
            count += 1
    assert count == 4 * 18  # 18 partition pairs with sum <= 3, 4 corank patterns


def test_profile_validation():
    with pytest.raises(InputError, match="terminate"):
        HeegnerProfile(0, (2, 1), 1)
    with pytest.raises(InputError, match="non-increasing"):
        HeegnerProfile(0, (1, 2, 0), 1)
    with pytest.raises(InputError, match="side"):
        HeegnerProfile(0, (0,), 2)
    with pytest.raises(InputError):
        HeegnerProfile(-1, (0,), 1)


def test_inversion_rejects_internal_zero_decrement():
    # even-offset decrements 2, 0, 1 cannot come from a shape
    prof = HeegnerProfile(0, (6, 4, 4, 3, 2, 2, 0), 1)
    with pytest.raises(InputError, match="exponent list"):
        heegner_profile_to_shapes(prof)


def test_gz_json_report():
    out = predict_heegner_profile(
        synthetic_delta_stats(ModuleShape(1, (1,)), label="left"),
        synthetic_delta_stats(ModuleShape(0), label="right"),
        W=-1,
    )
    blob = out.to_json_dict()
    assert blob["profile"]["normalized_partials"] == [1, 1, 0]
    assert blob["identities"][0]["ok"] is True
    assert "left" in blob["evidence"] and "right" in blob["evidence"]


# ------------------------------------------------------------ Waldspurger


def test_waldspurger_trivial():
    out = predict_waldspurger_profile(
        synthetic_delta_stats(ModuleShape(0)), synthetic_delta_stats(ModuleShape(0))
    )
    assert out.ord_lambda == 0
    assert out.normalized_partials == (0,)


def test_waldspurger_merged_steps():
    out = predict_waldspurger_profile(
        synthetic_delta_stats(ModuleShape(0, (1,))),
        synthetic_delta_stats(ModuleShape(0, (2,))),
    )
    assert out.ord_lambda == 0
    assert out.normalized_partials == (3, 1, 0)
    assert out.shape_K == ModuleShape(0, (2, 1))
    (check,) = out.identities
    assert (check.lhs, check.rhs) == (6, 6)


def test_waldspurger_positive_corank():
    out = predict_waldspurger_profile(
        synthetic_delta_stats(ModuleShape(1, (2,))),
        synthetic_delta_stats(ModuleShape(1, (2, 1))),
    )
    assert out.ord_lambda == 2
    # merged exponents 2, 2, 1 read off as successive differences
    assert out.normalized_partials == (5, 3, 1, 0)


def test_waldspurger_refuses_odd_total_corank():
    with pytest.raises(HypothesisError, match="odd"):
        predict_waldspurger_profile(
            synthetic_delta_stats(ModuleShape(1)), synthetic_delta_stats(ModuleShape(0))
        )


@given(shapes_strategy, shapes_strategy)
@settings(max_examples=80, deadline=None)
def test_waldspurger_spread_identity(a, b):
    if (a.corank + b.corank) % 2 != 0:
        a = ModuleShape(a.corank + 1, a.exponents)
    out = predict_waldspurger_profile(synthetic_delta_stats(a), synthetic_delta_stats(b))
    assert out.ord_lambda == a.corank + b.corank
    assert 2 * out.normalized_partials[0] == a.finite_length + b.finite_length
    diffs = [
        x - y for x, y in zip(out.normalized_partials, out.normalized_partials[1:])
    ]
    assert tuple(diffs) == combine_over_K(a, b).exponents
