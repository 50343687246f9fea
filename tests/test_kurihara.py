"""Kurihara numbers: the discrete-log oracle, residues, and region statistics.

The frozen residues below come from this pipeline and are pinned by
independent structure: delta_1 must be the p-adic image of the exact
rational [0/1]+ (itself dual-verified against numeric integration), the
valuations must be invariant under primitive-root changes, and the
rank-0/rank-1 pictures at (11a1, p=7) and (37a1, p=5) must match the
curves' ingested ranks through the structure theorem.
"""

import json
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmerkit.arith import isprime, padic_valuation, smallest_primitive_root
from selmerkit.errors import HypothesisError, InputError, InternalInvariantError
from selmerkit.kurihara import (
    DeltaStats,
    KuriharaNumber,
    RegionSpec,
    delta_stats,
    kurihara_number,
)
from selmerkit.modsym import EigenSymbol
from selmerkit.selmer_predict import ModuleShape, synthetic_delta_stats
from selmerkit.sieves import DEFAULT_VALUATION_CAP, KolyvaginPrime, SquarefreeIndex, build_indices, sieve

from conftest import CURVES
from log_oracle import discrete_log_table, three_primitive_roots
from path_oracle import pair_path


def region(p, k=1, prime_bound=500, max_nu=2, max_n=10 ** 6, label=""):
    return RegionSpec(p=p, k=k, prime_bound=prime_bound, max_nu=max_nu, max_n=max_n, label=label)


# -- the discrete-logarithm oracle --------------------------------------------


def test_log_table_tiny():
    t = discrete_log_table(3, 2)
    assert t[1] == 0 and t[2] == 1


def test_log_table_defining_property():
    for ell, eta in [(29, 2), (101, 2), (113, 3)]:
        t = discrete_log_table(ell, eta)
        for a in range(1, ell):
            assert pow(eta, t[a], ell) == a
        assert sorted(t[1:]) == list(range(ell - 1))


def test_log_table_brute_force_spot_check():
    t = discrete_log_table(29, 2)
    e = 0
    x = 1
    while x != 5:
        x = x * 2 % 29
        e += 1
    assert t[5] == e


@settings(max_examples=25, deadline=None)
@given(a=st.integers(1, 112), b=st.integers(1, 112))
def test_log_table_is_a_homomorphism(a, b):
    t = discrete_log_table(113, 3)
    assert (t[a] + t[b]) % 112 == t[a * b % 113]


# -- Kurihara numbers ---------------------------------------------------------


def test_delta_1_is_the_p_adic_symbol_value(eigensymbol):
    sym = eigensymbol("11a1")  # [0/1]+ = 1/5
    one = SquarefreeIndex(())
    kn = kurihara_number(sym, one, 7)
    assert kn.valuation == 0 and not kn.saturated
    assert kn.modulus_exponent == 12
    assert kn.residue * 5 % 7 ** 12 == 1
    assert kn.eta_choices == ()


def test_delta_1_vanishes_for_rank_one(eigensymbol):
    sym = eigensymbol("37a1")  # [0/1]+ = 0
    one = SquarefreeIndex(())
    kn = kurihara_number(sym, one, 5)
    assert kn.residue == 0
    assert kn.saturated and kn.valuation == 12


def test_p_dividing_symbol_denominator_is_refused(eigensymbol):
    # [0/1]+ of 11a1 is 1/5: not 5-integral, the p = 5 hypotheses fail
    sym = eigensymbol("11a1")
    one = SquarefreeIndex(())
    with pytest.raises(HypothesisError):
        kurihara_number(sym, one, 5)


def _delta_1_from_the_rational_value(sym, p):
    """(residue, valuation, modulus exponent) of delta_1, read off the reduced
    rational [0/1]+ in Z_p; None where its denominator is divisible by p."""
    value = sym.eval_plus(0, 1)
    if value.denominator % p == 0:
        return None
    cap = DEFAULT_VALUATION_CAP
    modulus = p ** cap
    residue = value.numerator * pow(value.denominator, -1, modulus) % modulus
    valuation = padic_valuation(value.numerator, p, cap=cap)
    return residue, valuation, cap


@pytest.mark.parametrize("label", sorted(CURVES))
def test_delta_1_matches_the_rational_symbol_value(eigensymbol, label):
    sym = eigensymbol(label)
    (one,) = build_indices([], max_nu=0, max_n=1)
    for p in (5, 7, 11, 13):
        expected = _delta_1_from_the_rational_value(sym, p)
        if expected is None:
            with pytest.raises(HypothesisError, match="symbol denominator"):
                kurihara_number(sym, one, p)
            continue
        kn = kurihara_number(sym, one, p)
        assert (kn.residue, kn.valuation, kn.modulus_exponent) == expected, (label, p)


def test_delta_1_refuses_a_symbol_denominator_divisible_by_p(eigensymbol):
    # 11a1's symbol has denominator 10, while [0/1]+ = -2 * -1 / 10 reduces to
    # 1/5: the reduced value is 2-integral, but delta_1 checks the symbol's
    # own denominator, as every other delta_n does
    sym = eigensymbol("11a1")
    assert sym.denominator == 10 and sym.eval_plus(0, 1).denominator == 5
    (one,) = build_indices([], max_nu=0, max_n=1)
    with pytest.raises(HypothesisError, match="the symbol denominator is divisible by p = 2"):
        kurihara_number(sym, one, 2)


def test_frozen_values_11a1_p7(eigensymbol, curve):
    sym = eigensymbol("11a1")
    primes = sieve("cyc", curve("11a1"), 7, 1, 500)
    idxs = build_indices(primes, max_nu=2, max_n=10 ** 6)
    got = {ix.n: kurihara_number(sym, ix, 7) for ix in idxs}
    assert set(got) == {1, 113, 379, 113 * 379}
    assert got[1].valuation == 0
    # the nu >= 1 strata vanish identically here (rank 0, trivial p-part)
    for n in (113, 379, 113 * 379):
        assert got[n].residue == 0 and got[n].saturated
        assert got[n].modulus_exponent == 1


def test_frozen_values_37a1_p5(eigensymbol, curve):
    sym = eigensymbol("37a1")
    primes = sieve("cyc", curve("37a1"), 5, 1, 500)
    idxs = build_indices(primes, max_nu=1, max_n=10 ** 6)
    got = {ix.n: kurihara_number(sym, ix, 5) for ix in idxs}
    frozen = {61: 1, 211: 0, 281: 1, 491: 2}
    for q, r in frozen.items():
        assert got[q].residue == r, (q, got[q])
    assert got[211].saturated
    assert got[61].valuation == 0


def test_frozen_value_at_depth_two_modulus(eigensymbol, curve):
    # q = 2251 sits in the k = 2 family: t_q = 2 and the residue is mod 25
    sym = eigensymbol("37a1")
    primes = [f for f in sieve("cyc", curve("37a1"), 5, 1, 2500) if f.q == 2251]
    (ix,) = [ix for ix in build_indices(primes, 1, 10 ** 6) if ix.n == 2251]
    assert ix.t_n == 2
    kn = kurihara_number(sym, ix, 5)
    assert kn.modulus_exponent == 2
    assert kn.residue == 22 and kn.valuation == 0


def test_unit_independence_of_valuations(eigensymbol, curve):
    sym = eigensymbol("37a1")
    primes = sieve("cyc", curve("37a1"), 5, 1, 700)
    idxs = [ix for ix in build_indices(primes, max_nu=2, max_n=10 ** 5) if ix.n > 1]
    assert len(idxs) >= 5
    for ix in idxs:
        runs = []
        for which in range(3):
            etas = {f.q: three_primitive_roots(f.q)[which] for f in ix.factors}
            runs.append(kurihara_number(sym, ix, 5, etas=etas))
        assert len({kn.valuation for kn in runs}) == 1
        assert len({kn.saturated for kn in runs}) == 1


def test_factor_order_symmetry(eigensymbol, curve):
    sym = eigensymbol("37a1")
    primes = [f for f in sieve("cyc", curve("37a1"), 5, 1, 500) if f.q in (61, 211)]
    ix = build_indices(primes, 2, 10 ** 6)[-1]
    assert ix.n == 61 * 211
    flipped = SquarefreeIndex(tuple(reversed(ix.factors)))
    a = kurihara_number(sym, ix, 5)
    b = kurihara_number(sym, flipped, 5)
    assert a.residue == b.residue and a.valuation == b.valuation


def test_crt_log_product(curve):
    # direct discrete logs of a mod each factor agree with table lookups
    primes = [f for f in sieve("cyc", curve("37a1"), 5, 1, 500) if f.q in (61, 211)]
    tables = {f.q: discrete_log_table(f.q, 2) for f in primes}
    for q in tables:
        assert pow(2, tables[q][5], q) == 5

    n = 61 * 211
    for a in (2, 1000, 12345, n - 1):
        if gcd(a, n) != 1:
            continue
        direct = 1
        for q, t in tables.items():
            e = 0
            x = 1
            while x != a % q:
                x = x * 2 % q
                e += 1
            assert e == t[a % q]
            direct *= e
        via_tables = tables[61][a % 61] * tables[211][a % 211]
        assert direct == via_tables


def _reference_delta(sym, ix, p, etas=None):
    """delta_n as the plain sum over all of (Z/n)^*, symbols from the path oracle.

    The modulus is p^{t_n}, so the congruence level k reaches it through the
    factors' exponents; etas overrides the smallest primitive roots.
    """
    modulus = p ** ix.t_n
    logs = [
        (f.q, discrete_log_table(f.q, (etas or {}).get(f.q) or smallest_primitive_root(f.q)))
        for f in ix.factors
    ]
    dinv = pow(sym.denominator, -1, modulus)
    total = 0
    for a in range(1, ix.n):
        if gcd(a, ix.n) != 1:
            continue
        w = 1
        for ell, tab in logs:
            w *= tab[a % ell]
        total += sym.sign * pair_path(sym.space, sym.fvec, a, ix.n) * dinv * w
    return total % modulus


@pytest.mark.parametrize(
    "label, p, bound",
    [
        ("11a1", 3, 100), ("11a1", 5, 100), ("11a1", 7, 200),
        ("37a1", 3, 100), ("37a1", 5, 300), ("37a1", 7, 100),
        ("14a1", 3, 100), ("14a1", 5, 300), ("14a1", 7, 600),
    ],
)
def test_paired_sum_matches_reference_sum(eigensymbol, curve, label, p, bound):
    sym = eigensymbol(label)
    indices = build_indices(sieve("cyc", curve(label), p, 1, bound), max_nu=2, max_n=13000)
    # the first two indices of each stratum n > 1
    picked = [ix for ix in indices if ix.n > 1]
    picked = [ix for ix in picked if sum(jx.nu == ix.nu for jx in picked if jx.n <= ix.n) <= 2]
    assert picked
    for ix in picked:
        if sym.denominator % p == 0:
            with pytest.raises(HypothesisError):
                kurihara_number(sym, ix, p)
            continue
        kn = kurihara_number(sym, ix, p)
        expected = _reference_delta(sym, ix, p)
        assert kn.residue == expected, (label, p, ix.n)
        assert kn.valuation == padic_valuation(expected, p, cap=ix.t_n)


def _cyc_index(p, k, qs):
    """A hand-built cyc index with t_n = k: v1 = v_p(q - 1) >= k and v2 = k."""
    return SquarefreeIndex(
        tuple(KolyvaginPrime(q=q, family="cyc", v1=padic_valuation(q - 1, p), v2=k) for q in qs)
    )


def _assert_matches_reference(sym, p, k, qs, etas):
    ix = _cyc_index(p, k, qs)
    assert ix.t_n == k
    kn = kurihara_number(sym, ix, p, etas=etas)
    expected = _reference_delta(sym, ix, p, etas)
    assert kn.residue == expected, (p, k, qs, etas)
    assert kn.valuation == padic_valuation(expected, p, cap=k)


# (curve, p, k, qs), each with a nonzero delta_n except the first: at p = 2,
# c_q = (q - 1)/2 mod 2^k is 0 only when 2^{k + 1} divides q - 1, and where
# every c_q is 0 each pair weighs 2 w(a), so the sum is even
HAND_BUILT_INDICES = [
    ("37b1", 2, 1, (5, 13)),  # q = 1 mod 4: every c_q is 0
    ("37b1", 2, 1, (7, 11)),  # q = 3 mod 4: every c_q is 1
    ("37b1", 2, 1, (3, 13)),  # c_3 = 1 and c_13 = 0: one nonzero c_q is enough
    ("37b1", 2, 1, (5, 7, 13)),
    ("37b1", 2, 2, (17, 41)),  # q = 1 mod 8: every c_q is 0 at t = 2
    ("37b1", 2, 2, (5, 13, 17)),  # q = 5 mod 8: c_5 = c_13 = 2 at t = 2
    ("49a1", 3, 2, (19, 37)),  # log products 0 mod 9 from two nonzero logs
    ("11a1", 3, 1, (7, 13, 19)),
    ("37a1", 5, 1, (11, 31, 41)),
    ("37a1", 5, 2, (101, 151)),
    ("37a1", 7, 1, (29, 43)),
    ("37a1", 7, 2, (197,)),
]


@pytest.mark.parametrize("label, p, k, qs", HAND_BUILT_INDICES)
def test_fast_sum_matches_reference_sum_on_hand_built_indices(eigensymbol, label, p, k, qs):
    _assert_matches_reference(eigensymbol(label), p, k, qs, None)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fast_sum_matches_reference_sum_on_random_indices(eigensymbol, data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
    k = data.draw(st.sampled_from([1, 2]), label="k")
    labels = [lb for lb in ("37a1", "37b1", "49a1", "11a1") if eigensymbol(lb).denominator % p]
    label = data.draw(st.sampled_from(labels), label="curve")
    candidates = [q for q in range(3, 400) if (q - 1) % p ** k == 0 and isprime(q)]
    qs: list[int] = []
    for _ in range(data.draw(st.integers(1, 3), label="nu")):
        room = [q for q in candidates if q not in qs and prod(qs) * q <= 20_000]
        if not room:
            break
        qs.append(data.draw(st.sampled_from(room)))
    # every primitive root mod q is g^e with e prime to q - 1
    etas = {}
    for q in qs:
        e = data.draw(st.sampled_from([e for e in range(1, q - 1) if gcd(e, q - 1) == 1]))
        etas[q] = pow(smallest_primitive_root(q), e, q)
    _assert_matches_reference(eigensymbol(label), p, k, tuple(qs), etas)


def test_symbol_is_read_only_where_the_log_weight_is_nonzero(eigensymbol, curve, monkeypatch):
    # one read per pair {a, n - a}, at a < n/2, and none where w(a) = 0 mod p^t
    sym, sym_b = eigensymbol("37a1"), eigensymbol("37b1")
    indices = build_indices(sieve("cyc", curve("37a1"), 5, 1, 300), max_nu=2, max_n=10 ** 6)
    pairs = [ix for ix in indices if ix.nu == 2]
    assert len(pairs) >= 2
    reads = []
    evaluate = EigenSymbol.raw_sum

    def counted(self, n, terms):
        # the folded a of each term with a nonzero weight is one read
        terms = list(terms)
        reads.extend((min(a % n, -a % n), n) for a, w in terms if w)
        return evaluate(self, n, terms)

    monkeypatch.setattr(EigenSymbol, "raw_sum", counted)
    # at t_n = 2 a product of nonzero logs can still be 0 mod 25
    for ix in pairs + [_cyc_index(5, 2, (101, 151))]:
        modulus = 5 ** ix.t_n
        logs = [(f.q, discrete_log_table(f.q, smallest_primitive_root(f.q))) for f in ix.factors]
        units = [a for a in range(1, (ix.n + 1) // 2) if gcd(a, ix.n) == 1]
        weighted = [a for a in units if prod(tab[a % q] for q, tab in logs) % modulus]
        reads.clear()
        kurihara_number(sym, ix, 5)
        assert sorted(reads) == [(a, ix.n) for a in weighted]
        assert len(weighted) < len(units)
    # at p = 2 an unfolded pair can carry two nonzero weights: it is read once,
    # and not at all where the two sum to 0 mod p^t
    for qs, distinct, summed in (((5, 13, 17), 168, 144), ((5, 13), 18, 18)):
        ix = _cyc_index(2, 2, qs)
        logs = [(q, discrete_log_table(q, smallest_primitive_root(q))) for q in qs]
        units = [a for a in range(1, (ix.n + 1) // 2) if gcd(a, ix.n) == 1]
        w = {u: prod(tab[u % q] for q, tab in logs) for a in units for u in (a, ix.n - a)}
        assert sum(1 for a in units if w[a] % 4 or w[ix.n - a] % 4) == distinct
        weighted = [a for a in units if (w[a] + w[ix.n - a]) % 4]
        reads.clear()
        kurihara_number(sym_b, ix, 2)
        assert sorted(reads) == [(a, ix.n) for a in weighted]
        assert len(reads) == summed


@pytest.mark.parametrize(
    "p, q, t",
    [
        (5, 13, 1),  # 5 does not divide 13 - 1
        (5, 11, 2),  # 25 does not divide 11 - 1
        (2, 7, 2),  # 4 does not divide 7 - 1
        (2, 3, 2),  # 4 does not divide 3 - 1
    ],
)
def test_log_precondition_is_asserted_at_every_p(eigensymbol, p, q, t):
    # e is log_eta(eta^e) mod p^t only when p^t divides q - 1, at every p
    bad = KolyvaginPrime(q=q, family="cyc", v1=t, v2=t)
    with pytest.raises(InternalInvariantError, match=rf"p\^t = {p ** t} does not divide ell - 1 = {q - 1}"):
        kurihara_number(eigensymbol("37a1"), SquarefreeIndex((bad,)), p)


@pytest.mark.parametrize(
    "p, q, eta, message",
    [
        # 4 = 2^2 generates the even-log subgroup
        pytest.param(7, 29, 4, "not a primitive root", id="square"),
        # order 3 = (7 - 1)/2: a walk of e < (ell - 1)/2 alone would accept it
        pytest.param(3, 7, 2, "not a primitive root", id="half-order"),
        pytest.param(7, 29, 0, "not a unit", id="zero"),
        pytest.param(7, 29, 29, "not a unit", id="ell"),
        pytest.param(5, 21, None, "not prime", id="composite"),
        pytest.param(3, 1_000_003, None, "factor limit", id="past-the-limit"),
    ],
)
def test_kurihara_number_refuses_a_bad_factor_or_eta(eigensymbol, p, q, eta, message):
    ix = SquarefreeIndex((KolyvaginPrime(q=q, family="cyc", v1=1, v2=1),))
    etas = None if eta is None else {q: eta}
    with pytest.raises(InputError, match=message):
        kurihara_number(eigensymbol("37a1"), ix, p, etas=etas)


def test_rejects_wrong_family_and_unit_ideal(eigensymbol):
    sym = eigensymbol("11a1")
    f = KolyvaginPrime(q=13, family="adm", v1=0, v2=1, epsilon=1)
    ix = SquarefreeIndex((f,))
    with pytest.raises(InputError):
        kurihara_number(sym, ix, 5)
    g = KolyvaginPrime(q=29, family="cyc", v1=1, v2=0)
    ix0 = SquarefreeIndex((g,))
    with pytest.raises(InputError):
        kurihara_number(sym, ix0, 7)
    # 2 is never 1 mod p, so an even n would break the a <-> n - a pairing
    two = KolyvaginPrime(q=2, family="cyc", v1=1, v2=1)
    with pytest.raises(InternalInvariantError, match="even"):
        kurihara_number(sym, SquarefreeIndex((two,)), 7)


# -- statistics ---------------------------------------------------------------


def test_stats_rank_zero_picture(eigensymbol, curve):
    sym = eigensymbol("11a1")
    primes = sieve("cyc", curve("11a1"), 7, 1, 500)
    idxs = build_indices(primes, max_nu=2, max_n=10 ** 6)
    st_ = delta_stats([kurihara_number(sym, ix, 7) for ix in idxs], region(7, label="11a1"))
    assert st_.ord_bound == 0
    assert st_.ord_is_certified_on_region
    assert st_.partial[0].value == 0
    assert st_.partial[0].bound_kind == "exact_on_region"
    assert not st_.partial[0].from_saturated
    assert st_.partial_infty == 0
    # the nu = 2 stratum saturates at t = 1, so the region honestly reports
    # an unstabilized parity chain instead of pretending partial^(2) = 0
    assert st_.partial[2].from_saturated
    assert len(st_.notes) == 1 and "parity chain" in st_.notes[0]


def test_stats_rank_one_picture(eigensymbol, curve):
    sym = eigensymbol("37a1")
    primes = sieve("cyc", curve("37a1"), 5, 1, 500)
    idxs = build_indices(primes, max_nu=1, max_n=10 ** 6)
    st_ = delta_stats(
        [kurihara_number(sym, ix, 5) for ix in idxs], region(5, max_nu=1, label="37a1")
    )
    assert st_.ord_bound == 1
    assert st_.ord_is_certified_on_region  # delta_1 vanished identically
    assert st_.partial[0].from_saturated  # ... but only up to the cap
    assert st_.partial[1].value == 0
    assert st_.partial[1].bound_kind == "upper_bound_semantics"
    assert st_.partial_infty == 0


def _fake(nu, valuation, t=3, p=5):
    qs = [13, 17, 19][:nu]
    ix = SquarefreeIndex(tuple(KolyvaginPrime(q=q, family="cyc", v1=t, v2=t) for q in qs))
    return KuriharaNumber(
        index=ix,
        p=p,
        modulus_exponent=t,
        residue=0 if valuation >= t else p ** valuation,
        valuation=valuation,
        eta_choices=tuple((q, 2) for q in qs),
    )


def test_stats_inconclusive_when_everything_vanishes():
    st_ = delta_stats([_fake(0, 3), _fake(1, 3)], region(5, max_nu=1))
    assert st_.ord_bound == "inconclusive"
    assert not st_.ord_is_certified_on_region
    assert st_.partial[0].from_saturated and st_.partial[1].from_saturated


def test_stats_empty_stratum_is_noted():
    st_ = delta_stats([_fake(0, 1), _fake(2, 0)], region(5, max_nu=2))
    assert any("nu = 1" in note for note in st_.notes)
    assert 1 not in st_.partial
    # with nu = 1 unexamined, ord equality below nu = 2 cannot be certified
    assert st_.ord_bound == 0  # the nu = 0 entry itself is nonzero
    assert st_.ord_is_certified_on_region  # nothing below nu = 0 to examine


def test_stats_ord_not_certified_over_unexamined_stratum():
    st_ = delta_stats([_fake(0, 3), _fake(2, 0)], region(5, max_nu=2))
    assert st_.ord_bound == 2
    assert not st_.ord_is_certified_on_region  # nu = 1 never examined


def test_stats_parity_chain_violations_are_reported():
    st_ = delta_stats([_fake(0, 1), _fake(2, 2)], region(5, max_nu=2))
    assert any("parity chain" in note for note in st_.notes)


def test_stats_reject_empty():
    with pytest.raises(InputError):
        delta_stats([], region(5))


def _json_round_trip(stats):
    text = json.dumps(stats.to_json_dict(), indent=2, sort_keys=True)
    back = DeltaStats.from_json_dict(json.loads(text))
    assert json.dumps(back.to_json_dict(), indent=2, sort_keys=True) == text
    return back


@settings(max_examples=60, deadline=None)
@given(
    corank=st.integers(0, 4),
    exponents=st.lists(st.integers(1, 4), max_size=5),
    floor=st.integers(0, 3),
)
def test_delta_stats_json_round_trip_synthetic(corank, exponents, floor):
    # up to 5 exponents puts strata nu >= 10 in play, whose JSON keys sort
    # before "2": the rebuilt stats must not depend on key order
    shape = ModuleShape(corank, tuple(sorted(exponents, reverse=True)))
    stats = synthetic_delta_stats(shape, floor=floor)
    assert _json_round_trip(stats) == stats


def test_delta_stats_json_round_trip_inconclusive_and_real(eigensymbol, curve):
    inconclusive = delta_stats([_fake(0, 3), _fake(1, 3)], region(5, max_nu=1))
    assert _json_round_trip(inconclusive) == inconclusive
    primes = sieve("cyc", curve("11a1"), 7, 1, 500)
    idxs = build_indices(primes, max_nu=2, max_n=10 ** 6)
    sym = eigensymbol("11a1")
    real = delta_stats([kurihara_number(sym, ix, 7) for ix in idxs], region(7, label="11a1"))
    assert real.notes  # the unstabilized parity chain note survives too
    assert _json_round_trip(real) == real


def test_kurihara_number_json_shape(eigensymbol, curve):
    sym = eigensymbol("37a1")
    primes = sieve("cyc", curve("37a1"), 5, 1, 500)
    idxs = build_indices(primes, max_nu=1, max_n=10 ** 6)
    kn = kurihara_number(sym, idxs[1], 5)
    d = kn.to_json_dict()
    assert d["n"] == kn.n and d["valuation"] == kn.valuation
    assert isinstance(d["eta"], dict)
    one = kurihara_number(sym, SquarefreeIndex(()), 5)
    assert one.to_json_dict()["t_n"] is None
