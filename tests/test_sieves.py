"""Prime family sieves, rechecked against brute-force point counts.

Frozen lists below were derived by an independent script doing O(q^2)
projective point counting; the tests re-verify every reported prime the
same way, so a sieve regression cannot hide behind the fast counter.
"""

import io
import itertools
import json
from math import gcd

import pytest

import sieve_oracle
from selmerkit.errors import InputError
from selmerkit.sieves import (
    KolyvaginPrime,
    SquarefreeIndex,
    build_indices,
    dump_primes_jsonl,
    sieve,
)

from conftest import CURVES


def brute_aq(E, q):
    a1, a2, a3, a4, a6 = E.ainvs
    cnt = 1  # point at infinity
    for x in range(q):
        for y in range(q):
            if (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % q == 0:
                cnt += 1
    return q + 1 - cnt


def local_kron(D, q):
    # self-contained inertness check, Euler criterion for odd q
    if q == 2:
        r = D % 8
        return {1: 1, 5: -1}.get(r, 0)
    e = pow(D % q, (q - 1) // 2, q)
    return -1 if e == q - 1 else e


def recheck(f, E, p, k, D_K=None):
    """Re-derive every invariant of a sieved prime from scratch."""
    q = f.q
    assert E.conductor % q != 0 and q != p
    aq = brute_aq(E, q)
    pk = p ** k

    def vp(x):
        v = 0
        while x % p == 0 and v < 12:
            x //= p
            v += 1
        return v

    if f.family == "cyc":
        assert (q - 1) % pk == 0 and (aq - q - 1) % pk == 0
        assert f.v1 == vp(q - 1) and f.v2 == vp(aq - q - 1)
    elif f.family == "ac":
        assert local_kron(D_K, q) == -1
        assert (q + 1) % pk == 0 and aq % pk == 0
        assert f.v1 == vp(q + 1)
        assert f.v2 == (12 if aq == 0 else vp(aq))
    else:
        assert local_kron(D_K, q) == -1
        assert q % p not in (1, p - 1)
        assert (aq - f.epsilon * (q + 1)) % pk == 0
        assert (aq + f.epsilon * (q + 1)) % pk != 0  # the sign is forced
        assert f.v2 == vp(aq - f.epsilon * (q + 1))


def test_cyc_sieve_frozen_and_rechecked(curve):
    E = curve("11a1")
    out = sieve("cyc", E, 7, 1, 500)
    assert [(f.q, f.v1, f.v2) for f in out] == [(113, 1, 1), (379, 1, 1)]
    for f in out:
        recheck(f, E, 7, 1)

    E37 = curve("37a1")
    out37 = sieve("cyc", E37, 5, 1, 500)
    assert [f.q for f in out37] == [61, 211, 281, 491]
    assert [f.v2 for f in out37] == [1, 2, 1, 1]
    assert all(f.v1 == 1 for f in out37)
    for f in out37:
        recheck(f, E37, 5, 1)


def test_cyc_nesting(curve):
    E = curve("37a1")
    k1 = {f.q for f in sieve("cyc", E, 5, 1, 5000)}
    k2 = sieve("cyc", E, 5, 2, 5000)
    assert {f.q for f in k2} == {2251, 4651}  # frozen; both have min(v1,v2) = 2
    assert {f.q for f in k2} <= k1
    assert all(f.exponent >= 2 for f in k2)


def test_ac_sieve_frozen_and_rechecked(curve):
    E = curve("11a1")
    out = sieve("ac", E, 5, 1, 300, D_K=-7)
    assert [f.q for f in out] == [19, 59, 89, 139, 199, 229, 269]
    # a_19 = a_199 = 0: the v2 slot saturates at the valuation cap
    byq = {f.q: f for f in out}
    assert byq[19].v2 == 12 and byq[199].v2 == 12
    assert byq[19].exponent == 1 and byq[199].exponent == 2
    assert byq[59].v2 == 1
    for f in out:
        recheck(f, E, 5, 1, D_K=-7)


def test_ac_sieve_can_be_vacuous(curve):
    assert sieve("ac", curve("11a1"), 5, 1, 18, D_K=-7) == []


def test_adm_sieve_frozen_and_rechecked(curve):
    E = curve("11a1")
    out = sieve("adm", E, 5, 1, 200, D_K=-3)
    assert [f.q for f in out] == [2, 17, 23, 47, 53, 83, 107, 113, 137, 167, 173, 197]
    byq = {f.q: f for f in out}
    assert byq[23].v2 == 2 and byq[197].v2 == 2
    assert all(f.epsilon in (1, -1) for f in out)
    for f in out:
        recheck(f, E, 5, 1, D_K=-3)


def test_adm_excludes_q_congruent_to_plus_minus_one(curve):
    # a_29(11a1) = 0 = -(29+1) mod 5, yet 29 = -1 mod 5 must be excluded
    E = curve("11a1")
    assert brute_aq(E, 29) == 0
    assert local_kron(-3, 29) == -1
    out = sieve("adm", E, 5, 1, 40, D_K=-3)
    assert 29 not in {f.q for f in out}


def test_sieve_matches_the_three_branch_oracle():
    found = dict.fromkeys(("cyc", "ac", "adm"), 0)
    for label, E in CURVES.items():
        runs = [("cyc", None)] + [
            (family, D_K)
            for D_K in (-3, -4, -7, -8)
            if gcd(D_K, E.conductor) == 1
            for family in ("ac", "adm")
        ]
        for (family, D_K), p, k in itertools.product(runs, (5, 7), (1, 2)):
            got, want = io.StringIO(), io.StringIO()
            dump_primes_jsonl(sieve(family, E, p, k, 500, D_K=D_K), got)
            dump_primes_jsonl(sieve_oracle.sieve(family, E, p, k, 500, D_K=D_K), want)
            assert got.getvalue() == want.getvalue(), (label, family, D_K, p, k)
            found[family] += got.getvalue().count("\n")
    assert all(found.values()), found


def test_sieve_input_validation(curve):
    E = curve("11a1")
    with pytest.raises(InputError):
        sieve("cyc", E, 6, 1, 100)  # p not prime
    with pytest.raises(InputError):
        sieve("cyc", E, 7, 0, 100)
    with pytest.raises(InputError):
        sieve("ac", E, 5, 1, 100)  # missing D_K
    with pytest.raises(InputError):
        sieve("ac", E, 5, 1, 100, D_K=5)  # real field
    with pytest.raises(InputError):
        sieve("adm", E, 5, 1, 100, D_K=-14)  # not fundamental
    with pytest.raises(InputError):
        sieve("cyc", E, 7, 13, 100)  # k above the valuation cap of 12
    with pytest.raises(InputError):
        sieve("heeg", E, 7, 1, 100)


def test_kolyvagin_prime_validation():
    with pytest.raises(InputError):
        KolyvaginPrime(q=13, family="cyc", v1=1, v2=1, epsilon=1)
    with pytest.raises(InputError):
        KolyvaginPrime(q=13, family="adm", v1=0, v2=1)  # missing epsilon
    with pytest.raises(InputError):
        KolyvaginPrime(q=13, family="adm", v1=0, v2=1, epsilon=2)


def test_build_indices_structure(curve):
    primes = sieve("cyc", curve("37a1"), 5, 1, 500)
    idxs = build_indices(primes, max_nu=2, max_n=10 ** 6)
    by_n = {ix.n: ix for ix in idxs}
    assert sorted(by_n) == [
        1, 61, 211, 281, 491,
        61 * 211, 61 * 281, 61 * 491, 211 * 281, 211 * 491, 281 * 491,
    ]
    assert [ix.n for ix in idxs] == sorted(by_n)  # ascending output order
    assert by_n[1].t_n is None and by_n[1].nu == 0
    # I_q is generated by both defects, so t_211 = min(v1, v2) = min(1, 2)
    assert by_n[211].t_n == 1
    assert by_n[61 * 211].t_n == 1
    # t is monotone non-increasing under adding factors
    for ix in idxs:
        if ix.nu == 2:
            for f in ix.factors:
                assert ix.t_n <= by_n[f.q].t_n


def test_index_exponent_is_min_over_factors():
    deep = KolyvaginPrime(q=2251, family="cyc", v1=3, v2=2)
    shallow = KolyvaginPrime(q=61, family="cyc", v1=1, v2=1)
    idxs = build_indices([deep, shallow], max_nu=2, max_n=10 ** 8)
    by_n = {ix.n: ix.t_n for ix in idxs}
    assert by_n[2251] == 2
    assert by_n[61] == 1
    assert by_n[61 * 2251] == 1


def test_build_indices_respects_bounds(curve):
    primes = sieve("cyc", curve("37a1"), 5, 1, 500)
    small = build_indices(primes, max_nu=2, max_n=300)
    assert [ix.n for ix in small] == [1, 61, 211, 281]
    nu1 = build_indices(primes, max_nu=1, max_n=10 ** 6)
    assert max(ix.nu for ix in nu1) == 1
    assert len(nu1) == 5


def test_build_indices_stops_once_the_sum_of_n_passes_its_budget(curve):
    primes = sieve("cyc", curve("37a1"), 5, 1, 500)
    full = build_indices(primes, max_nu=2, max_n=10 ** 6)
    total = sum(ix.n for ix in full)
    assert build_indices(primes, max_nu=2, max_n=10 ** 6, max_total=total) == full
    with pytest.raises(InputError, match="budget"):
        build_indices(primes, max_nu=2, max_n=10 ** 6, max_total=total - 1)


def test_build_indices_rejects_mixed_families(curve):
    a = sieve("cyc", curve("11a1"), 7, 1, 500)
    b = sieve("adm", curve("11a1"), 5, 1, 60, D_K=-3)
    with pytest.raises(InputError):
        build_indices(a + b[:1], max_nu=1, max_n=10 ** 6)
    with pytest.raises(InputError):
        build_indices(a + a, max_nu=1, max_n=10 ** 6)  # duplicated primes


def test_squarefree_index_validation():
    f = KolyvaginPrime(q=13, family="cyc", v1=1, v2=2)
    g = KolyvaginPrime(q=31, family="cyc", v1=1, v2=1)
    ix = SquarefreeIndex((f, g))
    assert (ix.n, ix.t_n, ix.nu, ix.family) == (13 * 31, 1, 2, "cyc")
    one = SquarefreeIndex(())
    assert (one.n, one.t_n, one.nu, one.family) == (1, None, 0, None)
    with pytest.raises(InputError, match="repeats a prime"):
        SquarefreeIndex((f, f))
    with pytest.raises(InputError, match="repeats a prime"):
        SquarefreeIndex((f, KolyvaginPrime(q=13, family="cyc", v1=2, v2=2)))
    adm = KolyvaginPrime(q=17, family="adm", v1=0, v2=1, epsilon=1)
    with pytest.raises(InputError, match="mixes prime families"):
        SquarefreeIndex((f, adm))


def test_jsonl_round_trip(curve):
    primes = sieve("adm", curve("11a1"), 5, 1, 200, D_K=-3)
    buf = io.StringIO()
    dump_primes_jsonl(primes, buf)
    lines = buf.getvalue().splitlines()
    assert [json.loads(line) for line in lines] == [f.to_json_dict() for f in primes]
    # cyc rows serialize epsilon as null
    buf2 = io.StringIO()
    dump_primes_jsonl(sieve("cyc", curve("11a1"), 7, 1, 500), buf2)
    assert '"epsilon": null' in buf2.getvalue()
