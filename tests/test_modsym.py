"""Manin symbol spaces, eigensymbols and their analytic normalization.

Two independent computations support every frozen value here: the exact
relation-space pipeline, and direct numeric integration of the q-expansion
(tests below assert their agreement).  The anchor [0/1]+ = 1/5 at conductor
11 also pins the global normalization convention: omega_plus is the
generator of the intersection of the period lattice with the real line.
"""

import gc
import hashlib
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selmerkit import analytic, curves, modsym
from selmerkit.arith import is_fundamental_discriminant, kronecker_symbol
from selmerkit.analytic import cycle_period, numeric_plus, real_periods
from selmerkit.cli import ingest
from selmerkit.curves import quadratic_twist, trace_of_frobenius
from selmerkit.errors import InputError, InternalInvariantError
from selmerkit.modsym import (
    CYCLE_SEARCH_LIMIT,
    EigenSymbol,
    ManinSpace,
    _fricke_sign,
    _isolate_functionals,
    _lift,
    _merel_matrices,
    _nonzero_cycle,
    _p1_fill,
    _path_values,
    _twisted_functionals,
    _value_group,
    build_manin_space,
    cusp_key,
    cusp_number,
    genus_x0,
    isolate_eigensymbol,
    psi_index,
    twist_eigensymbol,
)

import period_oracle
from eigen_oracle import stacked_eigenline
from lattice_oracle import (
    boundary_rows, cusp_classes, cusps_equivalent, densify, generator_ends, kernel_image_gcd, lift_to_sl2,
)
from conftest import CURVES
from p1_oracle import unit_orbit_fill
from path_oracle import pair_path, path_vector


def test_index_and_genus_formulas():
    assert psi_index(11) == 12
    assert psi_index(37) == 38
    assert psi_index(24) == 48
    assert psi_index(539) == 672
    assert genus_x0(1) == 0
    assert genus_x0(11) == 1
    assert genus_x0(14) == 1
    assert genus_x0(15) == 1
    assert genus_x0(17) == 1
    assert genus_x0(37) == 2
    assert genus_x0(539) == 49
    assert cusp_number(11) == 2
    assert cusp_number(14) == 4
    assert cusp_number(24) == 8
    assert cusp_number(539) == 16


def test_p1_list_sizes():
    for N in (1, 11, 24, 37, 49):
        sp = build_manin_space(N)
        assert len(sp.p1_reps) == sp.n == psi_index(N)
    with pytest.raises(InputError):
        ManinSpace(0)


@settings(max_examples=150, deadline=None)
@given(
    N=st.sampled_from([11, 12, 24, 37, 49]),
    c=st.integers(-80, 80),
    d=st.integers(-80, 80),
    lam=st.integers(-40, 40),
)
def test_p1_normalization_is_scalar_invariant(N, c, d, lam):
    sp = build_manin_space(N)
    if gcd(gcd(c, d), N) != 1 or gcd(lam, N) != 1:
        return
    k = sp.index(c, d)
    assert sp.index(lam * c, lam * d) == k
    assert sp.index(*sp.p1_reps[k]) == k  # the representative is in its own class


@pytest.mark.parametrize("N", [12, 24, 49, 126, 240, 333])
def test_p1_table_partitions_the_points_into_unit_orbits(N):
    sp = ManinSpace(N)
    units = [u for u in range(N) if gcd(u, N) == 1]
    assert len(sp.p1_reps) == psi_index(N)
    classes: dict[int, set] = {}
    for c in range(N):
        for d in range(N):
            if gcd(gcd(c, d), N) != 1:
                with pytest.raises(InputError):
                    sp.index(c, d)
            else:
                classes.setdefault(sp.index(c, d), set()).add((c, d))
    assert sorted(classes) == list(range(psi_index(N)))
    for k, pairs in classes.items():
        c, d = sp.p1_reps[k]
        assert pairs == {(u * c % N, u * d % N) for u in units}
        assert len(pairs) == len(units)


def _row_fill_classes(N):
    """(classes, reps) from _p1_fill: the class of (c : d) at c * N + d is
    p1_rows[g][v d mod N] with (g, v) = p1_lift[c], -1 off P^1."""
    rows, lift, reps = _p1_fill(N)
    return [rows[g][v * d % N] for g, v in lift for d in range(N)], reps


def test_row_fill_matches_the_unit_orbit_fill_up_to_200():
    for N in range(1, 201):
        assert _row_fill_classes(N) == unit_orbit_fill(N), N


@pytest.mark.parametrize("N", [240, 333, 360, 720, 1000])
def test_row_fill_matches_the_unit_orbit_fill(N):
    assert _row_fill_classes(N) == unit_orbit_fill(N)


def test_manin_space_stays_within_its_memory_budget():
    # P^1(Z/1000) as 16 divisor rows, the generating actions and the two
    # cusp classes at the ends of each generator
    tracemalloc.start()
    try:
        ManinSpace(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2 ** 20


def test_a_space_keeps_no_dense_boundary():
    # M = 13454 = 14 * 31^2 has 23,808 generators and 128 cusp classes: the
    # space keeps two ends per generator, where a dense boundary matrix of
    # one row per cusp class took the peak to 30.7 MiB
    tracemalloc.start()
    try:
        ManinSpace(13454)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_a_space_keeps_no_n_squared_table():
    # P^1(Z/5077) is two divisor rows and 5077 lifts; a table of all N^2
    # classes would take 49 MiB at two bytes a slot
    tracemalloc.start()
    try:
        ManinSpace(5077)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_a_symbol_keeps_no_n_squared_table():
    # the all-ones functional is star-invariant; at N = 5077 the symbol maps
    # the space's two divisor rows to values and keeps 5077 lifts, where a
    # one-byte table of all N^2 values would take 24.6 MiB
    space = ManinSpace(5077)
    tracemalloc.start()
    try:
        EigenSymbol(curve=None, space=space, fvec=(1,) * space.n, minus=(), denominator=1, sign=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_the_relation_kernels_stay_sparse():
    # at N = 5077 the two kernels have 423 + 422 vectors on 5078 generators
    # but about 103k nonzeros: held as dicts they take about 4 MiB, where
    # dense vectors of length psi(N) held 33.9 MiB
    space = ManinSpace(5077)
    tracemalloc.start()
    try:
        kernels = space._kernels
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [len(kernels[0][s]) for s in (1, -1)] == [423, 422]
    assert held < 10 * 2 ** 20


def test_functional_dimensions():
    assert build_manin_space(1).functionals == {1: [], -1: []}
    assert build_manin_space(1).m == 0
    assert build_manin_space(11).m == 3   # 2g + c - 1 = 2 + 2 - 1
    assert build_manin_space(37).m == 5


def test_a_space_lives_only_as_long_as_its_symbols():
    sym = isolate_eigensymbol(curves.EllipticCurve(0, -1, 1, -10, -20, conductor=11))
    space = weakref.ref(sym.space)
    assert build_manin_space(11) is not sym.space
    del sym
    gc.collect()
    assert space() is None


def _apply(images, f):
    """(Af)_i = sum of f_j over the classes j of images[i], the pointwise operator."""
    return [sum(f[j] for j in img) for img in images]


def _satisfies_manin_relations(sp, g):
    return all(
        g[i] + g[sp.sigma[i]] == 0 and g[i] + g[sp.tau[i]] + g[sp.tau[sp.tau[i]]] == 0
        for i in range(sp.n)
    )


def _rank_mod_prime(vectors, p=2**61 - 1):
    """Rank over F_p, a lower bound for the rank over Q."""
    rows = [[x % p for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv % p
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_functionals_satisfy_manin_relations():
    sp = build_manin_space(14)
    for s in (1, -1):
        for f in densify(sp.functionals[s], sp.n):
            assert _satisfies_manin_relations(sp, f)


@pytest.mark.parametrize("N", [11, 26, 99, 126, 240, 333])
def test_functionals_split_by_star_sign(N):
    sp = build_manin_space(N)
    for s in (1, -1):
        for f in densify(sp.functionals[s], sp.n):
            assert _satisfies_manin_relations(sp, f)
            assert all(f[sp.iota[i]] == s * f[i] for i in range(sp.n)), (N, s)
    both = densify(sp.functionals[1] + sp.functionals[-1], sp.n)
    assert len(both) == sp.m == 2 * sp.genus + sp.ncusps - 1
    assert _rank_mod_prime(both) == len(both)


@pytest.mark.parametrize("N", [11, 26, 99])
def test_hecke_images_preserve_the_functional_space(N):
    sp = build_manin_space(N)
    for q in (2, 3, 5, 7):
        if N % q == 0:
            continue
        images = list(sp.hecke_images(q))
        for f in densify(sp.functionals[1] + sp.functionals[-1], sp.n):
            assert _satisfies_manin_relations(sp, _apply(images, f))


def test_hecke_images_refuse_a_q_dividing_the_level():
    # Merel's matrices of determinant q are not T_q (nor U_q) when q | N
    for N, q in ((11, 11), (26, 2), (26, 13)):
        with pytest.raises(InputError, match=f"q = {q} divides N = {N}"):
            ManinSpace(N).hecke_images(q)


def test_hecke_images_read_no_class_until_iterated(monkeypatch):
    # the twist's certificate streams T_q one row at a time, so the call
    # itself reads nothing, and a q dividing N is refused at the call
    sp = ManinSpace(26)
    index, calls = ManinSpace.index, []

    def counted(self, c, d):
        calls.append((c, d))
        return index(self, c, d)

    monkeypatch.setattr(ManinSpace, "index", counted)
    rows = sp.hecke_images(3)
    with pytest.raises(InputError, match="q = 13 divides N = 26"):
        sp.hecke_images(13)
    assert calls == []
    first = next(rows)
    assert len(calls) == len(first) == len(_merel_matrices(3))


def test_star_commutes_with_hecke():
    for N in (11, 37):
        sp = build_manin_space(N)
        t2 = list(sp.hecke_images(2))
        star = [[j] for j in sp.iota]
        for f in densify(sp.functionals[1] + sp.functionals[-1], sp.n):
            assert _apply(star, _apply(t2, f)) == _apply(t2, _apply(star, f))


def test_merel_matrices():
    sp = ManinSpace(37)
    for q in (2, 3, 5, 7, 13):
        mats = _merel_matrices(q)
        assert len(mats) == len(set(mats))
        for a, b, c, d in mats:
            assert a * d - b * c == q
            assert a > b >= 0 and d > c >= 0
        # each T_q row keeps one class per matrix, repeats and all
        assert all(len(row) == len(mats) for row in sp.hecke_images(q))
    assert len(_merel_matrices(2)) == 4


def test_path_vector_basics():
    sp = build_manin_space(11)
    v0 = path_vector(sp, 0, 1)
    assert v0 == {sp.index(1, 0): 1}
    assert path_vector(sp, 2, 6) == path_vector(sp, 1, 3)
    assert path_vector(sp, -1, -3) == path_vector(sp, 1, 3)
    assert path_vector(sp, 1, 0) == {}


@settings(max_examples=100, deadline=None)
@given(a=st.integers(-60, 60), b=st.integers(1, 60))
def test_path_vector_respects_reduction(a, b):
    sp = build_manin_space(11)
    g = gcd(a, b)
    if g:
        assert path_vector(sp, a, b) == path_vector(sp, a // g, b // g)


SAMPLE_LABELS = ["11a1", "14a1", "15a1", "17a1", "19a1", "26a1", "26b1", "27a1", "37a1", "37b1", "49a1"]


@settings(max_examples=300, deadline=None)
@given(
    label=st.sampled_from(SAMPLE_LABELS),
    a=st.integers(-10 ** 6, 10 ** 6),
    b=st.integers(-10 ** 6, 10 ** 6),
)
def test_table_raw_value_matches_path_oracle(eigensymbol, label, a, b):
    sym = eigensymbol(label)
    assert sym.raw_value(a, b) == pair_path(sym.space, sym.fvec, a, b)


@settings(max_examples=200, deadline=None)
@given(label=st.sampled_from(SAMPLE_LABELS), n=st.integers(1, 10 ** 5), data=st.data())
def test_raw_sum_matches_the_path_oracle(eigensymbol, label, n, data):
    # a past n/2, a = 0, a outside 0 .. n - 1 and zero weights all occur
    sym = eigensymbol(label)
    a = st.integers(n // 2, n - 1) | st.just(0) | st.integers(-3 * n, 3 * n)
    w = st.just(0) | st.integers(-10 ** 6, 10 ** 6)
    terms = data.draw(st.lists(st.tuples(a, w), max_size=8))
    expected = sum(w * pair_path(sym.space, sym.fvec, a, n) for a, w in terms)
    assert sym.raw_sum(n, (term for term in terms)) == expected


@settings(max_examples=100, deadline=None)
@given(
    label=st.sampled_from(SAMPLE_LABELS),
    a=st.integers(-10 ** 6, 10 ** 6),
    b=st.integers(-10 ** 6, 10 ** 6),
)
def test_scaled_symbol_matches_path_oracle(eigensymbol, label, a, b):
    # no sample curve has a functional entry past 127; scale one so that the
    # reads carry wider values
    sym = eigensymbol(label)
    wide = EigenSymbol(curve=sym.curve, space=sym.space, fvec=tuple(200 * x for x in sym.fvec),
                       minus=sym.minus, denominator=sym.denominator, sign=sym.sign)
    assert wide.raw_value(a, b) == pair_path(sym.space, wide.fvec, a, b)


def test_value_rows_cover_exactly_the_points_of_p1(eigensymbol, curve):
    # N = 26, N = 126 for 14a1 twisted by -3 and N = 333 for 37a1 twisted by
    # -3; the classes come from the unit-orbit oracle, not the space's rows
    for sym in (eigensymbol("26a1"), isolate_eigensymbol(quadratic_twist(curve("14a1"), -3)),
                isolate_eigensymbol(quadratic_twist(curve("37a1"), -3))):
        N = sym.space.N
        classes, _ = unit_orbit_fill(N)
        for c, (row, v) in enumerate(sym._rows):
            for d in range(N):
                k = classes[c * N + d]
                assert row[v * d % N] == (sym.fvec[k] if k >= 0 else 0)


def test_star_variant_functional_is_refused(eigensymbol):
    sym = eigensymbol("11a1")
    sp = sym.space
    i = next(i for i in range(sp.n) if sp.iota[i] != i)
    bent = list(sym.fvec)
    bent[i] += 1
    with pytest.raises(InternalInvariantError, match="star"):
        EigenSymbol(curve=sym.curve, space=sp, fvec=tuple(bent), minus=sym.minus, denominator=1, sign=1)


def test_eigensymbol_is_a_hecke_eigenvector(eigensymbol):
    for label in SAMPLE_LABELS:
        sym = eigensymbol(label)
        sp = sym.space
        for q in (2, 3, 5, 13):
            if sp.N % q == 0:
                continue
            aq = trace_of_frobenius(sym.curve, q)
            assert _apply(sp.hecke_images(q), sym.fvec) == [aq * x for x in sym.fvec], (label, q)


# the twists of gz and waldspurger, N = 99, 126, 153, 272 and 333, each with
# the largest prime the oracle stacks: the least that brings its kernel down
# to a line, or None for the Sturm bound
TWIST_ORACLE_BOUNDS = {"11a1x-3": None, "14a1x-3": 17, "17a1x-3": 5, "17a1x-4": 7, "37a1x-3": 5}

# (first 16 hex digits of the sha256 of sign * fvec, comma-joined; denominator),
# frozen from the full-row eigen-cut that cut every T_q on all n generators
FROZEN_TWIST_LINES = {
    "11a1x-3": ("1b4a40f022545a3b", 2),
    "14a1x-3": ("bbc1fa4dda59354c", 2),
    "17a1x-3": ("57792ff36a5208a0", 2),
    "17a1x-4": ("495e4695b6d2c587", 1),
    "37a1x-3": ("89e58d4d2e0bbc9e", 1),
}


def _twist(curve, label):
    base, D = label.split("x")
    return quadratic_twist(curve(base), int(D))


@pytest.mark.parametrize("label", SAMPLE_LABELS + list(TWIST_ORACLE_BOUNDS))
def test_isolated_lines_match_the_stacked_oracle(curve, label):
    E = _twist(curve, label) if label in TWIST_ORACLE_BOUNDS else curve(label)
    sp = build_manin_space(E.conductor)
    lines = []
    for sign, f in zip((1, -1), _isolate_functionals(E, sp)[0]):
        (line,) = stacked_eigenline(E, sp, sign, TWIST_ORACLE_BOUNDS.get(label))
        assert list(f) in (line, [-x for x in line])
        lines.append(line)
    if label in TWIST_ORACLE_BOUNDS:
        sym = isolate_eigensymbol(E, sp)
        signed = [sym.sign * x for x in sym.fvec]
        assert signed in (lines[0], [-x for x in lines[0]])
        assert sym.denominator == kernel_image_gcd(boundary_rows(sp) + [lines[1]], lines[0])
        digest = hashlib.sha256(",".join(map(str, signed)).encode()).hexdigest()[:16]
        assert (digest, sym.denominator) == FROZEN_TWIST_LINES[label]


def test_a_line_that_fails_off_the_free_columns_is_refused(curve, monkeypatch):
    # T_2 is wrong at one generator that no cut reads, so only the certificate
    # on all n generators can see it
    E = _twist(curve, "37a1x-3")
    sp = build_manin_space(E.conductor)
    plus, _ = _isolate_functionals(E, sp)[0]
    served = set(sp.free_columns[1]) | set(sp.free_columns[-1])
    g = next(i for i in range(sp.n) if i not in served and plus[i])
    images, cut, reads = ManinSpace.hecke_images, modsym._cut, set()

    def bent(self, q):
        out = list(images(self, q))
        out[g] = out[g] + [g]
        return out

    def logged(V, F, images, eigenvalue):
        reads.update(F)  # a cut reads the T_q rows of its generators F alone
        return cut(V, F, images, eigenvalue)

    monkeypatch.setattr(ManinSpace, "hecke_images", bent)
    monkeypatch.setattr(modsym, "_cut", logged)
    with pytest.raises(InternalInvariantError, match="fails T_2"):
        isolate_eigensymbol(E, sp)
    # the cuts read only the free columns, and never the bent row
    assert reads and reads <= served and g not in reads


def test_a_basis_not_diagonal_on_its_free_columns_is_refused(curve, monkeypatch):
    E = _twist(curve, "37a1x-3")
    sp = build_manin_space(E.conductor)
    v0, v1, *rest = sp.functionals[1]
    bent = {j: v0.get(j, 0) + v1.get(j, 0) for j in v0.keys() | v1.keys()}
    monkeypatch.setitem(sp.functionals, 1, [bent, v1, *rest])
    with pytest.raises(InternalInvariantError, match="not diagonal on its free columns"):
        _isolate_functionals(E, sp)


# values computed twice: exact relation pipeline and numeric integration
FROZEN_PLUS_VALUES = {
    "11a1": {(0, 1): "1/5", (1, 2): "-4/5", (1, 3): "-3/10", (1, 5): "6/5", (2, 7): "7/10"},
    "14a1": {(0, 1): "1/6", (1, 2): "-1/3", (1, 3): "-1/3", (1, 5): "2/3", (2, 7): "0"},
    "15a1": {(0, 1): "1/4", (1, 2): "-3/4", (1, 3): "-1/4", (1, 5): "1/2", (2, 7): "-3/4"},
    "17a1": {(0, 1): "1/4", (1, 2): "-3/4", (1, 3): "-1/4", (1, 5): "-1/4", (2, 7): "3/4"},
    "19a1": {(0, 1): "1/3", (1, 2): "-2/3", (1, 3): "-2/3", (1, 5): "5/6", (2, 7): "-7/6"},
    "26a1": {(0, 1): "1/3", (1, 2): "-2/3", (1, 3): "-1/6", (1, 5): "1/3", (2, 7): "5/6"},
    "26b1": {(0, 1): "1/7", (1, 2): "0", (1, 3): "-5/14", (1, 5): "1/7", (2, 7): "-5/14"},
    "37a1": {(0, 1): "0", (1, 2): "0", (1, 3): "0", (1, 5): "1", (2, 7): "0"},
    "37b1": {(0, 1): "2/3", (1, 2): "-4/3", (1, 3): "-1/3", (1, 5): "-1/3", (2, 7): "-1/3"},
}


@pytest.mark.parametrize("label", sorted(FROZEN_PLUS_VALUES))
def test_frozen_plus_values(eigensymbol, label):
    sym = eigensymbol(label)
    for (a, b), val in FROZEN_PLUS_VALUES[label].items():
        assert sym.eval_plus(a, b) == Fraction(val)


@pytest.mark.parametrize("label", ["11a1", "15a1", "37a1"])
def test_eval_agrees_with_numeric_integration(eigensymbol, label):
    sym = eigensymbol(label)
    # a < 0 and a >= b as well: the phase table takes any a
    for a, b in [(0, 1), (1, 2), (2, 5), (3, 8), (5, 11), (7, 12), (4, 3), (-1, 3), (-2, 5), (7, 3)]:
        alg = float(sym.eval_plus(a, b))
        num = numeric_plus(sym.curve, a, b)
        assert abs(alg - num) < 1e-5


def test_real_periods_against_frozen_values(curve):
    # frozen from this implementation and cross-validated by the exact-vs-
    # numeric agreement sweep (a wrong period could not reproduce the
    # rational value tables to 1e-8)
    om_p, om_m = real_periods(curve("11a1"))
    assert abs(om_p - 1.2692093042795534) < 1e-10
    assert abs(om_m - 2.9176332338769906) < 1e-10
    om_p37, om_m37 = real_periods(curve("37a1"))
    assert abs(om_p37 - 2.9934586462319595) < 1e-10
    assert abs(om_m37 - 2.45138938198679) < 1e-10
    om_p15, _ = real_periods(curve("15a1"))  # positive discriminant branch
    assert abs(om_p15 - 1.4006030423326021) < 1e-10


# the data curves: the samples and the two of data/large_conductor.jsonl
DATA_CURVES = {
    **CURVES,
    "389a1": curves.EllipticCurve(0, 1, 1, -2, 0, conductor=389, label="389a1"),
    "5077a1": curves.EllipticCurve(0, 0, 1, -7, 6, conductor=5077, label="5077a1"),
}


@pytest.mark.parametrize("label", sorted(DATA_CURVES))
def test_guard_bits_leave_the_sample_periods_unchanged(label):
    # the bisected periods give the very floats of mpmath's polyroots at 30
    # digits on each data curve and its twists by fundamental D, |D| <= 40,
    # D prime to N: 283 curves in all, with the close-root curve below 284
    E = DATA_CURVES[label]
    twists = [
        quadratic_twist(E, D)
        for D in range(-40, 41)
        if is_fundamental_discriminant(D) and gcd(D, E.conductor) == 1
    ]
    for F in [E, *twists]:
        assert real_periods(F) == period_oracle.real_periods(F), F.ainvs


@settings(max_examples=150, deadline=None)
@given(
    a1=st.integers(0, 1), a2=st.integers(-1, 1), a3=st.integers(0, 1),
    a4=st.integers(-3000, 3000), a6=st.integers(-30000, 30000),
)
def test_periods_agree_with_mpmath_at_60_digits(a1, a2, a3, a4, a6):
    try:
        E = curves.EllipticCurve(a1, a2, a3, a4, a6, conductor=1)
    except InputError:  # singular
        assume(False)
    assert real_periods(E) == period_oracle.real_periods(E, dps=60)


@pytest.mark.parametrize("bits", [40, 53, 100])
@pytest.mark.parametrize("sign", [1, -1])
def test_near_double_roots_agree_with_mpmath_at_200_digits(bits, sign):
    # x^3 - 3t^2 x + 2t^3 = (x - t)^2 (x + 2t); moving a6 by one splits the
    # double root at t by about t^-1/2 (Delta = -/+ 432 (4t^3 +- 1)), so R / gap
    # is about t^(3/2) and only the guard bits resolve the roots.  At sign 1,
    # mpmath at 60 digits loses 2a + 3 e1 to cancellation from t = 2^53 on
    t = 1 << bits
    E = curves.EllipticCurve(0, 0, 0, -3 * t * t, 2 * t**3 + sign, conductor=1)
    assert real_periods(E) == period_oracle.real_periods(E, dps=200)


def test_close_roots_converge_with_guard_bits(curve, monkeypatch):
    # Delta = 37: two roots of 4x^3 - g2 x - g3 agree to four digits
    # (-24.98902 and -24.98875); a 3-isogeny links the curve to 37b1, whose
    # least real period is three times its own
    E = curves.EllipticCurve(0, 1, 1, -1873, -31833, conductor=37)
    om_p, om_m = real_periods(E)
    assert (om_p, om_m) == (0.3628405309680764, 1.7676106702337895)
    om_p37b, om_m37b = real_periods(curve("37b1"))
    assert abs(om_p37b - 3 * om_p) < 1e-12 and abs(om_m37b - om_m) < 1e-12
    # bisected only to the integers, the two close roots share a cell: the
    # missing sign change is refused, and no decimal exception escapes
    monkeypatch.setattr(analytic, "PERIOD_DIGITS", -1000)
    with pytest.raises(InternalInvariantError, match=r"bisection: 1 real root\(s\)"):
        real_periods(E)


def test_denominator_prime_to_working_primes(eigensymbol):
    # later mod-p^k reductions require the value denominators prime to p
    assert gcd(eigensymbol("11a1").denominator, 7) == 1
    assert gcd(eigensymbol("37a1").denominator, 5) == 1


def test_boundary_kills_relations():
    # the boundaries [to] - [from] of (i, sigma i) and (i, tau i, tau^2 i) cancel
    for N in (1, 11, 14, 37, 240, 333):
        sp = build_manin_space(N)

        def boundary(*gens):
            total = Counter()
            for i in gens:
                k_from, k_to = sp.cusp_ends[i]
                total[k_to] += 1
                total[k_from] -= 1
            return {k: v for k, v in total.items() if v}

        for i in range(sp.n):
            assert boundary(i, sp.sigma[i]) == {}, (N, i)
            assert boundary(i, sp.tau[i], sp.tau[sp.tau[i]]) == {}, (N, i)


@pytest.mark.parametrize("N", list(range(1, 121)) + [240, 333, 1000])
def test_cusp_keys_match_the_pairwise_partition(N):
    sp = build_manin_space(N)
    groups = {}
    for end in generator_ends(sp):
        for u, v in end:
            groups.setdefault(cusp_key(N, u, v), []).append((u, v))
    reps = [cusps[0] for cusps in groups.values()]
    for rep, cusps in zip(reps, groups.values()):
        assert all(cusps_equivalent(N, *rep, *c) for c in cusps)
    for i, r1 in enumerate(reps):
        assert not any(cusps_equivalent(N, *r1, *r2) for r2 in reps[i + 1:])
    assert len(set().union(*sp.cusp_ends)) == len(groups) == cusp_number(N)
    assert sp.cusp_ends == cusp_classes(sp)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_closed_form_cusp_ends_match_an_sl2_lift(data):
    # the boundary map keys a generator's ends off _lift, which lifts the
    # coprime (c, d) itself; the oracle lifts a search for one mod N
    N = data.draw(st.integers(1, 3000))
    c = data.draw(st.integers(0, N - 1))
    d = data.draw(st.integers(0, N))
    assume(gcd(c, d) == 1)
    a, b = _lift(c, d)
    assert a * d - b * c == 1
    a2, b2, cc, dd = lift_to_sl2(N, c, d)
    assert cusp_key(N, a, c) == cusp_key(N, a2, cc)
    assert cusp_key(N, b, d) == cusp_key(N, b2, dd)


_ORACLE_SPACES = {}


def _space_and_oracle_rows(N):
    if N not in _ORACLE_SPACES:
        sp = build_manin_space(N)
        _ORACLE_SPACES[N] = sp, boundary_rows(sp)
    return _ORACLE_SPACES[N]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_value_group_matches_the_dense_oracle(data):
    # the spanning-tree reduction against the column reduction of the dense
    # boundary matrix with the minus line stacked on it; f_minus = 0 leaves
    # every cycle, f a multiple of f_minus gives 0, and the scale gives > 1
    N = data.draw(st.sampled_from(list(range(1, 121)) + [240, 333, 360]))
    sp, rows = _space_and_oracle_rows(N)
    entries = st.lists(st.integers(-3, 3), min_size=sp.n, max_size=sp.n)
    f_minus = data.draw(st.one_of(st.just([0] * sp.n), entries))
    base = data.draw(st.one_of(entries, st.just(f_minus)))
    scale = data.draw(st.integers(1, 6))
    f = [scale * x for x in base]
    assert _value_group(sp, f, f_minus) == kernel_image_gcd(rows + [f_minus], f)


# ---------------------------------------------------------------------------
# the sign pin: one Gamma_0(N) cycle period against the exact cycle value

# (curve, D_K) for the twists at N = 99, 126, 153, 272 and 333
TWISTS = {99: ("11a1", -3), 126: ("14a1", -3), 153: ("17a1", -3), 272: ("17a1", -4), 333: ("37a1", -3)}
_TWIST_SYMBOLS = {}


def _twist_symbol(curve, N):
    if N not in _TWIST_SYMBOLS:
        label, D = TWISTS[N]
        E = quadratic_twist(curve(label), D)
        assert E.conductor == N
        _TWIST_SYMBOLS[N] = isolate_eigensymbol(E)
    return _TWIST_SYMBOLS[N]


# the value group of f+ on integral cycles killed by f-, frozen
FROZEN_DENOMINATORS = {
    "11a1": 10, "14a1": 6, "15a1": 4, "17a1": 4, "19a1": 6, "26a1": 6,
    "26b1": 14, "27a1": 6, "37a1": 1, "37b1": 3, "49a1": 4,
    "N=99": 2, "N=126": 2, "N=153": 2, "N=272": 1, "N=333": 1,
}


@pytest.mark.parametrize("case", sorted(FROZEN_DENOMINATORS))
def test_frozen_denominators(eigensymbol, curve, case):
    if case.startswith("N="):
        sym = _twist_symbol(curve, int(case[2:]))
    else:
        sym = eigensymbol(case)
    assert sym.denominator == FROZEN_DENOMINATORS[case]


def _cycle_exact(sym, d):
    """b = (a d - 1)/N for a = d^-1 mod N, and the exact value [b/d]+ - [0]+
    of the cycle of gamma = [[a, b], [N, d]]."""
    N = sym.space.N
    a = pow(d, -1, N)
    b = (a * d - 1) // N
    return b, float(sym.eval_plus(b, d) - sym.eval_plus(0, 1))


def _fricke(sym):
    """The W_N eigenvalue w, read off the pin's cycle {0, b/d}."""
    _, b, d = _nonzero_cycle(sym)
    return _fricke_sign(sym, b, d)


_LARGE_SYMBOLS = {}


def _large_symbol(D=None):
    """389a1's symbol, or its twist by D = -3 (M = 3501) or -4 (M = 6224)
    read off that symbol as a pair does."""
    if D not in _LARGE_SYMBOLS:
        E = DATA_CURVES["389a1"]
        if D is None:
            _LARGE_SYMBOLS[D] = isolate_eigensymbol(E)
        else:
            _LARGE_SYMBOLS[D] = twist_eigensymbol(_large_symbol(), D, quadratic_twist(E, D))
    return _LARGE_SYMBOLS[D]


@pytest.mark.parametrize("case", SAMPLE_LABELS + [f"N={N}" for N in TWISTS])
def test_cycle_period_matches_the_exact_cycle_value(eigensymbol, curve, case):
    if case.startswith("N="):
        sym = _twist_symbol(curve, int(case[2:]))
    else:
        sym = eigensymbol(case)
    a, b, d = _nonzero_cycle(sym)
    assert d >= 2 and a * d - b * sym.space.N == 1
    assert sym.raw_value(b, d) != sym.raw_value(0, 1)
    value, bound = cycle_period(sym.curve, b, d, _fricke(sym))
    _, exact = _cycle_exact(sym, d)
    assert exact != 0 and abs(exact) > 2 * bound
    assert abs(value - exact) <= bound
    assert bound < 1e-9


@pytest.mark.parametrize("case", SAMPLE_LABELS + ["N=99", "N=153", "N=333", "N=6224"])
def test_folded_cycle_period_matches_the_unfolded_series(eigensymbol, curve, case):
    # the O(N) series at height 1/N, the runtime's method before the W_N fold
    if case == "N=6224":
        sym = _large_symbol(-4)
    elif case.startswith("N="):
        sym = _twist_symbol(curve, int(case[2:]))
    else:
        sym = eigensymbol(case)
    a, b, d = _nonzero_cycle(sym)
    folded, bound = cycle_period(sym.curve, b, d, _fricke(sym))
    series, series_bound = period_oracle.series_cycle_period(sym.curve, a, d)
    assert abs(folded - series) <= bound + series_bound


def test_fricke_sign_is_minus_the_ingested_root_number(eigensymbol):
    # w = -epsilon for weight 2; the runtime reads w off the symbol and never
    # the record, so the record's root number is an independent check
    records = [r for r in ingest("data/sample_curves.jsonl") if r.root_number is not None]
    assert {r.label for r in records} == set(SAMPLE_LABELS)
    for r in records:
        assert _fricke(eigensymbol(r.label)) == -r.root_number, r.label
    assert _fricke(eigensymbol("37a1")) == 1 and _fricke(eigensymbol("11a1")) == -1


@pytest.mark.parametrize("M", [99, 153, 333, 3501, 6224])
def test_twisted_fricke_sign_follows_the_twisting_rule(eigensymbol, curve, M):
    # w(E^D) = w(E) chi_D(-N) for (D, N) = 1
    if M in TWISTS:
        label, D = TWISTS[M]
        w_E, sym = _fricke(eigensymbol(label)), _twist_symbol(curve, M)
    else:
        label, D = "389a1", {3501: -3, 6224: -4}[M]
        w_E, sym = _fricke(_large_symbol()), _large_symbol(D)
    assert sym.space.N == M
    N = DATA_CURVES[label].conductor
    assert _fricke(sym) == w_E * kronecker_symbol(D, -N)


def test_fricke_sign_refuses_a_ratio_other_than_plus_or_minus_one(eigensymbol, monkeypatch):
    # a symbol that W_N does not map to +-itself is not an eigensymbol
    sym = eigensymbol("11a1")
    _, b, d = _nonzero_cycle(sym)
    real = EigenSymbol.raw_value
    image = (-d, sym.space.N * b)
    monkeypatch.setattr(EigenSymbol, "raw_value",
                        lambda self, x, y: 2 * real(self, x, y) if (x, y) == image else real(self, x, y))
    with pytest.raises(InternalInvariantError, match="not \\+-1"):
        _fricke_sign(sym, b, d)


@pytest.mark.parametrize("d", [2, 97, CYCLE_SEARCH_LIMIT])
def test_cycle_period_within_its_bound_at_fixed_d(eigensymbol, d):
    # CYCLE_SEARCH_LIMIT (1000) is the largest d the pin can use
    sym = eigensymbol("11a1")
    b, exact = _cycle_exact(sym, d)
    value, bound = cycle_period(sym.curve, b, d, _fricke(sym))
    assert abs(value - exact) <= bound


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(["11a1", "37a1", "14a1"]), d=st.integers(2, CYCLE_SEARCH_LIMIT))
def test_cycle_period_within_its_bound_for_any_d(eigensymbol, label, d):
    # the folded series has about 4 d sqrt(N) terms, so the draws stop at
    # the largest d the pin can use
    sym = eigensymbol(label)
    assume(gcd(d, sym.space.N) == 1)
    b, exact = _cycle_exact(sym, d)
    value, bound = cycle_period(sym.curve, b, d, _fricke(sym))
    assert abs(value - exact) <= bound


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(["11a1", "37a1", "14a1"]), d=st.integers(2, 60), k=st.integers(-1, 8))
def test_cycle_bound_covers_short_sums(eigensymbol, label, d, k):
    # a loose tolerance leaves much of the value in the tail; the bound must cover it
    sym = eigensymbol(label)
    assume(gcd(d, sym.space.N) == 1)
    b, exact = _cycle_exact(sym, d)
    value, bound = cycle_period(sym.curve, b, d, _fricke(sym), tol=10.0 ** -k)
    assert abs(value - exact) <= bound


def test_cycle_period_refuses_a_matrix_outside_gamma0(curve):
    # 2 * 11 + 1 = 23 is not a multiple of 5, so no [[a, 2], [11, 5]] has determinant 1
    with pytest.raises(InputError, match="Gamma_0"):
        cycle_period(curve("11a1"), 2, 5, -1)
    with pytest.raises(InputError, match="eigenvalue"):
        cycle_period(curve("11a1"), 1, 2, 0)


def test_cycle_search_refuses_past_its_limit(eigensymbol, monkeypatch):
    # the first cycle 37a1's symbol does not kill has d = 5
    monkeypatch.setattr(modsym, "CYCLE_SEARCH_LIMIT", 4)
    with pytest.raises(InternalInvariantError, match="every cycle"):
        _nonzero_cycle(eigensymbol("37a1"))


def test_twisted_level_240_is_refused(curve):
    # 15a1 x -4: the cycle period is twice the exact value, the index-2
    # mismatch between the symbol's lattice and this model's real period
    E = quadratic_twist(curve("15a1"), -4)
    assert E.conductor == 240
    with pytest.raises(InternalInvariantError, match="disagrees with direct integration"):
        isolate_eigensymbol(E)


@pytest.mark.parametrize("case", ["37a1", "37a1x-3"])
def test_sign_pin_counts_points_only_up_to_a_small_multiple_of_N(curve, monkeypatch, case):
    # the folded cycle period needs about log(1/tol) d sqrt(N) / (2 pi)
    # terms and the Hecke cuts stop past the Sturm bound; a series whose
    # length grows with b^2 N would count far beyond 5N
    E = quadratic_twist(curve("37a1"), -3) if case == "37a1x-3" else curve("37a1")
    monkeypatch.setattr(curves, "_AQ_CACHE", {})
    isolate_eigensymbol(E)
    counted = [q for ainvs, q in curves._AQ_CACHE if ainvs == E.ainvs]
    assert counted and max(counted) <= 5 * E.conductor


# ---------------------------------------------------------------------------
# the twist's eigensymbol read off the base curve's symbols, with the
# level-M cut as the oracle


def _imaginary_twists():
    """Every E^D of the sample curves with D < 0 fundamental, (D, N) = 1
    and N D^2 <= 1000, labelled as quadratic_twist labels them."""
    out = []
    for label, E in CURVES.items():
        D = -3
        while E.conductor * D * D <= 1000:
            if is_fundamental_discriminant(D) and gcd(D, E.conductor) == 1:
                out.append(f"{label}x{D}")
            D -= 1
    return out


IMAGINARY_TWISTS = _imaginary_twists()
# the cut's sign pin refuses these (ROADMAP item 2)
REFUSED_TWISTS = {"15a1x-4", "15a1x-7", "15a1x-8"}


def test_the_differential_covers_every_imaginary_twist_up_to_1000():
    assert len(IMAGINARY_TWISTS) == 23
    assert REFUSED_TWISTS <= set(IMAGINARY_TWISTS)
    assert {"11a1x-8", "15a1x-8", "19a1x-7", "49a1x-4"} <= set(IMAGINARY_TWISTS)


def _signed_line(sym):
    return [sym.sign * x for x in sym.fvec], sym.denominator


@pytest.mark.parametrize("label", IMAGINARY_TWISTS)
def test_twisted_symbol_is_the_cut_symbol(curve, eigensymbol, label):
    base, D = label.split("x")
    E, D = curve(base), int(D)
    T = quadratic_twist(E, D)
    try:
        expected = _signed_line(isolate_eigensymbol(T))
    except InternalInvariantError as exc:
        assert label in REFUSED_TWISTS
        with pytest.raises(InternalInvariantError) as refused:
            twist_eigensymbol(eigensymbol(base), D, T)
        assert str(refused.value) == str(exc)
        assert "disagrees with direct integration" in str(exc)
        return
    assert label not in REFUSED_TWISTS
    sym = twist_eigensymbol(eigensymbol(base), D, T)
    assert sym.curve is T and sym.space.N == T.conductor
    assert _signed_line(sym) == expected


def _twisted_oracle(E, D, space):
    """The twisted functionals by the path oracle: each generator lifted by
    search (lattice_oracle.generator_ends), each path walked through
    ManinSpace.index with its signs kept."""
    base = build_manin_space(E.conductor)
    plus, minus = _isolate_functionals(E, base)[0]
    m = abs(D)
    out = []
    for f in (plus, minus):
        line = []
        for (b, d), (a, c) in generator_ends(space):
            line.append(sum(kronecker_symbol(D, u) * (pair_path(base, f, a * m + u * c, c * m)
                                                      - pair_path(base, f, b * m + u * d, d * m))
                            for u in range(m)))
        out.append(line)
    return (out[1], out[0]) if D < 0 else (out[0], out[1])


@pytest.mark.parametrize("label", ["11a1x-3", "37a1x-4", "11a1x5"])
def test_twisted_functionals_match_the_path_oracle(curve, eigensymbol, label):
    base, D = label.split("x")
    E, D = curve(base), int(D)
    space = build_manin_space(E.conductor * D * D)
    assert _twisted_functionals(eigensymbol(base), D, space) == _twisted_oracle(E, D, space)


@settings(max_examples=200, deadline=None)
@given(label=st.sampled_from(["11a1", "37a1", "49a1"]), a=st.integers(-10 ** 5, 10 ** 5),
       b=st.integers(0, 10 ** 5))
def test_signed_walk_matches_the_path_oracle(curve, label, a, b):
    # the minus line is star-odd, so a walk that dropped the sign would fail
    E = curve(label)
    sp = build_manin_space(E.conductor)
    plus, minus = _isolate_functionals(E, sp)[0]
    assert _path_values(sp, plus, minus, a, b) == (pair_path(sp, plus, a, b), pair_path(sp, minus, a, b))


def test_twist_of_the_wrong_conductor_is_refused(curve, eigensymbol):
    with pytest.raises(InputError, match="is not N D\\^2"):
        twist_eigensymbol(eigensymbol("11a1"), -3, quadratic_twist(curve("11a1"), -4))


def _bend(monkeypatch, mutate):
    """Route twist_eigensymbol through mutate(E, space, plus, minus)."""
    twisted = modsym._twisted_functionals

    def bent(sym, D, space):
        return mutate(sym.curve, space, *twisted(sym, D, space))

    monkeypatch.setattr(modsym, "_twisted_functionals", bent)


def _perturbed(E, space, plus, minus):
    plus = list(plus)
    plus[next(i for i, x in enumerate(plus) if x)] += 1
    return plus, minus


def _base_line(E, space, plus, minus):
    """E's own plus line read on the generators of the twist's level: a
    modular symbol of Gamma_0(M), star-even, of the wrong Hecke eigenvalues."""
    base = build_manin_space(E.conductor)
    f, _ = _isolate_functionals(E, base)[0]
    line = [pair_path(base, f, a, c) - pair_path(base, f, b, d) for (b, d), (a, c) in generator_ends(space)]
    return line, minus


# the mutations that fail a check before T_q, the same for a cut or a twisted line
_LINE_MUTATIONS = [
    (_perturbed, "star sign \\+1\\) fails the Manin relations"),
    (lambda E, space, plus, minus: (minus, minus), "is not of star sign \\+1"),
    (lambda E, space, plus, minus: (plus, plus), "is not of star sign -1"),
    (lambda E, space, plus, minus: (minus, plus), "is not of star sign \\+1"),
]


@pytest.mark.parametrize("mutate, message", _LINE_MUTATIONS + [
    (_base_line, "fails T_2 f = 2 f"),
], ids=["one-entry", "star-odd-plus", "star-even-minus", "signs-unswapped", "base-curve-line"])
def test_each_twisted_certificate_check_catches_its_mutation(curve, eigensymbol, monkeypatch, mutate, message):
    # 37a1 x -3 at M = 333: a_2(E) = -2 and chi(2) = -1, so a_2 of the twist is 2.
    # Each mutation passes every check before the one that names it, so
    # dropping that check lets the mutation through to a different message
    E = curve("37a1")
    T = quadratic_twist(E, -3)
    assert trace_of_frobenius(E, 2) == -2 and trace_of_frobenius(T, 2) == 2
    _bend(monkeypatch, mutate)
    with pytest.raises(InternalInvariantError, match=message):
        twist_eigensymbol(eigensymbol("37a1"), -3, T)


def _other_curve_line(E, space, plus, minus):
    """37b1's plus line as 37a1's: a star-even symbol of Gamma_0(37), but a_2 = 0."""
    return _isolate_functionals(CURVES["37b1"], space)[0][0], minus


@pytest.mark.parametrize("mutate, message", _LINE_MUTATIONS + [
    (_other_curve_line, "fails T_2 f = -2 f"),
], ids=["one-entry", "star-odd-plus", "star-even-minus", "signs-swapped", "other-curve-line"])
def test_each_cut_certificate_check_catches_its_mutation(curve, monkeypatch, mutate, message):
    # the cut's lines pass the twist's certificate, with the images it cut by
    E = curve("37a1")
    assert trace_of_frobenius(E, 2) == -2 and trace_of_frobenius(curve("37b1"), 2) == 0
    isolate = modsym._isolate_functionals

    def bent(E, space):
        lines, used = isolate(E, space)
        return mutate(E, space, *lines), used

    monkeypatch.setattr(modsym, "_isolate_functionals", bent)
    with pytest.raises(InternalInvariantError, match=message):
        isolate_eigensymbol(E)


def test_each_constructor_certifies_once_then_normalizes(curve, monkeypatch):
    isolate, certify, normalized = modsym._isolate_functionals, modsym._certify, modsym._normalized
    events, cuts = [], []

    def cut(E, space):
        lines, used = isolate(E, space)
        cuts.append(used)
        return lines, used

    def certified(E, space, lines, hecke):
        hecke = list(hecke)
        events.append(("certify", E.label, space.N, [(q, aq) for q, aq, _ in hecke], hecke))
        return certify(E, space, lines, hecke)

    def normal(E, space, f_int, f_minus):
        events.append(("normalize", E.label))
        return normalized(E, space, f_int, f_minus)

    monkeypatch.setattr(modsym, "_isolate_functionals", cut)
    monkeypatch.setattr(modsym, "_certify", certified)
    monkeypatch.setattr(modsym, "_normalized", normal)
    E = curve("37a1")
    sym = isolate_eigensymbol(E)
    # the cut passes every T_q it cut by, images and all
    (used,) = cuts
    assert events == [("certify", "37a1", 37, [(q, aq) for q, aq, _ in used], used), ("normalize", "37a1")]
    assert events[0][3][0] == (2, -2)
    events.clear()
    T = quadratic_twist(E, -3)
    twist_eigensymbol(sym, -3, T)
    # the twist at M = 333 = 3^2 37: the first two primes prime to M
    twisted = [(q, trace_of_frobenius(T, q)) for q in (2, 5)]
    assert [event[:4] for event in events] == [("certify", "37a1x-3", 333, twisted), ("normalize", "37a1x-3")]
    assert cuts == [used]


def test_a_vanishing_twisted_functional_is_refused(curve, eigensymbol, monkeypatch):
    _bend(monkeypatch, lambda E, space, plus, minus: (plus, [0] * len(minus)))
    E = curve("11a1")
    with pytest.raises(InternalInvariantError, match="twisted functional of 11a1x-3 vanishes"):
        twist_eigensymbol(eigensymbol("11a1"), -3, quadratic_twist(E, -3))


def test_twisted_path_solves_no_kernel_at_the_twisted_level(curve, eigensymbol, monkeypatch):
    base = eigensymbol("37a1")
    solve = modsym.sparse_nullspace
    widths = []

    def counted(rows, ncols):
        widths.append(ncols)
        return solve(rows, ncols)

    monkeypatch.setattr(modsym, "sparse_nullspace", counted)
    E = curve("37a1")
    sym = twist_eigensymbol(base, -3, quadratic_twist(E, -3))
    # E's lines come with its symbol, so nothing is solved at N = 37 either,
    # and nothing on the 456 generators at M = 333
    assert sym.space.n == psi_index(333) == 456
    assert widths == []
    assert "_kernels" not in vars(sym.space)
    # read on demand, the kernels are the cut's
    assert sym.space.m == 2 * sym.space.genus + sym.space.ncusps - 1
    assert max(widths) == 456


@pytest.mark.parametrize("case", ["37a1x-3", "11a1x-4"])
def test_twisted_sign_pin_counts_points_only_up_to_a_small_multiple_of_M(curve, monkeypatch, case):
    # the twin of the cut's test: the level-N cut counts a_q(E) up to its
    # Sturm bound, the certificate two a_q(T), and the pin about 4 d sqrt(M)
    # terms
    base, D = case.split("x")
    E, D = curve(base), int(D)
    T = quadratic_twist(E, D)
    monkeypatch.setattr(curves, "_AQ_CACHE", {})
    twist_eigensymbol(isolate_eigensymbol(E), D, T)
    counted = [q for ainvs, q in curves._AQ_CACHE if ainvs == T.ainvs]
    assert counted and max(counted) <= 5 * T.conductor
    assert max(q for ainvs, q in curves._AQ_CACHE if ainvs == E.ainvs) <= 5 * E.conductor


def test_twisted_sign_pin_sums_order_d_sqrt_m_terms_at_6224(monkeypatch):
    # the pin of 389a1 x -4 reads its a_n once, up to the folded series'
    # length, about log(1/tol) d sqrt(M) / (2 pi): 3,373 terms at d = 9 (the
    # cycles at d = 3, 5 and 7 vanish).  The unfolded series needs about
    # 5 M = 31,030, so a length of M or more means it is back
    E = DATA_CURVES["389a1"]
    T, base = quadratic_twist(E, -4), _large_symbol()
    lengths = []
    real = analytic.hecke_an_list
    monkeypatch.setattr(analytic, "hecke_an_list", lambda F, n: lengths.append(n) or real(F, n))
    sym = twist_eigensymbol(base, -4, T)
    M, (_, _, d) = T.conductor, _nonzero_cycle(sym)
    assert M == 6224 and len(lengths) == 1
    assert d == 9 and lengths[0] <= 6 * d * M ** 0.5 < M
