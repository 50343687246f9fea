"""Acceptance gate: one test per criterion, run with -v for per-criterion lines.

Each criterion states its own tolerance and, where one applies, its runtime
budget; the budgets are asserted with a wall clock so regressions surface
here rather than in user runs.  Expected values marked as frozen were
computed once from the independent oracles in this suite and hard-coded.
"""

import itertools
import random
import time
from fractions import Fraction

from sympy import jacobi_symbol, kronecker_symbol, primerange

from selmerkit.analytic import numeric_plus
from selmerkit.bipartite_algebra import (
    ArtinianContext,
    SyntheticSelmerState,
    feasible_localization_lengths,
    initial_state,
    lambda_profile,
    limit_profile,
    recover_shape,
    simulate_prime_step,
)
from selmerkit.cli import RunConfig, ingest, run_pipeline
from selmerkit.curves import (
    _count_points_bsgs,
    _count_points_naive,
    quadratic_twist,
    trace_of_frobenius,
)
from selmerkit.gross_points import make_theta, relation_report
from selmerkit.kurihara import kurihara_number
from selmerkit.modsym import isolate_eigensymbol
from selmerkit.selmer_predict import (
    ModuleShape,
    predict_heegner_profile,
    predict_selmer_Q,
    predict_waldspurger_profile,
    synthetic_delta_stats,
)
from selmerkit.sieves import build_indices, sieve

from log_oracle import three_primitive_roots

RECORDS = {r.label: r for r in ingest("data/sample_curves.jsonl")}


def _passline(n, detail):
    print(f"criterion {n:02d}: PASS  {detail}")


def partitions_up_to(total_max):
    """Non-increasing positive integer tuples with sum <= total_max."""

    def parts(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    out = []
    for total in range(total_max + 1):
        out.extend(parts(total, total if total else 1))
    return out


def test_criterion_01_central_symbol_matches_numeric_series(eigensymbol, curve):
    # five rank-zero curves of conductor <= 50; [0/1]+ from the eigensymbol
    # against the truncated q-expansion integral, relative 1e-6
    t0 = time.monotonic()
    labels = ("11a1", "14a1", "15a1", "17a1", "26a1")
    worst = 0.0
    for label in labels:
        sym = eigensymbol(label)
        algebraic = sym.eval_plus(0, 1)
        numeric = numeric_plus(curve(label), 0, 1, tol=1e-8)
        rel = abs(float(algebraic) - numeric) / abs(numeric)
        worst = max(worst, rel)
        assert rel <= 1e-6, f"{label}: relative error {rel}"
    assert eigensymbol("11a1").eval_plus(0, 1) == Fraction(1, 5)  # frozen
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _passline(1, f"5 curves, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_point_counts_cross_checked_and_hasse_bound():
    t0 = time.monotonic()
    labels = ("11a1", "37a1", "49a1")
    # 200 primes per curve in the regime where the two counters genuinely
    # differ (the BSGS window argument needs q > 457)
    for label in labels:
        E = RECORDS[label].to_curve()
        done = 0
        for q in primerange(458, 10**6):
            if E.conductor % q == 0:
                continue
            assert _count_points_naive(E, q) == _count_points_bsgs(E, q)
            done += 1
            if done == 200:
                break
        assert done == 200
    # Hasse bound exhaustively below 10^4 on the same three curves
    for label in labels:
        E = RECORDS[label].to_curve()
        for q in primerange(2, 10**4 + 1):
            if E.conductor % q == 0:
                continue
            aq = trace_of_frobenius(E, q)
            assert aq * aq <= 4 * q
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _passline(2, f"3 curves x 200 dual counts + Hasse sweep to 1e4, {elapsed:.1f}s")


def test_criterion_03_twist_traces_follow_the_character():
    t0 = time.monotonic()
    pairs = (("11a1", -3), ("11a1", -4), ("14a1", -3), ("15a1", -7), ("17a1", -4))
    checked = 0
    for label, D in pairs:
        E = RECORDS[label].to_curve()
        EK = quadratic_twist(E, D)
        for q in primerange(2, 1001):
            if (E.conductor * D) % q == 0:
                continue
            assert trace_of_frobenius(EK, q) == kronecker_symbol(D, q) * trace_of_frobenius(E, q)
            checked += 1
    assert checked > 5 * 150
    _passline(3, f"5 pairs, {checked} good primes below 1000, {time.monotonic() - t0:.1f}s")


def test_criterion_04_valuations_ignore_primitive_root_choice():
    t0 = time.monotonic()
    total_indices = 0
    # both curves have p-integral symbols at 5 (denominators 6 and 1)
    for label, bound, max_n in (("26a1", 3000, 80000), ("37a1", 3000, 80000)):
        E = RECORDS[label].to_curve()
        sym = isolate_eigensymbol(E)
        primes = sieve("cyc", E, 5, 1, bound)
        pool = build_indices(primes, 2, max_n)
        singles = sorted((ix for ix in pool if ix.nu == 1), key=lambda ix: ix.n)[:40]
        pairs = sorted((ix for ix in pool if ix.nu == 2), key=lambda ix: ix.n)[:6]
        indices = singles + pairs
        assert pairs, f"{label}: no two-prime indices below max_n = {max_n}"
        total_indices += len(indices)
        for ix in indices:
            choices = []
            for which in range(3):
                etas = {f.q: three_primitive_roots(f.q)[which] for f in ix.factors}
                choices.append(kurihara_number(sym, ix, 5, etas=etas))
            assert len({kn.valuation for kn in choices}) == 1
            assert len({kn.saturated for kn in choices}) == 1
    assert total_indices >= 50
    elapsed = time.monotonic() - t0
    _passline(4, f"{total_indices} indices x 3 root choices x 2 curves, {elapsed:.1f}s")


def test_criterion_05_structure_round_trip_exhaustive():
    t0 = time.monotonic()
    count = 0
    for corank in range(3):
        for exps in partitions_up_to(8):
            shape = ModuleShape(corank, exps)
            recovered = predict_selmer_Q(synthetic_delta_stats(shape)).shape
            assert recovered == shape
            count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _passline(5, f"{count} shapes (corank <= 2, exponent sum <= 8), {elapsed:.2f}s")


def test_criterion_06_rank_detection_on_real_curves():
    t0 = time.monotonic()
    # 11a1 at p = 7 on the default region: vanishing order 0, certified
    report = run_pipeline(RECORDS["11a1"], RunConfig(p=7))
    assert report["stats"]["ord_bound"] == 0
    assert report["stats"]["ord_is_certified_on_region"] is True
    assert report["consistency"]["agrees"] is True
    # 37a1 at p = 5: delta_1 = 0 but a nu = 1 index is a p-adic unit,
    # certifying ord <= 1; the prediction must agree with the known rank 1
    report = run_pipeline(RECORDS["37a1"], RunConfig(p=5))
    unit_row = next(kn for kn in report["kurihara"] if kn["n"] == 1)
    assert unit_row["residue"] == 0 and unit_row["saturated"] is True
    assert any(kn["nu"] == 1 and kn["valuation"] == 0 for kn in report["kurihara"])
    assert report["stats"]["ord_bound"] == 1
    assert report["stats"]["ord_is_certified_on_region"] is True
    assert report["consistency"] == {"known_rank": 1, "predicted_corank": 1, "agrees": True}
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _passline(6, f"11a1 ord 0 certified, 37a1 ord 1 certified, {elapsed:.1f}s")


def test_criterion_07_bipartite_round_trips_and_limits():
    t0 = time.monotonic()
    rng = random.Random(424242)
    for _ in range(1000):
        exps = sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 5))), reverse=True)
        delta = rng.randint(0, 5)
        k = delta + sum(exps) + 1 + rng.randint(0, 4)
        ctx = ArtinianContext(p=5, k=k)
        shape = ModuleShape(0, tuple(exps))
        assert recover_shape(lambda_profile(shape, delta, ctx), ctx) == (shape, delta)
        # the definite dictionary reads the same partials as the delta = 0 profile
        toric = predict_waldspurger_profile(
            synthetic_delta_stats(shape), synthetic_delta_stats(ModuleShape(0))
        ).normalized_partials
        at_zero = lambda_profile(shape, 0, ctx)
        assert toric == tuple(at_zero[2 * s] for s in range(len(toric)))
    # stabilization of level-k families over k = 1..10
    for exps, delta in (((2, 1), 0), ((3,), 2), ((), 4), ((2, 2, 1), 1)):
        shape = ModuleShape(0, exps)
        fam = {k: lambda_profile(shape, delta, ArtinianContext(p=5, k=k)) for k in range(1, 11)}
        lim = limit_profile(fam)
        assert lim.k_max == 10
        if delta + sum(exps) < 10:
            assert lim.fully_stabilized
            tail = {2 * j: delta + sum(exps[j:]) for j in range(len(exps) + 2)}
            assert lim.values == tail
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _passline(7, f"1000 random round trips + 4 limit families, {elapsed:.2f}s")


def test_criterion_08_walk_invariants_over_ten_thousand_steps():
    rng = random.Random(181818)
    ctx = ArtinianContext(p=5, k=4)
    steps = 0
    while steps < 10**4:
        exps = sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 3))), reverse=True)
        state = initial_state(ModuleShape(0, tuple(exps)), ctx)
        delta = rng.randint(0, 4)
        for _ in range(200):
            a = rng.choice(feasible_localization_lengths(state, ctx))
            b = ctx.k - a
            assert 0 <= a <= ctx.k and a + b == ctx.k
            state = simulate_prime_step(state, a, ctx)
            assert state.e % 2 == state.rho % 2 and state.e in (0, 1)
            assert state.m_length >= 0
            # the simulated value lands inside the stub submodule
            assert min(ctx.k, delta + state.m_length) >= state.stub_exponent(ctx)
            steps += 1
    _passline(8, f"{steps} simulate steps, all invariants held")


def test_criterion_09_dictionary_identities_exhaustive():
    t0 = time.monotonic()
    spreads = partitions_up_to(3)  # divisible quotient length 2*sum <= 6
    gz_runs = 0
    for e_small, e_big in itertools.product(spreads, repeat=2):
        for ord_kappa in range(3):
            for big_is_E in (True, False):
                shape_small = ModuleShape(ord_kappa, e_small)
                shape_big = ModuleShape(ord_kappa + 1, e_big)
                stats_small = synthetic_delta_stats(shape_small)
                stats_big = synthetic_delta_stats(shape_big)
                big_side = 1 if big_is_E else -1
                W = big_side * (-1) ** (ord_kappa + 1)
                if big_is_E:
                    out = predict_heegner_profile(stats_big, stats_small, W=W)
                else:
                    out = predict_heegner_profile(stats_small, stats_big, W=W)
                assert out.identities and all(c.lhs == c.rhs for c in out.identities)
                gz_runs += 1
    wald_runs = 0
    for e1, e2 in itertools.product(spreads, repeat=2):
        for c1, c2 in itertools.product(range(4), repeat=2):
            if (c1 + c2) % 2:
                continue
            out = predict_waldspurger_profile(
                synthetic_delta_stats(ModuleShape(c1, e1)),
                synthetic_delta_stats(ModuleShape(c2, e2)),
            )
            assert out.identities and all(c.lhs == c.rhs for c in out.identities)
            wald_runs += 1
    elapsed = time.monotonic() - t0
    _passline(9, f"{gz_runs} GZ + {wald_runs} Waldspurger runs, all lhs == rhs, {elapsed:.2f}s")


def test_criterion_10_gross_point_relations_to_ten_digits():
    t0 = time.monotonic()
    rng = random.Random(7)
    fundamentals = [3, 4, 7, 8, 11, 15, 19, 20, 23, 24, 31, 35, 40, 43]
    triples = []
    while len(triples) < 20:
        D = rng.choice(fundamentals)
        q = rng.choice([5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
        if kronecker_symbol(-D, q) == 0:
            continue
        beta = -rng.randint(1, 40)
        if beta % q == 0 or jacobi_symbol(beta % q, q) != 1:
            continue
        triples.append((D, q, beta))
    for D, q, beta in triples:
        data = make_theta(D)
        report = relation_report(q, data, beta, precision=10)
        assert all(report.values()), (D, q, beta, report)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passline(10, f"20 admissible triples mod q^10, {elapsed:.2f}s")
