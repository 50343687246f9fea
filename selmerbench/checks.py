"""Checks on the reports a pass writes, computed apart from the program.

Each check returns a list of problems; an empty list means the report
passed.  The known ranks come from the curve records (Cremona's tables),
point counts, Kronecker symbols, primitive roots and discrete logs from
refmath.  The program supplies only the eigensymbol whose values the
Kurihara sums are re-added from, and the Hecke relation checks that
eigensymbol against brute-force point counts.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import refmath

DELTA_SAMPLE = 3  # sampled delta_n with n > 1, per report, besides n = 1
DELTA_BUDGET = 30_000  # symbol evaluations the sample may cost, per report
HECKE_SAMPLES = 12
VALUATION_CAP = 12  # the pipeline's cap on v_p(delta_1)


def render(report: dict) -> str:
    """The byte layout of a report file, written out independently."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def check_warm(data: bytes, cold: bytes | None, label: str) -> list[str]:
    """A report served from the cache must be byte-identical to the cold one."""
    return [] if data == cold else [f"warm report for {label} differs from the cold one"]


def check_batch(report: dict, cold: dict[str, bytes]) -> list[str]:
    """Every report inside a warm batch, laid out as a file, against cold bytes."""
    problems = []
    for rep in report["reports"]:
        label = rep["curve"]["label"]
        problems += check_warm(render(rep).encode(), cold.get(label), label)
    return problems


def _symbol(record: dict, cache: dict):
    """The program's plus eigensymbol of a record, computed once per run."""
    key = (tuple(record["ainvs"]), record["conductor"])
    if key not in cache:
        from selmerkit.curves import EllipticCurve
        from selmerkit.modsym import isolate_eigensymbol

        cache[key] = isolate_eigensymbol(EllipticCurve(*record["ainvs"], conductor=record["conductor"]))
    return cache[key]


def _phi(factors: list[int]) -> int:
    out = 1
    for q in factors:
        out *= q - 1
    return out


def _sample_entries(entries: list[dict], rng: random.Random) -> list[dict]:
    """n = 1 plus a seeded sample of larger n within the evaluation budget."""
    rest = [e for e in entries if e["n"] > 1]
    rng.shuffle(rest)
    chosen, spent = [], 0
    for e in rest:
        cost = _phi(refmath.prime_factors(e["n"]))
        if len(chosen) < DELTA_SAMPLE and spent + cost <= DELTA_BUDGET:
            chosen.append(e)
            spent += cost
    return [e for e in entries if e["n"] == 1] + chosen


def check_delta(entry: dict, sym, p: int, rng: random.Random) -> list[str]:
    """Re-add delta_n from [a/n]+ with the benchmark's own discrete logs.

    The residue must match with the smallest primitive roots, and the
    valuation must not move when every eta is swapped for another root.
    """
    n = entry["n"]
    if n == 1:
        value = sym.eval_plus(0, 1)
        modulus = p ** VALUATION_CAP
        residue = refmath.residue_mod(value, modulus)
        if residue != entry["residue"]:
            return [f"delta_1 residue {entry['residue']} != {residue}"]
        if refmath.valuation(residue, p, VALUATION_CAP) != entry["valuation"]:
            return [f"delta_1 valuation {entry['valuation']} is wrong"]
        return []
    t = entry["t_n"]
    modulus = p ** t
    factors = refmath.prime_factors(n)
    values = {a: sym.eval_plus(a, n) for a in refmath.units(n)}
    smallest = {ell: refmath.primitive_roots(ell)[0] for ell in factors}
    problems = []
    residue = refmath.kurihara_residue(values, factors, smallest, modulus)
    if residue != entry["residue"]:
        problems.append(f"delta_{n} residue {entry['residue']} != {residue}")
    if refmath.valuation(residue, p, t) != entry["valuation"]:
        problems.append(f"delta_{n} valuation {entry['valuation']} is wrong")
    other = {ell: rng.choice(refmath.primitive_roots(ell)[1:] or [smallest[ell]]) for ell in factors}
    moved = refmath.kurihara_residue(values, factors, other, modulus)
    if refmath.valuation(moved, p, t) != entry["valuation"]:
        problems.append(f"delta_{n} valuation moves with eta = {other}")
    return problems


def check_hecke(record: dict, sym, rng: random.Random) -> list[str]:
    """a_l [r]+ = [l r]+ + sum_k [(r + k)/l]+ at sampled r, a_l by counting."""
    N = record["conductor"]
    ells = [q for q in (2, 3, 5, 7, 11, 13) if N % q]

    def ev(x: Fraction) -> Fraction:
        return sym.eval_plus(x.numerator, x.denominator)

    problems = []
    for _ in range(HECKE_SAMPLES):
        ell = rng.choice(ells)
        b = rng.randint(1, 40)
        r = Fraction(rng.randrange(b), b)
        a_ell = refmath.trace_by_count(record["ainvs"], ell)
        rhs = ev(ell * r) + sum(ev((r + k) / ell) for k in range(ell))
        if a_ell * ev(r) != rhs:
            problems.append(f"Hecke relation fails at l = {ell}, r = {r}")
    return problems


def check_predict(report: dict, record: dict, rng: random.Random, symbols: dict) -> list[str]:
    """A single-curve pipeline report: corank, sieve, sampled delta_n, Hecke."""
    problems = []
    corank = report["prediction"]["shape"]["corank"]
    if corank != record["known_rank"]:
        problems.append(f"{record['label']}: corank {corank} != known rank {record['known_rank']}")
    cfg = report["config"]
    p = cfg["p"]
    own = refmath.cyc_primes(record["ainvs"], record["conductor"], p, cfg["prime_bound"])
    if [q["q"] for q in report["primes"]] != own:
        problems.append(f"{record['label']}: sieved primes differ from {own}")
    sym = _symbol(record, symbols)
    for entry in _sample_entries(report["kurihara"], rng):
        problems += check_delta(entry, sym, p, rng)
    problems += check_hecke(record, sym, rng)
    return problems


def _numeric_matches(ainvs, conductor: int, entry: dict, p: int) -> bool:
    """[0]+ from the numeric oracle, as a small-height rational, vs delta_1."""
    from selmerkit.analytic import numeric_plus
    from selmerkit.curves import EllipticCurve

    x = numeric_plus(EllipticCurve(*ainvs, conductor=conductor), 0, 1)
    guess = Fraction(x).limit_denominator(1000)
    if abs(float(guess) - x) > 1e-5 * max(1.0, abs(x)) or guess.denominator % p == 0:
        return False
    return refmath.residue_mod(guess, p ** VALUATION_CAP) == entry["residue"]


def check_pair(report: dict, record: dict, kind: str) -> list[str]:
    """A curve/twist dictionary report against parity and the numeric oracle."""
    problems = []
    cfg = report["config"]
    D, p, N = cfg["D_K"], cfg["p"], record["conductor"]
    twist = report["twist"]["curve"]
    if twist["conductor"] != N * D * D:
        problems.append(f"twist conductor {twist['conductor']} != N D_K^2 = {N * D * D}")
    inert = sum(1 for q in refmath.prime_factors(N) if refmath.kronecker(D, q) == -1)
    branch = "heegner" if inert % 2 == 0 else "waldspurger"
    if report["branch"] != branch or (kind == "gz") != (branch == "heegner"):
        problems.append(f"branch {report['branch']} but {inert} inert primes divide N")
    c_E = report["curve"]["prediction"]["shape"]["corank"]
    c_T = report["twist"]["prediction"]["shape"]["corank"]
    if c_E != record["known_rank"]:
        problems.append(f"curve corank {c_E} != known rank {record['known_rank']}")
    if (c_E + c_T) % 2 != (1 if branch == "heegner" else 0):
        problems.append(f"corank over K = {c_E + c_T} has the wrong parity for {branch}")
    pred = report["prediction"]
    stated = (pred["shape_E"]["corank"] + pred["shape_EK"]["corank"] if branch == "heegner"
              else pred.get("shape_K", {}).get("corank"))
    if stated != c_E + c_T:
        problems.append(f"dictionary corank over K {stated} != {c_E + c_T}")
    for side, ainvs, conductor in (("curve", record["ainvs"], N),
                                   ("twist", twist["ainvs"], twist["conductor"])):
        entry = next(e for e in report[side]["kurihara"] if e["n"] == 1)
        if not _numeric_matches(ainvs, conductor, entry, p):
            problems.append(f"{side} [0]+ disagrees with the numeric oracle")
    return problems
