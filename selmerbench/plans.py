"""Seeded workload plans: which curves, primes, regions and calls a run makes.

A plan is plain JSON.  The parent writes the selected curve records to a
fresh curve file and the plan's calls to a spec file; a pass reads only
those two files, so the program sees nothing but the generated inputs.

The costly shape of each workload (which curve and twist conductors, and
how many symbol evaluations each region holds) is the same for every seed:
the cost of one symbol evaluation differs by up to 2x between these curves
and region sizes jump by 2-4x from one prime bound to the next, so letting
the seed pick them would make seeds, not code, move the figures.  The seed
picks what leaves the cost alone: the order of the calls and curves, the
region label, each prime bound within its window (below), the cache-miss
configurations, and every sample the checks draw.

A prime bound's window runs from the largest prime q = 1 mod p at or below
it to just before the next one.  The cyclotomic sieve only looks at such q,
so every bound in the window gives the same sieved primes, the same region
and the same point counts; only the report's stated bound changes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import refmath

# (label, p, prime bound) with nu <= 2: 88,751, 100,651 and 47,573 symbol
# evaluations.  37a1 is the rank-1 curve; 14a1 and 15a1 have composite
# conductors, where P^1(Z/N) normalization takes its slow path.
KURIHARA_DEEP = [("37a1", 5, 300), ("14a1", 5, 420), ("15a1", 7, 440)]

# (label, D_K, subcommand, p, prime bound): the cheapest Heegner pair and two
# definite pairs, twist conductors 333, 99 and 153.  11a1 fails the
# surjectivity hypothesis at p = 5.
TWIST_PAIRS = [("37a1", -3, "gz", 7, 300), ("11a1", -3, "waldspurger", 7, 300),
               ("17a1", -3, "waldspurger", 5, 300)]

# every sample curve that passes the hypothesis gate at p = 7
BATCH_P = 7
BATCH_LABELS = ["11a1", "14a1", "15a1", "17a1", "19a1", "26a1", "37a1", "37b1"]
BATCH_BOUND = 400  # warmed during set-up, so its cost is untimed
# cheap eigensymbols, so the misses stay a small share of a pass
MISS_LABELS = ["11a1", "19a1"]
MISS_BOUND = 150

WORKLOADS = ("kurihara_deep", "twist_pairs", "cached_batch")


def load_records(path: Path) -> dict[str, dict]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out[rec["label"]] = rec
    return out


def bound_window(p: int, bound: int) -> range:
    """Prime bounds that sieve exactly the primes that `bound` sieves."""
    lo = max(q for q in range(3, bound + 1, 2) if q % p == 1 and refmath.is_prime(q))
    hi = bound + 1
    while not (hi % p == 1 and refmath.is_prime(hi)):
        hi += 1
    return range(lo, hi)


def _config(p, bound, max_nu, label, D_K=None):
    return {"p": p, "prime_bound": bound, "max_nu": max_nu, "D_K": D_K, "region_label": label}


def _op(name, kind, labels, config, cache=False, role="cold"):
    return {"name": name, "kind": kind, "labels": labels, "config": config, "cache": cache, "role": role}


def make_plan(workload: str, seed: int, records: dict[str, dict], small: bool = False) -> dict:
    """The plan for one run.  small=True shrinks every region for smoke tests."""
    rng = random.Random(f"{workload}:{seed}")
    region = f"bench-{workload}-{seed}"
    warm: list[dict] = []
    if workload == "kurihara_deep":
        roster = [(lab, p, rng.choice(bound_window(p, 150 if small else bound)))
                  for lab, p, bound in KURIHARA_DEEP]
        rng.shuffle(roster)
        ops = [
            _op(f"predict:{lab}:p{p}", "predict", [lab], _config(p, bound, 2, region))
            for lab, p, bound in roster
        ]
    elif workload == "twist_pairs":
        roster = list(TWIST_PAIRS)
        rng.shuffle(roster)
        ops = []
        for lab, D, kind, p, bound in roster:
            bound = rng.choice(bound_window(p, 100 if small else bound))
            ops.append(_op(f"{kind}:{lab}:D{D}", kind, [lab], _config(p, bound, 1, region, D_K=D)))
    elif workload == "cached_batch":
        labels = list(BATCH_LABELS)
        rng.shuffle(labels)
        bound = rng.choice(bound_window(BATCH_P, 150 if small else BATCH_BOUND))
        batch = _config(BATCH_P, bound, 1 if small else 2, region)
        # set-up computes each report cold, which also warms the cache
        warm = [_op(f"cold:{lab}", "predict", [lab], batch, cache=True) for lab in labels]
        ops = [_op("batch", "batch", labels, batch, cache=True, role="hit")]
        ops += [_op(f"hit:{lab}", "predict", [lab], batch, cache=True, role="hit") for lab in labels]
        for lab in MISS_LABELS:
            miss = _config(BATCH_P, rng.choice(bound_window(BATCH_P, MISS_BOUND)), 1, f"{region}-miss")
            ops.append(_op(f"miss:{lab}", "predict", [lab], miss, cache=True, role="miss"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    labels = sorted({lab for op in ops + warm for lab in op["labels"]})
    rng.shuffle(labels)
    return {
        "workload": workload,
        "seed": seed,
        "records": [records[lab] for lab in labels],
        "warm": warm,
        "ops": ops,
    }


def cli_argv(op: dict, curves: str, out: str, cache_dir: str | None) -> list[str]:
    """The `selmerkit` command line that carries out one planned call."""
    cfg = op["config"]
    sub = "predict" if op["kind"] == "batch" else op["kind"]
    argv = [sub, "--curves", curves]
    for lab in op["labels"]:
        argv += ["--label", lab]
    argv += ["--p", str(cfg["p"]), "--prime-bound", str(cfg["prime_bound"]),
             "--max-nu", str(cfg["max_nu"]), "--region-label", cfg["region_label"], "--out", out]
    if cfg["D_K"] is not None:
        argv += ["--DK", str(cfg["D_K"])]
    if op["cache"] and cache_dir is not None:
        argv += ["--cache-dir", cache_dir]
    return argv

