"""selmerkit benchmark: one workload, run as passes in fresh interpreters.

    python3 selmerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a selmerkit checkout.  The plan for the workload is
drawn from the seed (plans.py); the parent then starts one fresh
interpreter per pass (child.py), one at a time, until the next pass would
end after S seconds, and at least MIN_PASSES times.  Untraced runs report
the median setup_s, wall_s and peak_rss_mb over the passes; traced runs
report the median of each per-layer metric.  Every report is
checked (checks.py) and a failing check counts its call as failed.  The
last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from plans import WORKLOADS, load_records, make_plan

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
WORK_DIR = ".selmerbench"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.ingest_s": "s", "cli.parse_s": "s", "cli.code_version_s": "s", "cli.cache_hit_s": "s",
    "cli.render_s": "s", "cli.report_bytes": "bytes", "cli.cache_hits": "count",
    "cli.cache_misses": "count", "arith.sympy_import_s": "s", "curves.aq_count": "count",
    "curves.aq_per_s": "1/s", "modsym.space_s": "s", "modsym.space_gens": "count",
    "modsym.space_dim": "count", "modsym.eigensymbol_s": "s", "modsym.raw_value_per_s": "1/s",
    "sieves.sieve_s": "s", "sieves.primes": "count", "sieves.indices_s": "s",
    "sieves.indices": "count", "kurihara.evals": "count", "kurihara.delta_s": "s",
    "kurihara.evals_per_s": "1/s", "kurihara.stats_s": "s", "selmer_predict.predict_s": "s",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Run:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, small: bool = False):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.records = load_records(root / "data" / "sample_curves.jsonl")
        self.plan = make_plan(workload, seed, self.records, small=small)
        self.dir = root / WORK_DIR / f"run-{workload}-{seed}-{os.getpid()}"
        self.passes = 0

    # -- processes -----------------------------------------------------------

    def path(self, name: str) -> Path:
        return self.dir / name

    def child(self, mode: str, ops: list[dict], out_dir: Path, cache_dir: Path | None,
              **extra) -> dict | None:
        """Start one fresh interpreter for one pass and wait for it to end."""
        out_dir.mkdir(parents=True, exist_ok=True)
        spec = {"mode": mode, "src": str(self.root / "src"), "curves": str(self.path("curves.jsonl")),
                "out_dir": str(out_dir), "cache_dir": None if cache_dir is None else str(cache_dir),
                "ops": ops, **extra}
        spec_path = self.path(f"spec-{mode}.json")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        cmd = [sys.executable, str(Path(__file__).with_name("child.py")), str(spec_path)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"{mode} pass timed out after {PASS_TIMEOUT_S} s")
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            log(f"{mode} pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if any(rc != 0 for rc in result.get("rcs", ())):
            log(f"{mode} pass had failed calls: {proc.stderr.strip()[-2000:]}")
        return result

    def fresh_cache(self, source: Path | None, name: str) -> Path | None:
        """A per-pass copy of a warm cache, so a pass's misses stay misses."""
        if source is None:
            return None
        target = self.path(name)
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(source, target)
        return target

    def loop(self, one_pass) -> list:
        """Run passes until the next one would end after the deadline."""
        results, durations = [], []
        deadline = time.perf_counter() + self.seconds
        while True:
            if len(durations) >= MIN_PASSES and time.perf_counter() + statistics.median(durations) > deadline:
                break
            t = time.perf_counter()
            results.append(one_pass(len(results)))
            durations.append(time.perf_counter() - t)
        self.passes = len(results)
        return results

    # -- set-up ----------------------------------------------------------------

    def setup(self, trace: bool) -> None:
        """Write the generated curve file; warm the cache; take reference reports."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        with open(self.path("curves.jsonl"), "w", encoding="utf-8") as fh:
            for rec in self.plan["records"]:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        self.golden = None
        self.cold: dict[str, bytes] = {}
        if self.plan["warm"]:
            # the cache key holds code_version(), so the code under test warms it
            self.golden = self.path("cache-golden")
            self.golden.mkdir()
            self.child("plain", self.plan["warm"], self.path("cold"), self.golden)
            for i, op in enumerate(self.plan["warm"]):
                f = self.path("cold") / f"{i:02d}.json"
                if f.exists():
                    self.cold[op["labels"][0]] = f.read_bytes()
        if trace:
            # one untraced pass whose reports the traced passes must reproduce
            cache = self.fresh_cache(self.golden, "cache-ref") or self.path("cache-ref")
            cache.mkdir(exist_ok=True)
            ops = [dict(op, cache=True) for op in self.plan["ops"]]
            ref = self.child("plain", ops, self.path("ref"), cache)
            self.ref_ok = ref is not None and all(rc == 0 for rc in ref["rcs"])
            self.ref_pass_s = ref["setup_s"] + ref["wall_s"] if ref is not None else None
            self.trace_cache = self.golden or cache

    # -- untraced ------------------------------------------------------------------

    def untraced(self) -> dict:
        ops = self.plan["ops"]
        outputs: list[list[bytes | None]] = []

        def one_pass(k: int):
            out = self.path(f"pass-{k}")
            res = self.child("plain", ops, out, self.fresh_cache(self.golden, "cache-pass"))
            files = [out / f"{i:02d}.json" for i in range(len(ops))]
            rcs = res["rcs"] if res is not None else ["no result"] * len(ops)
            for op, rc in zip(ops, rcs):
                if rc != 0:
                    log(f"pass {k}: {op['name']} returned {rc}")
            got = [f.read_bytes() if rc == 0 and f.exists() else None for f, rc in zip(files, rcs)]
            outputs.append(got)
            if k > 0:
                shutil.rmtree(out)
            return res

        results = self.loop(one_pass)
        wrong = self.check_outputs(outputs[0])
        failed = 0
        for got in outputs:
            for i, data in enumerate(got):
                failed += data is None or data != outputs[0][i] or i in wrong
        ok = [r for r in results if r is not None]
        if not ok:
            return {"correct": False, "failed": failed, "metrics": None}
        metrics = {name: statistics.median(r[name] for r in ok) for name in END_TO_END_UNITS}
        for name in END_TO_END_UNITS:
            log(f"{name} per pass: " + " ".join(f"{r[name]:.4f}" for r in ok))
        return {"correct": not wrong, "failed": failed, "metrics": metrics}

    def check_outputs(self, got: list[bytes | None]) -> set[int]:
        """Indices of the calls whose report fails a check."""
        symbols: dict = {}
        wrong = set()
        for i, (op, data) in enumerate(zip(self.plan["ops"], got)):
            if data is None:
                continue
            rng = random.Random(f"check:{self.seed}:{op['name']}")
            report = json.loads(data)
            problems = []
            if op["kind"] == "batch":
                problems = checks.check_batch(report, self.cold)
            elif op["kind"] in ("gz", "waldspurger"):
                problems = checks.check_pair(report, self.records[op["labels"][0]], op["kind"])
            else:
                label = op["labels"][0]
                if op["role"] == "hit":
                    problems = checks.check_warm(data, self.cold.get(label), label)
                problems += checks.check_predict(report, self.records[label], rng, symbols)
            for msg in problems:
                log(f"check failed: {op['name']}: {msg}")
            if problems:
                wrong.add(i)
        # the batch reads the cold reports, so check those too
        for label, data in self.cold.items():
            rng = random.Random(f"check:{self.seed}:cold:{label}")
            problems = checks.check_predict(json.loads(data), self.records[label], rng, symbols)
            for msg in problems:
                log(f"check failed: cold:{label}: {msg}")
            if problems:
                wrong.update(i for i, op in enumerate(self.plan["ops"]) if label in op["labels"])
        return wrong

    # -- traced ----------------------------------------------------------------------

    def traced(self) -> dict:
        ops = self.plan["ops"]
        refs = []
        for i in range(len(ops)):
            f = self.path("ref") / f"{i:02d}.json"
            refs.append(json.loads(f.read_bytes()) if f.exists() else None)

        def one_pass(k: int):
            cache = self.fresh_cache(self.trace_cache, "cache-trace")
            return self.child("trace", ops, self.path("trace-out"), cache,
                              ref_dir=str(self.path("ref")), trace_cache_dir=str(cache))

        results = self.loop(one_pass)
        failed, mismatched = 0, False
        for res in results:
            for i, op in enumerate(ops):
                bad = res is None or not self.ref_ok or not self.composed_equal(op, res["composed"][i], refs[i])
                failed += bad
                mismatched |= bad and res is not None and self.ref_ok
        ok = [r for r in results if r is not None]
        trace_file = self.root / WORK_DIR / "traces" / f"{self.plan['workload']}-seed{self.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps([{"pass": k, "spans": r["spans"] if r else None}
                                          for k, r in enumerate(results)]), encoding="utf-8")
        if not ok:
            return {"correct": False, "failed": failed, "metrics": None}
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            values = [r["metrics"][name] for r in ok if r["metrics"][name] is not None]
            # counts stay whole numbers
            median = statistics.median_low if unit in ("count", "bytes") else statistics.median
            metrics[name] = median(values) if values else None
        traced_s = statistics.median(r["pass_s"] for r in ok)
        if self.ref_pass_s:
            log(f"traced pass median {traced_s:.4f} s against {self.ref_pass_s:.4f} s for the untraced "
                f"reference pass (x{traced_s / self.ref_pass_s:.2f})")
        log(f"trace in {trace_file}")
        return {"correct": not mismatched, "failed": failed, "metrics": metrics}

    @staticmethod
    def composed_equal(op: dict, composed: list[dict], ref: dict | None) -> bool:
        """The traced pass's stats and predictions against the untraced report."""
        if ref is None:
            return False
        if op["kind"] in ("gz", "waldspurger"):
            c = composed[0]
            return (c["curve_stats"] == ref["curve"]["stats"] and c["twist_stats"] == ref["twist"]["stats"]
                    and c["prediction"] == ref["prediction"])
        reports = ref["reports"] if op["kind"] == "batch" else [ref]
        return len(reports) == len(composed) and all(
            c["stats"] == r["stats"] and c["prediction"] == r["prediction"] for c, r in zip(composed, reports))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="toy-size regions, for smoke tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "selmerkit" / "__init__.py").is_file() or not (root / "data" / "sample_curves.jsonl").is_file():
        log("error: run from the root of a selmerkit checkout (src/selmerkit and data/ not found)")
        return 2
    sys.path.insert(0, str(root / "src"))
    import selmerkit  # noqa: F401  (compiles the package once, before any pass is timed)

    run = Run(root, args.workload, args.seed, args.seconds, small=args.small)
    try:
        run.setup(trace=bool(args.trace))
        outcome = run.traced() if args.trace else run.untraced()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if outcome["metrics"] is None or any(v is None for v in outcome["metrics"].values()):
        log("error: no pass produced every metric")
        return 1
    result = {
        "correct": outcome["correct"],
        "attempted": run.passes * len(run.plan["ops"]),
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    log(f"{args.workload} seed {args.seed}: {run.passes} passes")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
