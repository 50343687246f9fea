"""One pass of a workload, in a fresh interpreter.

    python3 selmerbench/child.py SPEC.json

The parent starts one of these per pass, so module caches never carry over
from one pass to the next.  The spec names the mode, the generated curve
file, the planned calls and the directories to use; the pass prints one
JSON object on stdout.

plain  times `import selmerkit` plus one `ingest` (setup_s), then every
       planned call through `selmerkit.cli.main` (wall_s).
trace  calls the layers' public functions in pipeline order, with a span
       around each call, and reports per-layer sums and rates.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from math import gcd
from pathlib import Path

from plans import cli_argv

RAW_VALUE_SAMPLE = 20_000


def out_path(spec: dict, i: int) -> str:
    return str(Path(spec["out_dir"]) / f"{i:02d}.json")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(spec: dict) -> dict:
    t0 = time.perf_counter()
    import selmerkit

    selmerkit.ingest(spec["curves"])
    setup_s = time.perf_counter() - t0
    from selmerkit.cli import main

    rcs = []
    t1 = time.perf_counter()
    for i, op in enumerate(spec["ops"]):
        argv = cli_argv(op, spec["curves"], out_path(spec, i), spec["cache_dir"])
        try:
            rcs.append(main(argv))
        except Exception as exc:  # a raw traceback is a failed call, not a crashed pass
            traceback.print_exc()
            rcs.append(f"{type(exc).__name__}: {exc}")
    wall_s = time.perf_counter() - t1
    return {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb(), "rcs": rcs}


# ---------------------------------------------------------------------------
# traced pass


class Tracer:
    """Spans (name, start, end, parent, op) kept in memory until the pass ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None, "start": time.perf_counter()}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


class TracedPass:
    def __init__(self, spec: dict):
        self.spec = spec
        self.tr = Tracer()
        self.counts = {"aq": 0, "primes": 0, "indices": 0, "evals": 0, "raw": 0,
                       "hits": 0, "misses": 0, "bytes": 0}
        self.levels: dict[int, tuple[int, int]] = {}
        self.aq_seen: set[tuple] = set()

    def run(self) -> dict:
        span = self.tr.span
        t0 = time.perf_counter()
        with span("arith.import_sympy"):
            import sympy  # noqa: F401
        with span("import_selmerkit"):
            import selmerkit  # noqa: F401
        composed = []
        for i, op in enumerate(self.spec["ops"]):
            self.tr.op = op["name"]
            with span("op"):
                composed.append(self.op(i, op))
        pass_s = time.perf_counter() - t0
        return {"pass_s": pass_s, "metrics": self.metrics(), "composed": composed,
                "spans": self.tr.spans, "peak_rss_mb": peak_rss_mb()}

    def op(self, i: int, op: dict) -> list[dict]:
        from selmerkit.cli import RunConfig, build_parser, code_version, ingest, render_report

        span = self.tr.span
        spec = self.spec
        argv = cli_argv(op, spec["curves"], out_path(spec, i), spec["cache_dir"])
        with span("cli.ingest"):
            records = {r.label: r for r in ingest(spec["curves"])}
        with span("cli.build_parser"):
            build_parser().parse_args(argv)
        with span("cli.code_version"):
            code_version()
        cfg = op["config"]
        config = RunConfig(p=cfg["p"], prime_bound=cfg["prime_bound"], max_nu=cfg["max_nu"],
                           D_K=cfg["D_K"], label=cfg["region_label"])
        if op["kind"] in ("gz", "waldspurger"):
            composed = [self.dictionary(records[op["labels"][0]], config)]
        else:
            composed = [self.pipeline(records[lab], config) for lab in op["labels"]]
        self.cached_calls(op, records, config)
        ref = json.loads(Path(spec["ref_dir"], f"{i:02d}.json").read_text(encoding="utf-8"))
        with span("cli.render_report"):
            text = render_report(ref)
        self.counts["bytes"] += len(text.encode())
        return composed

    def pipeline(self, record, config) -> dict:
        """curves -> sieves -> modsym -> kurihara -> selmer_predict for one curve."""
        from selmerkit.arith import primerange
        from selmerkit.curves import trace_of_frobenius
        from selmerkit.kurihara import delta_stats, kurihara_number
        from selmerkit.modsym import build_manin_space, isolate_eigensymbol
        from selmerkit.selmer_predict import predict_selmer_Q
        from selmerkit.sieves import build_indices, sieve

        span = self.tr.span
        E = record.to_curve()
        N, p = E.conductor, config.p
        todo = [q for q in primerange(2, config.prime_bound + 1)
                if N % q and (E.ainvs, q) not in self.aq_seen]
        with span("curves.trace_of_frobenius"):
            for q in todo:
                trace_of_frobenius(E, q)
        self.aq_seen.update((E.ainvs, q) for q in todo)
        self.counts["aq"] += len(todo)
        with span("sieves.sieve"):
            primes = sieve("cyc", E, p, config.k, config.prime_bound)
        with span("sieves.build_indices"):
            indices = build_indices(primes, config.max_nu, config.max_n)
        self.counts["primes"] += len(primes)
        self.counts["indices"] += len(indices)
        with span("modsym.build_manin_space"):
            space = build_manin_space(N)
        self.levels[N] = (space.n, space.m)
        with span("modsym.isolate_eigensymbol"):
            sym = isolate_eigensymbol(E, space)
        pairs = [(a, ix.n) for ix in indices if ix.n > 1 for a in range(1, ix.n) if gcd(a, ix.n) == 1]
        if pairs:
            reps = -(-RAW_VALUE_SAMPLE // len(pairs))
            sample = (pairs * reps)[:RAW_VALUE_SAMPLE]
            with span("modsym.raw_value"):
                for a, n in sample:
                    sym.raw_value(a, n)
            self.counts["raw"] += len(sample)
        with span("kurihara.kurihara_number"):
            collection = [kurihara_number(sym, ix, p) for ix in indices]
        for ix in indices:
            phi = 1
            for f in ix.factors:
                phi *= f.q - 1
            self.counts["evals"] += phi
        with span("kurihara.delta_stats"):
            stats = delta_stats(collection, config.region())
        with span("selmer_predict.predict_selmer_Q"):
            prediction = predict_selmer_Q(stats)
        return {"label": record.label, "stats": stats.to_json_dict(),
                "prediction": prediction.to_json_dict(), "_stats": stats}

    def dictionary(self, record, config) -> dict:
        """Curve and twist pipelines, then the dictionary the parity selects."""
        from selmerkit.cli import CurveRecord
        from selmerkit.curves import quadratic_twist, split_conductor
        from selmerkit.selmer_predict import predict_heegner_profile, predict_waldspurger_profile

        span = self.tr.span
        E = record.to_curve()
        with span("curves.quadratic_twist"):
            splitting = split_conductor(E, config.D_K)
            twist = quadratic_twist(E, config.D_K)
        twist_record = CurveRecord(label=f"{record.label}x{config.D_K}", ainvs=twist.ainvs,
                                   conductor=twist.conductor)
        curve = self.pipeline(record, config)
        tw = self.pipeline(twist_record, config)
        with span("selmer_predict.dictionary"):
            if splitting.nu_minus % 2 == 0:
                prediction = predict_heegner_profile(curve["_stats"], tw["_stats"], W=record.root_number)
            else:
                prediction = predict_waldspurger_profile(curve["_stats"], tw["_stats"])
        return {"label": record.label, "curve_stats": curve["stats"], "twist_stats": tw["stats"],
                "prediction": prediction.to_json_dict()}

    def cached_calls(self, op: dict, records: dict, config) -> None:
        """The op's report through the cached entry point, hit or miss."""
        from dataclasses import replace

        from selmerkit.cli import gz_pair, run_pipeline

        cache_dir = self.spec["trace_cache_dir"]
        config = replace(config, cache_dir=cache_dir)
        for lab in op["labels"]:
            before = len(os.listdir(cache_dir))
            with self.tr.span("cli.cached_call") as rec:
                if op["kind"] in ("gz", "waldspurger"):
                    gz_pair(records[lab], config.D_K, config)
                else:
                    run_pipeline(records[lab], config)
            rec["hit"] = len(os.listdir(cache_dir)) == before
            self.counts["hits" if rec["hit"] else "misses"] += 1

    def metrics(self) -> dict:
        tr, c = self.tr, self.counts
        hit_times = [s["end"] - s["start"] for s in tr.spans if s["name"] == "cli.cached_call" and s["hit"]]
        aq_s = tr.total("curves.trace_of_frobenius")
        raw_s = tr.total("modsym.raw_value")
        delta_s = tr.total("kurihara.kurihara_number")
        return {
            "cli.ingest_s": tr.total("cli.ingest"),
            "cli.parse_s": tr.total("cli.build_parser"),
            "cli.code_version_s": tr.total("cli.code_version"),
            "cli.cache_hit_s": statistics.median(hit_times) if hit_times else None,
            "cli.render_s": tr.total("cli.render_report"),
            "cli.report_bytes": c["bytes"],
            "cli.cache_hits": c["hits"],
            "cli.cache_misses": c["misses"],
            "arith.sympy_import_s": tr.total("arith.import_sympy"),
            "curves.aq_count": c["aq"],
            "curves.aq_per_s": c["aq"] / aq_s if aq_s else None,
            "modsym.space_s": tr.total("modsym.build_manin_space"),
            "modsym.space_gens": sum(n for n, _ in self.levels.values()),
            "modsym.space_dim": sum(m for _, m in self.levels.values()),
            "modsym.eigensymbol_s": tr.total("modsym.isolate_eigensymbol"),
            "modsym.raw_value_per_s": c["raw"] / raw_s if raw_s else None,
            "sieves.sieve_s": tr.total("sieves.sieve"),
            "sieves.primes": c["primes"],
            "sieves.indices_s": tr.total("sieves.build_indices"),
            "sieves.indices": c["indices"],
            "kurihara.evals": c["evals"],
            "kurihara.delta_s": delta_s,
            "kurihara.evals_per_s": c["evals"] / delta_s if delta_s else None,
            "kurihara.stats_s": tr.total("kurihara.delta_stats"),
            "selmer_predict.predict_s": tr.total("selmer_predict.predict_selmer_Q")
            + tr.total("selmer_predict.dictionary"),
        }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    if spec["mode"] == "plain":
        result = run_plain(spec)
    else:
        result = TracedPass(spec).run()
        for item in result["composed"]:
            for entry in item:
                entry.pop("_stats", None)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
