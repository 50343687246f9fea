"""Command line driver: curve ingestion, pipeline orchestration, JSON reports.

The library computes; this module plumbs.  Curve files are JSON lines, one
record per line, schema-validated on ingest.  A CurveRecord is the one home
of a curve's ingested facts (root number, known rank and Sha order, per-p
hypothesis flags, Tamagawa numbers); the curve it builds carries only the
model, the conductor and the label.  _gather runs one curve over the region
and returns the report fields that delta, stats and predict share.

Every subcommand but sieve (which writes its primes as JSON lines) emits a
single self-contained JSON document (deterministic key order, embedded
config and code-version hash) so that number-theoretic claims are
reproducible from the report alone.  Each report opens with the same
envelope, kind, schema and code_version, from _report; a multi-curve
predict wraps its reports in a batch document that carries kind and schema
only.  Exit codes: 0 success, 2 hypothesis or input problem, 3 inconclusive
search region, 4 broken internal invariant.

build_parser registers the nine subcommands from one table.  A row names the
subcommand, its handler, its help line and its option groups.  The shared
groups are declared once each: curve selection (--curves, --label,
--lenient), the run options (--p through --max-evaluations), --cache-dir
(predict, gz and waldspurger, whose curve runs go through the run_pipeline
cache) and --out.  sieve --family, oracle-check --tol, bipartite-sim and
gross-points add groups of their own.  gz and waldspurger share one handler
and differ only in the dictionary branch they want; delta and stats share
another and differ only in the entry they report.  The parser is built on the
first main call and reused for the life of the process, like code_version().
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import logging
import os
import sys
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cache, partial
from pathlib import Path

from .analytic import numeric_plus
from .arith import is_fundamental_discriminant, isprime
from .bipartite_algebra import ArtinianContext, generate_system, lambda_profile
from .curves import EllipticCurve, quadratic_twist, split_conductor
from .errors import HypothesisError, InputError, InternalInvariantError, SelmerkitError
from .gross_points import (
    gross_point_component,
    local_embedding_J,
    local_embedding_theta,
    make_theta,
    relation_report,
)
from .kurihara import DeltaStats, RegionSpec, delta_stats, kurihara_number
from .modsym import EigenSymbol, isolate_eigensymbol, twist_eigensymbol
from .selmer_predict import (
    ModuleShape,
    predict_heegner_profile,
    predict_selmer_Q,
    predict_waldspurger_profile,
)
from .sieves import build_indices, dump_primes_jsonl, sieve

logger = logging.getLogger("selmerkit.cli")

SCHEMA_VERSION = 2
DEFAULT_MAX_EVALUATIONS = 5_000_000


# ---------------------------------------------------------------------------
# curve records


_RECORD_REQUIRED = ("label", "ainvs", "conductor")
_RECORD_OPTIONAL = ("root_number", "known_rank", "known_sha_order", "p_flags", "tamagawa")
_FLAG_KEYS = ("surjective", "manin_ok", "condition_cr")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_prime_key(key) -> bool:
    """A JSON object key that names a prime in plain decimal, such as "7"."""
    return isinstance(key, str) and key.isdecimal() and key == str(int(key)) and isprime(int(key))


@dataclass
class CurveRecord:
    """One ingested curve with its asserted (not computed) arithmetic facts.

    root_number, known_rank, known_sha_order, the per-p hypothesis flags and
    the Tamagawa numbers are table data carried for gating and cross-checks;
    nothing here recomputes them, and the curve that to_curve builds carries
    none of them.  The constructor checks every field's JSON type: integers
    are ints (not bools or floats), each flag is true, false or null, and
    p_flags and tamagawa are objects keyed by primes.
    """

    label: str
    ainvs: tuple[int, int, int, int, int]
    conductor: int
    root_number: int | None = None
    known_rank: int | None = None
    known_sha_order: int | None = None
    p_flags: dict = field(default_factory=dict)
    tamagawa: dict = field(default_factory=dict)

    def __post_init__(self):
        label = self.label
        if not isinstance(label, str) or not label:
            raise InputError("curve record needs a non-empty string label")
        if not (isinstance(self.ainvs, (list, tuple)) and len(self.ainvs) == 5
                and all(map(_is_int, self.ainvs))):
            raise InputError(f"{label}: ainvs must have exactly 5 entries, all integers")
        self.ainvs = tuple(self.ainvs)
        if not (_is_int(self.conductor) and self.conductor >= 1):
            raise InputError(f"{label}: conductor must be a positive integer")
        if self.root_number is not None and not (_is_int(self.root_number)
                                                 and self.root_number in (1, -1)):
            raise InputError(f"{label}: root_number must be +1 or -1")
        if self.known_rank is not None and not (_is_int(self.known_rank) and self.known_rank >= 0):
            raise InputError(f"{label}: known_rank must be a non-negative integer")
        if self.known_sha_order is not None and not (_is_int(self.known_sha_order)
                                                     and self.known_sha_order >= 1):
            raise InputError(f"{label}: known_sha_order must be a positive integer")
        if not isinstance(self.p_flags, dict):
            raise InputError(f"{label}: p_flags must be an object")
        for key, flags in self.p_flags.items():
            if not _is_prime_key(key):
                raise InputError(f"{label}: p_flags key {key!r} is not a prime")
            if not (isinstance(flags, dict)
                    and all(v is None or isinstance(v, bool) for v in flags.values())):
                raise InputError(f"{label}: p_flags[{key}] must map flags to true, false or null")
        if not isinstance(self.tamagawa, dict):
            raise InputError(f"{label}: tamagawa must be an object")
        for key, value in self.tamagawa.items():
            if not (_is_prime_key(key) and _is_int(value) and value >= 1):
                raise InputError(f"{label}: bad tamagawa entry {key}: {value}")

    @classmethod
    def from_json_dict(cls, data: dict, strict: bool = True, where: str = "record") -> "CurveRecord":
        if not isinstance(data, dict):
            raise InputError(f"{where}: record must be a JSON object")
        missing = [k for k in _RECORD_REQUIRED if k not in data]
        if missing:
            raise InputError(f"{where}: missing required fields {missing}")
        unknown = sorted(set(data) - set(_RECORD_REQUIRED) - set(_RECORD_OPTIONAL))
        if unknown:
            msg = f"{where}: unknown fields {unknown}"
            if strict:
                raise InputError(msg)
            logger.warning(msg)
        record = cls(**{k: data[k] for k in (*_RECORD_REQUIRED, *_RECORD_OPTIONAL) if k in data})
        for p_key, flags in record.p_flags.items():
            bad = sorted(set(flags) - set(_FLAG_KEYS))
            if bad:
                msg = f"{where}: unknown p_flags keys {bad} at p = {p_key}"
                if strict:
                    raise InputError(msg)
                logger.warning(msg)
        return record

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "ainvs": list(self.ainvs),
            "conductor": self.conductor,
            "root_number": self.root_number,
            "known_rank": self.known_rank,
            "known_sha_order": self.known_sha_order,
            "p_flags": {k: dict(v) for k, v in sorted(self.p_flags.items())},
            "tamagawa": {k: v for k, v in sorted(self.tamagawa.items())},
        }

    def to_curve(self) -> EllipticCurve:
        E = EllipticCurve(*self.ainvs, conductor=self.conductor, label=self.label)
        E.check_conductor_exponents()
        return E


def ingest(path: str, strict: bool = True) -> list[CurveRecord]:
    """Read a JSON-lines curve file in deterministic order.

    Strict mode rejects unknown fields and duplicate labels; lenient mode
    logs warnings and keeps going.  Malformed lines (not UTF-8, not JSON, or
    past the parser's nesting or integer-digit limits) are errors in both
    modes and carry the line number.  Lines end at a newline byte, as JSON
    Lines specifies, and each is decoded on its own so that a decoding error
    names its line.
    """
    records: list[CurveRecord] = []
    seen: set[str] = set()
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read curve file {path}: {exc.strerror or exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}:{lineno}: not UTF-8 text: {exc}") from exc
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
                raise InputError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            except RecursionError:
                raise InputError(f"{path}:{lineno}: malformed JSON: nested too deeply") from None
            record = CurveRecord.from_json_dict(data, strict=strict, where=f"{path}:{lineno}")
            if record.label in seen:
                msg = f"{path}:{lineno}: duplicate label {record.label!r}"
                if strict:
                    raise InputError(msg)
                logger.warning(msg)
            seen.add(record.label)
            records.append(record)
    return records


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """Everything a pipeline run depends on, embedded verbatim in reports.

    D_K is normalized to the signed convention (negative fundamental
    discriminant) whichever sign the caller passes.  p < 5 violates the
    standing hypothesis and is refused unless allow_small_p is set, in which
    case the emitted report carries a taint marker.  cache_dir and
    max_evaluations steer execution, not mathematics, so they stay out of
    the config fingerprint and the report.
    """

    p: int
    k: int = 1
    prime_bound: int = 300
    max_nu: int = 1
    max_n: int = 10_000_000
    D_K: int | None = None
    label: str = ""
    cache_dir: str | None = None
    allow_small_p: bool = False
    max_evaluations: int = DEFAULT_MAX_EVALUATIONS

    def __post_init__(self):
        if not isprime(self.p):
            raise InputError(f"p = {self.p} is not prime")
        if self.p < 5 and not self.allow_small_p:
            raise HypothesisError(
                f"p = {self.p} violates the standing hypothesis p >= 5; "
                "pass --allow-small-p to run anyway (the report will be tainted)"
            )
        if self.k < 1:
            raise InputError("k must be at least 1")
        if self.prime_bound < 3 or self.max_nu < 0 or self.max_n < 1:
            raise InputError("degenerate region bounds")
        if self.max_evaluations < 1:
            raise InputError("max_evaluations must be positive")
        if self.D_K is not None:
            normalized = -abs(int(self.D_K))
            if not is_fundamental_discriminant(normalized):
                raise InputError(
                    f"{normalized} is not an imaginary quadratic field discriminant"
                )
            self.D_K = normalized

    @property
    def tainted(self) -> bool:
        return self.p < 5

    def region(self) -> RegionSpec:
        return RegionSpec(
            p=self.p,
            k=self.k,
            prime_bound=self.prime_bound,
            max_nu=self.max_nu,
            max_n=self.max_n,
            label=self.label,
        )

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "prime_bound": self.prime_bound,
            "max_nu": self.max_nu,
            "max_n": self.max_n,
            "D_K": self.D_K,
            "label": self.label,
            "allow_small_p": self.allow_small_p,
        }


@cache
def code_version() -> str:
    """Hash of the package sources, so reports pin the code that made them.

    Read once per process, so a cache key and the report stored under it
    always name the same code.
    """
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _report(kind: str, **fields) -> dict:
    """The envelope every report kind shares: kind, schema and code version."""
    return {"kind": kind, "schema": SCHEMA_VERSION, "code_version": code_version(), **fields}


# ---------------------------------------------------------------------------
# pipeline


def _hypothesis_gate(record: CurveRecord, p: int) -> list[str]:
    """Refuse explicit hypothesis failures; note unasserted flags."""
    flags = record.p_flags.get(str(p), {})
    notes = []
    for key in ("surjective", "manin_ok"):
        value = flags.get(key)
        if value is False:
            raise HypothesisError(f"{record.label}: hypothesis flag {key!r} is false at p = {p}")
        if value is None:
            notes.append(f"flag {key!r} not asserted at p = {p}")
    if flags.get("condition_cr") is False:
        notes.append(f"condition_cr asserted false at p = {p}")
    return notes


def _estimate_evaluations(indices) -> int:
    # the region size: sum n over the indices, plus the sum of the distinct
    # factors ell, the length of one walk of eta mod each.  An upper bound,
    # not the count of evaluations made, since kurihara_number reads the
    # symbol only at units with a nonzero log weight and once per pair
    # {a, n - a}; the report states this figure as is
    evaluations = sum(ix.n for ix in indices)
    walks = sum({f.q for ix in indices for f in ix.factors})
    return evaluations + walks


def _gather(record: CurveRecord, config: RunConfig,
            eigensymbol: Callable[[EllipticCurve], EigenSymbol] = isolate_eigensymbol) -> tuple[dict, DeltaStats]:
    """One curve's run over the region: its report fields, and its stats.

    The delta, stats and pipeline reports all take their entries from the
    one fields dict; the stats come back as well for the prediction.  The
    curve's eigensymbol is built by eigensymbol(curve) once the region is
    within budget: the Hecke cut of isolate_eigensymbol unless a pair reads
    the twist off its base curve.
    """
    E = record.to_curve()
    notes = _hypothesis_gate(record, config.p)
    region = config.region()
    primes = sieve("cyc", E, config.p, config.k, config.prime_bound)
    # the estimate is at least sum n, so build_indices refuses early what it would refuse
    indices = build_indices(primes, config.max_nu, config.max_n, config.max_evaluations)
    estimated = _estimate_evaluations(indices)
    if estimated > config.max_evaluations:
        raise InputError(
            f"region needs about {estimated} symbol evaluations, over the "
            f"budget {config.max_evaluations}; shrink the region or raise "
            "--max-evaluations"
        )
    sym = eigensymbol(E)
    collection = [kurihara_number(sym, ix, config.p) for ix in indices]
    stats = delta_stats(collection, region)
    fields = {
        "config": config.to_json_dict(),
        "curve": record.to_json_dict(),
        "region": region.describe(),
        "hypothesis_notes": notes,
        "prime_count": len(primes),
        "primes": [q.to_json_dict() for q in primes],
        "index_count": len(indices),
        "estimated_evaluations": estimated,
        "kurihara": [kn.to_json_dict() for kn in collection],
        "stats": stats.to_json_dict(),
    }
    return fields, stats


def run_pipeline(record: CurveRecord, config: RunConfig,
                 eigensymbol: Callable[[EllipticCurve], EigenSymbol] = isolate_eigensymbol) -> dict:
    """curves -> modsym -> sieves -> kurihara -> prediction, as one report.

    The report is a plain JSON-compatible dict; rendering it with
    render_report is byte-identical across runs of the same (record, config,
    code) triple, which is also the cache key.  eigensymbol builds the
    curve's symbol on a miss (see _gather).  It is not part of the key: the
    twisted path of gz_pair gives the same sign * fvec and denominator as
    the cut, so both paths give the same report and share one entry.  This
    is the one cached computation.  An entry is the hex sha256 of the rest of the file on its
    first line, then exactly render_report(report).  An entry that cannot be
    read, whose digest does not match its stored bytes, that does not
    decode, that is not a pipeline report, or whose curve, config and
    code_version are not the key's own is logged as a miss, recomputed and
    rewritten atomically.  An entry that cannot be written is refused as
    input (exit 2), and the error names it.
    """
    path = None
    if config.cache_dir is not None:
        directory = Path(config.cache_dir)
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot use cache directory {directory}: {exc.strerror or exc}") from exc
        payload = {
            "record": record.to_json_dict(),
            "config": config.to_json_dict(),
            "code": code_version(),
        }
        key_text = json.dumps(payload, sort_keys=True)
        key = hashlib.sha256(key_text.encode()).hexdigest()[:24]
        path = directory / f"{key}.json"
        if path.exists():
            try:
                entry = path.read_bytes()
            except OSError as exc:
                logger.warning("cache entry %s cannot be read (%s); recomputing", path, exc.strerror or exc)
            else:
                digest, _, body = entry.partition(b"\n")
                cached = None
                if digest == hashlib.sha256(body).hexdigest().encode():
                    try:
                        cached = json.loads(body)
                    except ValueError:  # JSONDecodeError or UnicodeDecodeError
                        pass
                if isinstance(cached, dict) and cached.get("kind") == "pipeline":
                    held = {"record": cached.get("curve"), "config": cached.get("config"),
                            "code": cached.get("code_version")}
                    if json.dumps(held, sort_keys=True) == key_text:
                        return cached
                    logger.warning("cache entry %s holds the report of another run; recomputing", path)
                else:
                    logger.warning("cache entry %s fails its checksum or is not a report; recomputing", path)

    fields, stats = _gather(record, config, eigensymbol)
    prediction = predict_selmer_Q(stats)
    report = _report("pipeline", **fields, prediction=prediction.to_json_dict())
    if config.tainted:
        report["taint"] = (
            f"p = {config.p} violates the standing hypothesis p >= 5; "
            "results are outside the proven range"
        )
    if record.known_rank is not None:
        report["consistency"] = {
            "known_rank": record.known_rank,
            "predicted_corank": prediction.shape.corank,
            "agrees": prediction.shape.corank == record.known_rank,
        }
    if path is not None:
        body = render_report(report).encode()
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
            # atomic publish: concurrent readers see the old file or the new one
            os.replace(tmp, path)
        except OSError as exc:
            raise InputError(f"cannot write cache entry {path}: {exc.strerror or exc}") from exc
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
    return report


def gz_pair(record_E: CurveRecord, D_K: int, config: RunConfig,
            want_branch: str | None = None) -> dict:
    """Run E and its quadratic twist, then the dictionary the parity selects.

    nu(N^-) even is the indefinite setting (Heegner-point dictionary, needs
    the root number of E); odd is the definite setting (toric-period
    dictionary).  Both sub-pipelines must certify their vanishing orders.
    The pair itself is not cached: its two curve runs go through the
    run_pipeline cache, and the dictionary reads their "stats" back.  Those
    runs do not read the field, so they run with D_K unset and share their
    cache entries with predict and with every other field.
    The branch depends only on the field, so a missing root number or a
    branch other than want_branch is refused before either pipeline runs.
    E's eigensymbol is the Hecke cut at level N, made at most once for both
    runs; the twist's is read off it (modsym.twist_eigensymbol), with no
    relation kernel or Hecke cut at level N D^2.
    """
    D = -abs(int(D_K))
    if not is_fundamental_discriminant(D):
        raise InputError(f"{D} is not an imaginary quadratic field discriminant")
    if D % config.p == 0:
        raise HypothesisError(f"p = {config.p} ramifies in the field of discriminant {D}")
    E = record_E.to_curve()
    splitting = split_conductor(E, D)
    twist = quadratic_twist(E, D)
    # the twist record asserts no p-flags, and its run notes them as not
    # asserted.  Surjectivity would carry over for p >= 5 (rho-bar (x) chi has
    # the commutator subgroup SL2(F_p) and the determinant of rho-bar), but
    # the Manin-constant flag waits on the twist's lattice index, so both stay
    # unasserted
    twist_record = CurveRecord(
        label=twist.label,
        ainvs=twist.ainvs,
        conductor=twist.conductor,
    )
    branch = "heegner" if splitting.nu_minus % 2 == 0 else "waldspurger"
    if branch == "heegner" and record_E.root_number is None:
        raise InputError(
            f"{record_E.label}: the indefinite dictionary needs root_number in the record"
        )
    if want_branch is not None and branch != want_branch:
        other = "waldspurger" if want_branch == "heegner" else "gz"
        raise InputError(
            f"nu(N^-) = {splitting.nu_minus} selects the "
            f"{branch} dictionary for this field; use the {other} subcommand"
        )
    curve_config = replace(config, D_K=None)
    # a run served from the cache builds no symbol, so E's is cut on first use
    symbol_E = cache(isolate_eigensymbol)
    report_E = run_pipeline(record_E, curve_config, symbol_E)
    report_T = run_pipeline(twist_record, curve_config, lambda T: twist_eigensymbol(symbol_E(E), D, T))
    stats_E = DeltaStats.from_json_dict(report_E["stats"])
    stats_T = DeltaStats.from_json_dict(report_T["stats"])
    if branch == "heegner":
        prediction = predict_heegner_profile(stats_E, stats_T, W=record_E.root_number)
    else:
        prediction = predict_waldspurger_profile(stats_E, stats_T)

    report = _report(
        "gz_pair",
        config=config.to_json_dict(),
        branch=branch,
        field={
            "D_K": splitting.D_K,
            "n_plus": splitting.n_plus,
            "n_minus": splitting.n_minus,
            "nu_minus": splitting.nu_minus,
        },
        curve=report_E,
        twist=report_T,
        prediction=prediction.to_json_dict(),
    )
    if config.tainted:
        report["taint"] = report_E.get("taint")
    return report


# ---------------------------------------------------------------------------
# subcommands


def _check_out(args) -> None:
    """Refuse an --out that is a directory or whose parent is not one, before any work."""
    if not args.out:
        return
    out = Path(args.out)
    if out.is_dir():
        raise InputError(f"cannot write {args.out}: it is a directory")
    if not out.parent.is_dir():
        raise InputError(f"cannot write {args.out}: {out.parent} is not a directory")


def _emit(args, text: str) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc.strerror or exc}") from exc


def _selected_records(args) -> list[CurveRecord]:
    records = ingest(args.curves, strict=not args.lenient)
    if not args.label:
        return records
    by_label = {r.label: r for r in records}
    missing = [lab for lab in args.label if lab not in by_label]
    if missing:
        raise InputError(f"labels {missing} not found in {args.curves}")
    return [by_label[lab] for lab in args.label]


def _single_record(args) -> CurveRecord:
    records = _selected_records(args)
    if len(records) != 1:
        raise InputError(
            f"this subcommand works on one curve; got {len(records)}, select with --label"
        )
    return records[0]


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        p=args.p,
        k=args.k,
        prime_bound=args.prime_bound,
        max_nu=args.max_nu,
        max_n=args.max_n,
        D_K=args.DK,
        label=args.region_label,
        cache_dir=args.cache_dir,
        allow_small_p=args.allow_small_p,
        max_evaluations=args.max_evaluations,
    )


def cmd_sieve(args) -> None:
    record = _single_record(args)
    config = _config_from_args(args)
    E = record.to_curve()
    primes = sieve(
        args.family, E, config.p, config.k, config.prime_bound, D_K=config.D_K
    )
    text = io.StringIO()
    dump_primes_jsonl(primes, text)
    _emit(args, text.getvalue())


def _run_region(args, kind: str, entry: str) -> None:
    """delta and stats: one curve's run over the region, reporting one entry of it."""
    fields, _ = _gather(_single_record(args), _config_from_args(args))
    report = _report(kind, **{key: fields[key] for key in ("config", "curve", "region", entry)})
    _emit(args, render_report(report))


def cmd_predict(args) -> None:
    records = _selected_records(args)
    config = _config_from_args(args)
    if len(records) == 1:
        _emit(args, render_report(run_pipeline(records[0], config)))
        return
    reports = [run_pipeline(r, config) for r in records]
    _emit(args, render_report({"kind": "batch", "schema": SCHEMA_VERSION, "reports": reports}))


def _run_gz(args, want_branch: str) -> None:
    record = _single_record(args)
    config = _config_from_args(args)
    if config.D_K is None:
        raise InputError("this subcommand needs --DK")
    _emit(args, render_report(gz_pair(record, config.D_K, config, want_branch=want_branch)))


def cmd_bipartite_sim(args) -> None:
    ctx = ArtinianContext(p=args.p, k=args.k)
    shape = None
    if args.shape:
        try:
            exponents = tuple(int(part) for part in args.shape.split(",") if part.strip())
        except ValueError:
            raise InputError(f"--shape takes comma-separated integers, got {args.shape!r}") from None
        shape = ModuleShape(0, exponents)
    system = generate_system(
        ctx, shape=shape, delta=args.delta, extra_steps=args.steps, seed=args.seed
    )
    steps = []
    for i, state in enumerate(system.states):
        entry = {
            "level": len(state.n),
            "parity": "def" if state.is_definite else "ind",
            "rho": state.rho,
            "e": state.e,
            "m_length": state.m_length,
            "value_index": system.value_index(state),
        }
        if i > 0:
            entry["a"] = system.a_sequence[i - 1]
        steps.append(entry)
    stub_ok = system.stub_bound_holds()
    rigidity = system.observed_rigidity()
    report = _report(
        "bipartite-sim",
        p=args.p,
        k=args.k,
        seed=args.seed,
        shape=system.shape.to_json_dict(),
        delta=system.delta,
        profile={str(r): v for r, v in sorted(lambda_profile(system.shape, system.delta, ctx).items())},
        steps=steps,
        assertions={
            "stub_bound_holds": stub_ok,
            "observed_rigidity": rigidity,
            "rigidity_matches_delta": rigidity == min(ctx.k, system.delta),
        },
    )
    _emit(args, render_report(report))
    if not stub_ok:
        raise InternalInvariantError("a simulated value escaped its stub submodule")
    if rigidity != min(ctx.k, system.delta):
        raise InternalInvariantError("observed rigidity constant differs from delta")


def cmd_gross_points(args) -> None:
    data = make_theta(abs(args.DK))
    theta = local_embedding_theta(args.q, data, args.precision)
    report = _report(
        "gross-points",
        D_K=data.D_K,
        q=args.q,
        precision=args.precision,
        theta={"trace": data.theta_trace, "norm": data.theta_norm},
        embedding_theta={"entries": list(theta.entries), "display": str(theta)},
    )
    if args.beta is not None:
        jmat = local_embedding_J(args.q, data, args.beta, args.precision)
        report["beta"] = args.beta
        report["embedding_J"] = {"entries": list(jmat.entries), "display": str(jmat)}
        report["relations"] = relation_report(args.q, data, args.beta, args.precision)
    if args.case:
        component = gross_point_component(args.q, args.case, data, args.precision)
        report["component"] = {
            "case": component.case,
            "entries": list(component.matrix.entries),
            "display": str(component),
            "denominator_square": component.denominator_square,
        }
    _emit(args, render_report(report))


def cmd_oracle_check(args) -> None:
    records = _selected_records(args)
    rows = []
    for record in records:
        E = record.to_curve()
        sym = isolate_eigensymbol(E)
        algebraic = sym.eval_plus(0, 1)
        numeric = numeric_plus(E, 0, 1, tol=args.tol)
        error = abs(float(algebraic) - numeric)
        scale = abs(float(algebraic))
        relative = error / scale if scale else error
        rows.append(
            {
                "label": record.label,
                "algebraic": str(algebraic),
                "numeric": numeric,
                "relative_error": relative,
                "ok": relative <= args.tol,
            }
        )
    report = _report(
        "oracle-check",
        tolerance=args.tol,
        rows=rows,
        ok=all(row["ok"] for row in rows),
    )
    _emit(args, render_report(report))
    if not report["ok"]:
        bad = [row["label"] for row in rows if not row["ok"]]
        raise InternalInvariantError(f"numeric oracle disagrees with the eigensymbol on {bad}")


# ---------------------------------------------------------------------------
# parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommand table over shared option groups.

    Each group is an add_help=False parser that declares its options once.
    A subcommand inherits the groups its table row names, in that order, so
    its --help lists them in that order too.

    Built on the first call and reused for the life of the process, like
    code_version(): parse_args fills a fresh namespace each time and leaves
    the parser as it was, and the handlers it binds read this module's
    globals when they run.
    """

    def group() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    curve = group()
    curve.add_argument("--curves", required=True, help="JSON-lines curve file")
    curve.add_argument("--label", action="append", help="curve label; repeatable")
    curve.add_argument("--lenient", action="store_true", help="warn instead of rejecting unknown fields")

    run = group()
    run.add_argument("--p", type=int, required=True, help="the working prime")
    run.add_argument("--k", type=int, default=1, help="congruence depth")
    run.add_argument("--prime-bound", type=int, default=300)
    run.add_argument("--max-nu", type=int, default=1)
    run.add_argument("--max-n", type=int, default=10_000_000)
    run.add_argument("--region-label", default="")
    run.add_argument("--allow-small-p", action="store_true")
    run.add_argument("--max-evaluations", type=int, default=DEFAULT_MAX_EVALUATIONS)
    # overridden by the field and cache groups where they are offered
    run.set_defaults(DK=None, cache_dir=None)

    field = group()
    field.add_argument("--DK", type=int, default=None, help="imaginary quadratic discriminant (sign normalized)")

    cache = group()
    cache.add_argument("--cache-dir", default=None, help="report cache for single-curve pipeline runs")

    out = group()
    out.add_argument("--out", default=None, help="write the report here instead of stdout")

    family = group()
    family.add_argument("--family", choices=("cyc", "ac", "adm"), default="cyc")

    walk = group()
    walk.add_argument("--p", type=int, required=True)
    walk.add_argument("--k", type=int, required=True)
    walk.add_argument("--shape", default="", help="comma-separated exponents, e.g. 3,1")
    walk.add_argument("--delta", type=int, default=None)
    walk.add_argument("--steps", type=int, default=20)
    walk.add_argument("--seed", type=int, default=0)

    points = group()
    points.add_argument("--DK", type=int, required=True)
    points.add_argument("--q", type=int, required=True)
    points.add_argument("--case", choices=("away", "split_Nplus", "p_split", "p_inert"), default=None)
    points.add_argument("--beta", type=int, default=None)
    points.add_argument("--precision", type=int, default=10)

    tol = group()
    tol.add_argument("--tol", type=float, default=1e-6)

    pipeline = (curve, run, out)
    pair = (curve, run, field, cache, out)
    commands = (
        ("sieve", cmd_sieve, "list Kolyvagin-type primes for one curve",
         (curve, run, field, out, family)),
        ("delta", partial(_run_region, kind="delta", entry="kurihara"),
         "Kurihara numbers over the region", pipeline),
        ("stats", partial(_run_region, kind="stats", entry="stats"),
         "divisibility statistics over the region", pipeline),
        ("predict", cmd_predict, "full pipeline: stats plus Selmer prediction",
         (curve, run, cache, out)),
        ("gz", partial(_run_gz, want_branch="heegner"),
         "curve/twist pair, indefinite (Heegner) dictionary", pair),
        ("waldspurger", partial(_run_gz, want_branch="waldspurger"),
         "curve/twist pair, definite dictionary", pair),
        ("bipartite-sim", cmd_bipartite_sim, "synthetic bipartite Selmer walk", (walk, out)),
        ("gross-points", cmd_gross_points, "local embedding and component matrices", (points, out)),
        ("oracle-check", cmd_oracle_check,
         "eigensymbol vs numeric series at the central point", (curve, out, tol)),
    )
    parser = argparse.ArgumentParser(
        prog="selmerkit",
        description="Kurihara numbers, divisibility statistics, and Selmer predictions",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, summary, groups in commands:
        subs.add_parser(name, help=summary, parents=groups).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args)
        args.func(args)
    except SelmerkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print(f"error: {args.command} ran out of memory; shrink the region or the level",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
