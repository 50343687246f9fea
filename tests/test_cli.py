"""Curve ingestion, run configs, pipeline reports, and the subcommand surface."""

import hashlib
import inspect
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace

import pytest

import selmerkit

from selmerkit import analytic, cli, modsym, sieves
from selmerkit.cli import (
    CurveRecord,
    RunConfig,
    code_version,
    gz_pair,
    ingest,
    render_report,
    run_pipeline,
)
from selmerkit.curves import quadratic_twist
from selmerkit.errors import HypothesisError, InputError, InternalInvariantError
from selmerkit.selmer_predict import (
    ModuleShape,
    predict_heegner_profile,
    predict_waldspurger_profile,
    synthetic_delta_stats,
)

from conftest import CURVES

SAMPLE = "data/sample_curves.jsonl"
LARGE = "data/large_conductor.jsonl"


def sample_record(label):
    return next(r for r in ingest(SAMPLE) if r.label == label)


# ----------------------------------------------------------------- records


def test_sample_file_ingests():
    records = ingest(SAMPLE)
    assert [r.label for r in records][:3] == ["11a1", "14a1", "15a1"]
    assert len(records) == 11
    r11 = records[0]
    assert r11.ainvs == (0, -1, 1, -10, -20)
    assert r11.root_number == 1 and r11.known_rank == 0
    assert r11.tamagawa == {"11": 5}
    assert r11.p_flags["5"]["surjective"] is False


def test_large_conductor_file_ingests_strictly():
    records = ingest(LARGE)
    assert [(r.label, r.ainvs, r.conductor, r.root_number, r.known_rank) for r in records] == [
        ("389a1", (0, 1, 1, -2, 0), 389, 1, 2),
        ("5077a1", (0, 0, 1, -7, 6), 5077, -1, 3),
    ]
    # no p-flags are asserted: nothing in the repository backs them
    assert all(not r.p_flags for r in records)
    assert [r.to_curve().conductor for r in records] == [389, 5077]


def test_predict_certifies_corank_two_for_389a1(capsys):
    code, out, _ = run_main(
        capsys, "predict", "--curves", LARGE, "--label", "389a1", "--p", "5",
        "--prime-bound", "500", "--max-nu", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["index_count"] == 22
    assert report["prediction"]["shape"] == {"corank": 2, "exponents": []}
    assert report["consistency"]["agrees"]
    assert "flag 'surjective' not asserted at p = 5" in report["hypothesis_notes"]


def test_record_round_trip_hundred_synthetic(tmp_path):
    rng = random.Random(99)
    records = []
    for i in range(100):
        records.append(
            CurveRecord(
                label=f"synth{i}",
                ainvs=(0, rng.randint(-3, 3), 1, rng.randint(-9, 9), rng.randint(1, 9)),
                conductor=1,  # placeholder level; ingestion does not validate models
                root_number=rng.choice((1, -1, None)),
                known_rank=rng.choice((None, 0, 1, 2)),
                tamagawa={"11": rng.randint(1, 9)},
            )
        )
    path = tmp_path / "synth.jsonl"
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r.to_json_dict(), sort_keys=True) + "\n")
    assert ingest(str(path)) == records


def test_empty_file_gives_empty_list(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert ingest(str(path)) == []


def test_malformed_line_is_a_numbered_error(tmp_path, capsys):
    good = b'{"label": "x", "ainvs": [0,0,0,0,1], "conductor": 1}\n'
    path = tmp_path / "bad.jsonl"
    # not JSON, not UTF-8 (a UTF-16 byte order mark), nested past the parser's
    # depth, an integer past the int-from-string digit limit
    for bad in (b"not json\n", b"\xff\xfe{}\n", b"[" * 100_000 + b"\n", b"1" * 5000 + b"\n"):
        path.write_bytes(good + bad)
        with pytest.raises(InputError, match="bad.jsonl:2"):
            ingest(str(path))
        code, out, err = run_main(capsys, "predict", "--curves", str(path), "--p", "7")
        assert code == 2 and out == ""
        assert "bad.jsonl:2" in err and "Traceback" not in err


def test_duplicate_label_strict_vs_lenient(tmp_path):
    line = '{"label": "dup", "ainvs": [0, 0, 0, 0, 1], "conductor": 1}\n'
    path = tmp_path / "dup.jsonl"
    path.write_text(line + line)
    with pytest.raises(InputError, match="duplicate"):
        ingest(str(path))
    assert len(ingest(str(path), strict=False)) == 2


def test_unknown_field_strict_vs_lenient(tmp_path, caplog):
    path = tmp_path / "extra.jsonl"
    path.write_text('{"label": "x", "ainvs": [0,0,0,0,1], "conductor": 1, "color": "blue"}\n')
    with pytest.raises(InputError, match="unknown fields"):
        ingest(str(path))
    with caplog.at_level("WARNING", logger="selmerkit.cli"):
        records = ingest(str(path), strict=False)
    assert len(records) == 1
    assert any("color" in message for message in caplog.messages)


def test_record_validation():
    good = {"label": "x", "ainvs": [0, 0, 0, 0, 1], "conductor": 1}
    with pytest.raises(InputError, match="missing required"):
        CurveRecord.from_json_dict({"label": "x"})
    with pytest.raises(InputError, match="root_number"):
        CurveRecord.from_json_dict(dict(good, root_number=2))
    with pytest.raises(InputError, match="tamagawa"):
        CurveRecord.from_json_dict(dict(good, tamagawa={"4": 1}))
    with pytest.raises(InputError, match="5 entries"):
        CurveRecord.from_json_dict(dict(good, ainvs=[0, 0, 0, 1]))
    with pytest.raises(InputError, match="p_flags"):
        CurveRecord.from_json_dict(dict(good, p_flags={"5": {"shiny": True}}))
    with pytest.raises(InputError, match="p_flags"):
        CurveRecord.from_json_dict(dict(good, p_flags={"07": {}}))  # keys name primes
    with pytest.raises(InputError, match="tamagawa"):
        CurveRecord.from_json_dict(dict(good, tamagawa={"11": 5.0}))


# Each record was accepted with a wrong reading, or crashed, before the
# constructor checked JSON types; both modes now refuse it as input (exit 2).
GOOD_11A1 = {
    "label": "11a1", "ainvs": [0, -1, 1, -10, -20], "conductor": 11, "root_number": 1,
    "p_flags": {"7": {"surjective": True, "manin_ok": True, "condition_cr": None}},
}
BAD_RECORDS = {
    "float_ainv": ({"ainvs": [0, -1, 1, -10.7, -20]}, "ainvs"),  # read as -10
    "float_conductor": ({"conductor": 11.9}, "conductor"),  # read as 11
    "string_ainvs": ({"ainvs": "01234"}, "ainvs"),  # read as (0, 1, 2, 3, 4)
    "bool_root_number": ({"root_number": True}, "root_number"),  # read as +1
    "int_and_string_flags": (  # read as asserted, with no hypothesis note
        {"p_flags": {"7": {"surjective": 0, "manin_ok": "no"}}}, "true, false or null"
    ),
    "list_tamagawa": ({"tamagawa": []}, "tamagawa"),  # AttributeError traceback
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
def test_record_with_a_wrong_json_type_is_refused(tmp_path, capsys, case, lenient):
    change, message = BAD_RECORDS[case]
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(dict(GOOD_11A1, **change)) + "\n")
    argv = ["predict", "--curves", str(path), "--p", "7", "--prime-bound", "100"]
    code, out, err = run_main(capsys, *argv, *(["--lenient"] if lenient else []))
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err
    with pytest.raises(InputError, match=message):
        CurveRecord.from_json_dict(dict(GOOD_11A1, **change), strict=not lenient)


# ------------------------------------------------------------------ config


def test_config_small_p_gate():
    with pytest.raises(HypothesisError, match="allow-small-p"):
        RunConfig(p=3)
    cfg = RunConfig(p=3, allow_small_p=True)
    assert cfg.tainted
    assert not RunConfig(p=7).tainted
    with pytest.raises(InputError):
        RunConfig(p=6)
    with pytest.raises(InputError):
        RunConfig(p=7, k=0)


def test_config_normalizes_field_discriminant():
    assert RunConfig(p=7, D_K=3).D_K == -3
    assert RunConfig(p=7, D_K=-3).D_K == -3
    with pytest.raises(InputError):
        RunConfig(p=7, D_K=5)  # -5 is not fundamental


def test_code_version_is_stable():
    v = code_version()
    assert len(v) == 12 and int(v, 16) >= 0
    assert code_version() == v


# ---------------------------------------------------------------- pipeline


def test_pipeline_report_is_deterministic():
    record = sample_record("11a1")
    cfg = RunConfig(p=7, prime_bound=500)
    first = run_pipeline(record, cfg)
    second = run_pipeline(record, cfg)
    assert render_report(first) == render_report(second)
    assert first["kind"] == "pipeline"
    assert first["prediction"]["shape"] == {"corank": 0, "exponents": []}
    assert first["consistency"]["agrees"] is True
    assert "taint" not in first


def test_pipeline_taint_marker():
    # 11a1 carries no flags at p = 3, so the gate only adds notes; the
    # report must still be marked as outside the proven range
    record = sample_record("11a1")
    cfg = RunConfig(p=3, prime_bound=60, allow_small_p=True)
    report = run_pipeline(record, cfg)
    assert "standing hypothesis" in report["taint"]
    assert any("surjective" in note for note in report["hypothesis_notes"])


def test_pipeline_refuses_false_flag():
    # the sample file asserts the mod-5 representation of 11a1 is reducible
    with pytest.raises(HypothesisError, match="surjective"):
        run_pipeline(sample_record("11a1"), RunConfig(p=5, prime_bound=100))


def test_pipeline_cost_guard():
    with pytest.raises(InputError, match="budget"):
        run_pipeline(sample_record("11a1"), RunConfig(p=7, prime_bound=500, max_evaluations=10))


def test_an_over_budget_region_is_refused_before_it_is_enumerated(capsys, monkeypatch):
    # 37a1 at p = 5 with nu <= 6 below 10^24 has 110,056 indices; their sum
    # of n passes the default budget within the first few hundred
    built = []

    class Counted(sieves.SquarefreeIndex):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(sieves, "SquarefreeIndex", Counted)
    config = RunConfig(p=5, prime_bound=3000, max_nu=6, max_n=10 ** 24)
    with pytest.raises(InputError, match="budget"):
        run_pipeline(sample_record("37a1"), config)
    assert 0 < len(built) < 1000
    code, out, err = run_main(capsys, "predict", "--curves", SAMPLE, "--label", "37a1", "--p", "5",
                              "--prime-bound", "3000", "--max-nu", "6", "--max-n", str(10 ** 24))
    assert code == 2 and out == "" and "budget" in err
    assert len(built) < 2000


def entry_body(path):
    """The report stored in a cache entry, after its checked digest line."""
    digest, body = path.read_text(encoding="utf-8").split("\n", 1)
    assert digest == hashlib.sha256(body.encode()).hexdigest()
    return body


def test_cache_warm_equals_cold(tmp_path):
    record = sample_record("11a1")
    cache = tmp_path / "cache"
    cfg = RunConfig(p=7, prime_bound=500, cache_dir=str(cache))
    cold = run_pipeline(record, cfg)
    files = list(cache.glob("*.json"))
    assert len(files) == 1
    warm = run_pipeline(record, cfg)
    assert render_report(cold) == render_report(warm)
    # the report does not depend on whether a cache was used at all
    bare = run_pipeline(record, RunConfig(p=7, prime_bound=500))
    assert render_report(bare) == render_report(cold)
    assert entry_body(files[0]) == render_report(cold)


def test_unreadable_cache_entry_is_recomputed(tmp_path, capsys, caplog):
    argv = (
        "predict", "--curves", SAMPLE, "--label", "11a1", "--p", "7",
        "--prime-bound", "150", "--cache-dir", str(tmp_path / "cache"),
    )
    code, cold, _ = run_main(capsys, *argv)
    assert code == 0
    (entry,) = (tmp_path / "cache").glob("*.json")
    digest, body = entry.read_bytes().split(b"\n", 1)
    forged = json.loads(body)
    forged["kurihara"][-1]["residue"] += 1
    forged["prediction"]["shape"]["corank"] = 3
    damaged_entries = {
        "edited report, stale digest": digest + b"\n" + render_report(forged).encode(),
        "empty object": b"{}",
        "no digest line": body,
        "truncated": (digest + b"\n" + body)[: len(body) // 2],
        "not UTF-8": b"\xff\xfe\x00garbage",
        "not an object": b"[1, 2]\n",
        "checksummed, not a report": hashlib.sha256(b"{}\n").hexdigest().encode() + b"\n{}\n",
        "checksummed, not JSON": hashlib.sha256(b"not json\n").hexdigest().encode() + b"\nnot json\n",
        "checksummed, not UTF-8": hashlib.sha256(b"\xff\xfe{}\n").hexdigest().encode() + b"\n\xff\xfe{}\n",
    }
    for what, damaged in damaged_entries.items():
        entry.write_bytes(damaged)
        caplog.clear()
        with caplog.at_level("WARNING", logger="selmerkit.cli"):
            code, warm, err = run_main(capsys, *argv)
        assert code == 0 and "Traceback" not in err, what
        assert "fails its checksum or is not a report; recomputing" in caplog.text, what
        assert warm == cold, what
        assert entry.read_bytes() == digest + b"\n" + cold.encode(), what


def test_an_entry_under_another_key_is_recomputed(tmp_path, capsys, caplog):
    # a well-formed report is served only under the key of its own curve,
    # config and code version
    cache = tmp_path / "cache"

    def predict(label, bound):
        code, out, _ = run_main(capsys, "predict", "--curves", SAMPLE, "--label", label, "--p", "7",
                                "--prime-bound", bound, "--cache-dir", str(cache))
        assert code == 0
        return out

    predict("11a1", "100")
    (other_curve,) = cache.glob("*.json")
    predict("37a1", "150")
    (other_config,) = set(cache.glob("*.json")) - {other_curve}
    cold = predict("37a1", "100")
    (entry,) = set(cache.glob("*.json")) - {other_curve, other_config}
    own = entry.read_bytes()
    stale = json.loads(entry_body(entry))
    stale["code_version"] = "0" * 12
    stale_body = render_report(stale).encode()
    forged_entries = {
        "another curve": other_curve.read_bytes(),
        "another config": other_config.read_bytes(),
        "another code version": hashlib.sha256(stale_body).hexdigest().encode() + b"\n" + stale_body,
    }
    for what, forged in forged_entries.items():
        entry.write_bytes(forged)
        caplog.clear()
        with caplog.at_level("WARNING", logger="selmerkit.cli"):
            warm = predict("37a1", "100")
        assert "holds the report of another run; recomputing" in caplog.text, what
        assert warm == cold, what
        assert entry.read_bytes() == own, what


@pytest.mark.parametrize("command, label, p, field", [
    ("predict", "11a1", "7", ()),
    ("gz", "37a1", "5", ("--DK", "-3")),
])
def test_cache_entry_that_cannot_be_read_or_written_exits_2(tmp_path, capsys, caplog, command, label, p, field):
    cache = tmp_path / "cache"
    argv = (
        command, "--curves", SAMPLE, "--label", label, "--p", p, *field,
        "--prime-bound", "150", "--max-nu", "1", "--cache-dir", str(cache),
    )
    code, _, _ = run_main(capsys, *argv)
    assert code == 0
    entries = sorted(cache.iterdir())
    for entry in entries:
        # a directory in the entry's place can be neither read nor replaced
        entry.unlink()
        entry.mkdir()
    code, out, err = run_main(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert "cannot write cache entry" in err and any(str(e) in err for e in entries)
    # the read failure was a logged miss, so the run went on to the write
    assert "cannot be read" in caplog.text
    assert sorted(cache.iterdir()) == entries  # no temporary file is left


def test_missing_curve_file_exits_2(tmp_path, capsys):
    code, out, err = run_main(
        capsys, "predict", "--curves", str(tmp_path / "absent.jsonl"), "--p", "7",
    )
    assert code == 2 and out == ""
    assert "absent.jsonl" in err and "Traceback" not in err


def test_curve_with_close_period_roots_exits_4_not_1(tmp_path, capsys):
    # N = 37, Delta = 37, 3-isogenous to 37b1: two roots of its cubic agree
    # to four digits; the sign pin refuses the model, which is not
    # X_0(37)-optimal, at numeric/exact ratio 3
    curves_file = tmp_path / "curves.jsonl"
    curves_file.write_text(json.dumps(
        {"ainvs": [0, 1, 1, -1873, -31833], "conductor": 37, "label": "37x3", "root_number": 1}
    ) + "\n")
    code, out, err = run_main(
        capsys, "predict", "--curves", str(curves_file), "--p", "5",
        "--prime-bound", "200", "--max-nu", "1",
    )
    assert code == 4 and out == ""
    assert err.startswith("error: normalized symbol disagrees with direct integration: -2.0 vs ")
    assert pin_ratio(err) == 3


def test_cold_multi_curve_batch_matches_single_runs(tmp_path, capsys):
    labels = ["15a1", "19a1", "37b1"]
    cache = tmp_path / "cache"
    single_argv = ("--p", "7", "--prime-bound", "150", "--cache-dir", str(cache))
    # warm the cache for one curve only, so the batch has two misses
    code, _, _ = run_main(capsys, "predict", "--curves", SAMPLE, "--label", labels[0], *single_argv)
    assert code == 0
    batch_argv = [arg for label in labels for arg in ("--label", label)]
    code, out, err = run_main(capsys, "predict", "--curves", SAMPLE, *batch_argv, *single_argv)
    assert code == 0 and "Traceback" not in err
    batch = json.loads(out)
    assert [r["curve"]["label"] for r in batch["reports"]] == labels
    for label, report in zip(labels, batch["reports"]):
        alone = run_pipeline(sample_record(label), RunConfig(p=7, prime_bound=150))
        assert render_report(report) == render_report(alone)


# ----------------------------------------------------------- gz end to end


def test_gz_pair_end_to_end_matches_components():
    # one real indefinite pair: 17a1 over Q(i), where the twist has rank 1
    record = sample_record("17a1")
    cfg = RunConfig(p=7, prime_bound=600, D_K=-4)
    report = gz_pair(record, -4, cfg)
    assert report["branch"] == "heegner"
    assert report["field"] == {"D_K": -4, "n_plus": 17, "n_minus": 1, "nu_minus": 0}
    assert report["prediction"]["shape_E"] == {"corank": 0, "exponents": []}
    assert report["prediction"]["shape_EK"] == {"corank": 1, "exponents": []}
    assert report["prediction"]["profile"]["ord_kappa"] == 0
    assert all(c["ok"] for c in report["prediction"]["identities"])
    # embedded component reports equal standalone pipeline runs, which do
    # not read the field
    curve_cfg = replace(cfg, D_K=None)
    assert report["curve"] == run_pipeline(record, curve_cfg)
    twist = quadratic_twist(record.to_curve(), -4)
    assert twist.label == "17a1x-4"
    twist_record = CurveRecord(label=twist.label, ainvs=twist.ainvs, conductor=twist.conductor)
    assert report["twist"] == run_pipeline(twist_record, curve_cfg)


def test_gz_pair_reads_the_twist_off_the_curve_and_cuts_only_the_curve(monkeypatch):
    # the twist's symbol comes from twist_eigensymbol, and no relation kernel
    # is solved at the twist's level 333: every solve is at most 38 wide,
    # the generator count at N = 37
    solve, twisted = modsym.sparse_nullspace, cli.twist_eigensymbol
    widths, twists, cuts = [], [], []

    def counted(rows, ncols):
        widths.append(ncols)
        return solve(rows, ncols)

    def recorded(sym, D, twist):
        twists.append((sym.curve.label, D, twist.label))
        return twisted(sym, D, twist)

    def cut(E):
        cuts.append(E.label)
        return modsym.isolate_eigensymbol(E)

    monkeypatch.setattr(modsym, "sparse_nullspace", counted)
    monkeypatch.setattr(cli, "twist_eigensymbol", recorded)
    monkeypatch.setattr(cli, "isolate_eigensymbol", cut)
    report = gz_pair(sample_record("37a1"), -3, RunConfig(p=5, prime_bound=150, D_K=-3))
    assert report["twist"]["curve"]["conductor"] == 333
    assert twists == [("37a1", -3, "37a1x-3")] and cuts == ["37a1"]
    assert widths and max(widths) == 38


def test_a_pair_cuts_the_curve_at_most_once(monkeypatch, tmp_path):
    # E's symbol serves its own run and the twist's; with E's run served
    # from the cache, it is cut for the twist alone
    isolate, cuts = modsym._isolate_functionals, []

    def counted(E, space):
        cuts.append((E.label, space.N))
        return isolate(E, space)

    monkeypatch.setattr(modsym, "_isolate_functionals", counted)
    record, cfg = sample_record("37a1"), RunConfig(p=5, prime_bound=150, D_K=-3)
    cold = gz_pair(record, -3, cfg)
    assert cuts == [("37a1", 37)]
    cached = replace(cfg, cache_dir=str(tmp_path))
    run_pipeline(record, replace(cached, D_K=None))
    cuts.clear()
    assert render_report(gz_pair(record, -3, cached)) == render_report(cold)
    assert cuts == [("37a1", 37)]


PIN_REFUSAL = re.compile(
    r"error: normalized symbol disagrees with direct integration: (\S+) vs (\S+) \(bound (\S+)\)\n"
)


def pin_ratio(err):
    """k with numeric = k * exact within the pin's bound, from a pin refusal."""
    exact, numeric, bound = map(float, PIN_REFUSAL.fullmatch(err).groups())
    k = round(numeric / exact)
    assert abs(numeric - k * exact) <= bound, (exact, numeric, bound)
    return k


def test_waldspurger_refusal_at_the_twisted_level_240_exits_4(capsys):
    # 15a1 x -4: the exact pin value is half the cycle period (ROADMAP item 2)
    code, out, err = run_main(
        capsys, "waldspurger", "--curves", SAMPLE, "--label", "15a1", "--DK", "-4",
        "--p", "7", "--prime-bound", "300", "--max-nu", "1",
    )
    assert code == 4 and out == ""
    assert err.startswith("error: normalized symbol disagrees with direct integration: -1.5 vs ")
    assert pin_ratio(err) == 2


# ROADMAP item 2's table: a real twist ingested as a curve of its own is
# refused at the pin, with numeric/exact an exact integer
@pytest.mark.parametrize("label, D, ratio", [("14a1", 5, 3), ("15a1", 8, 4), ("11a1", 5, 5)])
def test_real_twist_refusals_keep_their_integer_ratios(tmp_path, capsys, label, D, ratio):
    T = quadratic_twist(CURVES[label], D)
    curves_file = tmp_path / "curves.jsonl"
    curves_file.write_text(json.dumps({"ainvs": list(T.ainvs), "conductor": T.conductor, "label": T.label}) + "\n")
    code, out, err = run_main(
        capsys, "predict", "--curves", str(curves_file), "--p", "7", "--prime-bound", "200", "--max-nu", "1",
    )
    assert code == 4 and out == ""
    assert pin_ratio(err) == ratio


@pytest.mark.parametrize("label", ["11a1", "37a1"])
def test_a_flipped_fricke_sign_makes_the_pin_refuse(capsys, monkeypatch, label):
    real = modsym.cycle_period
    monkeypatch.setattr(modsym, "cycle_period", lambda E, b, d, w: real(E, b, d, -w))
    code, out, err = run_main(
        capsys, "predict", "--curves", SAMPLE, "--label", label, "--p", "7", "--prime-bound", "200", "--max-nu", "1",
    )
    assert code == 4 and out == ""
    assert PIN_REFUSAL.fullmatch(err)


def test_an_unreachable_cusp_is_refused_and_oracle_check_exits_4(capsys, monkeypatch):
    # every end at the last cusp class is sent to class 0, so no generator
    # reaches that cusp and the value group has no spanning tree
    build = modsym.ManinSpace._build_boundary

    def stranded(self):
        build(self)
        last = self.ncusps - 1
        self.cusp_ends = [tuple(0 if k == last else k for k in ends) for ends in self.cusp_ends]

    monkeypatch.setattr(modsym.ManinSpace, "_build_boundary", stranded)
    with pytest.raises(InternalInvariantError, match="connect 1 of 2 cusp classes"):
        modsym.isolate_eigensymbol(CURVES["11a1"])
    code, out, err = run_main(capsys, "oracle-check", "--curves", SAMPLE, "--label", "11a1")
    assert code == 4 and out == ""
    assert err == "error: the generators at N=11 connect 1 of 2 cusp classes\n"


def test_dropping_the_fixed_point_series_makes_the_pin_refuse(capsys, monkeypatch):
    # the mutant sums only the first series, so at w = -1 it misses -[0]+
    source = inspect.getsource(analytic.cycle_period)
    line = "        series.append((1, [-2.0]))\n"
    assert source.count(line) == 1
    namespace = dict(vars(analytic))
    exec(source.replace(line, "        pass\n"), namespace)
    monkeypatch.setattr(modsym, "cycle_period", namespace["cycle_period"])
    code, out, err = run_main(
        capsys, "predict", "--curves", SAMPLE, "--label", "11a1", "--p", "7", "--prime-bound", "200", "--max-nu", "1",
    )
    assert code == 4 and out == ""
    assert PIN_REFUSAL.fullmatch(err)


def test_waldspurger_certifies_ord_lambda_two_for_389a1(capsys):
    # rank 2 over Q(sqrt(-3)): the twist lives at N = 3501
    code, out, _ = run_main(
        capsys, "waldspurger", "--curves", LARGE, "--label", "389a1", "--DK", "-3",
        "--p", "5", "--prime-bound", "300", "--max-nu", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["twist"]["curve"]["conductor"] == 3501
    prediction = report["prediction"]
    assert prediction["ord_lambda"] == 2
    assert prediction["shape_K"] == {"corank": 2, "exponents": []}
    assert all(c["ok"] for c in prediction["identities"])


def test_gz_certifies_both_shapes_for_389a1_over_Q_i(capsys):
    # the twist lives at N = 6224
    code, out, _ = run_main(
        capsys, "gz", "--curves", LARGE, "--label", "389a1", "--DK", "-4",
        "--p", "5", "--prime-bound", "300", "--max-nu", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["twist"]["curve"]["conductor"] == 6224
    prediction = report["prediction"]
    assert prediction["shape_E"] == {"corank": 2, "exponents": []}
    assert prediction["shape_EK"] == {"corank": 1, "exponents": []}
    assert prediction["profile"]["ord_kappa"] == 1
    assert all(c["ok"] for c in prediction["identities"])


def test_gz_pair_rejects_ramified_p():
    with pytest.raises(HypothesisError, match="ramifies"):
        gz_pair(sample_record("11a1"), -7, RunConfig(p=7, prime_bound=100))


def test_swapping_sides_mirrors_the_dictionary():
    stats_a = synthetic_delta_stats(ModuleShape(0, (2,)), label="a")
    stats_b = synthetic_delta_stats(ModuleShape(1, (1,)), label="b")
    fwd = predict_heegner_profile(stats_a, stats_b, W=1)
    rev = predict_heegner_profile(stats_b, stats_a, W=-1)
    assert fwd.profile.ord_kappa == rev.profile.ord_kappa
    assert fwd.profile.normalized_partials == rev.profile.normalized_partials
    assert fwd.profile.root_number_side == -rev.profile.root_number_side
    assert (fwd.shape_E, fwd.shape_EK) == (rev.shape_EK, rev.shape_E)
    # the definite dictionary needs even total corank, so reuse even sides
    stats_c = synthetic_delta_stats(ModuleShape(0, (3, 1)), label="c")
    stats_d = synthetic_delta_stats(ModuleShape(0, (2,)), label="d")
    wf = predict_waldspurger_profile(stats_c, stats_d)
    wr = predict_waldspurger_profile(stats_d, stats_c)
    assert wf.shape_K == wr.shape_K
    assert wf.ord_lambda == wr.ord_lambda
    assert wf.normalized_partials == wr.normalized_partials


# ------------------------------------------------------------- subcommands


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_predict_subcommand(capsys):
    code, out, _ = run_main(
        capsys, "predict", "--curves", SAMPLE, "--label", "11a1", "--p", "7",
        "--prime-bound", "500",
    )
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "pipeline"
    assert report["consistency"]["agrees"] is True


def test_predict_batch_keeps_input_order(capsys):
    code, out, _ = run_main(
        capsys, "predict", "--curves", SAMPLE, "--label", "15a1", "--label", "11a1",
        "--p", "7", "--prime-bound", "300",
    )
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "batch"
    assert [r["curve"]["label"] for r in report["reports"]] == ["15a1", "11a1"]
    assert all(r["consistency"]["agrees"] for r in report["reports"])


def test_stats_and_delta_subcommands(capsys):
    code, out, _ = run_main(
        capsys, "stats", "--curves", SAMPLE, "--label", "11a1", "--p", "7",
        "--prime-bound", "500",
    )
    assert code == 0 and json.loads(out)["kind"] == "stats"
    code, out, _ = run_main(
        capsys, "delta", "--curves", SAMPLE, "--label", "11a1", "--p", "7",
        "--prime-bound", "500",
    )
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "delta"
    assert report["kurihara"][0]["n"] == 1


def test_sieve_subcommand_emits_jsonl(capsys):
    code, out, _ = run_main(
        capsys, "sieve", "--curves", SAMPLE, "--label", "11a1", "--p", "7",
        "--prime-bound", "500",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines() if line]
    assert all(row["family"] == "cyc" for row in rows)
    assert [row["q"] for row in rows] == sorted(row["q"] for row in rows)


def test_exit_code_hypothesis_violation(capsys):
    code, _, err = run_main(
        capsys, "predict", "--curves", SAMPLE, "--label", "11a1", "--p", "5",
        "--prime-bound", "100",
    )
    assert code == 2 and "surjective" in err


def test_exit_code_inconclusive_region(capsys):
    # rank one curve with only the n = 1 stratum: nothing nonzero can appear
    code, _, err = run_main(
        capsys, "predict", "--curves", SAMPLE, "--label", "37a1", "--p", "5",
        "--prime-bound", "50", "--max-nu", "0",
    )
    assert code == 3 and "region" in err


def test_exit_code_bad_label(capsys):
    code, _, err = run_main(
        capsys, "predict", "--curves", SAMPLE, "--label", "nope", "--p", "7",
    )
    assert code == 2 and "nope" in err


def write_curves(path, *records):
    """A curve file of the given record dicts, one JSON line each."""
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    return str(path)


def edited_record(label, **changes):
    """The sample record's JSON dict, with the given fields replaced."""
    return {**sample_record(label).to_json_dict(), **changes}


def test_blank_and_whitespace_lines_are_skipped(tmp_path, capsys):
    lines = [json.dumps(sample_record(label).to_json_dict()) for label in ("11a1", "37a1")]
    path = tmp_path / "spaced.jsonl"
    path.write_text("\n" + lines[0] + "\n   \n\t\n" + lines[1] + "\n\n")
    assert [r.label for r in ingest(str(path))] == ["11a1", "37a1"]
    region = ("--label", "37a1", "--p", "5", "--prime-bound", "100")
    code, out, err = run_main(capsys, "sieve", "--curves", str(path), *region)
    assert code == 0 and err == ""
    assert out == run_main(capsys, "sieve", "--curves", SAMPLE, *region)[1]


def test_gz_without_a_root_number_exits_2_before_any_pipeline(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a pipeline ran before the root number was checked")

    monkeypatch.setattr(cli, "run_pipeline", no_run)
    record = edited_record("37a1")
    del record["root_number"]
    # 37 splits in Q(sqrt(-3)), which selects the Heegner dictionary
    code, out, err = run_main(
        capsys, "gz", "--curves", write_curves(tmp_path / "c.jsonl", record),
        "--label", "37a1", "--p", "5", "--DK", "-3", "--prime-bound", "150",
    )
    assert code == 2 and out == ""
    assert "37a1: the indefinite dictionary needs root_number in the record" in err


@pytest.mark.parametrize("argv, message", [
    (("gz", "--label", "37a1", "--p", "5"), "this subcommand needs --DK"),
    (("delta", "--label", "11a1", "--label", "37a1", "--p", "7"),
     "this subcommand works on one curve; got 2, select with --label"),
    (("predict", "--label", "11a1", "--p", "7", "--max-evaluations", "0"),
     "max_evaluations must be positive"),
    (("predict", "--label", "11a1", "--p", "7", "--max-nu", "-1"), "degenerate region bounds"),
], ids=["gz-without-DK", "delta-two-labels", "max-evaluations-0", "max-nu-negative"])
def test_bad_option_exits_2_with_its_message(capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("an eigensymbol was computed for a refused command")

    monkeypatch.setattr(modsym, "build_manin_space", no_work)
    code, out, err = run_main(capsys, argv[0], "--curves", SAMPLE, *argv[1:])
    assert code == 2 and out == ""
    assert f"error: {message}" in err and "Traceback" not in err


def test_out_naming_a_directory_exits_2(tmp_path, capsys):
    code, out, err = run_main(
        capsys, "sieve", "--curves", SAMPLE, "--label", "11a1", "--p", "7",
        "--prime-bound", "150", "--out", str(tmp_path),
    )
    assert code == 2 and out == ""
    assert f"error: cannot write {tmp_path}: " in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_condition_cr_asserted_false_is_noted(tmp_path, capsys):
    flags = {"7": {"condition_cr": False, "manin_ok": True, "surjective": True}}
    path = write_curves(tmp_path / "c.jsonl", edited_record("11a1", p_flags=flags))
    code, out, _ = run_main(capsys, "predict", "--curves", path, "--p", "7", "--prime-bound", "150")
    assert code == 0
    assert json.loads(out)["hypothesis_notes"] == ["condition_cr asserted false at p = 7"]


def test_unknown_p_flags_key_strict_vs_lenient(tmp_path, capsys, caplog):
    flags = {"7": {"colour": True, "manin_ok": True, "surjective": True}}
    path = write_curves(tmp_path / "c.jsonl", edited_record("11a1", p_flags=flags))
    argv = ("predict", "--curves", path, "--p", "7", "--prime-bound", "150")
    code, out, err = run_main(capsys, *argv)
    assert code == 2 and out == ""
    assert "unknown p_flags keys ['colour'] at p = 7" in err
    with caplog.at_level("WARNING", logger="selmerkit.cli"):
        code, out, _ = run_main(capsys, *argv, "--lenient")
    assert code == 0 and json.loads(out)["kind"] == "pipeline"
    assert "unknown p_flags keys ['colour'] at p = 7" in caplog.text


def test_gz_at_a_small_p_carries_the_taint(capsys):
    code, out, _ = run_main(
        capsys, "gz", "--curves", SAMPLE, "--label", "37a1", "--DK", "-4", "--p", "3",
        "--allow-small-p", "--prime-bound", "200",
    )
    assert code == 0
    report = json.loads(out)
    assert report["branch"] == "heegner"
    assert report["taint"] == report["curve"]["taint"]
    assert "p = 3 violates the standing hypothesis" in report["taint"]


def test_waldspurger_subcommand_and_branch_guard(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    argv = (
        "--curves", SAMPLE, "--label", "11a1", "--p", "7", "--DK", "3",
        "--prime-bound", "500", "--cache-dir", str(cache),
    )
    code, out, _ = run_main(capsys, "waldspurger", *argv)
    assert code == 0
    report = json.loads(out)
    assert report["branch"] == "waldspurger"
    assert report["field"]["nu_minus"] == 1
    assert report["prediction"]["ord_lambda"] == 0
    # the pair is cached as its two curve runs and nothing else
    entries = sorted(cache.iterdir())
    labels = sorted(json.loads(entry_body(e))["curve"]["label"] for e in entries)
    assert labels == ["11a1", "11a1x-3"] and all(e.suffix == ".json" for e in entries)

    def no_symbols(*args, **kwargs):
        raise AssertionError("a warm pair must not isolate an eigensymbol")

    monkeypatch.setattr(cli, "isolate_eigensymbol", no_symbols)
    monkeypatch.setattr(cli, "twist_eigensymbol", no_symbols)
    code, warm, _ = run_main(capsys, "waldspurger", *argv)
    assert code == 0 and warm == out
    # the same field is definite, so the indefinite subcommand refuses,
    # after reusing both curve runs
    code, _, err = run_main(capsys, "gz", *argv)
    assert code == 2 and "waldspurger" in err
    assert sorted(cache.iterdir()) == entries


def test_curve_runs_are_not_keyed_by_the_field(capsys, tmp_path):
    cache = tmp_path / "cache"
    region = ("--curves", SAMPLE, "--label", "37a1", "--p", "5", "--prime-bound", "150",
              "--cache-dir", str(cache))
    code, predicted, _ = run_main(capsys, "predict", *region)
    assert code == 0
    for DK in ("-3", "-4"):
        code, out, _ = run_main(capsys, "gz", *region, "--DK", DK)
        assert code == 0
        assert render_report(json.loads(out)["curve"]) == predicted
    # 37a1 once, and one twist per field
    labels = sorted(json.loads(entry_body(e))["curve"]["label"] for e in cache.iterdir())
    assert labels == ["37a1", "37a1x-3", "37a1x-4"]


# 37 and 17 split in Q(sqrt(-3)) and Q(i), so those fields select the
# Heegner dictionary; 17 is inert in Q(sqrt(-3)), which selects Waldspurger
@pytest.mark.parametrize("command, label, DK, p", [
    ("waldspurger", "37a1", "-3", "5"),
    ("waldspurger", "17a1", "-4", "7"),
    ("gz", "17a1", "-3", "5"),
])
def test_wrong_branch_is_refused_before_any_pipeline(capsys, monkeypatch, command, label, DK, p):
    def no_work(*args, **kwargs):
        raise AssertionError("an eigensymbol was computed before the branch was checked")

    monkeypatch.setattr(cli, "isolate_eigensymbol", no_work)
    code, out, err = run_main(
        capsys, command, "--curves", SAMPLE, "--label", label, "--p", p, "--DK", DK,
        "--prime-bound", "300", "--max-nu", "1",
    )
    other = "gz" if command == "waldspurger" else "waldspurger"
    assert code == 2 and out == ""
    assert f"use the {other} subcommand" in err and "Traceback" not in err


def test_bipartite_sim_subcommand(capsys):
    argv = (
        "bipartite-sim", "--p", "5", "--k", "4", "--shape", "2,1", "--delta", "1",
        "--steps", "15", "--seed", "3",
    )
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["shape"] == {"corank": 0, "exponents": [2, 1]}
    assert report["assertions"]["stub_bound_holds"] is True
    assert report["assertions"]["rigidity_matches_delta"] is True
    assert report["profile"] == {"0": 4, "2": 2, "4": 1, "6": 1}
    assert len(report["steps"]) >= 15
    assert report["steps"][0]["parity"] == "def" and "a" not in report["steps"][0]
    assert all("a" in entry for entry in report["steps"][1:])
    code2, out2, _ = run_main(capsys, *argv)
    assert code2 == 0 and out2 == out  # seeded, byte-identical


@pytest.mark.parametrize("option, value, message", [
    ("--shape", "a", "comma-separated integers"),
    ("--steps", "-1", "extra_steps must be nonnegative"),
])
def test_bipartite_sim_refuses_bad_input(capsys, option, value, message):
    code, out, err = run_main(capsys, "bipartite-sim", "--p", "5", "--k", "3", option, value)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_seed_is_not_a_pipeline_option(capsys):
    # bipartite-sim keeps its --seed (test_bipartite_sim_subcommand)
    with pytest.raises(SystemExit) as exc:
        cli.main(["predict", "--curves", SAMPLE, "--label", "11a1", "--p", "7", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert "seed" not in RunConfig(p=7).to_json_dict()


def test_gross_points_subcommand(capsys):
    code, out, _ = run_main(
        capsys, "gross-points", "--DK", "7", "--q", "5", "--beta", "4",
        "--case", "p_inert", "--precision", "10",
    )
    assert code == 0
    report = json.loads(out)
    assert report["theta"] == {"trace": 7, "norm": 14}
    assert all(report["relations"].values())
    assert report["component"]["entries"] == [0, 1, 5**10 - 1, 0]


def test_oracle_check_subcommand(capsys):
    code, out, _ = run_main(
        capsys, "oracle-check", "--curves", SAMPLE, "--label", "11a1",
        "--label", "17a1", "--tol", "1e-6",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert [row["label"] for row in report["rows"]] == ["11a1", "17a1"]


def test_oracle_check_meets_the_least_tolerance_it_accepts(capsys):
    code, out, _ = run_main(
        capsys, "oracle-check", "--curves", SAMPLE, "--label", "11a1", "--tol", "1e-14",
    )
    assert code == 0 and json.loads(out)["ok"] is True


# 1e-15 is below the floor: the float series alone errs by 1.3-2.5e-15
@pytest.mark.parametrize("tol", ["0", "1e-15", "-1", "nan", "inf", "1", "100", "1e30"])
def test_oracle_check_refuses_a_tolerance_outside_0_1(capsys, tol):
    code, out, err = run_main(
        capsys, "oracle-check", "--curves", SAMPLE, "--label", "11a1", "--tol", tol,
    )
    assert code == 2 and out == ""
    assert "tolerance" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["oracle-check", "--curves", SAMPLE, "--label", "11a1"],
    ["gz", "--curves", SAMPLE, "--label", "37a1", "--DK", "-3", "--p", "5", "--prime-bound", "100"],
])
def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch, argv):
    def exhausted(E):
        raise MemoryError
    monkeypatch.setattr(cli, "isolate_eigensymbol", exhausted)
    code, out, err = run_main(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {argv[0]} ran out of memory; shrink the region or the level\n"


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_main(
        capsys, "stats", "--curves", SAMPLE, "--label", "11a1", "--p", "7",
        "--prime-bound", "500", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["kind"] == "stats"


@pytest.mark.parametrize("command", ["stats", "sieve", "waldspurger"])
def test_out_into_missing_directory_exits_2(tmp_path, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("the eigensymbol was computed before --out was checked")

    monkeypatch.setattr(modsym, "build_manin_space", no_work)
    target = tmp_path / "absent" / "report.json"
    field = ["--DK", "-3"] if command == "waldspurger" else []
    code, out, err = run_main(
        capsys, command, "--curves", SAMPLE, "--label", "11a1", "--p", "7",
        "--prime-bound", "150", *field, "--out", str(target),
    )
    assert code == 2 and out == ""
    assert "absent" in err and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("command", ["predict", "stats", "sieve", "waldspurger"])
def test_out_that_is_a_directory_exits_2(tmp_path, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("the eigensymbol was computed before --out was checked")

    monkeypatch.setattr(modsym, "build_manin_space", no_work)
    target = tmp_path / "reports"
    target.mkdir()
    field = ["--DK", "-3"] if command == "waldspurger" else []
    code, out, err = run_main(
        capsys, command, "--curves", SAMPLE, "--label", "11a1", "--p", "7",
        "--prime-bound", "150", *field, "--out", str(target),
    )
    assert code == 2 and out == ""
    assert "is a directory" in err and "Traceback" not in err
    assert target.is_dir() and not any(target.iterdir())


@pytest.mark.parametrize("command", ["sieve", "delta", "stats"])
def test_cache_dir_is_offered_only_where_reports_are_cached(tmp_path, capsys, command):
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--curves", SAMPLE, "--label", "11a1", "--p", "7",
                  "--prime-bound", "150", "--cache-dir", str(cache)])
    assert exc.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize("command", ["predict", "delta", "stats"])
def test_DK_is_offered_only_where_a_field_is_used(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--curves", SAMPLE, "--label", "11a1", "--p", "7",
                  "--prime-bound", "150", "--DK", "-3"])
    assert exc.value.code == 2
    assert "--DK" in capsys.readouterr().err


# every option a pipeline subcommand parses, at its default
PIPELINE_DEFAULTS = {
    "curves": "c.jsonl", "label": None, "lenient": False,
    "p": 7, "k": 1, "prime_bound": 300, "max_nu": 1, "max_n": 10_000_000, "DK": None,
    "region_label": "", "allow_small_p": False, "max_evaluations": 5_000_000,
    "cache_dir": None, "out": None,
}
PIPELINE = ("--curves", "c.jsonl", "--p", "7")

# one representative argv per subcommand, and its parsed namespace minus func
PARSED = {
    "sieve": (
        (*PIPELINE, "--label", "11a1", "--DK", "-3", "--family", "ac"),
        {**PIPELINE_DEFAULTS, "label": ["11a1"], "DK": -3, "family": "ac"},
    ),
    "delta": (
        (*PIPELINE, "--label", "11a1", "--label", "14a1", "--k", "2", "--prime-bound", "500",
         "--max-nu", "2", "--out", "r.json"),
        {**PIPELINE_DEFAULTS, "label": ["11a1", "14a1"], "k": 2, "prime_bound": 500,
         "max_nu": 2, "out": "r.json"},
    ),
    "stats": (
        ("--curves", "c.jsonl", "--lenient", "--p", "3", "--allow-small-p",
         "--region-label", "west", "--max-n", "1000"),
        {**PIPELINE_DEFAULTS, "lenient": True, "p": 3, "allow_small_p": True,
         "region_label": "west", "max_n": 1000},
    ),
    "predict": (
        (*PIPELINE, "--cache-dir", "cache", "--max-evaluations", "99"),
        {**PIPELINE_DEFAULTS, "cache_dir": "cache", "max_evaluations": 99},
    ),
    "gz": (
        ("--curves", "c.jsonl", "--label", "37a1", "--p", "5", "--DK", "-3"),
        {**PIPELINE_DEFAULTS, "label": ["37a1"], "p": 5, "DK": -3},
    ),
    "waldspurger": (
        (*PIPELINE, "--label", "11a1", "--DK", "3", "--out", "w.json"),
        {**PIPELINE_DEFAULTS, "label": ["11a1"], "DK": 3, "out": "w.json"},
    ),
    "bipartite-sim": (
        ("--p", "5", "--k", "4", "--shape", "2,1", "--seed", "3"),
        {"p": 5, "k": 4, "shape": "2,1", "delta": None, "steps": 20, "seed": 3, "out": None},
    ),
    "gross-points": (
        ("--DK", "7", "--q", "5", "--case", "p_inert"),
        {"DK": 7, "q": 5, "case": "p_inert", "beta": None, "precision": 10, "out": None},
    ),
    "oracle-check": (
        ("--curves", "c.jsonl", "--label", "11a1", "--tol", "1e-8"),
        {"curves": "c.jsonl", "label": ["11a1"], "lenient": False, "out": None, "tol": 1e-8},
    ),
}


@pytest.mark.parametrize("command", sorted(PARSED))
def test_parsed_namespace_is_pinned(command):
    argv, expected = PARSED[command]
    parsed = vars(cli.build_parser().parse_args([command, *argv]))
    assert callable(parsed.pop("func"))
    assert parsed == {"command": command, **expected}


def test_the_shared_parser_leaks_no_state_between_parses():
    parser = cli.build_parser()

    def parse(command, *argv):
        parsed = vars(parser.parse_args([command, *argv]))
        assert callable(parsed.pop("func"))
        return parsed

    # every pinned command twice, interleaved, through the one parser
    for _ in range(2):
        for command in sorted(PARSED):
            argv, expected = PARSED[command]
            assert parse(command, *argv) == {"command": command, **expected}

    # --label appends to a fresh list each parse
    first = parse("delta", *PARSED["delta"][0])
    second = parse("delta", *PARSED["delta"][0])
    assert first["label"] == second["label"] == ["11a1", "14a1"]
    assert first["label"] is not second["label"]
    assert parse("predict", *PIPELINE)["label"] is None

    # a dest another group set on an earlier parse falls back to its default
    parse("gross-points", *PARSED["gross-points"][0])
    assert parse("predict", *PIPELINE) == {"command": "predict", **PIPELINE_DEFAULTS}
    parse("gz", *PARSED["gz"][0], "--cache-dir", "cache")
    assert parse("predict", *PIPELINE) == {"command": "predict", **PIPELINE_DEFAULTS}

    # --p and --DK are declared by several groups and convert to int in each
    walk = parse("bipartite-sim", *PARSED["bipartite-sim"][0])
    points = parse("gross-points", *PARSED["gross-points"][0])
    run = parse("sieve", *PARSED["sieve"][0])
    assert [type(value) for value in (walk["p"], points["DK"], run["p"], run["DK"])] == [int] * 4


BUILD_COUNT_CHILD = r"""
from selmerkit import cli

print(cli.build_parser.cache_info().misses)
"""


def test_main_builds_the_parser_once_per_process(tmp_path, capsys):
    src = os.path.dirname(os.path.dirname(selmerkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", BUILD_COUNT_CHILD], capture_output=True, text=True, env=env, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) == 0  # importing the module builds no parser

    cli.build_parser.cache_clear()
    argv = ["gross-points", "--DK", "7", "--q", "5", "--case", "p_inert"]
    for name in ("a.json", "b.json"):
        assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0
    assert cli.build_parser.cache_info().misses == 1
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    with pytest.raises(SystemExit) as exc:
        cli.main(["predict", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: selmerkit predict ")
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("command", sorted(PARSED))
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: selmerkit {command} ")


def test_genus_zero_level_is_refused_as_input(tmp_path, capsys):
    # y^2 = x^3 - x has conductor 32; the record's 16 passes ingest (2 | disc)
    # but X_0(16) has genus 0, so there is no eigensymbol to find
    path = tmp_path / "bad16.jsonl"
    path.write_text('{"label":"bad16","ainvs":[0,0,0,-1,0],"conductor":16}\n')
    code, out, err = run_main(capsys, "predict", "--curves", str(path), "--p", "5")
    assert code == 2 and out == ""
    assert "no cusp forms at level 16" in err and "Traceback" not in err


def test_wrong_conductor_exponent_is_refused_as_input(tmp_path, capsys):
    # 11a1's model has split multiplicative reduction at 11, so 11 divides
    # its conductor once; the record's 121 passes ingest but not the curve check
    path = tmp_path / "bad121.jsonl"
    path.write_text('{"label":"bad121","ainvs":[0,-1,1,-10,-20],"conductor":121}\n')
    assert [r.conductor for r in ingest(str(path))] == [121]
    code, out, err = run_main(capsys, "predict", "--curves", str(path), "--p", "7")
    assert code == 2 and out == ""
    assert "conductor exponent 2 at q=11" in err and "Traceback" not in err


@pytest.mark.parametrize("label, ainvs, conductor", [
    ("33a1-as-11", [1, 1, 0, -11, 0], 11),
    ("58a1-as-29", [1, -1, 0, -1, 1], 29),
])
def test_a_conductor_that_leaves_out_a_bad_prime_is_refused_as_input(tmp_path, capsys, monkeypatch,
                                                                      label, ainvs, conductor):
    # each conductor's one prime has the right exponent; the bad prime it
    # leaves out (3, 2) would end the eigen-cut with exit 4
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"label": label, "ainvs": ainvs, "conductor": conductor}) + "\n")

    def no_work(*args, **kwargs):
        raise AssertionError("eigen-work ran before the conductor was checked")

    monkeypatch.setattr(modsym, "build_manin_space", no_work)
    code, out, err = run_main(
        capsys, "predict", "--curves", str(path), "--p", "7", "--prime-bound", "100",
    )
    assert code == 2 and out == ""
    assert f"outside the conductor {conductor}" in err and "Traceback" not in err


def test_cache_dir_naming_a_file_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("a file, not a directory\n")

    def no_work(*args, **kwargs):
        raise AssertionError("the pipeline ran before the cache directory was checked")

    monkeypatch.setattr(cli, "_gather", no_work)
    code, out, err = run_main(
        capsys, "predict", "--curves", SAMPLE, "--label", "11a1", "--p", "7",
        "--cache-dir", str(not_a_dir),
    )
    assert code == 2 and out == ""
    assert "cache directory" in err and "Traceback" not in err


# A fresh interpreter in which any import of sympy fails.  It runs every
# subcommand through `cli.main`, so a function-local import on any of their
# paths shows up, not only the module-level ones.
NO_SYMPY_CHILD = r"""
import contextlib, io, json, sys

class NoSympy:
    def find_spec(self, name, path=None, target=None):
        if name == "sympy" or name.startswith("sympy."):
            raise ImportError(f"{name} is not a runtime dependency")
        return None

sys.meta_path.insert(0, NoSympy())
from selmerkit import cli

runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append({"argv": argv, "code": code, "out": out.getvalue()})
print(json.dumps({"runs": runs, "sympy_loaded": "sympy" in sys.modules}))
"""


def test_no_subcommand_imports_sympy(tmp_path):
    region = ["--curves", SAMPLE, "--prime-bound", "150", "--max-nu", "1"]
    cached = ["predict", "--label", "11a1", "--p", "7", *region, "--cache-dir", str(tmp_path)]
    commands = [
        ["sieve", "--label", "11a1", "--p", "7", *region],
        ["delta", "--label", "11a1", "--p", "7", *region],
        ["stats", "--label", "11a1", "--p", "7", *region],
        cached,  # cold
        cached,  # warm: served from the entry the cold run wrote
        ["gz", "--label", "37a1", "--DK", "-3", "--p", "5", *region],
        # 37 splits in Q(sqrt(-3)), so Waldspurger runs on 11a1, which is inert there
        ["waldspurger", "--label", "11a1", "--DK", "-3", "--p", "7", *region],
        ["bipartite-sim", "--p", "5", "--k", "4", "--shape", "2,1", "--delta", "1",
         "--steps", "15", "--seed", "3"],
        ["gross-points", "--DK", "7", "--q", "5", "--beta", "4", "--case", "p_inert",
         "--precision", "10"],
        ["oracle-check", "--curves", SAMPLE, "--label", "11a1", "--tol", "1e-6"],
    ]
    src = os.path.dirname(os.path.dirname(selmerkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_CHILD, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert [(run["argv"][0], run["code"]) for run in result["runs"]] == [
        (argv[0], 0) for argv in commands
    ], child.stderr
    assert result["sympy_loaded"] is False
    assert len(list(tmp_path.iterdir())) == 1
    cold, warm = result["runs"][3:5]
    assert json.loads(cold["out"])["kind"] == "pipeline" and warm["out"] == cold["out"]


def test_module_entry_point_runs_without_runtime_warning():
    src = os.path.dirname(os.path.dirname(selmerkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-m", "selmerkit.cli", "sieve", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert "RuntimeWarning" not in child.stderr


def test_package_serves_the_cli_names_lazily():
    from selmerkit import RunConfig, ingest, main, run_pipeline

    assert RunConfig is cli.RunConfig and ingest is cli.ingest
    assert main is cli.main and run_pipeline is cli.run_pipeline
    namespace: dict = {}
    exec("from selmerkit import *", namespace)
    assert set(selmerkit.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        selmerkit.no_such_name
