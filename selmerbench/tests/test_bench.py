"""The benchmark's own tests: toy-size runs and checks fed corrupted reports.

    python3 -m pytest selmerbench/tests

Run from the root of the repository.  The smoke runs take about two minutes.
"""

import copy
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import refmath
from plans import WORKLOADS, bound_window, load_records, make_plan

ROOT = Path(__file__).resolve().parents[2]
RECORDS = load_records(ROOT / "data" / "sample_curves.jsonl")


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "selmerbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_passes_every_check(workload, trace):
    from run import END_TO_END_UNITS, MIN_PASSES, PER_LAYER_UNITS

    result = run_bench(workload, trace)
    ops = len(make_plan(workload, 3, RECORDS, small=True)["ops"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == MIN_PASSES * ops
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_benchmark_json_names_what_run_prints():
    from run import END_TO_END_UNITS, PER_LAYER_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = ROOT / "selmerbench"
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "kurihara_deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_plans_repeat_per_seed_and_keep_the_costly_shape():
    for workload in WORKLOADS:
        a, b = (make_plan(workload, 11, RECORDS) for _ in range(2))
        assert a == b
        other = make_plan(workload, 12, RECORDS)
        shape = lambda plan: sorted((op["name"], op["config"]["max_nu"]) for op in plan["ops"])
        assert shape(a) == shape(other)


def test_bound_windows_sieve_the_same_primes():
    for p, bound in ((5, 300), (5, 420), (7, 150), (7, 440)):
        window = bound_window(p, bound)
        assert bound in window
        same = [q for q in refmath.primes_upto(bound) if q % p == 1]
        for b in window:
            assert [q for q in refmath.primes_upto(b) if q % p == 1] == same


# ---------------------------------------------------------------- checks


@pytest.fixture(scope="module")
def predict_report():
    from selmerkit.cli import CurveRecord, RunConfig, run_pipeline

    record = CurveRecord.from_json_dict(RECORDS["11a1"])
    return run_pipeline(record, RunConfig(p=7, prime_bound=400, max_nu=2))


@pytest.fixture(scope="module")
def pair_report():
    from selmerkit.cli import CurveRecord, RunConfig, gz_pair

    record = CurveRecord.from_json_dict(RECORDS["11a1"])
    return gz_pair(record, -3, RunConfig(p=7, prime_bound=100, max_nu=1, D_K=-3))


def problems_of(report):
    return checks.check_predict(report, RECORDS["11a1"], random.Random(0), {})


def test_genuine_reports_pass(predict_report, pair_report):
    assert problems_of(predict_report) == []
    assert checks.check_pair(pair_report, RECORDS["11a1"], "waldspurger") == []


def test_flipped_corank_fails(predict_report):
    bad = copy.deepcopy(predict_report)
    bad["prediction"]["shape"]["corank"] = 1
    assert any("corank" in msg for msg in problems_of(bad))


def test_perturbed_residue_fails(predict_report):
    bad = copy.deepcopy(predict_report)
    entry = next(e for e in bad["kurihara"] if e["nu"] == 2)
    entry["residue"] = (entry["residue"] + 1) % 7 ** entry["t_n"]
    sym = checks._symbol(RECORDS["11a1"], {})
    assert any("residue" in msg for msg in checks.check_delta(entry, sym, 7, random.Random(0)))


def test_perturbed_delta_1_fails(predict_report):
    bad = copy.deepcopy(predict_report)
    bad["kurihara"][0]["residue"] += 7
    assert any("delta_1" in msg for msg in problems_of(bad))


def test_sieve_dropping_a_prime_fails(predict_report):
    bad = copy.deepcopy(predict_report)
    bad["primes"] = bad["primes"][1:]
    assert any("sieved primes" in msg for msg in problems_of(bad))


def test_hecke_relation_catches_the_wrong_symbol():
    sym = checks._symbol(RECORDS["14a1"], {})
    assert checks.check_hecke(RECORDS["11a1"], sym, random.Random(0))
    assert checks.check_hecke(RECORDS["14a1"], sym, random.Random(0)) == []


def test_wrong_branch_fails(pair_report):
    bad = copy.deepcopy(pair_report)
    bad["branch"] = "heegner"
    assert any("branch" in msg for msg in checks.check_pair(bad, RECORDS["11a1"], "waldspurger"))


def test_wrong_twist_conductor_fails(pair_report):
    bad = copy.deepcopy(pair_report)
    bad["twist"]["curve"]["conductor"] = 11 * 3
    assert any("conductor" in msg for msg in checks.check_pair(bad, RECORDS["11a1"], "waldspurger"))


def test_odd_corank_over_a_definite_field_fails(pair_report):
    bad = copy.deepcopy(pair_report)
    bad["twist"]["prediction"]["shape"]["corank"] = 1
    assert any("parity" in msg for msg in checks.check_pair(bad, RECORDS["11a1"], "waldspurger"))


def test_twist_central_value_off_the_numeric_oracle_fails(pair_report):
    bad = copy.deepcopy(pair_report)
    entry = next(e for e in bad["twist"]["kurihara"] if e["n"] == 1)
    entry["residue"] += 1
    assert any("numeric" in msg for msg in checks.check_pair(bad, RECORDS["11a1"], "waldspurger"))


def test_one_changed_byte_in_a_warm_report_fails(predict_report):
    cold = checks.render(predict_report).encode()
    assert checks.check_warm(cold, cold, "11a1") == []
    warm = bytearray(cold)
    i = warm.index(b'"residue": ') + len(b'"residue": ')
    warm[i] = ord("9") if warm[i] != ord("9") else ord("8")
    assert checks.check_warm(bytes(warm), cold, "11a1")
    batch = {"kind": "batch", "reports": [json.loads(bytes(warm))]}
    assert checks.check_batch(batch, {"11a1": cold})


def test_reference_arithmetic_agrees_with_the_program():
    from selmerkit.arith import kronecker_symbol, smallest_primitive_root
    from selmerkit.curves import EllipticCurve, trace_of_frobenius

    for label in ("11a1", "37a1"):
        rec = RECORDS[label]
        E = EllipticCurve(*rec["ainvs"], conductor=rec["conductor"])
        for q in refmath.primes_upto(200):
            if rec["conductor"] % q:
                assert refmath.trace_by_count(rec["ainvs"], q) == trace_of_frobenius(E, q)
    for q in refmath.primes_upto(100):
        assert refmath.kronecker(-3, q) == kronecker_symbol(-3, q)
        assert refmath.kronecker(-4, q) == kronecker_symbol(-4, q)
        if q > 2:
            assert refmath.primitive_roots(q)[0] == smallest_primitive_root(q)
