"""Tests of the benchmark itself: output checks, exact counts, self-time
accounting, and refusing to run without the program's sources.

Run from the repository root:  python3 -m pytest perfbench/tests -q
The exact-count tests run one untraced and one traced pass of every
workload, about a minute in all.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

PACKAGE = run.import_cyclotome()

SEED_COUNTS = {
    "verify_mid": {
        "code.brute_units": 27_245_736,
        "charsums.f_enumerate_pairs": 1_400_856,
    },
    "large_field": {"fields.poly_candidates": 13_720 + 4_427 + 2_090},
    "sweep_5000": {
        "fields.towers_built": 378,
        "theorem.classify_calls": 3_913,
        "cli.sweep_rows.PASS": 5,
        "cli.sweep_rows.skipped_budget": 26,
        "cli.sweep_rows.not_applicable": 3_882,
    },
}
VERIFIED_SETS = {"verify_mid": 4, "large_field": 1, "sweep_5000": 5}


def _run_op(argv):
    return run.invoke(PACKAGE.cli.main, argv)


def _expected(workload: str, index: int = 0) -> dict:
    return copy.deepcopy(run.load_expected(workload)[index])


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_recorded_output_passes_and_corrupted_record_fails():
    argv = run.WORKLOADS["verify_mid"][0]
    result = _run_op(argv)
    good = _expected("verify_mid")
    assert run.check_op(good, result).ok

    bad_freq = _expected("verify_mid")
    weight, freq = bad_freq["distribution"][1]
    bad_freq["distribution"][1] = [weight, str(int(freq) + 1)]
    bad_code = _expected("verify_mid")
    bad_code["exit_code"] = 1
    bad_check = _expected("verify_mid")
    bad_check["checks_true"].append("no_such_check")
    bad_verdict = _expected("verify_mid")
    bad_verdict["verdict"] = "FAIL"

    tally = run.Tally()
    records = [good, bad_freq, bad_code, bad_check, bad_verdict]
    checks = tally.add(records, [result] * len(records))
    assert [c.ok for c in checks] == [True, False, False, False, False]
    assert (tally.attempted, tally.failed) == (5, 4)


def test_corrupted_output_fails():
    expected = _expected("verify_mid")
    code, out, err = _run_op(run.WORKLOADS["verify_mid"][0])
    report = json.loads(out)
    report["checks"]["three_way_equal"] = False
    assert not run.check_op(expected, (code, json.dumps(report), err)).ok
    assert not run.check_op(expected, (code, "not json", err)).ok
    assert not run.check_op(expected, (None, out, "Traceback")).ok


def test_sweep_rows_compared_except_seconds():
    expected = _expected("sweep_5000")
    rows = [dict(zip(expected["columns"], values), seconds=0.25 * i) for i, values in enumerate(expected["rows"])]
    out = "\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n"
    good = run.check_op(expected, (0, out, ""))
    assert good.ok and good.verified == 5
    assert good.rows == Counter(PASS=5, skipped_budget=26, not_applicable=3882)

    corrupted = copy.deepcopy(expected)
    corrupted["rows"][17][expected["columns"].index("reason")] += "!"
    assert not run.check_op(corrupted, (0, out, "")).ok
    missing = "\n".join(out.splitlines()[:-1])
    assert not run.check_op(expected, (0, missing, "")).ok


def test_seeded_polynomials_keep_the_expected_outputs():
    default = run.workload_ops(PACKAGE, "verify_mid", 0)
    seeded = run.workload_ops(PACKAGE, "verify_mid", 5)
    assert default == run.WORKLOADS["verify_mid"]
    assert all("--poly" in argv for argv in seeded)
    assert seeded[0][-1] != ",".join(map(str, PACKAGE.find_primitive_polynomial(7, 2)))
    for index in (0, 1):
        assert run.check_op(_expected("verify_mid", index), _run_op(seeded[index])).ok


@pytest.mark.parametrize("p, degree", [(2, 4), (3, 3), (5, 2), (2, 6)])
def test_poly_candidates_is_the_scan_position(p, degree):
    poly = PACKAGE.find_primitive_polynomial(p, degree)
    position = list(product(range(p), repeat=degree)).index(poly[:-1]) + 1
    assert tracing._poly_candidates((p, degree), {}, poly) == position


def test_counts_repeat_within_a_seed_and_tracer_uninstalls():
    ops = run.WORKLOADS["verify_mid"][:2]
    expected = run.load_expected("verify_mid")[:2]
    firsts = []
    for _ in range(2):
        metrics, _ = run.run_traced(PACKAGE, ops, expected, 0, run.Tally())
        firsts.append({k: v for k, v in metrics.items() if isinstance(v, int)})
    assert firsts[0] == firsts[1]
    assert firsts[0]["cycint.mul_calls"] > 0
    assert not hasattr(PACKAGE.cli.build_tower, "__wrapped__")
    assert not hasattr(PACKAGE.fields.FieldTower.__init__, "__wrapped__")
    assert PACKAGE.cli.build_tower is PACKAGE.fields.build_tower


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_pass_exact_counts_and_self_time(workload):
    tally = run.Tally()
    ops = run.workload_ops(PACKAGE, workload, 0)
    metrics, spans = run.run_traced(PACKAGE, ops, run.load_expected(workload), 0, tally)
    assert (tally.attempted, tally.failed) == (2 * len(ops), 0)
    assert set(metrics) == set(run.PER_LAYER)
    for name, value in SEED_COUNTS[workload].items():
        assert metrics[name] == value, name
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_self == pytest.approx(metrics["cli.op_s"], abs=1e-6)
    assert [s[0] for s in spans[0] if s[3] < 0] == [tracing.ROOT] * len(ops)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_untraced_pass_verifies_the_seed_sets(workload):
    tally = run.Tally()
    ops = run.workload_ops(PACKAGE, workload, 0)
    runs = run.run_untraced(PACKAGE, ops, run.load_expected(workload), 0, tally)
    assert runs["verified"] == [VERIFIED_SETS[workload]]
    assert tally.failed == 0


def test_speed_probe_samples_and_scales():
    with hostspeed.SpeedProbe() as probe:
        start = perf_counter()
        while perf_counter() - start < 3 * hostspeed.INTERVAL:
            pass
    assert len(probe.samples) >= 4  # one on entry, one on exit, the rest on the timer
    assert 0 < probe.overhead < 3 * hostspeed.INTERVAL

    fixed = hostspeed.SpeedProbe()
    fixed.samples = [2 * hostspeed.NOMINAL_S, 2 * hostspeed.NOMINAL_S]
    fixed.overhead = 0.5
    assert fixed.normalize(4.5) == pytest.approx(2.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", "verify_mid", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
