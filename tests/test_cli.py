import contextlib
import csv
import gc
import io
import json
import time
import weakref

import pytest
from click.testing import CliRunner

from conftest import root_of_unity, sweep_candidates

import cyclotome
import cyclotome.charsums as charsums
import cyclotome.cli as cli
import cyclotome.code as code
import cyclotome.fields as fields
import cyclotome.theorem as theorem
from cyclotome.charsums import CharSystem, norm_degree
from cyclotome.cli import main

EXPECTED1 = [[0, "1"], [12, "72"], [16, "72"], [18, "264"], [20, "864"], [22, "864"], [24, "264"]]


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke_json(runner, *args, env=None):
    result = runner.invoke(main, list(args), env=env, catch_exceptions=False)
    return result, json.loads(result.output) if result.output.startswith("{") else None


@pytest.fixture()
def no_search(monkeypatch):
    """Make any primitive-polynomial search fail the test."""

    def search(*args, **kwargs):
        raise AssertionError("primitive-polynomial search ran")

    monkeypatch.setattr(fields, "find_primitive_polynomial", search)


def test_compute_table_json(runner):
    result, report = _invoke_json(
        runner, "compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--method", "table"
    )
    assert result.exit_code == 0
    assert report["distribution"] == EXPECTED1
    assert report["classification"]["case"] == "2.1"
    assert report["params"]["n"] == 24


@pytest.mark.parametrize("method", ["semi", "all"])
def test_compute_semi_builds_no_log_or_zech_table(runner, monkeypatch, method):
    towers = []
    build = fields.build_tower
    monkeypatch.setattr(cli, "build_tower", lambda *a, **kw: towers.append(build(*a, **kw)) or towers[-1])
    result, report = _invoke_json(
        runner, "compute", "--p", "19", "--s", "1", "--m", "4", "--h", "3", "--method", method
    )
    assert result.exit_code == 0 and report["distribution"]
    assert not {"zech", "trace_q_coords"} & vars(towers[0]).keys()


@pytest.mark.parametrize("pssm", [("19", "1", "4"), ("2", "2", "9")])
def test_semi_builds_no_r_sized_tower(runner, monkeypatch, pssm):
    # the periods are lifted from GF(p**f): GF(r) is not even given a defining polynomial
    towers = []
    build = fields.build_tower
    monkeypatch.setattr(cli, "build_tower", lambda *a, **kw: towers.append(build(*a, **kw)) or towers[-1])
    p, s, m = pssm
    result, report = _invoke_json(
        runner, "compute", "--p", p, "--s", s, "--m", m, "--h", "3", "--method", "semi"
    )
    assert result.exit_code == 0 and report["distribution"]
    assert not {"defining_polynomial", "_pow_packed", "trace_p_table"} & vars(towers[0]).keys()


def test_compute_brute_matches_table(runner):
    _, table = _invoke_json(
        runner, "compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--method", "table"
    )
    result, brute = _invoke_json(
        runner, "compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--method", "brute"
    )
    assert result.exit_code == 0
    assert brute["distribution"] == table["distribution"]


def test_compute_all_cross_checks(runner):
    result, report = _invoke_json(
        runner, "compute", "--p", "2", "--s", "2", "--m", "3", "--h", "3"
    )
    assert result.exit_code == 0
    assert report["checks"]["methods_agree"] is True
    assert report["distribution"][0] == [0, "1"]


def test_compute_invalid_parameters_exit_2(runner):
    result = runner.invoke(
        main, ["compute", "--p", "5", "--s", "1", "--m", "2", "--h", "3"]
    )
    assert result.exit_code == 2
    assert "does not divide" in result.output


def test_compute_nonprime_exit_2(runner):
    result = runner.invoke(main, ["compute", "--p", "9", "--s", "1", "--m", "2", "--h", "3"])
    assert result.exit_code == 2


def test_compute_budget_exit_3(runner):
    result = runner.invoke(
        main,
        ["compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--method", "brute", "--budget", "10"],
    )
    assert result.exit_code == 3


@pytest.mark.parametrize("command", [["compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3"], ["sweep", "--max-r", "50"]])
def test_negative_budget_exits_2(runner, command):
    # a negative budget is an invalid parameter, not a budget every brute run exceeds
    result = runner.invoke(main, [*command, "--budget", "-1"])
    assert result.exit_code == 2
    assert "Invalid value for '--budget'" in result.output


def test_compute_not_applicable_is_clean(runner):
    # N = 1 parameters: table method reports the failed condition, exit 0
    result, report = _invoke_json(
        runner, "compute", "--p", "7", "--s", "1", "--m", "2", "--h", "6", "--method", "table"
    )
    assert result.exit_code == 0
    assert report["classification"] == {"applicable": False, "reason": "N = 1 < 2"}
    assert report["distribution"] is None
    assert "not applicable" in report["checks"]["table"]


@pytest.mark.parametrize("p, s, m, h", [(7, 1, 3, 3), (2, 2, 4, 3)])
def test_compute_runs_semi_outside_the_semiprimitive_regime(runner, p, s, m, h):
    # no p**j = -1 mod N = 3, and N = 1: only the table is not applicable, semi agrees with brute
    argv = ["compute", "--p", str(p), "--s", str(s), "--m", str(m), "--h", str(h)]
    result, report = _invoke_json(runner, *argv)
    assert result.exit_code == 0 and report["classification"]["applicable"] is False
    assert report["checks"] == {"methods_agree": True, "table": f"not applicable: {report['classification']['reason']}"}
    result, semi = _invoke_json(runner, *argv, "--method", "semi")
    assert result.exit_code == 0 and semi["checks"] is None
    assert semi["distribution"] == report["distribution"]


def test_compute_table_builds_no_field(runner, no_search):
    # r = 28561: the closed form reads integers only, so no search and no tables
    result, report = _invoke_json(
        runner, "compute", "--p", "13", "--s", "2", "--m", "2", "--h", "3", "--method", "table"
    )
    assert result.exit_code == 0
    assert report["distribution"] == [
        [0, "1"], [336, "42840"], [340, "42840"], [504, "101944920"],
        [506, "305877600"], [508, "305877600"], [510, "101944920"],
    ]


def test_oversized_field_rejected_without_computing_r(runner):
    # 3**4000000 has about 1.9 million digits; the cap must fire before it is formed
    start = time.monotonic()
    result = runner.invoke(
        main, ["compute", "--p", "3", "--s", "4000000", "--m", "1", "--h", "3", "--method", "table"]
    )
    assert time.monotonic() - start < 0.5
    assert result.exit_code == 2
    assert result.output == f"error: r = p**(s*m) = 3**4000000 exceeds cap {fields.DEFAULT_FIELD_CAP}\n"


@pytest.mark.parametrize(
    "p, s, m, h, e",
    [
        ("5", "1", "11", "4", "2"),  # r = 48828125 with s*m = 11, below the bit-length shortcut
        ("618970019642690137449562111", "1", "1", "3", "3"),  # 2**89 - 1, a prime: trial division would hang
        ("1" + "0" * 24, "1", "1", "3", "3"),  # composite, but above the cap first
    ],
)
def test_field_cap_is_checked_before_primality(runner, monkeypatch, p, s, m, h, e):
    def refuse(n):
        raise AssertionError(f"is_prime({n}) ran above the cap")

    monkeypatch.setattr(fields, "is_prime", refuse)
    start = time.monotonic()
    result = runner.invoke(main, ["compute", "--p", p, "--s", s, "--m", m, "--h", h, "--e", e])
    assert time.monotonic() - start < 0.5
    assert result.exit_code == 2
    assert result.output == f"error: r = p**(s*m) = {p}**{int(s) * int(m)} exceeds cap {fields.DEFAULT_FIELD_CAP}\n"


def test_compute_off_e3_names_semi_and_the_closed_forms(runner):
    # at e = 2 only brute runs; semi and the table give the one reason, which names both
    result, report = _invoke_json(
        runner, "compute", "--p", "5", "--s", "1", "--m", "2", "--h", "4", "--e", "2", "--method", "all"
    )
    assert result.exit_code == 0
    reason = "e = 2, semi and the closed forms need e = 3"
    assert report["classification"] == {"applicable": False, "reason": reason}
    assert report["checks"] == {"semi": f"not applicable: {reason}", "table": f"not applicable: {reason}"}
    assert report["distribution"] == [[0, "1"], [8, "24"], [12, "24"], [16, "144"], [20, "288"], [24, "144"]]


def test_compute_reports_disagreeing_routes(runner, monkeypatch):
    # a table with one pair moved from weight 12 to 16: no distribution is printed, and the exit is 1
    real = cli.table_distribution

    def moved(params):
        counts = real(params)
        return {**counts, 12: counts[12] - 1, 16: counts[16] + 1}

    monkeypatch.setattr(cli, "table_distribution", moved)
    result, report = _invoke_json(runner, "compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3")
    assert result.exit_code == 1
    assert report["checks"]["methods_agree"] is False
    assert report["checks"]["first_diff"] == {"methods": ["semi", "table"], "weight_freqs": [12, "72", "71"]}
    assert report["distribution"] is None


def test_compute_pretty_names_why_not_applicable(runner):
    # (2,2,2,3): q = 4, r = 16 and N = gcd(2, 3) = 1
    result = runner.invoke(
        main, ["compute", "--p", "2", "--s", "2", "--m", "2", "--h", "3", "--format", "pretty"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[1] == "classification: not applicable (N = 1 < 2)"


def test_routes_and_checks_call_no_reference_helper(runner, monkeypatch):
    # every route and verify check runs on the tables; the per-pair weight helper is for reference only
    def refuse(*args):
        raise AssertionError("a reference helper was called")

    monkeypatch.setattr(code, "codeword_weight_from_lambda", refuse)
    expected = {
        ("verify", "7", "1", "2", "3"): EXPECTED1,
        ("verify", "2", "2", "3", "3"): [
            [0, "1"], [30, "126"], [36, "252"], [42, "756"], [48, "1827"], [54, "1134"],
        ],
        ("verify", "13", "1", "2", "3"): [
            [0, "1"], [24, "252"], [28, "252"], [36, "3444"], [38, "10584"], [40, "10584"], [42, "3444"],
        ],
        ("compute", "19", "1", "2", "3"): [
            [0, "1"], [36, "540"], [40, "540"], [54, "16020"], [56, "48600"], [58, "48600"], [60, "16020"],
        ],
    }
    for (command, p, s, m, h), distribution in expected.items():
        result, report = _invoke_json(runner, command, "--p", p, "--s", s, "--m", m, "--h", h)
        assert result.exit_code == 0
        assert report["distribution"] == distribution
        if command == "compute":
            assert report["checks"] == {"methods_agree": True}


def test_verify_passes_on_desk_sets(runner):
    for argv in (["--p", "7", "--s", "1", "--m", "2", "--h", "3"],
                 ["--p", "2", "--s", "2", "--m", "3", "--h", "3"]):
        result, report = _invoke_json(runner, "verify", *argv)
        assert result.exit_code == 0
        assert report["verdict"] == "PASS"
        assert all(v is not False for v in report["checks"].values())


def test_verify_at_r_4096(runner):
    result, report = _invoke_json(
        runner, "verify", "--p", "2", "--s", "2", "--m", "6", "--h", "3", "--budget", "100000000000"
    )
    assert result.exit_code == 0
    assert report["verdict"] == "PASS"
    assert report["checks"]["three_way_equal"] is True
    assert report["checks"]["f_triple_equal"] is True


def test_verify_over_budget_builds_no_field(runner, no_search):
    # r = 4096: brute charges the budget first, so verify exits 3 before any table is built
    result = runner.invoke(main, ["verify", "--p", "2", "--s", "2", "--m", "6", "--h", "3"])
    assert result.exit_code == 3
    assert result.output == "error: r^2*n = 68702699520 exceeds budget 500000000\n"


def test_verify_builds_table_once(runner, monkeypatch):
    calls = []
    table = cli.table_distribution
    monkeypatch.setattr(cli, "table_distribution", lambda *args: calls.append(args) or table(*args))
    result, report = _invoke_json(runner, "verify", "--p", "7", "--s", "1", "--m", "2", "--h", "3")
    assert result.exit_code == 0
    assert report["distribution"] == EXPECTED1
    assert len(calls) == 1


def test_verify_rejects_not_applicable(runner):
    result = runner.invoke(main, ["verify", "--p", "7", "--s", "1", "--m", "2", "--h", "6"])
    assert result.exit_code == 2


def test_verify_detects_injected_table_corruption(runner, monkeypatch):
    rows = list(theorem._TABLES[1])
    original = rows[4]

    def off_by_one(r, sr, N, h, q, sg):
        (wn, wd), freq = original(r, sr, N, h, q, sg)
        return (wn + wd, wd), freq

    rows[4] = off_by_one
    monkeypatch.setitem(theorem._TABLES, 1, rows)
    result, report = _invoke_json(runner, "verify", "--p", "7", "--s", "1", "--m", "2", "--h", "3")
    assert result.exit_code == 1
    assert report["verdict"] == "FAIL"
    assert report["checks"]["three_way_equal"] is False
    assert report["checks"]["first_diff"]["weight_freqs"] is not None


def test_verify_detects_wrong_class_count(runner, monkeypatch):
    # a closed form off by one at one key of H: the one-pass enumeration must catch it
    closed = cli.f_closed

    def off_by_one(params, case):
        table = closed(params, case)
        return {**table, (0, 0): table.get((0, 0), 0) + 1}

    monkeypatch.setattr(cli, "f_closed", off_by_one)
    result, report = _invoke_json(runner, "verify", "--p", "7", "--s", "1", "--m", "2", "--h", "3")
    assert result.exit_code == 1
    assert report["checks"]["f_triple_equal"] is False
    assert report["checks"]["f_first_diff"] == {"d": [0, 0], "counts": [11, 11, 12]}


def test_broken_invariant_exits_1(runner, monkeypatch):
    # a semi route whose class counts vanish: its histogram fails validate
    monkeypatch.setattr(code, "f_charsum", lambda *args: {})
    result = runner.invoke(
        main, ["compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--method", "semi"]
    )
    assert result.exit_code == 1
    assert result.output == "error: frequencies sum to 145, expected 2401\n"


def test_inexact_sum_exits_1(runner, monkeypatch):
    # lifted Gauss sums that give semi an irrational period: NonIntegerResultError, reported, not a traceback
    # verify reads semi's lift and the tower's own sums at two call sites; both get the same Gauss sums
    zeta = root_of_unity(14, 1)  # lcm(p, N) = 14 at (7,1,2,3)
    subfield, own = cli.subfield_sums, cli.lifted_sums
    monkeypatch.setattr(cli, "subfield_sums", lambda tower, n: ([zeta] * n, subfield(tower, n)[1]))
    monkeypatch.setattr(cli, "lifted_sums", lambda system, k: ([zeta] * system.order, own(system, k)[1]))
    result, out = _invoke_json(runner, "verify", "--p", "7", "--s", "1", "--m", "2", "--h", "3")
    assert result.exit_code == 1 and out["verdict"] == "FAIL"
    assert out["checks"]["semi"] == "failed: period at coset 0 is irrational"
    assert [name for name, ok in out["checks"].items() if ok is False] == ["three_way_equal"]


def _corrupt_jacobi(monkeypatch, delta, keys):
    """Add delta to the tower's Jacobi sums J(i, j) at the given (i, j).

    GF(p**f), f = ord_N(p), the subfield whose sums semi lifts, keeps its true sums.
    """
    real = CharSystem.jacobi_sum

    def jacobi_sum(self, i, j):
        value = real(self, i, j)
        on_tower = self.tower.degree > norm_degree(self.p, self.order)
        return value + delta if on_tower and (i % self.order, j % self.order) in keys else value

    monkeypatch.setattr(CharSystem, "jacobi_sum", jacobi_sum)


def test_verify_flags_corrupted_jacobi_sums(runner, monkeypatch):
    # f_charsum and f_closed share one identity but not its Jacobi source, so a wrong
    # tower Jacobi sum still splits the H routes and breaks the Gauss-Jacobi relation;
    # the error is a multiple of N**2 = 9, so the identity's counts stay integers
    _corrupt_jacobi(monkeypatch, 9, {(1, 1), (2, 2)})
    result, out = _invoke_json(runner, "verify", "--p", "2", "--s", "2", "--m", "3", "--h", "3")
    assert result.exit_code == 1
    checks = out["checks"]
    assert checks["f_triple_equal"] is False and checks["gauss_jacobi_relation"] is False
    assert checks["f_first_diff"] == {"d": [0, 0], "counts": [8, 10, 8]}


def test_verify_flags_corrupted_lifted_sums(runner, monkeypatch):
    # G(chi**i) zeta_N**i are the Gauss sums of x -> psi(x / alpha): the periods rotate by
    # one coset, which leaves semi's histogram as it is, so only lifted_sums sees the bad lift
    real = charsums.lifted_sums

    def rotated(system, k):
        gauss, jacobi = real(system, k)
        if k == 1:  # the tower's own sums, which the lift is checked against
            return gauss, jacobi
        return [g * root_of_unity(g.order, i * g.order // len(gauss)) for i, g in enumerate(gauss)], jacobi

    monkeypatch.setattr(charsums, "lifted_sums", rotated)  # subfield_sums lifts through it, for semi and verify
    result, out = _invoke_json(runner, "verify", "--p", "2", "--s", "2", "--m", "3", "--h", "3")
    assert result.exit_code == 1 and out["verdict"] == "FAIL"
    assert [name for name, ok in out["checks"].items() if ok is False] == ["lifted_sums"]


@pytest.mark.parametrize(
    "periods, failed",
    [
        ([4, -4], ["period_sum", "periods_match_closed"]),  # one period off by one
        ([4, -5], ["periods_match_closed"]),  # two off by one, the sum kept
        ([None, -4], ["period_sum", "periods_match_closed", "periods_rational"]),
    ],
)
def test_verify_flags_wrong_periods(runner, monkeypatch, periods, failed):
    # the enumerated periods at (7, 1, 2, 3) are [3, -4]; no route reads them, so only the period checks fail
    monkeypatch.setattr(CharSystem, "periods", periods)
    result, out = _invoke_json(runner, "verify", "--p", "7", "--s", "1", "--m", "2", "--h", "3")
    assert result.exit_code == 1 and out["verdict"] == "FAIL"
    assert [name for name, ok in out["checks"].items() if ok is False] == failed


def test_verify_flags_a_wrong_subfield_jacobi_sum(runner, monkeypatch):
    # only GF(4)'s Jacobi sums are off: semi sizes its classes from their lift, so its
    # H(0, 0) comes out fractional; the report still runs every check, and lifted_sums
    # names the bad lift while the tower's own checks hold
    real = CharSystem.jacobi_sum
    monkeypatch.setattr(CharSystem, "jacobi_sum", lambda self, i, j: real(self, i, j) + (1 if self.tower.r == 4 else 0))
    result, out = _invoke_json(runner, "verify", "--p", "2", "--s", "2", "--m", "3", "--h", "3")
    assert result.exit_code == 1 and out["verdict"] == "FAIL"
    assert out["checks"]["semi"] == "failed: count at d = (0, 0) is not a nonnegative integer: 110/9"
    assert [name for name, ok in out["checks"].items() if ok is False] == ["lifted_sums", "three_way_equal"]
    assert "first_diff" not in out["checks"]  # brute and the table, the pair that ran, agree


def test_sweep_names_failed_checks_in_every_format(runner, monkeypatch):
    _corrupt_jacobi(monkeypatch, 9, {(1, 1), (2, 2)})  # a multiple of N**2: integral counts, as above
    want = {
        ("2", "2", "3", "3"): "f_triple_equal;gauss_jacobi_relation;lifted_sums",
        ("7", "1", "2", "3"): "jacobi_boundary",
    }
    out = runner.invoke(main, ["sweep", "--max-r", "100"], catch_exceptions=False).output
    rows = [json.loads(line) for line in out.splitlines()]
    failed = {tuple(str(r[k]) for k in "psmh"): ";".join(r["failed_checks"]) for r in rows if "failed_checks" in r}
    assert failed == want
    assert all(r["status"] == "FAIL" for r in rows if "failed_checks" in r)
    out = runner.invoke(main, ["sweep", "--max-r", "100", "--format", "csv"], catch_exceptions=False).output
    header, *body = csv.reader(out.splitlines())
    assert header[-1] == "failed_checks" and len(body) == len(rows)
    assert {tuple(row[:4]): row[-1] for row in body if row[-1]} == want
    out = runner.invoke(main, ["sweep", "--max-r", "100", "--format", "pretty"], catch_exceptions=False).output
    assert "p=7 s=1 m=2 h=3: r=49 n=24 N=2 case=2.1 -> FAIL failed checks: jacobi_boundary\n" in out


def test_verify_non_integral_jacobi_count_exits_1(runner, monkeypatch):
    # J(1, 1) off by 1, not a multiple of N**2 = 9: f_charsum's identity gives a fractional count.
    # The report names that table and still runs every other check, as for a failed semi route
    _corrupt_jacobi(monkeypatch, 1, {(1, 1)})
    result, out = _invoke_json(runner, "verify", "--p", "2", "--s", "2", "--m", "3", "--h", "3")
    assert result.exit_code == 1 and out["verdict"] == "FAIL"
    assert sorted(out) == ["checks", "classification", "distribution", "method", "params", "timing", "verdict"]
    checks = out["checks"]
    assert checks["f_charsum"] == "failed: count at d = (0, 0) is not a nonnegative integer: 73/9"
    assert sorted(checks) == [
        "f_charsum", "f_partition", "f_triple_equal", "frequency_total", "gauss_jacobi_relation",
        "jacobi_boundary", "lifted_sums", "mean_weight", "period_sum", "periods_match_closed",
        "periods_rational", "three_way_equal",
    ]
    assert [name for name, ok in checks.items() if ok is False] == ["f_triple_equal", "gauss_jacobi_relation", "lifted_sums"]
    # in a sweep the same set is a FAIL row that names its failed checks and the table's message
    out = runner.invoke(main, ["sweep", "--max-r", "64"], catch_exceptions=False).output
    row = next(row for row in map(json.loads, out.splitlines()) if (row["p"], row["s"], row["m"], row["h"]) == (2, 2, 3, 3))
    assert row["status"] == "FAIL" and row["failed_checks"] == ["f_triple_equal", "gauss_jacobi_relation", "lifted_sums"]
    assert row["reason"] == "f_charsum " + checks["f_charsum"]


@pytest.fixture()
def non_primitive_64(monkeypatch):
    """Make x**6 + x**3 + 1, irreducible but with x of order 9, the default polynomial of degree 6 over GF(2)."""
    search = fields.find_primitive_polynomial
    monkeypatch.setattr(
        fields, "find_primitive_polynomial",
        lambda p, degree, *a: (1, 0, 0, 1, 0, 0, 1) if (p, degree) == (2, 6) else search(p, degree, *a),
    )


@pytest.mark.parametrize("command", [["verify"], ["compute", "--method", "brute"]])
def test_non_primitive_polynomial_exits_1(runner, non_primitive_64, command):
    # brute reads no log table: the exp-table walk itself must refuse the polynomial
    result = runner.invoke(main, [*command, "--p", "2", "--s", "2", "--m", "3", "--h", "3"], catch_exceptions=False)
    assert result.exit_code == 1
    assert len(result.output.splitlines()) == 1
    assert result.output.startswith("error: ") and result.output.endswith(" is not primitive\n")


def test_sweep_on_a_non_primitive_polynomial_fails_one_row(runner, non_primitive_64):
    result = runner.invoke(main, ["sweep", "--max-r", "100"], catch_exceptions=False)
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.strip().splitlines()]
    by_params = {(r["p"], r["s"], r["m"], r["h"]): r for r in rows}
    assert list(by_params) == sorted(sweep_candidates(100, 3))
    assert by_params[(2, 2, 3, 3)]["status"] == "FAIL"
    assert by_params[(2, 2, 3, 3)]["reason"].startswith("NoPrimitivePolynomialError:")
    assert by_params[(7, 1, 2, 3)]["status"] == "PASS"


def test_sweep_state_does_not_outlive_an_invocation(runner, request):
    # a second in-process sweep builds its towers afresh: the patched polynomial reaches (2,2,3,3)
    runner.invoke(main, ["sweep", "--max-r", "100"], catch_exceptions=False)
    request.getfixturevalue("non_primitive_64")
    result = runner.invoke(main, ["sweep", "--max-r", "100"], catch_exceptions=False)
    by_params = {(r["p"], r["s"], r["m"], r["h"]): r for r in map(json.loads, result.output.splitlines())}
    assert by_params[(2, 2, 3, 3)]["status"] == "FAIL"


def test_verify_pretty_format(runner):
    result = runner.invoke(
        main,
        ["verify", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--format", "pretty"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    assert "verdict: PASS" in result.output
    assert "case 2.1" in result.output


def test_csv_format(runner):
    result = runner.invoke(
        main,
        ["compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--format", "csv", "--method", "table"],
        catch_exceptions=False,
    )
    lines = result.output.strip().splitlines()
    assert lines[0] == "weight,frequency"
    assert lines[1] == "0,1"
    assert "20,864" in lines


def test_poly_override_gives_identical_distribution(runner):
    base, b_report = _invoke_json(
        runner, "compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--method", "brute"
    )
    alt, a_report = _invoke_json(
        runner,
        "compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--method", "brute",
        "--poly", "3,2,1",
    )
    assert alt.exit_code == 0
    assert a_report["distribution"] == b_report["distribution"]


def test_poly_flag_validation(runner):
    result = runner.invoke(
        main,
        ["compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--poly", "1,0,1"],
    )
    assert result.exit_code == 2
    # checked up front, also on the table route, which never builds a field table
    result = runner.invoke(
        main,
        ["compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--poly", "1,0,1", "--method", "table"],
    )
    assert result.exit_code == 2
    result = runner.invoke(
        main,
        ["compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3", "--poly", "nope"],
    )
    assert result.exit_code == 2


def test_reports_keep_one_shape(runner):
    # compute, applicable and not (N = 1 at h = 6), and verify print the same seven keys as one
    # sorted-key JSON line; compute's verdict is there, as null
    for command, h, verdict in (("compute", 3, None), ("compute", 6, None), ("verify", 3, "PASS")):
        result, report = _invoke_json(runner, command, "--p", "7", "--s", "1", "--m", "2", "--h", str(h))
        assert sorted(report) == ["checks", "classification", "distribution", "method", "params", "timing", "verdict"]
        assert report["verdict"] == verdict and report["classification"]["applicable"] is (h == 3)
        line = result.output.removesuffix("\n")
        assert line == json.dumps(json.loads(line), sort_keys=True) and "\n" not in line


def test_sweep_small(runner):
    result = runner.invoke(main, ["sweep", "--max-r", "100"], catch_exceptions=False)
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.strip().splitlines()]
    by_params = {(r["p"], r["s"], r["m"], r["h"]): r for r in rows}
    assert by_params[(7, 1, 2, 3)]["status"] == "PASS"
    assert by_params[(2, 2, 3, 3)]["status"] == "PASS"
    assert by_params[(7, 1, 2, 6)]["status"] == "not_applicable"
    assert list(by_params) == sorted(by_params)
    # one object per line, json.dumps separators, keys sorted
    assert all(line == json.dumps(json.loads(line), sort_keys=True) for line in result.output.splitlines())


def _row_dicts(p, s, m, q, r, hs, e, budget):
    """A tower's compact sweep rows as the dicts json.dumps would get: every column, failed_checks when set."""
    rows = []
    for h, n, (N, case, status, reason, failed), micros in cli._sweep_rows(p, s, m, q, r, hs, e, budget):
        rows.append(dict(zip(cli._SWEEP_COLUMNS, (p, s, m, h, e, q, r, n, N, case, status, reason, micros / 1e6))))
        if failed:
            rows[-1]["failed_checks"] = list(failed)
    return rows


def _json_text(tower_rows, seconds_text):
    """One tower's row dicts through the sweep's JSON writer, each turned back into a compact row."""
    first = tower_rows[0]
    compact = [
        (row["h"], row["n"], (row["N"], row["case"], row["status"], row["reason"], tuple(row.get("failed_checks", ()))),
         round(row["seconds"] * 1e6))
        for row in tower_rows
    ]
    return cli._json_text(*(first[k] for k in ("p", "s", "m", "e", "q", "r")), compact, seconds_text)


def test_sweep_row_template_is_json_dumps(runner, monkeypatch):
    # each tower's writer must give the bytes of json.dumps(row, sort_keys=True) on every row it can meet
    rows = [row for tower in cli._sweep_towers(300, 3) for row in _row_dicts(*tower, 3, cli.DEFAULT_SWEEP_BUDGET)]
    assert {row["status"] for row in rows} == {"PASS", "not_applicable"}

    def variant(row, **changes):
        return {**row, "seconds": 0.25, **changes}

    def as_dumps(row):
        return json.dumps(row, sort_keys=True) + "\n"

    rows += [
        variant(rows[0], status="FAIL", failed_checks=["f_partition", "three_way_equal"], seconds=1e-06),
        variant(rows[0], status="FAIL", reason='InvariantError: "a\\b"\nq = 4 \u2260 5', seconds=12.5),
        variant(rows[0], status="skipped_budget", case="2.1", seconds=0.0),
        variant(rows[0], p=2, s=12, m=2, h=4095, n=1 << 30, N=24, seconds=123456.789012),
    ]
    seconds_text = {}
    for row in rows:
        assert _json_text([row], seconds_text) == as_dumps(row)

    # one tower's writer keeps each row shape's text and each seconds' repr. Fed in this order: one
    # shape with other h, n and seconds, a FAIL row with failed checks, then a PASS row of the same tower,
    # rows that differ from that PASS row in one field of the shape each, and at e = 2 and e = 4 each
    # reason e != 3 gives, every line must still be json.dumps's
    passed, unverified = _row_dicts(7, 1, 2, 7, 49, [3, 6], 3, cli.DEFAULT_SWEEP_BUDGET)
    assert (passed["case"], passed["status"], unverified["status"], unverified["reason"]) == (
        "2.1", "PASS", "not_applicable", "N = 1 < 2"
    )
    secs = (0.0, 1e-06, 1.3e-05, 0.001322, 12.5, 1e-06)
    shape_changes = [
        {"N": 4},
        {"case": "1.2"},
        {"status": "skipped_budget"},
        {"reason": "semi failed: x"},
        {"failed_checks": ["f_partition"]},
    ]
    at_e2 = _row_dicts(7, 1, 2, 7, 49, [2, 6], 2, 0)
    at_e4 = _row_dicts(5, 1, 2, 5, 25, [4], 4, 0)
    assert at_e2[0]["reason"] == "e = 2, semi and the closed forms need e = 3"
    assert at_e4[0]["reason"] == "e = 4, semi and the closed forms need e = 3"
    fed = [
        [variant(unverified, h=6 * k, n=48 * k, seconds=t) for k, t in enumerate(secs, 1)]
        + [variant(passed, status="FAIL", failed_checks=["f_partition", "three_way_equal"], seconds=1e-06), passed]
        + [row for changes in shape_changes for row in (variant(passed, **changes), passed)],
        at_e2 + [variant(at_e2[0], h=4, n=32, seconds=1.3e-05)],
        at_e4 + [variant(at_e4[0], seconds=12.5)],
    ]
    seconds_text = {}
    for tower_rows in fed:
        assert _json_text(tower_rows, seconds_text) == "".join(map(as_dumps, tower_rows))
    micros = {round(row["seconds"] * 1e6) for tower_rows in fed for row in tower_rows}
    assert seconds_text == {k: repr(k / 1e6) for k in micros}

    result = runner.invoke(main, ["sweep", "--max-r", "300"], catch_exceptions=False)
    lines = result.output.splitlines(keepends=True)
    assert len(lines) == len(rows) - 4
    assert all(line == json.dumps(json.loads(line), sort_keys=True) + "\n" for line in lines)

    # the rows e and N settle share one shape per N of a tower, worded once: here N = 1 on every row
    reasons = []
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_e_N_reason", lambda e, N: reasons.append(N) or theorem._e_N_reason(e, N))
        settled = list(cli._sweep_rows(2, 6, 1, 64, 64, [3, 9, 21, 63], 3, 0))
    assert reasons == [1] and all(row[2] is settled[0][2] for row in settled)
    assert settled[0][2] == (1, "", "not_applicable", "N = 1 < 2", ())

    # the escaper runs 3 times per row shape of a tower (case, reason and status), not per row
    calls = []
    real = cli.encode_basestring_ascii
    monkeypatch.setattr(cli, "encode_basestring_ascii", lambda text: calls.append(text) or real(text))
    result = runner.invoke(main, ["sweep", "--max-r", "1000", "--budget", "0"], catch_exceptions=False)
    lines = result.output.splitlines()
    shapes = {
        (row["p"], row["s"], row["m"], row["N"], row["case"], row["status"], row["reason"])
        for row in map(json.loads, lines)
    }
    assert len(shapes) < len(lines) and len(calls) == 3 * len(shapes)


def test_sweep_seconds_are_each_rows_own_clock_reads(runner, monkeypatch):
    # a fake clock that advances 1 us a read: a row's seconds is the delta of its own two reads, so every
    # settled row reads 1 us, and only the verified row whose checks advance the clock 5 ms carries them
    clock = {"ns": 0, "reads": 0}

    def monotonic_ns():
        clock["ns"] += 1_000
        clock["reads"] += 1
        return clock["ns"]

    real = cli._verification_checks

    def checks(params, case, budget):
        clock["ns"] += 5_000_000 if params.tower.p == 7 else 0
        return real(params, case, budget)

    monkeypatch.setattr(time, "monotonic_ns", monotonic_ns)
    monkeypatch.setattr(cli, "_verification_checks", checks)
    for fmt in ("json", "csv"):
        clock.update(ns=0, reads=0)
        out = runner.invoke(main, ["sweep", "--max-r", "100", "--format", fmt], catch_exceptions=False).output
        rows = list(csv.DictReader(io.StringIO(out))) if fmt == "csv" else [json.loads(line) for line in out.splitlines()]
        by_params = {tuple(int(row[k]) for k in "psmh"): row for row in rows}
        assert [key for key, row in by_params.items() if row["status"] == "PASS"] == [(2, 2, 3, 3), (7, 1, 2, 3)]
        seconds = {key: float(row["seconds"]) for key, row in by_params.items()}
        assert seconds == {**dict.fromkeys(seconds, 1e-06), (7, 1, 2, 3): 0.005001}
        assert clock["reads"] == 2 * len(rows)


def test_sweep_seconds_are_whole_microseconds(runner):
    # seconds is k / 1e6 for a whole count k of microseconds: the float round(seconds, 6) returns
    out = runner.invoke(main, ["sweep", "--max-r", "300"], catch_exceptions=False).output
    in_json = [json.loads(line)["seconds"] for line in out.splitlines()]
    out = runner.invoke(main, ["sweep", "--max-r", "300", "--format", "csv"], catch_exceptions=False).output
    in_csv = [float(row["seconds"]) for row in csv.DictReader(io.StringIO(out))]
    assert len(in_json) == len(in_csv) > 0
    for seconds in in_json + in_csv:
        assert seconds >= 0 and seconds == round(seconds, 6)


@pytest.mark.parametrize("e", [2, 3, 4, 6])
def test_sweep_rows_match_build_code_and_classify(runner, e):
    # the sweep settles most rows from e and N alone; each row must still read what the full path gives
    out = runner.invoke(main, ["sweep", "--max-r", "5000", "--e", str(e), "--budget", "0"], catch_exceptions=False).output
    got = [json.loads(line) for line in out.splitlines()]
    want = []
    for p, s, m, h in sweep_candidates(5000, e):
        params = code.build_code(fields.build_tower(p, s, m), h, e)
        case = theorem.classify(params)
        verdict = ("", "not_applicable", case) if isinstance(case, str) else (case.label, "skipped_budget", "")
        want.append((p, s, m, h, params.n, params.N, *verdict))
    keys = ("p", "s", "m", "h", "n", "N", "case", "status", "reason")
    assert [tuple(row[k] for k in keys) for row in got] == want and want


def test_sweep_builds_a_field_only_for_rows_with_e_3_and_N_at_least_2(runner, monkeypatch):
    # every row takes n and N from one helper call; only the rows with e = 3 and N >= 2 get a
    # build_code and a classify, and only their towers a FieldTower, one each
    calls = {"_length_and_N": 0, "build_code": 0, "classify": 0}
    towers = []

    def counting(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    real_init = fields.FieldTower.__init__
    monkeypatch.setattr(
        fields.FieldTower, "__init__", lambda self, p, s, m, *a: towers.append((p, s, m)) or real_init(self, p, s, m, *a)
    )
    for e in (3, 2, 4):
        calls.update(dict.fromkeys(calls, 0))
        towers.clear()
        result = runner.invoke(main, ["sweep", "--max-r", "1000", "--budget", "0", "--e", str(e)], catch_exceptions=False)
        rows = [json.loads(line) for line in result.output.splitlines()]
        assert result.exit_code == 0 and len(rows) == len(list(sweep_candidates(1000, e))) > 0
        full_path = [row for row in rows if row["e"] == 3 and row["N"] >= 2]
        assert len(full_path) == (13 if e == 3 else 0)
        assert calls == {"_length_and_N": len(rows), "build_code": len(full_path), "classify": len(full_path)}
        assert towers == list(dict.fromkeys((row["p"], row["s"], row["m"]) for row in full_path))


@pytest.mark.parametrize("e", [2, 3, 4, 5, 6, 7, 12])
@pytest.mark.parametrize("max_r", [2, 3, 4, 5, 8, 9, 25, 49, 121, 1000, 2187, 4096, 5000])
def test_sweep_candidates_match_prime_test_enumeration(max_r, e):
    # 2187 = 3**7 and 4096 = 2**12 are the r of several towers: the bound is inclusive;
    # at e = 5, 7 and 12 most q have e not dividing q-1, and the sweep skips those q
    got = list(sweep_candidates(max_r, e))
    bits = max_r.bit_length()
    want = [
        (p, s, m, h)
        for p in range(2, max_r + 1)
        if fields.is_prime(p)
        for s in range(1, bits + 1)
        if p**s <= max_r
        for m in range(1, bits + 1)
        if p ** (s * m) <= max_r
        for h in range(e, p**s, e)
        if (p**s - 1) % h == 0
    ]
    assert got == want
    assert got == sorted(got)
    towers = list(cli._sweep_towers(max_r, e))
    assert len({(p, s, m) for p, s, m, *_ in towers}) == len(towers)
    assert all((q, r) == (p**s, p ** (s * m)) for p, s, m, q, r, _ in towers)
    assert all(hs and hs == sorted(hs) for *_, hs in towers)
    if (max_r, e) == (5000, 3):
        assert len(got) == 3913


def test_sweep_with_no_q_of_e_dividing_q_minus_1_prints_nothing(runner):
    # q = 2, 3, 4, 5, 7 each have 7 not dividing q-1, so no tower has an h
    result = runner.invoke(main, ["sweep", "--max-r", "7", "--e", "7"], catch_exceptions=False)
    assert result.exit_code == 0
    assert result.output == ""


def test_sweep_makes_no_second_primality_test(runner, monkeypatch):
    # the sieve proves each p prime, so the towers are built without is_prime; with budget 0
    # no row verifies, so no polynomial search (which tests p itself) runs either
    calls = []
    monkeypatch.setattr(fields, "is_prime", lambda n: calls.append(n) or True)
    result = runner.invoke(main, ["sweep", "--max-r", "1000", "--budget", "0"], catch_exceptions=False)
    assert result.exit_code == 0
    assert len(result.output.splitlines()) == len(list(sweep_candidates(1000, 3)))
    assert calls == []


def test_sweep_internal_failure_is_a_fail_row(runner, monkeypatch):
    # a semi route whose class counts vanish fails validate inside the two verified items
    monkeypatch.setattr(code, "f_charsum", lambda *args: {})
    result = runner.invoke(main, ["sweep", "--max-r", "100"], catch_exceptions=False)
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.strip().splitlines()]
    by_params = {(r["p"], r["s"], r["m"], r["h"]): r for r in rows}
    assert list(by_params) == sorted(sweep_candidates(100, 3))
    for key in ((7, 1, 2, 3), (2, 2, 3, 3)):
        assert by_params[key]["status"] == "FAIL"
        assert by_params[key]["failed_checks"] == ["three_way_equal"]
        assert by_params[key]["reason"].startswith("semi failed: frequencies sum to")
    assert by_params[(7, 1, 2, 6)]["status"] == "not_applicable"


def test_unverified_sweep_rows_build_no_field(runner, no_search):
    result = runner.invoke(main, ["sweep", "--max-r", "1000", "--budget", "0"], catch_exceptions=False)
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.strip().splitlines()]
    assert len(rows) == len(list(sweep_candidates(1000, 3)))
    status = {row["status"] for row in rows}
    assert status == {"not_applicable", "skipped_budget"}


def test_sweep_includes_larger_sets(runner):
    result = runner.invoke(
        main,
        ["sweep", "--max-r", "5000", "--budget", "1500000", "--format", "csv"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("p,s,m,h,e,q,r,n,N,case,status")
    body = "\n".join(lines[1:])
    assert "2,2,3,3,3,4,64,63,3,2.2,PASS" in body
    assert "13,1,2,3,3,13,169,42,2,1.1,PASS" in body
    # applicable but above the brute budget: classified and skipped
    assert "skipped_budget" in body
    # not-applicable rows carry the failed condition
    assert "N = 1 < 2" in body
    # reasons with commas are quoted: every row parses to the 14 columns
    rows = list(csv.reader(lines))
    assert {len(row) for row in rows} == {14}
    by_params = {tuple(row[:4]): row for row in rows[1:]}
    assert by_params[("7", "1", "3", "3")][11] == "no j with p**j = -1 mod N (p = 7, N = 3)"


def test_sweep_ignores_threads_variable(runner):
    # sweep has one serial path; the former worker-count variable is not read
    plain = runner.invoke(main, ["sweep", "--max-r", "100"], catch_exceptions=False)
    with_var = runner.invoke(
        main, ["sweep", "--max-r", "100"], env={"CYCLOTOME_THREADS": "abc"}, catch_exceptions=False
    )
    assert with_var.exit_code == 0
    strip = lambda out: [
        {k: v for k, v in json.loads(line).items() if k != "seconds"}
        for line in out.strip().splitlines()
    ]
    assert strip(with_var.output) == strip(plain.output)


def test_error_output_is_not_kept_alive():
    # click keeps every stream it writes to alive; an in-process caller's stderr must be freed
    refs = []
    for _ in range(20):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
            main.main(["compute", "--p", "4", "--s", "1", "--m", "2", "--h", "3"], standalone_mode=False)
        assert exit_info.value.code == 2 and err.getvalue() == "error: p = 4 is not prime\n"
        refs.append(weakref.ref(err))
        del err, exit_info
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_sweep_rejects_bad_bound(runner):
    result = runner.invoke(main, ["sweep", "--max-r", "1"])
    assert result.exit_code == 2
    assert result.output == "error: --max-r must be at least 2\n"
    # above the field cap no candidate could build its tower; rejected before the sieve is allocated
    too_big = fields.DEFAULT_FIELD_CAP + 1
    result = runner.invoke(main, ["sweep", "--max-r", str(too_big)])
    assert result.exit_code == 2
    assert result.output == f"error: --max-r = {too_big} exceeds cap {fields.DEFAULT_FIELD_CAP}\n"


@pytest.mark.parametrize("e", [0, 1, -3])
def test_sweep_rejects_e_below_2_like_compute(runner, e):
    for argv in (["sweep", "--max-r", "10"], ["compute", "--p", "7", "--s", "1", "--m", "2", "--h", "3"]):
        result = runner.invoke(main, [*argv, "--e", str(e)])
        assert result.exit_code == 2
        assert result.output == f"error: e = {e} must exceed 1\n"


def test_public_names_are_pinned():
    assert sorted(cyclotome.__all__) == [
        "BadModulusError", "BadParametersError", "BadPolynomialError", "BudgetExceededError",
        "CharSystem", "CodeParams", "CycInt", "FieldTooLargeError", "FieldTower", "InvariantError",
        "NonIntegerFrequencyError", "NonIntegerResultError", "NonPrimeError",
        "NotApplicableError", "NotDivisibleError", "OrderMismatchError", "TheoremCase",
        "brute_distribution", "build_code", "build_tower", "charsums",
        "class_counts", "classify", "code", "codeword_weight_from_lambda", "cycint",
        "cyclotomic_polynomial", "f_charsum", "f_closed", "fields", "find_primitive_polynomial",
        "instantiate_table", "semi_analytic_distribution",
        "table_distribution", "theorem",
    ]
