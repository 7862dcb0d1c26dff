"""Command-line front end: compute, cross-verify, and sweep parameter sets.

Reports are emitted as JSON (default), CSV, or a human-readable table.
Frequencies are serialized as decimal strings so exact values survive
consumers that parse numbers into 64-bit floats.  Exit codes are stable
for scripting: 0 success, 1 verification mismatch or internal failure (a
broken invariant or an inexact sum), 2 invalid parameters, 3 work budget
exceeded.

Output and errors go through ``print`` or ``sys.stdout``, not ``click.echo``:
click keeps every stream it has written to alive, so an in-process caller
capturing each run in a fresh StringIO would keep every capture in memory.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import time
from contextlib import contextmanager
from itertools import compress
from json.encoder import encode_basestring_ascii

import click

from .charsums import CharSystem, class_counts, f_charsum, f_closed, lifted_sums, norm_system
from .code import (
    BadParametersError,
    BudgetExceededError,
    CodeParams,
    brute_distribution,
    build_code,
    semi_analytic_distribution,
    validate_e,
)
from .fields import DEFAULT_FIELD_CAP, BadPolynomialError, FieldTooLargeError, FieldTower, build_tower
from .theorem import TheoremCase, classify, table_distribution

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_PARAMS = 2
EXIT_BUDGET = 3

DEFAULT_BUDGET = 500_000_000
DEFAULT_SWEEP_BUDGET = 10_000_000

_to_json = json.JSONEncoder(sort_keys=True).encode  # one encoder: the bytes of json.dumps(obj, sort_keys=True)


def _classification_dict(case: "TheoremCase | str") -> dict:
    if isinstance(case, str):
        return {"applicable": False, "reason": case}
    return {
        "applicable": True,
        "case": case.label,
        "j": case.j,
        "gamma": case.gamma,
        "sqrt_r": case.sqrt_r,
        "N": case.N,
    }


def _distribution_json(dist: "dict[int, int] | None") -> "list | None":
    return None if dist is None else [[w, str(f)] for w, f in sorted(dist.items())]


def _parse_poly(text: "str | None") -> "tuple[int, ...] | None":
    if text is None:
        return None
    try:
        return tuple(int(c) for c in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise BadPolynomialError(f"cannot parse polynomial {text!r}: {exc}") from exc


def _build(p: int, s: int, m: int, h: int, e: int, poly: "str | None") -> CodeParams:
    tower = build_tower(p, s, m, poly=_parse_poly(poly))
    return build_code(tower, h, e)


def _first_diff(tables):
    """The least key where the count tables differ, a missing key counting 0; None if they agree."""
    return min((k for k in set().union(*tables) if len({t.get(k, 0) for t in tables}) > 1), default=None)


def _first_diff_check(dists: "dict[str, dict[int, int]]", pairs) -> "dict | None":
    """The first route pair whose distributions differ, at their lowest differing weight; None if all agree."""
    for a, b in pairs:
        if (w := _first_diff((dists[a], dists[b]))) is not None:
            return {"methods": [a, b], "weight_freqs": [w, str(dists[a].get(w, 0)), str(dists[b].get(w, 0))]}
    return None


def _f_first_diff(tables, n_ord: int) -> "dict | None":
    """The first class c, in product order, where the {(d1, d2): f} tables differ: d's least class is (0, d2 - d1, -d1)."""
    by_class = [{(0, (d2 - d1) % n_ord, -d1 % n_ord): f for (d1, d2), f in t.items()} for t in tables]
    c = _first_diff(by_class)
    return None if c is None else {"c": list(c), "counts": [t.get(c, 0) for t in by_class]}


@contextmanager
def _exit_on_error():
    """Report a failure as one ``error:`` line and exit with its documented code."""
    try:
        yield
    except (BudgetExceededError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        budget, bad = isinstance(exc, BudgetExceededError), isinstance(exc, ValueError)
        sys.exit(EXIT_BUDGET if budget else EXIT_BAD_PARAMS if bad else EXIT_MISMATCH)


def _compute_methods(
    params: CodeParams, case, method: str, budget: int
) -> tuple[dict, "dict[str, dict[int, int]]"]:
    """Run the requested methods; returns (checks, name -> distribution)."""
    checks: dict = {}
    dists: dict[str, dict[int, int]] = {}
    want = ["brute", "semi", "table"] if method == "all" else [method]
    for name in want:
        if name == "brute":
            try:
                dists["brute"] = brute_distribution(params, budget=budget)
            except BudgetExceededError as exc:
                if method == "brute":
                    raise
                checks["brute"] = f"skipped: {exc}"
        elif name == "semi" and params.e == 3:
            dists["semi"] = semi_analytic_distribution(params)
        elif name == "table" and isinstance(case, TheoremCase):
            dists["table"] = table_distribution(params)
        else:
            checks[name] = f"not applicable: {case}"
    if len(dists) > 1:
        names = sorted(dists)
        first = _first_diff_check(dists, zip(names, names[1:]))
        checks["methods_agree"] = first is None
        if first:
            checks["first_diff"] = first
    return checks, dists


def _verification_checks(
    params: CodeParams, case: TheoremCase, budget: int
) -> tuple[dict, "dict[str, dict[int, int]]"]:
    """The full cross-check suite behind ``verify`` (all comparisons exact).

    Returns (checks, route name -> distribution).  Brute runs first, so a
    set over ``budget`` raises BudgetExceededError before any table is built.
    A semi route that raises ArithmeticError is left out of the distributions
    and reported as ``checks["semi"]``; three_way_equal is then false.
    """
    tw = params.tower
    r, n_ord = tw.r, params.N
    dists = {"brute": brute_distribution(params, budget=budget)}
    system, small = CharSystem(tw, n_ord), norm_system(tw, n_ord)
    lifted = lifted_sums(small, tw.degree // small.tower.degree)  # semi's, checked against the tower's sums
    checks: dict = {}
    try:
        dists["semi"] = semi_analytic_distribution(params, lifted)
    except ArithmeticError as exc:  # a wrong lift: the checks below still run, lifted_sums among them
        checks["semi"] = f"failed: {exc}"
    dists["table"] = table_distribution(params)
    first = _first_diff_check(dists, [("brute", name) for name in ("semi", "table") if name in dists])
    checks["three_way_equal"] = "semi" in dists and first is None
    if first:
        checks["first_diff"] = first

    tables = (class_counts(params), f_charsum(params, system), f_closed(params, case))  # {(d1, d2): f} each
    checks["f_triple_equal"] = tables[0] == tables[1] == tables[2]
    checks["f_partition"] = n_ord * sum(tables[0].values()) == r * r - 1 - 3 * (r - 1)
    if first_class := _f_first_diff(tables, n_ord):
        checks["f_first_diff"] = first_class

    dist = dists["brute"]
    checks["frequency_total"] = sum(dist.values()) == r * r
    checks["mean_weight"] = (
        sum(w * f for w, f in dist.items()) * tw.q == params.n * r * r * (tw.q - 1)
    )

    periods = system.periods
    checks["periods_rational"] = None not in periods
    checks["period_sum"] = sum(v or 0 for v in periods) == -1
    checks["periods_match_closed"] = periods == case.periods

    checks["jacobi_boundary"] = system.jacobi_sum(n_ord, n_ord) == r - 2 and all(
        system.jacobi_sum(i, n_ord - i) == -1 for i in range(1, n_ord)
    )
    big, own = math.lcm(tw.p, n_ord), lifted_sums(system, 1)
    checks["gauss_jacobi_relation"] = all(
        system.gauss_sum(i + j) * jacobi.embed(big) == system.gauss_sum(i) * system.gauss_sum(j)
        for (i, j), jacobi in own[1].items()
    )
    checks["lifted_sums"] = lifted == own
    return checks, dists


def _report(params: CodeParams, method: str, case, dist, checks, t0: float, verdict: "str | None" = None) -> dict:
    """One computation or verification as a JSON-stable dict: always the same seven keys."""
    return {
        "params": params.describe(),
        "method": method,
        "classification": _classification_dict(case),
        "distribution": _distribution_json(dist),
        "checks": checks,
        "timing": round(time.monotonic() - t0, 6),
        "verdict": verdict,
    }


def _emit_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_to_json(report))
    elif fmt == "csv":
        print("weight,frequency")
        for w, f in report["distribution"] or []:
            print(f"{w},{f}")
    else:
        pr = report["params"]
        print(
            "parameters: p={p} s={s} m={m} h={h} e={e}  (q={q}, r={r}, n={n}, N={N})".format(**pr)
        )
        cl = report["classification"]
        if cl["applicable"]:
            print(
                f"classification: case {cl['case']} (j={cl['j']}, gamma={cl['gamma']}, sqrt_r={cl['sqrt_r']})"
            )
        else:
            print(f"classification: not applicable ({cl['reason']})")
        print(f"method: {report['method']}  [{report['timing']:.3f}s]")
        if dist := report["distribution"]:
            width = max(len(str(w)) for w, _ in dist)
            print("weight  frequency")
            for w, f in dist:
                print(f"{w:>{width}}  {f}")
        if report["checks"]:
            print(f"checks: {_to_json(report['checks'])}")
        if report["verdict"]:
            print(f"verdict: {report['verdict']}")


_e_option = click.option("--e", "e", type=int, default=3, show_default=True, help="Divisor of h (semi and the closed forms need 3).")
_format_option = click.option("--format", "fmt", type=click.Choice(["json", "csv", "pretty"]), default="json", show_default=True)
_shared_options = [
    click.option("--p", "p", type=int, required=True, help="Field characteristic (prime)."),
    click.option("--s", "s", type=int, required=True, help="Base extension degree: q = p**s."),
    click.option("--m", "m", type=int, required=True, help="Top extension degree: r = q**m."),
    click.option("--h", "h", type=int, required=True, help="Divisor of q-1; code length is h(r-1)/(q-1)."),
    _e_option,
    click.option("--poly", type=str, default=None, help="Defining polynomial override, comma-separated GF(p) coefficients, constant first, monic, degree s*m."),
    click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True, help="Brute-force work cap, in r^2*n units."),
    _format_option,
]


def _with_shared(fn):
    for opt in reversed(_shared_options):
        fn = opt(fn)
    return fn


@click.group()
def main() -> None:
    """Exact weight distributions of two-generator trace codes."""


@main.command()
@_with_shared
@click.option(
    "--method",
    type=click.Choice(["brute", "semi", "table", "all"]),
    default="all",
    show_default=True,
    help="Computation route; 'all' cross-checks every route it can run.",
)
def compute(p, s, m, h, e, poly, budget, fmt, method) -> None:
    """Compute one weight distribution (optionally by every method)."""
    t0 = time.monotonic()
    with _exit_on_error():
        params = _build(p, s, m, h, e, poly)
        case = classify(params)
        checks, dists = _compute_methods(params, case, method, budget)
    agreed = checks.get("methods_agree", True)
    dist = None
    if dists and agreed:
        dist = next(iter(dists.values()))
    _emit_report(_report(params, method, case, dist, checks or None, t0), fmt)
    if not agreed:
        sys.exit(EXIT_MISMATCH)


@main.command()
@_with_shared
def verify(p, s, m, h, e, poly, budget, fmt) -> None:
    """Run every method plus the class-count and character-sum cross-checks."""
    t0 = time.monotonic()
    with _exit_on_error():
        params = _build(p, s, m, h, e, poly)
        case = classify(params)
        if isinstance(case, str):
            raise BadParametersError(f"verify needs applicable parameters: {case}")
        checks, dists = _verification_checks(params, case, budget)
    passed = all(v is not False for v in checks.values())
    _emit_report(_report(params, "verify", case, dists["table"], checks, t0, "PASS" if passed else "FAIL"), fmt)
    if not passed:
        sys.exit(EXIT_MISMATCH)


def _sweep_towers(max_r: int, e: int):
    """Each tower (p, s, m) with 3 <= q = p**s, r = q**m <= max_r, once, in tuple order.

    Yields (p, s, m, hs), hs the sorted h with e | h | q-1, that is e*d for
    the divisors d of (q-1)/e.  Only q with e | q-1 have such an h; any
    other q yields no tower and is not scanned for divisors.
    """
    sieve = bytearray([0, 0]) + bytearray([1]) * (max_r - 1)  # of Eratosthenes: sieve[p] == 1 iff p is prime
    for d in range(2, math.isqrt(max_r) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, max_r + 1, d)))
    for p in compress(range(max_r + 1), sieve):
        q, s = p, 1
        while q <= max_r:
            k, rem = divmod(q - 1, e)
            if not rem:
                low = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
                hs = sorted({e * c for d in low for c in (d, k // d)})
                r, m = q, 1
                while r <= max_r:
                    yield (p, s, m, hs)
                    r, m = r * q, m + 1
            q, s = q * p, s + 1


_SWEEP_COLUMNS = ("p", "s", "m", "h", "e", "q", "r", "n", "N", "case", "status", "reason", "seconds")


def _sweep_rows(tower: FieldTower, hs: list[int], e: int, budget: int):
    """The tower's rows, one per h in ``hs``: the _SWEEP_COLUMNS values, then the sorted failed checks.

    ``seconds``, whole microseconds of ``time.monotonic_ns``, covers build_code, classification and
    verification, so a tower's lazy tables are built, and timed, inside its first verified row.
    """
    p, s, m, q, r = tower.p, tower.s, tower.m, tower.q, tower.r
    clock, build, classify_ = time.monotonic_ns, build_code, classify  # looked up once per tower
    for h in hs:
        t0 = clock()
        params = build(tower, h, e)
        case = classify_(params)
        failed = ()
        if isinstance(case, str):
            label, status, reason = "", "not_applicable", case
        else:
            label, status, reason = case.label, "PASS", ""
            try:
                checks, _ = _verification_checks(params, case, budget)
            except BudgetExceededError:
                status = "skipped_budget"
            except ArithmeticError as exc:  # an internal failure fails this row, not the sweep
                status, reason = "FAIL", f"{type(exc).__name__}: {exc}"
            else:
                failed = tuple(sorted(k for k, v in checks.items() if v is False))
                if failed:
                    status, reason = "FAIL", f"semi {checks['semi']}" if "semi" in checks else ""
        seconds = (clock() - t0 + 500) // 1000 / 1e6  # k / 1e6 is round(k / 1e6, 6)
        yield p, s, m, h, e, q, r, params.n, params.N, label, status, reason, seconds, failed


def _json_rows(p: int, s: int, m: int, e: int, q: int, r: int, seconds_text: dict):
    """One tower's row -> the bytes of json.dumps(row, sort_keys=True) and a newline, keys in sorted order.
    A row formats only h, n and seconds: the four text pieces of each row shape, (N, case, status, reason, failed),
    are built on its first row, text through json's escaper; ``seconds_text`` (one per sweep) maps seconds to repr."""
    esc, pieces = encode_basestring_ascii, {}

    def row_json(row: tuple) -> str:
        _, _, _, h, _, _, _, n, N, case, status, reason, seconds, failed = row
        try:
            head, mid, tail, end = pieces[N, case, status, reason, failed]
        except KeyError:
            failed_json = f'"failed_checks": [{", ".join(map(esc, failed))}], ' if failed else ""
            head, mid, tail, end = pieces[N, case, status, reason, failed] = (
                f'{{"N": {N}, "case": {esc(case)}, "e": {e}, {failed_json}"h": ',
                f', "m": {m}, "n": ',
                f', "p": {p}, "q": {q}, "r": {r}, "reason": {esc(reason)}, "s": {s}, "seconds": ',
                f', "status": {esc(status)}}}\n',
            )
        try:
            seconds_json = seconds_text[seconds]
        except KeyError:
            seconds_json = seconds_text[seconds] = repr(seconds)
        return f"{head}{h}{mid}{n}{tail}{seconds_json}{end}"

    return row_json


@main.command()
@click.option("--max-r", type=int, required=True, help="Upper bound on the big field size r.")
@_e_option
@click.option("--budget", type=int, default=DEFAULT_SWEEP_BUDGET, show_default=True, help="Per-item brute-force cap in r^2*n units; larger items are classified only.")
@_format_option
def sweep(max_r, e, budget, fmt) -> None:
    """Enumerate, classify, and verify every parameter set with r <= MAX_R.

    Only towers whose q has e | q-1 are enumerated, since no other q has an
    h.  Items run one after another in parameter-tuple order; an applicable
    item whose brute cost exceeds --budget is classified only (skipped_budget).
    Each tower is built once, right before its rows, which are written as they are computed.
    """
    with _exit_on_error():
        if max_r < 2:
            raise BadParametersError("--max-r must be at least 2")
        if max_r > DEFAULT_FIELD_CAP:
            raise FieldTooLargeError(f"--max-r = {max_r} exceeds cap {DEFAULT_FIELD_CAP}")
        validate_e(e)
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([*_SWEEP_COLUMNS, "failed_checks"])
    seconds_text: dict[float, str] = {}
    for p, s, m, hs in _sweep_towers(max_r, e):
        # FieldTower, not build_tower: the sieve proved p prime, and r <= max_r <= the cap was checked above
        tower = FieldTower(p, s, m)
        rows = _sweep_rows(tower, hs, e, budget)
        if fmt == "json":
            sys.stdout.writelines(map(_json_rows(p, s, m, e, tower.q, tower.r, seconds_text), rows))
        elif fmt == "csv":
            writer.writerows((*row[:-1], ";".join(row[-1])) for row in rows)
        else:
            for _, _, _, h, _, _, r, n, N, case, status, reason, _, failed in rows:
                reason = "failed checks: " + ", ".join(failed) if failed else reason
                print(f"p={p} s={s} m={m} h={h}: r={r} n={n} N={N} case={case} -> {status} {reason}".rstrip())


if __name__ == "__main__":
    main()
