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

from .charsums import CharSystem, class_counts, f_charsum, f_closed, lifted_sums, subfield_sums
from .code import (
    BadParametersError,
    BudgetExceededError,
    CodeParams,
    _length_and_N,
    brute_distribution,
    build_code,
    semi_analytic_distribution,
    validate_e,
)
from .fields import DEFAULT_FIELD_CAP, BadPolynomialError, FieldTooLargeError, FieldTower, build_tower
from .theorem import TheoremCase, _e_N_reason, classify, table_distribution

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
    A semi route or an H table (f_charsum, f_closed) that raises ArithmeticError
    is left out and reported under its name as ``failed: <message>``; three_way_equal
    or f_triple_equal is then false, and every other check still runs.  Where the tower's
    Jacobi sums equal the lifted ones, as lifted_sums checks, semi's H is the f_charsum table.
    """
    tw = params.tower
    r, n_ord = tw.r, params.N
    dists = {"brute": brute_distribution(params, budget=budget)}
    system, lifted = CharSystem(tw, n_ord), subfield_sums(tw, n_ord)  # semi's lift, checked below
    checks: dict = {}
    try:
        dists["semi"], semi_h = semi_analytic_distribution(params, lifted, with_h=True)
    except ArithmeticError as exc:  # a wrong lift: the checks below still run, lifted_sums among them
        checks["semi"], semi_h = f"failed: {exc}", None
    dists["table"] = table_distribution(params)
    first = _first_diff_check(dists, [("brute", name) for name in ("semi", "table") if name in dists])
    checks["three_way_equal"] = "semi" in dists and first is None
    if first:
        checks["first_diff"] = first

    own = lifted_sums(system, 1)  # the tower's Gauss and Jacobi sums
    tables = [class_counts(params)]  # H each
    for name, route, arg in (("f_charsum", f_charsum, own[1]), ("f_closed", f_closed, case)):
        try:
            tables.append(semi_h if name == "f_charsum" and semi_h is not None and arg == lifted[1] else route(params, arg))
        except ArithmeticError as exc:  # an inexact count, as from a wrong tower Jacobi sum
            checks[name] = f"failed: {exc}"
    checks["f_triple_equal"] = len(tables) == 3 and tables[0] == tables[1] == tables[2]
    checks["f_partition"] = sum(tables[0].values()) == r - 2
    if len(tables) == 3 and (d := _first_diff(tables)) is not None:
        checks["f_first_diff"] = {"d": list(d), "counts": [t.get(d, 0) for t in tables]}

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
    big = math.lcm(tw.p, n_ord)
    checks["gauss_jacobi_relation"] = all(
        system.gauss_sum(i + j) * jacobi.embed(big) == system.gauss_sum(i) * system.gauss_sum(j)
        for (i, j), jacobi in own[1].items()
    )
    # exact where p generates (Z/N)*, as on every applicable set; elsewhere false, never a false pass
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
    click.option("--budget", type=click.IntRange(min=0), default=DEFAULT_BUDGET, show_default=True, help="Brute-force work cap, in r^2*n units."),
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

    Yields (p, s, m, q, r, hs), hs the increasing h with e | h | q-1, that is e*d for
    the divisors d of k = (q-1)/e: e times those up to sqrt(k), then (q-1)/d = e*(k/d) for
    the same d in reverse, a square root once.  Only q with e | q-1 have such an h; any
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
                hs = [e * d for d in low] + [(q - 1) // d for d in reversed(low) if d * d != k]
                r, m = q, 1
                while r <= max_r:
                    yield (p, s, m, q, r, hs)
                    r, m = r * q, m + 1
            q, s = q * p, s + 1


_SWEEP_COLUMNS = ("p", "s", "m", "h", "e", "q", "r", "n", "N", "case", "status", "reason", "seconds")


def _sweep_rows(p: int, s: int, m: int, q: int, r: int, hs: list[int], e: int, budget: int):
    """The tower's rows, one per h in ``hs``: (h, n, shape, micros), shape = (N, case, status, reason, failed).

    n and N come from ``_length_and_N`` and the verdict from e and N first (``_e_N_reason``, once per N of
    the tower): the rows it settles share one shape per N.  Only a row with e = 3 and N >= 2 builds a
    CodeParams and is classified, and the tower's FieldTower is built on its first such row.  ``micros``,
    whole microseconds between the row's own two ``time.monotonic_ns`` reads, covers all of its work, so a
    tower's lazy tables are built, and timed, inside its first verified row.
    """
    step, tower, settled = (r - 1) // (q - 1), None, {}
    clock, length_and_N = time.monotonic_ns, _length_and_N  # looked up once per tower
    for h in hs:
        t0 = clock()
        n, N = length_and_N(h, e, m, step, (q - 1) // h)
        try:
            shape = settled[N]
        except KeyError:
            reason = _e_N_reason(e, N)
            shape = settled[N] = reason and (N, "", "not_applicable", reason, ())  # None if e = 3 and N >= 2
        if shape is None:
            if tower is None:  # FieldTower, not build_tower: the sieve proved p prime, and sweep checked the cap
                tower = FieldTower(p, s, m)
            params = build_code(tower, h, e)
            label, status, failed = "", "not_applicable", ()
            reason = case = classify(params)
            if isinstance(case, TheoremCase):
                label, status, reason = case.label, "PASS", ""
                try:
                    checks, _ = _verification_checks(params, case, budget)
                except BudgetExceededError:
                    status = "skipped_budget"
                except ArithmeticError as exc:  # an internal failure fails this row, not the sweep
                    status, reason = "FAIL", f"{type(exc).__name__}: {exc}"
                else:
                    failed = tuple(sorted(k for k, v in checks.items() if v is False))
                    if failed:  # each route that failed, with its message: checks holds no other text
                        status, reason = "FAIL", "; ".join(f"{k} {v}" for k, v in checks.items() if isinstance(v, str))
            shape = N, label, status, reason, failed
        yield h, n, shape, (clock() - t0 + 500) // 1000


def _json_text(p: int, s: int, m: int, e: int, q: int, r: int, rows, seconds_text: dict) -> str:
    """One tower's rows as one string: per row the bytes of json.dumps(row, sort_keys=True) and a newline.

    A row formats only h, n and its seconds: each shape's four text pieces are built on its first row, text
    through json's escaper, and ``seconds_text`` (one per sweep) maps micros to repr(micros / 1e6)."""
    esc, pieces, lines = encode_basestring_ascii, {}, []
    for h, n, shape, micros in rows:
        try:
            head, mid, tail, end = pieces[shape]
        except KeyError:
            N, case, status, reason, failed = shape
            failed_json = f'"failed_checks": [{", ".join(map(esc, failed))}], ' if failed else ""
            head, mid, tail, end = pieces[shape] = (
                f'{{"N": {N}, "case": {esc(case)}, "e": {e}, {failed_json}"h": ',
                f', "m": {m}, "n": ',
                f', "p": {p}, "q": {q}, "r": {r}, "reason": {esc(reason)}, "s": {s}, "seconds": ',
                f', "status": {esc(status)}}}\n',
            )
        try:
            seconds = seconds_text[micros]
        except KeyError:
            seconds = seconds_text[micros] = repr(micros / 1e6)
        lines.append(f"{head}{h}{mid}{n}{tail}{seconds}{end}")
    return "".join(lines)


@main.command()
@click.option("--max-r", type=int, required=True, help="Upper bound on the big field size r.")
@_e_option
@click.option("--budget", type=click.IntRange(min=0), default=DEFAULT_SWEEP_BUDGET, show_default=True, help="Per-item brute-force cap in r^2*n units; larger items are classified only.")
@_format_option
def sweep(max_r, e, budget, fmt) -> None:
    """Enumerate, classify, and verify every parameter set with r <= MAX_R.

    Only towers whose q has e | q-1 are enumerated, since no other q has an
    h.  Items run one after another in parameter-tuple order; an applicable
    item whose brute cost exceeds --budget is classified only (skipped_budget).
    An item's verdict comes from e and N first: e != 3 or N = 1 is not applicable
    and builds no field.  A tower is built once, on its first item with e = 3 and
    N >= 2, and timed in that item's seconds.  JSON writes each tower's rows at
    once, after its last item; CSV and pretty write each row as it is computed.
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
    seconds_text: dict[int, str] = {}
    for p, s, m, q, r, hs in _sweep_towers(max_r, e):
        rows = _sweep_rows(p, s, m, q, r, hs, e, budget)
        if fmt == "json":
            sys.stdout.write(_json_text(p, s, m, e, q, r, rows, seconds_text))
        elif fmt == "csv":
            cells = ((p, s, m, h, e, q, r, n, *shape[:4], micros / 1e6, ";".join(shape[4])) for h, n, shape, micros in rows)
            writer.writerows(cells)
        else:
            for h, n, (N, case, status, reason, failed), _ in rows:
                reason = "failed checks: " + ", ".join(failed) if failed else reason
                print(f"p={p} s={s} m={m} h={h}: r={r} n={n} N={N} case={case} -> {status} {reason}".rstrip())


if __name__ == "__main__":
    main()
