"""Benchmark for cyclotome: fixed workloads through the CLI entry point, in process.

Run from the repository root:

    python3 perfbench/run.py --workload verify_mid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sweep_5000 --seed 0 --seconds 30 --trace 1

One process runs one workload.  A pass runs the workload's ops back to back
with one client (closed loop: each op starts when the previous returns) and
passes repeat until ``--seconds`` have elapsed.  Every op's exit code and
output are compared with the record in ``expected.json``.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics of the
traced passes are printed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hostspeed
from tracing import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
SPANS_DIR = ROOT / ".perfbench"

SETUP_PROBES = 7


def _op(command: str, p: int, s: int, m: int, h: int, method: "str | None" = None) -> list[str]:
    argv = [command] if method is None else [command, "--method", method]
    return argv + ["--p", str(p), "--s", str(s), "--m", str(m), "--h", str(h)]


# Why each workload exists is documented in README.md.
WORKLOADS: dict[str, list[list[str]]] = {
    "verify_mid": [
        _op("verify", 7, 1, 2, 3),
        _op("verify", 2, 2, 3, 3),
        _op("verify", 13, 1, 2, 6),
        _op("verify", 19, 1, 2, 3),
        _op("compute", 2, 2, 4, 3, method="brute"),
    ],
    "large_field": [
        _op("compute", 19, 1, 4, 3, method="all"),
        _op("compute", 13, 2, 2, 3, method="table"),
        _op("compute", 2, 2, 6, 3, method="semi"),
    ],
    "sweep_5000": [["sweep", "--max-r", "5000"]],
}
SEEDED = {"verify_mid"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_sets": "count",
}

# per-layer metric -> unit; every traced run emits all of them
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "fields.poly_search_s": "s",
    "fields.poly_candidates": "count",
    "fields.tables_s": "s",
    "fields.table_bytes": "bytes",
    "fields.trace_q_s": "s",
    "fields.trace_p_s": "s",
    "fields.towers_built": "count",
    "fields.build_tower_s": "s",
    "code.brute_s": "s",
    "code.brute_units": "count",
    "code.semi_s": "s",
    "charsums.char_system_s": "s",
    "charsums.f_enumerate_s": "s",
    "charsums.f_enumerate_pairs": "count",
    "charsums.f_charsum_s": "s",
    "charsums.jacobi_sum_s": "s",
    "charsums.gauss_sum_s": "s",
    "cycint.mul_calls": "count",
    "cycint.mul_s": "s",
    "theorem.classify_calls": "count",
    "theorem.classify_s": "s",
    "theorem.table_s": "s",
    "cli.op_s": "s",
    "cli.sweep_rows.PASS": "count",
    "cli.sweep_rows.skipped_budget": "count",
    "cli.sweep_rows.not_applicable": "count",
    "cli.sweep_verified_ratio": "ratio",
    "bench.untraced_wall_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead": "ratio",
}


# -- the program under test -------------------------------------------------


def import_cyclotome():
    """Import the package from this checkout's ``src``; exit with an error if it is absent."""
    if not (SRC / "cyclotome" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cyclotome sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("cyclotome")
    importlib.import_module("cyclotome.cli")
    if SRC.resolve() not in Path(package.__file__).resolve().parents:
        sys.exit(f"perfbench: imported cyclotome from {package.__file__}, not {SRC}")
    return package


def module_caches(package) -> list:
    """The package's module-level memo caches, cleared before every op so
    each op starts as a fresh ``cyclotome`` process would."""
    caches = []
    for layer in LAYERS:
        for value in vars(getattr(package, layer)).values():
            if hasattr(value, "cache_clear") and value not in caches:
                caches.append(value)
    return caches


def primitive_count(fields, p: int, degree: int) -> int:
    """Number of monic primitive polynomials of this degree: phi(p**d - 1) / d."""
    order = p**degree - 1
    phi = order
    for ell in fields.prime_factors(order):
        phi = phi // ell * (ell - 1)
    return phi // degree


def workload_ops(package, name: str, seed: int) -> list[list[str]]:
    """The argv of every op.  For a seeded workload, seed k > 0 passes
    ``--poly`` with primitive polynomial number k mod (their count), found
    here, before any timing; the expected outputs do not depend on it."""
    ops = [list(argv) for argv in WORKLOADS[name]]
    if name not in SEEDED or seed == 0:
        return ops
    for argv in ops:
        p, s, m = (int(argv[argv.index(flag) + 1]) for flag in ("--p", "--s", "--m"))
        index = seed % primitive_count(package.fields, p, s * m)
        poly = package.fields.find_primitive_polynomial(p, s * m, index)
        argv += ["--poly", ",".join(map(str, poly))]
    return ops


def load_expected(name: str) -> list[dict]:
    with EXPECTED.open() as fh:
        record = json.load(fh)["workloads"][name]
    if [op["argv"] for op in record] != WORKLOADS[name]:
        raise RuntimeError(f"expected.json does not describe the ops of {name}; re-run record.py")
    return record


def invoke(main, argv: list[str]) -> tuple["int | None", str, str]:
    """One ``cyclotome`` invocation in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="cyclotome", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that crashes counts as failed; the run goes on
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_pass(main, caches, ops, tracer=None) -> tuple[list, float]:
    """Run every op once, back to back; returns (results, seconds)."""
    results = []
    start = perf_counter()
    for i, argv in enumerate(ops):
        for cache in caches:
            cache.cache_clear()
        if tracer is None:
            results.append(invoke(main, argv))
        else:
            results.append(tracer.call_op(i, invoke, main, argv))
    return results, perf_counter() - start


# -- checking outputs ---------------------------------------------------------


@dataclass
class OpCheck:
    """Outcome of comparing one op's output with its expected record."""

    ok: bool
    verified: int
    rows: Counter
    why: str = ""


def check_op(expected: dict, result: tuple) -> OpCheck:
    """Exact comparison of one op's exit code and output with the record.

    ``verified`` counts the parameter sets whose routes were cross-checked
    and agreed in this output: a verify verdict of PASS, a compute with
    ``methods_agree`` true, or a sweep row with status PASS.
    """
    code, out, err = result
    if code != expected["exit_code"]:
        return OpCheck(False, 0, Counter(), f"exit code {code}, expected {expected['exit_code']}: {err.strip()[-300:]}")
    try:
        if "rows" in expected:
            return _check_sweep(expected, out)
        return _check_report(expected, out)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        return OpCheck(False, 0, Counter(), f"unreadable output: {exc!r}")


def _check_sweep(expected: dict, out: str) -> OpCheck:
    rows = [json.loads(line) for line in out.splitlines() if line.strip()]
    status = Counter(row.get("status") for row in rows)
    for row in rows:
        row.pop("seconds", None)
    want = [dict(zip(expected["columns"], values)) for values in expected["rows"]]
    if rows != want:
        if len(rows) != len(want):
            return OpCheck(False, status["PASS"], status, f"{len(rows)} sweep rows, expected {len(want)}")
        first = next(i for i, (a, b) in enumerate(zip(rows, want)) if a != b)
        return OpCheck(False, status["PASS"], status, f"sweep row {first}: {rows[first]} != {want[first]}")
    return OpCheck(True, status["PASS"], status)


def _check_report(expected: dict, out: str) -> OpCheck:
    report = json.loads(out)
    checks = report.get("checks") or {}
    verified = int(report.get("verdict") == "PASS" or checks.get("methods_agree") is True)
    for key in ("params", "classification", "distribution", "verdict"):
        if report.get(key) != expected[key]:
            return OpCheck(False, verified, Counter(), f"{key}: {report.get(key)!r} != {expected[key]!r}")
    if checks.get("methods_agree", True) is not True:
        return OpCheck(False, verified, Counter(), "methods_agree is false")
    failed = [name for name in expected["checks_true"] if checks.get(name) is not True]
    if failed:
        return OpCheck(False, verified, Counter(), f"checks not true: {failed}")
    return OpCheck(True, verified, Counter())


# -- run record and set-up time -------------------------------------------


def git_commit() -> "str | None":
    """HEAD of the checkout's git metadata, read from files; None without it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cyclotome").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(package, args, threads_found: "str | None") -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload in SEEDED,
        "seed_note": (
            "seed k > 0 selects the defining polynomials"
            if args.workload in SEEDED
            else "seed ignored: the inputs are a fixed grid"
        ),
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "CYCLOTOME_THREADS": threads_found,
        "cli.DEFAULT_BUDGET": package.cli.DEFAULT_BUDGET,
        "cli.DEFAULT_SWEEP_BUDGET": package.cli.DEFAULT_SWEEP_BUDGET,
        "fields.DEFAULT_FIELD_CAP": package.fields.DEFAULT_FIELD_CAP,
    }


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time of ``SETUP_PROBES`` fresh child interpreters: seconds from
    starting one to the point where it could run its first op (imports done,
    inputs and expected record loaded).  Returns (raw seconds, seconds at
    reference speed); each child times the reference loop right after."""
    raw, scaled = [], []
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            elapsed = perf_counter() - start
            reference = proc.stdout.read()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        raw.append(elapsed)
        scaled.append(elapsed * hostspeed.NOMINAL_S / float(reference))
    return raw, scaled


# -- the two kinds of run -----------------------------------------------------


def _spread(values: list[float], what: str) -> str:
    return f"median of {len(values)} {what}, min {min(values):.4f}, max {max(values):.4f}"


class Tally:
    """Attempted and failed ops over a run; each failure is told on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, expected: list[dict], results: list) -> list[OpCheck]:
        checks = [check_op(exp, res) for exp, res in zip(expected, results)]
        for exp, chk in zip(expected, checks):
            self.attempted += 1
            if not chk.ok:
                self.failed += 1
                print(f"FAILED op {' '.join(exp['argv'])}: {chk.why}", file=sys.stderr)
        return checks


def _room_for_another(start: float, rounds: list[float], seconds: int) -> bool:
    """Whether one more round, as long as the median round so far, ends
    within ``seconds`` of ``start``; the run then lasts about ``seconds``."""
    return perf_counter() - start + statistics.median(rounds) <= seconds


def run_untraced(package, ops, expected, seconds: int, tally: Tally) -> dict:
    main, caches = package.cli.main, module_caches(package)
    walls, scaled, verified, rounds = [], [], [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        with hostspeed.SpeedProbe() as probe:
            results, wall = run_pass(main, caches, ops)
        checks = tally.add(expected, results)
        walls.append(wall)
        scaled.append(probe.normalize(wall))
        verified.append(sum(c.verified for c in checks))
        rounds.append(perf_counter() - round_start)
        if not _room_for_another(start, rounds, seconds):
            break
    return {"walls": walls, "scaled": scaled, "verified": verified}


def run_traced(package, ops, expected, seconds: int, tally: Tally) -> tuple[dict, list]:
    """Alternate untraced and traced passes; per-layer metrics are the
    medians over traced passes, and counts must repeat exactly."""
    main, caches = package.cli.main, module_caches(package)
    tracer = Tracer()
    untraced, traced, per_pass, spans, rounds = [], [], [], [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        results, wall = run_pass(main, caches, ops)
        tally.add(expected, results)
        untraced.append(wall)
        tracer.reset()
        tracer.install(package)
        try:
            results, wall = run_pass(main, caches, ops, tracer)
        finally:
            tracer.uninstall()
        checks = tally.add(expected, results)
        traced.append(wall)
        spans.append(tracer.spans)
        metrics = tracer.pass_metrics()
        rows = sum((c.rows for c in checks), Counter())
        applicable = rows["PASS"] + rows["FAIL"] + rows["skipped_budget"]
        for status in ("PASS", "skipped_budget", "not_applicable"):
            metrics[f"cli.sweep_rows.{status}"] = rows[status]
        metrics["cli.sweep_verified_ratio"] = rows["PASS"] / applicable if applicable else 0.0
        per_pass.append(metrics)
        rounds.append(perf_counter() - round_start)
        if not _room_for_another(start, rounds, seconds):
            break
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                raise RuntimeError(f"count {name} differs between passes of one seed: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["bench.untraced_wall_s"] = statistics.median(untraced)
    out["bench.traced_wall_s"] = statistics.median(traced)
    out["bench.trace_overhead"] = out["bench.traced_wall_s"] / out["bench.untraced_wall_s"]
    return out, spans


def write_spans(workload: str, seed: int, spans: list) -> Path:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for pass_no, pass_spans in enumerate(spans):
            for i, (name, start, end, parent, op, _) in enumerate(pass_spans):
                fh.write(json.dumps([pass_no, i, name, start, end, parent, op]) + "\n")
    return path


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads_found = os.environ.pop("CYCLOTOME_THREADS", None)
    package = import_cyclotome()
    ops = workload_ops(package, args.workload, args.seed)
    expected = load_expected(args.workload)
    if args.setup_probe:
        print("ready", flush=True)
        print(hostspeed.reference_time())
        return 0

    record = run_record(package, args, threads_found)
    tally = Tally()
    if args.trace:
        metrics, spans = run_traced(package, ops, expected, args.seconds, tally)
        units = PER_LAYER
        record["spans_file"] = str(write_spans(args.workload, args.seed, spans).relative_to(ROOT))
    else:
        setup_raw, setup = measure_setup(args.workload, args.seed)
        runs = run_untraced(package, ops, expected, args.seconds, tally)
        metrics = {
            "wall_s": statistics.median(runs["scaled"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "verified_sets": statistics.median_low(runs["verified"]),
        }
        units = END_TO_END
    print("run_record " + json.dumps(record, sort_keys=True))
    print(f"{args.workload}: {tally.attempted} ops attempted, {tally.failed} failed")
    if not args.trace:
        print(f"  wall_s          {metrics['wall_s']:.6f} s   at reference speed ({_spread(runs['scaled'], 'passes')})")
        print(f"  wall_raw_s      {statistics.median(runs['walls']):.6f} s   as measured ({_spread(runs['walls'], 'passes')})")
        print(f"  setup_s         {metrics['setup_s']:.6f} s   at reference speed ({_spread(setup, 'fresh processes')})")
        print(f"  setup_raw_s     {statistics.median(setup_raw):.6f} s   as measured ({_spread(setup_raw, 'fresh processes')})")
        slowdown = statistics.median(w / n for w, n in zip(runs["walls"], runs["scaled"]))
        print(f"  host_slowdown   {slowdown:.4f} ratio (median raw / reference-speed pass time)")
        print(f"  peak_rss_mb     {metrics['peak_rss_mb']:.3f} MB")
        print(f"  fail_frac       {tally.failed / tally.attempted:.6f} ratio ({tally.failed} of {tally.attempted} ops)")
        print(f"  verified_sets   {metrics['verified_sets']} count (per pass)")
    else:
        for name in sorted(units):
            print(f"  {name:34} {metrics[name]} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
