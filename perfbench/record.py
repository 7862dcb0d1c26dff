"""Write ``expected.json``: the outputs every benchmark op must reproduce.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/record.py

Each op runs once at seed 0.  Its exit code, verdict, params,
classification, distribution and the names of the checks that came out
true are recorded; for sweep, every row except ``seconds``.  Before it is
written, each distribution is confirmed by a second route:

* ``verify``: the verdict is PASS, so brute, semi and table agreed;
* ``compute`` of an applicable set: ``compute --method all`` runs at
  least two routes, they agree, and they give the recorded distribution;
* ``compute --method brute`` of a set no closed form covers: every pair's
  weight is recomputed from Gaussian periods (``codeword_weight_from_lambda``),
  which shares no code with the brute loop;
* ``sweep``: no row failed, and every PASS row came from ``verify``'s checks.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import run


def _confirm_by_periods(package, argv: list[str], distribution: list) -> None:
    p, s, m, h = (int(argv[argv.index(flag) + 1]) for flag in ("--p", "--s", "--m", "--h"))
    tower = package.build_tower(p, s, m)
    params = package.build_code(tower, h, 3)
    system = package.CharSystem(tower, params.N)
    hist = Counter()
    for a in tower.elements():
        for b in tower.elements():
            hist[package.codeword_weight_from_lambda(params, system, a, b)] += 1
    if [[w, str(f)] for w, f in sorted(hist.items())] != distribution:
        raise SystemExit(f"period route disagrees with brute for {argv}")


def _confirm_by_all_routes(main, argv: list[str], distribution: list) -> None:
    method = argv.index("--method") + 1
    code, out, err = run.invoke(main, argv[:method] + ["all"] + argv[method + 1:])
    report = json.loads(out)
    routes = [name for name in ("brute", "semi", "table") if name not in report["checks"]]
    if code != 0 or report["checks"].get("methods_agree") is not True or len(routes) < 2:
        raise SystemExit(f"compute --method all did not cross-check {argv}: {out}{err}")
    if report["distribution"] != distribution:
        raise SystemExit(f"cross-checked distribution differs from {argv}")


def record_op(package, argv: list[str]) -> dict:
    code, out, err = run.invoke(package.cli.main, argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}: {err}")
    if argv[0] == "sweep":
        rows = [json.loads(line) for line in out.splitlines()]
        columns = sorted(rows[0])
        columns.remove("seconds")
        if any(sorted(row) != sorted(columns + ["seconds"]) for row in rows):
            raise SystemExit("sweep rows do not share one set of fields")
        if any(row["status"] not in ("PASS", "skipped_budget", "not_applicable") for row in rows):
            raise SystemExit("a sweep row failed")
        return {"argv": argv, "exit_code": code, "columns": columns, "rows": [[row[c] for c in columns] for row in rows]}
    report = json.loads(out)
    checks = report["checks"] or {}
    if argv[0] == "verify":
        if report["verdict"] != "PASS":
            raise SystemExit(f"{argv} did not pass: {out}")
    elif "brute" in argv:
        _confirm_by_periods(package, argv, report["distribution"])
    else:
        _confirm_by_all_routes(package.cli.main, argv, report["distribution"])
    return {
        "argv": argv,
        "exit_code": code,
        "verdict": report["verdict"],
        "params": report["params"],
        "classification": report["classification"],
        "distribution": report["distribution"],
        "checks_true": sorted(name for name, value in checks.items() if value is True),
    }


def _dump(record: dict) -> str:
    """JSON with one op, and one sweep row, per line, so diffs stay readable."""
    lines = ["{", f'  "recorded_at": {json.dumps(record["recorded_at"])},', '  "workloads": {']
    names = list(record["workloads"])
    for i, name in enumerate(names):
        lines.append(f"    {json.dumps(name)}: [")
        ops = record["workloads"][name]
        for j, op in enumerate(ops):
            op = dict(op)
            rows = op.pop("rows", None)
            text = json.dumps(op)
            if rows is not None:
                body = ",\n".join("        " + json.dumps(row) for row in rows)
                text = text[:-1] + ', "rows": [\n' + body + "\n      ]}"
            lines.append("      " + text + ("," if j < len(ops) - 1 else ""))
        lines.append("    ]" + ("," if i < len(names) - 1 else ""))
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def main() -> int:
    package = run.import_cyclotome()
    record = {"recorded_at": run.git_commit(), "workloads": {}}
    for name, ops in run.WORKLOADS.items():
        record["workloads"][name] = [record_op(package, argv) for argv in ops]
        print(f"recorded {name}: {len(ops)} ops", file=sys.stderr)
    text = _dump(record)
    if json.loads(text) != record:
        raise SystemExit("expected.json would not read back as recorded")
    run.EXPECTED.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
