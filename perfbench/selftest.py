#!/usr/bin/env python3
"""Self-test of the benchmark: counts repeat and the verdict gate trips.

    python3 perfbench/selftest.py

1. Two traced runs of each workload with one seed must report every
   per-layer metric of BENCHMARK.json and identical values for every count,
   in the predicted pattern (no FSD work on det_nba_scan, some on
   prob_fsd_scan).
2. A run against a copy of expected.json with one pinned witness hash
   altered must report ``correct: false`` and exit non-zero.

Takes about two minutes on two cores.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import inputs
import run

SEED = 7


def bench(*args: str) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check_counts(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in inputs.WORKLOADS:
        runs = []
        for _ in range(2):
            code, result = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                                 "--trace", "1")
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{workload}: traced run failed (exit {code})")
                break
            runs.append(result["metrics"])
        if len(runs) < 2:
            continue
        for name in names:
            if name not in runs[0]:
                failures.append(f"{workload}: per-layer metric {name} missing")
        for name in counts:
            a, b = (r.get(name, {}).get("value") for r in runs)
            if a != b:
                failures.append(f"{workload}: {name} differs between traced runs: {a} vs {b}")
        fsd = runs[0]["stochastic.fsd_calls"]["value"]
        lookups = runs[0]["deterministic.outcome_lookups"]["value"]
        if workload == "det_nba_scan" and (fsd != 0 or lookups == 0):
            failures.append(f"det_nba_scan: fsd_calls={fsd}, outcome_lookups={lookups}")
        if workload == "prob_fsd_scan" and fsd == 0:
            failures.append("prob_fsd_scan: no fsd calls")
        print(f"{workload}: {len(counts)} counts repeat" if not failures else f"{workload}: checked")


def check_gate(failures: list[str]) -> None:
    fixture = inputs.load_fixture()
    answer = fixture["answers"]["cli.referendum"]
    answer["witness_sha256"] = answer["witness_sha256"][::-1]
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT))
    try:
        altered = work / "expected.json"
        altered.write_text(json.dumps(fixture))
        code, result = bench("--workload", "cli_corpus", "--seed", str(SEED), "--seconds", "1",
                             "--expected", str(altered))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code == 0 or result is None or result["correct"]:
        failures.append(f"gate did not trip on an altered pinned answer (exit {code})")
    else:
        print("gate trips on an altered pinned answer")


def main() -> int:
    failures: list[str] = []
    check_gate(failures)
    check_counts(failures)
    for line in failures:
        print("FAIL", line)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
