#!/usr/bin/env python3
"""Benchmark for exmech: end-to-end metrics, per-layer metrics and a verdict gate.

    python3 perfbench/run.py --workload det_nba_scan --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  det_nba_scan   library deterministic searches, mostly NBA full scans
  prob_fsd_scan  library probabilistic searches on the exact Fraction FSD path
  cli_corpus     ``python -m exmech.cli`` commands, one child process each
  all            the three in turn, with one combined result line

The load is one closed-loop client.  Each pass runs in fresh interpreters,
so exmech's module-level caches start cold as they do for a CLI user.  A run
repeats passes until ``--seconds`` would be exceeded, plus a few set-up-only
children, and reports medians.  Times are scaled by the control kernel timed
next to each analysis (control.py explains why); stderr shows raw medians too.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics instead of end-to-end ones.

Every analysis is checked against the pinned answers in expected.json
(verdict, method, witness hash, CLI exit code); BA witnesses are re-validated
and deterministic verdicts cross-checked against the tie-propagation
characterization, outside the timed region.  Any mismatch makes the result
``correct: false`` and the exit code 1.  The last stdout line is the JSON
result.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import control
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_SAMPLES = 3  # set-up-only children before the first pass; one more follows each pass
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "analysis_ms_p50": "ms",
    "analysis_ms_max": "ms",
    "peak_rss_mb": "MB",
}

CLAIMS = (
    "characterization-equivalence",
    "voting-axioms-force-anomaly",
    "groves-tie-propagation-fails",
    "queueing-preferences-separable",
    "queueing-witness-validates",
    "strict-dichotomy-blocks-dominance",
    "mixed-mechanisms-avoid-anomaly",
    "mixed-counterexample-reproduced",
    "classical-domains-avoid-anomaly",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, tracer groups it needs, value from a merged trace summary)
PER_LAYER = {
    "domains.orderings_s": ("s", ["domains.orderings"], lambda t: t["self_s"].get("domains.orderings", 0.0)),
    "domains.rank_vectors_s": ("s", ["domains.rank_vectors"], lambda t: t["self_s"].get("domains.rank_vectors", 0.0)),
    "domains.orderings_calls": ("count", ["domains.orderings"], lambda t: t["calls"].get("domains.orderings", 0)),
    "domains.enumerations": ("count", ["domains.enumerate"], lambda t: t["outer_calls"].get("domains.enumerate", 0)),
    "domains.orderings_built": ("count", ["domains.enumerate"], lambda t: t["counts"].get("domains.orderings_built", 0)),
    "domains.cache_hit_ratio": ("ratio", ["domains.orderings", "domains.enumerate"], lambda t: _ratio(
        t["calls"].get("domains.orderings", 0) - t["counts"].get("domains.enumerations_in_orderings", 0),
        t["calls"].get("domains.orderings", 0))),
    "model.ordering_objects": ("count", ["model.ordering"], lambda t: t["calls"].get("model.ordering", 0)),
    "model.rank_calls": ("count", ["model.rank"], lambda t: t["calls"].get("model.rank", 0)),
    "model.env_from_json_s": ("s", ["model.env_from_json"], lambda t: t["incl_s"].get("model.env_from_json", 0.0)),
    "deterministic.build_s": ("s", ["det.build"], lambda t: t["incl_s"].get("det.build", 0.0)),
    "deterministic.search_s": ("s", ["det.search"], lambda t: t["self_s"].get("det.search", 0.0)),
    "deterministic.searches": ("count", ["det.search"], lambda t: t["calls"].get("det.search", 0)),
    "deterministic.outcome_lookups": ("count", ["det.outcome_at"], lambda t: t["calls"].get("det.outcome_at", 0)),
    "deterministic.ba_ratio": ("ratio", ["det.search"], lambda t: _ratio(
        t["counts"].get("det.search.ba", 0), t["calls"].get("det.search", 0))),
    "deterministic.characterization_s": ("s", ["det.characterization"], lambda t: t["incl_s"].get("det.characterization", 0.0)),
    "deterministic.validate_s": ("s", ["det.validate"], lambda t: t["incl_s"].get("det.validate", 0.0)),
    "stochastic.build_s": ("s", ["prob.build"], lambda t: t["incl_s"].get("prob.build", 0.0)),
    "stochastic.search_s": ("s", ["prob.search"], lambda t: t["self_s"].get("prob.search", 0.0)),
    "stochastic.searches": ("count", ["prob.search"], lambda t: t["calls"].get("prob.search", 0)),
    "stochastic.fsd_calls": ("count", ["prob.fsd"], lambda t: t["calls"].get("prob.fsd", 0)),
    "stochastic.fsd_true_ratio": ("ratio", ["prob.fsd"], lambda t: _ratio(
        t["counts"].get("prob.fsd.true", 0), t["calls"].get("prob.fsd", 0))),
    "stochastic.phi_calls": ("count", ["prob.phi"], lambda t: t["calls"].get("prob.phi", 0)),
    "stochastic.fsd_s": ("s", ["prob.fsd"], lambda t: t["incl_s"].get("prob.fsd", 0.0)),
    "stochastic.dist_lookups": ("count", ["prob.dist_at"], lambda t: t["calls"].get("prob.dist_at", 0)),
    "stochastic.validate_s": ("s", ["prob.validate"], lambda t: t["incl_s"].get("prob.validate", 0.0)),
    "verify.run_all_s": ("s", ["verify.run_all"], lambda t: t["incl_s"].get("verify.run_all", 0.0)),
}
for _claim in CLAIMS:
    PER_LAYER["verify.claim_s." + _claim] = ("s", [], lambda t, c=_claim: t["claims"].get(c, 0.0))
PER_LAYER.update({
    "cli.interpreter_s": ("s", [], lambda t: t["interpreter_s"]),
    "cli.import_s": ("s", [], lambda t: t["import_s"]),
    "cli.main_s": ("s", ["cli.main"], lambda t: t["incl_s"].get("cli.main", 0.0)),
    "cli.serialize_s": ("s", ["cli.serialize"], lambda t: t["incl_s"].get("cli.serialize", 0.0)),
    "trace.overhead_s": ("s", [], None),
})


class BenchmarkError(Exception):
    pass


def pin_to_one_cpu() -> None:
    """Run the harness and, by inheritance, every child on one CPU.

    The two CPUs of the development VM drift in speed independently, so the
    control kernel timed in the harness must share the CPU of the child it
    scales.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


# --- child processes -------------------------------------------------------------


class Child:
    """Wall time, exit code, peak RSS and CPU of one finished child process.

    ``factor`` scales its times to the control kernel's nominal speed; the
    caller sets it from control timings taken just before and after.
    """

    factor = 1.0

    def __init__(self, argv: list[str], env: dict, stdout: Path, stderr: Path) -> None:
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            self.start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            self.end = time.monotonic()
        self.code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.stdout, self.stderr = stdout, stderr

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def error_text(self) -> str:
        return self.stderr.read_text(errors="replace")[-2000:]


class Context:
    def __init__(self, workload: str, seed: int, fixture: dict, work: Path) -> None:
        self.workload, self.seed, self.work = workload, seed, work
        text = json.dumps(inputs.make_plan(workload, seed, fixture)).replace("{work}", str(work))
        self.plan = json.loads(text)
        self.plan_path = work / "plan.json"
        self.plan_path.write_text(text)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self._control = None  # the latest control timing, reused as the next "before"
        self._serial = 0

    def path(self, stem: str) -> Path:
        self._serial += 1
        return self.work / f"{self._serial:05d}-{stem}"

    def child(self, argv: list[str], stem: str) -> Child:
        before = self._control if self._control is not None else control.timed()
        child = Child([sys.executable, *argv], self.env, self.path(stem + ".out"), self.path(stem + ".err"))
        self._control = control.timed()
        child.factor = control.factor(before, self._control)
        return child

    def worker(self, mode: str, plan_path: Path, trace: bool = False) -> tuple[Child, dict]:
        out = self.path(mode + ".json")
        argv = [str(HERE / "worker.py"), mode, str(plan_path), str(out)] + (["--trace"] if trace else [])
        child = self.child(argv, mode)
        if child.code != 0:
            raise BenchmarkError(f"worker {mode} exited with {child.code}:\n{child.error_text()}")
        return child, json.loads(out.read_text())


# --- passes ---------------------------------------------------------------------------


class PassResult:
    """One pass: per-analysis times scaled by the control kernel, and raw."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self.outputs: list[dict] = []  # one per analysis: the observed answer
        self.trace: dict | None = None

    def add(self, latency: float, cpu: float, factor: float) -> None:
        self.raw_latencies.append(latency)
        self.latencies.append(latency * factor)
        self.cpu_s += cpu * factor

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw_latencies)


def setup_sample(ctx: Context) -> tuple[float, float]:
    """Set-up time of one fresh child, scaled and raw."""
    child, result = ctx.worker("setup", ctx.plan_path)
    raw = result["ready"] - child.start
    return raw * child.factor, raw


def library_pass(ctx: Context, trace: bool) -> PassResult:
    child, result = ctx.worker("pass", ctx.plan_path, trace)
    res = PassResult()
    for a in result["analyses"]:
        res.add(a["latency_s"], a["cpu_s"], control.factor(*a["control"]))
    res.rss_mb = child.rss_mb
    res.outputs = result["analyses"]
    if trace:
        res.trace = child_trace(child, result)
    return res


def child_trace(child: Child, result: dict) -> dict:
    """A child's trace summary plus its start-up costs."""
    summary = result["trace"]
    summary["import_s"] = result["import_s"]
    # What the child's own clock did not see: interpreter start and shutdown.
    summary["interpreter_s"] = child.wall_s - (result["end"] - result["begin"])
    return summary


def parse_cli_output(item: dict, child: Child) -> dict:
    """The observed answer of one CLI command, in the pinned answer's terms."""
    text = child.stdout.read_text(errors="replace")
    out = {"id": item["id"], "exit": child.code, "verdict": None, "method": None, "witness": None}
    argv = item["argv"]
    if argv[0] == "analyze" and child.code == 0:
        try:
            if "text" in argv:
                fields = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
                out["verdict"] = fields["verdict"].strip()
                out["method"] = fields["method"].strip()
                if "witness" in fields:
                    out["witness"] = json.loads(fields["witness"])
            else:
                report = json.loads(text)
                out.update(verdict=report["verdict"], method=report["method"], witness=report["witness"])
        except (ValueError, KeyError, TypeError):
            out["verdict"] = "unreadable report"
    lines = text.strip().splitlines()
    out["stdout_last"] = lines[-1] if lines else ""
    out["stdout_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    if argv[0] == "build" and "--out" in argv:
        written = Path(argv[argv.index("--out") + 1])
        if written.is_file():
            out["file_sha256"] = hashlib.sha256(written.read_bytes()).hexdigest()
    return out


def merge_traces(traces: list[dict]) -> dict:
    merged = {"calls": {}, "outer_calls": {}, "self_s": {}, "incl_s": {}, "counts": {}, "claims": {},
              "missing": [], "import_s": 0.0, "interpreter_s": 0.0}
    for t in traces:
        for key in ("calls", "outer_calls", "self_s", "incl_s", "counts", "claims"):
            for name, value in t[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["missing"] = sorted(set(merged["missing"]) | set(t["missing"]))
        merged["import_s"] += t["import_s"]
        merged["interpreter_s"] += t["interpreter_s"]
    return merged


def cli_pass(ctx: Context, trace: bool) -> PassResult:
    res = PassResult()
    traces = []
    for item in ctx.plan["items"]:
        if trace:
            trace_out = ctx.path("trace.json")
            child = ctx.child([str(HERE / "launch.py"), str(trace_out), *item["argv"]], "cli")
        else:
            child = ctx.child(["-m", "exmech.cli", *item["argv"]], "cli")
        res.add(child.wall_s, child.cpu_s, child.factor)
        res.rss_mb = max(res.rss_mb, child.rss_mb)
        res.outputs.append(parse_cli_output(item, child))
        if trace:
            if not trace_out.is_file():
                raise BenchmarkError(f"traced command {item['argv']} wrote no trace:\n{child.error_text()}")
            traces.append(child_trace(child, json.loads(trace_out.read_text())))
    if trace:
        res.trace = merge_traces(traces)
    return res


def check_cli_witnesses(ctx: Context, outputs: list[dict]) -> dict[str, str]:
    """Re-validate the BA witnesses the CLI printed; returns id -> problem."""
    items = [
        {"id": item["id"], "mech": item["mech"], "witness": out["witness"]}
        for item, out in zip(ctx.plan["items"], outputs)
        if out["witness"] is not None and item.get("mech") is not None
    ]
    if not items:
        return {}
    path = ctx.path("check-plan.json")
    path.write_text(json.dumps({"items": items, "bundles": []}))
    _, result = ctx.worker("check", path)
    return {c["id"]: c["problem"] for c in result["checks"] if c["problem"]}


# --- the gate ----------------------------------------------------------------------------


class Gate:
    """Counts analyses attempted, failed, and answered differently from the pin."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.verdict_errors = 0
        self.messages: list[str] = []

    def problem(self, item_id: str, text: str) -> None:
        self.verdict_errors += 1
        if len(self.messages) < 20:
            self.messages.append(f"{item_id}: {text}")

    def check(self, items: list[dict], outputs: list[dict]) -> None:
        for item, out in zip(items, outputs):
            expect = item["expect"]
            self.attempted += 1
            if out.get("error") or (expect["exit"] is not None and out["exit"] != expect["exit"]):
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{item['id']}: failed: {out.get('error') or out['exit']}")
                continue
            for problem in out.get("problems", []):
                self.problem(item["id"], problem)
            for key in ("verdict", "method"):
                if expect[key] is not None and out[key] != expect[key]:
                    self.problem(item["id"], f"{key} {out[key]!r}, pinned {expect[key]!r}")
            if expect["verdict"] is not None:
                try:
                    got = inputs.witness_sha256(out["witness"])
                except (KeyError, TypeError, ValueError):
                    got = "malformed witness"
                if got != expect["witness_sha256"]:
                    self.problem(item["id"], f"witness sha256 {got}, pinned {expect['witness_sha256']}")
            for key in ("stdout_sha256", "stdout_last", "file_sha256"):
                if key in expect and out.get(key) != expect[key]:
                    self.problem(item["id"], f"{key} {out.get(key)!r}, pinned {expect[key]!r}")


# --- a run ---------------------------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, fixture: dict) -> dict:
    if not (ROOT / "src" / "exmech" / "__init__.py").is_file():
        raise BenchmarkError(f"no exmech sources under {ROOT / 'src'}")
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        return _run(Context(workload, seed, fixture, work), seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def _run(ctx: Context, seconds: float, trace: bool) -> dict:
    cli = ctx.workload == "cli_corpus"
    one_pass = cli_pass if cli else library_pass
    gate = Gate()
    pin_to_one_cpu()
    setups = [setup_sample(ctx) for _ in range(SETUP_SAMPLES)]
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    start = time.monotonic()
    while True:
        traced_turn = trace and len(traced) < len(untraced)
        res = one_pass(ctx, traced_turn)
        (traced if traced_turn else untraced).append(res)
        gate.check(ctx.plan["items"], res.outputs)
        setups.append(setup_sample(ctx))
        elapsed = time.monotonic() - start
        done = len(untraced) + len(traced)
        enough = not trace or traced
        if enough and elapsed + elapsed / done > seconds:
            break
    if cli:
        problems = check_cli_witnesses(ctx, untraced[-1].outputs)
        for item_id, problem in problems.items():
            gate.problem(item_id, problem)
    passes = untraced
    summary = {
        "passes": len(untraced),
        "traced_passes": len(traced),
        "analyses_per_pass": len(ctx.plan["items"]),
        "setup_samples": len(setups),
        "verdict_errors": gate.verdict_errors,
        "failed_ratio": _ratio(gate.failed, gate.attempted),
        "messages": gate.messages,
    }
    if trace:
        metrics = per_layer_metrics(traced, untraced, summary)
    else:
        metrics = {
            "setup_s": _median([scaled for scaled, _ in setups]),
            "wall_s": _median([p.wall_s for p in passes]),
            "cpu_s": _median([p.cpu_s for p in passes]),
            "analysis_ms_p50": 1000 * _median([x for p in passes for x in p.latencies]),
            "analysis_ms_max": 1000 * _median([max(p.latencies) for p in passes]),
            "peak_rss_mb": _median([p.rss_mb for p in passes]),
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
        summary["raw"] = {
            "setup_s": _median([raw for _, raw in setups]),
            "wall_s": _median([p.raw_wall_s for p in passes]),
            "analysis_ms_p50": 1000 * _median([x for p in passes for x in p.raw_latencies]),
            "analysis_ms_max": 1000 * _median([max(p.raw_latencies) for p in passes]),
        }
    return {
        "correct": gate.verdict_errors == 0 and gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
        "summary": summary,
    }


def per_layer_metrics(traced: list[PassResult], untraced: list[PassResult], summary: dict) -> dict:
    traces = [p.trace for p in traced]
    missing_groups = set().union(*(t["missing"] for t in traces))
    metrics, missing, unsteady = {}, [], []
    for name, (unit, groups, value) in PER_LAYER.items():
        if missing_groups.intersection(groups) or (
            name.startswith("verify.claim_s.") and traces[0]["incl_s"].get("verify.run_all")
            and name.split(".", 2)[2] not in traces[0]["claims"]
        ):
            missing.append(name)
            continue
        if value is None:  # trace.overhead_s
            v = _median([p.wall_s for p in traced]) - _median([p.wall_s for p in untraced])
        elif unit == "count":
            values = [value(t) for t in traces]
            if len(set(values)) > 1:
                unsteady.append(name)
            v = values[0]
        else:
            v = _median([value(t) for t in traces])
        metrics[name] = {"value": v, "unit": unit}
    summary["missing_metrics"] = missing
    summary["unsteady_counts"] = unsteady
    return metrics


def report(workload: str, result: dict, out=sys.stderr) -> None:
    s = result["summary"]
    print(f"== {workload}: {s['passes']} passes ({s['traced_passes']} traced) x "
          f"{s['analyses_per_pass']} analyses, {s['setup_samples']} set-up samples", file=out)
    raw = s.get("raw", {})
    if raw:
        print("  times scaled to the control kernel's nominal speed; [raw] beside them", file=out)
    for name, m in result["metrics"].items():
        raw_text = f"  [{raw[name]:.6g}]" if name in raw else ""
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{raw_text}", file=out)
    print(f"  {'verdict_errors':<48} {s['verdict_errors']:>14d} count", file=out)
    print(f"  {'failed_ratio':<48} {s['failed_ratio']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']})", file=out)
    for key in ("missing_metrics", "unsteady_counts"):
        if s.get(key):
            print(f"  {key}: {', '.join(s[key])}", file=out)
    for line in s["messages"]:
        print(f"  ! {line}", file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=str(inputs.FIXTURE),
                        help="pinned answers (the self-test passes an altered copy)")
    args = parser.parse_args(argv)
    try:
        fixture = inputs.load_fixture(args.expected)
        workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace), fixture)
            report(workload, results[workload])
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = {key: results[args.workload][key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
