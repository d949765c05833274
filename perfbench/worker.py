"""One fresh interpreter of the benchmark: set up inputs, run a pass, check it.

    python3 perfbench/worker.py setup|pass|check PLAN OUT [--trace]

``setup`` imports exmech and builds every mechanism, domain spec and bundle
file of the plan, then stops.  ``pass`` continues with one timed analysis per
library item, with the control kernel (control.py) timed between analyses,
and then, outside the timed region, re-validates every witness and
cross-checks deterministic verdicts against the tie-propagation
characterization.  ``check`` re-validates the witnesses the CLI printed.
Results go to OUT as JSON; times are ``time.monotonic`` so that the parent
can subtract its own clock readings.
"""

import time

T_BEGIN = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

FULL_KINDS = ("unrestricted", "strict", "weak_only")
CONTROL_SAMPLES = 2


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Builder:
    """Turns plan data into exmech objects through the public API only."""

    def __init__(self) -> None:
        from exmech import deterministic, domains, model, queueing, stochastic

        self.det, self.prob, self.model = deterministic, stochastic, model
        self.domains, self.queueing = domains, queueing

    def mechanism(self, spec: dict):
        builder = spec.get("builder")
        if builder is not None:
            return self._from_builder(builder)
        env = self.model.Environment.create(spec["agents"], spec["outcomes"])
        profiles = list(self.model.enumerate_profiles(env))
        if spec["kind"] == "det":
            return env, self.det.DetMechanism(env, dict(zip(profiles, spec["table"])))
        table = {
            profile: self.prob.Distribution(
                {z: Fraction(p) for z, p in zip(env.outcomes, row)}
            )
            for profile, row in zip(profiles, spec["dists"])
        }
        return env, self.prob.ProbMechanism(env, table)

    def _from_builder(self, b: dict):
        name = b["name"]
        if name == "referendum":
            return self.det.build_majority_referendum(b["m"])
        if name == "plurality":
            return self.det.build_plurality(b["n"], b["m"])
        if name == "groves":
            grid = tuple(Fraction(g) for g in b["grid"].split(","))
            params = self.queueing.QueueingParams(Fraction(b["theta1"]), Fraction(b["theta2"]), grid)
            return self.det.build_groves_queueing(params)
        if name == "relfreq":
            return self.prob.build_relative_frequency(b["n"], b["m"])
        if name == "mixed-counterexample":
            return self.prob.build_mixed_counterexample()
        raise ValueError(f"unknown builder {name!r}")

    def domain_specs(self, env, flag: str):
        if flag == "explicit:counterexample":
            spec = self.model.DomainSpec.explicit
            return (
                spec((self.prob.counterexample_preference(),)),
                spec((self.domains.indifferent_ordering(1, env.actions[1], env.outcomes),)),
            )
        return self.domains.resolve_domains(env, flag)

    def search(self, item: dict, mech, specs):
        if item["kind"] == "det":
            return self.det.search_ba_witness(mech, specs)
        return self.prob.search_prob_ba_witness(mech, specs)

    def validate(self, kind: str, mech, witness) -> None:
        if kind == "det":
            self.det.validate_witness(mech, witness)
        else:
            self.prob.validate_prob_witness(mech, witness)

    def write_bundle(self, spec: dict) -> None:
        env, mech = self.mechanism(spec)
        bundle = {"environment": self.model.env_to_json(env),
                  "mechanism": self.det.det_mech_to_json(mech)}
        Path(spec["path"]).write_text(json.dumps(bundle, sort_keys=True, indent=2) + "\n")


def witness_data(witness) -> dict | None:
    if witness is None:
        return None
    return {
        "agent": witness.agent,
        "r": witness.r,
        "l": witness.l,
        "a_minus": list(witness.a_minus),
        "b_minus": list(witness.b_minus),
        "ordering": [[list(p) for p in cls] for cls in witness.ordering.classes],
    }


def run_pass(b: Builder, built: list, result: dict, tracer) -> None:
    """Time each analysis, with the control kernel timed before and after it."""
    import control  # after set-up, so that set-up times do not include it

    found = []
    before = control.timed(CONTROL_SAMPLES)
    for item, (env, mech), specs in built:
        cpu0, start = cpu_seconds(), time.perf_counter()
        try:
            found.append((b.search(item, mech, specs).witness, None))
        except Exception:  # an analysis that raises is counted as failed
            found.append((None, traceback.format_exc(limit=3)))
        latency, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
        after = control.timed(CONTROL_SAMPLES)
        result["analyses"].append({"id": item["id"], "latency_s": latency, "cpu_s": cpu,
                                   "control": [before, after]})
        before = after
    if tracer is not None:
        tracer.uninstall()
    for record, (item, (env, mech), specs), (witness, error) in zip(result["analyses"], built, found):
        record["error"] = error
        record["verdict"] = None if error else ("BA" if witness is not None else "NBA")
        record["method"] = None if error else "exhaustive-search"
        record["witness"] = witness_data(witness)
        record["problems"] = [] if error else check(b, item, env, mech, witness)


def check(b: Builder, item: dict, env, mech, witness) -> list[str]:
    problems = []
    if witness is not None:
        try:
            b.validate(item["kind"], mech, witness)
        except Exception as exc:
            problems.append(f"witness does not validate: {exc}")
    if item["kind"] == "det" and item["domains"] in FULL_KINDS:
        if b.det.nba_by_characterization(mech, item["domains"]) != (witness is None):
            problems.append("verdict disagrees with the tie-propagation characterization")
    return problems


def run_check(b: Builder, plan: dict, result: dict) -> None:
    """Re-validate CLI witnesses against the mechanisms the commands analysed."""
    for item in plan["items"]:
        _, mech = b.mechanism(item["mech"])
        try:
            b.validate(item["mech"]["kind"], mech, b.model.witness_from_json(item["witness"]))
            problem = None
        except Exception as exc:
            problem = f"witness does not validate: {exc}"
        result["checks"].append({"id": item["id"], "problem": problem})


def main(argv: list[str]) -> int:
    mode, plan_path, out_path = argv[:3]
    trace = "--trace" in argv[3:]
    start = time.perf_counter()
    import exmech  # noqa: F401

    builder = Builder()
    result = {"begin": T_BEGIN, "import_s": time.perf_counter() - start, "analyses": [], "checks": []}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    plan = json.loads(Path(plan_path).read_text())
    built = []
    if mode != "check":
        for item in plan["items"]:
            if item["kind"] != "cli":
                env, mech = builder.mechanism(item)
                built.append((item, (env, mech), builder.domain_specs(env, item["domains"])))
        for spec in plan["bundles"]:
            builder.write_bundle(spec)
    result["ready"] = time.monotonic()
    if mode == "pass":
        run_pass(builder, built, result, tracer)
    elif mode == "check":
        run_check(builder, plan, result)
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
    result["end"] = time.monotonic()
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
