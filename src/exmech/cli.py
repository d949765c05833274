"""Command-line interface: validate, build, analyze, verify.

Exit codes: 0 success (including an NBA verdict), 1 usage error,
2 validation or verification failure, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import CapExceeded, ExmechError, InvariantViolation, ParseError
from .model import (
    DomainKind,
    DomainSpec,
    Environment,
    Value,
    env_from_json,
    env_to_json,
    set_field,
    witness_to_json,
)
from .domains import (
    FULL_KINDS,
    build_queueing_pref_1,
    build_queueing_pref_2,
    indifferent_ordering,
    resolve_domains,
)
from .queueing import QueueingParams, parse_fraction, queueing_grid_of

if TYPE_CHECKING:
    from .deterministic import DetMechanism
    from .stochastic import ProbMechanism

# Each command imports `deterministic`, `stochastic` or `verify` where it
# uses them, so a command loads only the modules it runs.
BUILDERS = ("referendum", "plurality", "groves", "relfreq", "mixed-counterexample")
PROB_BUILDERS = ("relfreq", "mixed-counterexample")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_CAP = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fraction_arg(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int_arg(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _grid_arg(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction_arg(part) for part in text.split(","))


def build_parser() -> _Parser:
    parser = _Parser(prog="exmech", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a JSON environment/mechanism file")
    p_validate.add_argument("path")

    p_build = sub.add_parser("build", help="emit a built-in mechanism as JSON")
    _add_builder_args(p_build, p_build, "builder")
    p_build.add_argument("--out", help="write to a file instead of stdout")

    p_analyze = sub.add_parser("analyze", help="decide BA/NBA for a mechanism")
    source = p_analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("--mech", help="mechanism bundle JSON file")
    _add_builder_args(p_analyze, source, "--builder")
    p_analyze.add_argument("--prob", action="store_true", help="treat as probabilistic")
    p_analyze.add_argument(
        "--domains",
        default="unrestricted",
        help="unrestricted | strict | weak_only | explicit:<name> | file:<path>",
    )
    p_analyze.add_argument(
        "--cap", type=_positive_int_arg, default=None, help="enumeration cap override"
    )
    p_analyze.add_argument(
        "--strict-iii",
        action="store_true",
        help="require the best response to be strictly best against other actions",
    )
    p_analyze.add_argument("--report", choices=("json", "text"), default="json")

    p_verify = sub.add_parser("verify", help="run the built-in claim suite")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--mixed-count", type=_positive_int_arg, default=200)
    p_verify.add_argument("--samples", type=_positive_int_arg, default=10)
    return parser


def _add_builder_args(parser, group, name: str) -> None:
    group.add_argument(name, choices=BUILDERS)
    parser.add_argument("--m", type=int, default=None, help="referendum margin / candidates")
    parser.add_argument("--n", type=int, default=None, help="number of voters")
    parser.add_argument("--tiebreak", default=None, help="comma-separated candidate order")
    parser.add_argument("--grid", type=_grid_arg, default=None, help="report grid, e.g. 0,1/4,1/2")
    parser.add_argument("--theta1", type=_fraction_arg, default=Fraction(1, 2))
    parser.add_argument("--theta2", type=_fraction_arg, default=Fraction(1, 2))
    parser.add_argument("--ubar", type=_fraction_arg, default=Fraction(2))


def _queueing_params(args, grid) -> QueueingParams:
    return QueueingParams(args.theta1, args.theta2, grid, args.ubar)


def _run_builder(args) -> tuple[str, Environment, DetMechanism | ProbMechanism]:
    """Returns (identity, env, mechanism), probabilistic iff PROB_BUILDERS has the builder."""
    name = args.builder
    if name in PROB_BUILDERS:
        from .stochastic import build_mixed_counterexample, build_relative_frequency
        if name == "relfreq":
            n = args.n if args.n is not None else 2
            m = args.m if args.m is not None else 2
            return (f"relfreq(n={n},m={m})", *build_relative_frequency(n, m))
        return ("mixed-counterexample", *build_mixed_counterexample())
    from .deterministic import build_groves_queueing, build_majority_referendum, build_plurality
    if name == "referendum":
        m = args.m if args.m is not None else 1
        return (f"referendum(m={m})", *build_majority_referendum(m))
    if name == "plurality":
        n = args.n if args.n is not None else 2
        m = args.m if args.m is not None else 2
        tiebreak = args.tiebreak.split(",") if args.tiebreak else None
        return (f"plurality(n={n},m={m})", *build_plurality(n, m, tiebreak))
    if args.grid is None:
        raise InvariantViolation("groves builder needs --grid")
    grid = ",".join(str(g) for g in args.grid)
    return (f"groves(grid={grid})", *build_groves_queueing(_queueing_params(args, args.grid)))


def _read_json(path: str) -> object:
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply") from None


def _mechanism_from_json(
    env: Environment, data: object
) -> tuple[DetMechanism | ProbMechanism, bool]:
    """(mechanism, probabilistic): a document holding "distributions" is probabilistic."""
    if isinstance(data, dict) and "distributions" in data:
        from .stochastic import prob_mech_from_json
        return prob_mech_from_json(env, data), True
    from .deterministic import det_mech_from_json
    return det_mech_from_json(env, data), False


def _load_bundle(path: str) -> tuple[Environment, DetMechanism | ProbMechanism, bool]:
    data = _read_json(path)
    if not isinstance(data, dict) or "environment" not in data or "mechanism" not in data:
        raise ParseError("bundle must have 'environment' and 'mechanism' keys")
    env = env_from_json(data["environment"])
    return (env, *_mechanism_from_json(env, data["mechanism"]))


def _domains_from_flag(flag: str, env: Environment, args) -> object:
    if flag in ("unrestricted", "strict", "weak_only"):
        return DomainKind(flag)
    if flag.startswith("explicit:"):
        name = flag.split(":", 1)[1]
        if name == "queueing":
            params = _queueing_params(args, queueing_grid_of(env))
            return (
                DomainSpec.explicit((build_queueing_pref_1(params, env),)),
                DomainSpec.explicit((build_queueing_pref_2(params, env),)),
            )
        if name == "counterexample":
            from .stochastic import counterexample_preference
            return (
                DomainSpec.explicit((counterexample_preference(),)),
                DomainSpec.explicit(
                    (indifferent_ordering(1, env.actions[1], env.outcomes),)
                ),
            )
        raise InvariantViolation(f"unknown explicit domain shorthand {name!r}")
    if flag.startswith("file:"):
        other = env_from_json(_read_json(flag.split(":", 1)[1]))
        if other.n != env.n:
            raise InvariantViolation("domain file agent count does not match")
        return other.domains
    raise InvariantViolation(f"unknown domains flag {flag!r}")


class AnalysisReport(Value):
    _fields = (
        "mechanism", "probabilistic", "domains", "verdict", "method", "witness", "search",
        "duration_ms",
    )

    def __init__(
        self,
        mechanism: str,
        probabilistic: bool,
        domains: list[str],
        verdict: str,
        method: str,
        witness: dict | None,
        search: dict,
        duration_ms: float,
    ) -> None:
        set_field(self, "mechanism", mechanism)
        set_field(self, "probabilistic", probabilistic)
        set_field(self, "domains", domains)
        set_field(self, "verdict", verdict)
        set_field(self, "method", method)
        set_field(self, "witness", witness)
        set_field(self, "search", search)
        set_field(self, "duration_ms", duration_ms)

    def to_json(self) -> str:
        # duration is excluded so identical inputs give byte-identical reports
        payload = {
            "mechanism": self.mechanism,
            "probabilistic": self.probabilistic,
            "domains": self.domains,
            "verdict": self.verdict,
            "method": self.method,
            "witness": self.witness,
            "search": self.search,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [
            f"mechanism:  {self.mechanism}",
            f"domains:    {', '.join(self.domains)}",
            f"verdict:    {self.verdict}",
            f"method:     {self.method}",
            f"search:     {self.search}",
            f"duration:   {self.duration_ms:.1f} ms",
        ]
        if self.witness is not None:
            lines.append(f"witness:    {json.dumps(self.witness, sort_keys=True)}")
        return "\n".join(lines) + "\n"


def _describe_domains(specs) -> list[str]:
    out = []
    for spec in specs:
        if spec.kind is DomainKind.EXPLICIT:
            out.append(f"explicit({len(spec.orderings)})")
        else:
            out.append(spec.kind.value)
    return out


def cmd_validate(args) -> int:
    data = _read_json(args.path)
    if isinstance(data, dict) and "environment" in data:
        env = env_from_json(data["environment"])
        if "mechanism" not in data:
            kind = "environment"
        elif _mechanism_from_json(env, data["mechanism"])[1]:
            kind = "probabilistic mechanism"
        else:
            kind = "deterministic mechanism"
    else:
        env_from_json(data)
        kind = "environment"
    print(f"ok: valid {kind}")
    return EXIT_OK


def cmd_build(args) -> int:
    _, env, mech = _run_builder(args)
    if args.builder in PROB_BUILDERS:
        from .stochastic import prob_mech_to_json as to_json
    else:
        from .deterministic import det_mech_to_json as to_json
    bundle = {"environment": env_to_json(env), "mechanism": to_json(mech)}
    text = json.dumps(bundle, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    if args.mech:
        identity = args.mech
        env, mech, prob = _load_bundle(args.mech)
    else:
        identity, env, mech = _run_builder(args)
        prob = args.builder in PROB_BUILDERS
    if args.prob and not prob:
        if args.mech:
            raise ParseError("--prob given but the file holds a deterministic mechanism")
        raise ParseError(f"builder {args.builder!r} is deterministic")
    if prob and args.strict_iii:
        print(
            "exmech analyze: error: --strict-iii does not apply to probabilistic "
            "mechanisms (--prob): their search has no strict variant",
            file=sys.stderr,
        )
        return EXIT_USAGE
    domains = _domains_from_flag(args.domains, env, args)
    specs = resolve_domains(env, domains)
    if prob:
        from .stochastic import search_prob_ba_witness as search, validate_prob_witness as validate
        options = {}
    else:
        from .deterministic import search_ba_witness as search, validate_witness as validate
        options = {"strict_iii": args.strict_iii}
    try:
        result = search(mech, specs, cap=args.cap, **options)
        witness, stats, method = result.witness, result.stats, "exhaustive-search"
    except CapExceeded as exc:
        # tie propagation decides a deterministic mechanism whose agents all have full kinds
        if prob or any(spec.kind not in FULL_KINDS for spec in specs):
            if prob:
                hint = "raise --cap"
            else:
                hint = (
                    "use --domains unrestricted|strict|weak_only so the verdict can come "
                    "from the tie-propagation characterization, or raise --cap"
                )
            print(f"cap exceeded: {exc}\nhint: {hint}", file=sys.stderr)
            return EXIT_CAP
        from .deterministic import condition1_counterexample, witness_from_counterexample
        cex = condition1_counterexample(mech)
        if cex is None:
            witness = None
        else:
            witness = witness_from_counterexample(mech, cex, specs[cex.agent].kind)
        stats, method = {"agents": env.n, "mode": "tie-propagation"}, "characterization"
    if witness is not None:
        validate(mech, witness, domain=specs[witness.agent], **options)
    report = AnalysisReport(
        mechanism=identity,
        probabilistic=prob,
        domains=_describe_domains(specs),
        verdict="BA" if witness is not None else "NBA",
        method=method,
        witness=witness_to_json(witness) if witness is not None else None,
        search=stats,
        duration_ms=(time.perf_counter() - started) * 1000,
    )
    sys.stdout.write(report.to_json() if args.report == "json" else report.to_text())
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    results = verify.run_all(seed=seed, mixed_count=args.mixed_count, samples=args.samples)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} claims passed")
    return EXIT_OK if passed == len(results) else EXIT_INVALID


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "build": cmd_build,
        "analyze": cmd_analyze,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ParseError, InvariantViolation) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ExmechError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
