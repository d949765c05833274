import inspect
import itertools
import json
from fractions import Fraction

import pytest

from exmech.cli import build_parser, main
from exmech.deterministic import (
    build_groves_queueing,
    build_majority_referendum,
    det_mech_from_json,
    satisfies_monotonicity,
    satisfies_unanimity,
    validate_witness,
)
from exmech.errors import ParseError
from exmech.model import (
    DomainKind,
    DomainSpec,
    Environment,
    env_from_json,
    enumerate_profiles,
    sub_profiles,
    witness_from_json,
)
from exmech.queueing import QueueingParams, parse_fraction
from exmech.stochastic import DominanceBlock, build_mixed_counterexample, validate_prob_witness
from exmech.verify import (
    claim_mixed_counterexample_reproduced,
    claim_mixed_mechanisms_avoid_anomaly,
    claim_strict_dichotomy_blocks_dominance,
    run_all,
)
from exmech import stochastic, verify


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_and_validate_round_trip(tmp_path, capsys):
    path = tmp_path / "counterexample.json"
    code, out, _ = run(capsys, "build", "mixed-counterexample", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and "probabilistic mechanism" in out


def test_validate_bad_distribution(tmp_path, capsys):
    path = tmp_path / "bad.json"
    bundle = json.loads((_build_bundle(capsys, "mixed-counterexample")))
    bundle["mechanism"]["distributions"][0] = ["1/3", "1/2"]
    path.write_text(json.dumps(bundle))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "must sum to 1" in err


def test_validate_incomplete_ordering(tmp_path, capsys):
    bundle = json.loads(_build_bundle(capsys, "mixed-counterexample"))
    bundle["environment"]["domains"][0] = {
        "kind": "explicit",
        "orderings": [[[["a0", "z0"]]]],
    }
    path = tmp_path / "bad_env.json"
    path.write_text(json.dumps(bundle))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "partition incomplete" in err


@pytest.mark.parametrize("agents", ([5, 6], ["ab", "cd"]), ids=("numbers", "strings"))
def test_validate_rejects_agents_that_are_not_lists(tmp_path, capsys, agents):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"agents": agents, "outcomes": ["x"]}))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err.startswith("invalid: ") and "list of action labels" in err


@pytest.mark.parametrize(
    "document",
    (
        {"agents": [["a", "b"]], "outcomes": [["x"], {"y": 1}]},
        {"agents": [[["a"], "b"]], "outcomes": ["x", "y"]},
    ),
    ids=("outcomes", "actions"),
)
def test_validate_rejects_labels_that_are_not_strings(tmp_path, capsys, document):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err.startswith("invalid: ") and "labels must be strings" in err


@pytest.mark.parametrize(
    "document",
    (
        {
            "environment": {"agents": [["0", "1"], ["0", "1"]], "outcomes": ["0", "1"]},
            "mechanism": {"profiles": [[0, 0], [0, 1], [1, 0], [1, 1]], "outcomes": [0, 1, 1, 1]},
        },
        {
            "agents": [["0", "1"]],
            "outcomes": ["0", "1"],
            "domains": [{"kind": "explicit", "orderings": [[[[0, 0], [0, 1], [1, 0], [1, 1]]]]}],
        },
    ),
    ids=("mechanism", "explicit-domain"),
)
def test_validate_rejects_numeric_labels(tmp_path, capsys, document):
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err.startswith("invalid: ") and "labels must be strings" in err


@pytest.mark.parametrize("orderings", (0, "", {}, False), ids=repr)
def test_validate_rejects_falsy_orderings_that_are_not_lists(tmp_path, capsys, orderings):
    document = {
        "agents": [["a"]], "outcomes": ["z"],
        "domains": [{"kind": "unrestricted", "orderings": orderings}],
    }
    path = tmp_path / "env.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err.startswith("invalid: ") and "orderings must be a list" in err


@pytest.mark.parametrize("builder", ("referendum", "mixed-counterexample"))
def test_validate_rejects_a_profile_listed_twice(tmp_path, capsys, builder):
    bundle = json.loads(_build_bundle(capsys, builder))
    profiles = bundle["mechanism"]["profiles"]
    profiles[1] = profiles[0]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(bundle))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err.startswith("invalid: ") and "listed twice" in err


def test_validate_rejects_a_null_mechanism(tmp_path, capsys):
    # only a missing "mechanism" key means a bare environment
    path = tmp_path / "null.json"
    path.write_text(json.dumps(
        {"environment": {"agents": [["a"]], "outcomes": ["z"]}, "mechanism": None}
    ))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err == "invalid: mechanism must be a JSON object\n"


@pytest.mark.parametrize("argv", (["validate"], ["analyze", "--mech"]), ids=("validate", "analyze"))
def test_unreadable_file_reports_one_error_prefix(tmp_path, capsys, argv):
    path = tmp_path / "missing.json"
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno 2] ") and str(path) in err


def test_analyze_rejects_numeric_mechanism_labels(tmp_path, capsys):
    bundle = {
        "environment": {"agents": [["0", "1"], ["0", "1"]], "outcomes": ["0", "1"]},
        "mechanism": {"profiles": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
                      "outcomes": ["0", "1", "1", 1]},
    }
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps(bundle))
    code, out, err = run(capsys, "analyze", "--mech", str(path))
    assert code == 2 and out == ""
    assert err.startswith("invalid: ") and "labels must be strings" in err


def _build_bundle(capsys, *argv):
    code = main(["build", *argv])
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize(
    "builder, domains",
    (
        (("referendum", "--m", "1"), "unrestricted"),
        (("plurality", "--n", "3", "--m", "2"), "weak_only"),
        (("groves", "--grid", "0,1/4,1/2,3/4"), "unrestricted"),
        (("groves", "--grid", "0,1/4,1/2,3/4", "--theta2", "1/4"), "explicit:queueing"),
        (("relfreq", "--n", "2", "--m", "2"), "strict"),
        (("mixed-counterexample",), "weak_only"),
    ),
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_bundle_analyzes_like_its_builder(tmp_path, capsys, builder, domains):
    path = tmp_path / "bundle.json"
    code, _, _ = run(capsys, "build", *builder, "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(path))
    kind = "probabilistic" if builder[0] in ("relfreq", "mixed-counterexample") else "deterministic"
    assert code == 0 and out == f"ok: valid {kind} mechanism\n"
    # the builder flags after the name also set the queueing preferences of explicit:queueing
    flags = (*builder[1:], "--domains", domains)
    code, from_builder, _ = run(capsys, "analyze", "--builder", builder[0], *flags)
    assert code == 0
    code, from_bundle, _ = run(capsys, "analyze", "--mech", str(path), *flags)
    assert code == 0
    expected, report = json.loads(from_builder), json.loads(from_bundle)
    assert report.pop("mechanism") == str(path)
    del expected["mechanism"]
    assert report == expected


def test_analyze_referendum_witness_round_trip(capsys):
    code, out, _ = run(
        capsys, "analyze", "--builder", "referendum", "--m", "1", "--domains", "unrestricted"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "BA"
    assert report["method"] == "exhaustive-search"
    witness = witness_from_json(report["witness"])
    _, mech = build_majority_referendum(1)
    validate_witness(mech, witness)
    assert witness.a_minus.count("leave") == 0
    assert witness.b_minus.count("leave") == 1


def test_analyze_reports_are_byte_identical(capsys):
    args = ("analyze", "--builder", "referendum", "--m", "1", "--domains", "strict")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_analyze_relfreq_nba(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "--prob", "--builder", "relfreq", "--n", "2", "--m", "2",
        "--domains", "strict",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "NBA" and report["witness"] is None


def test_analyze_groves_falls_back_to_characterization(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "--builder", "groves", "--grid", "0,1/4,1/2,3/4",
        "--domains", "unrestricted",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "BA"
    assert report["method"] == "characterization"
    assert report["witness"] is not None


def test_analyze_groves_explicit_queueing(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "--builder", "groves", "--grid", "0,1/4,1/2,3/4",
        "--theta1", "1/2", "--theta2", "1/4", "--domains", "explicit:queueing",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "BA" and report["method"] == "exhaustive-search"
    witness = report["witness"]
    assert (witness["agent"], witness["r"], witness["l"]) == (0, "3/4", "1/2")
    assert witness["b_minus"] == ["3/4"]


def test_analyze_mixed_counterexample_via_cli(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "--prob", "--builder", "mixed-counterexample",
        "--domains", "explicit:counterexample",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "BA"
    witness = witness_from_json(report["witness"])
    _, mech = build_mixed_counterexample()
    validate_prob_witness(mech, witness)


def test_analyze_prob_cap_exceeded(capsys):
    # past the cap, a search that never needs rows still answers
    for domains in ("strict", "unrestricted"):
        code, out, _ = run(
            capsys,
            "analyze", "--prob", "--builder", "relfreq", "--n", "2", "--m", "3",
            "--domains", domains,
        )
        assert code == 0
        report = json.loads(out)
        assert (report["verdict"], report["method"]) == ("NBA", "exhaustive-search")
        assert report["search"]["orderings_per_agent"] == [None, None]
    code, _, err = run(
        capsys,
        "analyze", "--prob", "--builder", "mixed-counterexample",
        "--domains", "unrestricted", "--cap", "3",
    )
    assert code == 3 and "cap exceeded" in err
    assert "--cap" in err and "characterization" not in err


def test_analyze_strict_iii_past_the_cap_uses_characterization(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "--builder", "groves", "--grid", "0,1/4,1/2,3/4",
        "--domains", "unrestricted", "--strict-iii",
    )
    assert code == 0
    report = json.loads(out)
    assert (report["verdict"], report["method"]) == ("BA", "characterization")
    grid = tuple(Fraction(k, 4) for k in range(4))
    params = QueueingParams(Fraction(1, 2), Fraction(1, 2), grid, Fraction(2))
    _, mech = build_groves_queueing(params)
    validate_witness(
        mech, witness_from_json(report["witness"]), strict_iii=True,
        domain=DomainSpec.unrestricted(),
    )


@pytest.mark.parametrize("strict_iii", ((), ("--strict-iii",)), ids=("weak_iii", "strict_iii"))
def test_analyze_groves_grid_far_past_the_cap(capsys, strict_iii):
    grid = ",".join(f"{k}/18" for k in range(19))
    code, out, err = run(
        capsys,
        "analyze", "--builder", "groves", "--grid", grid, "--domains", "unrestricted", *strict_iii,
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert (report["verdict"], report["method"]) == ("BA", "characterization")


@pytest.mark.parametrize(
    "grid, kind, cap",
    (
        ("0,1/4,1/2,3/4", "unrestricted", "28"),
        ("0,1/4,1/2,3/4", "strict", "28"),
        (",".join(f"{k}/18" for k in range(19)), "unrestricted", "1000"),
    ),
    ids=("28-pairs-unrestricted", "28-pairs-strict", "19-point-grid"),
)
def test_analyze_groves_cap_past_the_row_bound(capsys, grid, kind, cap):
    # the cap covers every pair, but the full domain has more orderings than
    # sys.maxsize, so the characterization answers as it does under the default cap
    argv = ("analyze", "--builder", "groves", "--grid", grid, "--domains", kind)
    code, out, err = run(capsys, *argv, "--cap", cap)
    assert code == 0 and err == ""
    assert json.loads(out)["method"] == "characterization"
    assert run(capsys, *argv) == (0, out, "")


def _write_domains(tmp_path, env, specs):
    env["domains"] = specs
    path = tmp_path / "domains.json"
    path.write_text(json.dumps(env))
    return f"file:{path}"


def test_analyze_mixed_kinds_cap_exceeded_suggests_characterization(tmp_path, capsys):
    # past the cap, each agent's lift lies in that agent's own kind; agent 0
    # dictates the second mechanism, so only agent 1 has a counterexample
    groves = json.loads(_build_bundle(capsys, "groves", "--grid", "0,1/4,1/2,3/4"))
    profiles = [[a, b] for a in ("a0", "a1") for b in ("b0", "b1", "b2")]
    dictator = {
        "environment": {"agents": [["a0", "a1"], ["b0", "b1", "b2"]], "outcomes": ["z0", "z1"]},
        "mechanism": {"profiles": profiles, "outcomes": ["z" + a[1] for a, _ in profiles]},
    }
    for bundle, cap, agent in ((groves, (), 0), (dictator, ("--cap", "5"), 1)):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        kinds = [{"kind": "strict"}, {"kind": "weak_only"}]
        domains = _write_domains(tmp_path, bundle["environment"], kinds)
        code, out, _ = run(capsys, "analyze", "--mech", str(path), "--domains", domains, *cap)
        assert code == 0
        report = json.loads(out)
        assert (report["verdict"], report["method"]) == ("BA", "characterization")
        witness = witness_from_json(report["witness"])
        assert witness.agent == agent and witness.ordering.is_strict == (agent == 0)
        mech = det_mech_from_json(env_from_json(bundle["environment"]), bundle["mechanism"])
        kind = (DomainKind.STRICT, DomainKind.WEAK_ONLY)[agent]
        validate_witness(mech, witness, domain=DomainSpec(kind))
    # an explicit agent leaves the characterization to a change of --domains
    bundle = json.loads(_build_bundle(capsys, "referendum", "--m", "1"))
    env = bundle["environment"]
    everything = [[action, z] for action in env["agents"][2] for z in env["outcomes"]]
    specs = [{"kind": "unrestricted"}] * 2 + [{"kind": "explicit", "orderings": [[everything]]}]
    domains = _write_domains(tmp_path, env, specs)
    code, _, err = run(
        capsys, "analyze", "--builder", "referendum", "--m", "1", "--domains", domains, "--cap", "5"
    )
    assert code == 3 and "cap exceeded" in err
    assert "tie-propagation characterization" in err and "--cap" in err


def test_analyze_cap_flag_lowers_the_limit(capsys):
    code, _, err = run(
        capsys,
        "analyze", "--prob", "--builder", "mixed-counterexample",
        "--domains", "unrestricted", "--cap", "3",
    )
    assert code == 3 and "cap exceeded" in err


@pytest.mark.parametrize("cap", ("0", "-1"))
def test_analyze_rejects_non_positive_cap(capsys, cap):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--builder", "referendum", "--m", "1", "--cap", cap])
    assert exc.value.code == 1
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("content", (b"{bad", b"\xff\xfe"))
def test_analyze_malformed_domain_file(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, _, err = run(
        capsys,
        "analyze", "--builder", "referendum", "--m", "1", "--domains", f"file:{path}",
    )
    assert code == 2 and err.startswith("invalid: invalid JSON")


@pytest.mark.parametrize(
    "argv",
    (
        ("validate", "{path}"),
        ("analyze", "--mech", "{path}"),
        ("analyze", "--builder", "referendum", "--m", "1", "--domains", "file:{path}"),
    ),
    ids=("validate", "mech", "domains"),
)
def test_deeply_nested_json_is_invalid_input(tmp_path, capsys, argv):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert code == 2 and out == ""
    assert err == "invalid: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("literal", ("1e99999999", "1E-99999999", "2.5e+4301", "1e" + "9" * 5000))
def test_parse_fraction_rejects_exponents_beyond_the_int_digit_limit(literal):
    with pytest.raises(ParseError, match="rational number|exponent out of range"):
        parse_fraction(literal)
    assert parse_fraction("1e-4300") == Fraction(1, 10**4300)


@pytest.mark.parametrize(
    "argv",
    (
        ("--theta1", "1e99999999"),
        ("--grid", "0,1e99999999"),
    ),
    ids=("theta1", "grid"),
)
def test_analyze_rejects_huge_exponent_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--builder", "groves", "--grid", "0,1/2", *argv])
    assert exc.value.code == 1
    assert "exponent out of range" in capsys.readouterr().err


def test_validate_rejects_a_huge_exponent_probability(tmp_path, capsys):
    bundle = json.loads(_build_bundle(capsys, "mixed-counterexample"))
    bundle["mechanism"]["distributions"][0] = ["1e99999999", "0"]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(bundle))
    for argv in (("validate", str(path)), ("analyze", "--mech", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "invalid: exponent out of range in '1e99999999'\n"


@pytest.mark.parametrize(
    "label, huge, error",
    (
        ('"1/2"', '"5e-99999999"', "action labels are not rational reports"),
        ("t=0,1/2", "t=0,5e-99999999", "outcome labels are not queueing outcomes"),
    ),
    ids=("report", "transfer"),
)
def test_analyze_rejects_huge_exponent_queueing_labels(tmp_path, capsys, label, huge, error):
    path = tmp_path / "groves.json"
    path.write_text(_build_bundle(capsys, "groves", "--grid", "0,1/2").replace(label, huge))
    code, out, err = run(capsys, "analyze", "--mech", str(path), "--domains", "explicit:queueing")
    assert code == 2 and out == ""
    assert err == f"error: {error}\n"


def test_analyze_mech_file_with_domain_file(tmp_path, capsys):
    bundle_path = tmp_path / "referendum.json"
    code, *_ = run(capsys, "build", "referendum", "--m", "1", "--out", str(bundle_path))
    assert code == 0
    domains_path = tmp_path / "domains.json"
    bundle = json.loads(bundle_path.read_text())
    env = dict(bundle["environment"])
    env["domains"] = [{"kind": "strict", "orderings": []} for _ in env["agents"]]
    domains_path.write_text(json.dumps(env))
    code, out, _ = run(
        capsys,
        "analyze", "--mech", str(bundle_path), "--domains", f"file:{domains_path}",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "BA"
    assert report["domains"] == ["strict", "strict", "strict"]


def test_analyze_text_report_and_strict_iii(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "--builder", "referendum", "--m", "1",
        "--domains", "unrestricted", "--strict-iii", "--report", "text",
    )
    assert code == 0
    assert "verdict:    BA" in out
    assert "duration:" in out


@pytest.mark.parametrize(
    "argv",
    (["--prob", "--builder", "mixed-counterexample"], ["--builder", "relfreq"]),
    ids=("prob-flag", "prob-builder"),
)
def test_analyze_rejects_strict_iii_for_probabilistic_mechanisms(capsys, argv):
    code, out, err = run(capsys, "analyze", *argv, "--strict-iii")
    assert code == 1 and out == ""
    assert "--strict-iii" in err and "--prob" in err


def test_analyze_prob_rejects_deterministic_bundle(tmp_path, capsys):
    path = tmp_path / "referendum.json"
    code, *_ = run(capsys, "build", "referendum", "--m", "1", "--out", str(path))
    assert code == 0
    code, out, err = run(capsys, "analyze", "--prob", "--mech", str(path))
    assert code == 2 and out == ""
    assert err == "invalid: --prob given but the file holds a deterministic mechanism\n"


def test_analyze_prob_rejects_deterministic_builder(capsys):
    code, out, err = run(capsys, "analyze", "--prob", "--builder", "referendum", "--m", "1")
    assert code == 2 and out == ""
    assert err == "invalid: builder 'referendum' is deterministic\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--builder", "nonsense"])
    assert exc.value.code == 1


VERIFY_STDOUT = """\
PASS characterization-equivalence: 48/48 verdict agreements over 16 tables x 3 domain kinds
PASS voting-axioms-force-anomaly: 54/54 witnesses across 18 qualifying tables x 3 kinds
PASS groves-tie-propagation-fails: counterexample a2=0 < r1=1/4 < l1=1/2 < b2=3/4
PASS queueing-preferences-separable: 30/30 orderings separable over 3 grids x 5 costs x 2 patients
PASS queueing-witness-validates: witness r=3/4 l=1/2 a=(1/4) b=(3/4)
PASS strict-dichotomy-blocks-dominance: 48/48 (ordering, action order) cases blocked exactly; 0 dominance violations in 480 (ordering, action order, sample) checks
PASS mixed-mechanisms-avoid-anomaly: 200/200 seeded mechanisms witness-free under strict domains, each settled by the dominance dichotomy
PASS mixed-counterexample-reproduced: 16/16 contour values match; witness found
PASS classical-domains-avoid-anomaly: 16/16 tables witness-free under all-classical domains
9/9 claims passed
"""


def test_verify_default_all_pass(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out == VERIFY_STDOUT


def test_verify_flags_change_only_the_sample_counts(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "3", "--samples", "7", "--mixed-count", "13")
    assert code == 0
    assert out == """\
PASS characterization-equivalence: 48/48 verdict agreements over 16 tables x 3 domain kinds
PASS voting-axioms-force-anomaly: 54/54 witnesses across 18 qualifying tables x 3 kinds
PASS groves-tie-propagation-fails: counterexample a2=0 < r1=1/4 < l1=1/2 < b2=3/4
PASS queueing-preferences-separable: 30/30 orderings separable over 3 grids x 5 costs x 2 patients
PASS queueing-witness-validates: witness r=3/4 l=1/2 a=(1/4) b=(3/4)
PASS strict-dichotomy-blocks-dominance: 48/48 (ordering, action order) cases blocked exactly; 0 dominance violations in 336 (ordering, action order, sample) checks
PASS mixed-mechanisms-avoid-anomaly: 13/13 seeded mechanisms witness-free under strict domains, each settled by the dominance dichotomy
PASS mixed-counterexample-reproduced: 16/16 contour values match; witness found
PASS classical-domains-avoid-anomaly: 16/16 tables witness-free under all-classical domains
9/9 claims passed
"""


@pytest.mark.parametrize("flag", ("--mixed-count", "--samples"))
@pytest.mark.parametrize("count", ("0", "-1"))
def test_verify_rejects_non_positive_counts(capsys, flag, count):
    with pytest.raises(SystemExit) as exc:
        main(["verify", flag, count])
    assert exc.value.code == 1
    assert "positive integer" in capsys.readouterr().err


def test_sweep_claims_fail_when_they_check_nothing():
    assert not claim_mixed_mechanisms_avoid_anomaly(count=0).passed
    assert not claim_strict_dichotomy_blocks_dominance(samples=0).passed
    assert claim_mixed_mechanisms_avoid_anomaly(count=3).passed
    assert claim_strict_dichotomy_blocks_dominance(samples=3).passed


def test_verify_sample_defaults_agree():
    args = build_parser().parse_args(["verify"])
    for fn in (run_all, claim_strict_dichotomy_blocks_dominance):
        assert inspect.signature(fn).parameters["samples"].default == args.samples == 10
    for fn, name in ((run_all, "mixed_count"), (claim_mixed_mechanisms_avoid_anomaly, "count")):
        assert inspect.signature(fn).parameters[name].default == args.mixed_count


def test_dichotomy_claim_catches_a_wrong_dichotomy(monkeypatch):
    # with each ordering's blocked direction reversed, the best pair is the
    # blocked action's, so no case holds, whatever the sample count, and the
    # sampled lotteries of the action holding it dominate the other's
    right = verify.dominance_dichotomy

    def reversed_block(ordering, r, l):
        block = right(ordering, r, l)
        return DominanceBlock.L_TOP if block is DominanceBlock.R_TOP else DominanceBlock.R_TOP

    monkeypatch.setattr(verify, "dominance_dichotomy", reversed_block)
    for samples in (1, 10):
        result = claim_strict_dichotomy_blocks_dominance(samples=samples)
        exact, cases = map(int, result.detail.split()[0].split("/"))
        assert not result.passed and exact < cases == 48
    violations = int(result.detail.split("; ")[1].split()[0])
    assert violations > 0
    assert result.detail.endswith(f"in {24 * 2 * 10} (ordering, action order, sample) checks")


def _target_action_phi(ordering, lottery, target):
    # reads the target's action in place of the lottery's, so the point mass
    # on the blocked action's pair at the target's outcome gets mass at t
    return stochastic.phi(ordering, stochastic.Lottery(target[0], lottery.dist), target)


def _strict_contour_phi(ordering, lottery, target):
    # sums only the pairs strictly above the target, so the point mass on t
    # gets none
    limit = ordering.rank(target)
    probs = lottery.dist.probs.items()
    return sum((p for z, p in probs if ordering.rank((lottery.action, z)) < limit), Fraction(0))


@pytest.mark.parametrize("wrong_phi", (_target_action_phi, _strict_contour_phi))
def test_dichotomy_claim_catches_a_wrong_contour(monkeypatch, wrong_phi):
    # fsd is untouched, so only the exact cases see the wrong contour
    monkeypatch.setattr(verify, "phi", wrong_phi)
    result = claim_strict_dichotomy_blocks_dominance(samples=1)
    assert not result.passed
    assert result.detail == (
        "0/48 (ordering, action order) cases blocked exactly; "
        "0 dominance violations in 48 (ordering, action order, sample) checks"
    )


def test_voting_claim_builds_exactly_the_unanimous_tables():
    candidates = ("1", "2")
    env = Environment.create((("0",) + candidates, ("0",) + candidates), candidates)
    every = verify.all_tables(env)
    unanimous = verify.all_tables(env, {(c, c): c for c in candidates})
    assert len(every) == 2**9 and len(unanimous) == 2**7
    assert unanimous == [mech for mech in every if satisfies_unanimity(mech)]
    qualifying = [mech for mech in unanimous if satisfies_monotonicity(mech)]
    assert len(qualifying) == 18
    assert qualifying == [
        mech for mech in every if satisfies_unanimity(mech) and satisfies_monotonicity(mech)
    ]


def test_mixed_claim_fails_on_mechanisms_that_are_not_completely_mixed(monkeypatch):
    def point_masses(env, rng):
        dist = stochastic.Distribution.point_mass(env.outcomes[0], env.outcomes)
        return stochastic.ProbMechanism(env, {p: dist for p in enumerate_profiles(env)})

    monkeypatch.setattr(verify, "random_completely_mixed_mechanism", point_masses)
    result = claim_mixed_mechanisms_avoid_anomaly(count=3)
    assert not result.passed
    assert "3 not completely mixed" in result.detail


def test_mixed_claim_reaches_the_dominance_tests(monkeypatch):
    # most mechanisms must tie somewhere (condition (i)) at a sub-profile
    # whose signature another sub-profile does not share, so that the search
    # decides a dominance question for them
    seen = []
    find = verify.find_prob_ba_witness

    def recorded(mech, *args, **kwargs):
        seen.append(mech)
        return find(mech, *args, **kwargs)

    def reaches_a_rival_signature(mech):
        env = mech.env
        for agent in range(env.n):
            acts = env.actions[agent]
            subs = list(sub_profiles(env, agent))
            sig = {b: tuple(mech.dist_at(agent, x, b) for x in acts) for b in subs}
            for r, l in itertools.permutations(acts, 2):
                for a in subs:
                    tied = mech.dist_at(agent, r, a) == mech.dist_at(agent, l, a)
                    if tied and any(sig[b] != sig[a] for b in subs):
                        return True
        return False

    monkeypatch.setattr(verify, "find_prob_ba_witness", recorded)
    result = claim_mixed_mechanisms_avoid_anomaly()
    assert result.passed
    assert result.detail == (
        "200/200 seeded mechanisms witness-free under strict domains, "
        "each settled by the dominance dichotomy"
    )
    assert len(seen) == 200
    assert sum(map(reaches_a_rival_signature, seen)) > len(seen) // 2


def test_verify_seed_does_not_change_verdicts():
    default = [(r.name, r.passed) for r in run_all(seed=0, mixed_count=40, samples=20)]
    reseeded = [(r.name, r.passed) for r in run_all(seed=7, mixed_count=40, samples=20)]
    assert default == reseeded
    assert all(passed for _, passed in default)


def test_corrupted_counterexample_fails_reproduction_claim():
    env, mech = build_mixed_counterexample()
    table = dict(mech.table)
    table[("a1", "b1")] = stochastic.Distribution(
        {"z0": table[("a1", "b1")]["z1"], "z1": table[("a1", "b1")]["z0"]}
    )
    corrupted = stochastic.ProbMechanism(env, table)
    result = claim_mixed_counterexample_reproduced(corrupted)
    assert not result.passed
