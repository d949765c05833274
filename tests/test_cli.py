import json

import pytest

from exmech.cli import main
from exmech.deterministic import build_majority_referendum, validate_witness
from exmech.model import witness_from_json
from exmech.stochastic import build_mixed_counterexample, validate_prob_witness
from exmech.verify import (
    claim_mixed_counterexample_reproduced,
    claim_mixed_mechanisms_avoid_anomaly,
    claim_strict_dichotomy_blocks_dominance,
    run_all,
)
from exmech import stochastic


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
    code, _, err = run(
        capsys,
        "analyze", "--prob", "--builder", "relfreq", "--n", "2", "--m", "3",
        "--domains", "unrestricted",
    )
    assert code == 3 and "cap exceeded" in err
    assert "--cap" in err and "characterization" not in err


def test_analyze_strict_iii_cap_exceeded_suggests_only_cap(capsys):
    code, _, err = run(
        capsys,
        "analyze", "--builder", "groves", "--grid", "0,1/4,1/2,3/4",
        "--domains", "unrestricted", "--strict-iii",
    )
    assert code == 3 and "cap exceeded" in err
    assert "--cap" in err and "characterization" not in err


def test_analyze_mixed_kinds_cap_exceeded_suggests_characterization(tmp_path, capsys):
    # one domain kind for every agent would let the search fall back
    bundle = json.loads(_build_bundle(capsys, "referendum", "--m", "1"))
    env = bundle["environment"]
    env["domains"] = [{"kind": kind} for kind in ("unrestricted", "strict", "unrestricted")]
    path = tmp_path / "domains.json"
    path.write_text(json.dumps(env))
    code, _, err = run(
        capsys,
        "analyze", "--builder", "referendum", "--m", "1",
        "--domains", f"file:{path}", "--cap", "5",
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


def test_verify_default_all_pass(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "9/9 claims passed" in out
    assert out.count("PASS") == 9 and "FAIL" not in out


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
