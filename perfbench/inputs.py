"""Seeded workload plans and their expected answers, using the standard library only.

A plan is plain JSON data: every analysis of one pass, with the mechanism as
label lists and an outcome table, and the answer the gate expects.  The
worker process turns the data into exmech objects; this module never imports
exmech, so expected answers do not depend on the code under test.

Seeded items come from pinned base tables in ``expected.json``.  A seed
changes them in one of two ways that keep the work of a pass the same:

* NBA full scans get a random symmetry (agent order, action order, labels),
  which permutes the search space without changing its size;
* BA items get random labels only, so the canonically first witness stays at
  the same depth and its expected form is the pinned one, relabelled.

Random draws without these constraints cost from 0.08 s to 4.8 s per palette
mechanism on the seed code, which would swamp the run-to-run spread.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import string
from fractions import Fraction
from pathlib import Path

FIXTURE = Path(__file__).resolve().with_name("expected.json")

WORKLOADS = ("det_nba_scan", "prob_fsd_scan", "cli_corpus")
EXHAUSTIVE = "exhaustive-search"

# Base labels of the pinned shapes; seeded items rename them.
DET_AGENTS = [["r0", "r1", "r2"], ["s0", "s1", "s2"], ["t0", "t1", "t2"]]
DET_OUTCOMES = ["z0", "z1"]
PAL_AGENTS = [["a0", "a1", "a2"], ["b0", "b1", "b2"]]
PAL_OUTCOMES = ["z0", "z1"]
LATIN_OUTCOMES = ["z0", "z1", "z2"]

TIE_HEAVY_PER_PASS = 2  # on det_nba_scan; cli_corpus analyses one


def load_fixture(path: Path | str = FIXTURE) -> dict:
    with open(path) as fh:
        return json.load(fh)


# --- witnesses ----------------------------------------------------------------


def canonical_witness(witness: dict) -> dict:
    """The witness with every indifference class sorted, as JSON data."""
    return {
        "agent": int(witness["agent"]),
        "r": witness["r"],
        "l": witness["l"],
        "a_minus": list(witness["a_minus"]),
        "b_minus": list(witness["b_minus"]),
        "ordering": [sorted([list(p) for p in cls]) for cls in witness["ordering"]],
    }


def witness_sha256(witness: dict | None) -> str | None:
    if witness is None:
        return None
    text = json.dumps(canonical_witness(witness), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def rename_witness(witness: dict, base_agents: list, agents: list, outcomes_map: dict) -> dict:
    """Map a pinned base witness onto relabelled actions and outcomes."""
    maps = [dict(zip(b, n)) for b, n in zip(base_agents, agents)]
    agent = witness["agent"]
    others = [maps[j] for j in range(len(maps)) if j != agent]
    own = maps[agent]
    return canonical_witness(
        {
            "agent": agent,
            "r": own[witness["r"]],
            "l": own[witness["l"]],
            "a_minus": [m[x] for m, x in zip(others, witness["a_minus"])],
            "b_minus": [m[x] for m, x in zip(others, witness["b_minus"])],
            "ordering": [
                [[own[a], outcomes_map[z]] for a, z in cls] for cls in witness["ordering"]
            ],
        }
    )


# --- generators -----------------------------------------------------------------


def _tokens(rng: random.Random, count: int) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        tok = "".join(rng.choice(string.ascii_lowercase) for _ in range(3)) + str(rng.randrange(10))
        if tok not in out:
            out.append(tok)
    return out


def relabel(rng: random.Random, agents: list, outcomes: list) -> tuple[list, list]:
    return [_tokens(rng, len(acts)) for acts in agents], _tokens(rng, len(outcomes))


def profiles(agents: list) -> list[tuple[int, ...]]:
    """Profiles as action-index tuples, in exmech's lexicographic order."""
    return list(itertools.product(*(range(len(a)) for a in agents)))


def permute_table(table: list, agents: list, rng: random.Random) -> list:
    """Apply a random agent order and per-agent action order to a table.

    Every agent must have the same number of actions.  The result is the same
    mechanism up to renaming, so an NBA full scan does the same work.
    """
    n, k = len(agents), len(agents[0])
    agent_perm = rng.sample(range(n), n)
    action_perms = [rng.sample(range(k), k) for _ in range(n)]
    index = {p: i for i, p in enumerate(profiles(agents))}
    out = []
    for q in profiles(agents):
        base = [0] * n
        for new_agent, old_agent in enumerate(agent_perm):
            base[old_agent] = action_perms[new_agent][q[new_agent]]
        out.append(table[index[tuple(base)]])
    return out


def latin_table(rng: random.Random, n: int = 3, actions: int = 2, k: int = 3) -> list[int]:
    """Outcome index (sum of injective action codes) mod k: no agent ever ties."""
    codes = [rng.sample(range(k), actions) for _ in range(n)]
    shuffle = rng.sample(range(k), k)
    return [shuffle[sum(codes[i][a] for i, a in enumerate(p)) % k] for p in profiles([[0] * actions] * n)]


def has_tie(table: list, agents: list) -> bool:
    """True if some agent has two actions giving one outcome at one sub-profile."""
    index = {p: table[i] for i, p in enumerate(profiles(agents))}
    for p in index:
        for i, acts in enumerate(agents):
            for a in range(len(acts)):
                if a != p[i] and index[p[:i] + (a,) + p[i + 1:]] == index[p]:
                    return True
    return False


# --- items ------------------------------------------------------------------------


def _expect(answer: dict, renamed: dict | None = None, exit_code: int | None = None) -> dict:
    """Expected answer; `renamed` is the pinned witness mapped onto new labels."""
    return {
        "verdict": answer["verdict"],
        "method": answer["method"],
        "witness_sha256": answer["witness_sha256"] if renamed is None else witness_sha256(renamed),
        "exit": exit_code,
    }


NBA_SEARCH = {"verdict": "NBA", "method": EXHAUSTIVE, "witness": None, "witness_sha256": None}


def const_det_spec() -> dict:
    return {"kind": "det", "agents": DET_AGENTS, "outcomes": DET_OUTCOMES, "table": [DET_OUTCOMES[0]] * 27}


def base_spec(fixture: dict, group: str, base: int) -> dict:
    """A pinned base table with its base labels."""
    table = fixture["bases"][group][base]
    if group == "tie_heavy":
        return {"kind": "det", "agents": DET_AGENTS, "outcomes": DET_OUTCOMES,
                "table": [DET_OUTCOMES[z] for z in table]}
    return {"kind": "prob", "agents": PAL_AGENTS, "outcomes": PAL_OUTCOMES,
            "dists": [list(fixture["palette"][i]) for i in table]}


def _const_det(fixture: dict, kind: str) -> dict:
    item_id = f"det.const.{kind}"
    return {"id": item_id, **const_det_spec(), "domains": kind,
            "expect": _expect(fixture["answers"][item_id])}


def _relabelled(fixture: dict, rng: random.Random, group: str, base: int, domains: str,
                item_id: str) -> dict:
    """A pinned BA base under random labels; its expected witness is the pinned one, relabelled."""
    spec = base_spec(fixture, group, base)
    agents, outcomes = relabel(rng, spec["agents"], spec["outcomes"])
    omap = dict(zip(spec["outcomes"], outcomes))
    answer = fixture["answers"][f"{spec['kind']}.{group}.{base}"]
    witness = rename_witness(answer["witness"], spec["agents"], agents, omap)
    if "table" in spec:
        spec["table"] = [omap[z] for z in spec["table"]]
    spec.update(id=item_id, agents=agents, outcomes=outcomes, domains=domains,
                expect=_expect(answer, witness))
    return spec


def _latin(rng: random.Random, prefix: str, domains: str) -> dict:
    table = latin_table(rng)
    agents_shape = [[0, 1]] * 3
    if has_tie(table, agents_shape):
        raise AssertionError("latin generator produced a tie")
    agents, outcomes = relabel(rng, agents_shape, LATIN_OUTCOMES)
    return {
        "id": f"{prefix}.latin",
        "kind": "det",
        "agents": agents,
        "outcomes": outcomes,
        "table": [outcomes[z] for z in table],
        "domains": domains,
        # No tie means condition (i) never holds: NBA by construction.
        "expect": _expect(NBA_SEARCH),
    }


def _palette_strict(fixture: dict, rng: random.Random, base: int) -> dict:
    spec = base_spec(fixture, "palette_strict", base)
    order = permute_table(list(range(len(spec["dists"]))), spec["agents"], rng)
    spec["dists"] = [spec["dists"][i] for i in order]
    if any(Fraction(p) <= 0 for row in spec["dists"] for p in row):
        raise AssertionError("palette distribution is not totally mixed")
    spec["agents"], spec["outcomes"] = relabel(rng, spec["agents"], spec["outcomes"])
    # Completely mixed and strict: no witness exists (the dominance dichotomy).
    spec.update(id=f"prob.palette_strict.{base}", domains="strict", expect=_expect(NBA_SEARCH))
    return spec


def const_uniform_spec(n: int, k: int, m: int) -> dict:
    """n agents with k actions each; every profile gives the uniform distribution on m outcomes."""
    return {
        "kind": "prob",
        "agents": [[f"a{i}{j}" for j in range(k)] for i in range(n)],
        "outcomes": [f"z{j}" for j in range(m)],
        "dists": [[str(Fraction(1, m))] * m] * (k ** n),
    }


def _const_uniform(fixture: dict, name: str, n: int, k: int, m: int, kind: str) -> dict:
    item_id = f"prob.{name}.{kind}"
    return {"id": item_id, **const_uniform_spec(n, k, m), "domains": kind,
            "expect": _expect(fixture["answers"][item_id])}


GROVES_GRID = "0,1/4,1/2,3/4"
REFERENDUM1 = {"kind": "det", "builder": {"name": "referendum", "m": 1}}

# (id, argv, mechanism the witness is re-validated against or None)
CLI_FIXED = [
    ("cli.referendum", ["analyze", "--builder", "referendum", "--m", "1", "--domains", "unrestricted"],
     REFERENDUM1),
    ("cli.plurality_text", ["analyze", "--builder", "plurality", "--n", "3", "--m", "2", "--report", "text"],
     {"kind": "det", "builder": {"name": "plurality", "n": 3, "m": 2}}),
    ("cli.groves_queueing", ["analyze", "--builder", "groves", "--grid", GROVES_GRID,
                             "--theta1", "1/2", "--theta2", "1/4", "--domains", "explicit:queueing"],
     {"kind": "det", "builder": {"name": "groves", "grid": GROVES_GRID, "theta1": "1/2", "theta2": "1/4"}}),
    ("cli.groves_fallback", ["analyze", "--builder", "groves", "--grid", GROVES_GRID,
                             "--domains", "unrestricted"],
     {"kind": "det", "builder": {"name": "groves", "grid": GROVES_GRID, "theta1": "1/2", "theta2": "1/2"}}),
    ("cli.prob_counterexample", ["analyze", "--prob", "--builder", "mixed-counterexample",
                                 "--domains", "explicit:counterexample"],
     {"kind": "prob", "builder": {"name": "mixed-counterexample"}}),
    ("cli.prob_relfreq", ["analyze", "--prob", "--builder", "relfreq", "--n", "2", "--m", "2",
                          "--domains", "strict"],
     {"kind": "prob", "builder": {"name": "relfreq", "n": 2, "m": 2}}),
    ("cli.build", ["build", "referendum", "--m", "1", "--out", "{work}/referendum.json"], None),
    ("cli.validate", ["validate", "{work}/referendum.json"], None),
    ("cli.analyze_bundle", ["analyze", "--mech", "{work}/referendum.json", "--domains", "strict"],
     REFERENDUM1),
    ("cli.verify", ["verify"], None),
]


CLI_ANSWER_KEYS = ("verdict", "method", "witness_sha256", "exit", "stdout_sha256", "stdout_last",
                   "file_sha256")


def cli_expect(answer: dict) -> dict:
    """The exit code plus whatever else the command's pinned answer holds."""
    expect = {"verdict": None, "method": None, "witness_sha256": None}
    expect.update({key: answer[key] for key in CLI_ANSWER_KEYS if key in answer})
    return expect


def make_plan(workload: str, seed: int, fixture: dict) -> dict:
    """Every analysis of one pass, in run order, each with its expected answer."""
    rng = random.Random(f"{workload}:{seed}")
    items: list[dict] = []
    bundles: list[dict] = []
    if workload == "det_nba_scan":
        for kind in ("unrestricted", "weak_only", "strict"):
            items.append(_const_det(fixture, kind))
        items.append({
            "id": "det.referendum2",
            "kind": "det",
            "builder": {"name": "referendum", "m": 2},
            "domains": "unrestricted",
            "expect": _expect(fixture["answers"]["det.referendum2"]),
        })
        n_bases = len(fixture["bases"]["tie_heavy"])
        for base in rng.sample(range(n_bases), TIE_HEAVY_PER_PASS):
            items.append(_relabelled(fixture, rng, "tie_heavy", base, "unrestricted",
                                     f"det.tie_heavy.{base}"))
        items.append(_latin(rng, "det", "unrestricted"))
    elif workload == "prob_fsd_scan":
        items.append(_const_uniform(fixture, "const_uniform_232", 2, 3, 2, "strict"))
        items.append(_const_uniform(fixture, "const_uniform_223", 2, 2, 3, "weak_only"))
        items.append({
            "id": "prob.mixed_counterexample",
            "kind": "prob",
            "builder": {"name": "mixed-counterexample"},
            "domains": "explicit:counterexample",
            "expect": _expect(fixture["answers"]["prob.mixed_counterexample"]),
        })
        for base in range(len(fixture["bases"]["palette_strict"])):
            items.append(_palette_strict(fixture, rng, base))
        for base in range(len(fixture["bases"]["palette_weak"])):
            items.append(_relabelled(fixture, rng, "palette_weak", base, "weak_only",
                                     f"prob.palette_weak.{base}"))
    elif workload == "cli_corpus":
        for item_id, argv, mech in CLI_FIXED:
            items.append({"id": item_id, "kind": "cli", "argv": argv, "mech": mech,
                          "expect": cli_expect(fixture["answers"][item_id])})
        n_bases = len(fixture["bases"]["tie_heavy"])
        base = rng.randrange(n_bases)
        tie = _relabelled(fixture, rng, "tie_heavy", base, "unrestricted", f"cli.tie_heavy.{base}")
        latin = _latin(rng, "cli", "strict")
        for spec, domains in ((tie, "unrestricted"), (latin, "strict")):
            name = spec["id"].split(".", 1)[1].replace(".", "_") + ".json"
            bundles.append({**spec, "path": "{work}/" + name})
            argv = ["analyze", "--mech", "{work}/" + name, "--domains", domains]
            expect = dict(spec["expect"], exit=0)
            mech = {k: v for k, v in spec.items() if k not in ("id", "expect", "domains")}
            items.append({"id": spec["id"], "kind": "cli", "argv": argv, "mech": mech,
                          "expect": expect})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "items": items, "bundles": bundles}
