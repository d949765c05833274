"""The search returns the canonically first witness, checked against a brute-force oracle.

The oracles over whole full domains read each kind's comparisons as row
sets (`rowsets`), which the deterministic and the probabilistic tests pin
to the comparisons themselves.
"""

import collections
import collections.abc
import copy
import functools
import itertools
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exmech import domains, search, stochastic
from exmech.deterministic import (
    DetMechanism,
    _edge_walk,
    _preferences,
    build_groves_queueing,
    build_majority_referendum,
    condition1_counterexample,
    find_ba_witness,
    satisfies_condition1,
    search_ba_witness,
    validate_witness,
    witness_from_counterexample,
)
from exmech.domains import (
    build_queueing_pref_1,
    build_queueing_pref_2,
    domain_orderings,
    enumerate_strict_orderings,
    enumerate_weak_orderings,
    indifferent_ordering,
    resolve_domains,
)
from exmech.errors import AgentOutOfRange, CapExceeded, InvariantViolation
from exmech.model import (
    BAWitness,
    DomainKind,
    DomainSpec,
    Environment,
    Ordering,
    enumerate_profiles,
    full_profile,
    sub_profiles,
)
from exmech.queueing import QueueingParams
from exmech.stochastic import (
    Distribution,
    ProbMechanism,
    _chain_walk,
    build_mixed_counterexample,
    counterexample_preference,
    find_prob_ba_witness,
    fsd,
    is_completely_mixed,
    is_totally_mixed,
    random_completely_mixed_mechanism,
    random_totally_mixed,
    search_prob_ba_witness,
    validate_prob_witness,
)

from rowsets import fsd_relations, full_rows, rank_relations, rank_table, row_sets, rows_below

FULL_KINDS = (DomainKind.UNRESTRICTED, DomainKind.STRICT, DomainKind.WEAK_ONLY)


def small_env():
    return Environment.create((("a0", "a1"), ("b0", "b1")), ("z0", "z1"))


def first_valid_witness(mech, domains, validate):
    """Walk (agent, r, l, a, b, ordering) in the documented search order and
    return the first candidate the validator accepts."""
    env = mech.env
    specs = resolve_domains(env, domains)
    for agent in range(env.n):
        acts = env.actions[agent]
        subs = tuple(sub_profiles(env, agent))
        orderings = domain_orderings(env, agent, specs[agent])
        for r, l, a, b in itertools.product(acts, acts, subs, subs):
            if r == l or a == b:
                continue
            for ordering in orderings:
                witness = BAWitness(agent, r, l, a, b, ordering)
                try:
                    validate(mech, witness)
                except InvariantViolation:
                    continue
                return witness
    return None


def listed(env, specs, cap=None):
    """`specs` with each full-kind agent within the cap given an explicit domain
    listing every ordering of its kind in rank-table order; the rest, and a
    kind with no ordering (`weak_only` over one pair), unchanged.

    The search over these listed orderings is the oracle of the full kinds' walk.
    """
    resolved = resolve_domains(env, specs)
    for agent, spec in enumerate(resolved):
        if spec.kind is not DomainKind.EXPLICIT:
            pairs = env.pairs_for(agent)
            try:
                domains.orderings(spec.kind, agent, pairs, cap)
            except CapExceeded:
                continue
            if domains.row_count(len(pairs), spec.kind):
                explicit = listing(agent, pairs, spec.kind)
                resolved = (*resolved[:agent], explicit, *resolved[agent + 1 :])
    return resolved


@functools.cache
def listing(agent, pairs, kind):
    """The explicit domain of every ordering of a full kind over an agent's pairs."""
    return DomainSpec.explicit(domains.orderings(kind, agent, pairs, len(pairs)))


@pytest.mark.parametrize("strict_iii", (False, True))
@pytest.mark.parametrize("kind", FULL_KINDS, ids=lambda k: k.value)
def test_deterministic_search_returns_oracle_witness(kind, strict_iii):
    validate = functools.partial(validate_witness, strict_iii=strict_iii)
    env = small_env()
    profiles = list(enumerate_profiles(env))
    tables = list(itertools.product(env.outcomes, repeat=len(profiles)))
    # three agents give four sub-profiles each, so the order over b matters too
    env3 = Environment.create((("a0", "a1"), ("b0", "b1"), ("c0", "c1")), ("z0", "z1"))
    profiles3 = list(enumerate_profiles(env3))
    rng = random.Random(1)
    mechs = [DetMechanism(env, dict(zip(profiles, values))) for values in tables] + [
        DetMechanism(env3, {p: rng.choice(env3.outcomes) for p in profiles3}) for _ in range(10)
    ]
    found = 0
    for mech in mechs:
        expected = first_valid_witness(mech, kind, validate)
        assert find_ba_witness(mech, kind, strict_iii=strict_iii) == expected
        found += expected is not None
    assert found > 0


def mixed_palette(env, rng):
    return [random_totally_mixed(env.outcomes, rng) for _ in range(2)]


def degenerate_palette(env, rng):
    return [Distribution.point_mass(z, env.outcomes) for z in env.outcomes] + [
        Distribution.uniform(env.outcomes)
    ]


@pytest.mark.parametrize("palette", (mixed_palette, degenerate_palette), ids=("mixed", "degenerate"))
@pytest.mark.parametrize("kind", FULL_KINDS, ids=lambda k: k.value)
def test_probabilistic_search_returns_oracle_witness(kind, palette):
    # each profile draws from a small palette of distributions, so condition
    # (i) ties are common; the mixed palette keeps mechanisms completely mixed
    rng = random.Random(3)
    env = small_env()
    found = 0
    for _ in range(10):
        dists = palette(env, rng)
        mech = ProbMechanism(env, {p: rng.choice(dists) for p in enumerate_profiles(env)})
        expected = first_valid_witness(mech, kind, validate_prob_witness)
        assert find_prob_ba_witness(mech, kind) == expected
        found += expected is not None
    assert found > 0 or (kind is DomainKind.STRICT and palette is mixed_palette)


def test_probabilistic_search_returns_oracle_witness_on_counterexample():
    env, mech = build_mixed_counterexample()
    domains = (
        DomainSpec.explicit((counterexample_preference(),)),
        DomainSpec.explicit((indifferent_ordering(1, env.actions[1], env.outcomes),)),
    )
    expected = first_valid_witness(mech, domains, validate_prob_witness)
    assert expected is not None
    assert find_prob_ba_witness(mech, domains) == expected


# --- random mechanisms and domains against the oracle ----------------------------


@st.composite
def environments(draw, max_pairs):
    """Two or three agents with at most `max_pairs` (action, outcome) pairs
    each and at most twelve action profiles."""
    n_outcomes = draw(st.integers(1, 3 if max_pairs >= 6 else 2))
    actions = st.integers(1, min(3, max_pairs // n_outcomes))
    sizes = draw(st.lists(actions, min_size=2, max_size=3).filter(lambda s: math.prod(s) <= 12))
    return Environment.create(
        [tuple(f"{chr(97 + i)}{k}" for k in range(size)) for i, size in enumerate(sizes)],
        tuple(f"z{j}" for j in range(n_outcomes)),
    )


@st.composite
def explicit_domains(draw, env):
    """Per agent, one to eight orderings of its pairs, each from random class indices."""
    specs = []
    for agent in range(env.n):
        pairs = env.pairs_for(agent)
        orderings = []
        for _ in range(draw(st.integers(1, 8))):
            classes = st.integers(0, len(pairs) - 1)
            labels = draw(st.lists(classes, min_size=len(pairs), max_size=len(pairs)))
            rank = {c: k for k, c in enumerate(sorted(set(labels)))}
            orderings.append(Ordering.from_ranks(agent, pairs, [rank[c] for c in labels]))
        specs.append(DomainSpec.explicit(orderings))
    return tuple(specs)


@st.composite
def det_cases(draw, explicit):
    env = draw(environments(6 if explicit else 4))
    values = st.sampled_from(env.outcomes)
    mech = DetMechanism(env, {p: draw(values) for p in enumerate_profiles(env)})
    domains = draw(explicit_domains(env)) if explicit else draw(st.sampled_from(FULL_KINDS))
    return mech, domains


@st.composite
def prob_cases(draw, explicit, env=None):
    """Each profile draws from a palette of at most three distributions, so
    condition (i) ties are common."""
    env = env or draw(environments(6 if explicit else 4))
    weights = st.lists(st.integers(0, 3), min_size=len(env.outcomes), max_size=len(env.outcomes))
    palette = []
    for ks in draw(st.lists(weights.filter(any), min_size=1, max_size=3)):
        palette.append(Distribution({z: Fraction(k, sum(ks)) for z, k in zip(env.outcomes, ks)}))
    choice = st.sampled_from(palette)
    mech = ProbMechanism(env, {p: draw(choice) for p in enumerate_profiles(env)})
    domains = draw(explicit_domains(env)) if explicit else draw(st.sampled_from(FULL_KINDS))
    return mech, domains


@pytest.mark.parametrize("explicit", (False, True), ids=("full", "explicit"))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_deterministic_search_equals_oracle_on_random_mechanisms(explicit, data):
    mech, domains = data.draw(det_cases(explicit))
    for strict_iii in (False, True):
        validate = functools.partial(validate_witness, strict_iii=strict_iii)
        witness = find_ba_witness(mech, domains, strict_iii=strict_iii)
        assert witness == first_valid_witness(mech, domains, validate)
        if not explicit:  # tie propagation decides both forms of (iii) on the full kinds
            assert (witness is None) == satisfies_condition1(mech)
    if not explicit and (cex := condition1_counterexample(mech)) is not None:
        lift = witness_from_counterexample(mech, cex, domains)
        validate_witness(mech, lift, strict_iii=True, domain=DomainSpec(domains))


@pytest.mark.parametrize("explicit", (False, True), ids=("full", "explicit"))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_probabilistic_search_equals_oracle_on_random_mechanisms(explicit, data):
    mech, domains = data.draw(prob_cases(explicit))
    assert find_prob_ba_witness(mech, domains) == first_valid_witness(
        mech, domains, validate_prob_witness
    )


@pytest.mark.parametrize("prob", (False, True), ids=("det", "prob"))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_full_kind_search_equals_the_search_over_its_listed_orderings(prob, data):
    # the explicit domain's row path, over every ordering of the kind in
    # rank-table order, is the oracle of the walk: same witness, same stats
    mech, kind = data.draw(prob_cases(False) if prob else det_cases(False))
    explicit = listed(mech.env, kind)
    if prob:
        assert search_prob_ba_witness(mech, kind) == search_prob_ba_witness(mech, explicit)
        return
    for strict_iii in (False, True):
        expected = search_ba_witness(mech, explicit, strict_iii=strict_iii)
        assert search_ba_witness(mech, kind, strict_iii=strict_iii) == expected


# --- full-domain row sets -----------------------------------------------------------

ROW_SET_SIZES = [(n, kind) for kind in FULL_KINDS for n in range(1, 7)]
ROW_SET_SIZES.append((7, DomainKind.STRICT))


@pytest.mark.parametrize(
    "n, kind", ROW_SET_SIZES, ids=lambda v: v.value if isinstance(v, DomainKind) else str(v)
)
def test_full_row_sets_equal_those_of_the_rank_table(n, kind):
    # the oracle lists a full kind's orderings as an explicit domain in the
    # rank table's order, so the row oracles and the listed search agree
    env = Environment.create((tuple(f"x{k}" for k in range(n)), ("b0",)), ("z",))
    table = domains.domain_rank_vectors(env, 0, listed(env, kind)[0])
    assert table == rank_table(n, kind)
    le = row_sets(table, n)
    assert le[0][0].bit_length() == domains.row_count(n, kind)


def test_search_never_builds_a_rank_table(monkeypatch):
    # a full kind is walked, never listed: `domains.rows` is not asked
    env = Environment.create((("a0", "a1", "a2"), ("b0", "b1", "b2")), ("z0", "z1"))
    constant = DetMechanism(env, {p: "z0" for p in enumerate_profiles(env)})
    _, referendum = build_majority_referendum(1)
    expected = {k: first_valid_witness(referendum, k, validate_witness) for k in FULL_KINDS}
    wide = Environment.create((tuple(f"x{k}" for k in range(7)), ("b0",)), ("z",))
    wide_constant = DetMechanism(wide, {p: "z" for p in enumerate_profiles(wide)})

    def no_rows(n, kind):
        raise AssertionError(f"rows({n}, {kind}) listed during a search")

    monkeypatch.setattr(domains, "rows", no_rows)
    for kind in FULL_KINDS:
        nba = search_ba_witness(constant, kind)
        assert nba.witness is None
        assert nba.stats["orderings_per_agent"] == [domains.row_count(6, kind)] * 2
        assert expected[kind] is not None
        assert find_ba_witness(referendum, kind) == expected[kind]
    for kind in (DomainKind.UNRESTRICTED, DomainKind.WEAK_ONLY):
        message = "^7 pairs exceed the weak-order enumeration cap of 6$"
        with pytest.raises(CapExceeded, match=message):
            find_ba_witness(wide_constant, kind)


# --- the walk over heads against the lowest set bit ------------------------------


def assert_walk_equals_rows(pairs, kind, strict_iii, r, l, z, at_b):
    """Decide one deterministic tuple by the walk and by the rank table's rows.

    The tuple ties r and l at z and has each action x give `at_b[x]` at b.
    After (ii) and after each rival of (iii), rows of the rank table must
    survive the edges so far exactly when they form no cycle and, under
    `weak_only`, the walk's step passes them below an empty head (the
    weak-only rule); the walk's start must keep the edges exactly when rows
    survive them all, and the walk's ranks must then be the lowest
    surviving row's.  Returns whether the tuple is a witness.
    """
    index = {pair: k for k, pair in enumerate(pairs)}
    table, le = full_rows(len(pairs), kind)
    by_rows = rank_relations(index, le, strict_iii)
    steps = [(0, (l, z), (r, z))]
    steps += [(1, (r, at_b[r]), (x, at_b[x])) for x in at_b if x != r]
    start, below = _edge_walk(index, kind, strict_iii)
    rows, edges = le[0][0], []
    for which, lhs, rhs in steps:
        rows = by_rows[which](lhs, rhs, rows)
        edges.append((index[lhs], index[rhs], which == 0 or strict_iii))
        ends = {(p, q) for p, q, _ in edges}
        cycle = any((q, p) in ends for p, q in ends)
        assert (not cycle and below((), edges, len(pairs), kind) is not None) == bool(rows)
        if not rows:
            break
    state = start(r, l, z, at_b, (z, at_b[r], at_b[l]))
    assert state == (edges if rows else None)
    if not rows:
        return False
    lowest = (rows & -rows).bit_length() - 1
    assert tuple(domains.first_ranks(len(pairs), state, kind, below)) == table[lowest]
    return True


# every shape of at most six pairs: one outcome (m = 1) and one action included
WALK_SHAPES = [(a, m) for a in range(1, 7) for m in range(1, 7) if a * m <= 6]


@pytest.mark.parametrize("strict_iii", (False, True))
@pytest.mark.parametrize("kind", FULL_KINDS, ids=lambda k: k.value)
def test_walk_equals_the_lowest_row_on_every_tuple(kind, strict_iii):
    # every edge set a deterministic tuple can put on its agent's pairs: the
    # protest edge, then a star of rival edges from the anchor
    found = collections.Counter()
    for n_actions, n_outcomes in WALK_SHAPES:
        actions = tuple(f"x{k}" for k in range(n_actions))
        outcomes = tuple(f"z{j}" for j in range(n_outcomes))
        pairs = [(x, z) for x in actions for z in outcomes]
        for r, l in itertools.permutations(actions, 2):
            for z in outcomes:
                for at_b in itertools.product(outcomes, repeat=n_actions):
                    at_b = dict(zip(actions, at_b))
                    found[n_actions, n_outcomes] += assert_walk_equals_rows(
                        pairs, kind, strict_iii, r, l, z, at_b
                    )
    # one outcome: r and l tie again at b, so no tuple is a witness
    assert found[2, 1] == found[6, 1] == 0 < found[3, 2]
    # two pairs under weak_only: the one row ties them, so not even (ii) holds
    _, below = _edge_walk({}, kind, strict_iii)
    assert (below((), [(1, 0, True)], 2, kind) is not None) == (kind is not DomainKind.WEAK_ONLY)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_walk_equals_the_lowest_row_on_random_tables(data):
    env = data.draw(environments(6))
    values = st.sampled_from(env.outcomes)
    mech = DetMechanism(env, {p: data.draw(values) for p in enumerate_profiles(env)})
    kind = data.draw(st.sampled_from(FULL_KINDS))
    for strict_iii in (False, True):
        for agent in range(env.n):
            acts = env.actions[agent]
            for a, b in itertools.permutations(sub_profiles(env, agent), 2):
                at_a = {x: mech.outcome_at(agent, x, a) for x in acts}
                at_b = {x: mech.outcome_at(agent, x, b) for x in acts}
                for r, l in itertools.permutations(acts, 2):
                    if at_a[r] == at_a[l]:
                        pairs = env.pairs_for(agent)
                        assert_walk_equals_rows(pairs, kind, strict_iii, r, l, at_a[r], at_b)
        expected = search_ba_witness(mech, listed(env, kind), strict_iii=strict_iii)
        assert search_ba_witness(mech, kind, strict_iii=strict_iii) == expected


def tuple_edge_sets(k):
    """Every subset of a deterministic tuple's edges that k positions can hold, up to renaming.

    A protest edge from (l, z) = 0 to (r, z) = 1, or none, and a star of
    rival edges, each weak or strict, from the anchor to any positions but
    itself and (r, z): with no protest edge the anchor is 0, and with one it
    is (r, z) itself, whose rivals leave out (l, z) as that makes the cycle
    `start` refuses, or position 2, where (l, z) may be a rival.
    """
    shapes = [([], 0, range(1, k))]
    if k >= 2:
        shapes.append(([(0, 1, True)], 1, range(2, k)))
    if k >= 3:
        shapes.append(([(0, 1, True)], 2, [0, *range(3, k)]))
    for protest, anchor, allowed in shapes:
        for size in range(len(allowed) + 1):
            for rivals in itertools.combinations(allowed, size):
                for marks in itertools.product((False, True), repeat=size):
                    yield protest + [(anchor, q, s) for q, s in zip(rivals, marks)]


def test_weak_only_rule_equals_the_rows():
    # a weak_only tail over k positions meets a tuple's edges iff k >= 4, or
    # k = 3 with no strict edge continuing another, or k = 2 with no strict edge
    _, below = _edge_walk({}, DomainKind.WEAK_ONLY)
    verdicts = collections.defaultdict(set)
    for k in range(7):
        table, le = full_rows(k, DomainKind.WEAK_ONLY)
        for edges in tuple_edge_sets(k):
            rows = (1 << len(table)) - 1
            for p, q, strict in edges:
                rows &= ~le[q][p] if strict else le[p][q]
            fits = below((), edges, k, DomainKind.WEAK_ONLY)
            assert (fits is not None) == bool(rows), (k, edges)
            verdicts[k].add(bool(rows))
    assert verdicts == {0: {False}, 1: {False}, 2: {False, True}, 3: {False, True}} | {
        k: {True} for k in (4, 5, 6)
    }


def test_edge_step_refuses_heads_an_edge_forbids():
    # a head may not tie a strict edge's ends, nor take a pair an edge puts
    # below one outside it; a weak edge inside a head is met
    _, below = _edge_walk({}, DomainKind.UNRESTRICTED)
    edges = [(0, 1, True), (1, 2, False)]
    assert below((0, 1), edges, 1, DomainKind.UNRESTRICTED) is None
    assert below((1, 2), edges, 1, DomainKind.UNRESTRICTED) is None
    assert below((0,), edges, 2, DomainKind.UNRESTRICTED) == [(1, 2, False)]
    assert below((1, 2), [(1, 2, False)], 0, DomainKind.UNRESTRICTED) == []


def test_walk_refuses_edges_no_ordering_meets():
    # two positions under weak_only must tie, which a strict edge forbids
    table = rank_table(2, DomainKind.WEAK_ONLY)
    state = (0, [o for o, ranks in enumerate(table) if ranks[0] < ranks[1]])
    with pytest.raises(InvariantViolation, match=r"^no weak_only ordering of positions \[0, 1\]"):
        domains.first_ranks(2, state, DomainKind.WEAK_ONLY, rows_below(table))


def tie_heavy_3x3x2():
    env = Environment.create((("a0", "a1", "a2"), ("b0", "b1", "b2")), ("z0", "z1"))
    rng = random.Random(4)
    return DetMechanism(env, {p: rng.choice(env.outcomes) for p in enumerate_profiles(env)})


def forbid_rows(monkeypatch):
    """Fail the test if a full domain's rows or any domain's rank vectors are listed."""

    def no_rows(*args):
        raise AssertionError("rank vectors were built during a search")

    monkeypatch.setattr(domains, "rows", no_rows)
    monkeypatch.setattr(domains, "domain_rank_vectors", no_rows)


def test_deterministic_full_kinds_build_no_rows(monkeypatch):
    mechs = [build_majority_referendum(2)[1], tie_heavy_3x3x2()]
    cases = [(mech, kind, s) for mech in mechs for kind in FULL_KINDS for s in (False, True)]
    expected = [
        search_ba_witness(mech, listed(mech.env, kind), strict_iii=strict_iii)
        for mech, kind, strict_iii in cases
    ]
    assert all(result.witness is not None for result in expected)
    forbid_rows(monkeypatch)
    for (mech, kind, strict_iii), result in zip(cases, expected):
        assert search_ba_witness(mech, kind, strict_iii=strict_iii) == result


def test_probabilistic_full_kinds_build_no_rows(monkeypatch):
    # BA searches whose witnesses come from the walk with masses, on every kind
    _, counterexample = build_mixed_counterexample()
    env = Environment.create((("a0", "a1", "a2"), ("b0", "b1")), ("z0", "z1"))
    rng = random.Random(11)
    mechs = [counterexample]
    while len(mechs) < 6:
        palette = degenerate_palette(env, rng)
        mechs.append(ProbMechanism(env, {p: rng.choice(palette) for p in enumerate_profiles(env)}))
    cases = [(mech, kind) for mech in mechs for kind in FULL_KINDS]
    expected = [search_prob_ba_witness(mech, listed(mech.env, kind)) for mech, kind in cases]
    assert sum(result.witness is not None for result in expected) > len(cases) // 2
    forbid_rows(monkeypatch)
    for (mech, kind), result in zip(cases, expected):
        assert search_prob_ba_witness(mech, kind) == result


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("points", (4, 19))
@pytest.mark.parametrize("strict_iii", (False, True))
@pytest.mark.parametrize("kind", FULL_KINDS, ids=lambda k: k.value)
def test_walk_needs_no_cap_and_no_recursion(kind, strict_iii, points):
    # the groves rule on a 4-point grid gives each agent 28 pairs, past every
    # cap, and on a 19-point grid 703; tie propagation fails on both
    grid = tuple(Fraction(k, points - 1) for k in range(points))
    env, groves = build_groves_queueing(QueueingParams(Fraction(1, 2), Fraction(1, 4), grid))
    cex = condition1_counterexample(groves)
    acts, pairs = env.actions[cex.agent], env.pairs_for(cex.agent)
    assert len(pairs) == {4: 28, 19: 703}[points]
    with pytest.raises(CapExceeded):
        domains.orderings(kind, cex.agent, pairs)
    start, below = _edge_walk({p: k for k, p in enumerate(pairs)}, kind, strict_iii)
    at_b = {x: groves.outcome_at(cex.agent, x, cex.b_minus) for x in acts}
    edges = start(cex.r, cex.l, cex.z, at_b, (cex.z, at_b[cex.r], at_b[cex.l]))
    assert edges
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 30)  # far fewer frames than the walk's depths
    try:
        ranks = domains.first_ranks(len(pairs), edges, kind, below)
    finally:
        sys.setrecursionlimit(limit)
    ordering = Ordering.from_ranks(cex.agent, pairs, ranks)
    witness = BAWitness(cex.agent, cex.r, cex.l, cex.a_minus, cex.b_minus, ordering)
    validate_witness(groves, witness, strict_iii=strict_iii, domain=kind)


@pytest.mark.parametrize("strict_iii", (False, True))
@pytest.mark.parametrize("kind", FULL_KINDS, ids=lambda k: k.value)
def test_past_cap_agent_after_a_witness_is_never_read(kind, strict_iii):
    # agent 1 has 6 pairs, past a cap of 5 and within the default cap of 6 or 8
    env = Environment.create((("a0", "a1"), ("b0", "b1", "b2")), ("z0", "z1"))
    profiles = list(enumerate_profiles(env))
    rng = random.Random(5)
    found = 0
    for _ in range(20):
        mech = DetMechanism(env, {p: rng.choice(env.outcomes) for p in profiles})
        uncapped = search_ba_witness(mech, kind, strict_iii=strict_iii)
        if uncapped.witness is None or uncapped.witness.agent == 1:
            with pytest.raises(CapExceeded, match="^6 pairs exceed the .* enumeration cap of 5$"):
                search_ba_witness(mech, kind, cap=5, strict_iii=strict_iii)
            continue
        capped = search_ba_witness(mech, kind, cap=5, strict_iii=strict_iii)
        assert capped.witness == uncapped.witness
        counts = uncapped.stats["orderings_per_agent"]
        assert capped.stats == {**uncapped.stats, "orderings_per_agent": [counts[0], None]}
        found += 1
    assert 0 < found < 20


def test_past_cap_agent_raises_at_its_first_tie():
    # agent 0 dictates, so it never ties and needs no rows; agent 1 ties at once.
    # In `own`, agent 0's sub-profiles share one signature, so no witness can
    # complete there, but past the cap its first tie, at (a1, a2) after four
    # action pairs that never tie, still raises
    env = Environment.create(
        (("a0", "a1", "a2"), ("b0", "b1", "b2", "b3")), ("z0", "z1", "z2")
    )
    dictator = DetMechanism(env, {p: "z" + p[0][1] for p in enumerate_profiles(env)})
    own = DetMechanism(env, {p: "z0" if p[0] == "a0" else "z1" for p in enumerate_profiles(env)})
    for mech, pairs in ((dictator, 12), (own, 9)):
        for kind in FULL_KINDS:
            what = "strict" if kind is DomainKind.STRICT else "weak"
            message = f"^{pairs} pairs exceed the {what}-order enumeration cap of 8$"
            with pytest.raises(CapExceeded, match=message):
                find_ba_witness(mech, kind, cap=8)


@pytest.mark.parametrize("domains_arg", (["strict"] * 3, "bogus", [None] * 3, 3), ids=repr)
def test_search_rejects_domains_of_the_wrong_type(domains_arg):
    _, referendum = build_majority_referendum(1)
    with pytest.raises(InvariantViolation):
        find_ba_witness(referendum, domains_arg)


def test_explicit_witness_is_the_listed_ordering(monkeypatch):
    params = QueueingParams(Fraction(1, 2), Fraction(1, 4), tuple(Fraction(k, 4) for k in range(4)))
    env, groves = build_groves_queueing(params)
    queueing = (
        DomainSpec.explicit((build_queueing_pref_1(params, env),)),
        DomainSpec.explicit((build_queueing_pref_2(params, env),)),
    )
    env, mixed = build_mixed_counterexample()
    counterexample = (
        DomainSpec.explicit((counterexample_preference(),)),
        DomainSpec.explicit((indifferent_ordering(1, env.actions[1], env.outcomes),)),
    )

    def no_from_ranks(*args):
        raise AssertionError("an explicit domain's witness ordering was rebuilt from ranks")

    monkeypatch.setattr(Ordering, "from_ranks", no_from_ranks)
    found = [(find_ba_witness(groves, queueing, strict_iii=s), queueing) for s in (False, True)]
    found.append((find_prob_ba_witness(mixed, counterexample), counterexample))
    for witness, specs in found:
        assert witness is not None
        assert any(witness.ordering is listed for listed in specs[witness.agent].orderings)


def test_explicit_searches_read_no_rank_vectors(monkeypatch):
    # the CLI's queueing and counterexample shorthands, and thirty listed weak
    # orders per agent: the search asks the listed orderings themselves
    params = QueueingParams(Fraction(1, 2), Fraction(1, 4), tuple(Fraction(k, 4) for k in range(4)))
    env, groves = build_groves_queueing(params)
    queueing = (
        DomainSpec.explicit((build_queueing_pref_1(params, env),)),
        DomainSpec.explicit((build_queueing_pref_2(params, env),)),
    )
    env, mixed = build_mixed_counterexample()
    counterexample = (
        DomainSpec.explicit((counterexample_preference(),)),
        DomainSpec.explicit((indifferent_ordering(1, env.actions[1], env.outcomes),)),
    )
    tie_heavy = tie_heavy_3x3x2()
    env = tie_heavy.env
    rng = random.Random(30)
    palette = degenerate_palette(env, rng)
    palette_mech = ProbMechanism(env, {p: rng.choice(palette) for p in enumerate_profiles(env)})
    weak = DomainSpec(DomainKind.UNRESTRICTED)
    thirty = tuple(
        DomainSpec.explicit(rng.sample(domain_orderings(env, i, weak), 30)) for i in range(env.n)
    )
    cases = [
        (mech, specs, strict_iii)
        for mech, specs in ((groves, queueing), (tie_heavy, thirty))
        for strict_iii in (False, True)
    ]
    cases += [(mixed, counterexample, None), (palette_mech, thirty, None)]

    def find(mech, specs, strict_iii):
        if strict_iii is None:
            return find_prob_ba_witness(mech, specs)
        return find_ba_witness(mech, specs, strict_iii=strict_iii)

    def validator(strict_iii):
        if strict_iii is None:
            return validate_prob_witness
        return functools.partial(validate_witness, strict_iii=strict_iii)

    expected = [first_valid_witness(m, specs, validator(s)) for m, specs, s in cases]
    assert all(witness is not None for witness in expected)

    def no_rank_vectors(*args):
        raise AssertionError("an explicit domain's rank vectors were built during a search")

    monkeypatch.setattr(domains, "domain_rank_vectors", no_rank_vectors)
    assert [find(*case) for case in cases] == expected


@pytest.mark.parametrize("cap", ("5", [6], float("nan"), True, False, 2.5, -1), ids=repr)
def test_cap_must_be_none_or_a_non_negative_int(cap):
    _, referendum = build_majority_referendum(1)
    _, mixed = build_mixed_counterexample()
    pairs = (("a", "z0"), ("a", "z1"))
    searches = (
        lambda: find_ba_witness(referendum, "unrestricted", cap=cap),
        lambda: find_prob_ba_witness(mixed, "unrestricted", cap=cap),
        lambda: list(enumerate_weak_orderings(0, pairs, cap=cap)),
    )
    for run in searches:
        with pytest.raises(InvariantViolation, match=r"^cap must be None or an int >= 0, got "):
            run()


def altered(witness, **changes):
    """`witness` with the named fields changed, built through the constructor."""
    fields = {
        "agent": witness.agent,
        "r": witness.r,
        "l": witness.l,
        "a_minus": witness.a_minus,
        "b_minus": witness.b_minus,
        "ordering": witness.ordering,
    }
    return BAWitness(**{**fields, **changes})


def test_certificate_check_rejects_malformed_agents_and_sub_profiles():
    _, referendum = build_majority_referendum(1)
    _, mixed = build_mixed_counterexample()
    for mech, validate, find in (
        (referendum, validate_witness, find_ba_witness),
        (mixed, validate_prob_witness, find_prob_ba_witness),
    ):
        witness = find(mech, DomainKind.UNRESTRICTED)
        validate(mech, witness)
        for agent in ("0", 0.0, True, False, None):
            with pytest.raises(InvariantViolation, match="^agent must be an int, got "):
                validate(mech, altered(witness, agent=agent))
        with pytest.raises(AgentOutOfRange):
            validate(mech, altered(witness, agent=mech.env.n))
        for field in ("a_minus", "b_minus"):
            malformed = list(getattr(witness, field))
            with pytest.raises(InvariantViolation, match="sub-profiles not valid"):
                validate(mech, altered(witness, **{field: malformed}))


def test_certificate_check_reads_sub_profiles_coordinate_by_coordinate():
    # 20 three-action agents: 3^19 sub-profiles each, too many to list, and
    # a mechanism given only as a rule; agent 0's r = x and l = y tie at a,
    # where agent 1 plays x, and r alone gives z1 at b, where agent 1 plays y
    env = Environment.create((("x", "y", "w"),) * 20, ("z0", "z1"))

    def value_at(agent, action, sub):
        return "z1" if action == "x" and sub[0] == "y" else "z0"

    a, b = ("x",) * 19, ("y",) + ("x",) * 18
    ordering = Ordering(
        0,
        (
            frozenset({("x", "z1")}),
            frozenset({("y", "z0")}),
            frozenset({("x", "z0")}),
            frozenset({("y", "z1"), ("w", "z0"), ("w", "z1")}),
        ),
    )
    witness = BAWitness(0, "x", "y", a, b, ordering)
    beats = _preferences(False)
    search.check_certificate(env, witness, value_at, *beats)
    malformed = (
        list(a),  # a list never equals a tuple
        a[:-1],
        a + ("x",),
        ("v",) + a[1:],  # not an action of agent 1
        (["x"],) + a[1:],  # unhashable, compared and never hashed
        Fraction(1),
    )
    for field in ("a_minus", "b_minus"):
        for sub in malformed:
            with pytest.raises(InvariantViolation, match="^witness sub-profiles not valid"):
                search.check_certificate(env, altered(witness, **{field: sub}), value_at, *beats)
    with pytest.raises(InvariantViolation, match="^witness sub-profiles must be distinct$"):
        search.check_certificate(env, altered(witness, b_minus=a), value_at, *beats)


@pytest.mark.parametrize("ordering", (None, [], "a0 z0", ((("a0", "z0"),),)), ids=repr)
def test_certificate_check_rejects_an_ordering_that_is_not_one(ordering):
    _, referendum = build_majority_referendum(1)
    _, mixed = build_mixed_counterexample()
    for mech, validate, find in (
        (referendum, validate_witness, find_ba_witness),
        (mixed, validate_prob_witness, find_prob_ba_witness),
    ):
        witness = altered(find(mech, DomainKind.UNRESTRICTED), ordering=ordering)
        with pytest.raises(InvariantViolation, match="^witness ordering .* is not an Ordering$"):
            validate(mech, witness)


def test_certificate_check_takes_a_domain_kind_as_the_searches_do():
    _, referendum = build_majority_referendum(1)
    for kind in FULL_KINDS:
        witness = find_ba_witness(referendum, kind)
        for domain in (kind, kind.value, DomainSpec(kind)):
            validate_witness(referendum, witness, domain=domain)
    weak = find_ba_witness(referendum, DomainKind.WEAK_ONLY)
    with pytest.raises(InvariantViolation, match="outside the strict domain"):
        validate_witness(referendum, weak, domain="strict")
    for domain in ("bogus", "explicit", DomainKind.EXPLICIT, ["strict"], 3):
        with pytest.raises(InvariantViolation):
            validate_witness(referendum, weak, domain=domain)


# --- the signature quotient against the pairwise scan ------------------------------


def domain_rows(env, agent, spec, cap=None):
    """(`le`, ordering of row o) of the agent's domain, or (None, None) past the cap.

    A full kind's rows are its rank table's, an explicit domain's its listed
    orderings', each turned into `le` by its definition (`rowsets.row_sets`),
    so no oracle shares the search's walk over heads or its listed scan.
    """
    pairs = env.pairs_for(agent)
    if spec.kind is DomainKind.EXPLICIT:
        table = [[o.rank(p) for p in pairs] for o in spec.orderings]
        return row_sets(table, len(pairs)), spec.orderings.__getitem__
    try:
        domains.orderings(spec.kind, agent, pairs, cap)
    except CapExceeded:
        return None, None
    table = rank_table(len(pairs), spec.kind)

    def ordering_at(o):
        return Ordering.from_ranks(agent, pairs, table[o])

    return row_sets(table, len(pairs)), ordering_at


def pairwise_search_witness(env, value_at, domain_specs, relations, cap=None):
    """The search as a scan over every (a, b) pair, each b narrowed rival by rival.

    The same canonical order, witnesses and statistics as
    `search.search_witness`, with no interning, no signatures and no walk,
    reading each kind's comparisons as row-set `relations`; kept as the
    oracle for the quotient, the walk over heads and the listed scan.
    Every agent's rows within the cap are built up front (`domain_rows`),
    and its ordering count is read from them.
    """
    specs = domains.resolve_domains(env, domain_specs)
    admissible = [domain_rows(env, i, spec, cap) for i, spec in enumerate(specs)]
    subs_by_agent = tuple(tuple(sub_profiles(env, i)) for i in range(env.n))
    stats = {
        "agents": env.n,
        "action_pairs": sum(len(acts) * (len(acts) - 1) for acts in env.actions),
        "sub_profiles": [len(s) for s in subs_by_agent],
        "orderings_per_agent": [
            None if le is None else le[0][0].bit_length() for le, _ in admissible
        ],
    }
    for agent, (spec, acts, subs, (le, ordering_at)) in enumerate(
        zip(specs, env.actions, subs_by_agent, admissible)
    ):
        pairs = env.pairs_for(agent)
        if le is not None:
            beats_ii, beats_iii = relations({pair: k for k, pair in enumerate(pairs)}, le)
            every = le[0][0]
        for r in acts:
            for l in acts:
                if r == l:
                    continue
                for a in subs:
                    value = value_at(agent, r, a)
                    if value != value_at(agent, l, a):
                        continue
                    if le is None:
                        domains.orderings(spec.kind, agent, pairs, cap)
                    candidates = beats_ii((l, value), (r, value), every)
                    if not candidates:
                        continue
                    for b in subs:
                        if b == a:
                            continue
                        anchor = (r, value_at(agent, r, b))
                        rows = candidates
                        for x in acts:
                            if x != r:
                                rows = beats_iii(anchor, (x, value_at(agent, x, b)), rows)
                                if not rows:
                                    break
                        if rows:
                            ordering = ordering_at((rows & -rows).bit_length() - 1)
                            witness = BAWitness(agent, r, l, a, b, ordering)
                            return search.SearchResult(witness, stats)
    return search.SearchResult(None, stats)


def outcome_or_cap(run):
    try:
        return run()
    except CapExceeded as exc:
        return str(exc)


@st.composite
def few_signature_cases(draw, prob):
    """Three or four agents and two outcomes; each value depends only on the
    actions of a random subset of the agents and comes from a palette of one
    or two values, so that sub-profiles share few signatures.  Full or
    explicit domains, and maybe a cap."""
    sizes = draw(
        st.lists(st.integers(1, 3), min_size=3, max_size=4).filter(lambda s: math.prod(s) <= 36)
    )
    env = Environment.create(
        [tuple(f"{chr(97 + i)}{k}" for k in range(size)) for i, size in enumerate(sizes)],
        ("z0", "z1"),
    )
    if prob:
        weights = st.lists(st.integers(0, 2), min_size=2, max_size=2)
        palette = [
            Distribution({z: Fraction(k, sum(ks)) for z, k in zip(env.outcomes, ks)})
            for ks in draw(st.lists(weights.filter(any), min_size=1, max_size=2, unique_by=tuple))
        ]
    else:
        palette = draw(st.lists(st.sampled_from(env.outcomes), min_size=1, max_size=2, unique=True))
    readers = draw(st.lists(st.booleans(), min_size=env.n, max_size=env.n))
    keyed: dict = {}
    table = {}
    for profile in enumerate_profiles(env):
        key = tuple(action for action, read in zip(profile, readers) if read)
        if key not in keyed:
            keyed[key] = draw(st.sampled_from(palette))
        table[profile] = keyed[key]
    mech = ProbMechanism(env, table) if prob else DetMechanism(env, table)
    if draw(st.booleans()):
        specs = draw(explicit_domains(env))
    else:
        specs = draw(st.sampled_from(FULL_KINDS))
    cap = draw(st.sampled_from((None, None, 2, 4)))
    return mech, specs, cap


def relation_cases(mech, prob):
    """(value_at, relations, beats, full) per `strict_iii`: the comparisons
    `beats` and the hook `full` as each kind's search passes them, and the
    comparisons' row-set form `relations` for the pairwise scan."""
    if prob:
        return [(mech.dist_at, fsd_relations, (fsd, fsd), _chain_walk)]
    return [
        (
            mech.outcome_at,
            functools.partial(rank_relations, strict_iii=strict_iii),
            _preferences(strict_iii),
            functools.partial(_edge_walk, strict_iii=strict_iii),
        )
        for strict_iii in (False, True)
    ]


@pytest.mark.parametrize("prob", (False, True), ids=("det", "prob"))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_signature_search_equals_the_pairwise_scan(prob, data):
    # the pairwise scan reads rows only, so this also compares the walk over
    # heads and the scan of listed orderings with the lowest surviving row
    mech, specs, cap = data.draw(few_signature_cases(prob))
    for value_at, relations, beats, full in relation_cases(mech, prob):
        expected = outcome_or_cap(
            lambda: pairwise_search_witness(mech.env, value_at, specs, relations, cap)
        )
        assert outcome_or_cap(
            lambda: search.search_witness(mech.env, value_at, mech._codes, specs, beats, full, cap)
        ) == expected


class CountedCodes(collections.abc.Sequence):
    """A code table that counts the slices taken of it, by (start, stop, step)."""

    def __init__(self, codes):
        self.codes = codes
        self.slices = collections.Counter()

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.slices[index.start, index.stop, index.step] += 1
        return self.codes[index]


def signature_slices(env):
    """(agent, sub-profile) -> the slice of the code table holding the agent's
    values there, found by listing the profiles, not by the search's strides;
    every agent must have two actions or more."""
    index = {profile: k for k, profile in enumerate(enumerate_profiles(env))}
    slices = {}
    for agent, acts in enumerate(env.actions):
        for sub in sub_profiles(env, agent):
            at = [index[full_profile(sub, agent, x)] for x in acts]
            step = at[1] - at[0]
            assert at == list(range(at[0], at[0] + len(at) * step, step))
            slices[agent, sub] = (at[0], at[0] + len(at) * step, step)
    return slices


def test_search_reads_only_the_sub_profiles_it_reaches():
    # the first tie is at the first sub-profile and its witness b is the third,
    # so of 81 sub-profiles per agent only the first three are sliced, each
    # once, and values are read at those three alone
    env, referendum = build_majority_referendum(2)
    subs = list(sub_profiles(env, 0))
    slices = signature_slices(env)
    read = []

    def value_at(agent, action, sub):
        read.append((agent, sub))
        return referendum.outcome_at(agent, action, sub)

    for kind in FULL_KINDS:
        read.clear()
        codes = CountedCodes(referendum._codes)
        beats = _preferences(False)
        result = search.search_witness(env, value_at, codes, kind, beats, _edge_walk)
        assert result.witness == find_ba_witness(referendum, kind)
        assert codes.slices == collections.Counter(slices[0, sub] for sub in subs[:3])
        assert {agent for agent, _ in read} == {0}
        assert {subs.index(sub) for _, sub in read} <= {0, 1, 2}
        assert result.witness.b_minus == subs[2]


def test_nba_scan_reads_each_value_once_on_constant_mechanisms():
    # six agents of three actions (3^6 profiles): each agent's sub-profiles
    # share one signature, so the scan slices all 243 of them once looking
    # for a second, and walks the one signature it found for every action
    # pair; no tie reaches a rival signature, so no value is read at all
    env = Environment.create([[f"x{i}{k}" for k in range(3)] for i in range(6)], ("z0", "z1"))
    profiles = list(enumerate_profiles(env))
    constant = DetMechanism(env, dict.fromkeys(profiles, "z0"))
    uniform = ProbMechanism(env, dict.fromkeys(profiles, Distribution.uniform(env.outcomes)))
    every = collections.Counter(signature_slices(env).values())
    assert sum(every.values()) == 6 * 243
    for mech, prob in ((constant, False), (uniform, True)):
        for value_at, _, beats, full in relation_cases(mech, prob):
            for kind in FULL_KINDS:
                read = collections.Counter()

                def counted(agent, action, sub):
                    read[agent, action, sub] += 1
                    return value_at(agent, action, sub)

                codes = CountedCodes(mech._codes)
                assert search.search_witness(env, counted, codes, kind, beats, full).witness is None
                assert codes.slices == every
                assert not read


@st.composite
def coded_tables(draw):
    """(prob, env, table): a random deterministic or probabilistic table over
    up to three agents, listed in shuffled profile order.  A probabilistic
    table builds each profile's distribution apart, from weights of 0 to 2,
    so equal distributions are distinct objects and some carry zero weights."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    outcomes = ("z0", "z1", "z2")[: draw(st.integers(1, 3))]
    env = Environment.create(
        [tuple(f"{chr(97 + i)}{k}" for k in range(size)) for i, size in enumerate(sizes)], outcomes
    )
    profiles = list(enumerate_profiles(env))
    prob = draw(st.booleans())
    if prob:
        weights = st.lists(st.integers(0, 2), min_size=len(outcomes), max_size=len(outcomes))
        rows = draw(st.lists(weights.filter(any), min_size=len(profiles), max_size=len(profiles)))
        values = [
            Distribution({z: Fraction(k, sum(ks)) for z, k in zip(outcomes, ks)}) for ks in rows
        ]
    else:
        values = draw(
            st.lists(st.sampled_from(outcomes), min_size=len(profiles), max_size=len(profiles))
        )
    order = draw(st.permutations(range(len(profiles))))
    return prob, env, {profiles[k]: values[k] for k in order}


@given(coded_tables())
@settings(max_examples=100, deadline=None)
def test_code_table_agrees_with_the_value_reads(case):
    # one code per profile in `enumerate_profiles` order, equal codes iff the
    # values read through `outcome_at` or `dist_at`, from any agent's side,
    # are equal (for distributions, as probability maps); the table stays
    # outside the fields, so equality, the repr, pickling and copying are
    # those of the fields, and a clone, which runs the constructor, records
    # the same table again; no write reaches the table, neither through it
    # nor through the caller's dict, so the code table always describes it
    prob, env, table = case
    source = dict(table)
    mech = ProbMechanism(env, source) if prob else DetMechanism(env, source)
    value_at = mech.dist_at if prob else mech.outcome_at
    profiles = list(enumerate_profiles(env))
    assert len(mech._codes) == len(profiles)
    reads = []
    for profile in profiles:
        seen = {value_at(i, x, profile[:i] + profile[i + 1 :]) for i, x in enumerate(profile)}
        assert len(seen) == 1
        value = seen.pop()
        reads.append(dict(value.probs) if prob else value)
    for (code, value), (other, value_there) in itertools.product(zip(mech._codes, reads), repeat=2):
        assert (code == other) == (value == value_there)
    for clone in (mech, pickle.loads(pickle.dumps(mech)), copy.deepcopy(mech)):
        assert clone == mech and repr(clone) == repr(mech)
        assert clone._codes == mech._codes
        with pytest.raises(TypeError):  # the table field is a mappingproxy, so no mechanism hashes
            hash(clone)
    assert "_codes" not in repr(mech)
    assert type(mech)._fields == ("env", "table")
    before, codes = dict(mech.table), mech._codes
    with pytest.raises(TypeError):
        mech.table[profiles[0]] = mech.table[profiles[-1]]
    with pytest.raises(TypeError):
        del mech.table[profiles[0]]
    source[profiles[0]] = source[profiles[-1]] = "written"
    source[("no such profile",)] = "written"
    del source[profiles[len(profiles) // 2]]
    assert dict(mech.table) == before and mech._codes == codes
    assert type(mech)(env, before)._codes == codes


def test_a_signature_is_narrowed_again_for_another_tied_value():
    # For (x0, x1), a = b0 ties at z0 and a = b2 at z1.  Ordering A alone
    # passes (ii) at z0 and ordering B alone at z1; the signatures of b1 and
    # b3 meet (iii) under B only, so the witness is (a, b) = (b2, b1) under
    # B, after b1 and b3 failed for z0.
    env = Environment.create((("x0", "x1", "x2"), ("b0", "b1", "b2", "b3")), ("z0", "z1"))
    at_agent_0 = {
        "b0": ("z0", "z0", "z0"),
        "b1": ("z1", "z0", "z0"),
        "b2": ("z1", "z1", "z1"),
        "b3": ("z1", "z0", "z1"),
    }
    table = {(x, b): at_agent_0[b][int(x[1])] for x, b in enumerate_profiles(env)}
    mech = DetMechanism(env, table)

    def strict(*pairs):
        return Ordering(0, tuple(frozenset({(x, z)}) for x, z in pairs))

    row_a = strict(
        ("x2", "z0"), ("x2", "z1"), ("x1", "z0"), ("x0", "z1"), ("x1", "z1"), ("x0", "z0")
    )
    row_b = strict(
        ("x1", "z1"), ("x0", "z1"), ("x2", "z0"), ("x0", "z0"), ("x1", "z0"), ("x2", "z1")
    )
    specs = (DomainSpec.explicit((row_a, row_b)), DomainSpec(DomainKind.UNRESTRICTED))
    witness = find_ba_witness(mech, specs)
    assert witness == BAWitness(0, "x0", "x1", ("b2",), ("b1",), row_b)
    assert witness == pairwise_search_witness(env, mech.outcome_at, specs, rank_relations).witness


# --- the contract the walk relies on, and the comparison calls it makes ------------


def contract_tables():
    """(actions, outcomes, kind, table, le): each full kind's rank table over
    at most five pairs, and random explicit tables over six, whose kind is None."""
    for n_actions, n_outcomes in ((2, 2), (1, 3), (5, 1), (1, 5)):
        actions = tuple(f"x{k}" for k in range(n_actions))
        outcomes = tuple(f"z{j}" for j in range(n_outcomes))
        n = n_actions * n_outcomes
        for kind in FULL_KINDS:
            yield actions, outcomes, kind, *full_rows(n, kind)
    rng = random.Random(5)
    for _ in range(4):
        table = []
        for _ in range(rng.randint(1, 40)):
            labels = [rng.randrange(6) for _ in range(6)]
            table.append([sorted(set(labels)).index(c) for c in labels])
        yield ("x0", "x1"), ("z0", "z1", "z2"), None, table, row_sets(table, 6)


@pytest.mark.parametrize("prob", (False, True), ids=("det", "prob"))
def test_relations_meet_the_search_contract(prob):
    # (iii) against a lottery never holds where (ii) for it over the other
    # does: the walk skips a's own signature and decides each tied value once
    # because of it.  Comparisons: no ordering meeting (ii) meets the reversed
    # (iii), asked of random explicit orderings and, through their row-set
    # form, of every row of each table.  Walks: `start`
    # refuses every tuple whose r and l give the tied value at b.
    for actions, outcomes, kind, table, le in contract_tables():
        pairs = [(x, z) for x in actions for z in outcomes]
        index = {pair: k for k, pair in enumerate(pairs)}
        every = le[0][0]
        if prob:
            masses = itertools.product(range(3 if len(outcomes) <= 3 else 2), repeat=len(outcomes))
            values = dict.fromkeys(
                Distribution({z: Fraction(k, sum(ks)) for z, k in zip(outcomes, ks)})
                for ks in masses
                if any(ks)
            )
            comparisons = [((fsd, fsd), fsd_relations(index, le))]
            walks = [_chain_walk(index, kind)] if kind is not None else []
        else:
            values = outcomes
            comparisons = [(_preferences(s), rank_relations(index, le, s)) for s in (False, True)]
            walks = [_edge_walk(index, kind, s) for s in (False, True)] if kind is not None else []
        lotteries = [(x, value) for x in actions for value in values]
        orderings = []  # a full kind's orderings are asked through the rows alone
        if kind is None:  # four a table keep the direct fsd calls few
            orderings = [Ordering.from_ranks(0, pairs, ranks) for ranks in table[:4]]
        for (beats_ii, beats_iii), (rows_ii, rows_iii) in comparisons:
            for x, y in itertools.product(lotteries, repeat=2):
                rows = rows_ii(x, y, every)  # the search asks (iii) only where (ii) held
                assert not (rows and rows_iii(y, x, rows))
                for ordering in orderings:
                    assert not (beats_ii(ordering, x, y) and beats_iii(ordering, y, x))
        at_bs = list(itertools.product(values, repeat=len(actions)))
        for start, _ in walks:
            for (r, l), tied, rivals in itertools.product(
                itertools.permutations(actions, 2), values, at_bs
            ):
                at_b = {**dict(zip(actions, rivals)), r: tied, l: tied}
                assert start(r, l, tied, at_b, (tied, tied, tied)) is None


def logged_comparisons(env, beats, log):
    """`beats` with its calls logged, each for the agent its ordering is tagged for.

    A (ii) call logs ((agent, r, l, tied value), ordering, answer) under
    "ii", and its key becomes the context of the (iii) calls after it.  A
    (iii) call is counted per agent under "iii"; when its rival is the first
    action other than r it starts the check of one ordering at one
    signature, and it logs the context, the ordering and the anchor's and
    the rival's values under "starts".
    """
    beats_ii, beats_iii = beats
    key = None

    def ii(ordering, lhs, rhs):
        nonlocal key
        key = (ordering.agent, rhs[0], lhs[0], lhs[1])
        answer = beats_ii(ordering, lhs, rhs)
        log["ii"].append((key, ordering, answer))
        return answer

    def iii(ordering, anchor, rival):
        agent = ordering.agent
        log["iii"][agent] += 1
        assert key[0] == agent and anchor[0] == key[1]
        if rival[0] == next(x for x in env.actions[agent] if x != anchor[0]):
            log["starts"].append((*key, ordering, anchor[1], rival[1]))
        return beats_iii(ordering, anchor, rival)

    return ii, iii


def logged_walk(env, full, log):
    """`full` with its calls logged: each hook made is counted per agent under
    "walks", and each start asked, (agent, r, l, tied value, every action's
    value at b) and whether it gave a state, is appended to "asked".  Each
    start's key must stand for the tied value, r's value at b and l's value
    at b: per agent, equal keys for equal values and distinct keys for
    distinct ones."""

    def wrapped(index, kind):
        agent = next(i for i in range(env.n) if set(index) == set(env.pairs_for(i)))
        log["walks"][agent] += 1
        start, below = full(index, kind)
        keys, values = {}, {}

        def asked(r, l, value, at_b, key):
            named = (value, at_b[r], at_b[l])
            assert keys.setdefault(key, named) == named and values.setdefault(named, key) == key
            state = start(r, l, value, at_b, key)
            log["asked"].append(((agent, r, l, value, tuple(at_b.items())), state is not None))
            return state

        return asked, below

    return wrapped


def assert_within_budget(env, value_at, codes, beats, full, specs, cap=None):
    """Search with logged comparisons and walks and check the calls against the budget.

    (ii) runs once on each listed ordering, in listed order, per (agent, r,
    l, tied value), and on nothing else.  An ordering's check starts only
    if it met (ii) for that tied value, at most once per signature and
    never at the signature of the value's first tie: so the starts seen
    with given anchor and first-rival values number no more than the other
    signatures with those values, times the ordering's listed copies.  A
    walk's start is asked each (agent, r, l, value, values at b) at most
    once, never at the signature of the value's first tie, and gives a
    state at most once, which ends the search, and never where r and l both
    give the tied value at b.  An agent's walk hook is made at most once,
    and a walked agent has no comparison asked.  An agent with one
    signature has nothing made or asked.
    """
    log = {"ii": [], "starts": [], "iii": collections.Counter(), "asked": []}
    log["walks"] = collections.Counter()
    logged = logged_comparisons(env, beats, log)
    walk = logged_walk(env, full, log)
    run = functools.partial(search.search_witness, env, value_at, codes, specs, logged, walk, cap)
    result = outcome_or_cap(run)
    listed = [spec.orderings for spec in resolve_domains(env, specs)]
    runs = [
        (key, [ordering for _, ordering, _ in run])
        for key, run in itertools.groupby(log["ii"], lambda call: call[0])
    ]
    assert len({key for key, _ in runs}) == len(runs)
    for (agent, *_), orderings in runs:
        assert tuple(orderings) == listed[agent]
    passed = {(key, ordering) for key, ordering, answer in log["ii"] if answer}
    asked = [question for question, _ in log["asked"]]
    assert len(set(asked)) == len(asked)
    assert [answer for _, answer in log["asked"]].count(True) <= 1
    for agent in log["walks"]:  # an agent is searched through its listed orderings or its walk
        assert log["iii"][agent] == 0 and not [key for key, _ in runs if key[0] == agent]

    def signature(agent, b):
        return tuple(value_at(agent, x, b) for x in env.actions[agent])

    for (agent, r, l, value, at_b), answer in log["asked"]:
        subs = list(sub_profiles(env, agent))
        tie = next(b for b in subs if value_at(agent, r, b) == value == value_at(agent, l, b))
        assert tuple(v for _, v in at_b) != signature(agent, tie)
        assert not (answer and dict(at_b)[r] == dict(at_b)[l] == value)

    for (agent, r, l, value, ordering, *seen), count in collections.Counter(log["starts"]).items():
        assert ((agent, r, l, value), ordering) in passed
        acts = env.actions[agent]
        subs = list(sub_profiles(env, agent))
        tie = next(b for b in subs if value_at(agent, r, b) == value == value_at(agent, l, b))
        shown = (acts.index(r), acts.index(next(x for x in acts if x != r)))
        others = {signature(agent, b) for b in subs} - {signature(agent, tie)}
        matching = sum(1 for sig in others if [sig[k] for k in shown] == seen)
        assert count <= matching * listed[agent].count(ordering)
    for agent in range(env.n):
        assert log["walks"][agent] <= 1
        if len({signature(agent, b) for b in sub_profiles(env, agent)}) == 1:
            assert log["walks"][agent] == log["iii"][agent] == 0
            assert not [key for key, _ in runs if key[0] == agent]
            assert not [question for question in asked if question[0] == agent]
    return result


@pytest.mark.parametrize("prob", (False, True), ids=("det", "prob"))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_relation_call_budget_on_few_signature_mechanisms(prob, data):
    mech, specs, cap = data.draw(few_signature_cases(prob))
    for value_at, _, beats, full in relation_cases(mech, prob):
        assert_within_budget(mech.env, value_at, mech._codes, beats, full, specs, cap)


def constant_3x3x2():
    """The constant deterministic and the uniform probabilistic mechanism on
    two agents with three actions each and two outcomes."""
    env = Environment.create((("a0", "a1", "a2"), ("b0", "b1", "b2")), ("z0", "z1"))
    constant = DetMechanism(env, {p: "z0" for p in enumerate_profiles(env)})
    dist = Distribution.uniform(env.outcomes)
    uniform = ProbMechanism(env, {p: dist for p in enumerate_profiles(env)})
    return env, constant, uniform


def test_relation_call_budget_on_constant_mechanisms():
    env, constant, uniform = constant_3x3x2()
    for kind in FULL_KINDS:
        for mech, prob in ((constant, False), (uniform, True)):
            for value_at, _, beats, full in relation_cases(mech, prob):
                result = assert_within_budget(env, value_at, mech._codes, beats, full, kind)
                assert result.witness is None


def test_one_signature_agents_build_no_rows(monkeypatch):
    # no b has a signature other than a's, so no tied value reaches (ii)
    env, constant, uniform = constant_3x3x2()

    def no_walk(index, kind):
        raise AssertionError("a walk was made for a constant mechanism")

    def no_comparison(ordering, lhs, rhs):
        raise AssertionError("a listed ordering was compared for a constant mechanism")

    specs = tuple(
        DomainSpec.explicit(itertools.islice(enumerate_weak_orderings(i, env.pairs_for(i)), 5))
        for i in range(env.n)
    )
    forbid_rows(monkeypatch)
    for domain in (*FULL_KINDS, specs):
        for mech, value_at in ((constant, constant.outcome_at), (uniform, uniform.dist_at)):
            beats = (no_comparison, no_comparison)
            result = search.search_witness(env, value_at, mech._codes, domain, beats, no_walk)
            assert result.witness is None
    assert result.stats["orderings_per_agent"] == [5, 5]


def completely_mixed_mechanisms(rng):
    """Seeded completely mixed mechanisms: the 2x3x2 shape on a palette of
    three distributions, and 2x2x2 and 3x3x2 ones on a palette of two."""
    env = Environment.create((("a0", "a1", "a2"), ("b0", "b1", "b2")), ("z0", "z1"))
    mechs = []
    for _ in range(4):
        palette = [random_totally_mixed(env.outcomes, rng) for _ in range(3)]
        mechs.append(ProbMechanism(env, {p: rng.choice(palette) for p in enumerate_profiles(env)}))
    for actions in ((("a0", "a1"),) * 3, (("a0", "a1", "a2"),) * 2):
        shape = Environment.create(actions, ("z0", "z1"))
        mechs += [random_completely_mixed_mechanism(shape, rng) for _ in range(4)]
    return mechs


def test_completely_mixed_strict_mechanisms_are_nba_with_no_rows(monkeypatch):
    # the dominance dichotomy settles each agent whose orderings are all
    # strict before the scan: no value is read, no walk is made (so no start
    # is asked), no row is built and no (ii) or (iii) runs
    def no_comparison(ordering, lhs, rhs):
        raise AssertionError("an ordering was compared for a completely mixed mechanism")

    def no_walk(index, kind):
        raise AssertionError("a walk was made for a completely mixed mechanism")

    def no_read(self, agent, action, sub):
        raise AssertionError("a value was read for a completely mixed mechanism")

    mechs = completely_mixed_mechanisms(random.Random(29))
    listed_strict = [
        tuple(
            DomainSpec.explicit(itertools.islice(enumerate_strict_orderings(i, pairs), 5))
            for i, pairs in enumerate(map(mech.env.pairs_for, range(mech.env.n)))
        )
        for mech in mechs
    ]
    monkeypatch.setattr(stochastic, "fsd", no_comparison)
    monkeypatch.setattr(stochastic, "_chain_walk", no_walk)
    monkeypatch.setattr(ProbMechanism, "dist_at", no_read)
    forbid_rows(monkeypatch)
    for mech, explicit in zip(mechs, listed_strict):
        assert is_completely_mixed(mech)
        result = search_prob_ba_witness(mech, DomainKind.STRICT)
        assert result.witness is None
        assert result.stats["orderings_per_agent"] == [
            math.factorial(len(pairs)) for pairs in map(mech.env.pairs_for, range(mech.env.n))
        ]
        result = search_prob_ba_witness(mech, explicit)
        assert result.witness is None
        assert result.stats["orderings_per_agent"] == [5] * mech.env.n


def test_partly_mixed_tuples_are_still_rejected_at_the_first_step(monkeypatch):
    # one profile carries a zero weight, so no agent is settled before the
    # scan; the walk's start still rejects each tied tuple whose tied and
    # l-rival values are totally mixed (the dominance dichotomy), by the
    # chain test at its first step, with at most its one backward reach
    # (`_reached`); the agent's pairs are laid out (`_steps`) once per walk,
    # when the walk is made, and never by a start
    calls = []
    steps, reached, chain_walk = stochastic._steps, stochastic._reached, stochastic._chain_walk
    monkeypatch.setattr(stochastic, "_steps", lambda m: calls.append("lay out") or steps(m))
    monkeypatch.setattr(stochastic, "_reached", lambda *a: calls.append("reach") or reached(*a))
    asked = []  # (tied and l-rival values totally mixed, calls during start, its answer)
    made = []  # one entry per walk made

    def logged(index, kind):
        start, below = chain_walk(index, kind)
        made.append(kind)

        def asking(r, l, tied, at_b, key):
            before = len(calls)
            answer = start(r, l, tied, at_b, key)
            mixed = is_totally_mixed(tied) and is_totally_mixed(at_b[l])
            asked.append((mixed, calls[before:], answer))
            return answer

        return asking, below

    monkeypatch.setattr(stochastic, "_chain_walk", logged)
    rng = random.Random(30)
    for mech in completely_mixed_mechanisms(rng):
        env = mech.env
        zero = Distribution({"z0": Fraction(0), "z1": Fraction(1)})
        profile = rng.choice(list(enumerate_profiles(env)))
        mech = ProbMechanism(env, {**mech.table, profile: zero})
        assert not is_completely_mixed(mech)
        expected = search_prob_ba_witness(mech, listed(env, DomainKind.STRICT))
        assert search_prob_ba_witness(mech, DomainKind.STRICT) == expected
    mixed = [(during, answer) for totally, during, answer in asked if totally]
    assert mixed and len(mixed) < len(asked)
    assert all(during in ([], ["reach"]) and answer is None for during, answer in mixed)
    assert not any("lay out" in during for _, during, _ in asked)
    assert calls.count("lay out") == len(made) > 0


@st.composite
def dichotomy_cases(draw):
    """A completely mixed mechanism, or one where one or two profiles carry a
    distribution with a single zero weight, over up to six pairs per agent; per agent `strict`, `weak_only`,
    `unrestricted`, an explicit domain of strict orderings or one with a
    single weak ordering among them; maybe a cap below the pair count."""
    env = draw(environments(6).filter(lambda env: min(map(len, env.actions)) > 1))
    rng = random.Random(draw(st.integers(0, 999)))
    palette = st.sampled_from([random_totally_mixed(env.outcomes, rng) for _ in range(2)])
    table = {p: draw(palette) for p in enumerate_profiles(env)}
    if len(env.outcomes) > 1 and draw(st.booleans()):
        ks = draw(st.permutations([0] + [1] * (len(env.outcomes) - 1)))
        zero = Distribution({z: Fraction(k, sum(ks)) for z, k in zip(env.outcomes, ks)})
        for profile in draw(st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=2)):
            table[profile] = zero
    specs = []
    for agent in range(env.n):
        pairs = env.pairs_for(agent)
        form = draw(st.sampled_from(("strict", "strict", "weak_only", "unrestricted", "listed")))
        if form != "listed":
            specs.append(DomainSpec(DomainKind(form)))
            continue
        ranks = st.permutations(range(len(pairs)))
        orderings = [
            Ordering.from_ranks(agent, pairs, perm)
            for perm in draw(st.lists(ranks, min_size=1, max_size=4))
        ]
        if draw(st.booleans()):  # and one weak ordering of two classes at most
            labels = draw(st.lists(st.integers(0, 1), min_size=len(pairs), max_size=len(pairs)))
            weak = Ordering.from_ranks(agent, pairs, [c - min(labels) for c in labels])
            if not weak.is_strict:
                orderings.insert(draw(st.integers(0, len(orderings))), weak)
        specs.append(DomainSpec.explicit(orderings))
    return ProbMechanism(env, table), tuple(specs), draw(st.sampled_from((None, None, 2, 3, 5)))


def dichotomy_examples():
    """Two BA cases the draws reach rarely: the mixed counterexample with its
    weak ordering listed after strict ones, and a mechanism with two point
    masses, whose tie at them gives a strict witness."""
    env, counterexample = build_mixed_counterexample()
    strict = tuple(itertools.islice(enumerate_strict_orderings(0, env.pairs_for(0)), 3))
    listed_weak = (DomainSpec.explicit((*strict, counterexample_preference())),)
    at_b1 = [Distribution({"z0": p, "z1": 1 - p}) for p in (Fraction(1, 4), Fraction(1, 2))]
    point = Distribution.point_mass("z0", env.outcomes)
    table = {("a0", "b0"): point, ("a1", "b0"): point}
    table.update({("a0", "b1"): at_b1[0], ("a1", "b1"): at_b1[1]})
    return [
        (counterexample, listed_weak + (DomainSpec(DomainKind.STRICT),), None),
        (ProbMechanism(env, table), DomainKind.STRICT, None),
    ]


@given(dichotomy_cases())
@example(dichotomy_examples()[0])
@example(dichotomy_examples()[1])
@settings(max_examples=80, deadline=None)
def test_dichotomy_settled_search_equals_the_pairwise_scan(case):
    # strict agents of completely mixed mechanisms are settled before the
    # scan; the pairwise scan over row sets settles nothing, so it checks
    # the verdict, the witness, the statistics and the cap's error
    mech, specs, cap = case
    expected = outcome_or_cap(
        lambda: pairwise_search_witness(mech.env, mech.dist_at, specs, fsd_relations, cap)
    )
    assert outcome_or_cap(lambda: search_prob_ba_witness(mech, specs, cap=cap)) == expected


def test_the_walk_start_is_asked_per_l_rival_value():
    # (x0, x1) ties at b0; b1 and b2 share the anchor's value and differ in
    # the l-rival's, which rules b1 out and lets b2 give the witness
    env = Environment.create((("x0", "x1"), ("b0", "b1", "b2")), ("z0", "z1"))
    low, half, high = (
        Distribution({"z0": Fraction(k, 2), "z1": Fraction(2 - k, 2)}) for k in range(3)
    )
    at_b = {"b0": (low, low), "b1": (low, half), "b2": (low, high)}
    mech = ProbMechanism(env, {(x, b): at_b[b][int(x[1])] for x, b in enumerate_profiles(env)})
    for kind in FULL_KINDS:
        result = search_prob_ba_witness(mech, kind)
        witness = result.witness
        assert (witness.r, witness.l) == ("x0", "x1")
        assert (witness.a_minus, witness.b_minus) == (("b0",), ("b2",))
        assert result == search_prob_ba_witness(mech, listed(env, kind))


@st.composite
def mixed_domain_cases(draw):
    """A probabilistic mechanism over up to six pairs per agent, its
    distributions from a palette as `prob_cases` draws it or from two totally
    mixed ones; per agent a full kind or an explicit domain; maybe a cap.
    Every agent has two actions or more, so each can tie."""
    env = draw(environments(6).filter(lambda env: min(map(len, env.actions)) > 1))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 999)))
        mixed = st.sampled_from([random_totally_mixed(env.outcomes, rng) for _ in range(2)])
        mech = ProbMechanism(env, {p: draw(mixed) for p in enumerate_profiles(env)})
    else:
        mech, _ = draw(prob_cases(False, env))
    kinds = st.sampled_from(FULL_KINDS)
    if draw(st.booleans()):
        specs = draw(kinds)
    else:
        explicit = draw(explicit_domains(env))
        specs = tuple(
            explicit[agent] if draw(st.booleans()) else DomainSpec(draw(kinds))
            for agent in range(env.n)
        )
    return mech, specs, draw(st.sampled_from((None, 3, 5)))


@given(mixed_domain_cases())
@settings(max_examples=80, deadline=None)
def test_prob_search_equals_the_search_over_listed_orderings(case):
    # the scan of listed orderings, over each full kind's orderings, as the oracle;
    # an agent past the cap keeps its kind, so it raises at the same tie
    mech, specs, cap = case
    expected = outcome_or_cap(
        lambda: search_prob_ba_witness(mech, listed(mech.env, specs, cap), cap=cap)
    )
    assert outcome_or_cap(lambda: search_prob_ba_witness(mech, specs, cap=cap)) == expected


@pytest.mark.parametrize("kind", FULL_KINDS, ids=lambda k: k.value)
def test_ordering_counts_are_the_domain_sizes(kind):
    # agent 0 has n pairs, one per action, and agent 1 has two
    rng = random.Random(7)
    for n in range(1, 7):
        env = Environment.create((tuple(f"x{k}" for k in range(n)), ("b0", "b1")), ("z",))
        constant = DetMechanism(env, {p: "z" for p in enumerate_profiles(env)})
        listed = domain_orderings(env, 0, DomainSpec(DomainKind.UNRESTRICTED))
        explicit = DomainSpec.explicit(rng.sample(listed, rng.randint(1, min(len(listed), 30))))
        for spec in (DomainSpec(kind), explicit):
            specs = (spec, DomainSpec(kind))
            counts = search_ba_witness(constant, specs).stats["orderings_per_agent"]
            built = [domain_rows(env, i, specs[i])[0] for i in range(env.n)]
            assert counts == [le[0][0].bit_length() for le in built]
        if n > 1:
            assert search._count(env, 0, DomainSpec(kind), n - 1) is None


def test_search_start_checks_do_not_wait_for_a_tie():
    env, constant, uniform = constant_3x3x2()
    for kind in FULL_KINDS:
        for cap in (-1, True, "3"):
            for run in (
                lambda: find_ba_witness(constant, kind, cap=cap),
                lambda: find_prob_ba_witness(uniform, kind, cap=cap),
            ):
                with pytest.raises(InvariantViolation, match="^cap must be None or an int >= 0"):
                    run()
    agent_1 = tuple(enumerate_weak_orderings(1, env.pairs_for(1)))[:3]
    short = Ordering.from_ranks(0, env.pairs_for(0)[1:], range(5))
    malformed = (
        (agent_1, "^ordering tagged for agent 1, expected 0$"),
        ((short,), "^partition incomplete$"),
    )
    for listed, message in malformed:
        specs = (DomainSpec.explicit(listed), DomainSpec(DomainKind.STRICT))
        for run in (
            lambda: find_ba_witness(constant, specs),
            lambda: find_prob_ba_witness(uniform, specs),
        ):
            with pytest.raises(InvariantViolation, match=message):
                run()
