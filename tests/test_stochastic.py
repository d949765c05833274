import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exmech.domains import (
    domain_rank_vectors,
    enumerate_strict_orderings,
    enumerate_weak_orderings,
    first_ranks,
    indifferent_ordering,
)
from exmech.errors import (
    ActionsEqual,
    AgentMismatch,
    InvariantViolation,
    NotStrict,
    ParseError,
)
from exmech.model import (
    DomainKind,
    DomainSpec,
    Environment,
    Ordering,
    Value,
    enumerate_profiles,
    set_field,
)
from exmech.stochastic import (
    Distribution,
    DominanceBlock,
    Lottery,
    ProbMechanism,
    _chain_walk,
    _reached,
    _steps,
    best_outcome,
    build_mixed_counterexample,
    build_relative_frequency,
    counterexample_preference,
    dominance_dichotomy,
    find_prob_ba_witness,
    fsd,
    is_completely_mixed,
    is_totally_mixed,
    phi,
    prob_mech_from_json,
    prob_mech_to_json,
    random_completely_mixed_mechanism,
    random_totally_mixed,
    search_prob_ba_witness,
    validate_prob_witness,
)

from rowsets import (
    assert_relations_match,
    forward_chain,
    fsd_relations,
    full_rows,
    rank_table,
    repunit_steps,
    row_sets,
)
from test_search import altered

Z2 = ("z0", "z1")


def dist(p0, p1):
    return Distribution({"z0": Fraction(p0), "z1": Fraction(p1)})


def test_distribution_validation():
    with pytest.raises(InvariantViolation, match="must sum to 1"):
        Distribution({"z0": Fraction(1, 3), "z1": Fraction(1, 2)})
    with pytest.raises(InvariantViolation, match="negative"):
        Distribution({"z0": Fraction(3, 2), "z1": Fraction(-1, 2)})


def test_distribution_keys_are_not_coerced_to_labels():
    with pytest.raises(InvariantViolation, match="keys must be outcome labels"):
        Distribution({0: Fraction(1), 1: Fraction(0)})


def test_distribution_rejects_probabilities_that_are_not_finite_rationals():
    for bad in (float("nan"), float("inf"), -float("inf"), None, [1], "half", "1/0"):
        with pytest.raises(InvariantViolation, match="^probability of outcome 'z1' is not"):
            Distribution({"z0": Fraction(1), "z1": bad})
    # the keys are checked before any probability is read
    with pytest.raises(InvariantViolation, match="keys must be outcome labels"):
        Distribution({0: float("nan")})
    ok = Distribution({"z0": 0.25, "z1": "1/4", "z2": Fraction(1, 4), "z3": 0, "z4": "0.25"})
    assert ok.probs == {z: Fraction(1, 4) if z != "z3" else 0 for z in ok.probs}


def test_distribution_hash_agrees_with_equality():
    half = Distribution({"z0": "1/2", "z1": "1/2"})
    same = [
        Distribution({"z1": Fraction(2, 4), "z0": Fraction(1, 2)}),
        Distribution({"z0": Fraction(2, 4), "z1": 0.5}),
        Distribution.uniform(Z2),
    ]
    for other in same:
        assert other == half and hash(other) == hash(half)
    assert len({half, *same}) == 1
    different = [
        Distribution({"z0": Fraction(1, 3), "z1": Fraction(2, 3)}),
        Distribution({"z0": Fraction(1, 2), "z2": Fraction(1, 2)}),
        Distribution({"z0": Fraction(1, 2), "z1": Fraction(1, 2), "z2": Fraction(0)}),
    ]
    for other in different:
        assert other != half
    assert len({half, *different}) == 4
    # equal distributions from differently built fractions share one dict slot
    codes = {half: 0}
    assert all(codes[other] == 0 for other in same)


@st.composite
def probability_maps(draw):
    """Probabilities over some of three outcomes, zeros allowed, each written
    as a Fraction or a string; the space is small, so draws often agree."""
    outcomes = draw(st.lists(st.sampled_from(("z0", "z1", "z2")), min_size=1, unique=True))
    weights = draw(st.lists(st.integers(0, 2), min_size=len(outcomes), max_size=len(outcomes)))
    if not any(weights):
        weights[0] = 1
    form = draw(st.sampled_from((Fraction, str)))
    return {z: form(Fraction(w, sum(weights))) for z, w in zip(outcomes, weights)}


class Probs(Value):
    """Another value type with a distribution's one field."""

    _fields = ("probs",)

    def __init__(self, probs) -> None:
        set_field(self, "probs", probs)


@given(probability_maps(), probability_maps())
@settings(max_examples=300)
def test_distribution_equality_and_hash_are_those_of_the_probability_map(p, q):
    g, h = Distribution(p), Distribution(q)
    assert (g == h) == (dict(g.probs) == dict(h.probs)) == (not g != h)
    if g == h:
        assert hash(g) == hash(h)
    reordered = Distribution({z: str(v) for z, v in reversed(g.probs.items())})
    assert reordered == g and hash(reordered) == hash(g)
    for other in (Probs(g.probs), Lottery("a0", g), g.probs):
        assert g != other and other != g
    for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert clone == g and hash(clone) == hash(g) and (clone == h) == (g == h)


def test_distribution_sum_check_is_exact():
    Distribution({"z0": Fraction(1, 3), "z1": Fraction(1, 6), "z2": "1/2"})
    Distribution({"z0": 1, "z1": 0})
    for probs in (
        {"z0": Fraction(1, 3), "z1": Fraction(1, 3), "z2": Fraction(1, 3) + Fraction(1, 10**30)},
        {"z0": Fraction(1, 2)},
        {"z0": 0, "z1": 0},
    ):
        with pytest.raises(InvariantViolation, match="must sum to 1"):
            Distribution(probs)


def test_distribution_probs_are_read_only():
    source = {"z0": Fraction(1, 3), "z1": Fraction(2, 3)}
    d = Distribution(source)
    before = hash(d)
    source["z0"] = Fraction(5)  # the distribution keeps its own copy
    with pytest.raises(TypeError):
        d.probs["z0"] = Fraction(5)
    with pytest.raises(TypeError):
        del d.probs["z1"]
    assert d == Distribution({"z1": "2/3", "z0": "1/3"}) and hash(d) == before
    assert d["z0"] == Fraction(1, 3) and (d.scale, d.weights) == (3, (("z0", 1), ("z1", 2)))
    env = Environment.create((("a0",),), Z2)
    mech = ProbMechanism(env, {("a0",): d})
    assert prob_mech_from_json(env, prob_mech_to_json(mech)).dist(("a0",)) == d
    for clone in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert clone == d and hash(clone) == before and clone.weights == d.weights


def test_distribution_weights_skip_zero_mass():
    d = Distribution({"z0": Fraction(1, 4), "z1": 0, "z2": Fraction(3, 4)})
    assert (d.scale, d.weights) == (4, (("z0", 1), ("z2", 3)))
    assert Distribution.point_mass("z1", Z2).weights == (("z1", 1),)


def per_target_fsd(ordering, lhs, rhs):
    """`fsd` as the loop over target pairs, one `phi` per lottery per target."""
    strict = False
    for target in ordering._ranks:
        pl = phi(ordering, lhs, target)
        pr = phi(ordering, rhs, target)
        if pl < pr:
            return False
        if pl > pr:
            strict = True
    return strict


def test_fsd_equals_the_per_target_phi_loop():
    rng = random.Random(4)
    outcomes = ("z0", "z1", "z2")
    pairs = tuple((a, z) for a in ("a0", "a1") for z in outcomes)
    dists = [Distribution.point_mass(z, outcomes) for z in outcomes]
    dists.append(Distribution.uniform(outcomes))
    for _ in range(10):
        ks = [rng.randint(0, 3) for _ in outcomes]
        if any(ks):
            dists.append(Distribution({z: Fraction(k, sum(ks)) for z, k in zip(outcomes, ks)}))
    lotteries = [Lottery(a, d) for a in ("a0", "a1") for d in dists]
    orderings = list(enumerate_weak_orderings(0, pairs))
    verdicts = set()
    for ordering in rng.sample(orderings, 40):
        for lhs, rhs in itertools.product(lotteries, repeat=2):
            verdict = fsd(ordering, lhs, rhs)
            assert verdict == per_target_fsd(ordering, lhs, rhs)
            verdicts.add(verdict)
    assert verdicts == {False, True}


@st.composite
def fsd_cases(draw):
    """A weak or strict ordering of two actions' pairs, and two lotteries.

    Weights from 0 to 4 give distributions with zero entries and, through
    their totals, unequal denominators; both lotteries may share an action.
    """
    outcomes = ("z0", "z1", "z2")[: draw(st.integers(2, 3))]
    pairs = [(a, z) for a in ("a0", "a1") for z in outcomes]
    perm = draw(st.permutations(pairs))
    if draw(st.booleans()):
        breaks = set(range(1, len(pairs)))
    else:
        breaks = draw(st.sets(st.integers(1, len(pairs) - 1)))
    cuts = [0, *sorted(breaks), len(pairs)]
    ordering = Ordering(0, tuple(frozenset(perm[i:j]) for i, j in zip(cuts, cuts[1:])))
    weights = st.lists(st.integers(0, 4), min_size=len(outcomes), max_size=len(outcomes))
    lotteries = []
    for _ in range(2):
        ks = draw(weights.filter(any))
        probs = {z: Fraction(k, sum(ks)) for z, k in zip(outcomes, ks)}
        lotteries.append(Lottery(draw(st.sampled_from(("a0", "a1"))), Distribution(probs)))
    return ordering, *lotteries


@given(fsd_cases())
@settings(max_examples=400)
def test_integer_fsd_matches_the_phi_definition(case):
    ordering, lhs, rhs = case
    assert fsd(ordering, lhs, rhs) == per_target_fsd(ordering, lhs, rhs)


def test_fsd_agent_mismatch_only_for_pairs_with_mass():
    pref = counterexample_preference()
    known = Lottery("a0", dist(Fraction(1, 2), Fraction(1, 2)))
    for lhs, rhs in ((Lottery("c0", dist(1, 0)), known), (known, Lottery("c0", dist(0, 1)))):
        with pytest.raises(AgentMismatch, match="^pair \\('c0', 'z[01]'\\) is not in the"):
            fsd(pref, lhs, rhs)
        with pytest.raises(AgentMismatch):
            per_target_fsd(pref, lhs, rhs)
    # a zero-probability pair is never ranked, as in `phi`
    outside = Lottery("a0", Distribution({"z0": 1, "z1": 0, "z9": 0}))
    assert fsd(pref, outside, known) == per_target_fsd(pref, outside, known)


def test_totally_mixed():
    assert is_totally_mixed(Distribution.uniform(Z2))
    assert not is_totally_mixed(Distribution.point_mass("z0", Z2))


def test_phi_counterexample_values():
    _, mech = build_mixed_counterexample()
    pref = counterexample_preference()
    lot_a0 = Lottery("a0", mech.dist(("a0", "b0")))
    lot_a1 = Lottery("a1", mech.dist(("a1", "b0")))
    assert phi(pref, lot_a0, ("a0", "z1")) == Fraction(2, 3)
    assert phi(pref, lot_a1, ("a0", "z1")) == Fraction(1, 3)
    # the worst pair is weakly below everything, so its contour has mass one
    assert phi(pref, lot_a0, ("a0", "z0")) == 1
    assert phi(pref, lot_a1, ("a1", "z1")) == 1


def test_phi_agent_mismatch():
    pref = counterexample_preference()
    lot = Lottery("c0", dist(1, 0))
    with pytest.raises(AgentMismatch):
        phi(pref, lot, ("a0", "z0"))
    with pytest.raises(AgentMismatch):
        phi(pref, Lottery("a0", dist(1, 0)), ("c0", "z0"))


def test_fsd_counterexample_directions():
    _, mech = build_mixed_counterexample()
    pref = counterexample_preference()
    assert fsd(
        pref,
        Lottery("a0", mech.dist(("a0", "b0"))),
        Lottery("a1", mech.dist(("a1", "b0"))),
    )
    assert fsd(
        pref,
        Lottery("a1", mech.dist(("a1", "b1"))),
        Lottery("a0", mech.dist(("a0", "b1"))),
    )


def test_fsd_irreflexive_and_asymmetric():
    pairs = tuple((a, z) for a in ("a0", "a1") for z in Z2)
    dists = (dist(1, 0), dist(Fraction(1, 3), Fraction(2, 3)), dist(Fraction(1, 2), Fraction(1, 2)))
    for ordering in enumerate_weak_orderings(0, pairs):
        for action, d in itertools.product(("a0", "a1"), dists):
            assert not fsd(ordering, Lottery(action, d), Lottery(action, d))
        for (x, dx), (y, dy) in itertools.combinations(
            itertools.product(("a0", "a1"), dists), 2
        ):
            lhs, rhs = Lottery(x, dx), Lottery(y, dy)
            assert not (fsd(ordering, lhs, rhs) and fsd(ordering, rhs, lhs))


def test_phi_weakly_decreasing_in_target():
    pairs = tuple((a, z) for a in ("a0", "a1") for z in Z2)
    lot = Lottery("a0", dist(Fraction(1, 4), Fraction(3, 4)))
    for ordering in enumerate_weak_orderings(0, pairs):
        values = [phi(ordering, lot, target) for target in sorted(pairs, key=ordering.rank)]
        assert all(a <= b for a, b in zip(values, values[1:]))


# Distributions per outcome count: point masses, zero entries, and
# denominators 2, 3 and 4 side by side.
PALETTES = {
    1: [("1",)],
    2: [("1", "0"), ("0", "1"), ("1/2", "1/2"), ("1/3", "2/3"), ("3/4", "1/4")],
    3: [("1", "0", "0"), ("0", "1", "0"), ("1/3", "1/3", "1/3"), ("1/4", "0", "3/4"),
        ("0", "2/3", "1/3"), ("1/2", "1/4", "1/4")],
    4: [("0", "0", "0", "1"), ("1/4", "1/4", "1/4", "1/4"), ("1/3", "0", "1/3", "1/3"),
        ("1/2", "1/4", "0", "1/4"), ("0", "2/3", "0", "1/3")],
}


def assert_fsd_relations_match(env, agent, table, orderings, dists=None):
    """The FSD row-set relation equals `fsd`, the comparison the search and
    `validate_prob_witness` take for (ii) and (iii), on every row.

    Every ordered pair of lotteries over `dists` (by default the palette of
    the outcome count) is compared, equal ones and same-action ones
    included.  Returns the set of verdicts seen.
    """
    index = {pair: k for k, pair in enumerate(env.pairs_for(agent))}
    if dists is None:
        dists = [
            Distribution({z: Fraction(p) for z, p in zip(env.outcomes, row)})
            for row in PALETTES[len(env.outcomes)]
        ]
    lotteries = [(x, d) for x in env.actions[agent] for d in dists]
    comparisons = list(itertools.product(lotteries, repeat=2))
    le = row_sets(table, len(index))
    reference = (fsd, fsd)
    return assert_relations_match(fsd_relations, reference, index, le, orderings, comparisons)


@pytest.mark.parametrize("kind", (DomainKind.UNRESTRICTED, DomainKind.STRICT, DomainKind.WEAK_ONLY))
@pytest.mark.parametrize(
    "shape",
    ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1)),
    ids=lambda shape: "{}x{}".format(*shape),
)
def test_fsd_kernel_matches_reference_on_rank_tables(kind, shape):
    n_actions, n_outcomes = shape
    env = Environment.create(
        (tuple(f"a{i}" for i in range(n_actions)), ("b0",)),
        tuple(f"z{j}" for j in range(n_outcomes)),
    )
    pairs = env.pairs_for(0)
    table = rank_table(len(pairs), kind)
    orderings = [Ordering.from_ranks(0, pairs, rv) for rv in table]
    assert_fsd_relations_match(env, 0, table, orderings)


def test_fsd_kernel_matches_reference_on_explicit_rows():
    env, _ = build_mixed_counterexample()
    pairs = env.pairs_for(0)
    orderings = [
        counterexample_preference(),
        indifferent_ordering(0, env.actions[0], env.outcomes),
        Ordering(0, (frozenset({("a1", "z1")}), frozenset(pairs) - {("a1", "z1")})),
    ]
    table = domain_rank_vectors(env, 0, DomainSpec.explicit(orderings))
    assert_fsd_relations_match(env, 0, table, orderings)


def mixed_agent(n_outcomes):
    return Environment.create(
        (("a0", "a1"), ("b0",)), tuple(f"z{j}" for j in range(n_outcomes))
    )


@pytest.mark.parametrize("kind, rows", ((DomainKind.STRICT, None), (DomainKind.UNRESTRICTED, 300)))
def test_fsd_kernel_matches_reference_on_six_pair_support(kind, rows):
    env = mixed_agent(3)
    rng = random.Random(6)
    table = rank_table(6, kind)
    if rows is not None:
        table = tuple(rng.sample(table, rows))
    orderings = [Ordering.from_ranks(0, env.pairs_for(0), rv) for rv in table]
    dists = [random_totally_mixed(env.outcomes, rng) for _ in range(2)]
    assert assert_fsd_relations_match(env, 0, table, orderings, dists) == {False, True}


def test_fsd_kernel_matches_reference_on_twenty_four_pair_support():
    # 24 mass-carrying pairs: enumerating subsets of the support would not finish
    env = mixed_agent(12)
    rng = random.Random(24)
    pairs = env.pairs_for(0)
    dists = [random_totally_mixed(env.outcomes, rng) for _ in range(3)]
    a0, a1 = ([p for p in pairs if p[0] == x] for x in env.actions[0])
    # a0 pairs by decreasing likelihood ratio of dists[0] over dists[1], so
    # that ("a0", dists[0]) dominates ("a0", dists[1]) within one action
    def ratio(pair):
        return dists[1][pair[1]] / dists[0][pair[1]]

    by_ratio = [frozenset(g) for _, g in itertools.groupby(sorted(a0, key=ratio), key=ratio)]
    orderings = [
        Ordering(0, (frozenset(a0), frozenset(a1))),
        Ordering(0, (frozenset(a1), frozenset(a0))),
        Ordering(0, (*by_ratio, frozenset(a1))),
        indifferent_ordering(0, env.actions[0], env.outcomes),
    ]
    for _ in range(3):
        shuffled = rng.sample(pairs, len(pairs))
        cuts = sorted(rng.sample(range(1, len(pairs)), rng.randint(1, len(pairs) - 1)))
        bounds = zip([0] + cuts, cuts + [len(pairs)])
        orderings.append(Ordering(0, tuple(frozenset(shuffled[i:j]) for i, j in bounds)))
    assert fsd(orderings[2], Lottery("a0", dists[0]), Lottery("a0", dists[1]))
    table = domain_rank_vectors(env, 0, DomainSpec.explicit(orderings))
    assert assert_fsd_relations_match(env, 0, table, orderings, dists) == {False, True}


# --- the chain test against the rows that survive ---------------------------

FULL_KINDS = (DomainKind.UNRESTRICTED, DomainKind.STRICT, DomainKind.WEAK_ONLY)


def chain_shapes(kind):
    """(actions, outcomes) per agent: at most six pairs, eight under `strict`.
    One outcome, and two actions, which leave `weak_only` no spare pair."""
    shapes = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (6, 1)]
    return shapes + [(2, 4), (4, 2)] if kind is DomainKind.STRICT else shapes


def assert_chain_test_matches_rows(kind, n_actions, n_outcomes, tied, at_b, ri, li):
    """The walk with masses for (tied, each action's value at b) against the rows.

    Its start must give a state exactly when some row of the full domain
    survives (ii) and then (iii) against every rival, each action's value at
    b being `at_b[action index]`; the walk must then end at the first such
    row, whose ordering `fsd` must accept.  The row-set relation is pinned to
    `fsd` row by row in `test_fsd_kernel_matches_reference_on_rank_tables`.
    """
    actions = tuple(f"x{k}" for k in range(n_actions))
    pairs = [(x, z) for x in actions for z in (f"z{j}" for j in range(n_outcomes))]
    index = {pair: c for c, pair in enumerate(pairs)}
    table, le = full_rows(len(pairs), kind)
    beats_ii, beats_iii = fsd_relations(index, le)
    r, l = actions[ri], actions[li]
    rows = beats_ii((l, tied), (r, tied), le[0][0])
    for x, value in zip(actions, at_b):
        if x != r and rows:
            rows = beats_iii((r, at_b[ri]), (x, value), rows)
    start, below = _chain_walk(index, kind)
    values = dict(zip(actions, at_b))
    state = start(r, l, tied, values, (tied, values[r], values[l]))
    assert (state is not None) == bool(rows)
    if rows:
        ranks = first_ranks(len(pairs), state, kind, below)
        assert tuple(ranks) == table[(rows & -rows).bit_length() - 1]
        ordering = Ordering.from_ranks(0, pairs, ranks)
        assert fsd(ordering, Lottery(l, tied), Lottery(r, tied))
        for x in actions:
            if x != r:
                assert fsd(ordering, Lottery(r, values[r]), Lottery(x, values[x]))
    return bool(rows)


@pytest.mark.parametrize("kind", FULL_KINDS, ids=lambda k: k.value)
def test_chain_test_equals_brute_existence(kind):
    # per shape, a palette of point masses, the uniform distribution and
    # random rationals with zero-probability outcomes; every tuple of the
    # tied value and each action's value at b, with every (r, l), or 300 of them
    rng = random.Random(23)
    answers = []
    for n_actions, n_outcomes in chain_shapes(kind):
        outcomes = tuple(f"z{j}" for j in range(n_outcomes))
        palette = {Distribution.point_mass(z, outcomes) for z in outcomes}
        palette.add(Distribution.uniform(outcomes))
        for _ in range(3):
            ks = [rng.choice((0, 0, 1, 2, 5)) for _ in outcomes]
            ks[rng.randrange(n_outcomes)] += 1
            palette.add(Distribution({z: Fraction(k, sum(ks)) for z, k in zip(outcomes, ks)}))
        palette = sorted(palette, key=lambda d: d.weights)
        tuples = list(
            itertools.product(
                itertools.product(palette, repeat=n_actions + 1),
                itertools.permutations(range(n_actions), 2),
            )
        )
        for (tied, *at_b), (ri, li) in rng.sample(tuples, min(len(tuples), 300)):
            answers.append(
                assert_chain_test_matches_rows(kind, n_actions, n_outcomes, tied, at_b, ri, li)
            )
    assert True in answers and False in answers


@st.composite
def chain_tuples(draw):
    """A full kind, a shape it allows, and random rationals with zeros for the
    tied value and each action's value at b, with r != l."""
    kind = draw(st.sampled_from(FULL_KINDS))
    n_actions, n_outcomes = draw(st.sampled_from(chain_shapes(kind)))
    outcomes = tuple(f"z{j}" for j in range(n_outcomes))
    weights = st.lists(st.integers(0, 4), min_size=n_outcomes, max_size=n_outcomes).filter(any)
    tied, *at_b = (
        Distribution({z: Fraction(k, sum(ks)) for z, k in zip(outcomes, ks)})
        for ks in draw(st.lists(weights, min_size=n_actions + 1, max_size=n_actions + 1))
    )
    ri, li = draw(st.permutations(range(n_actions)))[:2]
    return kind, n_actions, n_outcomes, tied, at_b, ri, li


@given(chain_tuples())
@settings(max_examples=200, deadline=None)
def test_chain_test_equals_brute_existence_on_random_tuples(case):
    assert_chain_test_matches_rows(*case)


@st.composite
def chain_masks(draw):
    """m <= 4, random valid points holding the end (a dense or a sparse draw),
    the two needs within them, and the step rule."""
    m = draw(st.integers(1, 4))
    points = 1 << 2 * m
    bits = st.integers(0, (1 << points) - 1)
    valid = draw(bits) & (draw(bits) if draw(st.booleans()) else -1) | 1 << points - 1
    return m, valid, draw(bits) & valid, draw(bits) & valid, draw(st.booleans())


@given(chain_masks())
@settings(max_examples=150, deadline=None)
def test_backward_reach_equals_the_forward_chain_test(case):
    # at every valid point and for each set of unmet needs, one bit of the
    # backward sets answers the forward reach through the needs in every order
    m, valid, a_more, b_more, strict = case
    steps = _steps(m)
    assert list(steps) == repunit_steps(m)
    reached = _reached(valid, a_more, b_more, steps, strict)
    for point in range(1 << 2 * m):
        if valid >> point & 1:
            for unmet in range(4):
                needs = [need for bit, need in ((1, a_more), (2, b_more)) if unmet & bit]
                assert reached[unmet] >> point & 1 == forward_chain(m, valid, needs, point, strict)


def test_search_is_the_same_on_shared_and_fresh_equal_distributions():
    # the walk memoizes by the search's value codes: a mechanism whose equal
    # distributions are one object and its copy with a fresh object at every
    # profile give the same witnesses and stats under every full kind
    rng = random.Random(37)
    answers = set()
    for actions, n_outcomes in ((("a0", "a1", "a2"), 2), (("a0", "a1"), 3), (("a0", "a1"), 2)):
        outcomes = tuple(f"z{j}" for j in range(n_outcomes))
        env = Environment.create((actions, ("b0", "b1", "b2")), outcomes)
        for _ in range(12):
            palette = []
            for _ in range(rng.randint(2, 4)):
                ks = [rng.choice((0, 1, 1, 2, 3)) for _ in outcomes]
                ks[rng.randrange(n_outcomes)] += 1
                probs = {z: Fraction(k, sum(ks)) for z, k in zip(outcomes, ks)}
                palette.append(Distribution(probs))
            shared = {p: rng.choice(palette) for p in enumerate_profiles(env)}
            fresh = {p: Distribution(dict(d.probs)) for p, d in shared.items()}
            assert all(fresh[p] is not d and fresh[p] == d for p, d in shared.items())
            for kind in FULL_KINDS:  # a cap over the second agent's 9 pairs, if it has them
                result = search_prob_ba_witness(ProbMechanism(env, shared), kind, cap=9)
                assert search_prob_ba_witness(ProbMechanism(env, fresh), kind, cap=9) == result
                answers.add(result.witness is None)
    assert answers == {False, True}


def test_the_walk_memo_tells_tied_values_apart():
    # r = x0 and l = x1 tie at b0 on a point mass and at b1 on (1/3, 2/3);
    # at b2 the anchor's and the l-rival's values are the same for both tied
    # values, and only the second completes a chain there: a memo that
    # forgot the tied value would carry the first's rejection over
    env = Environment.create((("x0", "x1"), ("b0", "b1", "b2")), Z2)
    point, third = dist(0, 1), dist("1/3", "2/3")
    at = {"b0": (point, point), "b1": (third, third), "b2": (point, dist("1/2", "1/2"))}
    mech = ProbMechanism(env, {(x, b): at[b][int(x[1])] for x, b in enumerate_profiles(env)})
    witness = find_prob_ba_witness(mech, DomainKind.UNRESTRICTED)
    assert (witness.agent, witness.r, witness.l) == (0, "x0", "x1")
    assert (witness.a_minus, witness.b_minus) == (("b1",), ("b2",))
    validate_prob_witness(mech, witness, DomainKind.UNRESTRICTED)


def test_chain_test_rejects_totally_mixed_strict_tuples_at_the_first_step():
    # the dominance dichotomy: with A and B_l totally mixed, an r-step breaks
    # (ii) and an l-step (iii), whatever B_r is
    index = {(x, z): c for c, (x, z) in enumerate(itertools.product(("x0", "x1"), Z2))}
    start, _ = _chain_walk(index, DomainKind.STRICT)
    mixed = dist("1/3", "2/3")
    for b in (dist(1, 0), dist(0, 1), mixed):
        assert start("x0", "x1", mixed, {"x0": b, "x1": mixed}, (mixed, b, mixed)) is None
    # the mixed counterexample's witness tuple, totally mixed, passes only off `strict`
    _, mech = build_mixed_counterexample()
    witness = find_prob_ba_witness(mech, DomainKind.WEAK_ONLY)
    agent, r, l, a, b = witness.agent, witness.r, witness.l, witness.a_minus, witness.b_minus
    index = {pair: c for c, pair in enumerate(mech.env.pairs_for(agent))}
    tied = mech.dist_at(agent, r, a)
    at_b = {x: mech.dist_at(agent, x, b) for x in mech.env.actions[agent]}
    assert all(is_totally_mixed(value) for value in (tied, *at_b.values()))
    key = (tied, at_b[r], at_b[l])
    found = [_chain_walk(index, kind)[0](r, l, tied, at_b, key) is not None for kind in FULL_KINDS]
    assert found == [True, False, True]


def test_the_walk_refuses_a_head_that_leaves_a_rival_unbeatable():
    # r's and x2's whole masses share the first class, so no later class can
    # put r's lottery strictly above x2's; r's pair alone on top beats x2
    index = {(x, z): c for c, (x, z) in enumerate(itertools.product(("x0", "x1", "x2"), Z2))}
    start, below = _chain_walk(index, DomainKind.UNRESTRICTED)
    at_b = {"x0": dist(1, 0), "x1": dist(0, 1), "x2": dist(1, 0)}
    state = start("x0", "x1", dist(0, 1), at_b, (dist(0, 1), at_b["x0"], at_b["x1"]))
    assert state is not None
    assert below((0, 4), state, 4, DomainKind.UNRESTRICTED) is None
    assert below((0,), state, 5, DomainKind.UNRESTRICTED) is not None


def test_completely_mixed_mechanism_predicate():
    _, mech = build_mixed_counterexample()
    assert is_completely_mixed(mech)
    env = Environment.create((("a0", "a1"), ("b0", "b1")), Z2)
    table = {p: Distribution.point_mass("z0", Z2) for p in enumerate_profiles(env)}
    assert not is_completely_mixed(ProbMechanism(env, table))
    # one zero-probability outcome at one profile is enough; the constructor
    # records the answer outside the fields, so equality and the repr ignore
    # it, and a pickle or copy, which runs the constructor, records it again
    table = dict(mech.table)
    table[("a1", "b1")] = Distribution({"z0": Fraction(1), "z1": Fraction(0)})
    partly = ProbMechanism(mech.env, table)
    for value, mixed in ((mech, True), (partly, False)):
        for clone in (value, pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert is_completely_mixed(clone) is mixed
            assert clone == value and repr(clone) == repr(value)
    assert "_completely_mixed" not in repr(partly)


def test_mixed_counterexample_rows():
    _, mech = build_mixed_counterexample()
    assert mech.dist(("a0", "b0")) == mech.dist(("a1", "b0"))
    assert mech.dist(("a1", "b1"))["z0"] == Fraction(3, 4)
    assert mech.dist(("a0", "b1")) == dist(Fraction(1, 2), Fraction(1, 2))


def test_find_prob_witness_counterexample():
    env, mech = build_mixed_counterexample()
    domains = (
        DomainSpec.explicit((counterexample_preference(),)),
        DomainSpec.explicit((indifferent_ordering(1, env.actions[1], env.outcomes),)),
    )
    witness = find_prob_ba_witness(mech, domains)
    assert witness is not None
    assert (witness.r, witness.l, witness.a_minus, witness.b_minus) == (
        "a1",
        "a0",
        ("b0",),
        ("b1",),
    )
    validate_prob_witness(mech, witness)


def test_validate_prob_witness_checks_domain_membership():
    _, mech = build_mixed_counterexample()
    witness = find_prob_ba_witness(mech, DomainKind.WEAK_ONLY)
    validate_prob_witness(mech, witness, DomainSpec.weak_only())
    with pytest.raises(InvariantViolation, match="outside the strict domain"):
        validate_prob_witness(mech, witness, DomainSpec.strict())
    others = [o for o in enumerate_weak_orderings(0, witness.ordering.pairs) if o != witness.ordering]
    with pytest.raises(InvariantViolation, match="not one of the explicit domain's orderings"):
        validate_prob_witness(mech, witness, DomainSpec.explicit(others))
    validate_prob_witness(mech, witness, DomainSpec.explicit(others + [witness.ordering]))
    strict = altered(
        witness, ordering=next(enumerate_strict_orderings(0, sorted(witness.ordering.pairs)))
    )
    with pytest.raises(InvariantViolation, match="outside the weak-only domain"):
        validate_prob_witness(mech, strict, DomainSpec.weak_only())


def test_prob_mech_from_json_rejects_numeric_profile_labels():
    env = Environment.create((("0", "1"), ("0", "1")), Z2)
    data = {
        "profiles": [[0, 0], [0, 1], [1, 0], [1, 1]],
        "distributions": [["1", "0"]] * 4,
    }
    with pytest.raises(ParseError, match="labels must be strings"):
        prob_mech_from_json(env, data)


def test_relative_frequency_rows():
    def cdist(p1, p2):
        return Distribution({"1": Fraction(p1), "2": Fraction(p2)})

    _, mech = build_relative_frequency(2, 2)
    assert mech.dist(("1", "2")) == cdist(Fraction(1, 2), Fraction(1, 2))
    assert mech.dist(("1", "1")) == cdist(1, 0)
    _, mech3 = build_relative_frequency(3, 2)
    assert mech3.dist(("1", "1", "2")) == cdist(Fraction(2, 3), Fraction(1, 3))


def test_relative_frequency_no_witness_under_strict():
    _, mech = build_relative_frequency(2, 2)
    assert find_prob_ba_witness(mech, DomainKind.STRICT) is None


def test_random_totally_mixed_shares_each_weight_vector():
    """The same rng calls and distributions as a fresh construction per draw."""

    def fresh(outcomes, rng):
        ks = [rng.randint(1, 11) for _ in outcomes]
        total = sum(ks)
        return tuple(ks), Distribution({z: Fraction(k, total) for z, k in zip(outcomes, ks)})

    for outcomes in (Z2, ("z0", "z1", "z2")):
        rng, reference = random.Random(5), random.Random(5)
        drawn = [random_totally_mixed(outcomes, rng) for _ in range(300)]
        expected = [fresh(outcomes, reference) for _ in range(300)]
        assert rng.getstate() == reference.getstate()
        assert drawn == [d for _, d in expected]
        first = {}
        for d, (ks, _) in zip(drawn, expected):
            assert first.setdefault(ks, d) is d


def test_random_mixed_mechanisms_have_no_strict_witness():
    rng = random.Random(7)
    env = Environment.create((("a0", "a1"), ("b0", "b1")), Z2)
    for _ in range(25):
        mech = random_completely_mixed_mechanism(env, rng)
        assert is_completely_mixed(mech)
        assert find_prob_ba_witness(mech, DomainKind.STRICT) is None


def test_strictness_is_what_protects_the_counterexample():
    # rows (a0,b0) and (a1,b0) tie, so condition (i) holds and the strict
    # sweep genuinely exhausts the dominance checks -- and survives; dropping
    # strictness lets a two-class ordering certify the anomaly
    _, mech = build_mixed_counterexample()
    assert find_prob_ba_witness(mech, DomainKind.STRICT) is None
    for kind in (DomainKind.WEAK_ONLY, DomainKind.UNRESTRICTED):
        witness = find_prob_ba_witness(mech, kind)
        assert witness is not None
        validate_prob_witness(mech, witness)


def strict_orderings_2x2():
    pairs = tuple((a, z) for a in ("a0", "a1") for z in Z2)
    return list(enumerate_strict_orderings(0, pairs))


def test_dichotomy_global_top():
    top_r = strict_orderings_2x2()[0]  # first permutation puts (a0, z0) on top
    assert best_outcome(top_r, "a0") == "z0"
    assert dominance_dichotomy(top_r, "a0", "a1") is DominanceBlock.R_TOP
    assert dominance_dichotomy(top_r, "a1", "a0") is DominanceBlock.L_TOP


def test_dichotomy_errors():
    ordering = counterexample_preference()
    with pytest.raises(NotStrict):
        dominance_dichotomy(ordering, "a0", "a1")
    top_r = strict_orderings_2x2()[0]
    with pytest.raises(ActionsEqual):
        dominance_dichotomy(top_r, "a0", "a0")


def test_dichotomy_blocks_dominance_on_samples():
    rng = random.Random(11)
    for ordering in strict_orderings_2x2():
        for r, l in itertools.permutations(("a0", "a1"), 2):
            verdict = dominance_dichotomy(ordering, r, l)
            zr = best_outcome(ordering, r)
            for _ in range(20):
                g = random_totally_mixed(Z2, rng)
                h = random_totally_mixed(Z2, rng)
                if verdict is DominanceBlock.R_TOP:
                    # contour mass at the top pair of r stays positive for
                    # r-lotteries and is zero for l-lotteries
                    assert phi(ordering, Lottery(r, h), (r, zr)) > 0
                    assert phi(ordering, Lottery(l, g), (r, zr)) == 0
                    assert not fsd(ordering, Lottery(l, g), Lottery(r, h))
                    assert not fsd(ordering, Lottery(l, h), Lottery(r, g))
                else:
                    assert not fsd(ordering, Lottery(r, g), Lottery(l, h))
                    assert not fsd(ordering, Lottery(r, h), Lottery(l, g))


def test_prob_mech_json_round_trip():
    env, mech = build_mixed_counterexample()
    rebuilt = prob_mech_from_json(env, prob_mech_to_json(mech))
    assert rebuilt == mech


def test_prob_mech_requires_full_support_vectors():
    env = Environment.create((("a0", "a1"), ("b0", "b1")), Z2)
    short = {p: Distribution({"z0": Fraction(1)}) for p in enumerate_profiles(env)}
    with pytest.raises(InvariantViolation, match="cover every outcome"):
        ProbMechanism(env, short)
