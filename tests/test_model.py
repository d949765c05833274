import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exmech.errors import AgentOutOfRange, InvariantViolation, ParseError, UnknownPair
from exmech.model import (
    DomainSpec,
    Environment,
    Ordering,
    Relation,
    enumerate_profiles,
    env_from_json,
    env_to_json,
    full_profile,
    ordering_from_json,
    ordering_to_json,
    sub_profiles,
    witness_from_json,
)


def ordering_of(agent, *classes):
    return Ordering(agent, tuple(frozenset(cls) for cls in classes))


def test_compare_first_vs_last_class():
    ord_ = ordering_of(0, {("a", "z1")}, {("a", "z0"), ("b", "z1")}, {("b", "z0")})
    assert ord_.compare(("a", "z1"), ("b", "z0")) is Relation.PREFERRED
    assert ord_.compare(("b", "z0"), ("a", "z1")) is Relation.DISPREFERRED


def test_compare_same_class_indifferent():
    ord_ = ordering_of(0, {("a", "z1")}, {("a", "z0"), ("b", "z1")}, {("b", "z0")})
    assert ord_.compare(("a", "z0"), ("b", "z1")) is Relation.INDIFFERENT


def test_compare_counterexample_preference_top_class():
    ord_ = ordering_of(0, {("a0", "z1"), ("a1", "z0")}, {("a0", "z0"), ("a1", "z1")})
    assert ord_.compare(("a0", "z1"), ("a1", "z0")) is Relation.INDIFFERENT
    assert ord_.strictly_prefers(("a1", "z0"), ("a0", "z0"))


def test_compare_unknown_pair():
    ord_ = ordering_of(0, {("a", "z")})
    with pytest.raises(UnknownPair):
        ord_.compare(("a", "z"), ("b", "z"))


def test_ordering_rejects_empty_class_and_duplicates():
    with pytest.raises(InvariantViolation):
        Ordering(0, (frozenset(),))
    with pytest.raises(InvariantViolation):
        Ordering(0, (frozenset({("a", "z")}), frozenset({("a", "z")})))
    pairs = (("a", "x"), ("a", "y"))
    assert Ordering.from_ranks(0, pairs, [1, 0]) == ordering_of(0, {("a", "y")}, {("a", "x")})
    for ranks in ([0, -1], [0], [0, 1, 2], [0, 1.0], [0, True], [0, "1"]):
        with pytest.raises(InvariantViolation, match="not one int >= 0 per pair"):
            Ordering.from_ranks(0, pairs, ranks)


@pytest.mark.parametrize(
    "actions, outcomes",
    (
        ([(0, 1)], ("z",)),
        ([("a", 1)], ("z",)),
        ([("a",), (None,)], ("z",)),
        ([("a", "b")], (0, 1)),
        ([("a",)], ("z", ["y"])),
    ),
)
def test_environment_rejects_labels_that_are_not_strings(actions, outcomes):
    with pytest.raises(InvariantViolation, match="string"):
        Environment.create(actions, outcomes)


@pytest.mark.parametrize(
    "actions, outcomes",
    (
        (["yes"], ("z",)),
        ([("a",)], "xy"),
        ("ab", ("z",)),
        ([0], ("z",)),
        ([("a",)], 5),
        (7, ("z",)),
    ),
)
def test_environment_rejects_label_sequences_that_are_strings_or_not_iterable(actions, outcomes):
    with pytest.raises(InvariantViolation, match="must be a sequence, not"):
        Environment.create(actions, outcomes)
    with pytest.raises(InvariantViolation, match="must be a sequence, not"):
        Environment(actions, outcomes, (DomainSpec.unrestricted(),))


@pytest.mark.parametrize("domains", ("u", [None], ["unrestricted"], 5), ids=repr)
def test_environment_rejects_domains_that_are_not_domain_specs(domains):
    with pytest.raises(InvariantViolation):
        Environment.create([("a", "b")], ("z",), domains)


def test_domain_spec_rejects_a_kind_that_is_not_a_domain_kind():
    with pytest.raises(InvariantViolation, match="not a DomainKind"):
        DomainSpec("strict")


@pytest.mark.parametrize("pair", ("az", ("a", "z", "q"), ("a",), ("a", 1), (0, "z"), 5, None))
def test_ordering_rejects_pairs_that_are_not_two_strings(pair):
    with pytest.raises(InvariantViolation, match="not two string labels"):
        Ordering(0, (frozenset({pair}),))
    assert Ordering(0, ([["a", "z"]],)).classes == (frozenset({("a", "z")}),)


def test_is_strict():
    assert ordering_of(0, {("a", "z0")}, {("a", "z1")}).is_strict
    assert not ordering_of(0, {("a", "z0"), ("a", "z1")}).is_strict


def test_enumerate_profiles_small():
    env = Environment.create((("a", "b"), ("c",)), ("z",))
    assert list(enumerate_profiles(env)) == [("a", "c"), ("b", "c")]
    env = Environment.create((("a", "b"), ("c", "d")), ("z",))
    profiles = list(enumerate_profiles(env))
    assert len(profiles) == 4 and profiles[0] == ("a", "c")


def test_enumerate_profiles_referendum_count():
    env = Environment.create((("0", "r", "l"),) * 3, ("R", "L"))
    profiles = list(enumerate_profiles(env))
    # bijection onto the product: count equals the product of action-set sizes
    assert len(profiles) == 3 * 3 * 3 == 27
    assert len(set(profiles)) == 27


def test_sub_profiles():
    env = Environment.create((("a",), ("c", "d")), ("z",))
    assert list(sub_profiles(env, 0)) == [("c",), ("d",)]
    solo = Environment.create((("a", "b"),), ("z",))
    assert list(sub_profiles(solo, 0)) == [()]
    ref = Environment.create((("0", "r", "l"),) * 3, ("R", "L"))
    assert len(list(sub_profiles(ref, 1))) == 9
    with pytest.raises(AgentOutOfRange):
        sub_profiles(env, 2)


def test_full_profile_inserts_at_agent_position():
    assert full_profile(("x", "y"), 0, "me") == ("me", "x", "y")
    assert full_profile(("x", "y"), 1, "me") == ("x", "me", "y")
    assert full_profile(("x", "y"), 2, "me") == ("x", "y", "me")


def test_environment_validation():
    with pytest.raises(InvariantViolation):
        Environment.create((("a", "a"),), ("z",))
    with pytest.raises(InvariantViolation):
        Environment.create((("a",),), ("z", "z"))
    with pytest.raises(InvariantViolation):
        Environment.create(((),), ("z",))
    with pytest.raises(InvariantViolation):
        Environment((("a",),), ("z",), ())


def test_explicit_domain_must_partition():
    incomplete = ordering_of(0, {("a", "z0")})
    with pytest.raises(InvariantViolation, match="partition incomplete"):
        Environment.create(
            (("a",),), ("z0", "z1"), (DomainSpec.explicit((incomplete,)),)
        )


@st.composite
def ranked_partitions(draw):
    actions = ("a", "b")
    outcomes = ("x", "y")
    pairs = [(a, z) for a in actions for z in outcomes]
    perm = draw(st.permutations(pairs))
    breaks = draw(st.sets(st.integers(1, len(pairs) - 1)))
    cuts = [0, *sorted(breaks), len(pairs)]
    classes = tuple(frozenset(perm[i:j]) for i, j in zip(cuts, cuts[1:]) if i < j)
    return Ordering(0, classes)


@given(ranked_partitions())
@settings(max_examples=200)
def test_compare_is_complete_transitive_reflexive(ordering):
    pairs = sorted(ordering.pairs)
    for p in pairs:
        assert ordering.weakly_prefers(p, p)
    for p, q in itertools.product(pairs, repeat=2):
        assert ordering.weakly_prefers(p, q) or ordering.weakly_prefers(q, p)
    for p, q, r in itertools.product(pairs, repeat=3):
        if ordering.weakly_prefers(p, q) and ordering.weakly_prefers(q, r):
            assert ordering.weakly_prefers(p, r)


@given(ranked_partitions())
@settings(max_examples=100)
def test_ordering_json_round_trip_preserves_relation(ordering):
    rebuilt = ordering_from_json(0, ordering_to_json(ordering))
    for p, q in itertools.product(sorted(ordering.pairs), repeat=2):
        assert ordering.compare(p, q) is rebuilt.compare(p, q)


@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.integers(1, 3),
)
@settings(max_examples=50)
def test_profile_enumeration_is_bijection(sizes, n_outcomes):
    actions = tuple(tuple(f"a{i}_{k}" for k in range(s)) for i, s in enumerate(sizes))
    env = Environment.create(actions, tuple(f"z{k}" for k in range(n_outcomes)))
    profiles = list(enumerate_profiles(env))
    expected = 1
    for s in sizes:
        expected *= s
    assert len(profiles) == expected
    assert len(set(profiles)) == expected


def test_env_json_round_trip():
    explicit = ordering_of(1, {("c", "z0"), ("c", "z1")})
    env = Environment.create(
        (("a", "b"), ("c",)),
        ("z0", "z1"),
        (DomainSpec.strict(), DomainSpec.explicit((explicit,))),
    )
    assert env_from_json(env_to_json(env)) == env


WITNESS = {
    "agent": 0, "r": "1", "l": "0", "a_minus": ["0"], "b_minus": ["1"],
    "ordering": [[["0", "0"]], [["0", "1"], ["1", "0"], ["1", "1"]]],
}


@pytest.mark.parametrize(
    "key, value",
    (("r", 1), ("l", 0), ("a_minus", [0]), ("b_minus", [1]), ("a_minus", "0"),
     ("ordering", [[[0, 0]], [["0", "1"], ["1", "0"], ["1", "1"]]])),
)
def test_witness_from_json_rejects_labels_that_are_not_strings(key, value):
    assert witness_from_json(WITNESS).r == "1"
    with pytest.raises(ParseError):
        witness_from_json({**WITNESS, key: value})


@pytest.mark.parametrize("agent", (0.9, 1.5, True, False, "0", None, [0]), ids=repr)
def test_witness_from_json_rejects_agents_that_are_not_integers(agent):
    assert witness_from_json(WITNESS).agent == 0
    with pytest.raises(ParseError, match="agent must be a JSON integer"):
        witness_from_json({**WITNESS, "agent": agent})
