import copy
import inspect
import itertools
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exmech import domains
from exmech.cli import AnalysisReport
from exmech.deterministic import (
    Condition1Violation,
    DetMechanism,
    build_groves_queueing,
    build_majority_referendum,
    find_ba_witness,
    validate_witness,
)
from exmech.domains import SeparabilityViolation, build_queueing_pref_1, indifferent_ordering
from exmech.errors import AgentOutOfRange, InvariantViolation, ParseError, UnknownPair
from exmech.model import (
    BAWitness,
    DomainKind,
    DomainSpec,
    Environment,
    Ordering,
    enumerate_profiles,
    env_from_json,
    env_to_json,
    full_profile,
    ordering_from_json,
    ordering_to_json,
    sub_profiles,
    validate_explicit_domain,
    witness_from_json,
)
from exmech.queueing import QueueingOutcome, QueueingParams
from exmech.search import SearchResult
from exmech.stochastic import (
    Distribution,
    Lottery,
    ProbMechanism,
    build_mixed_counterexample,
    find_prob_ba_witness,
)
from exmech.verify import ClaimResult

SRC = Path(__file__).resolve().parent.parent / "src"


def ordering_of(agent, *classes):
    return Ordering(agent, tuple(frozenset(cls) for cls in classes))


def test_compare_first_vs_last_class():
    ord_ = ordering_of(0, {("a", "z1")}, {("a", "z0"), ("b", "z1")}, {("b", "z0")})
    assert (ord_.rank(("a", "z1")), ord_.rank(("b", "z0"))) == (0, 2)
    assert ord_.strictly_prefers(("a", "z1"), ("b", "z0"))
    assert not ord_.strictly_prefers(("b", "z0"), ("a", "z1"))
    assert not ord_.indifferent(("a", "z1"), ("b", "z0"))


def test_compare_same_class_indifferent():
    ord_ = ordering_of(0, {("a", "z1")}, {("a", "z0"), ("b", "z1")}, {("b", "z0")})
    assert ord_.rank(("a", "z0")) == ord_.rank(("b", "z1")) == 1
    assert ord_.indifferent(("a", "z0"), ("b", "z1"))
    assert not ord_.strictly_prefers(("a", "z0"), ("b", "z1"))
    assert not ord_.strictly_prefers(("b", "z1"), ("a", "z0"))


def test_compare_counterexample_preference_top_class():
    ord_ = ordering_of(0, {("a0", "z1"), ("a1", "z0")}, {("a0", "z0"), ("a1", "z1")})
    assert ord_.indifferent(("a0", "z1"), ("a1", "z0"))
    assert ord_.strictly_prefers(("a1", "z0"), ("a0", "z0"))


def test_compare_unknown_pair():
    ord_ = ordering_of(0, {("a", "z")})
    for ask in (ord_.strictly_prefers, ord_.weakly_prefers, ord_.indifferent):
        with pytest.raises(UnknownPair):
            ask(("a", "z"), ("b", "z"))
    with pytest.raises(UnknownPair):
        ord_.rank(("b", "z"))


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
    for p in ordering.pairs:
        assert rebuilt.rank(p) == ordering.rank(p)
    for p, q in itertools.product(sorted(ordering.pairs), repeat=2):
        assert rebuilt.strictly_prefers(p, q) is ordering.strictly_prefers(p, q)
        assert rebuilt.indifferent(p, q) is ordering.indifferent(p, q)


def orderings_from_the_library():
    """Orderings that builders and searches make, one per constructor path."""
    params = QueueingParams(Fraction(1, 2), Fraction(1, 4), (Fraction(0), Fraction(1, 2)))
    groves_env, _ = build_groves_queueing(params)
    _, referendum = build_majority_referendum(1)
    return (
        build_queueing_pref_1(params, groves_env),
        indifferent_ordering(1, ("a", "b"), ("x", "y")),
        find_ba_witness(referendum, "weak_only").ordering,
        find_prob_ba_witness(build_mixed_counterexample()[1], "weak_only").ordering,
    )


LIBRARY_ORDERINGS = orderings_from_the_library()


def pickle_round_trip(value):
    return pickle.loads(pickle.dumps(value))


def assert_records_the_union_of_its_classes(original):
    union = frozenset().union(*original.classes)
    copies = (f(original) for f in (pickle_round_trip, copy.copy, copy.deepcopy))
    for value in (original, *copies):
        assert type(value.pairs) is frozenset and value.pairs == union
        assert value.is_strict is all(len(cls) == 1 for cls in value.classes)


@given(ranked_partitions())
@settings(max_examples=100)
def test_an_ordering_records_the_union_of_its_classes(ordering):
    pairs = sorted(ordering.pairs)
    for made in (
        ordering,
        Ordering.from_ranks(0, pairs, [ordering.rank(p) for p in pairs]),
        ordering_from_json(0, ordering_to_json(ordering)),
        next(o for o in domains.orderings(DomainKind.UNRESTRICTED, 0, pairs) if o == ordering),
    ):
        assert_records_the_union_of_its_classes(made)


@pytest.mark.parametrize(
    "ordering", LIBRARY_ORDERINGS, ids=["queueing", "indifferent", "det_witness", "prob_witness"]
)
def test_a_library_ordering_records_the_union_of_its_classes(ordering):
    assert_records_the_union_of_its_classes(ordering)


MALFORMED = (
    (lambda: Ordering("x", TOP), "ordering agent must be an int >= 0, not 'x'"),
    (lambda: Ordering(True, TOP), "ordering agent must be an int >= 0, not True"),
    (lambda: Ordering(-1, TOP), "ordering agent must be an int >= 0, not -1"),
    (lambda: Ordering(0.0, TOP), "ordering agent must be an int >= 0, not 0.0"),
    (lambda: Ordering(0, 5), "ordering classes must be a sequence, not 5"),
    (
        lambda: Ordering(0, ({("a", "z")}, 5)),
        "ordering classes ({('a', 'z')}, 5) are not pair sets",
    ),
    (
        lambda: Ordering.from_ranks(0, (("a", "z"),), 5),
        "pairs (('a', 'z'),) and ranks 5 must be sequences",
    ),
    (lambda: Ordering.from_ranks(0, 5, (0,)), "pairs 5 and ranks (0,) must be sequences"),
    (lambda: DomainSpec(DomainKind.EXPLICIT, 5), "domain orderings must be a sequence, not 5"),
    (lambda: DomainSpec.explicit([1]), "domain ordering 1 is not an Ordering"),
)


@pytest.mark.parametrize("make, message", MALFORMED, ids=[message for _, message in MALFORMED])
def test_malformed_ordering_and_domain_arguments_raise_typed_errors(make, message):
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        make()


def test_a_domain_and_a_witness_reject_an_ordering_that_does_not_fit_alike():
    env = Environment.create((("a0", "a1"), ("b0", "b1")), ("z0", "z1"))
    mech = DetMechanism(env, {p: "z0" for p in enumerate_profiles(env)})
    pairs = env.pairs_for(0)
    unfit = (
        (Ordering.from_ranks(1, pairs, range(4)), "ordering tagged for agent 1, expected 0"),
        (Ordering.from_ranks(0, pairs[1:], range(3)), "partition incomplete"),
        (
            Ordering.from_ranks(0, (*pairs, ("a2", "z0")), range(5)),
            "ordering contains pairs outside the agent's pair set",
        ),
    )
    for ordering, message in unfit:
        witness = BAWitness(0, "a1", "a0", ("b0",), ("b1",), ordering)
        for check in (
            lambda: validate_explicit_domain(env, 0, DomainSpec.explicit((ordering,))),
            lambda: validate_witness(mech, witness),
        ):
            with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
                check()
    fits = Ordering.from_ranks(0, pairs, range(4))
    validate_explicit_domain(env, 0, DomainSpec.explicit((fits,)))


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


# --- value types ----------------------------------------------------------------
#
# Every model and result type is an immutable value.  Each case gives the
# class, its constructor's parameter names, the arguments of one instance and
# of a different one, and the instance's repr, in the format dataclasses use.

TOP = (frozenset({("a0", "z0")}), frozenset({("a1", "z0")}))
BOTTOM = TOP[::-1]
ONE_AGENT = ((("a0", "a1"),), ("z0",), (DomainSpec(DomainKind.UNRESTRICTED),))
ONE_AGENT_STRICT = ((("a0", "a1"),), ("z0",), (DomainSpec(DomainKind.STRICT),))
ENV_REPR = (
    "Environment(actions=(('a0', 'a1'),), outcomes=('z0',), "
    "domains=(DomainSpec(kind=<DomainKind.UNRESTRICTED: 'unrestricted'>, orderings=()),))"
)
TOP_REPR = "Ordering(agent=0, classes=(frozenset({('a0', 'z0')}), frozenset({('a1', 'z0')})))"
POINT = Distribution({"z0": Fraction(1)})
POINT_REPR = "Distribution(probs=mappingproxy({'z0': Fraction(1, 1)}))"
REPORT = ("referendum(m=1)", False, ["strict"], "NBA", "exhaustive-search", None, {"rows": 1}, 2.5)

VALUE_CASES = [
    (Ordering, "agent classes", (0, TOP), (0, BOTTOM), TOP_REPR),
    (
        DomainSpec, "kind orderings",
        (DomainKind.EXPLICIT, (Ordering(0, TOP),)), (DomainKind.EXPLICIT, (Ordering(0, BOTTOM),)),
        f"DomainSpec(kind=<DomainKind.EXPLICIT: 'explicit'>, orderings=({TOP_REPR},))",
    ),
    (Environment, "actions outcomes domains", ONE_AGENT, ONE_AGENT_STRICT, ENV_REPR),
    (
        BAWitness, "agent r l a_minus b_minus ordering",
        (0, "a1", "a0", ("b0",), ("b1",), Ordering(0, TOP)),
        (0, "a1", "a0", ("b1",), ("b0",), Ordering(0, TOP)),
        f"BAWitness(agent=0, r='a1', l='a0', a_minus=('b0',), b_minus=('b1',), ordering={TOP_REPR})",
    ),
    (
        QueueingParams, "theta1 theta2 grid u_bar",
        (Fraction(1, 4), Fraction(1, 2), (Fraction(0), Fraction(1)), Fraction(3)),
        (Fraction(1, 4), Fraction(1, 2), (Fraction(0), Fraction(1))),
        "QueueingParams(theta1=Fraction(1, 4), theta2=Fraction(1, 2), "
        "grid=(Fraction(0, 1), Fraction(1, 1)), u_bar=Fraction(3, 1))",
    ),
    (
        QueueingOutcome, "w t",
        ((0, 1), (Fraction(1, 2), Fraction(0))), ((1, 0), (Fraction(1, 2), Fraction(0))),
        "QueueingOutcome(w=(0, 1), t=(Fraction(1, 2), Fraction(0, 1)))",
    ),
    (
        SeparabilityViolation, "clause x x_alt z z_alt",
        (1, "x0", "x1", "z0", "z1"), (2, "x0", "x1", "z0", "z1"),
        "SeparabilityViolation(clause=1, x='x0', x_alt='x1', z='z0', z_alt='z1')",
    ),
    (
        SearchResult, "witness stats", (None, {"rows": 1}), (None, {"rows": 2}),
        "SearchResult(witness=None, stats={'rows': 1})",
    ),
    (
        DetMechanism, "env table",
        (Environment(*ONE_AGENT), {("a0",): "z0", ("a1",): "z0"}),
        (Environment(*ONE_AGENT_STRICT), {("a0",): "z0", ("a1",): "z0"}),
        f"DetMechanism(env={ENV_REPR}, table=mappingproxy({{('a0',): 'z0', ('a1',): 'z0'}}))",
    ),
    (
        Condition1Violation, "agent r l a_minus b_minus z",
        (0, "a0", "a1", ("b0",), ("b1",), "z0"), (0, "a0", "a1", ("b0",), ("b1",), "z1"),
        "Condition1Violation(agent=0, r='a0', l='a1', a_minus=('b0',), b_minus=('b1',), z='z0')",
    ),
    (
        Distribution, "probs",
        ({"z0": Fraction(1)},), ({"z0": Fraction(1, 2), "z1": Fraction(1, 2)},), POINT_REPR,
    ),
    (Lottery, "action dist", ("a0", POINT), ("a1", POINT), f"Lottery(action='a0', dist={POINT_REPR})"),
    (
        ProbMechanism, "env table",
        (Environment(*ONE_AGENT), {("a0",): POINT, ("a1",): POINT}),
        (Environment(*ONE_AGENT_STRICT), {("a0",): POINT, ("a1",): POINT}),
        f"ProbMechanism(env={ENV_REPR}, "
        f"table=mappingproxy({{('a0',): {POINT_REPR}, ('a1',): {POINT_REPR}}}))",
    ),
    (
        AnalysisReport, "mechanism probabilistic domains verdict method witness search duration_ms",
        REPORT, REPORT[:3] + ("BA",) + REPORT[4:],
        "AnalysisReport(mechanism='referendum(m=1)', probabilistic=False, domains=['strict'], "
        "verdict='NBA', method='exhaustive-search', witness=None, search={'rows': 1}, "
        "duration_ms=2.5)",
    ),
    (
        ClaimResult, "name passed detail", ("claim", True, "ok"), ("claim", False, "ok"),
        "ClaimResult(name='claim', passed=True, detail='ok')",
    ),
]
# a dict or list field makes the hash raise, as it did for the dataclasses
UNHASHABLE = {SearchResult, DetMechanism, ProbMechanism, AnalysisReport}
DEFAULTS = {DomainSpec: {"orderings": ()}, QueueingParams: {"u_bar": Fraction(2)}}


@pytest.mark.parametrize(
    "index, cls, names, args, other_args, expected_repr",
    [(i, *case) for i, case in enumerate(VALUE_CASES)],
    ids=[case[0].__name__ for case in VALUE_CASES],
)
def test_value_types_compare_hash_print_copy_and_refuse_changes(
    index, cls, names, args, other_args, expected_repr
):
    value, equal, different = cls(*args), cls(*args), cls(*other_args)
    other_cls, _, other_cls_args, _, _ = VALUE_CASES[index - 1]
    another_class = other_cls(*other_cls_args)
    assert value == equal and not value != equal
    assert value != different and not value == different
    assert value != another_class and not value == another_class
    # like a dataclass, a value equals only instances of its own class
    twin = type(cls.__name__, (cls,), {})(*args)
    assert value != twin and not value == twin
    assert value != args

    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(equal)
        assert len({value, equal, different}) == 2
    assert repr(value) == expected_repr

    names = names.split()
    for name in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == expected_repr

    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is cls and copied == value
    rebuild, rebuild_args = value.__reduce__()  # copies go through the constructor's checks
    assert rebuild is cls and cls(*rebuild_args) == value

    parameters = inspect.signature(cls).parameters.values()
    assert [p.name for p in parameters] == names
    defaults = {p.name: p.default for p in parameters if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls, {})
    assert cls(**dict(zip(names, args))) == value


# prints the repr of an ordering with a three-pair class, and of a search
# witness whose ordering has two classes of two pairs
REPR_PROBE = """
from exmech.model import Ordering
from exmech.stochastic import build_mixed_counterexample, find_prob_ba_witness
cls = frozenset({("a", "z0"), ("b", "z0"), ("a", "z1")})
print(repr(Ordering(0, (cls, frozenset({("b", "z1")})))))
print(repr(find_prob_ba_witness(build_mixed_counterexample()[1], "weak_only")))
"""


def test_ordering_repr_is_the_same_under_every_hash_seed():
    # a frozenset iterates in string-hash order; the repr lists each class sorted
    printed = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", REPR_PROBE], env=env, capture_output=True, text=True, check=True
        )
        printed.append(done.stdout)
    assert printed[0] == printed[1]
    ordering, witness = printed[0].splitlines()
    assert ordering == (
        "Ordering(agent=0, classes=(frozenset({('a', 'z0'), ('a', 'z1'), ('b', 'z0')}), "
        "frozenset({('b', 'z1')})))"
    )
    assert witness.endswith(
        "ordering=Ordering(agent=0, classes=(frozenset({('a0', 'z0'), ('a1', 'z1')}), "
        "frozenset({('a0', 'z1'), ('a1', 'z0')}))))"
    )
    names = {"Ordering": Ordering, "BAWitness": BAWitness}  # each evaluates back to its value
    top = (("a", "z0"), ("b", "z0"), ("a", "z1"))
    assert eval(ordering, names) == ordering_of(0, top, [("b", "z1")])
    assert eval(witness, names) == find_prob_ba_witness(build_mixed_counterexample()[1], "weak_only")


def test_value_type_defaults():
    assert DomainSpec(DomainKind.STRICT).orderings == ()
    assert DomainSpec(kind=DomainKind.STRICT) == DomainSpec(DomainKind.STRICT, ())
    grid = (Fraction(0), Fraction(1))
    params = QueueingParams(theta1=Fraction(1, 4), theta2=Fraction(1, 2), grid=grid)
    assert params.u_bar == Fraction(2)
    assert params == QueueingParams(Fraction(1, 4), Fraction(1, 2), grid, Fraction(2))


CHECKED = [(case[0], case[2]) for case in VALUE_CASES if "__post_init__" in vars(case[0])]


@pytest.mark.parametrize("cls, args", CHECKED, ids=[cls.__name__ for cls, _ in CHECKED])
def test_construction_calls_the_post_init_found_on_the_class(monkeypatch, cls, args):
    # perfbench/tracer.py counts and times construction by replacing __post_init__
    calls = []
    original = cls.__post_init__

    def counted(self):
        calls.append(type(self))
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    cls(*args)
    assert calls == [cls]
    if cls is Ordering:  # the enumerators build orderings through from_ranks
        Ordering.from_ranks(0, [("a0", "z0"), ("a1", "z0")], [0, 1])
        assert calls == [cls, cls]


def test_the_traced_classes_define_post_init():
    checked = {cls for cls, _ in CHECKED}
    assert {Ordering, DetMechanism, Distribution, ProbMechanism} <= checked
