import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from exmech.domains import (
    domain_rank_vectors,
    enumerate_strict_orderings,
    enumerate_weak_orderings,
    indifferent_ordering,
    rank_table,
)
from exmech.errors import (
    ActionsEqual,
    AgentMismatch,
    InvariantViolation,
    NotStrict,
    ParseError,
)
from exmech.model import DomainKind, DomainSpec, Environment, Ordering, enumerate_profiles
from exmech.stochastic import (
    Distribution,
    DominanceBlock,
    Lottery,
    ProbMechanism,
    _FSDKernel,
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
    validate_prob_witness,
)

Z2 = ("z0", "z1")


def dist(p0, p1):
    return Distribution({"z0": Fraction(p0), "z1": Fraction(p1)})


def test_distribution_validation():
    with pytest.raises(InvariantViolation, match="must sum to 1"):
        Distribution({"z0": Fraction(1, 3), "z1": Fraction(1, 2)})
    with pytest.raises(InvariantViolation, match="negative"):
        Distribution({"z0": Fraction(3, 2), "z1": Fraction(-1, 2)})


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


def assert_kernel_matches_fsd(env, agent, table, orderings):
    """The kernel's verdict on every row equals `fsd` on that row's ordering.

    Every ordered pair of palette lotteries is compared, equal ones and
    same-action ones included, through both kernel entry points.
    """
    kernel = _FSDKernel({pair: k for k, pair in enumerate(env.pairs_for(agent))}, table)
    actions, outcomes = env.actions[agent], env.outcomes
    dists = [
        Distribution({z: Fraction(p) for z, p in zip(outcomes, row)})
        for row in PALETTES[len(outcomes)]
    ]
    lotteries = [(x, d) for x in actions for d in dists]
    for lhs, rhs in itertools.product(lotteries, repeat=2):
        expected = [fsd(o, Lottery(*lhs), Lottery(*rhs)) for o in orderings]
        assert [kernel.best_response(lhs, [rhs], [k]) == k for k in range(len(table))] == expected
        if lhs == rhs:
            assert not any(expected)
    for (r, l), d in itertools.product(itertools.permutations(actions, 2), dists):
        expected = [k for k, o in enumerate(orderings) if fsd(o, Lottery(l, d), Lottery(r, d))]
        assert kernel.protest(r, l, d) == expected


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
    assert_kernel_matches_fsd(env, 0, table, orderings)


def test_fsd_kernel_matches_reference_on_explicit_rows():
    env, _ = build_mixed_counterexample()
    pairs = env.pairs_for(0)
    orderings = [
        counterexample_preference(),
        indifferent_ordering(0, env.actions[0], env.outcomes),
        Ordering(0, (frozenset({("a1", "z1")}), frozenset(pairs) - {("a1", "z1")})),
    ]
    table = domain_rank_vectors(env, 0, DomainSpec.explicit(orderings))
    assert_kernel_matches_fsd(env, 0, table, orderings)


def test_completely_mixed_mechanism_predicate():
    _, mech = build_mixed_counterexample()
    assert is_completely_mixed(mech)
    env = Environment.create((("a0", "a1"), ("b0", "b1")), Z2)
    table = {p: Distribution.point_mass("z0", Z2) for p in enumerate_profiles(env)}
    assert not is_completely_mixed(ProbMechanism(env, table))


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
    strict = dataclasses.replace(
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
