import itertools
import random
from fractions import Fraction

import pytest

from exmech.deterministic import (
    DetMechanism,
    _RankKernel,
    _row_sets,
    _shared_row_sets,
    build_groves_queueing,
    build_majority_referendum,
    build_plurality,
    condition1_counterexample,
    condition1_counterexamples,
    construct_queueing_witness,
    det_mech_from_json,
    det_mech_to_json,
    find_ba_witness,
    is_voting_environment,
    nba_by_characterization,
    satisfies_condition1,
    satisfies_monotonicity,
    satisfies_unanimity,
    search_ba_witness,
    validate_witness,
    witness_from_counterexample,
)
from exmech.domains import classical_orderings, rank_table
from exmech.errors import (
    GridDoesNotSupportWitness,
    InvariantViolation,
    NotVotingEnvironment,
)
from exmech.model import DomainKind, DomainSpec, Environment, enumerate_profiles
from exmech.queueing import QueueingParams, clinic_revenue, QueueingOutcome

FULL_KINDS = (DomainKind.UNRESTRICTED, DomainKind.STRICT, DomainKind.WEAK_ONLY)


def small_env():
    return Environment.create((("a0", "a1"), ("b0", "b1")), ("z0", "z1"))


def all_tables(env):
    profiles = list(enumerate_profiles(env))
    for values in itertools.product(env.outcomes, repeat=len(profiles)):
        yield DetMechanism(env, dict(zip(profiles, values)))


def constant_mech(env, outcome=None):
    outcome = outcome or env.outcomes[0]
    return DetMechanism(env, {p: outcome for p in enumerate_profiles(env)})


def test_mechanism_table_must_be_total():
    env = small_env()
    with pytest.raises(InvariantViolation, match="incomplete"):
        DetMechanism(env, {("a0", "b0"): "z0"})
    with pytest.raises(InvariantViolation, match="not an outcome"):
        DetMechanism(env, {p: "nope" for p in enumerate_profiles(env)})


def test_condition1_holds_for_constant():
    assert satisfies_condition1(constant_mech(small_env()))


def test_condition1_referendum_counterexample_shape():
    _, mech = build_majority_referendum(1)
    cex = condition1_counterexample(mech)
    assert cex is not None
    assert cex.a_minus.count("leave") == 0
    assert cex.b_minus.count("leave") == 1
    # the reported tuple is a genuine failure of tie propagation
    assert mech.outcome_at(cex.agent, cex.r, cex.a_minus) == cex.z
    assert mech.outcome_at(cex.agent, cex.l, cex.a_minus) == cex.z
    assert (
        mech.outcome_at(cex.agent, cex.r, cex.b_minus) != cex.z
        or mech.outcome_at(cex.agent, cex.l, cex.b_minus) != cex.z
    )


def test_condition1_groves_counterexamples():
    params = QueueingParams(Fraction(1, 2), Fraction(1, 2), (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))
    _, mech = build_groves_queueing(params)
    first = condition1_counterexample(mech)
    assert first is not None
    assert (first.r, first.l, first.a_minus) == ("1/4", "1/2", ("0",))
    shaped = [
        c
        for c in condition1_counterexamples(mech)
        if c.agent == 0
        and Fraction(c.a_minus[0]) < Fraction(c.r) < Fraction(c.l) < Fraction(c.b_minus[0])
    ]
    assert shaped, "expected a counterexample with a2 < r1 < l1 < b2"


def test_nba_by_characterization_kinds():
    mech = constant_mech(small_env())
    for kind in FULL_KINDS:
        assert nba_by_characterization(mech, kind)
    _, referendum = build_majority_referendum(1)
    assert not nba_by_characterization(referendum, "unrestricted")
    with pytest.raises(InvariantViolation):
        nba_by_characterization(mech, DomainKind.EXPLICIT)


def test_find_ba_witness_constant_none():
    mech = constant_mech(small_env())
    for kind in FULL_KINDS:
        assert find_ba_witness(mech, kind) is None


def test_find_ba_witness_referendum():
    _, mech = build_majority_referendum(1)
    witness = find_ba_witness(mech, DomainKind.UNRESTRICTED)
    assert witness is not None
    validate_witness(mech, witness)


def test_find_ba_witness_classical_domains_none():
    env = small_env()
    domains = tuple(
        DomainSpec.explicit(classical_orderings(i, env.actions[i], env.outcomes))
        for i in range(env.n)
    )
    for mech in all_tables(env):
        assert find_ba_witness(mech, domains) is None


def test_characterization_agrees_with_search_wider_universe():
    # all action-set shapes up to three actions per agent, two outcomes
    for shape in ((2, 3), (3, 2), (3, 3)):
        env = Environment.create(
            tuple(tuple(f"x{i}{k}" for k in range(s)) for i, s in enumerate(shape)),
            ("z0", "z1"),
        )
        for mech in all_tables(env):
            holds = satisfies_condition1(mech)
            for kind in FULL_KINDS:
                witness = find_ba_witness(mech, kind)
                assert (witness is None) == holds
                if witness is not None:
                    validate_witness(mech, witness)


def test_witness_from_counterexample_all_kinds():
    env = small_env()
    for mech in all_tables(env):
        cex = condition1_counterexample(mech)
        if cex is None:
            continue
        for kind in FULL_KINDS:
            witness = witness_from_counterexample(mech, cex, kind)
            validate_witness(mech, witness, domain=DomainSpec(kind))
            if kind is DomainKind.STRICT:
                assert witness.ordering.is_strict
            if kind is DomainKind.WEAK_ONLY:
                assert not witness.ordering.is_strict


def test_search_stats_and_strict_iii():
    _, mech = build_majority_referendum(1)
    result = search_ba_witness(mech, DomainKind.UNRESTRICTED, strict_iii=True)
    assert result.witness is not None
    validate_witness(mech, result.witness, strict_iii=True)
    assert result.stats["orderings_per_agent"] == [4683, 4683, 4683]


# --- bit-parallel kernel against a row-wise reference ---------------------------


def row_set(rows):
    return sum(1 << o for o in rows)


def first_best_response(table, anchor, rivals, candidates, strict_iii):
    """Row-wise reference: the first candidate row, in table order, whose
    anchor rank beats every rival's (strictly under `strict_iii`)."""
    for o in sorted(candidates):
        rv = table[o]
        if all(rv[anchor] < rv[x] if strict_iii else rv[anchor] <= rv[x] for x in rivals):
            return o
    return None


def rank_kernel(env, row_sets, strict_iii):
    """Agent 0's kernel over `row_sets`, indexed by its pairs in canonical order."""
    index = {pair: k for k, pair in enumerate(env.pairs_for(0))}
    return _RankKernel(index, row_sets, strict_iii)


def assert_kernel_matches_rows(table, n, row_sets):
    """`protest` on every position pair and `best_response` on every row and
    every protest set match the row-wise reference, strict_iii off and on.

    The agent has n actions and one outcome, so position k is pair (xk, z).
    """
    env = Environment.create([tuple(f"x{k}" for k in range(n))], ("z",))
    pair = [(f"x{k}", "z") for k in range(n)]
    for strict_iii in (False, True):
        kernel = rank_kernel(env, row_sets, strict_iii)
        for r, l in itertools.product(range(n), repeat=2):
            if r == l:
                continue
            protest = [o for o, rv in enumerate(table) if rv[l] < rv[r]]
            candidates = kernel.protest(f"x{r}", f"x{l}", "z")
            assert candidates == row_set(protest)
            assert bool(candidates) == bool(protest)
            for anchor in range(n):
                rivals = [x for x in range(n) if x != anchor]
                got = kernel.best_response(pair[anchor], [pair[x] for x in rivals], candidates)
                assert got == first_best_response(table, anchor, rivals, protest, strict_iii)
        for anchor in range(n):
            rivals = [x for x in range(n) if x != anchor]
            rival_pairs = [pair[x] for x in rivals]
            assert kernel.best_response(pair[anchor], rival_pairs, 0) is None
            for o in range(len(table)):
                got = kernel.best_response(pair[anchor], rival_pairs, 1 << o)
                expected = first_best_response(table, anchor, rivals, [o], strict_iii)
                assert got == expected


FULL_TABLE_SIZES = [(n, kind) for kind in FULL_KINDS for n in range(1, 6)]
FULL_TABLE_SIZES.append((6, DomainKind.STRICT))


@pytest.mark.parametrize(
    "n, kind", FULL_TABLE_SIZES, ids=lambda v: v.value if isinstance(v, DomainKind) else str(v)
)
def test_rank_kernel_matches_row_wise_reference_on_full_tables(n, kind):
    assert_kernel_matches_rows(rank_table(n, kind), n, _shared_row_sets(n, kind))


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_rank_kernel_matches_row_wise_reference_on_explicit_tables(n):
    rng = random.Random(n)
    full = rank_table(n, DomainKind.UNRESTRICTED)
    for size in (1, 2, 7, 30):
        table = tuple(rng.sample(full, min(size, len(full))))
        assert_kernel_matches_rows(table, n, _row_sets(table, n))


def test_rank_kernel_single_row_table():
    # one ordering x0 > x1 > x2; the rival set empties at the second rival
    env = Environment.create([("x0", "x1", "x2")], ("z",))
    x0, x1, x2 = env.pairs_for(0)
    for strict_iii in (False, True):
        kernel = rank_kernel(env, _row_sets(((0, 1, 2),), 3), strict_iii)
        assert kernel.protest("x1", "x0", "z") == 1
        assert kernel.protest("x0", "x1", "z") == 0
        assert kernel.best_response(x0, [x1, x2], 1) == 0
        assert kernel.best_response(x1, [x2, x0], 1) is None
        assert kernel.best_response(x0, [x1, x2], 0) is None
    # x0 ~ x1 > x2: a tie answers (iii) only when it is weak
    tied = _row_sets(((0, 0, 1),), 3)
    assert rank_kernel(env, tied, False).best_response(x0, [x1, x2], 1) == 0
    assert rank_kernel(env, tied, True).best_response(x0, [x1, x2], 1) is None


def test_full_row_sets_are_shared():
    assert _shared_row_sets(4, DomainKind.WEAK_ONLY) is _shared_row_sets(4, DomainKind.WEAK_ONLY)


# --- witness domain membership ---------------------------------------------------


def test_validate_witness_checks_domain_membership():
    _, mech = build_majority_referendum(1)
    weak = find_ba_witness(mech, DomainKind.WEAK_ONLY)
    strict = find_ba_witness(mech, DomainKind.STRICT)
    assert not weak.ordering.is_strict and strict.ordering.is_strict
    validate_witness(mech, weak, domain=DomainSpec.weak_only())
    validate_witness(mech, weak, domain=DomainSpec.unrestricted())
    validate_witness(mech, strict, domain=DomainSpec.strict())
    with pytest.raises(InvariantViolation, match="outside the strict domain"):
        validate_witness(mech, weak, domain=DomainSpec.strict())
    with pytest.raises(InvariantViolation, match="outside the weak-only domain"):
        validate_witness(mech, strict, domain=DomainSpec.weak_only())
    listed = DomainSpec.explicit((strict.ordering,))
    validate_witness(mech, strict, domain=listed)
    with pytest.raises(InvariantViolation, match="not one of the explicit domain's orderings"):
        validate_witness(mech, weak, domain=listed)


def test_voting_environment_recognition():
    ref_env, _ = build_majority_referendum(1)
    assert is_voting_environment(ref_env)
    plu_env, _ = build_plurality(2, 2)
    assert is_voting_environment(plu_env)
    assert not is_voting_environment(small_env())
    with pytest.raises(NotVotingEnvironment):
        satisfies_unanimity(constant_mech(small_env()))


def test_unanimity():
    _, plurality = build_plurality(2, 2)
    assert satisfies_unanimity(plurality)
    env, _ = build_plurality(2, 2)
    assert not satisfies_unanimity(constant_mech(env, "1"))
    _, referendum = build_majority_referendum(1)
    assert satisfies_unanimity(referendum)


def test_monotonicity():
    _, plurality = build_plurality(2, 2)
    assert satisfies_monotonicity(plurality)
    env, _ = build_plurality(2, 2)
    assert satisfies_monotonicity(constant_mech(env, "1"))
    _, referendum = build_majority_referendum(1)
    assert satisfies_monotonicity(referendum)


def test_monotonicity_violation():
    env, base = build_plurality(2, 2)
    table = dict(base.table)
    # voting for the winner of ("1", sub=("2",)) flips the outcome
    assert table[("1", "2")] == "1"
    table[("1", "2")] = "2"
    table[("2", "2")] = "1"
    assert not satisfies_monotonicity(DetMechanism(env, table))


def test_referendum_outcomes():
    _, mech = build_majority_referendum(1)
    assert mech.outcome(("leave", "leave", "abstain")) == "leave"
    assert mech.outcome(("leave", "remain", "abstain")) == "remain"
    assert mech.outcome(("abstain", "abstain", "abstain")) == "remain"


def test_plurality_outcomes():
    _, mech = build_plurality(2, 2)
    assert mech.outcome(("1", "1")) == "1"
    assert mech.outcome(("1", "2")) == "1"
    _, reversed_ties = build_plurality(2, 2, tiebreak=("2", "1"))
    assert reversed_ties.outcome(("1", "2")) == "2"


def test_plurality_satisfies_axioms_and_has_witness():
    _, mech = build_plurality(2, 2)
    assert satisfies_unanimity(mech) and satisfies_monotonicity(mech)
    witness = find_ba_witness(mech, DomainKind.UNRESTRICTED)
    assert witness is not None
    validate_witness(mech, witness)


def groves_fixture():
    grid = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    return QueueingParams(Fraction(1, 2), Fraction(1, 4), grid)


def test_groves_table():
    _, mech = build_groves_queueing(groves_fixture())
    assert mech.outcome(("3/4", "1/4")) == "w=0,1|t=1/4,0"
    assert mech.outcome(("1/2", "1/2")) == "w=1,0|t=0,1/2"
    assert mech.outcome(("0", "0")) == "w=1,0|t=0,0"


def test_queueing_witness_construction():
    params = groves_fixture()
    witness = construct_queueing_witness(params)
    assert (witness.agent, witness.r, witness.l) == (0, "3/4", "1/2")
    assert witness.a_minus == ("1/4",) and witness.b_minus == ("3/4",)
    _, mech = build_groves_queueing(params)
    validate_witness(mech, witness)
    # tie at a_minus: both reports above 1/4 serve patient 1 first for 1/4
    assert mech.outcome_at(0, witness.r, witness.a_minus) == "w=0,1|t=1/4,0"
    assert mech.outcome_at(0, witness.l, witness.a_minus) == "w=0,1|t=1/4,0"


def test_queueing_revenue_maximized_at_matching_report():
    params = groves_fixture()
    _, mech = build_groves_queueing(params)
    b2 = Fraction(3, 4)
    revenues = {
        x: clinic_revenue(QueueingOutcome.parse(mech.outcome((str(x), str(b2)))))
        for x in params.grid
        if x <= b2
    }
    assert all(revenues[x] == x for x in revenues)
    assert max(revenues.values()) == revenues[b2]


def test_queueing_witness_grid_requirements():
    grid = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    with pytest.raises(GridDoesNotSupportWitness):
        construct_queueing_witness(QueueingParams(Fraction(0), Fraction(0), grid))
    with pytest.raises(GridDoesNotSupportWitness):
        construct_queueing_witness(
            QueueingParams(Fraction(1, 3), Fraction(0), grid)  # not on the grid
        )
    with pytest.raises(GridDoesNotSupportWitness):
        construct_queueing_witness(
            QueueingParams(Fraction(1, 2), Fraction(0), (Fraction(1, 2), Fraction(3, 4)))
        )


def test_condition1_fails_for_groves_any_grid_with_four_points():
    grids = (
        (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
        (Fraction(1, 8), Fraction(1, 3), Fraction(2, 3), Fraction(7, 8), Fraction(1)),
    )
    for grid in grids:
        _, mech = build_groves_queueing(QueueingParams(Fraction(1, 2), Fraction(1, 2), grid))
        assert not satisfies_condition1(mech)


def test_det_mech_json_round_trip():
    env, mech = build_majority_referendum(1)
    data = det_mech_to_json(mech)
    rebuilt = det_mech_from_json(env, data)
    assert rebuilt == mech
