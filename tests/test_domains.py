import functools
import itertools
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from exmech import domains
from exmech.deterministic import build_groves_queueing
from exmech.domains import (
    build_queueing_pref_1,
    build_queueing_pref_2,
    classical_orderings,
    domain_orderings,
    enumerate_strict_orderings,
    enumerate_weak_only_orderings,
    enumerate_weak_orderings,
    first_ranks,
    indifferent_ordering,
    is_classical,
    is_separable,
    orderings,
    row_count,
    rows,
    separability_violation,
)
from exmech.errors import CapExceeded, InvariantViolation, NotQueueingEnvironment, UnknownPair
from exmech.model import DomainKind, DomainSpec, Environment, Ordering
from exmech.queueing import QueueingParams, clinic_revenue, material_payoff, queueing_outcomes_of
from exmech.verify import GRID_SWEEP, THETA_SWEEP

from rowsets import rank_table, rows_below


def ordered_bell(n):
    """Number of weak orders on n items, via the composition recurrence."""
    values = [1]
    for k in range(1, n + 1):
        values.append(sum(comb(k, j) * values[k - j] for j in range(1, k + 1)))
    return values[n]


def pairs(n):
    return tuple(("a", f"z{k}") for k in range(n))


def canon(ordering):
    return tuple(frozenset(cls) for cls in ordering.classes)


@pytest.mark.parametrize("n,count", [(2, 3), (3, 13), (4, 75)])
def test_weak_ordering_counts(n, count):
    orderings = list(enumerate_weak_orderings(0, pairs(n)))
    assert len(orderings) == count == ordered_bell(n)
    assert len({canon(o) for o in orderings}) == count


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_weak_ordering_counts_match_oracle(n):
    assert sum(1 for _ in enumerate_weak_orderings(0, pairs(n))) == ordered_bell(n)


def test_strict_ordering_counts():
    assert sum(1 for _ in enumerate_strict_orderings(0, pairs(3))) == factorial(3)
    assert sum(1 for _ in enumerate_strict_orderings(0, pairs(1))) == 1
    assert all(o.is_strict for o in enumerate_strict_orderings(0, pairs(3)))


def test_weak_minus_strict():
    weak = {canon(o) for o in enumerate_weak_orderings(0, pairs(3))}
    strict = {canon(o) for o in enumerate_strict_orderings(0, pairs(3))}
    weak_only = {canon(o) for o in enumerate_weak_only_orderings(0, pairs(3))}
    assert strict < weak
    assert weak_only == weak - strict
    assert len(weak_only) == 13 - 6 == 7


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        list(enumerate_weak_orderings(0, pairs(7)))
    with pytest.raises(CapExceeded):
        list(enumerate_strict_orderings(0, pairs(9)))
    assert sum(1 for _ in enumerate_weak_orderings(0, pairs(7), cap=7)) == ordered_bell(7)


@pytest.mark.parametrize("kind", ("unrestricted", "strict", "weak_only"))
def test_domain_orderings_cap_zero_is_a_cap(kind):
    env = Environment.create((("a0", "a1"),), ("z0",))
    with pytest.raises(CapExceeded):
        domain_orderings(env, 0, DomainSpec(DomainKind(kind)), cap=0)


@pytest.mark.parametrize("kind", ("unrestricted", "strict", "weak_only"))
def test_full_domain_past_sys_maxsize_orderings_is_a_cap(kind):
    kind = DomainKind(kind)
    past = "more orderings than sys.maxsize"
    for n in range(1, 21):
        if row_count(n, kind) <= sys.maxsize:
            # within the bound nothing is listed, not even at 20! orderings, until asked
            first = next(orderings(kind, 0, pairs(n), 28), None)
            assert first is None if row_count(n, kind) == 0 else first.pairs == set(pairs(n))
        else:
            with pytest.raises(CapExceeded, match=f"^{n} pairs give the {kind.value} domain {past}"):
                orderings(kind, 0, pairs(n), 28)
    # past 20 pairs the bound is reached without a count, which at 300 pairs
    # would be a number of hundreds of digits
    domains.row_count.cache_clear()
    for n in (21, 28, 300):
        with pytest.raises(CapExceeded, match=f"^{n} pairs give the {kind.value} domain {past}"):
            orderings(kind, 0, pairs(n), n)


def queueing_setup(theta1=Fraction(1, 2), theta2=Fraction(1, 4), grid=None):
    grid = grid or (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    params = QueueingParams(theta1, theta2, grid)
    env, mech = build_groves_queueing(params)
    return params, env, mech


def test_queueing_pref_1_is_separable():
    params, env, _ = queueing_setup()
    assert is_separable(build_queueing_pref_1(params, env))


def test_classical_pref_2_is_separable_and_classical():
    params, env, _ = queueing_setup()
    pref2 = build_queueing_pref_2(params, env)
    assert is_separable(pref2)
    assert is_classical(pref2)


def test_separability_violation_clause_one():
    ordering = Ordering(
        0,
        (
            frozenset({("a", "z0")}),
            frozenset({("b", "z1")}),
            frozenset({("a", "z1")}),
            frozenset({("b", "z0")}),
        ),
    )
    violation = separability_violation(ordering)
    assert violation is not None and violation.clause == 1
    assert not is_separable(ordering)


def test_is_classical_examples():
    expressive = Ordering(
        0,
        (
            frozenset({("a0", "z1"), ("a1", "z0")}),
            frozenset({("a0", "z0"), ("a1", "z1")}),
        ),
    )
    assert not is_classical(expressive)
    single_action = Ordering(0, (frozenset({("a", "z0")}), frozenset({("a", "z1")})))
    assert is_classical(single_action)
    assert is_classical(indifferent_ordering(0, ("a", "b"), ("z0", "z1")))


def test_every_classical_ordering_is_separable():
    # six pairs: two actions, three outcomes; classical = lifted outcome orders
    lifted = list(classical_orderings(0, ("a", "b"), ("x", "y", "w")))
    assert len(lifted) == 13
    assert all(is_classical(o) for o in lifted)
    assert all(is_separable(o) for o in lifted)
    enumerated_classical = [
        o
        for o in enumerate_weak_orderings(0, tuple((a, z) for a in ("a", "b") for z in ("x", "y", "w")))
        if is_classical(o)
    ]
    assert len(enumerated_classical) == 13
    assert all(is_separable(o) for o in enumerated_classical)


def scanned_violation(ordering):
    """The first violation in the quadruple scan, with no shortcut: the reference."""
    actions = sorted({x for x, _ in ordering.pairs})
    outcomes = sorted({z for _, z in ordering.pairs})
    rank = ordering.rank
    for x, x_alt, z, z_alt in itertools.product(actions, actions, outcomes, outcomes):
        if x_alt == x:
            continue
        if rank((x, z)) <= rank((x, z_alt)) and rank((x_alt, z)) > rank((x_alt, z_alt)):
            return domains.SeparabilityViolation(1, x, x_alt, z, z_alt)
        if rank((x, z)) <= rank((x_alt, z)) and rank((x, z_alt)) > rank((x_alt, z_alt)):
            return domains.SeparabilityViolation(2, x, x_alt, z, z_alt)
    return None


@pytest.mark.parametrize("shape", ((2, 2), (2, 3), (3, 2)), ids=lambda s: f"{s[0]}x{s[1]}")
def test_separability_violation_agrees_with_the_full_scan(shape):
    # every weak order, so every strict and weak-only one too
    actions = tuple(f"a{k}" for k in range(shape[0]))
    outcomes = tuple(f"z{j}" for j in range(shape[1]))
    orderings = enumerate_weak_orderings(0, tuple(itertools.product(actions, outcomes)))
    separable = 0
    for ordering in orderings:
        violation = separability_violation(ordering)
        assert violation == scanned_violation(ordering)
        separable += violation is None
    assert 0 < separable < row_count(shape[0] * shape[1], DomainKind.UNRESTRICTED)


def test_separability_violation_of_a_partial_ordering_names_the_missing_pair():
    # (a1, z1) is not ranked, so the shortcut does not apply and the scan raises
    for ordering in enumerate_weak_orderings(0, (("a0", "z0"), ("a0", "z1"), ("a1", "z0"))):
        for find in (separability_violation, scanned_violation):
            with pytest.raises(UnknownPair, match=r"^pair \('a1', 'z1'\) is not in"):
                find(ordering)


def test_pref_1_material_payoff_dominates():
    params, env, mech = queueing_setup()
    pref = build_queueing_pref_1(params, env)
    # served first paying 1/4 (payoff u-1/4) beats served second paying 0 (u-1/2)
    richer = ("0", "w=0,1|t=1/4,0")
    poorer = ("3/4", "w=1,0|t=0,0")
    assert pref.strictly_prefers(richer, poorer)


def test_pref_1_honesty_breaks_ties():
    params, env, _ = queueing_setup(theta1=Fraction(1, 2))
    pref = build_queueing_pref_1(params, env)
    outcome = "w=0,1|t=1/4,0"
    assert pref.strictly_prefers(("1/2", outcome), ("3/4", outcome))
    # equal distance from the true cost on both sides: indifferent
    assert pref.indifferent(("1/4", outcome), ("3/4", outcome))


def test_pref_2_classical_indifference():
    params, env, _ = queueing_setup(theta2=Fraction(1, 4))
    pref2 = build_queueing_pref_2(params, env)
    # same outcome under different own reports never matters to patient 2
    outcome = "w=1,0|t=0,1/2"
    assert pref2.indifferent(("0", outcome), ("3/4", outcome))
    # being served first with no transfer beats waiting
    assert pref2.strictly_prefers(("0", "w=1,0|t=0,0"), ("0", "w=0,1|t=0,0"))


def test_pref_builders_reject_non_queueing_envs():
    params, _, _ = queueing_setup()
    plain = Environment.create((("a", "b"), ("c", "d")), ("z0", "z1"))
    with pytest.raises(NotQueueingEnvironment):
        build_queueing_pref_1(params, plain)


def test_separability_sweep_small():
    thetas = (Fraction(0), Fraction(1, 2), Fraction(1))
    grid = (Fraction(0), Fraction(1, 2), Fraction(1))
    for theta in thetas:
        params = QueueingParams(theta, theta, grid)
        env, _ = build_groves_queueing(params)
        assert is_separable(build_queueing_pref_1(params, env))
        assert is_separable(build_queueing_pref_2(params, env))


def reference_queueing_pref(params, env, patient):
    """The preference built pair by pair, keying each (report, outcome) pair in full."""
    outcomes = queueing_outcomes_of(env)
    keyed = []
    for action in env.actions[patient]:
        report = Fraction(action)
        for label, outcome in outcomes.items():
            if patient == 0:
                key = (
                    -material_payoff(outcome, params, 0),
                    -clinic_revenue(outcome),
                    abs(params.theta1 - report),
                )
            else:
                key = (-material_payoff(outcome, params, 1),)
            keyed.append((key, (action, label)))
    keyed.sort(key=lambda kp: kp[0])
    groups = itertools.groupby(keyed, key=lambda kp: kp[0])
    return Ordering(patient, tuple(frozenset(pair for _, pair in group) for _, group in groups))


@pytest.mark.parametrize("grid", GRID_SWEEP, ids=lambda grid: f"{len(grid)}-points")
def test_queueing_prefs_match_the_pairwise_construction(grid):
    for theta1, theta2 in itertools.product(THETA_SWEEP, repeat=2):
        params = QueueingParams(theta1, theta2, grid)
        env, _ = build_groves_queueing(params)
        assert build_queueing_pref_1(params, env) == reference_queueing_pref(params, env, 0)
        assert build_queueing_pref_2(params, env) == reference_queueing_pref(params, env, 1)


# --- enumeration order --------------------------------------------------------
#
# The canonical witness is the first one in enumeration order, so the order is
# pinned against these reference generators, written out independently of the
# shared rank tables.


def reference_partitions(elements):
    """Ordered set partitions, first class by increasing size, then lexicographically."""
    if not elements:
        yield ()
        return
    for size in range(1, len(elements) + 1):
        for head in itertools.combinations(elements, size):
            rest = tuple(e for e in elements if e not in head)
            for tail in reference_partitions(rest):
                yield (frozenset(head),) + tail


def reference_weak(agent, ps):
    return [Ordering(agent, classes) for classes in reference_partitions(ps)]


def reference_strict(agent, ps):
    perms = itertools.permutations(ps)
    return [Ordering(agent, tuple(frozenset((p,)) for p in perm)) for perm in perms]


def reference_classical(agent, actions, outcomes):
    return [
        Ordering(agent, tuple(frozenset((a, z) for a in actions for z in cls) for cls in classes))
        for classes in reference_partitions(tuple(outcomes))
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weak_enumeration_order_is_pinned(n):
    ps = tuple(reversed(pairs(n)))  # positions follow the given pair order, not sorted labels
    weak = reference_weak(2, ps)
    assert list(enumerate_weak_orderings(2, ps)) == weak
    assert list(enumerate_weak_only_orderings(2, ps)) == [o for o in weak if not o.is_strict]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_strict_enumeration_order_is_pinned(n):
    ps = tuple(reversed(pairs(n)))
    assert list(enumerate_strict_orderings(1, ps)) == reference_strict(1, ps)


@pytest.mark.parametrize("actions", [("a",), ("a", "b"), ("b", "a", "c")])
@pytest.mark.parametrize("n_outcomes", [1, 2, 3, 4])
def test_classical_enumeration_order_is_pinned(actions, n_outcomes):
    outcomes = tuple(f"z{k}" for k in reversed(range(n_outcomes)))
    expected = reference_classical(0, actions, outcomes)
    assert list(classical_orderings(0, actions, outcomes)) == expected


@pytest.mark.parametrize("kind", ("unrestricted", "strict", "weak_only"))
def test_domain_orderings_follow_the_pinned_order(kind):
    env = Environment.create((("a0", "a1"), ("b0", "b1", "b2")), ("z0", "z1"))
    ps = env.pairs_for(1)
    weak = reference_weak(1, ps)
    expected = {
        "unrestricted": weak,
        "strict": reference_strict(1, ps),
        "weak_only": [o for o in weak if not o.is_strict],
    }[kind]
    assert list(domain_orderings(env, 1, DomainSpec(DomainKind(kind)))) == expected


def frozen_rank_table(n, kind):
    """The rank-table generator as it stood before the canonical order was stated by `heads`.

    Strict rows follow `itertools.permutations`, and weak-only rows are the
    weak rows that are not all singletons; kept here as the oracle for the
    order every pinned witness depends on.
    """
    if kind is DomainKind.STRICT:
        return tuple(tuple(map(perm.index, range(n))) for perm in itertools.permutations(range(n)))
    if kind is DomainKind.WEAK_ONLY:
        return tuple(rv for rv in frozen_rank_table(n, DomainKind.UNRESTRICTED) if max(rv) < n - 1)
    ranks = [0] * n

    def partitions(rest, depth):
        if not rest:
            yield tuple(ranks)
            return
        for size in range(1, len(rest) + 1):
            for head in itertools.combinations(rest, size):
                for position in head:
                    ranks[position] = depth
                yield from partitions(tuple(p for p in rest if p not in head), depth + 1)

    return tuple(partitions(tuple(range(n)), 0))


FULL_KINDS = (DomainKind.UNRESTRICTED, DomainKind.STRICT, DomainKind.WEAK_ONLY)


def test_domain_kind_caches_hit_when_the_kind_is_looked_up_by_value():
    """`DomainKind` hashes by identity, in C; a kind given by value is the same member."""
    kind = DomainKind("strict")
    assert DomainKind.__hash__ is object.__hash__ and kind is DomainKind.STRICT
    assert {DomainKind.STRICT: "strict"}[kind] == "strict"
    row_count(5, DomainKind.STRICT)
    before = row_count.cache_info()
    row_count(5, kind)
    after = row_count.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize("kind", FULL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rank_table_matches_the_frozen_generator(n, kind):
    assert tuple(rows(n, kind)) == frozen_rank_table(n, kind)


@pytest.mark.parametrize("kind", FULL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_unrank_finds_every_row_of_the_rank_table(n, kind):
    # a search finds its witness ordering by the walk over heads, not from the
    # table: given a row and the table's last row, the walk must return the
    # earlier one
    table = rank_table(n, kind)
    assert row_count(n, kind) == len(table)
    below = rows_below(table)
    for o, ranks in enumerate(table):
        assert tuple(first_ranks(n, (0, [o, len(table) - 1]), kind, below)) == ranks


@functools.cache
def recursive_row_count(n, kind):
    """The count by first-class size: a first class of each size the kind allows, then a tail.

    `weak_only` takes a weak-only tail after a single pair and an unrestricted
    one after a larger first class; kept as the oracle for the direct count.
    """
    if n == 0:
        return 0 if kind is DomainKind.WEAK_ONLY else 1
    return sum(
        comb(n, size)
        * recursive_row_count(
            n - size, DomainKind.UNRESTRICTED if kind is DomainKind.WEAK_ONLY and size > 1 else kind
        )
        for size in ((1,) if kind is DomainKind.STRICT else range(1, n + 1))
    )


@pytest.mark.parametrize("kind", FULL_KINDS, ids=lambda k: k.value)
def test_row_count_past_the_rank_tables(kind):
    for n in range(21):
        assert row_count(n, kind) == recursive_row_count(n, kind)
    assert row_count(6, kind) == {"unrestricted": 4683, "strict": 720, "weak_only": 3963}[kind.value]
    if kind is DomainKind.STRICT:
        assert row_count(20, kind) == factorial(20)


def test_rows_are_listed_lazily():
    # 20 pairs give 20! strict orderings: the first two come without the rest
    first, second = itertools.islice(rows(20, DomainKind.STRICT), 2)
    assert first == tuple(range(20))
    assert second == (*range(18), 19, 18)


LISTINGS = {f"orderings-{kind.value}": functools.partial(orderings, kind) for kind in FULL_KINDS}
LISTINGS.update(
    weak=enumerate_weak_orderings,
    strict=enumerate_strict_orderings,
    weak_only=enumerate_weak_only_orderings,
)


@pytest.mark.parametrize("listing", LISTINGS.values(), ids=LISTINGS.keys())
def test_listings_check_their_pairs_when_called(listing):
    # each check raises at the call, before anything is iterated
    with pytest.raises(InvariantViolation, match="^need at least one pair to enumerate orderings$"):
        listing(0, ())
    with pytest.raises(InvariantViolation, match="^duplicate pairs$"):
        listing(0, pairs(2) + pairs(1))
    with pytest.raises(CapExceeded, match="^2 pairs exceed the .* enumeration cap of 0$"):
        listing(0, pairs(2), 0)
