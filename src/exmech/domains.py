"""Preference-domain generators and structural predicates.

The canonical order of each full domain kind is stated once, by the head
rule (`heads`): an ordering is a first class (the head) followed by an
ordering of the remaining pairs, and the kinds differ only in which heads
they take and in the kind of the tail.  `unrestricted` (weak orders, i.e.
ranked partitions) takes heads of any size, `strict` takes single pairs
only, and `weak_only` keeps a weak-only tail after a single pair and an
unrestricted tail after a larger head.  Heads of one size come in
lexicographic order.  Two things iterate `heads`:
- `rows` lists the order lazily as rank vectors over pair positions,
  recursing head by head, and `orderings` turns them into the orderings of
  given pairs; every public listing of a full domain is a view of these two
  (a search never lists one);
- `first_ranks`, the walk by which a search on a full kind finds its
  witness ordering, depth by depth and with no count.  The rows led by one
  head form one block, so the first head after which the search's tuple
  can still be completed leads the first row completing it.  The kind
  supplies only that test, as the step `below`.
`row_count` counts each full domain directly, with no head.
Also classifies orderings as classical or separable and builds the
lexicographic queueing preferences.  Enumeration is capped because the
number of weak orders grows like the ordered Bell numbers (4683 already at
six pairs).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapExceeded, InvariantViolation, UnknownPair
from .model import (
    DomainKind,
    DomainSpec,
    Environment,
    Ordering,
    Pair,
    Value,
    as_domain_specs,
    set_field,
    validate_explicit_domain,
)
from .queueing import QueueingParams, clinic_revenue, material_payoff, queueing_outcomes_of

DEFAULT_WEAK_CAP = 6
DEFAULT_STRICT_CAP = 8

# the kinds `heads` orders, and under which tie propagation decides the anomaly
FULL_KINDS = (DomainKind.UNRESTRICTED, DomainKind.STRICT, DomainKind.WEAK_ONLY)

def full_kind(kind: DomainKind | str) -> DomainKind:
    """`kind`, or the kind a string names, after checking it is one of `FULL_KINDS`."""
    try:
        kind = DomainKind(kind)
    except ValueError:
        raise InvariantViolation(f"unknown domain kind {kind!r}") from None
    if kind not in FULL_KINDS:
        raise InvariantViolation("explicit domains need per-agent orderings")
    return kind


def heads(positions: Sequence[int], kind: DomainKind) -> Iterator[tuple[tuple, DomainKind]]:
    """(head, tail kind) for each first class over `positions`, in canonical order: the head rule.

    Heads come by increasing size, then lexicographically: any size for
    `unrestricted` and `weak_only`, single positions for `strict`.  The tail
    keeps the kind, except that `weak_only` takes an unrestricted tail after
    a head of two or more, whose class is already an indifference.  This is
    the order of every full domain: the rows whose first class is a head
    form one contiguous block, blocks follow the heads' order, and inside a
    block the tail's rows follow the tail kind's order over the remaining
    positions.  No count is made, so any number of positions can be walked.
    """
    larger = DomainKind.UNRESTRICTED if kind is DomainKind.WEAK_ONLY else kind
    for size in range(1, 2 if kind is DomainKind.STRICT else len(positions) + 1):
        tail = kind if size == 1 else larger
        for head in itertools.combinations(positions, size):
            yield head, tail


@functools.cache
def row_count(n: int, kind: DomainKind) -> int:
    """Number of orderings in the full domain of `kind` over n pair positions.

    Strict orders are the n! permutations; weak orders number the ordered
    Bell number (a first class of each size, then a weak order of the rest);
    weak-only orders are the weak orders that are not strict.
    """
    strict = math.factorial(n)
    if kind is DomainKind.STRICT:
        return strict
    weak = _weak_counts
    for m in range(len(weak), n + 1):
        count = 0
        for size in range(1, m + 1):
            count += math.comb(m, size) * weak[m - size]
        weak.append(count)
    return weak[n] - strict if kind is DomainKind.WEAK_ONLY else weak[n]


_weak_counts = [1]  # _weak_counts[m]: weak orders over m positions, each counted once


def first_ranks(n: int, state, kind: DomainKind, below: Callable) -> list[int]:
    """Each position's class index under the canonically first ordering of `kind` a walk completes.

    The walk starts from `state` over all n positions and goes depth by
    depth.  `below(head, state, k, tail)` places `head` on top of the
    remaining positions: it returns the state after it, or None when no
    ordering of `tail` over the k positions left below completes it.  At
    each depth the first head that `heads` yields over the remaining
    positions and that `below` accepts is taken.  Rows led by one head form
    one block and blocks follow the heads, so that head leads the first
    completed row.  Each depth goes on inside that block alone, with no
    count made, so any number of positions is walked.  Requires that some
    ordering of `kind` completes `state`.
    """
    ranks = [0] * n
    rest = list(range(n))
    depth = 0
    while rest:  # `state` describes the positions of `rest`, and `kind` is their kind
        for head, tail in heads(rest, kind):
            placed = below(head, state, len(rest) - len(head), tail)
            if placed is not None:
                break
        else:
            raise InvariantViolation(
                f"no {kind.value} ordering of positions {rest} completes {state!r}"
            )
        for p in head:
            ranks[p] = depth
        rest = [p for p in rest if p not in head]
        kind, state = tail, placed
        depth += 1
    return ranks


def rows(n: int, kind: DomainKind) -> Iterator[tuple[int, ...]]:
    """Rank vectors of every ordering in a full domain over pair positions 0..n-1, lazily.

    Each row gives each position's class index (0 is best) under one
    ordering, in the order `heads` states: the first class varies slowest
    and the tail recurses the same way.  The recursion fills one list of
    ranks head by head and copies it at each leaf; nothing is kept between
    rows, so a row is made only when it is asked for.
    """
    ranks = [0] * n

    def fill(rest: list[int], kind: DomainKind, depth: int) -> Iterator[tuple[int, ...]]:
        if not rest:
            yield from (tuple(ranks),) * row_count(0, kind)  # none for `weak_only`
            return
        for head, tail in heads(rest, kind):
            for p in head:
                ranks[p] = depth
            yield from fill([p for p in rest if p not in head], tail, depth + 1)

    return fill(list(range(n)), kind, 0)


def orderings(
    kind: DomainKind, agent: int, pairs: Iterable[Pair], cap: int | None = None
) -> Iterator[Ordering]:
    """Every ordering of a full domain kind over the pairs, in `rows` order.

    The checks run when this is called, before anything is iterated: there
    must be some pairs, none twice, and `check_size` must pass.
    """
    pairs = tuple(tuple(p) for p in pairs)
    if not pairs:
        raise InvariantViolation("need at least one pair to enumerate orderings")
    if len(set(pairs)) != len(pairs):
        raise InvariantViolation("duplicate pairs")
    check_size(kind, len(pairs), cap)
    return (Ordering.from_ranks(agent, pairs, ranks) for ranks in rows(len(pairs), kind))


def check_size(kind: DomainKind, n: int, cap: int | None) -> None:
    """Check that a full domain of `kind` over n pairs can be enumerated under `cap`.

    Raises InvariantViolation for a `cap` that is neither None nor an int >= 0.
    Raises CapExceeded for more pairs than `cap` (by default the strict or
    the weak cap, by kind), and, whatever `cap` says, for more orderings
    than `sys.maxsize`.  The search walks a full kind with no listing, so
    it needs neither bound; both stay only so that no pinned verdict moves
    until the caps are lifted together.
    """
    if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 0):
        raise InvariantViolation(f"cap must be None or an int >= 0, got {cap!r}")
    strict = kind is DomainKind.STRICT
    if cap is None:
        cap = DEFAULT_STRICT_CAP if strict else DEFAULT_WEAK_CAP
    if n > cap:
        what = "strict-order" if strict else "weak-order"
        raise CapExceeded(f"{n} pairs exceed the {what} enumeration cap of {cap}")
    # 21! > 2**63: past 20 pairs every kind is over the bound, and row_count is not asked
    if n > 20 or row_count(n, kind) > sys.maxsize:
        raise CapExceeded(
            f"{n} pairs give the {kind.value} domain more orderings than "
            f"sys.maxsize ({sys.maxsize})"
        )


def enumerate_weak_orderings(
    agent: int, pairs: Iterable[Pair], cap: int | None = None
) -> Iterator[Ordering]:
    """Every weak order over the pairs, exactly once, in a fixed order."""
    return orderings(DomainKind.UNRESTRICTED, agent, pairs, cap)


def enumerate_strict_orderings(
    agent: int, pairs: Iterable[Pair], cap: int | None = None
) -> Iterator[Ordering]:
    """Every strict (all-singleton) order, i.e. every permutation of the pairs."""
    return orderings(DomainKind.STRICT, agent, pairs, cap)


def enumerate_weak_only_orderings(
    agent: int, pairs: Iterable[Pair], cap: int | None = None
) -> Iterator[Ordering]:
    """Weak orders with at least one non-trivial indifference class."""
    return orderings(DomainKind.WEAK_ONLY, agent, pairs, cap)


def domain_rank_vectors(
    env: Environment, agent: int, spec: DomainSpec, cap: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Rank vectors of the agent's admissible orderings over its canonical pairs.

    A full domain kind gives its `rows` over the agent's pair count, after
    `check_size`; an explicit domain gives its listed orderings' ranks, in
    order.
    """
    pairs = env.pairs_for(agent)
    if spec.kind is DomainKind.EXPLICIT:
        validate_explicit_domain(env, agent, spec)
        return tuple(tuple(o.rank(p) for p in pairs) for o in spec.orderings)
    check_size(spec.kind, len(pairs), cap)
    return tuple(rows(len(pairs), spec.kind))


def domain_orderings(
    env: Environment, agent: int, spec: DomainSpec, cap: int | None = None
) -> tuple[Ordering, ...]:
    """Materialize the admissible orderings of one agent in enumeration order."""
    pairs, table = env.pairs_for(agent), domain_rank_vectors(env, agent, spec, cap)
    return tuple(Ordering.from_ranks(agent, pairs, ranks) for ranks in table)


def resolve_domains(
    env: Environment,
    domains: Sequence[DomainSpec] | DomainSpec | DomainKind | str | None = None,
) -> tuple[DomainSpec, ...]:
    """Normalize a domains argument to one DomainSpec per agent.

    Accepts None (use the environment's), a single kind or spec applied to
    every agent, or an explicit per-agent sequence.
    """
    if domains is None:
        return env.domains
    if isinstance(domains, (str, DomainKind)):
        domains = DomainSpec(full_kind(domains))
    if isinstance(domains, DomainSpec):
        if domains.kind is DomainKind.EXPLICIT:
            raise InvariantViolation("explicit domains must be given per agent")
        return tuple(domains for _ in range(env.n))
    specs = as_domain_specs(domains)
    if len(specs) != env.n:
        raise InvariantViolation(f"expected {env.n} domain specs, got {len(specs)}")
    for i, spec in enumerate(specs):
        if spec.kind is DomainKind.EXPLICIT:
            validate_explicit_domain(env, i, spec)
    return specs


# --- structural predicates --------------------------------------------------


def _ordering_actions(ordering: Ordering) -> list[str]:
    return sorted({a for a, _ in ordering.pairs})


def _ordering_outcomes(ordering: Ordering) -> list[str]:
    return sorted({z for _, z in ordering.pairs})


def is_classical(ordering: Ordering) -> bool:
    """True iff the ranking depends on the outcome coordinate only."""
    actions = _ordering_actions(ordering)
    base = actions[0]
    return all(
        ordering.indifferent((base, z), (x, z))
        for z in _ordering_outcomes(ordering)
        for x in actions[1:]
    )


class SeparabilityViolation(Value):
    """First quadruple breaking one of the two separability clauses."""

    _fields = ("clause", "x", "x_alt", "z", "z_alt")

    def __init__(self, clause: int, x: str, x_alt: str, z: str, z_alt: str) -> None:
        set_field(self, "clause", clause)
        set_field(self, "x", x)
        set_field(self, "x_alt", x_alt)
        set_field(self, "z", z)
        set_field(self, "z_alt", z_alt)


def separability_violation(ordering: Ordering) -> SeparabilityViolation | None:
    """Search for a failure of separability, scanning in sorted-label order.

    Clause 1: the outcome comparison at a fixed own action must not depend on
    which action it is.  Clause 2: the own-action comparison at a fixed
    outcome must not depend on which outcome it is.  So when every pair is
    ranked, the ordering is separable iff all actions rank the outcomes
    alike and all outcomes rank the actions alike, which is checked first;
    the scan runs only to name the first violation.
    """
    actions = _ordering_actions(ordering)
    outcomes = _ordering_outcomes(ordering)
    ranks = ordering._ranks
    if len(ranks) == len(actions) * len(outcomes):  # every (action, outcome) pair is ranked
        rows = [[ranks[x, z] for z in outcomes] for x in actions]
        if len(set(map(_dense, rows))) == 1 and len(set(map(_dense, zip(*rows)))) == 1:
            return None
    try:
        for x in actions:
            for x_alt in actions:
                if x_alt == x:
                    continue
                for z in outcomes:
                    for z_alt in outcomes:
                        if ranks[x, z] <= ranks[x, z_alt] and ranks[x_alt, z] > ranks[x_alt, z_alt]:
                            return SeparabilityViolation(1, x, x_alt, z, z_alt)
                        if ranks[x, z] <= ranks[x_alt, z] and ranks[x, z_alt] > ranks[x_alt, z_alt]:
                            return SeparabilityViolation(2, x, x_alt, z, z_alt)
    except KeyError as exc:  # not every (action, outcome) pair is ranked
        raise UnknownPair(f"pair {exc.args[0]!r} is not in the ordering's partition") from None
    return None


def _dense(ranks) -> tuple[int, ...]:
    """Each rank's index among the distinct ranks: the weak order `ranks` induces."""
    classes = {rank: k for k, rank in enumerate(sorted(set(ranks)))}
    return tuple(classes[rank] for rank in ranks)


def is_separable(ordering: Ordering) -> bool:
    return separability_violation(ordering) is None


def classical_orderings(
    agent: int, actions: Sequence[str], outcomes: Sequence[str]
) -> Iterator[Ordering]:
    """Every classical ordering: a weak order over outcomes lifted to pairs."""
    pairs = tuple((a, z) for a in actions for z in outcomes)
    return (
        Ordering.from_ranks(agent, pairs, ranks * len(actions))
        for ranks in rows(len(outcomes), DomainKind.UNRESTRICTED)
    )


def indifferent_ordering(agent: int, actions: Sequence[str], outcomes: Sequence[str]) -> Ordering:
    """The single-class ordering: indifferent between everything."""
    return Ordering(agent, (frozenset((a, z) for a in actions for z in outcomes),))


# --- queueing preferences ---------------------------------------------------


def _grouped(keyed: Iterable[tuple[object, str]]) -> list[list[str]]:
    """The labels of (key, label) items grouped by equal key, groups by ascending key."""
    ordered = sorted(keyed, key=lambda kl: kl[0])
    groups = itertools.groupby(ordered, key=lambda kl: kl[0])
    return [[label for _, label in group] for _, group in groups]


def _lexicographic(
    agent: int, by_outcome: list[list[str]], by_action: Sequence[Sequence[str]]
) -> Ordering:
    """Pairs ranked by their outcome's group, then by their action's group."""
    return Ordering(
        agent,
        tuple(
            frozenset(itertools.product(actions, labels))
            for labels in by_outcome
            for actions in by_action
        ),
    )


def build_queueing_pref_1(params: QueueingParams, env: Environment) -> Ordering:
    """Patient 1's lexicographic expressive preference.

    Ranks (report, outcome) pairs by material payoff (higher first), then
    clinic revenue (higher first), then honesty of the report -- distance of
    the report from the true waiting cost (smaller first).  Pairs tying on
    all three are indifferent.  The first two keys depend on the outcome
    only and the third on the report only, so outcomes and reports are each
    ranked once.
    """
    outcomes = queueing_outcomes_of(env)
    by_outcome = _grouped(
        ((-material_payoff(outcome, params, 0), -clinic_revenue(outcome)), label)
        for label, outcome in outcomes.items()
    )
    by_report = _grouped((abs(params.theta1 - Fraction(a)), a) for a in env.actions[0])
    return _lexicographic(0, by_outcome, by_report)


def build_queueing_pref_2(params: QueueingParams, env: Environment) -> Ordering:
    """Patient 2's classical preference: material payoff only."""
    outcomes = queueing_outcomes_of(env)
    by_outcome = _grouped(
        (-material_payoff(outcome, params, 1), label) for label, outcome in outcomes.items()
    )
    return _lexicographic(1, by_outcome, [env.actions[1]])
