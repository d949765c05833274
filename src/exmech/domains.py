"""Preference-domain generators and structural predicates.

Enumerates weak orders (ranked partitions), strict orders and weak-only
orders over an agent's action-outcome pairs, classifies orderings as
classical or separable, and builds the lexicographic queueing preferences.
Enumeration is capped because the number of weak orders grows like the
ordered Bell numbers (4683 already at six pairs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, InvariantViolation
from .model import (
    DomainKind,
    DomainSpec,
    Environment,
    Ordering,
    Pair,
    validate_explicit_domain,
)
from .queueing import QueueingParams, clinic_revenue, material_payoff, queueing_outcomes_of

DEFAULT_WEAK_CAP = 6
DEFAULT_STRICT_CAP = 8


def _ordered_set_partitions(elements: tuple) -> Iterator[tuple[frozenset, ...]]:
    """All ordered set partitions, first class varying slowest.

    The first class runs over non-empty subsets by increasing size, then
    lexicographically by element position; the tail recurses the same way.
    """
    if not elements:
        yield ()
        return
    for size in range(1, len(elements) + 1):
        for head in itertools.combinations(elements, size):
            head_set = frozenset(head)
            rest = tuple(e for e in elements if e not in head_set)
            for tail in _ordered_set_partitions(rest):
                yield (head_set,) + tail


def _checked_pairs(pairs: Iterable[Pair], cap: int, what: str) -> tuple[Pair, ...]:
    pairs = tuple(tuple(p) for p in pairs)
    if not pairs:
        raise InvariantViolation("need at least one pair to enumerate orderings")
    if len(set(pairs)) != len(pairs):
        raise InvariantViolation("duplicate pairs")
    if len(pairs) > cap:
        raise CapExceeded(f"{len(pairs)} pairs exceed the {what} enumeration cap of {cap}")
    return pairs


def enumerate_weak_orderings(
    agent: int, pairs: Iterable[Pair], cap: int = DEFAULT_WEAK_CAP
) -> Iterator[Ordering]:
    """Every weak order over the pairs, exactly once, in a fixed order."""
    pairs = _checked_pairs(pairs, cap, "weak-order")
    return (Ordering(agent, classes) for classes in _ordered_set_partitions(pairs))


def enumerate_strict_orderings(
    agent: int, pairs: Iterable[Pair], cap: int = DEFAULT_STRICT_CAP
) -> Iterator[Ordering]:
    """Every strict (all-singleton) order, i.e. every permutation of the pairs."""
    pairs = _checked_pairs(pairs, cap, "strict-order")
    return (
        Ordering(agent, tuple(frozenset((p,)) for p in perm))
        for perm in itertools.permutations(pairs)
    )


def enumerate_weak_only_orderings(
    agent: int, pairs: Iterable[Pair], cap: int = DEFAULT_WEAK_CAP
) -> Iterator[Ordering]:
    """Weak orders with at least one non-trivial indifference class."""
    return (o for o in enumerate_weak_orderings(agent, pairs, cap) if not o.is_strict)


_DOMAIN_CACHE: dict[tuple, tuple[Ordering, ...]] = {}
_RANK_CACHE: dict[tuple, tuple[tuple[int, ...], ...]] = {}


def domain_orderings(
    env: Environment, agent: int, spec: DomainSpec, cap: int | None = None
) -> tuple[Ordering, ...]:
    """Materialize the admissible orderings of one agent, memoized per shape."""
    env.check_agent(agent)
    if spec.kind is DomainKind.EXPLICIT:
        validate_explicit_domain(env, agent, spec)
        return spec.orderings
    key = (agent, env.actions[agent], env.outcomes, spec.kind, cap)
    cached = _DOMAIN_CACHE.get(key)
    if cached is None:
        pairs = env.pairs_for(agent)
        if cap is None:
            cap = DEFAULT_STRICT_CAP if spec.kind is DomainKind.STRICT else DEFAULT_WEAK_CAP
        if spec.kind is DomainKind.UNRESTRICTED:
            gen = enumerate_weak_orderings(agent, pairs, cap)
        elif spec.kind is DomainKind.STRICT:
            gen = enumerate_strict_orderings(agent, pairs, cap)
        else:
            gen = enumerate_weak_only_orderings(agent, pairs, cap)
        cached = _DOMAIN_CACHE[key] = tuple(gen)
    return cached


def domain_rank_vectors(
    env: Environment, agent: int, spec: DomainSpec, cap: int | None = None
) -> tuple[tuple[Ordering, ...], tuple[tuple[int, ...], ...]]:
    """Orderings plus their rank vectors over the canonical pair order.

    Rank vectors let the witness search compare pairs by integer index
    without per-ordering dict lookups.
    """
    orderings = domain_orderings(env, agent, spec, cap)
    if spec.kind is DomainKind.EXPLICIT:
        pairs = env.pairs_for(agent)
        return orderings, tuple(tuple(o.rank(p) for p in pairs) for o in orderings)
    key = (agent, env.actions[agent], env.outcomes, spec.kind, cap)
    vectors = _RANK_CACHE.get(key)
    if vectors is None:
        pairs = env.pairs_for(agent)
        vectors = _RANK_CACHE[key] = tuple(
            tuple(o.rank(p) for p in pairs) for o in orderings
        )
    return orderings, vectors


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
    if isinstance(domains, str):
        domains = DomainKind(domains)
    if isinstance(domains, DomainKind):
        if domains is DomainKind.EXPLICIT:
            raise InvariantViolation("explicit domains need per-agent orderings")
        domains = DomainSpec(domains)
    if isinstance(domains, DomainSpec):
        if domains.kind is DomainKind.EXPLICIT:
            raise InvariantViolation("explicit domains must be given per agent")
        return tuple(domains for _ in range(env.n))
    specs = tuple(domains)
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


@dataclass(frozen=True)
class SeparabilityViolation:
    """First quadruple breaking one of the two separability clauses."""

    clause: int
    x: str
    x_alt: str
    z: str
    z_alt: str


def separability_violation(ordering: Ordering) -> SeparabilityViolation | None:
    """Search for a failure of separability, scanning in sorted-label order.

    Clause 1: the outcome comparison at a fixed own action must not depend on
    which action it is.  Clause 2: the own-action comparison at a fixed
    outcome must not depend on which outcome it is.
    """
    actions = _ordering_actions(ordering)
    outcomes = _ordering_outcomes(ordering)
    weakly = ordering.weakly_prefers
    for x in actions:
        for x_alt in actions:
            if x_alt == x:
                continue
            for z in outcomes:
                for z_alt in outcomes:
                    if weakly((x, z), (x, z_alt)) and not weakly((x_alt, z), (x_alt, z_alt)):
                        return SeparabilityViolation(1, x, x_alt, z, z_alt)
                    if weakly((x, z), (x_alt, z)) and not weakly((x, z_alt), (x_alt, z_alt)):
                        return SeparabilityViolation(2, x, x_alt, z, z_alt)
    return None


def is_separable(ordering: Ordering) -> bool:
    return separability_violation(ordering) is None


def classical_orderings(
    agent: int, actions: Sequence[str], outcomes: Sequence[str]
) -> Iterator[Ordering]:
    """Every classical ordering: a weak order over outcomes lifted to pairs."""
    for outcome_classes in _ordered_set_partitions(tuple(outcomes)):
        yield Ordering(
            agent,
            tuple(frozenset((a, z) for a in actions for z in cls) for cls in outcome_classes),
        )


def indifferent_ordering(agent: int, actions: Sequence[str], outcomes: Sequence[str]) -> Ordering:
    """The single-class ordering: indifferent between everything."""
    return Ordering(agent, (frozenset((a, z) for a in actions for z in outcomes),))


# --- queueing preferences ---------------------------------------------------


def _grouped_by_key(agent: int, keyed_pairs: list[tuple[tuple, Pair]]) -> Ordering:
    keyed_pairs.sort(key=lambda kp: kp[0])
    classes = [
        frozenset(pair for _, pair in group)
        for _, group in itertools.groupby(keyed_pairs, key=lambda kp: kp[0])
    ]
    return Ordering(agent, tuple(classes))


def build_queueing_pref_1(params: QueueingParams, env: Environment) -> Ordering:
    """Patient 1's lexicographic expressive preference.

    Ranks (report, outcome) pairs by material payoff (higher first), then
    clinic revenue (higher first), then honesty of the report -- distance of
    the report from the true waiting cost (smaller first).  Pairs tying on
    all three are indifferent.
    """
    from fractions import Fraction

    outcomes = queueing_outcomes_of(env)
    keyed = []
    for action in env.actions[0]:
        report = Fraction(action)
        for label, outcome in outcomes.items():
            key = (
                -material_payoff(outcome, params, 0),
                -clinic_revenue(outcome),
                abs(params.theta1 - report),
            )
            keyed.append((key, (action, label)))
    return _grouped_by_key(0, keyed)


def build_queueing_pref_2(params: QueueingParams, env: Environment) -> Ordering:
    """Patient 2's classical preference: material payoff only."""
    outcomes = queueing_outcomes_of(env)
    keyed = [
        ((-material_payoff(outcome, params, 1),), (action, label))
        for action in env.actions[1]
        for label, outcome in outcomes.items()
    ]
    return _grouped_by_key(1, keyed)
