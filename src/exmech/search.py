"""Canonical-order anomaly search and the certificate check for both mechanism kinds.

A deterministic outcome is a point-mass lottery, so the deterministic and the
probabilistic certificates differ only in how an ordering compares pairs or
lotteries.  This module owns everything else: the search order, the agents'
rank tables (`domains.domain_rank_vectors`), condition (i) (equality of the
mechanism's value at a), the statistics block, the witness ordering and the
witness check (`check_certificate`), to which each kind supplies only its
comparisons.  Row k of an agent's `table` ranks its pairs, in
`env.pairs_for(agent)` order, under its k-th admissible ordering; `index`
maps each of those pairs to its column.  Each mechanism kind supplies a
kernel factory, called as `make_kernel(spec, index, table)` once per agent
with the agent's resolved `DomainSpec`, whose kernel answers:

  protest(r, l, value_at_a)
      the set of table rows satisfying condition (ii), in a form of the
      kernel's choosing that the driver only tests for truth (true iff
      non-empty) and hands back unchanged;
  best_response(anchor, rivals, candidates)
      given that set, the index of the first row in table order under which
      condition (iii) holds, or None; `anchor` is (r, value at b) and
      `rivals` lists (x, value at b) for every other action x, in action
      order.

The deterministic kernel's row sets are bitsets over table rows; the
probabilistic kernel's are lists of row indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import domains
from .errors import InvariantViolation
from .model import (
    BAWitness,
    DomainKind,
    DomainSpec,
    Environment,
    Ordering,
    SubProfile,
    sub_profiles,
)


@dataclass(frozen=True)
class SearchResult:
    witness: BAWitness | None
    stats: dict


def search_witness(
    env: Environment,
    value_at: Callable[[int, str, SubProfile], object],
    domain_specs,
    make_kernel: Callable,
    cap: int | None = None,
) -> SearchResult:
    """Canonically first witness over the admissible orderings `domain_specs` resolve to.

    The search space is ordered by agent, then ordered action pairs (r, l),
    then ordered pairs of distinct sub-profiles (a, b), then orderings in
    rank-table order.  Condition (ii) does not depend on b, so it is
    evaluated once per a.  Raises CapExceeded if a full domain kind is too
    large to enumerate.
    """
    specs = domains.resolve_domains(env, domain_specs)
    # looked up on the module so that a wrapper installed there sees every search
    tables = [domains.domain_rank_vectors(env, i, spec, cap) for i, spec in enumerate(specs)]
    indexes = [{pair: k for k, pair in enumerate(env.pairs_for(i))} for i in range(env.n)]
    kernels = [make_kernel(*args) for args in zip(specs, indexes, tables)]
    subs_by_agent = tuple(tuple(sub_profiles(env, i)) for i in range(env.n))
    stats = {
        "agents": env.n,
        "action_pairs": sum(len(acts) * (len(acts) - 1) for acts in env.actions),
        "sub_profiles": [len(s) for s in subs_by_agent],
        "orderings_per_agent": [len(table) for table in tables],
    }
    for agent, (acts, subs, kernel) in enumerate(zip(env.actions, subs_by_agent, kernels)):
        for r in acts:
            for l in acts:
                if r == l:
                    continue
                for a in subs:
                    value = value_at(agent, r, a)
                    if value != value_at(agent, l, a):
                        continue
                    candidates = kernel.protest(r, l, value)
                    if not candidates:
                        continue
                    for b in subs:
                        if b == a:
                            continue
                        anchor = (r, value_at(agent, r, b))
                        rivals = [(x, value_at(agent, x, b)) for x in acts if x != r]
                        hit = kernel.best_response(anchor, rivals, candidates)
                        if hit is not None:
                            ordering = Ordering.from_ranks(
                                agent, env.pairs_for(agent), tables[agent][hit]
                            )
                            return SearchResult(BAWitness(agent, r, l, a, b, ordering), stats)
    return SearchResult(None, stats)


def check_certificate(
    env: Environment,
    witness: BAWitness,
    value_at: Callable[[int, str, SubProfile], object],
    beats_ii: Callable[[Ordering, tuple, tuple], bool],
    beats_iii: Callable[[Ordering, tuple, tuple], bool],
    domain: DomainSpec | None = None,
) -> None:
    """Re-check a witness against the mechanism `value_at` reads; raise on the first failure.

    The witness must name valid, distinct actions and sub-profiles and a
    full ordering of the agent's pairs.  With a `domain`, the ordering must
    also belong to it: all classes singletons under `strict`, some class of
    two or more pairs under `weak_only`, one of the listed orderings under
    `explicit`.  Then (i) r and l must give equal values at a; (ii)
    `beats_ii(ordering, (l, value), (r, value))` must hold for that value;
    and (iii) `beats_iii(ordering, (r, value of r at b), (x, value of x at
    b))` must hold for every action x other than r.
    """
    env.check_agent(witness.agent)
    acts = env.actions[witness.agent]
    if witness.r not in acts or witness.l not in acts:
        raise InvariantViolation("witness actions not in the agent's action set")
    if witness.r == witness.l:
        raise InvariantViolation("witness actions must be distinct")
    subs = set(sub_profiles(env, witness.agent))
    if witness.a_minus not in subs or witness.b_minus not in subs:
        raise InvariantViolation("witness sub-profiles not valid for the environment")
    if witness.a_minus == witness.b_minus:
        raise InvariantViolation("witness sub-profiles must be distinct")
    ordering = witness.ordering
    if ordering.agent != witness.agent:
        raise InvariantViolation("witness ordering tagged for a different agent")
    if ordering.pairs != frozenset(env.pairs_for(witness.agent)):
        raise InvariantViolation("witness ordering does not partition the agent's pairs")
    kind = domain.kind if domain is not None else DomainKind.UNRESTRICTED
    if kind is DomainKind.STRICT and not ordering.is_strict:
        raise InvariantViolation("witness ordering has an indifference, outside the strict domain")
    if kind is DomainKind.WEAK_ONLY and ordering.is_strict:
        raise InvariantViolation("witness ordering is strict, outside the weak-only domain")
    if kind is DomainKind.EXPLICIT and ordering not in domain.orderings:
        raise InvariantViolation("witness ordering is not one of the explicit domain's orderings")
    agent, r, l = witness.agent, witness.r, witness.l
    value = value_at(agent, r, witness.a_minus)
    if value != value_at(agent, l, witness.a_minus):
        raise InvariantViolation("condition (i) fails: r and l give different values at a_minus")
    if not beats_ii(ordering, (l, value), (r, value)):
        raise InvariantViolation("condition (ii) fails: the protest does not beat the tie")
    anchor = (r, value_at(agent, r, witness.b_minus))
    for x in acts:
        if x != r and not beats_iii(ordering, anchor, (x, value_at(agent, x, witness.b_minus))):
            raise InvariantViolation(f"condition (iii) fails against action {x!r}")
