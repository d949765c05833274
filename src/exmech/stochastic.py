"""Probabilistic mechanisms, first-order stochastic dominance, and anomaly search.

A probabilistic mechanism maps each action profile to an exact-rational
distribution over outcomes.  Lotteries pair one own action with such a
distribution; comparisons between them use first-order stochastic dominance
through upper-contour probabilities: the chance of landing weakly above a
target pair must be at least as large everywhere and strictly larger
somewhere.

`phi` and `fsd` are the reference definition in `Fraction` arithmetic; every
witness is re-checked with them.  The anomaly search does not call them: it
compares integer class masses over the rows of the agent's rank table, which
gives the same verdicts because `phi` depends on its target only through the
target's indifference class.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    ActionsEqual,
    AgentMismatch,
    InvariantViolation,
    NotStrict,
    ParseError,
    UnknownPair,
)
from .model import (
    BAWitness,
    DomainKind,
    DomainSpec,
    Environment,
    Ordering,
    Pair,
    Profile,
    SubProfile,
    check_profile_table,
    enumerate_profiles,
    full_profile,
    profile_rows,
)
from .queueing import parse_fraction
from .search import SearchResult, check_certificate, search_witness


@dataclass(frozen=True)
class Distribution:
    """Exact probability vector over outcome labels; must sum to one.

    Keys should cover the full outcome set explicitly (zeros included) so
    that equality of distributions is plain dict equality.
    """

    probs: dict[str, Fraction]

    def __post_init__(self) -> None:
        probs = {str(z): Fraction(p) for z, p in self.probs.items()}
        object.__setattr__(self, "probs", probs)
        if any(p < 0 for p in probs.values()):
            raise InvariantViolation("negative probability")
        if sum(probs.values()) != 1:
            raise InvariantViolation("probabilities must sum to 1")

    def __getitem__(self, outcome: str) -> Fraction:
        return self.probs.get(outcome, Fraction(0))

    @classmethod
    def uniform(cls, outcomes: Iterable[str]) -> "Distribution":
        outcomes = tuple(outcomes)
        return cls({z: Fraction(1, len(outcomes)) for z in outcomes})

    @classmethod
    def point_mass(cls, outcome: str, outcomes: Iterable[str]) -> "Distribution":
        return cls({z: Fraction(1 if z == outcome else 0) for z in outcomes})


def is_totally_mixed(dist: Distribution) -> bool:
    """Strictly positive probability on every outcome."""
    return all(p > 0 for p in dist.probs.values())


@dataclass(frozen=True)
class Lottery:
    """One own action together with a distribution over outcomes."""

    action: str
    dist: Distribution


@dataclass(frozen=True)
class ProbMechanism:
    """Total map from action profiles to outcome distributions."""

    env: Environment
    table: Mapping[Profile, Distribution]

    def __post_init__(self) -> None:
        table = {tuple(k): v for k, v in self.table.items()}
        object.__setattr__(self, "table", table)
        check_profile_table(self.env, table)
        outcomes = set(self.env.outcomes)
        for profile, dist in table.items():
            if not isinstance(dist, Distribution):
                raise InvariantViolation(f"value at {profile!r} is not a distribution")
            if set(dist.probs) != outcomes:
                raise InvariantViolation(
                    f"distribution at {profile!r} must cover every outcome exactly"
                )

    def dist(self, profile: Profile) -> Distribution:
        return self.table[tuple(profile)]

    def dist_at(self, agent: int, action: str, sub: SubProfile) -> Distribution:
        return self.table[full_profile(sub, agent, action)]


def is_completely_mixed(mech: ProbMechanism) -> bool:
    """Totally mixed at every profile."""
    return all(is_totally_mixed(d) for d in mech.table.values())


# --- first-order stochastic dominance ----------------------------------------


def phi(ordering: Ordering, lottery: Lottery, target: Pair) -> Fraction:
    """Probability of drawing a pair weakly preferred to `target`.

    Under the lottery the agent gets (action, z) with probability dist(z);
    pairs with any other action never occur.
    """
    try:
        limit = ordering.rank(target)
        action = lottery.action
        total = Fraction(0)
        for z, p in lottery.dist.probs.items():
            if p and ordering.rank((action, z)) <= limit:
                total += p
        return total
    except UnknownPair as exc:
        raise AgentMismatch(str(exc)) from None


def fsd(ordering: Ordering, lhs: Lottery, rhs: Lottery) -> bool:
    """True iff `lhs` first-order stochastically dominates `rhs`.

    The upper-contour probability of `lhs` must weakly exceed that of `rhs`
    at every target pair, strictly at one; irreflexive and asymmetric by
    construction.
    """
    strict = False
    for target in ordering._ranks:
        pl = phi(ordering, lhs, target)
        pr = phi(ordering, rhs, target)
        if pl < pr:
            return False
        if pl > pr:
            strict = True
    return strict


class DominanceBlock(Enum):
    """Which direction of dominance a strict ordering rules out.

    R_TOP: the pair (r, best outcome for r) beats (l, best outcome for l), so
    no l-lottery can dominate an r-lottery when both distributions are
    totally mixed.  L_TOP is the mirror statement.
    """

    R_TOP = "r_top"
    L_TOP = "l_top"


def best_outcome(ordering: Ordering, action: str) -> str:
    """The outcome making (action, outcome) best; unique for strict orderings."""
    outcomes = [z for a, z in ordering.pairs if a == action]
    if not outcomes:
        raise UnknownPair(f"action {action!r} does not appear in the ordering")
    return min(outcomes, key=lambda z: ordering.rank((action, z)))


def dominance_dichotomy(ordering: Ordering, r: str, l: str) -> DominanceBlock:
    """Decide which of the two blocking statements holds for a strict ordering.

    Whichever action carries the globally better top pair can never be
    dominated from the other action under totally mixed distributions: its
    top pair keeps positive upper-contour probability while the other
    action's lotteries assign it zero.
    """
    if not ordering.is_strict:
        raise NotStrict("the dichotomy requires a strict ordering")
    if r == l:
        raise ActionsEqual("need two distinct actions")
    top_r = (r, best_outcome(ordering, r))
    top_l = (l, best_outcome(ordering, l))
    return DominanceBlock.R_TOP if ordering.rank(top_r) < ordering.rank(top_l) else DominanceBlock.L_TOP


# --- exhaustive witness search -------------------------------------------------


def validate_prob_witness(
    mech: ProbMechanism, witness: BAWitness, domain: DomainSpec | None = None
) -> None:
    """Re-check the probabilistic certificate conditions; raise on failure.

    With a `domain`, the witness ordering must also belong to it.
    """
    check_certificate(mech.env, witness, mech.dist_at, _fsd_pairs, _fsd_pairs, domain)


def _fsd_pairs(ordering: Ordering, lhs: tuple, rhs: tuple) -> bool:
    """`fsd` on two (action, distribution) pairs."""
    return fsd(ordering, Lottery(*lhs), Lottery(*rhs))


def _class_terms(index: Mapping[Pair, int], lhs, rhs) -> list[tuple[int, int]]:
    """`lhs` minus `rhs` as (pair position, signed integer mass) terms.

    `lhs` and `rhs` are (action, distribution) lotteries.  Masses are scaled
    by the least common denominator of both distributions, and
    zero-probability outcomes are dropped.
    """
    scale = math.lcm(*(p.denominator for _, dist in (lhs, rhs) for p in dist.probs.values()))
    return [
        (index[(action, z)], sign * p.numerator * (scale // p.denominator))
        for (action, dist), sign in ((lhs, 1), (rhs, -1))
        for z, p in dist.probs.items()
        if p
    ]


def _dominates(rv: Sequence[int], terms: list[tuple[int, int]]) -> bool:
    """`fsd` under the ordering with rank vector `rv`, for the lotteries behind `terms`.

    `phi` depends on its target only through the target's class, so the
    upper-contour differences are the prefix sums of the class masses, best
    class first: all must be non-negative and one positive.
    """
    mass = [0] * len(rv)
    for position, m in terms:
        mass[rv[position]] += m
    strict = False
    total = 0
    for m in mass:
        total += m
        if total < 0:
            return False
        if total:
            strict = True
    return strict


class _FSDKernel:
    """Lottery comparisons for one agent over the rows of its rank table.

    Each comparison becomes integer class-mass terms once (`_class_terms`)
    and is then decided row by row (`_dominates`) without building orderings
    or fractions; `phi` and `fsd` stay the reference that witnesses are
    validated against.  Dominance is irreflexive, so condition (iii) is
    quantified over the other actions only.
    """

    def __init__(self, index: Mapping[Pair, int], table):
        self._vectors = table
        self._index = index

    def protest(self, r: str, l: str, ga: Distribution) -> list[int]:
        terms = _class_terms(self._index, (l, ga), (r, ga))
        return [o for o, rv in enumerate(self._vectors) if _dominates(rv, terms)]

    def best_response(self, anchor, rivals, candidates: list[int]) -> int | None:
        rival_terms = [_class_terms(self._index, anchor, rival) for rival in rivals]
        for o in candidates:
            rv = self._vectors[o]
            if all(_dominates(rv, terms) for terms in rival_terms):
                return o
        return None


def search_prob_ba_witness(
    mech: ProbMechanism,
    domains: Sequence[DomainSpec] | DomainSpec | DomainKind | str | None = None,
    *,
    cap: int | None = None,
) -> SearchResult:
    """Exhaustive probabilistic anomaly search in canonical order.

    Condition (i) is exact distribution equality; (ii) and (iii) use
    first-order stochastic dominance.  The search order is that of
    `search.search_witness`.
    """
    return search_witness(
        mech.env, mech.dist_at, domains, lambda _spec, index, table: _FSDKernel(index, table), cap
    )


def find_prob_ba_witness(
    mech: ProbMechanism,
    domains: Sequence[DomainSpec] | DomainSpec | DomainKind | str | None = None,
    *,
    cap: int | None = None,
) -> BAWitness | None:
    """Canonically first probabilistic anomaly witness, or None."""
    return search_prob_ba_witness(mech, domains, cap=cap).witness


# --- builders -----------------------------------------------------------------


def build_relative_frequency(n: int, m: int) -> tuple[Environment, ProbMechanism]:
    """Each candidate is elected with probability (votes received) / n."""
    if n < 2 or m < 2:
        raise InvariantViolation("need at least two voters and two candidates")
    candidates = tuple(str(c) for c in range(1, m + 1))
    env = Environment.create(tuple(candidates for _ in range(n)), candidates)
    table = {
        profile: Distribution(
            {z: Fraction(sum(1 for a in profile if a == z), n) for z in candidates}
        )
        for profile in enumerate_profiles(env)
    }
    return env, ProbMechanism(env, table)


def build_mixed_counterexample() -> tuple[Environment, ProbMechanism]:
    """Completely mixed two-agent mechanism that still admits the anomaly.

    Its two left-column rows carry identical distributions, and a non-strict
    preference over agent 1's pairs turns that tie into a certificate.
    """
    env = Environment.create((("a0", "a1"), ("b0", "b1")), ("z0", "z1"))
    rows = {
        ("a0", "b0"): (Fraction(1, 3), Fraction(2, 3)),
        ("a0", "b1"): (Fraction(1, 2), Fraction(1, 2)),
        ("a1", "b0"): (Fraction(1, 3), Fraction(2, 3)),
        ("a1", "b1"): (Fraction(3, 4), Fraction(1, 4)),
    }
    table = {
        profile: Distribution({"z0": p0, "z1": p1}) for profile, (p0, p1) in rows.items()
    }
    return env, ProbMechanism(env, table)


def counterexample_preference() -> Ordering:
    """Agent 1's non-strict ordering used with the mixed counterexample."""
    return Ordering(
        0,
        (
            frozenset({("a0", "z1"), ("a1", "z0")}),
            frozenset({("a0", "z0"), ("a1", "z1")}),
        ),
    )


MIXED_WEIGHT_DENOMINATOR = 12


def random_totally_mixed(outcomes: Sequence[str], rng: random.Random) -> Distribution:
    """Draw positive rational weights k/MIXED_WEIGHT_DENOMINATOR and renormalize."""
    ks = [rng.randint(1, MIXED_WEIGHT_DENOMINATOR - 1) for _ in outcomes]
    total = sum(ks)
    return Distribution({z: Fraction(k, total) for z, k in zip(outcomes, ks)})


def random_completely_mixed_mechanism(env: Environment, rng: random.Random) -> ProbMechanism:
    table = {profile: random_totally_mixed(env.outcomes, rng) for profile in enumerate_profiles(env)}
    return ProbMechanism(env, table)


# --- JSON ------------------------------------------------------------------------


def prob_mech_to_json(mech: ProbMechanism) -> dict:
    profiles = list(enumerate_profiles(mech.env))
    return {
        "profiles": [list(p) for p in profiles],
        "distributions": [
            [str(mech.dist(p)[z]) for z in mech.env.outcomes] for p in profiles
        ],
    }


def prob_mech_from_json(env: Environment, data: object) -> ProbMechanism:
    table = {}
    for profile, row in profile_rows(data, "distributions").items():
        if not isinstance(row, list) or len(row) != len(env.outcomes):
            raise ParseError("distribution row must list one probability per outcome")
        table[profile] = Distribution({z: parse_fraction(p) for z, p in zip(env.outcomes, row)})
    return ProbMechanism(env, table)
