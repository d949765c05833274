"""Probabilistic mechanisms, first-order stochastic dominance, and anomaly search.

A probabilistic mechanism maps each action profile to an exact-rational
distribution over outcomes.  Lotteries pair one own action with such a
distribution; comparisons between them use first-order stochastic dominance
through upper-contour probabilities: the chance of landing weakly above a
target pair must be at least as large everywhere and strictly larger
somewhere.

`phi` is the reference definition in `Fraction` arithmetic; `fsd` compares
its differences as integer prefix sums over the ordering's classes, and every
witness is re-checked with it.  The anomaly search reads neither them nor
rank vectors: `_fsd_relations` sums integer masses by pair column and
partitions all rows at once with the shared `le` row sets, in O(k^2 *
min(rows, distinct sums)) big-int operations for k mass-carrying columns.
A `Distribution` hashes consistently with equality, so the search interns
each agent's distributions and decides each tied distribution once per
action pair: one (ii) call, then (iii) at most once per signature (the
distributions of every action at a sub-profile) other than the tie's own.
That relies on dominance being asymmetric, the contract
`search.search_witness` states.  On a full kind the search first asks
`_chain_test`, which decides from the tied distribution, the anchor's and
the l-rival's alone, as a chain over pairs of outcome sets, whether some
ordering of the kind completes the tuple; only the tuple that gives the
witness reaches the rows.  Under `strict`, totally mixed tied and l-rival
distributions fail the chain's first step (the dominance dichotomy), so a
completely mixed mechanism is found NBA with no row built.  Explicit
domains are searched over their rows alone.
"""

from __future__ import annotations

import functools
import math
import random
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
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
    Value,
    check_profile_table,
    enumerate_profiles,
    full_profile,
    profile_rows,
    set_field,
)
from .queueing import parse_fraction
from .search import SearchResult, check_certificate, search_witness


class Distribution(Value):
    """Exact probability vector over outcome labels; must sum to one.

    Keys should cover the full outcome set explicitly (zeros included) so
    that equality of distributions is plain mapping equality.  `probs` is a
    read-only view, so a distribution shared between mechanisms cannot
    change.  Validation reads each probability's numerator and denominator
    once and keeps `scale`, the least common denominator, and `weights`, the
    (outcome, probability * scale) pairs of nonzero mass, so the sign and
    sum checks and `fsd` run on ints.  A `Fraction` is kept in lowest terms,
    so equal distributions have equal scales and weights, and hashing those
    avoids `Fraction.__hash__`, which runs in Python.  That lets the search
    intern each agent's distributions to small ints.
    """

    _fields = ("probs",)

    def __init__(self, probs: Mapping[str, Fraction]) -> None:
        set_field(self, "probs", probs)
        self.__post_init__()

    def __post_init__(self) -> None:
        probs = {z: p if type(p) is Fraction else Fraction(p) for z, p in self.probs.items()}
        if not all(isinstance(z, str) for z in probs):
            raise InvariantViolation("distribution keys must be outcome labels (strings)")
        ratios = [(z, *p.as_integer_ratio()) for z, p in probs.items()]
        if any(n < 0 for _, n, _ in ratios):
            raise InvariantViolation("negative probability")
        scale = math.lcm(*(d for _, _, d in ratios))
        weights = tuple((z, n * (scale // d)) for z, n, d in ratios if n)
        if sum(w for _, w in weights) != scale:
            raise InvariantViolation("probabilities must sum to 1")
        set_field(self, "probs", MappingProxyType(probs))
        set_field(self, "scale", scale)
        set_field(self, "weights", weights)

    def __hash__(self) -> int:
        return hash(frozenset(self.weights))

    def __reduce__(self):  # a mappingproxy does not pickle or deep-copy; rebuild from a dict
        return Distribution, (dict(self.probs),)

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
    """Strictly positive probability on every outcome: each carries a weight."""
    return len(dist.weights) == len(dist.probs)


class Lottery(Value):
    """One own action together with a distribution over outcomes."""

    _fields = ("action", "dist")

    def __init__(self, action: str, dist: Distribution) -> None:
        set_field(self, "action", action)
        set_field(self, "dist", dist)


class ProbMechanism(Value):
    """Total map from action profiles to outcome distributions."""

    _fields = ("env", "table")

    def __init__(self, env: Environment, table: Mapping[Profile, Distribution]) -> None:
        set_field(self, "env", env)
        set_field(self, "table", table)
        self.__post_init__()

    def __post_init__(self) -> None:
        table = {tuple(k): v for k, v in self.table.items()}
        set_field(self, "table", table)
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
    construction.  `phi` at a target sums the mass on its class and every
    better one, so the differences are the prefix sums, best class first, of
    the mass `lhs` puts on each class minus the mass `rhs` puts there
    (`_class_terms` with classes for columns).  They change only at classes
    of nonzero net mass, so dominance holds iff some class has nonzero net
    mass and no prefix sum is negative: the first such sum is then positive.
    Zero-probability pairs are skipped, as `phi` skips them.
    """
    try:
        terms = _class_terms(ordering._ranks, (lhs.action, lhs.dist), (rhs.action, rhs.dist))
    except KeyError as exc:
        raise AgentMismatch(f"pair {exc.args[0]!r} is not in the ordering's partition") from None
    difference = 0
    for _, mass in sorted(terms):
        difference += mass
        if difference < 0:
            return False
    return bool(terms)


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
    mech: ProbMechanism,
    witness: BAWitness,
    domain: DomainSpec | DomainKind | str | None = None,
) -> None:
    """Re-check the probabilistic certificate conditions; raise on failure.

    With a `domain`, the witness ordering must also belong to it.
    """
    check_certificate(mech.env, witness, mech.dist_at, _fsd_pairs, _fsd_pairs, domain)


def _fsd_pairs(ordering: Ordering, lhs: tuple, rhs: tuple) -> bool:
    """`fsd` on two (action, distribution) pairs."""
    return fsd(ordering, Lottery(*lhs), Lottery(*rhs))


def _class_terms(index: Mapping[Pair, int], lhs, rhs) -> list[tuple[int, int]]:
    """`lhs` minus `rhs`, (action, distribution) lotteries, as (column, mass) terms.

    Masses are the distributions' integer weights rescaled to the lcm of
    their scales, summed by column (same-action lotteries share columns),
    with zero-probability pairs skipped and zero sums dropped.
    """
    (a, g), (b, h) = lhs, rhs
    scale = math.lcm(g.scale, h.scale)
    mass: dict[int, int] = {}
    for action, dist, factor in ((a, g, scale // g.scale), (b, h, -(scale // h.scale))):
        for z, w in dist.weights:
            k = index[(action, z)]
            mass[k] = mass.get(k, 0) + factor * w
    return [(k, m) for k, m in mass.items() if m]


def _fsd_relations(index: Mapping[Pair, int], le):
    """`fsd` on (action, distribution) lotteries as a row-set relation, for (ii) and (iii).

    `phi` depends on its target only through the target's class, so under a
    row the upper-contour differences are the sums S(t), over mass-carrying
    columns t, of the mass on columns weakly above t (or 0), and dominance
    holds iff no S(t) is negative and some S(t) is positive.  For each t,
    `beats` partitions the rows by the partial sum: column p's mass is added
    on `hi = group & le[p][t]` and not on `lo = group ^ hi`, the rest of the
    group, so the map from sum to row set stays a partition and its size at
    most min(rows, distinct sums).
    """

    def beats(lhs, rhs, rows: int) -> int:
        terms = _class_terms(index, lhs, rhs)
        positive = 0
        for t, _ in terms:
            sums = {0: rows}
            for p, m in terms:  # le[t][t] is every row, so t's own mass is always added
                above = le[p][t]
                split: dict[int, int] = {}
                for s, group in sums.items():
                    hi = group & above
                    lo = group ^ hi
                    if hi:
                        split[s + m] = split.get(s + m, 0) | hi
                    if lo:
                        split[s] = split.get(s, 0) | lo
                sums = split
            for s, group in sums.items():
                if s < 0:
                    rows &= ~group
                elif s > 0:
                    positive |= group
            if not rows:
                return 0
        return rows & positive

    return beats, beats


def _chain_test(index: Mapping[Pair, int], kind: DomainKind):
    """`exists(A, B_r, B_l)`: whether some ordering of a full `kind` meets (ii) and (iii).

    The answer reads no row.  Fix actions r != l, a tied distribution A =
    g(r, a) = g(l, a), the anchor's B_r = g(r, b) and the l-rival's B_l =
    g(l, b).  A point is a pair (L, R) of outcome sets; it stands for the
    upper-contour set holding the l-pairs over L and the r-pairs over R.

    Claim: such an ordering exists iff a chain of points from ({}, {}) to
    (Z, Z), each step growing L or R or both, has A(L) >= A(R) and B_r(R) >=
    B_l(L) at every point, A(L) > A(R) at some point and B_r(R) > B_l(L) at
    some point (`fsd` is strict dominance), where under `strict` each step
    adds one outcome to L or to R.  The other rivals never matter.

    Proof.  Only if: (ii), and (iii) against l, read only the pairs {r, l} x
    Z.  The upper-contour set at any target, restricted to them, is a union
    of the first classes of the ordering restricted to them; these unions
    form such a chain, of single steps if the ordering is strict.  If: make
    the chain's steps the classes, best first, and place every other
    action's pairs strictly below them, in any order of the kind.  (ii) and
    (iii) against l then hold as the chain says.  (iii) holds against any
    other rival x: at a target in {r, l} x Z the rival's pairs above it carry
    no mass, at one of x's pairs the r-pairs above it carry all of B_r, and
    at the last class of {r, l} x Z that is 1 against 0.  Under `weak_only`
    the ordering also needs a class of two or more pairs, and needs no other
    step rule: the points with a strict inequality make a chain of at most
    three steps, so over 2m >= 4 pairs one step adds two; with one outcome
    no chain exists, since A(L) > A(R) needs L = Z and R = {}, and B_r(R) >
    B_l(L) the reverse, which are not comparable.

    Points are the bits of an int, (L, R) being bit L + R * 2^m for outcome
    masks L and R, and masses are integers, as `_class_terms` makes them.  A
    chain then exists iff the end is reached from the origin through a point
    of each strict inequality, in one order or the other.  Under `strict` a
    reach takes single steps through points meeting both inequalities; under
    the other kinds it takes any such point above, so there the test asks
    for two comparable points.  Under `strict`, totally mixed A and B_l give
    no first step (an r-step breaks (ii), an l-step (iii)): the dominance
    dichotomy, decided before any point is made.
    """
    outcomes = tuple(dict.fromkeys(z for _, z in index))
    size = 1 << len(outcomes)
    end = size * size - 1
    # per outcome of L, then of R: (shift adding it, the points lacking it); bit c of
    # a point's index is clear in runs of 2^c, a repunit in base 2^(2^(c+1)) times 2^(2^c) - 1
    steps = [
        (1 << c, ((1 << (1 << c)) - 1) * ((1 << (end + 1)) - 1) // ((1 << (2 << c)) - 1))
        for c in range(2 * len(outcomes))
    ]
    strict = kind is DomainKind.STRICT
    vectors: dict = {}  # distribution -> its mass on each outcome set, at its own scale

    def masses(dist: Distribution) -> list[int]:
        sums = vectors.get(dist)
        if sums is None:
            weights = dict(dist.weights)
            sums = [0]
            for z in outcomes:
                w = weights.get(z, 0)
                sums += [s + w for s in sums]
            vectors[dist] = sums
        return sums

    def exists(tied: Distribution, anchor: Distribution, rival: Distribution) -> bool:
        if strict and is_totally_mixed(tied) and is_totally_mixed(rival):
            return False
        a = masses(tied)
        scale = math.lcm(anchor.scale, rival.scale)
        right = [s * (scale // anchor.scale) for s in masses(anchor)]
        left = [s * (scale // rival.scale) for s in masses(rival)]
        valid = a_more = b_more = 0
        bit = 1
        for a_r, b_r in zip(a, right):
            for a_l, b_l in zip(a, left):
                if a_l >= a_r and b_r >= b_l:
                    valid |= bit
                    if a_l > a_r:
                        a_more |= bit
                    if b_r > b_l:
                        b_more |= bit
                bit <<= 1

        def reach(points: int) -> int:
            if not strict:
                for shift, lacking in steps:
                    points |= (points & lacking) << shift
                return points & valid
            while True:
                grown = points
                for shift, lacking in steps:
                    grown |= (grown & lacking) << shift & valid
                if grown == points:
                    return points
                points = grown

        first = reach(1)
        return any(
            reach(reach(first & x) & y) >> end & 1 for x, y in ((a_more, b_more), (b_more, a_more))
        )

    return exists


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
        mech.env, mech.dist_at, domains, _fsd_relations, cap, tuple_test=_chain_test
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
    outcomes = tuple(outcomes)
    return _mixed(outcomes, tuple(rng.randint(1, MIXED_WEIGHT_DENOMINATOR - 1) for _ in outcomes))


@functools.cache
def _mixed(outcomes: tuple[str, ...], ks: tuple[int, ...]) -> Distribution:
    """One shared distribution per weight vector: at most 11^len(outcomes) of them."""
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
