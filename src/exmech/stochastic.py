"""Probabilistic mechanisms, first-order stochastic dominance, and anomaly search.

A probabilistic mechanism maps each action profile to an exact-rational
distribution over outcomes.  Lotteries pair one own action with such a
distribution; comparisons between them use first-order stochastic dominance
through upper-contour probabilities: the chance of landing weakly above a
target pair must be at least as large everywhere and strictly larger
somewhere.

`phi` is the reference definition in `Fraction` arithmetic; `fsd` compares
its differences as integer prefix sums over the ordering's classes, on
lotteries or on (action, distribution) pairs.  It re-checks every witness,
and over an explicit domain it is the search's comparison, asked of the
listed orderings one at a time, with no `Lottery` built.  Over a full kind
no ordering is listed: `_chain_walk` decides each tuple from the tied
distribution and each action's distribution at b, as a chain over pairs of
outcome sets, and finds the witness ordering by the walk over heads,
placing masses class by class.  Under a strict ordering, totally mixed
tied and l-rival distributions meet (ii) and (iii) at no tuple (the
dominance dichotomy).  The mechanism records at construction whether it
is completely mixed, and if it is, the search settles every agent whose
admissible orderings are all strict before reading its values; for one
only partly mixed, the chain test rejects such a tuple at its first step,
with no check of its own.  A `Distribution` compares and hashes on its
exact integer form, and the mechanism codes each profile's distribution
by it at construction, a small int per distinct distribution; the chain
test memoizes by the codes of the tied, anchor and l-rival distributions
and runs on ints, point sets being bitmasks, with one backward reach per
tuple.  Each tied
distribution is decided once per action pair, which relies on dominance
being asymmetric, the contract `search.search_witness` states.
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
    Mechanism,
    Ordering,
    Pair,
    Profile,
    Value,
    enumerate_profiles,
    profile_rows,
    set_field,
)
from .queueing import parse_fraction
from .search import SearchResult, check_certificate, search_witness


class Distribution(Value):
    """Exact probability vector over outcome labels; must sum to one.

    Keys should cover the full outcome set explicitly: a zero entry counts.
    `probs` is a read-only view, so a distribution shared between mechanisms
    cannot change.  Validation reads each probability's numerator and
    denominator once and keeps `scale`, the least common denominator, and
    `weights`, the (outcome, probability * scale) pairs of nonzero mass, so
    the sign and sum checks and `fsd` run on ints.  Equality and the hash
    read `_key`, the frozenset of those pairs over every outcome: each
    `Fraction` is in lowest terms, so `probs` fixes `scale`, and as the
    weights sum to `scale`, `_key` fixes `probs`.  So comparing two takes no
    `Fraction` arithmetic, which runs in Python.
    """

    _fields = ("probs",)

    def __init__(self, probs: Mapping[str, Fraction]) -> None:
        set_field(self, "probs", probs)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not all(isinstance(z, str) for z in self.probs):
            raise InvariantViolation("distribution keys must be outcome labels (strings)")
        probs = {}
        for z, p in self.probs.items():
            try:
                probs[z] = p if type(p) is Fraction else Fraction(p)
            except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                raise InvariantViolation(
                    f"probability of outcome {z!r} is not a finite rational: {p!r}"
                ) from None
        ratios = [(z, *p.as_integer_ratio()) for z, p in probs.items()]
        if any(n < 0 for _, n, _ in ratios):
            raise InvariantViolation("negative probability")
        scale = math.lcm(*(d for _, _, d in ratios))
        key = [(z, n * (scale // d)) for z, n, d in ratios]
        if sum(w for _, w in key) != scale:
            raise InvariantViolation("probabilities must sum to 1")
        set_field(self, "probs", MappingProxyType(probs))
        set_field(self, "scale", scale)
        set_field(self, "weights", tuple((z, w) for z, w in key if w))
        set_field(self, "_key", frozenset(key))

    def __eq__(self, other: object) -> bool:
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:  # a frozenset makes its hash once
        return hash(self._key)

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

    def __iter__(self):
        return iter((self.action, self.dist))


class ProbMechanism(Mechanism):
    """Total map from action profiles to outcome distributions.

    Validation checks each distinct distribution once, so it also records
    whether all are totally mixed (`_completely_mixed`).  A distribution's
    code is a small int per distinct `_key`, so coding runs no `__hash__`
    or `__eq__` in Python.
    """

    probabilistic = True

    def __post_init__(self) -> None:
        outcomes = set(self.env.outcomes)
        mixed = True
        codes: dict = {}  # each distinct distribution's `_key` -> its code
        row = []
        for dist in self._store():
            if not isinstance(dist, Distribution):
                self._reject()
            code = codes.get(dist._key)
            if code is None:  # a distribution unlike any before it: check it once
                if set(dist.probs) != outcomes:
                    self._reject()
                mixed = mixed and is_totally_mixed(dist)
                code = codes[dist._key] = len(codes)
            row.append(code)
        set_field(self, "_completely_mixed", mixed)
        set_field(self, "_codes", tuple(row))

    def _fault(self, profile: Profile, value: object) -> str | None:
        if not isinstance(value, Distribution):
            return f"value at {profile!r} is not a distribution"
        if set(value.probs) != set(self.env.outcomes):
            return f"distribution at {profile!r} must cover every outcome exactly"
        return None

    dist = Mechanism.value
    dist_at = Mechanism.value_at


def is_completely_mixed(mech: ProbMechanism) -> bool:
    """Totally mixed at every profile, as the constructor recorded."""
    return mech._completely_mixed


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


def fsd(ordering: Ordering, lhs, rhs) -> bool:
    """True iff `lhs` first-order stochastically dominates `rhs`.

    Each side is a `Lottery` or an (action, distribution) pair.  The
    upper-contour probability of `lhs` must weakly exceed that of `rhs` at
    every target pair, strictly at one; irreflexive and asymmetric by
    construction.  `phi` at a target sums the mass on its class and every
    better one, so the differences are the prefix sums, best class first, of
    the mass `lhs` puts on each class minus the mass `rhs` puts there, each
    side's weights times the other side's scale.  They change only at
    classes of nonzero net mass, so dominance holds iff some class has
    nonzero net mass and no prefix sum is negative: the first such sum is
    then positive.  Pairs of zero probability are never looked up, as `phi`
    skips them.
    """
    (a, g), (b, h) = lhs, rhs
    ranks = ordering._ranks
    mass: dict[int, int] = {}
    try:
        factor = h.scale
        for z, w in g.weights:
            k = ranks[a, z]
            mass[k] = mass.get(k, 0) + factor * w
        factor = g.scale
        for z, w in h.weights:
            k = ranks[b, z]
            mass[k] = mass.get(k, 0) - factor * w
    except KeyError as exc:
        raise AgentMismatch(f"pair {exc.args[0]!r} is not in the ordering's partition") from None
    difference = 0
    for k in sorted(mass):
        difference += mass[k]
        if difference < 0:
            return False
    return any(mass.values())


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
    check_certificate(mech.env, witness, mech.dist_at, fsd, fsd, domain)


@functools.cache
def _steps(m: int) -> tuple[tuple[int, int], ...]:
    """(shift adding it, the points lacking it) per outcome of L, then of R, over 4^m points.

    The points are `_chain_walk`'s.  Bit c of a point's index is clear in
    the lowest run of 2^c indices and in every second run after it, so each
    mask is its lowest run doubled until it covers the points, with as many
    bits copied in all as there are points.
    """
    points, steps = 1 << 2 * m, []
    for c in range(2 * m):
        w = 1 << c
        lacking, period = (1 << w) - 1, 2 * w
        while period < points:
            lacking |= lacking << period
            period *= 2
        steps.append((w, lacking))
    return tuple(steps)


def _reached(valid: int, a_more: int, b_more: int, steps: tuple, strict: bool) -> list[int]:
    """Per set of unmet needs, the points from which a chain meets each and reaches the end.

    Points and `steps` are `_chain_walk`'s, the end being valid, and the
    needs are `a_more` (bit 1 of the set) and `b_more` (bit 2), both within
    `valid`.  A chain goes through valid points, by single steps under
    `strict` and by any steps up otherwise.  The set with no need holds the
    points from which the end is reached; a set with needs, those from
    which a chain reaches a point of one need that lies in the set of the
    others.  Each set is its seeds closed downward, by single steps into
    valid points under `strict` and by any step down otherwise, and is
    exact at every valid point, the only points the walk asks about.
    """

    def close(points: int) -> int:
        if not strict:
            for shift, lacking in steps:
                points |= points >> shift & lacking
            return points
        while True:
            grown = points
            for shift, lacking in steps:
                grown |= grown >> shift & lacking & valid
            if grown == points:
                return points
            points = grown

    through = close(1 << (1 << len(steps)) - 1)  # the end: 4^m - 1 with 2m steps
    through_a, through_b = close(a_more & through), close(b_more & through)
    return [through, through_a, through_b, close(a_more & through_b | b_more & through_a)]


def _chain_walk(index: Mapping[Pair, int], kind: DomainKind):
    """(start, below) for a full kind's walk over heads, decided with no row by a chain test.

    Fix actions r != l, a tied distribution A = g(r, a) = g(l, a), and each
    action x's distribution B_x = g(x, b) at b.  A point is a pair (L, R) of
    outcome sets; it stands for the upper-contour set holding the l-pairs
    over L and the r-pairs over R.

    Claim: some ordering of a full `kind` meets (ii) and (iii) iff a chain
    of points from ({}, {}) to (Z, Z), each step growing L or R or both, has
    A(L) >= A(R) and B_r(R) >= B_l(L) at every point, A(L) > A(R) at some
    point and B_r(R) > B_l(L) at some point (`fsd` is strict dominance),
    where under `strict` each step adds one outcome to L or to R, and under
    `weak_only` some class has two pairs or more.

    Proof.  Only if: (ii), and (iii) against l, read only the pairs {r, l} x
    Z.  The upper-contour set at any target, restricted to them, is a union
    of the first classes of the ordering restricted to them; these unions
    form such a chain, of single steps if the ordering is strict.  If: make
    the chain's steps the classes, best first, and place every other
    action's pairs strictly below them, in any order of the kind.  (ii) and
    (iii) against l then hold as the chain says.  (iii) holds against any
    other rival x: at a target in {r, l} x Z the rival's pairs above it carry
    no mass, at one of x's pairs the r-pairs above it carry all of B_r, and
    at the last class of {r, l} x Z that is 1 against 0.

    The walk places classes best first.  Its state holds each action's
    placed outcomes (L for l, R for r) and which strict inequalities held
    at a class boundary so far: (ii)'s, and (iii)'s against each rival.
    `below` places a head and rejects it at once if a difference at the new
    boundary is negative; otherwise some ordering completes the placed
    classes iff the same argument, run from (L, R), holds:
    - every rival x other than l not yet strictly beaten still has some B_x
      mass unplaced (below the chain's end, B_r is whole);
    - a chain from (L, R) reaches (Z, Z) through a point for each strict
      inequality of (ii), and of (iii) against l, not met yet;
    - under a `weak_only` tail, some class of two or more pairs is left: two
      other-action pairs are unplaced (they share the last class), or a
      chain step adds two pairs or more, or exactly one other-action pair
      is unplaced and joins a nonempty chain's last class.
    The classes placed under a `weak_only` tail are single pairs, so each
    boundary so far was an equality for each inequality not met yet.  So a
    rival not yet beaten has no mass placed, and the chain's point with
    B_r(R) > B_l(L) beats it before its last pair is placed.  And a step
    adds two pairs or more iff the {r, l} pairs left outnumber the steps of
    a shortest chain, one more than the inequalities not met yet: with both
    unmet and three pairs left, no one point meets both, as one of l and r
    has a single outcome left, carrying all of its remaining mass.
    At the origin nothing is placed, so the test reads only A, B_r and B_l:
    `start` memoizes it per agent by `key`, the mechanism's codes of the
    three values, and looks it up first.  Under `strict`, totally mixed A
    and B_l give no first step (an r-step breaks (ii), an l-step (iii)): the
    dominance dichotomy, which the test thus meets with no check of its
    own.  `search_prob_ba_witness` has the search settle a completely mixed
    mechanism's `strict` agents within the cap before their values are
    read, so the test meets such tuples only in mechanisms partly mixed.
    The layout (each column's action and outcome bit, and `_steps`) is made
    with the walk, and the search makes a walk only at an agent's first
    tied value that reaches a rival signature.

    Points are the bits of an int, (L, R) being bit L + R * 2^m for outcome
    masks L and R, and masses are integers.  A tuple's first test builds
    `valid`, `a_more` and `b_more` (the points meeting both inequalities,
    and those meeting (ii)'s or (iii)'s strictly) a row of 2^m points at a
    time, and `_reached` gives, per set of unmet needs, the points from
    which a chain reaches the end through a point of each, in one backward
    reach.  So the origin test, and each `completes` after a head, is one
    bit test beside the rival check and the `weak_only` count rule.  The
    walk's state is ints: actions are positions, `placed` holds each one's
    outcome mask, and one bitmask holds (iii) met against each beaten rival
    and (ii) met at r's own bit.
    """
    strict = kind is DomainKind.STRICT
    tested: dict = {}  # key -> the tuple's chain, or False when no ordering completes it
    actions: dict = {}  # action -> its position, in order of first column
    outcomes: dict = {}  # outcome -> its bit's position, the same way
    column = [None] * len(index)  # column -> (its action's position, its outcome's bit)
    for (x, z), c in index.items():
        bit = 1 << outcomes.setdefault(z, len(outcomes))
        column[c] = (actions.setdefault(x, len(actions)), bit)
    m = len(outcomes)
    steps = _steps(m)

    def masses(dist: Distribution, factor: int) -> list[int]:
        """The distribution's mass on each outcome set, its weights times `factor`."""
        weights = dict(dist.weights)
        sums = [0]
        for z in outcomes:
            w = weights.get(z, 0) * factor
            sums += [s + w for s in sums]
        return sums

    def completes(
        reached: list, unmet: int, lefts: int, rights: int, k: int, tail: DomainKind
    ) -> bool:
        """Whether some ordering of `tail` over the k positions left completes a chain.

        The chain starts at the valid point (lefts, rights) with the needs in
        `unmet` still to meet; `reached` is `_reached`'s for `kind`, as a tail
        is strict just when the kind is.  The rivals are the caller's to check.
        """
        if not reached[unmet] >> (lefts | rights << m) & 1:
            return False
        pairs = 2 * m - lefts.bit_count() - rights.bit_count()
        others = k - pairs  # unplaced pairs of the other actions
        if tail is not DomainKind.WEAK_ONLY or others >= 2 or pairs > 1 + unmet.bit_count():
            return True
        return others == 1 and pairs > 0

    def chain_of(tied: Distribution, anchor: Distribution, rival: Distribution):
        """(A's masses, `_reached`'s sets) for a tuple, or False if no ordering completes it."""
        a = masses(tied, 1)
        rs, ls = masses(anchor, rival.scale), masses(rival, anchor.scale)  # at one scale
        valid = a_more = b_more = 0
        shift = 0  # each mask grows a row of points (L, R) at a time, one row per R
        for a_r, b_r in zip(a, rs):
            row = row_a = row_b = 0
            bit = 1
            for a_l, b_l in zip(a, ls):
                if a_l >= a_r and b_r >= b_l:
                    row |= bit
                    if a_l > a_r:
                        row_a |= bit
                    if b_r > b_l:
                        row_b |= bit
                bit <<= 1
            valid |= row << shift
            a_more |= row_a << shift
            b_more |= row_b << shift
            shift += len(a)
        if not (a_more and b_more):
            return False  # no point meets (ii)'s inequality strictly, or none (iii)'s
        reached = _reached(valid, a_more, b_more, steps, strict)
        return (a, reached) if completes(reached, 3, 0, 0, len(column), kind) else False

    def start(r: str, l: str, tied: Distribution, at_b: Mapping[str, Distribution], key: tuple):
        chain = tested.get(key)
        if chain is None:
            chain = tested[key] = chain_of(tied, at_b[r], at_b[l])
        if chain is False:
            return None
        values = [at_b[x] for x in actions]
        scale = math.lcm(*[dist.scale for dist in values])
        mass = [masses(dist, scale // dist.scale) for dist in values]
        tie = actions[r], actions[l], mass, *chain
        return tie, (0,) * len(actions), 0  # nothing placed, nothing met

    def below(head: tuple[int, ...], state: tuple, k: int, tail: DomainKind):
        tie, placed, met = state
        r, l, mass, a, reached = tie
        placed = list(placed)
        for c in head:
            x, bit = column[c]
            placed[x] |= bit
        lefts, rights = placed[l], placed[r]
        if a[lefts] < a[rights]:
            return None
        if a[lefts] > a[rights]:
            met |= 1 << r
        top, whole = mass[r][rights], mass[r][-1]
        for x, sums in enumerate(mass):
            if x != r:
                here = sums[placed[x]]
                if here > top:
                    return None
                if here < top:
                    met |= 1 << x
                elif here == whole and x != l and not met >> x & 1:
                    return None  # a rival with all its mass placed and never beaten
        unmet = (~met >> r & 1) | (~met >> l & 1) << 1
        if not completes(reached, unmet, lefts, rights, k, tail):
            return None
        return tie, tuple(placed), met

    return start, below


def search_prob_ba_witness(
    mech: ProbMechanism,
    domains: Sequence[DomainSpec] | DomainSpec | DomainKind | str | None = None,
    *,
    cap: int | None = None,
) -> SearchResult:
    """Exhaustive probabilistic anomaly search in canonical order.

    Condition (i) is exact distribution equality; (ii) and (iii) use
    first-order stochastic dominance.  The search order is that of
    `search.search_witness`, which a completely mixed mechanism lets skip
    every agent whose admissible orderings are all strict (the dominance
    dichotomy).
    """
    mixed = is_completely_mixed(mech)
    return search_witness(
        mech.env, mech.dist_at, mech._codes, domains, (fsd, fsd), _chain_walk, cap, mixed
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
    """Each profile draws one of two seeded totally mixed distributions.

    Distributions repeat across profiles, so actions tie (condition (i))
    and a search reaches its dominance tests; independent draws from the
    11^m weight vectors almost never tie.
    """
    palette = [random_totally_mixed(env.outcomes, rng) for _ in range(2)]
    return ProbMechanism(env, {profile: rng.choice(palette) for profile in enumerate_profiles(env)})


# --- JSON ------------------------------------------------------------------------


def prob_mech_to_json(mech: ProbMechanism) -> dict:
    return mech.to_rows("distributions", lambda dist: [str(dist[z]) for z in mech.env.outcomes])


def prob_mech_from_json(env: Environment, data: object) -> ProbMechanism:
    table = {}
    for profile, row in profile_rows(data, "distributions").items():
        if not isinstance(row, list) or len(row) != len(env.outcomes):
            raise ParseError("distribution row must list one probability per outcome")
        table[profile] = Distribution({z: parse_fraction(p) for z, p in zip(env.outcomes, row)})
    return ProbMechanism(env, table)
