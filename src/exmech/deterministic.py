"""Deterministic mechanisms and Brexit-anomaly detection.

A deterministic mechanism is a total table from action profiles to outcomes.
The anomaly certificate for agent i consists of two own actions r, l and two
distinct opponent sub-profiles a, b such that

  (i)   both actions yield the same outcome at a,
  (ii)  the agent strictly prefers the pair (l, outcome) there, and
  (iii) r is a weakly best response at b,

for some admissible ordering.  Two independent routes decide the question:
an exhaustive witness search over enumerable domains, and the
tie-propagation characterization (whenever two actions of an agent tie in
outcome at one sub-profile they must tie, with the same outcome, at every
sub-profile), which is equivalent under the unrestricted, strict and
weak-only domains.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .errors import (
    GridDoesNotSupportWitness,
    InvariantViolation,
    NotVotingEnvironment,
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
    enumerate_profiles,
    full_profile,
    profile_rows,
    profile_values,
    set_field,
    string_labels,
    sub_profiles,
)
from .domains import build_queueing_pref_1, full_kind
from .queueing import QueueingOutcome, QueueingParams, grid_labels
from .search import SearchResult, check_certificate, search_witness


class DetMechanism(Value):
    """Total map from action profiles to a single outcome label.

    Validation looks up every profile, so it also records the code table
    (`_codes`): the outcome at each profile in `enumerate_profiles` order,
    each label its own code, which the search slices for signatures.  It
    is a snapshot taken at construction, and not a field: equality, the
    repr and pickling ignore it, and unpickling, which runs the
    constructor, records it again.
    """

    _fields = ("env", "table")

    def __init__(self, env: Environment, table: Mapping[Profile, str]) -> None:
        set_field(self, "env", env)
        set_field(self, "table", table)
        self.__post_init__()

    def __post_init__(self) -> None:
        table = {tuple(k): v for k, v in self.table.items()}
        set_field(self, "table", table)
        codes = tuple(profile_values(self.env, table))
        outcomes = set(self.env.outcomes)
        for profile, value in table.items():
            if not isinstance(value, str) or value not in outcomes:
                raise InvariantViolation(f"value {value!r} at {profile!r} is not an outcome")
        set_field(self, "_codes", codes)

    def outcome(self, profile: Profile) -> str:
        return self.table[tuple(profile)]

    def outcome_at(self, agent: int, action: str, sub: SubProfile) -> str:
        return self.table[full_profile(sub, agent, action)]


# --- tie-propagation characterization ---------------------------------------


class Condition1Violation(Value):
    """Tie at `a_minus` between r and l that fails to propagate to `b_minus`."""

    _fields = ("agent", "r", "l", "a_minus", "b_minus", "z")

    def __init__(
        self, agent: int, r: str, l: str, a_minus: SubProfile, b_minus: SubProfile, z: str
    ) -> None:
        set_field(self, "agent", agent)
        set_field(self, "r", r)
        set_field(self, "l", l)
        set_field(self, "a_minus", a_minus)
        set_field(self, "b_minus", b_minus)
        set_field(self, "z", z)


def condition1_counterexamples(mech: DetMechanism) -> Iterator[Condition1Violation]:
    """Yield every tie-propagation failure in deterministic search order.

    Agents ascending, unordered action pairs by index, then the tying
    sub-profile and the sub-profile where the tie breaks, lexicographically.
    Where a tie breaks depends only on (r, l, z), so the sub-profiles that
    break a tie at z are found once per tied outcome z.
    """
    env = mech.env
    for agent in range(env.n):
        acts = env.actions[agent]
        subs = tuple(sub_profiles(env, agent))
        for ri in range(len(acts)):
            for li in range(ri + 1, len(acts)):
                r, l = acts[ri], acts[li]
                breaking: dict[str, list[SubProfile]] = {}  # z -> every b where the tie breaks
                for a in subs:
                    z = mech.outcome_at(agent, r, a)
                    if z != mech.outcome_at(agent, l, a):
                        continue
                    if z not in breaking:
                        breaking[z] = [
                            b
                            for b in subs
                            if mech.outcome_at(agent, r, b) != z or mech.outcome_at(agent, l, b) != z
                        ]
                    for b in breaking[z]:
                        yield Condition1Violation(agent, r, l, a, b, z)


def condition1_counterexample(mech: DetMechanism) -> Condition1Violation | None:
    return next(condition1_counterexamples(mech), None)


def satisfies_condition1(mech: DetMechanism) -> bool:
    return condition1_counterexample(mech) is None


def nba_by_characterization(mech: DetMechanism, kind: DomainKind | str) -> bool:
    """Anomaly-freeness via tie propagation; valid for the three full domain kinds."""
    full_kind(kind)
    return satisfies_condition1(mech)


def witness_from_counterexample(
    mech: DetMechanism,
    cex: Condition1Violation,
    kind: DomainKind | str = DomainKind.UNRESTRICTED,
) -> BAWitness:
    """Turn a tie-propagation failure into a validated anomaly witness.

    Builds an ordering that ranks the protest pair (l, z) strictly above
    (r, z) and puts the best-response pair (r, o(r, b)) alone above every
    other action's pair at `b_minus` (just below (l, z) if it is (r, z), as
    then o(l, b) is not z); for the weak-only kind two unconstrained pairs
    are merged to create an indifference.  So it also meets strict (iii),
    and tie propagation decides that form too: its constraints form a cycle
    only where the tie propagates to b, as `_edge_walk` shows.
    """
    kind = full_kind(kind)
    env = mech.env
    agent, r, l, z = cex.agent, cex.r, cex.l, cex.z
    top = (r, mech.outcome_at(agent, r, cex.b_minus))
    ordered = [(l, z), (r, z)] if top == (r, z) else [top, (l, z), (r, z)]
    rest = [p for p in env.pairs_for(agent) if p not in set(ordered)]
    if kind is DomainKind.WEAK_ONLY:
        if len(rest) >= 2:
            classes = [frozenset((p,)) for p in ordered + rest[:-2]]
            classes.append(frozenset(rest[-2:]))
        else:
            # Merge the lone leftover pair into the (r, z) class: (r, z) only
            # ever needs to sit strictly below (l, z) and weakly below the top.
            classes = [frozenset((p,)) for p in ordered[:-1]]
            classes.append(frozenset([ordered[-1]] + rest))
    else:
        classes = [frozenset((p,)) for p in ordered + rest]
    witness = BAWitness(agent, r, l, cex.a_minus, cex.b_minus, Ordering(agent, tuple(classes)))
    validate_witness(mech, witness)
    return witness


# --- witness validation ------------------------------------------------------


def validate_witness(
    mech: DetMechanism,
    witness: BAWitness,
    strict_iii: bool = False,
    domain: DomainSpec | DomainKind | str | None = None,
) -> None:
    """Re-check the three certificate conditions; raise on the first failure.

    With a `domain`, the witness ordering must also belong to it.
    """
    check_certificate(mech.env, witness, mech.outcome_at, *_preferences(strict_iii), domain)


def _preferences(strict_iii: bool) -> tuple:
    """(beats_ii, beats_iii): strict preference, then weak preference unless `strict_iii`."""
    weakly = Ordering.strictly_prefers if strict_iii else Ordering.weakly_prefers
    return Ordering.strictly_prefers, weakly


# --- exhaustive witness search ------------------------------------------------


def _edge_walk(index: Mapping[Pair, int], kind: DomainKind, strict_iii: bool = False):
    """(start, below) for a full kind's walk over heads, with (iii) as `_preferences` takes it.

    The walk's state is a tuple's edges (p, q, strict) between pair
    positions, p ranking at or above q, strictly if `strict`: (ii)'s
    protest edge from (l, z) strictly above (r, z), then (iii)'s star from
    the anchor (r, o(r, b)) to each rival (x, o(x, b)), strict only under
    `strict_iii`.  Every rival edge leaves the anchor and no rival is (r,
    z), so a path has at most two edges and the edges have no triangle.  A
    cycle can only run (l, z) -> (r, z) -> (l, z), with the anchor (r, z)
    and (l, z) a rival: o(r, b) = o(l, b) = z, the tie propagates to b, and
    `start` gives None.  Otherwise no subset of the edges has a cycle, so
    the `unrestricted` and `strict` steps need no test but the head's own.

    A `weak_only` tail must also tie two of its k positions, and can iff
    some two are joined by no path through a strict edge: merging them
    makes at most a cycle of weak edges, which one class meets.  A position
    other than the anchor, (l, z) and (r, z) is joined only to the anchor
    and, when that is (r, z), to (l, z), so at most three positions are
    pairwise joined, and three only along a strict edge continuing another.
    So a tail can be completed iff k >= 4, or k = 3 with no strict edge
    continuing another, or k = 2 with no strict edge left.  A tie breaks
    only with two actions and two outcomes, so `start` has four positions
    or more and needs no such test; `kind` is not read.
    """

    def start(r: str, l: str, z: str, at_b: Mapping[str, str], key: tuple) -> list | None:
        if at_b[r] == z == at_b[l]:
            return None
        anchor = index[r, at_b[r]]
        edges = [(index[l, z], index[r, z], True)]
        edges += [(anchor, index[x, value], strict_iii) for x, value in at_b.items() if x != r]
        return edges

    def below(head: tuple[int, ...], edges: list, k: int, tail: DomainKind) -> list | None:
        """The edges left below `head`, or None if no ordering of `tail` below it meets them."""
        left = []
        for p, q, strict in edges:
            if q in head:
                if strict or p not in head:
                    return None
            elif p not in head:
                left.append((p, q, strict))
        if tail is DomainKind.WEAK_ONLY and k < 4:
            tops = {p for p, _, strict in left if strict}
            if k < 2 or any(strict and (k == 2 or q in tops) for _, q, strict in left):
                return None
        return left

    return start, below


def search_ba_witness(
    mech: DetMechanism,
    domains: Sequence[DomainSpec] | DomainSpec | DomainKind | str | None = None,
    *,
    cap: int | None = None,
    strict_iii: bool = False,
) -> SearchResult:
    """Exhaustive anomaly search; returns the canonically first witness.

    The search order and the cases that raise CapExceeded are those of
    `search.search_witness`.
    """
    walk = functools.partial(_edge_walk, strict_iii=strict_iii)
    beats = _preferences(strict_iii)
    return search_witness(mech.env, mech.outcome_at, mech._codes, domains, beats, walk, cap)


def find_ba_witness(
    mech: DetMechanism,
    domains: Sequence[DomainSpec] | DomainSpec | DomainKind | str | None = None,
    *,
    cap: int | None = None,
    strict_iii: bool = False,
) -> BAWitness | None:
    """Canonically first anomaly witness, or None when none exists."""
    return search_ba_witness(mech, domains, cap=cap, strict_iii=strict_iii).witness


# --- voting environments ------------------------------------------------------


def is_voting_environment(env: Environment) -> bool:
    """Each agent abstains (first action) or votes for one of the outcomes."""
    return all(
        len(acts) == len(env.outcomes) + 1
        and acts[0] not in env.outcomes
        and acts[1:] == env.outcomes
        for acts in env.actions
    )


def _require_voting(env: Environment) -> None:
    if not is_voting_environment(env):
        raise NotVotingEnvironment(
            "expected per-agent actions of the form (abstain, candidate..., )"
        )


def satisfies_unanimity(mech: DetMechanism) -> bool:
    """A unanimous vote for a candidate elects that candidate."""
    _require_voting(mech.env)
    n = mech.env.n
    return all(mech.outcome((z,) * n) == z for z in mech.env.outcomes)


def satisfies_monotonicity(mech: DetMechanism) -> bool:
    """Re-voting for the current winner never changes the winner."""
    env = mech.env
    _require_voting(env)
    for agent in range(env.n):
        for sub in sub_profiles(env, agent):
            for action in env.actions[agent]:
                winner = mech.outcome_at(agent, action, sub)
                if mech.outcome_at(agent, winner, sub) != winner:
                    return False
    return True


# --- builders ------------------------------------------------------------------

ABSTAIN = "abstain"
REMAIN, LEAVE = "remain", "leave"


def build_majority_referendum(m: int) -> tuple[Environment, DetMechanism]:
    """Leave-or-remain referendum with 2m+1 voters who may abstain.

    The state flips to leave only when leave votes strictly outnumber remain
    votes; ties and abstention-heavy profiles keep the status quo.
    """
    if m < 1:
        raise InvariantViolation("need m >= 1")
    n = 2 * m + 1
    env = Environment.create(
        tuple((ABSTAIN, REMAIN, LEAVE) for _ in range(n)), (REMAIN, LEAVE)
    )
    table = {}
    for profile in enumerate_profiles(env):
        leave_votes = sum(1 for a in profile if a == LEAVE)
        remain_votes = sum(1 for a in profile if a == REMAIN)
        table[profile] = LEAVE if leave_votes > remain_votes else REMAIN
    return env, DetMechanism(env, table)


def build_plurality(
    n: int, m: int, tiebreak: Sequence[str] | None = None
) -> tuple[Environment, DetMechanism]:
    """Plurality voting with abstention; ties resolved by `tiebreak` order.

    Abstentions are ignored; an all-abstain profile elects the first
    candidate in the tiebreak order.
    """
    if n < 2 or m < 2:
        raise InvariantViolation("need at least two voters and two candidates")
    candidates = tuple(str(c) for c in range(1, m + 1))
    order = tuple(str(c) for c in tiebreak) if tiebreak is not None else candidates
    if sorted(order) != sorted(candidates):
        raise InvariantViolation("tiebreak must order the candidates exactly")
    env = Environment.create(tuple(("0",) + candidates for _ in range(n)), candidates)
    table = {}
    for profile in enumerate_profiles(env):
        counts = {c: 0 for c in candidates}
        for a in profile:
            if a != "0":
                counts[a] += 1
        best = max(counts.values())
        table[profile] = next(c for c in order if counts[c] == best)
    return env, DetMechanism(env, table)


def build_groves_queueing(params: QueueingParams) -> tuple[Environment, DetMechanism]:
    """Discretized pivotal queueing rule over the report grid.

    The higher reporter is served first and pays the other's report; on a tie
    patient 2 is served first.  Outcomes are the reachable waiting/transfer
    assignments, labeled canonically so they decode back to exact rationals.
    """
    labels = grid_labels(params.grid)
    table: dict[Profile, str] = {}
    seen: dict[str, None] = {}
    for x1 in params.grid:
        for x2 in params.grid:
            if x1 > x2:
                outcome = QueueingOutcome((0, 1), (x2, Fraction(0)))
            else:
                outcome = QueueingOutcome((1, 0), (Fraction(0), x1))
            label = outcome.label()
            table[(str(x1), str(x2))] = label
            seen.setdefault(label)
    env = Environment.create((labels, labels), tuple(seen))
    return env, DetMechanism(env, table)


def construct_queueing_witness(params: QueueingParams) -> BAWitness:
    """Build and machine-check the honest-report protest witness.

    Patient 1's true cost must be an interior grid point: the protest action
    is the honest report, the best-response action is the grid point just
    above it, and the tie happens against the grid point just below.
    """
    theta = params.theta1
    below = [g for g in params.grid if g < theta]
    above = [g for g in params.grid if g > theta]
    if not (0 < theta < 1) or theta not in params.grid or not below or not above:
        raise GridDoesNotSupportWitness(
            "need an interior grid point at theta1 with grid points on both sides"
        )
    env, mech = build_groves_queueing(params)
    witness = BAWitness(
        agent=0,
        r=str(above[0]),
        l=str(theta),
        a_minus=(str(below[-1]),),
        b_minus=(str(above[0]),),
        ordering=build_queueing_pref_1(params, env),
    )
    validate_witness(mech, witness)
    return witness


# --- JSON ------------------------------------------------------------------------


def det_mech_to_json(mech: DetMechanism) -> dict:
    profiles = list(enumerate_profiles(mech.env))
    return {
        "profiles": [list(p) for p in profiles],
        "outcomes": [mech.outcome(p) for p in profiles],
    }


def det_mech_from_json(env: Environment, data: object) -> DetMechanism:
    table = profile_rows(data, "outcomes")
    string_labels(list(table.values()), "mechanism outcome")
    return DetMechanism(env, table)
