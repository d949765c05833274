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
import operator
from dataclasses import dataclass
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
    check_profile_table,
    enumerate_profiles,
    full_profile,
    profile_rows,
    string_labels,
    sub_profiles,
)
from .domains import build_queueing_pref_1, rank_table
from .queueing import QueueingOutcome, QueueingParams, grid_labels
from .search import SearchResult, check_certificate, search_witness

CHARACTERIZATION_KINDS = (DomainKind.UNRESTRICTED, DomainKind.STRICT, DomainKind.WEAK_ONLY)


@dataclass(frozen=True)
class DetMechanism:
    """Total map from action profiles to a single outcome label."""

    env: Environment
    table: Mapping[Profile, str]

    def __post_init__(self) -> None:
        table = {tuple(k): str(v) for k, v in self.table.items()}
        object.__setattr__(self, "table", table)
        check_profile_table(self.env, table)
        outcomes = set(self.env.outcomes)
        for profile, value in table.items():
            if value not in outcomes:
                raise InvariantViolation(f"value {value!r} at {profile!r} is not an outcome")

    def outcome(self, profile: Profile) -> str:
        return self.table[tuple(profile)]

    def outcome_at(self, agent: int, action: str, sub: SubProfile) -> str:
        return self.table[full_profile(sub, agent, action)]


# --- tie-propagation characterization ---------------------------------------


@dataclass(frozen=True)
class Condition1Violation:
    """Tie at `a_minus` between r and l that fails to propagate to `b_minus`."""

    agent: int
    r: str
    l: str
    a_minus: SubProfile
    b_minus: SubProfile
    z: str


def condition1_counterexamples(mech: DetMechanism) -> Iterator[Condition1Violation]:
    """Yield every tie-propagation failure in deterministic search order.

    Agents ascending, unordered action pairs by index, then the tying
    sub-profile and the sub-profile where the tie breaks, lexicographically.
    """
    env = mech.env
    for agent in range(env.n):
        acts = env.actions[agent]
        subs = tuple(sub_profiles(env, agent))
        for ri in range(len(acts)):
            for li in range(ri + 1, len(acts)):
                r, l = acts[ri], acts[li]
                for a in subs:
                    z = mech.outcome_at(agent, r, a)
                    if z != mech.outcome_at(agent, l, a):
                        continue
                    for b in subs:
                        if (
                            mech.outcome_at(agent, r, b) != z
                            or mech.outcome_at(agent, l, b) != z
                        ):
                            yield Condition1Violation(agent, r, l, a, b, z)


def condition1_counterexample(mech: DetMechanism) -> Condition1Violation | None:
    return next(condition1_counterexamples(mech), None)


def satisfies_condition1(mech: DetMechanism) -> bool:
    return condition1_counterexample(mech) is None


def nba_by_characterization(mech: DetMechanism, kind: DomainKind | str) -> bool:
    """Anomaly-freeness via tie propagation; valid for the three full domain kinds."""
    if isinstance(kind, str):
        kind = DomainKind(kind)
    if kind not in CHARACTERIZATION_KINDS:
        raise InvariantViolation(
            "characterization applies to unrestricted, strict and weak-only domains"
        )
    return satisfies_condition1(mech)


def witness_from_counterexample(
    mech: DetMechanism,
    cex: Condition1Violation,
    kind: DomainKind = DomainKind.UNRESTRICTED,
) -> BAWitness:
    """Turn a tie-propagation failure into a validated anomaly witness.

    Builds an ordering that puts the agent's best-response pair at `b_minus`
    on top while ranking the protest pair (l, z) strictly above (r, z); for
    the weak-only kind two unconstrained pairs are merged to create an
    indifference.
    """
    if kind not in CHARACTERIZATION_KINDS:
        raise InvariantViolation("witness construction needs one of the three full domain kinds")
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
    domain: DomainSpec | None = None,
) -> None:
    """Re-check the three certificate conditions; raise on the first failure.

    With a `domain`, the witness ordering must also belong to it.
    """
    beats_iii = Ordering.strictly_prefers if strict_iii else Ordering.weakly_prefers
    check_certificate(
        mech.env, witness, mech.outcome_at, Ordering.strictly_prefers, beats_iii, domain
    )


# --- exhaustive witness search ------------------------------------------------


def _row_sets(table, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Bit-parallel pair comparisons over the rows of a rank table.

    Returns (lt, le): bit o of lt[p][q] is set iff row o ranks position p
    strictly above position q (a smaller class index), and of le[p][q] iff
    weakly above.  Class-membership masks eq[p][c] come from one pass over
    the rows; lt is the union over classes c of eq[p][c] with the rows
    placing q below c (a suffix union over q's classes), and le[p][q] is the
    complement of lt[q][p].
    """
    size = (len(table) + 7) // 8
    eq_bytes = [[bytearray(size) for _ in range(n)] for _ in range(n)]
    for o, rv in enumerate(table):
        byte, bit = o >> 3, 1 << (o & 7)
        for by_class, c in zip(eq_bytes, rv):
            by_class[c][byte] |= bit
    eq = [[int.from_bytes(b, "little") for b in by_class] for by_class in eq_bytes]
    below = []  # below[q][c]: rows ranking q in a class after c
    for by_class in eq:
        suffix, acc = [0] * n, 0
        for c in reversed(range(n)):
            suffix[c] = acc
            acc |= by_class[c]
        below.append(suffix)
    lt = [
        [functools.reduce(operator.or_, map(operator.and_, eq_p, below_q)) for below_q in below]
        for eq_p in eq
    ]
    everything = (1 << len(table)) - 1
    le = [[everything ^ lt[q][p] for q in range(n)] for p in range(n)]
    return lt, le


@functools.cache
def _shared_row_sets(n: int, kind: DomainKind) -> tuple[list[list[int]], list[list[int]]]:
    """Row sets of the shared full-domain table, built once per pair count and kind."""
    return _row_sets(rank_table(n, kind), n)


class _RankKernel:
    """Pair comparisons for one agent as bitsets over the rows of its rank table.

    A row set is a Python int whose bit o stands for row o of the table.
    Condition (ii) is one `lt` lookup; condition (iii) ANDs the candidates
    with the anchor's `le` mask (`lt` under `strict_iii`) against each rival.
    The lowest surviving bit is the first qualifying row in table order.
    """

    def __init__(self, index: Mapping[Pair, int], row_sets, strict_iii: bool):
        self._index = index
        self._lt, le = row_sets
        self._beats = self._lt if strict_iii else le

    def protest(self, r: str, l: str, za: str) -> int:
        return self._lt[self._index[(l, za)]][self._index[(r, za)]]

    def best_response(self, anchor, rivals, candidates: int) -> int | None:
        index = self._index
        beats = self._beats[index[anchor]]
        for pair in rivals:
            candidates &= beats[index[pair]]
            if not candidates:
                return None
        return (candidates & -candidates).bit_length() - 1 if candidates else None


def search_ba_witness(
    mech: DetMechanism,
    domains: Sequence[DomainSpec] | DomainSpec | DomainKind | str | None = None,
    *,
    cap: int | None = None,
    strict_iii: bool = False,
) -> SearchResult:
    """Exhaustive anomaly search; returns the canonically first witness.

    The search order is that of `search.search_witness`.  Raises CapExceeded
    if a full domain kind is too large to enumerate.
    """

    def kernel(spec: DomainSpec, index: Mapping[Pair, int], table) -> _RankKernel:
        n, kind = len(index), spec.kind
        # full kinds share one table per pair count, so they share its row sets too
        row_sets = _row_sets(table, n) if kind is DomainKind.EXPLICIT else _shared_row_sets(n, kind)
        return _RankKernel(index, row_sets, strict_iii)

    return search_witness(mech.env, mech.outcome_at, domains, kernel, cap)


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
