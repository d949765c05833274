"""Core model of finite collective-choice environments with expressive preferences.

Agents pick actions, a mechanism maps the joint action profile to a social
outcome, and each agent ranks (own action, outcome) pairs -- so the act of
choosing can matter to an agent beyond the outcome it induces.  Orderings are
ranked partitions (ordered indifference classes, best first), which makes
completeness, transitivity and reflexivity hold by construction.

Everything here is immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import AgentOutOfRange, InvariantViolation, ParseError, UnknownPair

Pair = tuple[str, str]
Profile = tuple[str, ...]
SubProfile = tuple[str, ...]


class Relation(Enum):
    """Result of comparing two action-outcome pairs under an ordering."""

    PREFERRED = "preferred"
    INDIFFERENT = "indifferent"
    DISPREFERRED = "dispreferred"


@dataclass(frozen=True)
class Ordering:
    """Ranked partition of one agent's action-outcome pairs, best class first.

    Two pairs in the same class are indifferent; a pair in an earlier class is
    strictly preferred to any pair in a later one.
    """

    agent: int
    classes: tuple[frozenset[Pair], ...]

    def __post_init__(self) -> None:
        normalized = tuple(frozenset(tuple(p) for p in cls) for cls in self.classes)
        object.__setattr__(self, "classes", normalized)
        if not normalized:
            raise InvariantViolation("ordering has no classes")
        seen: set[Pair] = set()
        for cls in normalized:
            if not cls:
                raise InvariantViolation("empty indifference class")
            if seen & cls:
                raise InvariantViolation("pair appears in multiple classes")
            seen |= cls

    @classmethod
    def from_ranks(cls, agent: int, pairs: Sequence[Pair], ranks: Sequence[int]) -> "Ordering":
        """The ordering that puts pairs[k] in class ranks[k]."""
        classes: list[list[Pair]] = [[] for _ in range(max(ranks, default=-1) + 1)]
        for pair, rank in zip(pairs, ranks):
            classes[rank].append(pair)
        return cls(agent, tuple(map(frozenset, classes)))

    @cached_property
    def _ranks(self) -> dict[Pair, int]:
        return {pair: idx for idx, cls in enumerate(self.classes) for pair in cls}

    @cached_property
    def pairs(self) -> frozenset[Pair]:
        return frozenset(self._ranks)

    def rank(self, pair: Pair) -> int:
        """Index of the class containing `pair` (0 is best)."""
        try:
            return self._ranks[tuple(pair)]
        except KeyError:
            raise UnknownPair(f"pair {pair!r} is not in the ordering's partition") from None

    def compare(self, p: Pair, q: Pair) -> Relation:
        rp, rq = self.rank(p), self.rank(q)
        if rp < rq:
            return Relation.PREFERRED
        if rp > rq:
            return Relation.DISPREFERRED
        return Relation.INDIFFERENT

    def strictly_prefers(self, p: Pair, q: Pair) -> bool:
        return self.rank(p) < self.rank(q)

    def weakly_prefers(self, p: Pair, q: Pair) -> bool:
        return self.rank(p) <= self.rank(q)

    def indifferent(self, p: Pair, q: Pair) -> bool:
        return self.rank(p) == self.rank(q)

    @property
    def is_strict(self) -> bool:
        return all(len(cls) == 1 for cls in self.classes)


class DomainKind(Enum):
    UNRESTRICTED = "unrestricted"
    STRICT = "strict"
    WEAK_ONLY = "weak_only"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class DomainSpec:
    """Admissible preference orderings for one agent.

    `unrestricted` means every weak order over the agent's pairs, `strict`
    every all-singleton order, `weak_only` every weak order with at least one
    real indifference, and `explicit` exactly the listed orderings.
    """

    kind: DomainKind
    orderings: tuple[Ordering, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "orderings", tuple(self.orderings))
        if self.kind is DomainKind.EXPLICIT:
            if not self.orderings:
                raise InvariantViolation("explicit domain must list at least one ordering")
            if len({o.agent for o in self.orderings}) != 1:
                raise InvariantViolation("explicit domain mixes orderings of different agents")
        elif self.orderings:
            raise InvariantViolation(f"{self.kind.value} domain does not take orderings")

    @classmethod
    def unrestricted(cls) -> "DomainSpec":
        return cls(DomainKind.UNRESTRICTED)

    @classmethod
    def strict(cls) -> "DomainSpec":
        return cls(DomainKind.STRICT)

    @classmethod
    def weak_only(cls) -> "DomainSpec":
        return cls(DomainKind.WEAK_ONLY)

    @classmethod
    def explicit(cls, orderings: Iterable[Ordering]) -> "DomainSpec":
        return cls(DomainKind.EXPLICIT, tuple(orderings))


@dataclass(frozen=True)
class Environment:
    """Agents, their finite action sets, the finite outcome set, and domains."""

    actions: tuple[tuple[str, ...], ...]
    outcomes: tuple[str, ...]
    domains: tuple[DomainSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(tuple(a) for a in self.actions))
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "domains", tuple(self.domains))
        if not self.actions:
            raise InvariantViolation("environment needs at least one agent")
        for i, acts in enumerate(self.actions):
            if not acts:
                raise InvariantViolation(f"agent {i} has an empty action list")
            if len(set(acts)) != len(acts):
                raise InvariantViolation(f"agent {i} has duplicate action labels")
        if not self.outcomes:
            raise InvariantViolation("environment needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise InvariantViolation("duplicate outcome labels")
        if len(self.domains) != len(self.actions):
            raise InvariantViolation("one domain spec per agent required")
        for i, spec in enumerate(self.domains):
            if spec.kind is DomainKind.EXPLICIT:
                validate_explicit_domain(self, i, spec)

    @classmethod
    def create(
        cls,
        actions: Iterable[Iterable[str]],
        outcomes: Iterable[str],
        domains: Sequence[DomainSpec] | None = None,
    ) -> "Environment":
        acts = tuple(tuple(a) for a in actions)
        if domains is None:
            domains = tuple(DomainSpec.unrestricted() for _ in acts)
        return cls(acts, tuple(outcomes), tuple(domains))

    @property
    def n(self) -> int:
        return len(self.actions)

    def check_agent(self, agent: int) -> None:
        if not 0 <= agent < self.n:
            raise AgentOutOfRange(f"agent {agent} out of range for {self.n} agents")

    def pairs_for(self, agent: int) -> tuple[Pair, ...]:
        """The agent's action-outcome pairs in canonical (action-major) order."""
        self.check_agent(agent)
        return tuple((a, z) for a in self.actions[agent] for z in self.outcomes)


def validate_explicit_domain(env: Environment, agent: int, spec: DomainSpec) -> None:
    """Check each listed ordering partitions exactly the agent's pair set."""
    expected = set(env.pairs_for(agent))
    for ordering in spec.orderings:
        if ordering.agent != agent:
            raise InvariantViolation(
                f"domain ordering tagged for agent {ordering.agent}, expected {agent}"
            )
        if ordering.pairs - expected:
            raise InvariantViolation("ordering contains pairs outside the agent's pair set")
        if expected - ordering.pairs:
            raise InvariantViolation("partition incomplete")


def enumerate_profiles(env: Environment) -> Iterator[Profile]:
    """Every action profile exactly once, lexicographic in per-agent indices."""
    return itertools.product(*env.actions)


def check_profile_table(env: Environment, table: Mapping[Profile, object]) -> None:
    """A mechanism table must have exactly one entry per action profile."""
    expected = set(enumerate_profiles(env))
    if set(table) - expected:
        raise InvariantViolation("mechanism table has an unknown profile")
    if expected - set(table):
        raise InvariantViolation("mechanism table incomplete")


def sub_profiles(env: Environment, agent: int) -> Iterator[SubProfile]:
    """Every profile of the other agents' actions, lexicographic order."""
    env.check_agent(agent)
    rest = [acts for j, acts in enumerate(env.actions) if j != agent]
    return itertools.product(*rest)


def full_profile(sub: SubProfile, agent: int, action: str) -> Profile:
    """Insert `action` for `agent` into a sub-profile of the others."""
    return sub[:agent] + (action,) + sub[agent:]


@dataclass(frozen=True)
class BAWitness:
    """Certificate that a mechanism admits the Brexit anomaly for one agent.

    At `a_minus` the actions `r` and `l` produce the same result yet the agent
    strictly prefers the "protest" pair (l, result); at the distinct
    sub-profile `b_minus` playing `r` is a weakly best response.
    """

    agent: int
    r: str
    l: str
    a_minus: SubProfile
    b_minus: SubProfile
    ordering: Ordering


# --- JSON codecs -----------------------------------------------------------
#
# An environment document looks like
#   {"agents": [["a0", "a1"], ...], "outcomes": ["z0", ...],
#    "domains": [{"kind": "unrestricted", "orderings": []}, ...]}
# where an explicit domain lists orderings as class lists, each class a list
# of [action, outcome] pairs, best class first.


def string_labels(values: Sequence[object], what: str) -> tuple[str, ...]:
    """The values as a tuple of labels; ParseError unless every one is a string.

    JSON numbers are rejected rather than converted, so `0` never stands in
    for the label `"0"`.
    """
    if not all(isinstance(value, str) for value in values):
        raise ParseError(f"{what} labels must be strings")
    return tuple(values)


def profile_rows(data: object, key: str) -> dict[Profile, object]:
    """The rows of a mechanism document {"profiles": [...], key: [...]}, by profile.

    The two lists are parallel; each profile is a list of action labels and
    appears once.  The values are returned unchecked.
    """
    if not isinstance(data, dict):
        raise ParseError("mechanism must be a JSON object")
    profiles, values = data.get("profiles"), data.get(key)
    if not isinstance(profiles, list) or not isinstance(values, list):
        raise ParseError(f"mechanism needs parallel 'profiles' and {key!r} lists")
    if len(profiles) != len(values):
        raise ParseError(f"'profiles' and {key!r} must have equal length")
    rows = {}
    for profile, value in zip(profiles, values):
        if not isinstance(profile, list):
            raise ParseError("each profile must be a list of actions")
        profile = string_labels(profile, "profile action")
        if profile in rows:
            raise InvariantViolation(f"profile {profile!r} listed twice")
        rows[profile] = value
    return rows


def ordering_to_json(ordering: Ordering) -> list:
    return [[list(pair) for pair in sorted(cls)] for cls in ordering.classes]


def ordering_from_json(agent: int, data: object) -> Ordering:
    if not isinstance(data, list) or not data:
        raise ParseError("ordering must be a non-empty list of classes")
    classes = []
    for cls in data:
        if not isinstance(cls, list):
            raise ParseError("ordering class must be a list of [action, outcome] pairs")
        pairs = []
        for item in cls:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ParseError("ordering pair must be an [action, outcome] pair")
            pairs.append(string_labels(item, "ordering pair"))
        classes.append(frozenset(pairs))
    return Ordering(agent, tuple(classes))


def domain_to_json(spec: DomainSpec) -> dict:
    return {
        "kind": spec.kind.value,
        "orderings": [ordering_to_json(o) for o in spec.orderings],
    }


def domain_from_json(agent: int, data: object) -> DomainSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("domain must be an object with a 'kind' key")
    try:
        kind = DomainKind(data["kind"])
    except ValueError:
        raise ParseError(f"unknown domain kind {data['kind']!r}") from None
    orderings = [] if data.get("orderings") is None else data["orderings"]
    if not isinstance(orderings, list):
        raise ParseError("domain orderings must be a list")
    if kind is DomainKind.EXPLICIT:
        return DomainSpec.explicit(ordering_from_json(agent, o) for o in orderings)
    if orderings:
        raise ParseError(f"{kind.value} domain does not take orderings")
    return DomainSpec(kind)


def env_to_json(env: Environment) -> dict:
    return {
        "agents": [list(a) for a in env.actions],
        "outcomes": list(env.outcomes),
        "domains": [domain_to_json(d) for d in env.domains],
    }


def env_from_json(data: object) -> Environment:
    if not isinstance(data, dict):
        raise ParseError("environment must be a JSON object")
    for key in ("agents", "outcomes"):
        if key not in data or not isinstance(data[key], list):
            raise ParseError(f"environment needs a list-valued {key!r} key")
    if not all(isinstance(acts, list) for acts in data["agents"]):
        raise ParseError("each agent must be a list of action labels")
    actions = tuple(string_labels(acts, "action") for acts in data["agents"])
    outcomes = string_labels(data["outcomes"], "outcome")
    raw_domains = data.get("domains")
    if raw_domains is None:
        domains = tuple(DomainSpec.unrestricted() for _ in actions)
    else:
        if not isinstance(raw_domains, list) or len(raw_domains) != len(actions):
            raise ParseError("domains must list one spec per agent")
        domains = tuple(domain_from_json(i, d) for i, d in enumerate(raw_domains))
    return Environment(actions, outcomes, domains)


def witness_to_json(witness: BAWitness) -> dict:
    return {
        "agent": witness.agent,
        "r": witness.r,
        "l": witness.l,
        "a_minus": list(witness.a_minus),
        "b_minus": list(witness.b_minus),
        "ordering": ordering_to_json(witness.ordering),
    }


def witness_from_json(data: object) -> BAWitness:
    if not isinstance(data, dict):
        raise ParseError("witness must be a JSON object")
    try:
        agent = data["agent"]
        if not isinstance(agent, int) or isinstance(agent, bool):
            raise ParseError("witness agent must be a JSON integer")
        r, l = string_labels((data["r"], data["l"]), "witness action")
        subs = (data["a_minus"], data["b_minus"])
        if not all(isinstance(sub, list) for sub in subs):
            raise ParseError("witness sub-profiles must be lists of action labels")
        a_minus, b_minus = (string_labels(sub, "witness sub-profile") for sub in subs)
        return BAWitness(agent, r, l, a_minus, b_minus, ordering_from_json(agent, data["ordering"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed witness: {exc}") from None
