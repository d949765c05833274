"""Core model of finite collective-choice environments with expressive preferences.

Agents pick actions, a mechanism maps the joint action profile to a social
outcome, and each agent ranks (own action, outcome) pairs -- so the act of
choosing can matter to an agent beyond the outcome it induces.  Orderings are
ranked partitions (ordered indifference classes, best first), which makes
completeness, transitivity and reflexivity hold by construction.

Everything here is immutable after construction.  The model and result
types of the package derive from `Value`: a subclass names its fields in
`_fields`, stores them with `set_field` in a plain `__init__` and then calls
`__post_init__` where the class has checks.  `Value` gives equality and a
hash over those fields, a repr in the `dataclasses` format, pickling through
the constructor, and an AttributeError on assignment or deletion.  It does
not use `dataclasses`, because importing that module loads `inspect`, `ast`,
`dis` and `tokenize` (about 8 ms) and each decorated class compiles
generated code (about 0.7 ms), which every command-line run pays before it
does any work.  Without them an `exmech analyze` child spends about 26 ms
instead of 37 ms importing (Python 3.11, 2-core VM, no cached bytecode).
"""

from __future__ import annotations

import itertools
from enum import Enum
from functools import cached_property
from collections.abc import Iterable, Iterator, Mapping, Sequence

from .errors import AgentOutOfRange, InvariantViolation, ParseError, UnknownPair

Pair = tuple[str, str]
Profile = tuple[str, ...]
SubProfile = tuple[str, ...]


# Stores a field of a `Value` past its __setattr__.  object's own setter keeps
# the instance's attributes in CPython's compact per-class layout, where a
# write through `vars(self)` would make a full dict and slow every later read.
set_field = object.__setattr__


class Value:
    """Immutable value with equality, hash and repr over the fields `_fields` names.

    Equality holds between instances of one class with equal fields; the
    hash hashes the same tuple, so a field that cannot be hashed (a dict)
    makes the instance unhashable too.  Pickling and copying rebuild the
    instance through the constructor, which checks it again.
    """

    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Relation(Enum):
    """Result of comparing two action-outcome pairs under an ordering."""

    PREFERRED = "preferred"
    INDIFFERENT = "indifferent"
    DISPREFERRED = "dispreferred"


class Ordering(Value):
    """Ranked partition of one agent's action-outcome pairs, best class first.

    Two pairs in the same class are indifferent; a pair in an earlier class is
    strictly preferred to any pair in a later one.
    """

    _fields = ("agent", "classes")

    def __init__(self, agent: int, classes: tuple[frozenset[Pair], ...]) -> None:
        set_field(self, "agent", agent)
        set_field(self, "classes", classes)
        self.__post_init__()

    def __post_init__(self) -> None:
        normalized = tuple(frozenset(map(_pair, cls)) for cls in self.classes)
        set_field(self, "classes", normalized)
        if not normalized:
            raise InvariantViolation("ordering has no classes")
        seen: set[Pair] = set()
        for cls in normalized:
            if not cls:
                raise InvariantViolation("empty indifference class")
            if seen & cls:
                raise InvariantViolation("pair appears in multiple classes")
            seen |= cls

    def __repr__(self) -> str:  # each class's pairs sorted, so no string hash orders them
        classes = [f"frozenset({{{', '.join(map(repr, sorted(cls)))}}})" for cls in self.classes]
        inner = ", ".join(classes) + ("," if len(classes) == 1 else "")
        return f"{type(self).__qualname__}(agent={self.agent!r}, classes=({inner}))"

    @classmethod
    def from_ranks(cls, agent: int, pairs: Sequence[Pair], ranks: Sequence[int]) -> "Ordering":
        """The ordering that puts pairs[k] in class ranks[k]."""
        if len(ranks) != len(pairs) or not all(
            isinstance(rank, int) and not isinstance(rank, bool) and rank >= 0 for rank in ranks
        ):
            raise InvariantViolation(f"ranks {ranks!r} are not one int >= 0 per pair")
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


def _pair(pair: object) -> Pair:
    """`pair` as an (action, outcome) tuple; it must hold exactly two strings."""
    if isinstance(pair, (tuple, list)) and len(pair) == 2:
        action, outcome = pair
        if isinstance(action, str) and isinstance(outcome, str):
            return action, outcome
    raise InvariantViolation(f"ordering pair {pair!r} is not two string labels")


def _labels(values: object, what: str) -> tuple:
    """`values` as a tuple; a string or a non-iterable is not a sequence of labels."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise InvariantViolation(f"{what} must be a sequence, not {values!r}")
    return tuple(values)


class DomainKind(Enum):
    # members are singletons and compare by identity, so the C identity hash
    # agrees with ==; Enum's own __hash__ runs in Python on every cache lookup
    __hash__ = object.__hash__

    UNRESTRICTED = "unrestricted"
    STRICT = "strict"
    WEAK_ONLY = "weak_only"
    EXPLICIT = "explicit"


class DomainSpec(Value):
    """Admissible preference orderings for one agent.

    `unrestricted` means every weak order over the agent's pairs, `strict`
    every all-singleton order, `weak_only` every weak order with at least one
    real indifference, and `explicit` exactly the listed orderings.
    """

    _fields = ("kind", "orderings")

    def __init__(self, kind: DomainKind, orderings: tuple[Ordering, ...] = ()) -> None:
        set_field(self, "kind", kind)
        set_field(self, "orderings", orderings)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.kind, DomainKind):
            raise InvariantViolation(f"domain kind {self.kind!r} is not a DomainKind")
        set_field(self, "orderings", tuple(self.orderings))
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


def as_domain_specs(domains: object) -> tuple[DomainSpec, ...]:
    """`domains` as a tuple; it must be a sequence of DomainSpec objects."""
    specs = _labels(domains, "domains")
    for spec in specs:
        if not isinstance(spec, DomainSpec):
            raise InvariantViolation(f"domain {spec!r} is not a DomainSpec")
    return specs


class Environment(Value):
    """Agents, their finite action sets, the finite outcome set, and domains."""

    _fields = ("actions", "outcomes", "domains")

    def __init__(
        self,
        actions: tuple[tuple[str, ...], ...],
        outcomes: tuple[str, ...],
        domains: tuple[DomainSpec, ...],
    ) -> None:
        set_field(self, "actions", actions)
        set_field(self, "outcomes", outcomes)
        set_field(self, "domains", domains)
        self.__post_init__()

    def __post_init__(self) -> None:
        actions = tuple(_labels(a, "an agent's actions") for a in _labels(self.actions, "actions"))
        set_field(self, "actions", actions)
        set_field(self, "outcomes", _labels(self.outcomes, "outcomes"))
        set_field(self, "domains", as_domain_specs(self.domains))
        if not self.actions:
            raise InvariantViolation("environment needs at least one agent")
        if not all(isinstance(x, str) for labels in (*self.actions, self.outcomes) for x in labels):
            raise InvariantViolation("action and outcome labels must be strings")
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
        set_field(self, "_pairs", tuple(tuple(itertools.product(a, self.outcomes)) for a in actions))
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
        acts = _labels(actions, "actions")
        if domains is None:
            domains = tuple(DomainSpec.unrestricted() for _ in acts)
        return cls(acts, outcomes, domains)

    @property
    def n(self) -> int:
        return len(self.actions)

    def check_agent(self, agent: int) -> None:
        if not isinstance(agent, int) or isinstance(agent, bool):
            raise InvariantViolation(f"agent must be an int, got {agent!r}")
        if not 0 <= agent < self.n:
            raise AgentOutOfRange(f"agent {agent} out of range for {self.n} agents")

    def pairs_for(self, agent: int) -> tuple[Pair, ...]:
        """The agent's action-outcome pairs in canonical (action-major) order, made once."""
        self.check_agent(agent)
        return self._pairs[agent]


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


def profile_values(env: Environment, table: Mapping[Profile, object]) -> list:
    """The table's values in `enumerate_profiles` order; it must have one entry per profile.

    One lookup per profile decides a well-formed table: every profile is
    found and no other key is left.  Only a malformed one is compared as
    sets, to name an unknown profile before a missing one.
    """
    try:
        values = [table[profile] for profile in enumerate_profiles(env)]
    except KeyError:
        values = None
    if values is None or len(values) != len(table):
        expected = set(enumerate_profiles(env))
        if set(table) - expected:
            raise InvariantViolation("mechanism table has an unknown profile")
        raise InvariantViolation("mechanism table incomplete")
    return values


def sub_profiles(env: Environment, agent: int) -> Iterator[SubProfile]:
    """Every profile of the other agents' actions, lexicographic order."""
    env.check_agent(agent)
    rest = [acts for j, acts in enumerate(env.actions) if j != agent]
    return itertools.product(*rest)


def full_profile(sub: SubProfile, agent: int, action: str) -> Profile:
    """Insert `action` for `agent` into a sub-profile of the others."""
    return sub[:agent] + (action,) + sub[agent:]


class BAWitness(Value):
    """Certificate that a mechanism admits the Brexit anomaly for one agent.

    At `a_minus` the actions `r` and `l` produce the same result yet the agent
    strictly prefers the "protest" pair (l, result); at the distinct
    sub-profile `b_minus` playing `r` is a weakly best response.
    """

    _fields = ("agent", "r", "l", "a_minus", "b_minus", "ordering")

    def __init__(
        self,
        agent: int,
        r: str,
        l: str,
        a_minus: SubProfile,
        b_minus: SubProfile,
        ordering: Ordering,
    ) -> None:
        set_field(self, "agent", agent)
        set_field(self, "r", r)
        set_field(self, "l", l)
        set_field(self, "a_minus", a_minus)
        set_field(self, "b_minus", b_minus)
        set_field(self, "ordering", ordering)


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
    domains = data.get("domains")
    if domains is not None:
        if not isinstance(domains, list) or len(domains) != len(actions):
            raise ParseError("domains must list one spec per agent")
        domains = tuple(domain_from_json(i, d) for i, d in enumerate(domains))
    return Environment.create(actions, outcomes, domains)


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
