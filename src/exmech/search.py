"""Canonical-order anomaly search and the certificate check for both mechanism kinds.

A deterministic outcome is a point-mass lottery, so the deterministic and the
probabilistic certificates differ only in how an ordering compares pairs or
lotteries.  This module owns everything else: the search order, each agent's
candidate orderings, condition (i) (equality of the mechanism's value at a),
the statistics block, the witness ordering and the witness check
(`check_certificate`), to which each kind supplies only its comparisons.

A tuple (agent, r, l, a, b) passing (i) is a witness when some admissible
ordering meets (ii) and (iii); the search takes the canonically first such
ordering from one hook per agent, `witness_ordering(r, l, value, at_b,
key)`, where `at_b` maps each action to its value at b and `key` holds the
codes (below) of the tied value, r's value at b and l's value at b.  The
hook is made at the agent's first tied value that reaches a signature other
than its own, in one of two forms.
- For an explicit domain, from the kind's `beats = (beats_ii, beats_iii)`,
  the comparisons `check_certificate` takes, each called as `beats(ordering,
  lhs, rhs)` on (action, value) pairs.  `beats_ii(o, (l, value), (r,
  value))` runs on every listed ordering o once per tied value, and the
  orderings that pass are kept; the witness is the first kept ordering with
  `beats_iii(o, (r, value at b), (x, value at b))` for every rival x, asked
  in action order.
- For a full kind, which is never listed, from the kind's `full(index,
  kind)`, `index` mapping the agent's pairs to positions, which gives
  `(start, below)`.  `start(r, l, value, at_b, key)` is the first state of
  a walk over heads, or None when no ordering of the kind meets (ii) and
  (iii) for the tuple; equal keys stand for equal values, so a kind may
  memoize its verdict by `key`.  From that state `domains.first_ranks`
  takes at each depth the first head that `below` accepts, and so reaches
  the canonically first ordering meeting both.
The ordering count, `domains.row_count` or the number of listed orderings,
is all that is computed at search start.

The scan is quotiented by sub-profile signatures, read from the
mechanism's code table `codes`: one code per profile, in
`enumerate_profiles` order, equal codes standing for equal values.  That
order is lexicographic in per-agent indices, so an agent's actions at one
sub-profile sit `stride` apart, the product of the later agents' action
counts, from the profile where it plays its first action (the sub-profile's
`base`); the signature of sub-profile b, the codes of every action's value
at b, is the one slice `codes[base:base + block:stride]`, with `block` the
agent's action count times `stride`.  The sub-profiles and their bases are
walked together, lazily, in sub-profile order.  For fixed (r, l),
condition (i) depends on a only through its signature, (ii) only through
the tied value, and (iii) depends on b only through its signature.  So a
and b both walk the distinct signatures by first index, each standing for
its first sub-profile, and the scan costs action pairs times signatures; a
walk that runs out slices on up to the next new signature, and once the
sub-profiles are all sliced no walk asks again.  A b sharing a's
signature never completes a witness: there l's value is the tied one, and
each kind's comparisons meet the contract `search_witness` states.  So
each tied value is decided once per (r, l), at its first tie, by a walk
over the other signatures that stops at the first completing it; a value
with none is dead for every later a.  Values themselves are read through
`value_at` only where the hook needs them: the tied value once its tie
reaches a rival signature, and each action's value at a signature once,
the first time that signature serves as b.  An agent whose sub-profiles all
share one signature (a constant mechanism's, say) has no value read and
nothing built, and within the cap, once they are all sliced, its other
action pairs are not walked.  And a kind may settle agents before the scan: when it says
that no strict ordering completes any tuple of the mechanism
(`strict_settled`, which the probabilistic kind sets for a completely mixed
mechanism by the dominance dichotomy), an agent within the cap whose
admissible orderings are all strict has nothing sliced, read, built or
asked.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from . import domains
from .errors import CapExceeded, InvariantViolation
from .model import (
    BAWitness,
    DomainKind,
    DomainSpec,
    Environment,
    Ordering,
    SubProfile,
    Value,
    check_fit,
    set_field,
    sub_profiles,
)


class SearchResult(Value):
    _fields = ("witness", "stats")

    def __init__(self, witness: BAWitness | None, stats: dict) -> None:
        set_field(self, "witness", witness)
        set_field(self, "stats", stats)


def search_witness(
    env: Environment,
    value_at: Callable[[int, str, SubProfile], object],
    codes: Sequence,
    domain_specs,
    beats: tuple[Callable, Callable],
    full: Callable,
    cap: int | None = None,
    strict_settled: bool = False,
) -> SearchResult:
    """Canonically first witness over the admissible orderings `domain_specs` resolve to.

    The search space is ordered by agent, then ordered action pairs (r, l),
    then ordered pairs of distinct sub-profiles (a, b), then orderings in
    domain row order; it is walked by tied value and signature, a as well
    as b taking the distinct signatures by first index.  Signatures are
    slices of `codes`, the mechanism's code table, and values are read
    through `value_at` only where a hook needs them (see the module
    docstring).  Each agent's witness ordering comes from one hook (see the
    module docstring), made from `beats`, the pair `(beats_ii, beats_iii)`
    of comparisons `check_certificate` takes, for an explicit domain, and
    from `full(index, kind)` for a full kind.  An agent past the cap gets a
    `None` count, and CapExceeded is raised only at its first tuple passing
    (i).  `strict_settled` says that no strict ordering meets (ii) and (iii)
    for any tuple of the mechanism, as the dominance dichotomy gives for a
    completely mixed probabilistic one; then each agent within the cap
    whose admissible orderings are all strict has nothing sliced or read
    and nothing built or asked.

    The walk requires each kind's comparisons to meet one contract: no
    ordering meets (ii) for a lottery x over a lottery y and (iii) for y
    over x, that is, `beats_ii(o, x, y)` and `beats_iii(o, y, x)` never
    both hold, and `start` is None where l's value at b is the tied one and
    r's is too.  Strict preference for (ii) meets it with weak or strict
    preference on the same ordering for (iii), and first-order stochastic
    dominance, being asymmetric, meets it as both.
    """
    specs = domains.resolve_domains(env, domain_specs)
    counts = [_count(env, i, spec, cap) for i, spec in enumerate(specs)]
    size = math.prod(map(len, env.actions))
    action_pairs, subs = 0, []
    for acts in env.actions:
        action_pairs += len(acts) * (len(acts) - 1)
        subs.append(size // len(acts))
    stats = {
        "agents": env.n,
        "action_pairs": action_pairs,
        "sub_profiles": subs,
        "orderings_per_agent": counts,
    }
    stride = size
    for agent, (spec, acts, count) in enumerate(zip(specs, env.actions, counts)):
        block, stride = stride, stride // len(acts)
        if strict_settled and count is not None and _all_strict(spec):
            continue
        # per agent, as a witness ends the search early: each sub-profile and its base
        bases = map(sum, itertools.product(range(0, size, block), range(stride)))
        unread = zip(sub_profiles(env, agent), bases)
        more = True  # until `unread` runs out
        witness_ordering = None  # made at the agent's first rival signature
        seen: set[tuple] = set()
        # [signature, its first sub-profile, each action's value there once read], by first index
        signatures: list[list] = []

        def next_signature() -> bool:
            """Slice sub-profiles up to the next new signature; False once none is left."""
            nonlocal more
            for b, base in unread:
                sig = codes[base : base + block : stride]
                if sig not in seen:
                    seen.add(sig)
                    signatures.append([sig, b, None])
                    return True
            more = False
            return False

        for ri, li in itertools.permutations(range(len(acts)), 2):  # (r, l) in action order
            if not more and len(signatures) == 1 and count is not None:
                break  # every sub-profile sliced, and none with a rival signature
            r, l = acts[ri], acts[li]
            dead: set = set()  # codes of tied values that complete no witness for (r, l)
            j = 0  # walk the signatures by first index, slicing only once they run out
            while j < len(signatures) or more and next_signature():
                sig_a, a, _ = signatures[j]
                j += 1
                code = sig_a[ri]
                if code != sig_a[li] or code in dead:
                    continue
                if count is None:  # past the cap, so this raises CapExceeded
                    domains.check_size(spec.kind, len(env.pairs_for(agent)), cap)
                dead.add(code)  # decided at its first tie: a witness, or none at all
                value = None  # the tied value, read at the first rival signature
                k = 0
                while k < len(signatures) or more and next_signature():
                    entry = signatures[k]
                    k += 1
                    sig, b, at_b = entry
                    if sig == sig_a:  # (iii) against (l, value) there undoes (ii)
                        continue
                    if witness_ordering is None:
                        witness_ordering = _witness_ordering(env, agent, spec, beats, full)
                    if value is None:
                        value = value_at(agent, r, a)
                    if at_b is None:
                        at_b = entry[2] = {x: value_at(agent, x, b) for x in acts}
                    found = witness_ordering(r, l, value, at_b, (code, sig[ri], sig[li]))
                    if found is not None:
                        return SearchResult(BAWitness(agent, r, l, a, b, found), stats)
    return SearchResult(None, stats)


def _all_strict(spec: DomainSpec) -> bool:
    """Whether every ordering `spec` admits is strict."""
    if spec.kind is DomainKind.EXPLICIT:
        return all(ordering.is_strict for ordering in spec.orderings)
    return spec.kind is DomainKind.STRICT


def _count(env: Environment, agent: int, spec: DomainSpec, cap: int | None) -> int | None:
    """The number of orderings `spec` admits for `agent`, or None past the cap.

    A full kind's cap and type checks run here, at search start; an explicit
    domain was checked when it was resolved.
    """
    if spec.kind is DomainKind.EXPLICIT:
        return len(spec.orderings)
    n = len(env.pairs_for(agent))
    try:
        domains.check_size(spec.kind, n, cap)
    except CapExceeded:
        return None
    return domains.row_count(n, spec.kind)


def _witness_ordering(
    env: Environment,
    agent: int,
    spec: DomainSpec,
    beats: tuple[Callable, Callable],
    full: Callable,
) -> Callable:
    """The agent's hook `witness_ordering(r, l, value, at_b, key) -> Ordering | None`.

    It gives the canonically first admissible ordering meeting (ii) for the
    tied `value` and (iii) at the signature whose values `at_b` maps each
    action to, or None when none does; `key` holds the codes of the tied
    value and of r's and l's values at b.  The witness ordering is chosen
    here and nowhere else: over an explicit domain, the first listed
    ordering meeting both; over a full kind, the ordering the walk over
    heads (`domains.first_ranks`) completes from `start`'s state.
    """
    if spec.kind is DomainKind.EXPLICIT:
        beats_ii, beats_iii = beats
        kept: dict[tuple, list[Ordering]] = {}  # (r, l, tied code) -> orderings meeting (ii)

        def witness_ordering(r: str, l: str, value, at_b: dict, key: tuple) -> Ordering | None:
            memo = r, l, key[0]
            if memo not in kept:
                kept[memo] = [o for o in spec.orderings if beats_ii(o, (l, value), (r, value))]
            anchor = (r, at_b[r])
            for ordering in kept[memo]:
                if all(beats_iii(ordering, anchor, (x, v)) for x, v in at_b.items() if x != r):
                    return ordering
            return None

        return witness_ordering
    pairs = env.pairs_for(agent)
    n = len(pairs)
    start, below = full({pair: c for c, pair in enumerate(pairs)}, spec.kind)

    def witness_ordering(r: str, l: str, value, at_b: dict, key: tuple) -> Ordering | None:
        state = start(r, l, value, at_b, key)
        if state is None:
            return None
        return Ordering.from_ranks(agent, pairs, domains.first_ranks(n, state, spec.kind, below))

    return witness_ordering


def check_certificate(
    env: Environment,
    witness: BAWitness,
    value_at: Callable[[int, str, SubProfile], object],
    beats_ii: Callable[[Ordering, tuple, tuple], bool],
    beats_iii: Callable[[Ordering, tuple, tuple], bool],
    domain: DomainSpec | DomainKind | str | None = None,
) -> None:
    """Re-check a witness against the mechanism `value_at` reads; raise on the first failure.

    The witness must name valid, distinct actions and sub-profiles and a
    full ordering of the agent's pairs.  With a `domain` (a spec, or a full
    kind or its name, as the searches take), the ordering must
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
    others = [acts for j, acts in enumerate(env.actions) if j != witness.agent]
    for sub in (witness.a_minus, witness.b_minus):  # by coordinate: nothing listed, nothing hashed
        if not (
            isinstance(sub, tuple)
            and len(sub) == len(others)
            and all(x in acts for x, acts in zip(sub, others))
        ):
            raise InvariantViolation("witness sub-profiles not valid for the environment")
    if witness.a_minus == witness.b_minus:
        raise InvariantViolation("witness sub-profiles must be distinct")
    ordering = witness.ordering
    if not isinstance(ordering, Ordering):
        raise InvariantViolation(f"witness ordering {ordering!r} is not an Ordering")
    check_fit(ordering, witness.agent, frozenset(env.pairs_for(witness.agent)))
    if isinstance(domain, (str, DomainKind)):
        domain = DomainSpec(domains.full_kind(domain))
    elif domain is not None and not isinstance(domain, DomainSpec):
        raise InvariantViolation(f"domain must be a DomainSpec or a domain kind, not {domain!r}")
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
