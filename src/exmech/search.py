"""Canonical-order anomaly search and the certificate check for both mechanism kinds.

A deterministic outcome is a point-mass lottery, so the deterministic and the
probabilistic certificates differ only in how an ordering compares pairs or
lotteries.  This module owns everything else: the search order, each agent's
candidate orderings, condition (i) (equality of the mechanism's value at a),
the statistics block, the witness ordering and the witness check
(`check_certificate`), to which each kind supplies only its comparisons.

A search narrows an agent's candidate orderings through two relations and
takes the canonically first that survives.  The candidates take one of two
forms.
- Row sets, for explicit domains and for every probabilistic kind.  Row o
  of an agent's domain ranks its pairs, in `env.pairs_for(agent)` order,
  under its o-th admissible ordering; a row set is a Python int whose bit o
  stands for row o, read through one matrix `le`, where `le[p][q]` holds the
  rows ranking column p weakly above column q (so the rows ranking p
  strictly above q are `rows & ~le[q][p]`).  The first survivor is the
  lowest set bit.  A full kind's `le` is built head by head from the rule
  that defines its canonical order (`domains.heads`), shared by every search
  over the same pair count and kind, and its witness row is read back from
  `le` (`_row_ranks`).  An explicit domain's rank vectors are read once
  (`domains.domain_rank_vectors`), `le` is its definition over them, and
  its witness is the listed ordering itself.  An FSD comparison of two
  lotteries weighs every class of a row, so the probabilistic full kinds
  keep rows for the witness, but build them only for a tuple known to give
  one: a kind may hand the search `tuple_test(index, kind)`, which decides
  from a tuple's values alone whether some ordering of a full kind
  completes it (`stochastic._chain_test`), and a tuple it rules out reads
  no row.
- Edge sets, for the deterministic full kinds.  Comparing two pairs asks
  one pair position to rank above another, so a deterministic tuple puts
  at most one edge per action on the agent's positions; the candidates are
  the orderings of the kind meeting those edges, and the first of them is
  found by a walk over heads (`domains.first_ranks`): the first head that
  the edges allow on top and after which the rest can still be completed
  leads the block holding the lowest set bit `le` would name.  No `le`, and
  no row, is made.
Either way the row count comes from `domains.row_count` or the number of
listed rows, so no `le` is built for it.

The certificate needs two relations, and each kind hands the search the
candidate form of the same two it hands `check_certificate`: `relations(index,
le)` over row sets and, for the deterministic kind, `edge_relations(index,
kind)` over a full kind's edge sets.  The search makes them once per agent,
when a tied value first reaches a signature other than its own (see below),
or, given `tuple_test`, when that test first passes a tuple, and only then
builds the agent's `le`, if it has one; `index` maps the agent's pairs to
columns.  The call returns `(beats_ii, beats_iii)`, each
called as `beats(lhs, rhs, rows)` and returning the part of `rows` under
which `lhs`, an (action, value) pair, beats `rhs`, empty (falsy) when no
ordering is left.  Condition (ii) is `beats_ii((l, value), (r, value),
every)` over every candidate; (iii) narrows those with `beats_iii((r, value
at b), (x, value at b), rows)` rival by rival, in action order, and stops as
soon as none remain.  The first ordering of what survives every rival is the
witness.  That choice is made here (`_admissible`) and nowhere else.

The scan is quotiented by sub-profile signatures.  Each agent's values are
read lazily, in sub-profile order, and interned to small ints (so values
must hash consistently with `==`); the signature of sub-profile b is the
tuple of the codes of every action's value at b.  For fixed (r, l),
condition (ii) depends on a only through the tied value, and the narrowing
for (iii) depends on b only through its signature.  A b sharing a's
signature never survives: there l's value is the tied one, and the search
requires of each kind's relations that (iii) against a lottery never holds
where (ii) for that lottery over it does (`search_witness` states this
contract).  So whether some b completes a witness, and which b and row,
depends on a only through the tied value, and each tied value is decided
once per (r, l): at its first tie, a walk over the signatures in order of
first index, skipping a's own, stops at the first whose rows survive, b
being that signature's first index.  (ii) runs once, at the first
signature the walk does not skip, so an agent whose sub-profiles all share
one signature (a constant mechanism's, say) never has its rows built.  A
value with no survivor is dead for every later a.  Given `tuple_test`, the
walk asks it first at each signature, once per agent and (tied, anchor,
l-rival) codes, and skips a signature it rules out, so (ii) and (iii) run
only at the signature that gives the witness; a pass there with no
surviving row raises InvariantViolation.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

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
    domain_specs,
    relations: Callable,
    cap: int | None = None,
    edge_relations: Callable | None = None,
    tuple_test: Callable | None = None,
) -> SearchResult:
    """Canonically first witness over the admissible orderings `domain_specs` resolve to.

    The search space is ordered by agent, then ordered action pairs (r, l),
    then ordered pairs of distinct sub-profiles (a, b), then orderings in
    domain row order; it is walked by tied value and signature (see the
    module docstring), and values are read only as far as the walk reaches.
    Rows are built only where the walk needs them.  A kind whose relations
    compare single pairs also passes `edge_relations(index, kind)`, the
    same two relations over a full kind's edge sets; its full-kind agents
    then get no rows at all.  A kind may pass instead `tuple_test(index,
    kind)`, giving `exists(value, anchor value, l-rival value)`, which says
    whether some ordering of a full kind meets (ii) and (iii) for them;
    its full-kind agents then get rows only for the witness.  An agent past
    the cap gets no rows and a `None` count; CapExceeded is raised only at
    its first tuple passing (i).

    The walk requires the relations to meet one contract: for any
    candidates `rows` and lotteries x and y, no candidate of `beats_ii(x,
    y, rows)` survives `beats_iii(y, x, ...)`.  Strict preference for (ii)
    meets it with weak or strict preference on the same ordering for (iii),
    and first-order stochastic dominance, being asymmetric, meets it as
    both.
    """
    specs = domains.resolve_domains(env, domain_specs)
    views = [
        _admissible(env, i, spec, cap, relations, edge_relations, tuple_test)
        for i, spec in enumerate(specs)
    ]
    stats = {
        "agents": env.n,
        "action_pairs": sum(len(acts) * (len(acts) - 1) for acts in env.actions),
        "sub_profiles": [math.prod(map(len, env.actions)) // len(acts) for acts in env.actions],
        "orderings_per_agent": [view[0] for view in views],
    }
    for agent, (spec, acts, (count, narrowing, ordering_of, testing)) in enumerate(
        zip(specs, env.actions, views)
    ):
        subs = tuple(sub_profiles(env, agent))  # per agent: a witness ends the search early
        pairs = env.pairs_for(agent)
        beats_ii = beats_iii = None  # made at the agent's first rival signature
        exists = None  # likewise, for a full kind given `tuple_test`
        tested: dict[tuple[int, int, int], bool] = {}  # (tied, anchor, l-rival) codes -> exists
        codes: dict = {}  # value -> its code, in order of first reading
        values: list = []  # code -> value
        sigs: list[tuple[int, ...]] = []  # the signature of each sub-profile read so far
        first: dict[tuple[int, ...], int] = {}  # signature -> its first index
        order: list[tuple[int, ...]] = []  # the distinct signatures, by first index

        def read() -> None:
            """Read the next sub-profile's signature: the code of each action's value there."""
            b = subs[len(sigs)]
            sig = []
            for x in acts:
                value = value_at(agent, x, b)
                code = codes.setdefault(value, len(values))
                if code == len(values):
                    values.append(value)
                sig.append(code)
            sig = tuple(sig)
            if first.setdefault(sig, len(sigs)) == len(sigs):
                order.append(sig)
            sigs.append(sig)

        for ri, r in enumerate(acts):
            for li, l in enumerate(acts):
                if r == l:
                    continue
                dead: set[int] = set()  # tied values that complete no witness for (r, l)
                for i, a in enumerate(subs):
                    if i == len(sigs):
                        read()
                    sig_a = sigs[i]
                    code = sig_a[ri]
                    if code != sig_a[li] or code in dead:
                        continue
                    if count is None:  # past the cap, so this raises CapExceeded
                        domains.check_full_domain(spec.kind, pairs, cap)
                    dead.add(code)  # decided at its first tie: a witness, or none at all
                    value = values[code]
                    candidates = None  # what passes (ii), once a rival signature is reached
                    k = 0  # walk the signatures by first index, reading only once they run out
                    while k < len(order) or len(sigs) < len(subs):
                        if k == len(order):
                            read()
                            continue
                        sig = order[k]
                        k += 1
                        if sig == sig_a:  # (iii) against (l, value) there undoes (ii)
                            continue
                        if testing is not None:
                            key = (code, sig[ri], sig[li])
                            if key not in tested:
                                exists = exists or testing()
                                tested[key] = exists(value, values[sig[ri]], values[sig[li]])
                            if not tested[key]:  # no ordering gives a witness: no rows, no (ii)
                                continue
                        if candidates is None:
                            if beats_ii is None:
                                every, beats_ii, beats_iii = narrowing()
                            candidates = beats_ii((l, value), (r, value), every)
                            if not candidates and testing is None:
                                break
                        anchor = (r, values[sig[ri]])
                        rows = candidates
                        for xi, x in enumerate(acts):
                            if xi != ri and rows:
                                rows = beats_iii(anchor, (x, values[sig[xi]]), rows)
                        if rows:
                            b = subs[first[sig]]
                            return SearchResult(
                                BAWitness(agent, r, l, a, b, ordering_of(rows)), stats
                            )
                        if testing is not None:
                            raise InvariantViolation(
                                f"the tuple test passed agent {agent}'s ({r!r}, {l!r}) at "
                                f"sub-profiles {a!r} and {subs[first[sig]]!r}, but no row survives"
                            )
    return SearchResult(None, stats)


def _admissible(
    env: Environment,
    agent: int,
    spec: DomainSpec,
    cap: int | None,
    relations: Callable,
    edge_relations: Callable | None,
    tuple_test: Callable | None,
) -> tuple:
    """(row count, thunk making (every, beats_ii, beats_iii), ordering of survivors, test thunk).

    `every` is every candidate; the test thunk makes the tuple test, or is
    None where the walk asks none.

    Everything that can reject the domain runs here, at search start: the
    cap and type checks of a full kind, and the reading of an explicit
    domain's rank vectors.  The relations, and any rows, wait for the walk
    to need them.  The canonically first ordering that survives is the
    witness, chosen here and nowhere else.  Over rows it is the lowest set
    bit: an explicit domain's rows are its listed orderings, so that row's
    ordering is the listed one; a full kind's row is rebuilt from its ranks,
    read from `le` (`_row_ranks`).  Given `edge_relations`, a full kind's
    "rows" are the edges a tuple has put on the agent's pair positions,
    starting from none, and the walk over heads (`domains.first_ranks`)
    finds the first ordering that meets them, with no `le`.  Otherwise, given
    `tuple_test`, a full kind's walk asks `tuple_test(index, kind)` about a
    tuple before its rows, which are then built only for the witness.
    Past the cap all four are None: no rows.
    """
    pairs = env.pairs_for(agent)
    n = len(pairs)
    kind = spec.kind

    def index() -> dict:
        return {pair: c for c, pair in enumerate(pairs)}

    if kind is DomainKind.EXPLICIT:
        # looked up on the module so that a wrapper installed there sees every explicit table
        table = domains.domain_rank_vectors(env, agent, spec, cap)
        return (
            len(table),
            lambda: ((1 << len(table)) - 1, *relations(index(), _row_sets(table, n))),
            lambda rows: spec.orderings[_lowest(rows)],
            None,
        )
    try:
        domains.check_full_domain(kind, pairs, cap)
    except CapExceeded:
        return None, None, None, None
    count = domains.row_count(n, kind)
    if edge_relations is not None:
        return (
            count,
            lambda: ((), *edge_relations(index(), kind)),
            lambda edges: Ordering.from_ranks(agent, pairs, domains.first_ranks(n, edges, kind)),
            None,
        )
    return (
        count,
        lambda: ((1 << count) - 1, *relations(index(), _shared_row_sets(n, kind))),
        lambda rows: Ordering.from_ranks(
            agent, pairs, _row_ranks(_shared_row_sets(n, kind), _lowest(rows))
        ),
        tuple_test and (lambda: tuple_test(index(), kind)),
    )


def _lowest(rows: int) -> int:
    """The index of the lowest set bit: the canonically first row of a row set."""
    return (rows & -rows).bit_length() - 1


def _row_ranks(le: list[list[int]], o: int) -> list[int]:
    """Row o's rank vector: column p's class index, read from bit o of `le`.

    The columns at or above p number the pairs in p's class and every better
    one, so these counts, distinct and sorted, are the classes in order.
    """
    bit = 1 << o
    above = [sum([1 for q_le_p in column if q_le_p & bit]) for column in zip(*le)]
    classes = {count: k for k, count in enumerate(sorted(set(above)))}
    return [classes[count] for count in above]


def _row_sets(table, n: int) -> list[list[int]]:
    """`le` for the rows of a rank table: bit o of le[p][q] is set iff row o ranks p at or above q.

    Each entry is read from one bit string, row o being its o-th digit from
    the right; the leading "0" makes an empty table's string a number.
    """
    rows = table[::-1]
    return [
        [int("0" + "".join("1" if rv[p] <= rv[q] else "0" for rv in rows), 2) for q in range(n)]
        for p in range(n)
    ]


@functools.cache
def _shared_row_sets(n: int, kind: DomainKind) -> list[list[int]]:
    """`le` of the full domain of `kind` over n positions, built block by block from its heads.

    The rows whose first class is a head H form one contiguous block: for p
    in H, le[p][q] holds the whole block; for q in H and p outside it,
    none of it; for p and q both outside H, the tail's own `le`, shifted to
    the block's offset.  So le[p][q] is `above[p]`, the blocks whose head
    holds p, joined with the tail parts: each head adds its block once per
    position it holds.  Tails are memoized here too, so no row is made.
    Heads of one size lead blocks of one length, counted once per size.
    """
    above = [0] * n
    le = [[0] * n for _ in range(n)]
    offset = size = 0
    for head, tail in domains.heads(range(n), kind):
        if len(head) != size:
            size = len(head)
            count = domains.row_count(n - size, tail)
            rows = (1 << count) - 1
        block = rows << offset
        for p in head:
            above[p] |= block
        rest = [p for p in range(n) if p not in head]
        for tail_p, p in zip(_shared_row_sets(len(rest), tail), rest):
            row = le[p]
            for tail_pq, q in zip(tail_p, rest):
                row[q] |= tail_pq << offset
        offset += count
    return [[mask | tails for tails in row] for mask, row in zip(above, le)]


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
    subs = tuple(sub_profiles(env, witness.agent))  # `in` compares, so it hashes no malformed one
    if witness.a_minus not in subs or witness.b_minus not in subs:
        raise InvariantViolation("witness sub-profiles not valid for the environment")
    if witness.a_minus == witness.b_minus:
        raise InvariantViolation("witness sub-profiles must be distinct")
    ordering = witness.ordering
    if not isinstance(ordering, Ordering):
        raise InvariantViolation(f"witness ordering {ordering!r} is not an Ordering")
    if ordering.agent != witness.agent:
        raise InvariantViolation("witness ordering tagged for a different agent")
    if ordering.pairs != frozenset(env.pairs_for(witness.agent)):
        raise InvariantViolation("witness ordering does not partition the agent's pairs")
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
