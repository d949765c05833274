"""Row sets: each kind's comparisons answered for many listed orderings at once.

The search asks its comparisons of one ordering at a time.  The tests that
need an oracle over a whole full domain (up to 40320 strict orderings) read
it as row sets instead.  Row o of a rank table (`rank_table`, the rows
`domains.rows` lists, kept once per pair count and kind) ranks an agent's
pairs, by column, as the o-th ordering does; a row set is an int whose bit
o stands for row o, read through one matrix `le`, where `le[p][q]` holds
the rows ranking column p weakly above column q (`row_sets`).  Each kind's
comparisons have a row-set form, `relations(index, le)`, `index` mapping the
agent's pairs to columns, which gives `(beats_ii, beats_iii)`, each called
as `beats(lhs, rhs, rows)` and returning the part of `rows` under which
`lhs`, an (action, value) pair, beats `rhs`: `rank_relations` for the
deterministic kind and `fsd_relations` for the probabilistic one.
`assert_relations_match` pins each to the comparisons it stands for, and
`rows_below` walks the rows with `domains.first_ranks`.

`forward_chain` is the probabilistic walk's chain test run forward, one
reach per need in every order of the needs: the oracle for
`stochastic._reached`, which runs it backward once per tuple.
"""

import functools
import itertools
import math

from exmech import domains


@functools.cache
def rank_table(n, kind):
    """Every row of a full kind over n positions, in `domains.rows` order, listed once."""
    return tuple(domains.rows(n, kind))


def row_set(rows):
    return sum(1 << o for o in rows)


def row_sets(table, n):
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
def full_rows(n, kind):
    """(rank table, `le`) of a full kind over n positions."""
    table = rank_table(n, kind)
    return table, row_sets(table, n)


def rows_below(table):
    """`domains.first_ranks`'s step over a rank table's rows, whose state is (depth, row indices).

    A head placed at `depth` keeps the rows whose class there is exactly the
    head's positions, and is refused where none is left.  The table's kind
    orders the rows, so the step reads neither `k` nor `tail`.
    """

    def below(head, state, k, tail):
        depth, rows = state
        kept = [o for o in rows if {p for p, c in enumerate(table[o]) if c == depth} == set(head)]
        return (depth + 1, kept) if kept else None

    return below


def rank_relations(index, le, strict_iii=False):
    """(beats_ii, beats_iii) as row sets: strict preference, then weak unless `strict_iii`."""

    def strictly(lhs, rhs, rows):
        return rows & ~le[index[rhs]][index[lhs]]

    def weakly(lhs, rhs, rows):
        return rows & le[index[lhs]][index[rhs]]

    return strictly, strictly if strict_iii else weakly


def class_terms(index, lhs, rhs):
    """`lhs` minus `rhs`, (action, distribution) lotteries, as (column, mass) terms.

    Masses are the distributions' integer weights rescaled to the lcm of
    their scales, summed by column (same-action lotteries share columns),
    with zero-probability pairs skipped and zero sums dropped.
    """
    (a, g), (b, h) = lhs, rhs
    scale = math.lcm(g.scale, h.scale)
    mass = {}
    for action, dist, factor in ((a, g, scale // g.scale), (b, h, -(scale // h.scale))):
        for z, w in dist.weights:
            k = index[(action, z)]
            mass[k] = mass.get(k, 0) + factor * w
    return [(k, m) for k, m in mass.items() if m]


def fsd_relations(index, le):
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

    def beats(lhs, rhs, rows):
        terms = class_terms(index, lhs, rhs)
        positive = 0
        for t, _ in terms:
            sums = {0: rows}
            for p, m in terms:  # le[t][t] is every row, so t's own mass is always added
                above = le[p][t]
                split = {}
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


def assert_relations_match(relations, reference, index, le, orderings, comparisons):
    """Each row-set relation equals the comparison it stands for.

    `relations(index, le)` gives (beats_ii, beats_iii) over a table whose row
    o is `orderings[o]`; `reference` gives the (beats_ii, beats_iii) the
    kind's search and validator take.  For every (lhs, rhs) in
    `comparisons`, each relation is given every row alone, all rows at once,
    every other row and no row, and must return exactly the given rows under
    which its reference holds.  Returns the set of reference verdicts seen.
    """
    every = row_set(range(len(orderings)))
    alternate = row_set(range(0, len(orderings), 2))
    verdicts = set()
    # a kind that compares with one relation in both conditions is checked once
    for fast, slow in set(zip(relations(index, le), reference)):
        for lhs, rhs in comparisons:
            expected = [slow(o, lhs, rhs) for o in orderings]
            verdicts.update(expected)
            holds = row_set(k for k, e in enumerate(expected) if e)
            single = [fast(lhs, rhs, 1 << k) for k in range(len(orderings))]
            assert single == [holds & (1 << k) for k in range(len(orderings))]
            assert fast(lhs, rhs, every) == holds
            assert fast(lhs, rhs, alternate) == holds & alternate
            assert fast(lhs, rhs, 0) == 0
    return verdicts


def repunit_steps(m):
    """(shift, points lacking it) per outcome of L, then of R, over 4^m points, as repunits.

    Bit c of a point's index is clear in runs of 2^c: a repunit in base
    2^(2^(c+1)) times 2^(2^c) - 1.
    """
    end = (1 << 2 * m) - 1
    return [
        (1 << c, ((1 << (1 << c)) - 1) * ((1 << (end + 1)) - 1) // ((1 << (2 << c)) - 1))
        for c in range(2 * m)
    ]


def forward_chain(m, valid, needs, point, strict):
    """Whether a chain from point index `point` reaches the end through a point of each of `needs`.

    Points are bits L + R * 2^m of an int over outcome masks L and R, and
    the end is the last.  A reach takes single outcome steps into `valid`
    points under `strict`, and goes to every valid point above otherwise.
    A chain through some points exists iff the end is reached from the
    start through each, in some order: so each order of the needs is tried,
    reaching from the point, then from the reached points of each need.
    """
    end = (1 << 2 * m) - 1
    steps = repunit_steps(m)

    def reach(points):
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

    for order in itertools.permutations(needs):
        points = reach(1 << point)
        for need in order:
            points = reach(points & need)
        if points >> end & 1:
            return True
    return False
