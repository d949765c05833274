"""Built-in verification suite: one machine check per headline claim.

Each claim function runs an independent desk-scale check of one property of
the library (characterization equivalence, axiom sweeps, witness
constructions, dominance dichotomy, mixed-mechanism sweeps) and reports a
pass/fail verdict with counts.  Verdicts are seed-independent; seeds only
choose the sampled distributions and mechanisms.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping
from fractions import Fraction

from .deterministic import (
    DetMechanism,
    build_groves_queueing,
    condition1_counterexample,
    condition1_counterexamples,
    find_ba_witness,
    satisfies_condition1,
    satisfies_monotonicity,
    satisfies_unanimity,
    validate_witness,
    construct_queueing_witness,
)
from .domains import (
    FULL_KINDS,
    build_queueing_pref_1,
    build_queueing_pref_2,
    classical_orderings,
    enumerate_strict_orderings,
    indifferent_ordering,
    is_separable,
)
from .model import DomainKind, DomainSpec, Environment, Profile, Value, enumerate_profiles, set_field
from .queueing import QueueingParams
from .stochastic import (
    Distribution,
    DominanceBlock,
    Lottery,
    ProbMechanism,
    build_mixed_counterexample,
    counterexample_preference,
    dominance_dichotomy,
    find_prob_ba_witness,
    fsd,
    is_completely_mixed,
    phi,
    random_completely_mixed_mechanism,
    random_totally_mixed,
    validate_prob_witness,
)

DEFAULT_SEED = 0

THETA_SWEEP = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
GRID_SWEEP = (
    (Fraction(0), Fraction(1, 2), Fraction(1)),
    (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
    (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)),
)
PROP_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


class ClaimResult(Value):
    _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str) -> None:
        set_field(self, "name", name)
        set_field(self, "passed", passed)
        set_field(self, "detail", detail)


def small_universe() -> Environment:
    """Two agents, two actions each, two outcomes."""
    return Environment.create((("a0", "a1"), ("b0", "b1")), ("z0", "z1"))


def all_tables(env: Environment, fixed: Mapping[Profile, str] | None = None) -> list[DetMechanism]:
    """Every deterministic outcome table over the environment with the cells `fixed` gives.

    The tables come in the order of the unrestricted list, so fixing cells
    keeps exactly the tables that hold those outcomes, in the same order.
    """
    profiles = list(enumerate_profiles(env))
    fixed = fixed or {}
    cells = [(fixed[p],) if p in fixed else env.outcomes for p in profiles]
    return [
        DetMechanism(env, dict(zip(profiles, values))) for values in itertools.product(*cells)
    ]


def claim_characterization_equivalence() -> ClaimResult:
    """Exhaustive search and tie propagation agree on every small mechanism."""
    env = small_universe()
    agreements = total = 0
    for mech in all_tables(env):
        holds = satisfies_condition1(mech)
        for kind in FULL_KINDS:
            witness = find_ba_witness(mech, kind)
            total += 1
            if witness is not None:
                validate_witness(mech, witness)
            if (witness is None) == holds:
                agreements += 1
    return ClaimResult(
        "characterization-equivalence",
        agreements == total == 48,
        f"{agreements}/{total} verdict agreements over 16 tables x 3 domain kinds",
    )


def claim_voting_axioms_force_anomaly() -> ClaimResult:
    """Every unanimous and monotone two-voter two-candidate rule has a witness.

    Only the tables electing each unanimously voted candidate are built; each
    is still asked for both axioms.
    """
    candidates = ("1", "2")
    env = Environment.create((("0",) + candidates, ("0",) + candidates), candidates)
    checked = witnesses = 0
    for mech in all_tables(env, {(c, c): c for c in candidates}):
        if not (satisfies_unanimity(mech) and satisfies_monotonicity(mech)):
            continue
        for kind in FULL_KINDS:
            checked += 1
            witness = find_ba_witness(mech, kind)
            if witness is not None:
                validate_witness(mech, witness)
                witnesses += 1
    return ClaimResult(
        "voting-axioms-force-anomaly",
        checked > 0 and witnesses == checked,
        f"{witnesses}/{checked} witnesses across {checked // 3} qualifying tables x 3 kinds",
    )


def claim_groves_tie_propagation_fails(mech: DetMechanism | None = None) -> ClaimResult:
    """Tie propagation fails on the queueing grid, with an ordered counterexample.

    Looks for a failure where the tying sub-profile report sits below both of
    the agent's reports and the tie-breaking report sits above both.
    """
    if mech is None:
        params = QueueingParams(Fraction(1, 2), Fraction(1, 2), PROP_GRID)
        _, mech = build_groves_queueing(params)
    first = condition1_counterexample(mech)
    if first is None:
        return ClaimResult("groves-tie-propagation-fails", False, "no counterexample found")
    shaped = None
    for cex in condition1_counterexamples(mech):
        if cex.agent != 0:
            continue
        a2, b2 = Fraction(cex.a_minus[0]), Fraction(cex.b_minus[0])
        r1, l1 = Fraction(cex.r), Fraction(cex.l)
        if a2 < r1 < l1 < b2:
            shaped = cex
            break
    if shaped is None:
        return ClaimResult(
            "groves-tie-propagation-fails", False, "no counterexample with a2 < r1 < l1 < b2"
        )
    tie_holds = mech.outcome_at(0, shaped.r, shaped.a_minus) == mech.outcome_at(
        0, shaped.l, shaped.a_minus
    )
    tie_breaks = mech.outcome_at(0, shaped.r, shaped.b_minus) != mech.outcome_at(
        0, shaped.l, shaped.b_minus
    )
    return ClaimResult(
        "groves-tie-propagation-fails",
        tie_holds and tie_breaks,
        f"counterexample a2={shaped.a_minus[0]} < r1={shaped.r} < l1={shaped.l} "
        f"< b2={shaped.b_minus[0]}",
    )


def claim_queueing_preferences_separable() -> ClaimResult:
    """Both constructed queueing preferences are separable across the sweep."""
    checked = separable = 0
    for grid in GRID_SWEEP:
        env, _ = build_groves_queueing(QueueingParams(0, 0, grid))  # outcomes follow the grid
        for theta in THETA_SWEEP:
            params = QueueingParams(theta, theta, grid)
            for ordering in (
                build_queueing_pref_1(params, env),
                build_queueing_pref_2(params, env),
            ):
                checked += 1
                separable += is_separable(ordering)
    return ClaimResult(
        "queueing-preferences-separable",
        separable == checked,
        f"{separable}/{checked} orderings separable over {len(GRID_SWEEP)} grids x "
        f"{len(THETA_SWEEP)} costs x 2 patients",
    )


def claim_queueing_witness_validates() -> ClaimResult:
    """The honest-report protest witness builds and re-validates."""
    params = QueueingParams(Fraction(1, 2), Fraction(1, 4), PROP_GRID)
    witness = construct_queueing_witness(params)
    _, mech = build_groves_queueing(params)
    validate_witness(mech, witness)
    return ClaimResult(
        "queueing-witness-validates",
        True,
        f"witness r={witness.r} l={witness.l} a=({witness.a_minus[0]}) b=({witness.b_minus[0]})",
    )


def claim_strict_dichotomy_blocks_dominance(
    seed: int = DEFAULT_SEED, samples: int = 10
) -> ClaimResult:
    """No lottery of the dichotomy's blocked action dominates one of the other's.

    Decided exactly for each strict ordering o of two actions' pairs over two
    outcomes and each action order (r, l): with lo the blocked action and hi
    the other, o's best pair t of {r, l} x Z must be hi's, every point mass
    on a lo pair must put nothing at or above t, and the point mass on t
    must put everything there.  `phi` is linear in the lottery, so at t every
    lo-lottery has contour mass 0 and every totally mixed hi-lottery a
    positive one, which rules out lo's dominating hi's for every totally
    mixed pair.  `samples` pairs (g, h) of totally mixed distributions per
    action order then spot-check `fsd` against that fact on every ordering,
    in either crossing of g and h.
    """
    rng = random.Random(seed)
    actions, outcomes = ("a0", "a1"), ("z0", "z1")
    pairs = tuple((a, z) for a in actions for z in outcomes)
    orderings = list(enumerate_strict_orderings(0, pairs))
    point = {z: Distribution.point_mass(z, outcomes) for z in outcomes}
    exact = cases = violations = checks = 0
    for r, l in itertools.permutations(actions, 2):
        draws = [(random_totally_mixed(outcomes, rng), random_totally_mixed(outcomes, rng))
                 for _ in range(samples)]
        for ordering in orderings:  # every ordering checked against the same draws
            top = dominance_dichotomy(ordering, r, l) is DominanceBlock.R_TOP
            lo, hi = (l, r) if top else (r, l)
            best = min((p for p in ordering.pairs if p[0] in (r, l)), key=ordering.rank)
            cases += 1
            exact += (
                best[0] == hi
                and all(phi(ordering, Lottery(lo, point[z]), best) == 0 for z in outcomes)
                and phi(ordering, Lottery(hi, point[best[1]]), best) == 1
            )
            for g, h in draws:
                violations += fsd(ordering, (lo, g), (hi, h)) or fsd(ordering, (lo, h), (hi, g))
            checks += len(draws)
    return ClaimResult(
        "strict-dichotomy-blocks-dominance",
        exact == cases == 48 and checks > 0 and violations == 0,
        f"{exact}/{cases} (ordering, action order) cases blocked exactly; "
        f"{violations} dominance violations in {checks} (ordering, action order, sample) checks",
    )


def claim_mixed_mechanisms_avoid_anomaly(
    seed: int = DEFAULT_SEED, count: int = 200
) -> ClaimResult:
    """Random completely mixed mechanisms have no witness under strict domains.

    The search settles every agent of such a mechanism by the dominance
    dichotomy before reading any of its values.
    """
    rng = random.Random(seed)
    env = small_universe()
    clean = not_mixed = 0
    for _ in range(count):
        mech = random_completely_mixed_mechanism(env, rng)
        if not is_completely_mixed(mech):
            not_mixed += 1
        elif find_prob_ba_witness(mech, DomainKind.STRICT) is None:
            clean += 1
    return ClaimResult(
        "mixed-mechanisms-avoid-anomaly",
        count > 0 and clean == count,
        f"{clean}/{count} seeded mechanisms witness-free under strict domains, "
        "each settled by the dominance dichotomy"
        + (f", {not_mixed} not completely mixed" if not_mixed else ""),
    )


def claim_mixed_counterexample_reproduced(
    mech: ProbMechanism | None = None,
) -> ClaimResult:
    """The worked counterexample's eight contour values and witness reproduce."""
    if mech is None:
        _, mech = build_mixed_counterexample()
    pref = counterexample_preference()
    b0 = ("b0",)
    b1 = ("b1",)
    lot_a0_b0 = Lottery("a0", mech.dist_at(0, "a0", b0))
    lot_a1_b0 = Lottery("a1", mech.dist_at(0, "a1", b0))
    lot_a0_b1 = Lottery("a0", mech.dist_at(0, "a0", b1))
    lot_a1_b1 = Lottery("a1", mech.dist_at(0, "a1", b1))
    expected = [
        (lot_a0_b0, ("a0", "z1"), Fraction(2, 3)),
        (lot_a1_b0, ("a0", "z1"), Fraction(1, 3)),
        (lot_a0_b0, ("a1", "z0"), Fraction(2, 3)),
        (lot_a1_b0, ("a1", "z0"), Fraction(1, 3)),
        (lot_a0_b0, ("a0", "z0"), Fraction(1)),
        (lot_a1_b0, ("a0", "z0"), Fraction(1)),
        (lot_a0_b0, ("a1", "z1"), Fraction(1)),
        (lot_a1_b0, ("a1", "z1"), Fraction(1)),
        (lot_a1_b1, ("a0", "z1"), Fraction(3, 4)),
        (lot_a0_b1, ("a0", "z1"), Fraction(1, 2)),
        (lot_a1_b1, ("a1", "z0"), Fraction(3, 4)),
        (lot_a0_b1, ("a1", "z0"), Fraction(1, 2)),
        (lot_a1_b1, ("a0", "z0"), Fraction(1)),
        (lot_a0_b1, ("a0", "z0"), Fraction(1)),
        (lot_a1_b1, ("a1", "z1"), Fraction(1)),
        (lot_a0_b1, ("a1", "z1"), Fraction(1)),
    ]
    matches = sum(phi(pref, lot, target) == value for lot, target, value in expected)
    domains = (
        DomainSpec.explicit((pref,)),
        DomainSpec.explicit((indifferent_ordering(1, mech.env.actions[1], mech.env.outcomes),)),
    )
    witness = find_prob_ba_witness(mech, domains)
    witness_ok = (
        witness is not None
        and (witness.agent, witness.r, witness.l) == (0, "a1", "a0")
        and witness.a_minus == b0
        and witness.b_minus == b1
    )
    if witness_ok:
        validate_prob_witness(mech, witness)
    return ClaimResult(
        "mixed-counterexample-reproduced",
        matches == len(expected) and witness_ok and is_completely_mixed(mech),
        f"{matches}/{len(expected)} contour values match; "
        f"witness {'found' if witness_ok else 'missing'}",
    )


def claim_classical_domains_avoid_anomaly() -> ClaimResult:
    """All-classical explicit domains admit no witness on any small mechanism."""
    env = small_universe()
    domains = tuple(
        DomainSpec.explicit(classical_orderings(i, env.actions[i], env.outcomes))
        for i in range(env.n)
    )
    clean = total = 0
    for mech in all_tables(env):
        total += 1
        if find_ba_witness(mech, domains) is None:
            clean += 1
    return ClaimResult(
        "classical-domains-avoid-anomaly",
        clean == total == 16,
        f"{clean}/{total} tables witness-free under all-classical domains",
    )


def run_all(
    seed: int = DEFAULT_SEED, mixed_count: int = 200, samples: int = 10
) -> list[ClaimResult]:
    return [
        claim_characterization_equivalence(),
        claim_voting_axioms_force_anomaly(),
        claim_groves_tie_propagation_fails(),
        claim_queueing_preferences_separable(),
        claim_queueing_witness_validates(),
        claim_strict_dichotomy_blocks_dominance(seed, samples),
        claim_mixed_mechanisms_avoid_anomaly(seed, mixed_count),
        claim_mixed_counterexample_reproduced(),
        claim_classical_domains_avoid_anomaly(),
    ]
