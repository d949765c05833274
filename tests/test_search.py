"""The search returns the canonically first witness, checked against a brute-force oracle."""

import functools
import itertools
import random

import pytest

from exmech.deterministic import DetMechanism, find_ba_witness, validate_witness
from exmech.domains import domain_orderings, indifferent_ordering, resolve_domains
from exmech.errors import InvariantViolation
from exmech.model import BAWitness, DomainKind, DomainSpec, Environment, enumerate_profiles, sub_profiles
from exmech.stochastic import (
    Distribution,
    ProbMechanism,
    build_mixed_counterexample,
    counterexample_preference,
    find_prob_ba_witness,
    random_totally_mixed,
    validate_prob_witness,
)

FULL_KINDS = (DomainKind.UNRESTRICTED, DomainKind.STRICT, DomainKind.WEAK_ONLY)


def small_env():
    return Environment.create((("a0", "a1"), ("b0", "b1")), ("z0", "z1"))


def first_valid_witness(mech, domains, validate):
    """Walk (agent, r, l, a, b, ordering) in the documented search order and
    return the first candidate the validator accepts."""
    env = mech.env
    specs = resolve_domains(env, domains)
    for agent in range(env.n):
        acts = env.actions[agent]
        subs = tuple(sub_profiles(env, agent))
        orderings = domain_orderings(env, agent, specs[agent])
        for r, l, a, b in itertools.product(acts, acts, subs, subs):
            if r == l or a == b:
                continue
            for ordering in orderings:
                witness = BAWitness(agent, r, l, a, b, ordering)
                try:
                    validate(mech, witness)
                except InvariantViolation:
                    continue
                return witness
    return None


@pytest.mark.parametrize("strict_iii", (False, True))
@pytest.mark.parametrize("kind", FULL_KINDS, ids=lambda k: k.value)
def test_deterministic_search_returns_oracle_witness(kind, strict_iii):
    validate = functools.partial(validate_witness, strict_iii=strict_iii)
    env = small_env()
    profiles = list(enumerate_profiles(env))
    tables = list(itertools.product(env.outcomes, repeat=len(profiles)))
    # three agents give four sub-profiles each, so the order over b matters too
    env3 = Environment.create((("a0", "a1"), ("b0", "b1"), ("c0", "c1")), ("z0", "z1"))
    profiles3 = list(enumerate_profiles(env3))
    rng = random.Random(1)
    mechs = [DetMechanism(env, dict(zip(profiles, values))) for values in tables] + [
        DetMechanism(env3, {p: rng.choice(env3.outcomes) for p in profiles3}) for _ in range(10)
    ]
    found = 0
    for mech in mechs:
        expected = first_valid_witness(mech, kind, validate)
        assert find_ba_witness(mech, kind, strict_iii=strict_iii) == expected
        found += expected is not None
    assert found > 0


def mixed_palette(env, rng):
    return [random_totally_mixed(env.outcomes, rng) for _ in range(2)]


def degenerate_palette(env, rng):
    return [Distribution.point_mass(z, env.outcomes) for z in env.outcomes] + [
        Distribution.uniform(env.outcomes)
    ]


@pytest.mark.parametrize("palette", (mixed_palette, degenerate_palette), ids=("mixed", "degenerate"))
@pytest.mark.parametrize("kind", FULL_KINDS, ids=lambda k: k.value)
def test_probabilistic_search_returns_oracle_witness(kind, palette):
    # each profile draws from a small palette of distributions, so condition
    # (i) ties are common; the mixed palette keeps mechanisms completely mixed
    rng = random.Random(3)
    env = small_env()
    found = 0
    for _ in range(10):
        dists = palette(env, rng)
        mech = ProbMechanism(env, {p: rng.choice(dists) for p in enumerate_profiles(env)})
        expected = first_valid_witness(mech, kind, validate_prob_witness)
        assert find_prob_ba_witness(mech, kind) == expected
        found += expected is not None
    assert found > 0 or (kind is DomainKind.STRICT and palette is mixed_palette)


def test_probabilistic_search_returns_oracle_witness_on_counterexample():
    env, mech = build_mixed_counterexample()
    domains = (
        DomainSpec.explicit((counterexample_preference(),)),
        DomainSpec.explicit((indifferent_ordering(1, env.actions[1], env.outcomes),)),
    )
    expected = first_valid_witness(mech, domains, validate_prob_witness)
    assert expected is not None
    assert find_prob_ba_witness(mech, domains) == expected
