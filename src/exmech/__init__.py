"""Finite collective choice with expressive preferences.

Models environments where agents rank (own action, outcome) pairs, and
decides whether deterministic or probabilistic mechanisms admit the Brexit
anomaly: an agent strictly prefers a "protest" action where it cannot change
the result, while the alternative action is its best response elsewhere.

Public names resolve on first access (PEP 562), so importing the package, or
one submodule such as `exmech.cli`, loads no module it does not use.
"""

import importlib

_EXPORTS = {
    "errors": """ActionsEqual AgentMismatch AgentOutOfRange CapExceeded ExmechError
        GridDoesNotSupportWitness InvariantViolation NotQueueingEnvironment NotStrict
        NotVotingEnvironment ParseError UnknownPair""",
    "model": """BAWitness DomainKind DomainSpec Environment Ordering
        enumerate_profiles env_from_json env_to_json full_profile sub_profiles
        witness_from_json witness_to_json""",
    "domains": """build_queueing_pref_1 build_queueing_pref_2 classical_orderings
        domain_orderings enumerate_strict_orderings enumerate_weak_only_orderings
        enumerate_weak_orderings indifferent_ordering is_classical is_separable
        resolve_domains separability_violation""",
    "queueing": "QueueingOutcome QueueingParams clinic_revenue material_payoff",
    "deterministic": """DetMechanism build_groves_queueing build_majority_referendum
        build_plurality condition1_counterexample condition1_counterexamples
        construct_queueing_witness find_ba_witness nba_by_characterization
        satisfies_condition1 satisfies_monotonicity satisfies_unanimity search_ba_witness
        validate_witness witness_from_counterexample""",
    "stochastic": """Distribution DominanceBlock Lottery ProbMechanism
        build_mixed_counterexample build_relative_frequency dominance_dichotomy
        find_prob_ba_witness fsd is_completely_mixed is_totally_mixed phi
        search_prob_ba_witness validate_prob_witness""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
