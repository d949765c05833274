"""In-memory spans and counters around exmech's public functions.

The tracer wraps functions and methods from outside the program: every
module attribute bound to a wrapped function is replaced, so callers that
imported the name (``exmech.cli`` and ``exmech.verify`` do) are traced too.
Spans carry a parent id; self time is a span's duration minus the time its
child spans cover.  Hot functions are counted, or timed without keeping a
span record, so that tracing does not dominate the pass.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import Counter, defaultdict

# (module, attribute, wrapper kind, group).  Kinds:
#   span   - span kept in memory, with self and inclusive time for the group
#   timed  - as span, but only aggregated (for functions called per ordering)
#   count  - call counter only
#   enum   - span plus a count of the orderings the returned iterator yields
FUNCTIONS = [
    ("exmech.domains", "domain_orderings", "span", "domains.orderings"),
    ("exmech.domains", "domain_rank_vectors", "span", "domains.rank_vectors"),
    ("exmech.domains", "enumerate_weak_orderings", "enum", "domains.enumerate"),
    ("exmech.domains", "enumerate_strict_orderings", "enum", "domains.enumerate"),
    ("exmech.domains", "enumerate_weak_only_orderings", "enum", "domains.enumerate"),
    ("exmech.model", "env_from_json", "span", "model.env_from_json"),
    ("exmech.deterministic", "build_majority_referendum", "span", "det.build"),
    ("exmech.deterministic", "build_plurality", "span", "det.build"),
    ("exmech.deterministic", "build_groves_queueing", "span", "det.build"),
    ("exmech.deterministic", "det_mech_from_json", "span", "det.build"),
    ("exmech.deterministic", "search_ba_witness", "span", "det.search"),
    ("exmech.deterministic", "nba_by_characterization", "span", "det.characterization"),
    ("exmech.deterministic", "satisfies_condition1", "span", "det.characterization"),
    ("exmech.deterministic", "condition1_counterexample", "span", "det.characterization"),
    ("exmech.deterministic", "witness_from_counterexample", "span", "det.characterization"),
    ("exmech.deterministic", "validate_witness", "span", "det.validate"),
    ("exmech.stochastic", "build_relative_frequency", "span", "prob.build"),
    ("exmech.stochastic", "build_mixed_counterexample", "span", "prob.build"),
    ("exmech.stochastic", "prob_mech_from_json", "span", "prob.build"),
    ("exmech.stochastic", "search_prob_ba_witness", "span", "prob.search"),
    ("exmech.stochastic", "fsd", "timed", "prob.fsd"),
    ("exmech.stochastic", "phi", "count", "prob.phi"),
    ("exmech.stochastic", "validate_prob_witness", "span", "prob.validate"),
    ("exmech.verify", "run_all", "span", "verify.run_all"),
    ("exmech.cli", "main", "span", "cli.main"),
]

# (module, class, method, kind, group)
METHODS = [
    ("exmech.model", "Ordering", "__post_init__", "count", "model.ordering"),
    ("exmech.model", "Ordering", "rank", "count", "model.rank"),
    ("exmech.deterministic", "DetMechanism", "__post_init__", "span", "det.build"),
    ("exmech.deterministic", "DetMechanism", "outcome_at", "count", "det.outcome_at"),
    ("exmech.stochastic", "Distribution", "__post_init__", "timed", "prob.build"),
    ("exmech.stochastic", "ProbMechanism", "__post_init__", "span", "prob.build"),
    ("exmech.stochastic", "ProbMechanism", "dist_at", "count", "prob.dist_at"),
    ("exmech.cli", "AnalysisReport", "to_json", "span", "cli.serialize"),
    ("exmech.cli", "AnalysisReport", "to_text", "span", "cli.serialize"),
]

CLAIM_PREFIX = "claim_"

# Every module that may bind a wrapped name; all of them are rebound.
MODULES = (
    "exmech", "exmech.model", "exmech.domains", "exmech.queueing", "exmech.deterministic",
    "exmech.stochastic", "exmech.verify", "exmech.cli",
)


def _module(name: str):
    """The imported module, or None when a refactor removed it."""
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, group, start, end)
        self._stack: list[list] = []  # [span id, child time]
        self._ids = itertools.count(1)
        self.calls: Counter = Counter()
        self.outer_calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self._active: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.claim_names: dict[str, str] = {}
        self._patches: list[tuple] = []

    # --- wrappers ---------------------------------------------------------------

    def _timed(self, fn, group: str, keep: bool, on_result=None, on_enter=None):
        stack, active = self._stack, self._active
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[group] += 1
            if not active[group]:
                self.outer_calls[group] += 1
            if on_enter is not None:
                on_enter()
            parent = stack[-1][0] if stack else 0
            frame = [next(self._ids), 0.0]
            stack.append(frame)
            active[group] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[group] -= 1
                dur = end - start
                self.self_s[group] += dur - frame[1]
                if not active[group]:
                    self.incl_s[group] += dur
                if stack:
                    stack[-1][1] += dur
                if keep:
                    self.spans.append((frame[0], parent, group, start, end))
            if on_result is not None:
                result = on_result(result)
            return result

        return wrapper

    def _counted(self, fn, group: str):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[group] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yielded(self, iterator):
        for item in iterator:
            self.counts["domains.orderings_built"] += 1
            yield item

    def _wrap(self, fn, kind: str, group: str):
        if kind == "count":
            return self._counted(fn, group)
        if kind == "enum":
            def on_enter():
                if not self._active[group] and self._active["domains.orderings"]:
                    self.counts["domains.enumerations_in_orderings"] += 1

            outer = self._timed(fn, group, True, on_enter=on_enter)

            @functools.wraps(fn)
            def enum_wrapper(*args, **kwargs):
                nested = self._active[group] > 0
                iterator = outer(*args, **kwargs)
                return iterator if nested else self._yielded(iterator)

            return enum_wrapper
        on_result = None
        if group == "det.search" or group == "prob.search":
            def on_result(result, group=group):
                if getattr(result, "witness", None) is not None:
                    self.counts[group + ".ba"] += 1
                return result
        elif group == "prob.fsd":
            def on_result(result):
                if result:
                    self.counts["prob.fsd.true"] += 1
                return result
        return self._timed(fn, group, kind == "span", on_result)

    # --- installation -------------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Point every exmech module attribute bound to `original` at `wrapper`."""
        for module in filter(None, map(_module, MODULES)):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for mod_name, attr, kind, group in FUNCTIONS:
            original = getattr(_module(mod_name), attr, None)
            if original is None:
                self.missing.append(group)
                continue
            self._rebind(original, self._wrap(original, kind, group))
        for attr, value in list(vars(_module("exmech.verify") or object()).items()):
            if attr.startswith(CLAIM_PREFIX) and callable(value):
                self._rebind(value, self._claim_wrapper(value))
        for mod_name, cls_name, attr, kind, group in METHODS:
            cls = getattr(_module(mod_name), cls_name, None)
            original = vars(cls).get(attr) if isinstance(cls, type) else None
            if original is None:
                self.missing.append(group)
                continue
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, kind, group))

    def _claim_wrapper(self, fn):
        group = "verify.claim_fn." + fn.__name__

        def on_result(result):
            self.claim_names[group] = getattr(result, "name", fn.__name__)
            return result

        return self._timed(fn, group, True, on_result)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "outer_calls": dict(self.outer_calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "claims": {name: self.incl_s[group] for group, name in self.claim_names.items()},
            "missing": self.missing,
            "spans": self.spans,
        }
