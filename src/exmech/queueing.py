"""Two-patient queueing problem: cost reports, waiting times, transfers.

A clinic serves one patient at a time.  Each patient reports a unit waiting
cost from a finite grid in [0, 1]; an outcome assigns one patient waiting time
zero and the other waiting time one, plus a transfer from each patient to the
clinic.  All amounts are exact rationals: the lexicographic preference over
these outcomes turns on equality tests that floats would corrupt.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import InvariantViolation, NotQueueingEnvironment, ParseError
from .model import Environment, Value, set_field

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_fraction(text: str) -> Fraction:
    """The exact rational a literal such as "1/3", "0.25" or "5e-2" spells.

    Fraction would build 10**exponent, so an exponent beyond the digit limit
    Python puts on int() literals is rejected like a longer literal.
    """
    literal = str(text)
    exponent = re.search(r"[eE]([-+]?[\d_]+)\s*\Z", literal)
    try:
        if exponent and abs(int(exponent[1])) > sys.int_info.default_max_str_digits:
            raise ParseError(f"exponent out of range in {text!r}")
        return Fraction(literal)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {text!r}") from None


class QueueingParams(Value):
    """Unit waiting costs, the common treatment benefit, and the report grid."""

    _fields = ("theta1", "theta2", "grid", "u_bar")

    def __init__(
        self,
        theta1: Fraction,
        theta2: Fraction,
        grid: tuple[Fraction, ...],
        u_bar: Fraction = Fraction(2),
    ) -> None:
        set_field(self, "theta1", theta1)
        set_field(self, "theta2", theta2)
        set_field(self, "grid", grid)
        set_field(self, "u_bar", u_bar)
        self.__post_init__()

    def __post_init__(self) -> None:
        set_field(self, "theta1", Fraction(self.theta1))
        set_field(self, "theta2", Fraction(self.theta2))
        set_field(self, "u_bar", Fraction(self.u_bar))
        set_field(self, "grid", tuple(Fraction(g) for g in self.grid))
        if not self.grid:
            raise InvariantViolation("report grid is empty")
        if any(not ZERO <= g <= ONE for g in self.grid):
            raise InvariantViolation("grid points must lie in [0, 1]")
        if any(a >= b for a, b in zip(self.grid, self.grid[1:])):
            raise InvariantViolation("grid must be strictly ascending")
        for name in ("theta1", "theta2"):
            if not ZERO <= getattr(self, name) <= ONE:
                raise InvariantViolation(f"{name} must lie in [0, 1]")
        if self.u_bar <= 0:
            raise InvariantViolation("treatment benefit must be positive")

    def theta(self, patient: int) -> Fraction:
        return self.theta1 if patient == 0 else self.theta2


class QueueingOutcome(Value):
    """Waiting-time assignment (one patient first) and the two transfers."""

    _fields = ("w", "t")

    def __init__(self, w: tuple[int, int], t: tuple[Fraction, Fraction]) -> None:
        set_field(self, "w", w)
        set_field(self, "t", t)
        self.__post_init__()

    def __post_init__(self) -> None:
        set_field(self, "w", (int(self.w[0]), int(self.w[1])))
        set_field(self, "t", (Fraction(self.t[0]), Fraction(self.t[1])))
        if sorted(self.w) != [0, 1]:
            raise InvariantViolation("exactly one patient must wait")

    def label(self) -> str:
        return f"w={self.w[0]},{self.w[1]}|t={self.t[0]},{self.t[1]}"

    @classmethod
    def parse(cls, label: str) -> "QueueingOutcome":
        try:
            w_part, t_part = label.split("|")
            w1, w2 = w_part.removeprefix("w=").split(",")
            t1, t2 = t_part.removeprefix("t=").split(",")
            return cls((int(w1), int(w2)), (parse_fraction(t1), parse_fraction(t2)))
        except (ValueError, InvariantViolation, ParseError):
            raise ParseError(f"not a queueing outcome label: {label!r}") from None


def material_payoff(outcome: QueueingOutcome, params: QueueingParams, patient: int) -> Fraction:
    """Benefit net of the patient's own waiting cost and transfer."""
    return params.u_bar - params.theta(patient) * outcome.w[patient] - outcome.t[patient]


def clinic_revenue(outcome: QueueingOutcome) -> Fraction:
    return outcome.t[0] + outcome.t[1]


def grid_labels(grid: tuple[Fraction, ...]) -> tuple[str, ...]:
    return tuple(str(g) for g in grid)


def queueing_outcomes_of(env: Environment) -> dict[str, QueueingOutcome]:
    """Decode the outcome labels of a queueing-grid environment.

    Raises NotQueueingEnvironment unless the environment has two patients with
    identical grid-report action sets and parseable outcome labels.
    """
    if env.n != 2 or env.actions[0] != env.actions[1]:
        raise NotQueueingEnvironment("expected two patients with identical report grids")
    try:
        reports = [parse_fraction(a) for a in env.actions[0]]
    except ParseError:
        raise NotQueueingEnvironment("action labels are not rational reports") from None
    if any(a >= b for a, b in zip(reports, reports[1:])):
        raise NotQueueingEnvironment("report grid is not strictly ascending")
    try:
        return {label: QueueingOutcome.parse(label) for label in env.outcomes}
    except ParseError:
        raise NotQueueingEnvironment("outcome labels are not queueing outcomes") from None


def queueing_grid_of(env: Environment) -> tuple[Fraction, ...]:
    queueing_outcomes_of(env)
    return tuple(Fraction(a) for a in env.actions[0])
