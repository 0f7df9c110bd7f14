"""Clause replacement rules and the monotone-form reduction pipelines.

Three layers:

* Rules: ``gold_step`` splits one mixed 3-clause into two monotone
  clauses; ``apply_r1`` / ``apply_r2`` / ``apply_r3`` replace a monotone
  2-clause with monotone 3-clauses over fresh variables, with tightening
  occurrence guarantees (r3 leaves the two original variables untouched
  and every fresh variable occurs at most five times).
* Gadget: a fixed 25-clause monotone collection whose models all agree
  on a designated variable; instantiated per widened 2-clause so nothing
  exceeds four occurrences.
* Pipelines: the ``TARGETS`` table maps each target name to its output
  profile, its 2-clause template (none, r3, compact r3, or widening plus
  gadget), compiled once from its rule, and the growth per 2-clause read
  from it.  ``Target.reduce`` runs every target; ``eliminate_mixed``,
  ``to_monotone_3sat5`` and ``to_monotone_3sat4`` run table entries.

Every pipeline is deterministic: clauses are processed in input order,
a replaced clause's children are inserted at its position, and fresh
variables are consecutive indices starting right after the input's
declared count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from operator import neg
from typing import Callable

from .formula import Clause, CnfFormula, _trusted_clause, _trusted_formula, occurrences
from .profiles import PROFILES, ViolationReport, check_profile


class ProfileError(ValueError):
    """Raised when a pipeline input fails its profile check.  The message
    quotes the first violation and counts the rest, so it stays one line."""

    def __init__(self, message: str, report: ViolationReport):
        more = f" (and {len(report) - 1} more)" if len(report) > 1 else ""
        super().__init__(f"{message}: {report.violations[0]}{more}")


class FreshAllocator:
    """Hands out consecutive fresh variable indices, strictly increasing.

    Seed it past every existing index (``num_vars + 1`` for a formula)
    so allocations never collide.
    """

    def __init__(self, next_index: int):
        if next_index < 1:
            raise ValueError(f"variable indices start at 1, got {next_index}")
        self._next = next_index

    @property
    def next_index(self) -> int:
        return self._next

    def fresh(self) -> int:
        index = self._next
        self._next += 1
        return index

    def fresh_many(self, count: int) -> tuple[int, ...]:
        return tuple(self.fresh() for _ in range(count))


def _monotone_pair_sign(clause: Clause, rule: str) -> int:
    if len(clause) != 2:
        raise ValueError(f"{rule} requires a 2-clause, got width {len(clause)}")
    if clause.is_positive:
        return 1
    if clause.is_negative:
        return -1
    raise ValueError(f"{rule} requires a monotone clause, got {clause!r}")


def gold_step(clause: Clause, alloc: FreshAllocator) -> tuple[Clause, Clause]:
    """Split a mixed 3-clause into two monotone clauses over a fresh
    bridge variable: the positive part widened by the bridge, and the
    negative part widened by its negation.

    One output has width 2 and the other width 3; original variables
    keep their occurrence counts and the bridge occurs exactly twice.
    """
    if len(clause) != 3:
        raise ValueError(f"gold_step requires a 3-clause, got width {len(clause)}")
    if not clause.is_mixed:
        raise ValueError(f"gold_step requires a mixed clause, got {clause!r}")
    positive = tuple(lit for lit in clause if lit > 0)
    negative = tuple(lit for lit in clause if lit < 0)
    bridge = alloc.fresh()
    return Clause(positive + (bridge,)), Clause(negative + (-bridge,))


def apply_r1(clause: Clause, alloc: FreshAllocator) -> list[Clause]:
    """Replace a monotone 2-clause with four monotone 3-clauses: the pair
    widened by each of three fresh variables, plus one clause forcing at
    least one fresh variable to the pair's own polarity side.

    A positive pair {x, y} becomes {x,y,u}, {x,y,v}, {x,y,w},
    {-u,-v,-w}; a negative pair is the literal-wise dual.
    """
    sign = _monotone_pair_sign(clause, "apply_r1")
    u, v, w = alloc.fresh_many(3)
    return [
        Clause(clause + (sign * u,)),
        Clause(clause + (sign * v,)),
        Clause(clause + (sign * w,)),
        Clause((-sign * u, -sign * v, -sign * w)),
    ]


def apply_r2(clause: Clause, alloc: FreshAllocator) -> list[Clause]:
    """Replace a monotone 2-clause with six monotone 3-clauses over five
    fresh variables: the pair widened by two fresh variables, then
    apply_r1 on the opposite-polarity pair of those two.

    Each original variable gains exactly one occurrence; no fresh
    variable occurs more than four times.
    """
    sign = _monotone_pair_sign(clause, "apply_r2")
    u, v = alloc.fresh_many(2)
    out = [Clause(clause + (sign * u,)), Clause(clause + (sign * v,))]
    out.extend(apply_r1(Clause((-sign * u, -sign * v)), alloc))
    return out


def apply_r3(clause: Clause, alloc: FreshAllocator, compact: bool = False) -> list[Clause]:
    """Replace a monotone 2-clause with monotone 3-clauses while leaving
    the occurrence counts of both original variables unchanged.

    Standard mode widens the pair by one fresh variable u and expands
    the three pairs {-u,-v}, {-u,-w}, {v,w} with apply_r2 (duals for a
    negative input): 19 clauses over 18 fresh variables.  Compact mode
    expands the last pair with apply_r1 instead: 17 clauses over 16
    fresh variables.  Either way no fresh variable occurs more than
    five times.
    """
    sign = _monotone_pair_sign(clause, "apply_r3")
    u, v, w = alloc.fresh_many(3)
    out = [Clause(clause + (sign * u,))]
    out.extend(apply_r2(Clause((-sign * u, -sign * v)), alloc))
    out.extend(apply_r2(Clause((-sign * u, -sign * w)), alloc))
    last_rule = apply_r1 if compact else apply_r2
    out.extend(last_rule(Clause((sign * v, sign * w)), alloc))
    return out


# The forcing gadget: 25 monotone 3-clauses over 21 variables, numbered
# by first appearance in the emission order below.  Variable 3 is the
# designated one: the collection is satisfiable, and every model sets
# variable 3 true (its literal-wise negation forces it false).  Variable 3
# occurs exactly 3 times, variable 21 exactly twice, and no variable
# occurs more than 4 times, so adding the designated variable to one
# more clause outside the gadget stays within an occurrence cap of 4.
_GADGET_PATTERN: tuple[tuple[int, int, int], ...] = (
    (1, 2, 3),
    (1, 4, 3),
    (-2, -4, -5),
    (-2, -4, -6),
    (-2, -4, -7),
    (5, 6, 7),
    (-8, -9, -5),
    (-8, -9, -6),
    (-8, -9, -7),
    (8, 10, 11),
    (9, 10, 11),
    (-1, -10, -12),
    (-1, -11, -12),
    (12, 3, 13),
    (-14, -15, -10),
    (-14, -15, -11),
    (16, 17, 14),
    (16, 17, 15),
    (-13, -16, -18),
    (-13, -17, -18),
    (12, 18, 19),
    (-19, -16, -20),
    (-19, -17, -20),
    (20, 18, 21),
    (-21, -19, -13),
)


@dataclass(frozen=True)
class GadgetTemplate:
    """A forcing pattern over variables 1..var_count with its designated
    variable."""

    clauses: tuple[tuple[int, int, int], ...]
    designated: int

    def __post_init__(self) -> None:
        # the designated variable's 3 occurrences are within the cap of 4
        formula = CnfFormula.from_ints(self.clauses)
        report = check_profile(formula, PROFILES["mono3sat4"])
        if not report.ok:
            first = report.violations[0]
            raise ValueError(f"gadget clauses must be monotone 3-clauses, at most 4 per variable: {first}")
        if occurrences(formula)[self.designated] != 3:
            raise ValueError("designated variable must occur exactly 3 times")

    @property
    def var_count(self) -> int:
        return max(abs(lit) for pattern in self.clauses for lit in pattern)


FORCE_TRUE_GADGET = GadgetTemplate(clauses=_GADGET_PATTERN, designated=3)
FORCE_FALSE_GADGET = GadgetTemplate(
    clauses=tuple(tuple(-lit for lit in pattern) for pattern in _GADGET_PATTERN), designated=3
)


def instantiate_gadget(template: GadgetTemplate, alloc: FreshAllocator) -> tuple[list[Clause], int]:
    """Emit the gadget over fresh variables, in template clause order.

    Template variables map to consecutive fresh indices in numbering
    order (which is first-appearance order in the emitted clause list):
    variable t becomes ``first + t - 1``.  Returns the clauses and the
    concrete designated variable.
    """
    offset = alloc.fresh_many(template.var_count)[0] - 1
    clauses = [
        Clause(tuple(lit + offset if lit > 0 else lit - offset for lit in pattern))
        for pattern in template.clauses
    ]
    return clauses, template.designated + offset


@dataclass(frozen=True)
class ClauseOrigin:
    """Provenance of one output clause: the rule that created it
    ("input" for clauses carried over verbatim) and the index of the
    input clause it descends from."""

    rule: str
    source: int


def _widen_with_gadget(pair: Clause, alloc: FreshAllocator) -> list[Clause]:
    """A positive 2-clause widened by a fresh variable, then the gadget
    forcing that variable false.  Only the positive probe of ``_target``
    runs it; ``Target._instance`` mirrors the result for a negative pair."""
    gadget, designated = instantiate_gadget(FORCE_FALSE_GADGET, alloc)
    return [Clause(pair + (designated,)), *gadget]


@dataclass(frozen=True)
class Target:
    """One reduction target: the class its output meets, the template
    that replaces each monotone 2-clause left by mixed elimination (one
    (rule label, slot literals) per clause; a target without one keeps
    the 2-clauses) and what each 2-clause adds, in (variables, clauses).
    """

    profile: str
    template: tuple[tuple[str, tuple[int, ...]], ...] | None
    growth: tuple[int, int]

    def reduce(self, formula: CnfFormula) -> tuple[CnfFormula, tuple[ClauseOrigin, ...]]:
        """Check the input, then in one pass split its mixed clauses and
        expand its 2-clauses.  Returns the output and the provenance of each
        output clause.  Each input clause becomes one contiguous run, in
        input order; the bridges are numbered from ``num_vars + 1`` and the
        expansion blocks after them, so each fresh variable is in one run.

        Every target accepts 3-SAT-4 input; one with a template also accepts
        monotone (2,3)-SAT-4 input, the mixed-elimination output class.
        """
        strict = check_profile(formula, PROFILES["3sat4"])
        if not strict.ok:
            if self.template is None:
                raise ProfileError("eliminate_mixed requires a 3-SAT-4 instance", strict)
            if not check_profile(formula, PROFILES["mono23sat4"]).ok:
                raise ProfileError("input is neither 3-SAT-4 nor monotone (2,3)-SAT-4", strict)
        bridges = FreshAllocator(formula.num_vars + 1)
        first = formula.num_vars + sum(clause.is_mixed for clause in formula.clauses) + 1
        clauses: list[Clause] = []
        origins: list[ClauseOrigin] = []
        for source, clause in enumerate(formula.clauses):
            if clause.is_mixed:
                origin = ClauseOrigin("gold", source)
                run = sorted(gold_step(clause, bridges), key=len, reverse=True)
            else:
                origin = ClauseOrigin("input", source)
                run = [clause]
            for child in run:
                if self.template is None or len(child) != 2:
                    clauses.append(child)
                    origins.append(origin)
                    continue
                for label, produced in self._instance(child, first):
                    if origin.rule != label:
                        origin = ClauseOrigin(label, source)
                    clauses.append(produced)
                    origins.append(origin)
                first += self.growth[0]
        return _trusted_formula(clauses, first - 1), tuple(origins)

    def _instance(self, pair: Clause, first: int) -> list[tuple[str, Clause]]:
        """The template on ``pair``: slots 1 and 2 become its variables and
        slot k the fresh ``first + k - 3``, mirrored for a negative pair.
        The pair lies below ``first``, so the map keeps variable order."""
        x, y = pair
        fresh = range(first, first + self.growth[0])
        values = [x, y, *(fresh if x > 0 else map(neg, fresh))]
        lookup = [0, *values, *map(neg, reversed(values))].__getitem__  # lookup(-s) is -lookup(s)
        return [(label, _trusted_clause(map(lookup, slots))) for label, slots in self.template]


def _target(
    profile: str, rule: Callable[..., list[Clause]] | None = None, labels: tuple[str, ...] = ()
) -> Target:
    """A table entry with its rule compiled into a template, by running it
    once on the probe 2-clause (1, 2) with fresh variables from 3 on.
    ``labels`` name the produced clauses, the last one repeating; growth
    is the fresh variables and the clauses, less the probe they replace."""
    if rule is None:
        return Target(profile, None, (0, 0))
    alloc = FreshAllocator(3)
    labelled = zip(chain(labels, repeat(labels[-1])), rule(Clause((1, 2)), alloc))
    template = tuple(labelled)
    return Target(profile, template, (alloc.next_index - 3, len(template) - 1))


TARGETS: dict[str, Target] = {
    "mono23sat4": _target("mono23sat4"),
    "mono3sat5": _target("mono3sat5", partial(apply_r3, compact=False), ("r3",)),
    "mono3sat5-compact": _target("mono3sat5", partial(apply_r3, compact=True), ("r3",)),
    "mono3sat4": _target("mono3sat4", _widen_with_gadget, ("widen", "gadget")),
}


def eliminate_mixed(formula: CnfFormula) -> tuple[CnfFormula, tuple[ClauseOrigin, ...]]:
    """Rewrite every mixed clause of a 3-SAT-4 instance via gold_step.

    The output has no mixed clauses, every clause of width 2 or 3, and
    is equisatisfiable with the input (monotone (2,3)-SAT-4).  Children
    replace their parent in place, wider child first.
    """
    return TARGETS["mono23sat4"].reduce(formula)


def to_monotone_3sat5(
    formula: CnfFormula, compact: bool = False
) -> tuple[CnfFormula, tuple[ClauseOrigin, ...]]:
    """Full pipeline to monotone 3-SAT-5: eliminate mixed clauses, then
    expand every 2-clause with apply_r3 (compact switches to its compact
    variant).  Output is equisatisfiable, all clauses monotone 3-clauses,
    no variable occurring more than five times."""
    return TARGETS["mono3sat5-compact" if compact else "mono3sat5"].reduce(formula)


def to_monotone_3sat4(formula: CnfFormula) -> tuple[CnfFormula, tuple[ClauseOrigin, ...]]:
    """Full pipeline to monotone 3-SAT-4: eliminate mixed clauses, then
    widen every 2-clause with a fresh forced variable and attach one
    fresh gadget per 2-clause.

    A negative pair gains the negation of a variable its gadget forces
    true; a positive pair gains a variable its gadget forces false.  The
    designated variable ends at four occurrences (three in the gadget,
    one in the widened clause); everything else stays within four.
    """
    return TARGETS["mono3sat4"].reduce(formula)
